//! The F+ tree used by F+LDA.
//!
//! A complete binary tree stored flat in an array: leaf `i` holds the weight
//! of outcome `i`, every internal node holds the sum of its children. Point
//! updates and exact draws from the current (unnormalized) distribution both
//! cost O(log K). Unlike the alias table it supports *incremental* updates,
//! which is what lets F+LDA keep its sampling structure exact as counts change
//! token by token.

use rand::Rng;

/// A sum-tree over `len` non-negative weights supporting O(log K) updates and
/// O(log K) sampling.
#[derive(Debug, Clone)]
pub struct FTree {
    /// Number of leaves (outcomes).
    len: usize,
    /// Number of leaf slots (next power of two ≥ len).
    leaf_base: usize,
    /// Flat tree: `tree[1]` is the root, children of `i` are `2i` / `2i+1`,
    /// leaves start at `leaf_base`.
    tree: Vec<f64>,
}

impl FTree {
    /// Builds a tree from initial weights in O(K).
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is negative/non-finite.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "FTree needs at least one outcome");
        let len = weights.len();
        let leaf_base = len.next_power_of_two();
        let mut tree = vec![0.0f64; 2 * leaf_base];
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative, got {w}");
            tree[leaf_base + i] = w;
        }
        for i in (1..leaf_base).rev() {
            tree[i] = tree[2 * i] + tree[2 * i + 1];
        }
        Self { len, leaf_base, tree }
    }

    /// The current weight of `outcome`.
    pub fn weight(&self, outcome: usize) -> f64 {
        assert!(outcome < self.len, "outcome {outcome} out of range");
        self.tree[self.leaf_base + outcome]
    }

    /// The sum of all weights.
    pub fn total(&self) -> f64 {
        self.tree[1]
    }

    /// Sets the weight of `outcome` to `weight` in O(log K).
    pub fn set(&mut self, outcome: usize, weight: f64) {
        assert!(outcome < self.len, "outcome {outcome} out of range");
        assert!(weight.is_finite() && weight >= 0.0, "weight must be finite and non-negative");
        let mut i = self.leaf_base + outcome;
        self.tree[i] = weight;
        i /= 2;
        while i >= 1 {
            self.tree[i] = self.tree[2 * i] + self.tree[2 * i + 1];
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    /// Draws an outcome with probability proportional to its weight, O(log K).
    ///
    /// If the total weight is zero, falls back to a uniform draw.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = self.total();
        if total <= 0.0 {
            return rng.gen_range(0..self.len);
        }
        let mut u = rng.gen::<f64>() * total;
        let mut i = 1usize;
        while i < self.leaf_base {
            let left = self.tree[2 * i];
            if u < left {
                i *= 2;
            } else {
                u -= left;
                i = 2 * i + 1;
            }
        }
        (i - self.leaf_base).min(self.len - 1)
    }

    /// Prefix sum of weights `0..=outcome`, O(log K). Used in tests and by the
    /// exact samplers that need CDF queries.
    pub fn prefix_sum(&self, outcome: usize) -> f64 {
        assert!(outcome < self.len, "outcome {outcome} out of range");
        let mut i = self.leaf_base + outcome;
        let mut acc = self.tree[i];
        while i > 1 {
            if i % 2 == 1 {
                acc += self.tree[i - 1];
            }
            i /= 2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::new_rng;

    #[test]
    fn total_and_weights_after_build() {
        let t = FTree::new(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.len, 5);
        assert!((t.total() - 15.0).abs() < 1e-12);
        assert!((t.weight(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn set_and_add_update_totals() {
        let mut t = FTree::new(&[1.0, 1.0, 1.0]);
        t.set(1, 5.0);
        assert!((t.total() - 7.0).abs() < 1e-12);
        t.set(0, 3.0);
        assert!((t.total() - 9.0).abs() < 1e-12);
        t.set(2, 0.0);
        assert!((t.total() - 8.0).abs() < 1e-12);
        assert_eq!(t.weight(2), 0.0);
    }

    #[test]
    fn prefix_sums_match_naive() {
        let weights = [0.5, 2.0, 0.0, 3.0, 1.5, 4.0, 0.25];
        let t = FTree::new(&weights);
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            assert!((t.prefix_sum(i) - acc).abs() < 1e-12, "prefix {i}");
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let weights = [1.0, 0.0, 2.0, 7.0];
        let t = FTree::new(&weights);
        let mut rng = new_rng(29);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let total: f64 = weights.iter().sum();
        for i in [0usize, 2, 3] {
            let f = counts[i] as f64 / n as f64;
            assert!((f - weights[i] / total).abs() < 0.01, "outcome {i}: {f}");
        }
    }

    #[test]
    fn sampling_after_updates_tracks_new_distribution() {
        let mut t = FTree::new(&[1.0, 1.0]);
        t.set(0, 0.0);
        t.set(1, 3.0);
        let mut rng = new_rng(31);
        for _ in 0..1000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn zero_total_falls_back_to_uniform() {
        let t = FTree::new(&[0.0; 4]);
        let mut rng = new_rng(37);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[t.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 2, 3, 5, 6, 7, 9, 100, 1000, 1023, 1025] {
            let weights: Vec<f64> = (0..n).map(|i| (i % 13) as f64 + 0.5).collect();
            let t = FTree::new(&weights);
            let naive: f64 = weights.iter().sum();
            assert!((t.total() - naive).abs() < 1e-9, "n={n}");
            let mut rng = new_rng(n as u64);
            for _ in 0..100 {
                assert!(t.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let t = FTree::new(&[1.0, 2.0]);
        let _ = t.weight(2);
    }
}
