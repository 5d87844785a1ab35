//! The straightforward O(K) discrete sampler.
//!
//! This is the reference implementation: plain CGS uses it directly (that is
//! what makes it O(K) per token).

use rand::Rng;

/// Draws an index with probability proportional to `weights[i]`, scanning the
/// array once (O(K)). Falls back to the last index if rounding leaves the
/// cursor past the end, and to a uniform draw if the total weight is zero.
pub fn sample_unnormalized<R: Rng>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "cannot sample from an empty weight vector");
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::new_rng;

    fn check_frequencies(sampler: impl Fn(&mut rand::rngs::SmallRng) -> usize, weights: &[f64]) {
        let mut rng = new_rng(101);
        let n = 100_000;
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..n {
            counts[sampler(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let f = counts[i] as f64 / n as f64;
            assert!((f - w / total).abs() < 0.012, "outcome {i}: {f} vs {}", w / total);
        }
    }

    #[test]
    fn linear_sampler_matches_weights() {
        let weights = [1.0, 3.0, 0.0, 6.0];
        check_frequencies(|r| sample_unnormalized(r, &weights), &weights);
    }

    #[test]
    fn zero_total_weight_is_uniform() {
        let mut rng = new_rng(5);
        let weights = [0.0, 0.0];
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[sample_unnormalized(&mut rng, &weights)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_weights_panic() {
        let mut rng = new_rng(1);
        let _ = sample_unnormalized(&mut rng, &[]);
    }

    #[test]
    fn single_outcome_always_returned() {
        let mut rng = new_rng(1);
        assert_eq!(sample_unnormalized(&mut rng, &[3.0]), 0);
    }
}
