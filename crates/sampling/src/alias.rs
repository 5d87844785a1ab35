//! Walker's alias method (Section 2.2 of the paper).
//!
//! The alias table turns a K-outcome discrete distribution into K bins of
//! equal probability, each holding at most two outcomes, so a sample costs one
//! uniform bin choice plus one biased coin flip — O(1) — after an O(K) build.
//! One construction fills three layouts: [`AliasTable`] over outcomes `0..K`,
//! [`SparseAliasTable`], whose bins carry arbitrary labels, and
//! [`SparseAliasStore`], the bins of many labelled tables back to back.

use rand::Rng;

/// Reusable worklists for [`AliasTable::rebuild`] /
/// [`SparseAliasTable::rebuild`]: once the buffers have grown to the largest
/// distribution a caller builds, rebuilding tables allocates nothing. One
/// scratch can serve any number of tables (WarpLDA keeps one per worker).
#[derive(Debug, Clone, Default)]
pub struct AliasBuildScratch {
    /// Weights scaled to mean 1.0 per bin.
    scaled: Vec<f64>,
    /// Bins below the mean, awaiting an alias donor.
    small: Vec<u32>,
    /// Bins above the mean, donating probability mass.
    large: Vec<u32>,
}

impl AliasBuildScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for distributions of up to `n` outcomes, so no
    /// rebuild of that size or smaller ever allocates.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            scaled: Vec::with_capacity(n),
            small: Vec::with_capacity(n),
            large: Vec::with_capacity(n),
        }
    }

    /// Bytes of heap the scratch holds.
    pub fn heap_bytes(&self) -> usize {
        8 * self.scaled.capacity() + 4 * (self.small.capacity() + self.large.capacity())
    }
}

/// Walker's construction over `weights`, shared by both table layouts. It
/// calls `pair(bin, prob, alias)` for every bin that keeps its own outcome
/// with probability `prob` and otherwise yields outcome `alias`; a bin it
/// never names keeps its own outcome with probability 1, so the caller
/// initialises every bin that way first. Returns the total weight, or 0.0
/// when every weight is zero (the table then stays uniform).
///
/// # Panics
/// Panics if a weight is negative or non-finite.
fn walker(
    weights: impl Iterator<Item = f64> + Clone,
    scratch: &mut AliasBuildScratch,
    mut pair: impl FnMut(usize, f64, usize),
) -> f64 {
    let (mut n, mut total) = (0usize, 0.0f64);
    for w in weights.clone() {
        assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative, got {w}");
        n += 1;
        total += w;
    }
    if total <= 0.0 {
        return 0.0;
    }
    if n == 1 {
        // One bin, never paired.
        return total;
    }
    let AliasBuildScratch { scaled, small, large } = scratch;

    // Scaled weights: mean 1.0 per bin.
    let scale = n as f64 / total;
    scaled.clear();
    scaled.extend(weights.map(|w| w * scale));

    // Split indices into "small" (< 1) and "large" (>= 1) worklists, in
    // index order, without a branch: each index is written to the top of
    // both and kept by one.
    small.clear();
    small.resize(n, 0);
    large.clear();
    large.resize(n, 0);
    let (mut num_small, mut num_large) = (0, 0);
    for (i, &s) in (0u32..).zip(scaled.iter()) {
        small[num_small] = i;
        large[num_large] = i;
        let is_small = s < 1.0;
        num_small += usize::from(is_small);
        num_large += usize::from(!is_small);
    }
    small.truncate(num_small);
    large.truncate(num_large);

    // Pair the top small bin with the top large one. The large bin donates
    // the small one's shortfall and stays on top of whichever list its
    // remainder now belongs to, so it is kept in hand rather than pushed.
    let (Some(mut l), Some(mut s)) = (large.pop(), small.pop()) else {
        return total;
    };
    loop {
        let (su, lu) = (s as usize, l as usize);
        pair(su, scaled[su], lu);
        // Donate the remainder of the large bin.
        let left = (scaled[lu] + scaled[su]) - 1.0;
        scaled[lu] = left;
        if left < 1.0 {
            s = l;
            match large.pop() {
                Some(next) => l = next,
                None => break,
            }
        } else {
            match small.pop() {
                Some(next) => s = next,
                None => break,
            }
        }
    }
    // Numerical leftovers were never paired: they keep probability 1 of
    // themselves, as initialised.
    total
}

/// An alias table over outcomes `0..len`.
///
/// Built from unnormalized, non-negative weights. Zero-weight outcomes are
/// never returned (unless every weight is zero, in which case the table falls
/// back to the uniform distribution so that sampling always succeeds).
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Probability of keeping the bin's own outcome (vs. taking the alias).
    prob: Vec<f64>,
    /// The alias outcome of each bin.
    alias: Vec<u32>,
    /// Total weight the table was built from (before normalization).
    total_weight: f64,
}

impl AliasTable {
    /// Builds an alias table from unnormalized weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a negative or non-finite value.
    pub fn new(weights: &[f64]) -> Self {
        let mut table = Self::with_capacity(weights.len());
        table.rebuild(weights, &mut AliasBuildScratch::with_capacity(weights.len()));
        table
    }

    /// An empty table whose buffers are pre-sized for distributions of up to
    /// `n` outcomes. [`rebuild`](Self::rebuild) must run before
    /// [`sample`](Self::sample) can be used.
    pub fn with_capacity(n: usize) -> Self {
        Self { prob: Vec::with_capacity(n), alias: Vec::with_capacity(n), total_weight: 0.0 }
    }

    /// Rebuilds the table in place from unnormalized weights, reusing this
    /// table's bins and `scratch`'s worklists. Once both have grown to the
    /// largest distribution seen, rebuilding performs no heap allocation.
    /// The resulting table is identical to `AliasTable::new(weights)`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a negative or non-finite value.
    pub fn rebuild(&mut self, weights: &[f64], scratch: &mut AliasBuildScratch) {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        let n = weights.len();
        let (prob, alias) = (&mut self.prob, &mut self.alias);
        prob.clear();
        prob.resize(n, 1.0);
        alias.clear();
        alias.extend(0..n as u32);
        self.total_weight = walker(weights.iter().copied(), scratch, |bin, p, a| {
            prob[bin] = p;
            alias[bin] = a as u32;
        });
    }

    /// Bytes of heap the table holds.
    pub fn heap_bytes(&self) -> usize {
        8 * self.prob.capacity() + 4 * self.alias.capacity()
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Returns `true` if the table has no outcomes (never true for a
    /// successfully constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Total (unnormalized) weight the table was built from.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Draws one outcome in O(1).
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let bin = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[bin] {
            bin
        } else {
            self.alias[bin] as usize
        }
    }

    /// The probability assigned to `outcome` by the table (reconstructed from
    /// the bins; exact up to floating-point error). Mostly useful in tests.
    pub fn probability(&self, outcome: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut p = self.prob[outcome] / n;
        for (bin, &a) in self.alias.iter().enumerate() {
            if a as usize == outcome && bin != outcome {
                p += (1.0 - self.prob[bin]) / n;
            }
        }
        // Bins that alias to themselves contribute their complement to themselves.
        if self.alias[outcome] as usize == outcome {
            p += (1.0 - self.prob[outcome]) / n;
        }
        p
    }
}

/// One bin of a [`SparseAliasTable`]: its own label, kept with probability
/// `prob`, and the label of its alias. Aligned to its 16 bytes, so a draw
/// reads one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct Bin {
    prob: f64,
    own: u32,
    alias: u32,
}

impl Bin {
    /// One coin between the bin's two labels.
    #[inline]
    fn draw<R: Rng>(&self, rng: &mut R) -> u32 {
        if rng.gen::<f64>() < self.prob {
            self.own
        } else {
            self.alias
        }
    }
}

/// Appends one table's bins for `(label, weight)` entries to `bins` and
/// returns the total weight: Walker's construction, with each bin holding
/// its own label and its alias's. The one bin-filling code of
/// [`SparseAliasTable`] and [`SparseAliasStore`].
fn append_bins(
    bins: &mut Vec<Bin>,
    entries: impl Iterator<Item = (u32, f64)> + Clone,
    scratch: &mut AliasBuildScratch,
) -> f64 {
    let base = bins.len();
    bins.extend(entries.clone().map(|(own, _)| Bin { prob: 1.0, own, alias: own }));
    let table = &mut bins[base..];
    walker(entries.map(|(_, w)| w), scratch, |bin, p, a| {
        let alias = table[a].own;
        table[bin].prob = p;
        table[bin].alias = alias;
    })
}

/// A sparse alias table: outcomes are arbitrary `u32` labels (e.g. the
/// non-zero topics of a document), weights are given per label.
///
/// WarpLDA builds these over the non-zeros of the word-topic vector `c_w`,
/// and a frozen serving model keeps one per word. Each bin holds both of its
/// labels, so a draw is one bin read and a select between them.
#[derive(Debug, Clone)]
pub struct SparseAliasTable {
    bins: Vec<Bin>,
    /// Total weight the table was built from (before normalization).
    total_weight: f64,
}

impl SparseAliasTable {
    /// Builds from `(label, weight)` pairs.
    ///
    /// # Panics
    /// Panics if `entries` is empty.
    pub fn new(entries: &[(u32, f64)]) -> Self {
        let mut table = Self::with_capacity(entries.len());
        table.rebuild(entries, &mut AliasBuildScratch::with_capacity(entries.len()));
        table
    }

    /// An empty table pre-sized for up to `n` entries;
    /// [`rebuild`](Self::rebuild) must run before sampling.
    pub fn with_capacity(n: usize) -> Self {
        Self { bins: Vec::with_capacity(n), total_weight: 0.0 }
    }

    /// Rebuilds the table in place from `(label, weight)` pairs, reusing this
    /// table's bins and `scratch`'s worklists (no heap allocation once
    /// both have grown to the largest distribution seen). The rebuilt table
    /// draws exactly the same labels as a freshly constructed
    /// `SparseAliasTable::new(entries)` given the same RNG stream, and the
    /// same labels as an [`AliasTable`] over the weights maps its outcomes
    /// to.
    ///
    /// # Panics
    /// Panics if `entries` is empty.
    pub fn rebuild(&mut self, entries: &[(u32, f64)], scratch: &mut AliasBuildScratch) {
        assert!(!entries.is_empty(), "sparse alias table needs at least one entry");
        self.bins.clear();
        self.total_weight = append_bins(&mut self.bins, entries.iter().copied(), scratch);
    }

    /// Bytes of heap the table holds: 16 per bin.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Bin>() * self.bins.capacity()
    }

    /// Number of (label, weight) entries.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Returns `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total unnormalized weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Draws one label in O(1): a uniform bin, then a coin between its two
    /// labels — the same two draws as [`AliasTable::sample`].
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        self.sample_bin(rng.gen_range(0..self.bins.len()), rng)
    }

    /// The second half of [`sample`](Self::sample), for a caller that drew
    /// the uniform bin `bin < len()` itself: one coin between the bin's two
    /// labels.
    #[inline]
    pub fn sample_bin<R: Rng>(&self, bin: usize, rng: &mut R) -> u32 {
        self.bins[bin].draw(rng)
    }
}

/// The bins of many [`SparseAliasTable`]s in one buffer: table `i` holds
/// bins `offsets[i]..offsets[i + 1]` of offsets the caller keeps (a frozen
/// serving model's per-word CSR offsets, one bin per non-zero count). A draw
/// reads the caller's two offsets and one bin, with no per-table header in
/// between, and building every table allocates nothing once the buffer and
/// the scratch are sized.
#[derive(Debug, Clone, Default)]
pub struct SparseAliasStore {
    bins: Vec<Bin>,
}

impl SparseAliasStore {
    /// An empty store with room for `bins` bins in all.
    pub fn with_capacity(bins: usize) -> Self {
        Self { bins: Vec::with_capacity(bins) }
    }

    /// Appends the next table, built from `(label, weight)` entries exactly
    /// as [`SparseAliasTable::rebuild`] builds it, and returns its total
    /// weight. Its bins start at the store's previous [`len`](Self::len);
    /// no entries append no bins.
    pub fn push(
        &mut self,
        entries: impl Iterator<Item = (u32, f64)> + Clone,
        scratch: &mut AliasBuildScratch,
    ) -> f64 {
        append_bins(&mut self.bins, entries, scratch)
    }

    /// Bins in all tables.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Returns `true` when the store holds no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Bytes of heap the store holds: 16 per bin.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Bin>() * self.bins.capacity()
    }

    /// [`SparseAliasTable::sample_bin`] on absolute bin `bin`: one coin
    /// between its two labels. A caller drew the bin uniformly from its
    /// table's range.
    #[inline]
    pub fn sample_bin<R: Rng>(&self, bin: usize, rng: &mut R) -> u32 {
        self.bins[bin].draw(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::new_rng;

    fn empirical(table: &AliasTable, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = new_rng(seed);
        let mut counts = vec![0usize; table.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.into_iter().map(|c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let freq = empirical(&table, 200_000, 7);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                (freq[i] - w / total).abs() < 0.01,
                "outcome {i}: {} vs {}",
                freq[i],
                w / total
            );
        }
    }

    #[test]
    fn zero_weight_outcomes_never_sampled() {
        let table = AliasTable::new(&[0.0, 5.0, 0.0, 5.0]);
        let mut rng = new_rng(11);
        for _ in 0..10_000 {
            let s = table.sample(&mut rng);
            assert!(s == 1 || s == 3);
        }
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let table = AliasTable::new(&[0.0, 0.0, 0.0]);
        let freq = empirical(&table, 30_000, 13);
        for f in freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    fn single_outcome() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = new_rng(5);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn probability_reconstruction_sums_to_one() {
        let weights = [0.5, 0.0, 3.0, 1.5, 2.0];
        let table = AliasTable::new(&weights);
        let total: f64 = (0..weights.len()).map(|i| table.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let wsum: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            assert!((table.probability(i) - w / wsum).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_panic() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    fn sparse_table_returns_labels() {
        let table = SparseAliasTable::new(&[(7, 1.0), (100, 3.0)]);
        let mut rng = new_rng(17);
        let mut saw_7 = 0;
        let mut saw_100 = 0;
        for _ in 0..40_000 {
            match table.sample(&mut rng) {
                7 => saw_7 += 1,
                100 => saw_100 += 1,
                other => panic!("unexpected label {other}"),
            }
        }
        let frac = saw_100 as f64 / (saw_7 + saw_100) as f64;
        assert!((frac - 0.75).abs() < 0.02);
        assert_eq!(table.len(), 2);
        assert!((table.total_weight() - 4.0).abs() < 1e-12);
    }

    /// A skewed table with a zero weight, a single entry, the all-zero
    /// fallback, and a wider table with ties.
    const DISTRIBUTIONS: [&[(u32, f64)]; 4] = [
        &[(3, 1.0), (9, 2.0), (17, 0.0), (4, 5.5)],
        &[(100, 0.25)],
        &[(0, 0.0), (1, 0.0)],
        &[(8, 4.0), (2, 4.0), (5, 1.0), (6, 0.5), (7, 9.0), (11, 3.25), (12, 0.75), (13, 2.0)],
    ];

    /// [`DISTRIBUTIONS`], then random weight sets of 1 to 40 entries over
    /// random labels: every sixth holds a single entry, every sixth all
    /// equal weights, some hold zeros.
    fn weight_sets() -> Vec<Vec<(u32, f64)>> {
        let mut rng = new_rng(41);
        let mut sets: Vec<Vec<(u32, f64)>> = DISTRIBUTIONS.iter().map(|e| e.to_vec()).collect();
        for i in 0..60 {
            let n = if i % 6 == 0 { 1 } else { rng.gen_range(1..41) };
            let equal = rng.gen_range(0.5..4.0);
            sets.push(
                (0..n)
                    .map(|_| {
                        let weight = match i % 6 {
                            1 => equal,
                            2 => rng.gen_range(0..3) as f64,
                            _ => rng.gen_range(0.0..10.0),
                        };
                        (rng.gen_range(0..5_000), weight)
                    })
                    .collect(),
            );
        }
        sets
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_builds() {
        // One reused table and one store hold every set; the store's bins
        // of a set sit after those of the sets before it.
        let sets = weight_sets();
        let mut scratch = AliasBuildScratch::with_capacity(8);
        let mut reused = SparseAliasTable::with_capacity(8);
        let mut store = SparseAliasStore::with_capacity(8);
        let mut offsets = vec![0];
        for entries in &sets {
            let total = store.push(entries.iter().copied(), &mut scratch);
            offsets.push(store.len());
            assert_eq!(total.to_bits(), SparseAliasTable::new(entries).total_weight().to_bits());
        }
        for (entries, range) in sets.iter().zip(offsets.windows(2)) {
            reused.rebuild(entries, &mut scratch);
            let fresh = SparseAliasTable::new(entries);
            assert_eq!(reused.len(), fresh.len());
            assert_eq!(range[1] - range[0], fresh.len());
            assert_eq!(reused.total_weight().to_bits(), fresh.total_weight().to_bits());
            let mut a = new_rng(31);
            let mut b = new_rng(31);
            let mut c = new_rng(31);
            for _ in 0..2_000 {
                let label = fresh.sample(&mut b);
                assert_eq!(reused.sample(&mut a), label);
                let bin = c.gen_range(0..range[1] - range[0]);
                assert_eq!(store.sample_bin(range[0] + bin, &mut c), label, "{entries:?}");
            }
        }
    }

    #[test]
    fn sparse_bins_draw_the_label_of_the_dense_tables_outcome() {
        // The identity WarpLDA's chain rests on: a bin holding both labels
        // returns what the label lookup of the dense table's outcome did,
        // from the same two draws.
        for entries in DISTRIBUTIONS {
            let sparse = SparseAliasTable::new(entries);
            let weights: Vec<f64> = entries.iter().map(|&(_, w)| w).collect();
            let dense = AliasTable::new(&weights);
            assert_eq!(sparse.total_weight().to_bits(), dense.total_weight().to_bits());
            let mut a = new_rng(37);
            let mut b = new_rng(37);
            for _ in 0..2_000 {
                assert_eq!(sparse.sample(&mut a), entries[dense.sample(&mut b)].0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rebuild_with_no_entries_panics() {
        let mut t = SparseAliasTable::with_capacity(4);
        t.rebuild(&[], &mut AliasBuildScratch::new());
    }

    #[test]
    fn large_table_builds_and_normalizes() {
        let weights: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64).collect();
        let table = AliasTable::new(&weights);
        assert_eq!(table.len(), 10_000);
        let mut rng = new_rng(23);
        for _ in 0..1000 {
            assert!(table.sample(&mut rng) < 10_000);
        }
    }
}
