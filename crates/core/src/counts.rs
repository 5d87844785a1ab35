//! Topic-count vectors.
//!
//! Section 5.4 of the paper: "It is more effective to use hash tables rather
//! than dense arrays for the counts `c_d` and `c_w` … an open addressing hash
//! table with linear probing … the capacity is set to the minimum power of 2
//! that is larger than `min{K, 2·L_d}`".
//!
//! Two implementations share the [`TopicCounts`] interface:
//!
//! * [`DenseCounts`] — a plain `Vec<u32>` with a touched-topic list so
//!   clearing stays proportional to the number of distinct topics. WarpLDA's
//!   kernels count every row and column into one of these per worker,
//!   whatever its length, and evaluation and the serving model's freeze
//!   count through one too.
//! * [`HashCounts`] — the paper's open-addressing table, with an
//!   occupied-slot list so clearing and iteration cost O(distinct topics)
//!   rather than O(capacity). [`SamplerState`](crate::state::SamplerState)
//!   keeps one per document and per word for the baselines (CGS, F+LDA,
//!   LightLDA): D + V tables that live all run, each sized by the rule
//!   above rather than K.
//!
//! WarpLDA's kernels do not follow Section 5.4, because it measured slower
//! here. On the paper's own regime (1.8 M tokens of short documents, 74 % of
//! token visits on a row or column with `2·L < K`), serial WarpLDA took
//! 100–113 ns/token with the hash tables on that share against 78–103 with
//! the dense vector at K = 2¹², and 129–144 against 119–130 at K = 2²⁰, on
//! a host with 2 MiB of L2 per core: a K × 4-byte vector reused by every
//! visit of a worker stays cache-resident, while each probe of a hash table
//! pays for the hash, the key compare and the linear scan. A host with a
//! much smaller L2 may tip the other way at large K. Both types list topics
//! in the same first-touch order, so the choice never changed a sampled
//! value.

/// Common interface of the count-vector implementations.
pub trait TopicCounts {
    /// Count of `topic`.
    fn get(&self, topic: u32) -> u32;
    /// Adds `delta` (may be negative) to the count of `topic`.
    fn add(&mut self, topic: u32, delta: i32);
    /// Increments the count of `topic`.
    fn increment(&mut self, topic: u32) {
        self.add(topic, 1);
    }
    /// Decrements the count of `topic`.
    fn decrement(&mut self, topic: u32) {
        self.add(topic, -1);
    }
    /// Removes all counts.
    fn clear(&mut self);
    /// Calls `f(topic, count)` for every non-zero topic (order unspecified).
    fn for_each(&self, f: impl FnMut(u32, u32));
    /// Number of distinct topics with a non-zero count.
    fn num_nonzero(&self) -> usize;
    /// Sum of all counts.
    fn total(&self) -> u64;
    /// Collects the non-zero `(topic, count)` pairs (order unspecified).
    fn to_pairs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::with_capacity(self.num_nonzero());
        self.for_each(|t, c| v.push((t, c)));
        v
    }
}

/// Open-addressing hash table with linear probing, keyed by topic id.
///
/// The capacity is a power of two; the slot is the topic times an odd
/// constant, masked (the paper uses "a simple and function", i.e. masking;
/// see `slot_of` for what the multiply does and does not add).
#[derive(Debug, Clone)]
pub struct HashCounts {
    /// Slot keys; `u32::MAX` marks an empty slot.
    keys: Vec<u32>,
    /// Slot values.
    values: Vec<u32>,
    /// Slots holding a live key, in insertion order: clearing and iteration
    /// touch O(distinct topics) memory instead of the whole table.
    occupied: Vec<u32>,
    mask: usize,
    len: usize,
    total: u64,
}

const EMPTY: u32 = u32::MAX;

impl HashCounts {
    /// Creates a table sized for `expected` distinct topics by the paper's
    /// rule (Section 5.4): the minimum power of two above `min{K, 2·L}`.
    pub fn with_expected(expected: usize, num_topics: usize) -> Self {
        Self::with_capacity(Self::capacity_for(expected, num_topics))
    }

    /// An empty table of `capacity` slots (a power of two).
    fn with_capacity(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Self {
            keys: vec![EMPTY; capacity],
            values: vec![0; capacity],
            occupied: Vec::with_capacity(capacity),
            mask: capacity - 1,
            len: 0,
            total: 0,
        }
    }

    /// The paper's sizing rule: the minimum power of two that accommodates
    /// `min{K, 2·L}` entries, where `L` is the expected number of distinct
    /// topics (the row/column length). A sparse count vector holds at most
    /// `min{K, L}` distinct topics, so this capacity keeps the load factor at
    /// or below 1/2 without ever growing — while staying a factor of two
    /// smaller in the worst case than capping at `2·K`.
    fn capacity_for(expected: usize, num_topics: usize) -> usize {
        num_topics.min(expected.saturating_mul(2)).max(4).next_power_of_two()
    }

    /// Current slot capacity.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn slot_of(&self, topic: u32) -> usize {
        // Multiply by ⌊2³²/φ⌋ (odd) and keep the *low* bits. Those bits of
        // the product depend only on the same low bits of the topic, so this
        // is a permutation of the topic's low bits, not Fibonacci hashing
        // (which keeps the high bits). No chain depends on it: iteration
        // walks insertion order.
        ((topic.wrapping_mul(2_654_435_769)) as usize) & self.mask
    }

    #[inline]
    fn find_slot(&self, topic: u32) -> usize {
        let mut slot = self.slot_of(topic);
        loop {
            let k = self.keys[slot];
            if k == topic || k == EMPTY {
                return slot;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let pairs = self.to_pairs();
        let new_capacity = self.keys.len() * 2;
        self.keys = vec![EMPTY; new_capacity];
        self.values = vec![0; new_capacity];
        self.occupied = Vec::with_capacity(new_capacity);
        self.mask = new_capacity - 1;
        self.len = 0;
        self.total = 0;
        for (t, c) in pairs {
            self.add(t, c as i32);
        }
    }
}

impl TopicCounts for HashCounts {
    #[inline]
    fn get(&self, topic: u32) -> u32 {
        let slot = self.find_slot(topic);
        if self.keys[slot] == topic {
            self.values[slot]
        } else {
            0
        }
    }

    #[inline]
    fn add(&mut self, topic: u32, delta: i32) {
        if delta == 0 {
            return;
        }
        debug_assert_ne!(topic, EMPTY, "topic id u32::MAX is reserved");
        let slot = self.find_slot(topic);
        if self.keys[slot] == EMPTY {
            debug_assert!(delta > 0, "decrementing a zero count for topic {topic}");
            // Keep the load factor below 1/2 so probes stay short.
            if (self.len + 1) * 2 > self.keys.len() {
                self.grow();
                return self.add(topic, delta);
            }
            self.keys[slot] = topic;
            self.values[slot] = delta as u32;
            self.occupied.push(slot as u32);
            self.len += 1;
            self.total += delta as u64;
            return;
        }
        let v = &mut self.values[slot];
        if delta > 0 {
            *v += delta as u32;
            self.total += delta as u64;
        } else {
            let d = (-delta) as u32;
            debug_assert!(*v >= d, "count of topic {topic} would go negative");
            // Zero-count keys stay in place (deletion without tombstones) and
            // `num_nonzero` filters them out. Nothing clears these tables:
            // their users, the D + V tables `SamplerState` keeps for CGS,
            // F+LDA and LightLDA, live all run, so zero keys pile up until
            // `grow()` rehashes, which drops them and allocates new arrays.
            let applied = d.min(*v);
            *v -= applied;
            self.total -= applied as u64;
        }
    }

    fn clear(&mut self) {
        for &slot in &self.occupied {
            self.keys[slot as usize] = EMPTY;
            self.values[slot as usize] = 0;
        }
        self.occupied.clear();
        self.len = 0;
        self.total = 0;
    }

    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        for &slot in &self.occupied {
            let v = self.values[slot as usize];
            if v > 0 {
                f(self.keys[slot as usize], v);
            }
        }
    }

    fn num_nonzero(&self) -> usize {
        self.occupied.iter().filter(|&&slot| self.values[slot as usize] > 0).count()
    }

    fn total(&self) -> u64 {
        self.total
    }
}

/// Dense count vector with a touched list for cheap clearing.
#[derive(Debug, Clone)]
pub struct DenseCounts {
    values: Vec<u32>,
    /// Topics that have been touched since the last clear (each listed once).
    touched: Vec<u32>,
    /// Whether a topic is already on the touched list.
    listed: Vec<bool>,
    total: u64,
}

impl DenseCounts {
    /// Creates a dense vector over `num_topics` topics.
    pub fn new(num_topics: usize) -> Self {
        Self {
            values: vec![0; num_topics],
            // Room for every topic, so no visit ever grows the list.
            touched: Vec::with_capacity(num_topics),
            listed: vec![false; num_topics],
            total: 0,
        }
    }

    /// Bytes of heap the vector holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        4 * (self.values.capacity() + self.touched.capacity()) + self.listed.capacity()
    }
}

impl TopicCounts for DenseCounts {
    #[inline]
    fn get(&self, topic: u32) -> u32 {
        self.values[topic as usize]
    }

    #[inline]
    fn add(&mut self, topic: u32, delta: i32) {
        if delta == 0 {
            return;
        }
        let v = &mut self.values[topic as usize];
        if delta > 0 && !self.listed[topic as usize] {
            self.listed[topic as usize] = true;
            self.touched.push(topic);
        }
        if delta > 0 {
            *v += delta as u32;
            self.total += delta as u64;
        } else {
            let d = (-delta) as u32;
            debug_assert!(*v >= d, "count of topic {topic} would go negative");
            let applied = d.min(*v);
            *v -= applied;
            self.total -= applied as u64;
        }
    }

    fn clear(&mut self) {
        for &t in &self.touched {
            self.values[t as usize] = 0;
            self.listed[t as usize] = false;
        }
        self.touched.clear();
        self.total = 0;
    }

    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        for &t in &self.touched {
            let v = self.values[t as usize];
            if v > 0 {
                f(t, v);
            }
        }
    }

    fn num_nonzero(&self) -> usize {
        self.touched.iter().filter(|&&t| self.values[t as usize] > 0).count()
    }

    fn total(&self) -> u64 {
        self.total
    }
}

/// A pool of reusable count vectors: one [`DenseCounts`] over all topics
/// plus one [`HashCounts`] per power-of-two capacity class, built on first
/// use and handed back cleared.
///
/// No sampler uses it any more: WarpLDA's kernels hold one `DenseCounts`.
/// It stays, with [`prefers_hash`](Self::prefers_hash) and
/// [`hash_for`](Self::hash_for), because the repository benchmark's
/// `core.hash_path_share` and `core.hashcounts_ns_per_op` probes name all
/// three; it goes once those probes are retired.
#[derive(Debug)]
pub struct CountPool {
    num_topics: usize,
    dense: DenseCounts,
    /// `hash[c]` has capacity `1 << c`.
    hash: Vec<Option<HashCounts>>,
}

impl CountPool {
    /// A pool for count vectors over `num_topics` topics.
    pub fn new(num_topics: usize) -> Self {
        // Largest class the sizing rule can ever yield for this K.
        let max_class = HashCounts::capacity_for(usize::MAX / 2, num_topics).trailing_zeros();
        Self {
            num_topics,
            dense: DenseCounts::new(num_topics),
            hash: (0..=max_class).map(|_| None).collect(),
        }
    }

    /// Returns `true` when Section 5.4's heuristic picks the hash
    /// representation for a row/column of `len` entries (`2·L < K`). Kept
    /// for the benchmark's `core.hash_path_share`; no kernel asks it.
    pub fn prefers_hash(&self, len: usize) -> bool {
        len.saturating_mul(2) < self.num_topics
    }

    /// The cleared dense vector over all topics. Kept for the benchmark's
    /// `core.densecounts_clear_ns`.
    pub fn dense(&mut self) -> &mut DenseCounts {
        self.dense.clear();
        &mut self.dense
    }

    /// A cleared hash table sized by the paper's rule for a row/column of
    /// `len` entries. Kept for the benchmark's `core.hashcounts_ns_per_op`.
    pub fn hash_for(&mut self, len: usize) -> &mut HashCounts {
        let class = HashCounts::capacity_for(len, self.num_topics).trailing_zeros() as usize;
        let table =
            self.hash[class].get_or_insert_with(|| HashCounts::with_expected(len, self.num_topics));
        table.clear();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn reference_model<C: TopicCounts>(mut counts: C, ops: &[(u32, i32)]) {
        let mut reference: HashMap<u32, i64> = HashMap::new();
        for &(topic, delta) in ops {
            // Skip deltas that would drive the reference negative (the real
            // structures assume callers never do that).
            let entry = reference.entry(topic).or_insert(0);
            if *entry + i64::from(delta) < 0 {
                continue;
            }
            *entry += delta as i64;
            counts.add(topic, delta);
        }
        for (&topic, &expected) in &reference {
            assert_eq!(counts.get(topic) as i64, expected, "topic {topic}");
        }
        let expected_total: i64 = reference.values().sum();
        assert_eq!(counts.total() as i64, expected_total);
        let expected_nonzero = reference.values().filter(|&&v| v > 0).count();
        assert_eq!(counts.num_nonzero(), expected_nonzero);
        let mut sum_from_iter = 0u64;
        counts.for_each(|t, c| {
            assert_eq!(c as i64, reference[&t]);
            sum_from_iter += c as u64;
        });
        assert_eq!(sum_from_iter as i64, expected_total);
    }

    fn mixed_ops(seed: u64, n: usize, num_topics: u32) -> Vec<(u32, i32)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let topic = rng.gen_range(0..num_topics);
                let delta = if rng.gen_bool(0.7) { 1 } else { -1 };
                (topic, delta)
            })
            .collect()
    }

    #[test]
    fn hash_counts_match_reference_model() {
        reference_model(HashCounts::with_expected(8, 1000), &mixed_ops(1, 5000, 200));
    }

    #[test]
    fn dense_counts_match_reference_model() {
        reference_model(DenseCounts::new(200), &mixed_ops(2, 5000, 200));
    }

    #[test]
    fn auto_picks_hash_for_sparse_and_dense_for_long_docs() {
        // The paper's rule: hash exactly when 2·L < K.
        assert!(CountPool::new(10_000).prefers_hash(10));
        assert!(!CountPool::new(1_000).prefers_hash(600));
        let pool = CountPool::new(100);
        assert!(pool.prefers_hash(49) && !pool.prefers_hash(50));
    }

    #[test]
    fn hash_capacity_is_power_of_two_and_bounded() {
        let h = HashCounts::with_expected(100, 1_000_000);
        assert!(h.capacity().is_power_of_two());
        assert!(h.capacity() >= 200);
        let h = HashCounts::with_expected(1_000_000, 64);
        assert!(h.capacity() <= 64, "capacity should be bounded by K, got {}", h.capacity());
    }

    #[test]
    fn capacity_follows_the_papers_min_k_2l_rule() {
        // Section 5.4: "the capacity is set to the minimum power of 2 that is
        // larger than min{K, 2·L_d}". In particular the bound is K — not the
        // 2·K an earlier revision used, which doubled the worst-case table.
        assert_eq!(HashCounts::capacity_for(10, 1024), 32); // 2L = 20 -> 32
        assert_eq!(HashCounts::capacity_for(600, 1024), 1024); // min{1024, 1200}
        assert_eq!(HashCounts::capacity_for(1_000_000, 64), 64); // min{64, 2M}
        assert_eq!(HashCounts::capacity_for(0, 1024), 4); // floor of 4 slots
        assert_eq!(HashCounts::capacity_for(33, 1024), 128); // 2L = 66 -> 128
        for (expected, k) in [(3usize, 7usize), (100, 1000), (7, 8), (1, 2)] {
            let cap = HashCounts::capacity_for(expected, k);
            assert!(cap.is_power_of_two());
            assert!(cap >= k.min(2 * expected).max(4));
            assert!(cap < 2 * k.min(2 * expected).max(4).next_power_of_two());
            assert_eq!(HashCounts::with_expected(expected, k).capacity(), cap);
        }
    }

    #[test]
    fn sized_by_rule_tables_never_grow_in_sparse_use() {
        // When the auto heuristic picks the hash representation (2L < K),
        // a column of length L holds at most L distinct topics; the paper's
        // capacity must absorb all of them without a resize.
        for l in [1usize, 5, 31, 32, 100] {
            let k = 4 * l + 2; // ensures 2L < K
            let mut h = HashCounts::with_expected(l, k);
            let initial = h.capacity();
            for t in 0..l as u32 {
                h.increment(t * 3 + 1);
            }
            assert_eq!(h.capacity(), initial, "L = {l} must not trigger growth");
            assert_eq!(h.num_nonzero(), l);
        }
    }

    #[test]
    fn count_pool_reuses_tables_per_class() {
        let mut pool = CountPool::new(1024);
        assert!(pool.prefers_hash(10));
        assert!(!pool.prefers_hash(512));
        let cap_small = {
            let h = pool.hash_for(10);
            h.increment(3);
            h.capacity()
        };
        assert_eq!(cap_small, HashCounts::capacity_for(10, 1024));
        // Same class comes back cleared, same capacity (same instance).
        let h = pool.hash_for(12); // 2·12 = 24 -> same class as 2·10 = 20
        assert_eq!(h.capacity(), cap_small);
        assert_eq!(h.num_nonzero(), 0, "pool must hand back cleared tables");
        // A different class is a different table.
        assert_ne!(pool.hash_for(500).capacity(), cap_small);
        // The dense vector also comes back cleared.
        pool.dense().increment(7);
        assert_eq!(pool.dense().get(7), 0);
    }

    #[test]
    fn hash_grows_when_overfull() {
        let mut h = HashCounts::with_expected(2, 1_000_000);
        let initial = h.capacity();
        for t in 0..100u32 {
            h.increment(t * 7919);
        }
        assert!(h.capacity() > initial);
        for t in 0..100u32 {
            assert_eq!(h.get(t * 7919), 1);
        }
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = HashCounts::with_expected(4, 100);
        h.increment(3);
        h.increment(3);
        h.increment(7);
        h.clear();
        assert_eq!(h.get(3), 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.num_nonzero(), 0);

        let mut d = DenseCounts::new(100);
        d.increment(5);
        d.clear();
        assert_eq!(d.get(5), 0);
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn increment_then_decrement_returns_to_zero() {
        let mut h = HashCounts::with_expected(4, 100);
        h.increment(42);
        h.decrement(42);
        assert_eq!(h.get(42), 0);
        assert_eq!(h.num_nonzero(), 0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn dense_exposes_slice() {
        let mut d = DenseCounts::new(5);
        d.add(2, 3);
        assert_eq!(d.values, &[0, 0, 3, 0, 0]);
    }

    #[test]
    fn to_pairs_round_trips() {
        let mut h = HashCounts::with_expected(4, 1000);
        h.add(10, 2);
        h.add(999, 5);
        let mut pairs = h.to_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(10, 2), (999, 5)]);
    }
}
