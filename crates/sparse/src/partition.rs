//! Balanced partitioning of rows/columns across workers (Section 5.3.2).
//!
//! The difficulty the paper highlights is that column sizes (word term
//! frequencies) follow a power law, so naive partitioning leaves some workers
//! with far more tokens than others. Three strategies are compared in
//! Figure 4:
//!
//! * **static** — randomly shuffle the columns, then give every partition the
//!   same *number of columns*;
//! * **dynamic** — keep columns in order but cut the sequence into contiguous
//!   slices with approximately equal *token counts*;
//! * **greedy** — sort columns by size (descending) and assign each to the
//!   currently least-loaded partition.
//!
//! The quality metric is the *imbalance index*:
//! `max_partition_tokens / mean_partition_tokens − 1` (0 is perfect balance).
//!
//! All three strategies assign items to workers *up front*, which leaves a
//! tail imbalance whenever the static estimate is wrong (power-law column
//! sizes, fewer items than workers, one worker descheduled by the OS). The
//! [`ChunkCursor`] complements them: a chunked atomic work queue that hands
//! out contiguous index ranges of about equal token mass on demand, so
//! whichever worker drains its share first simply claims the next chunk.
//! [`parallel_for`], the workspace's one parallel loop, drains a cursor on
//! scoped threads: the parallel sampler's phases and the serving model's
//! freeze and load run on it.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Partitioning strategy for distributing columns (or rows) across `p` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Random shuffle, equal number of items per partition.
    Static {
        /// Shuffle seed (the paper's static strategy is randomized).
        seed: u64,
    },
    /// Contiguous slices with approximately equal token counts.
    Dynamic,
    /// Largest-first, least-loaded assignment.
    Greedy,
}

/// Assigns each item (column or row) to one of `num_partitions` partitions
/// based on its size, returning `assignment[item] = partition`.
///
/// # Panics
/// Panics if `num_partitions` is zero.
pub fn partition_by_size(
    sizes: &[u64],
    num_partitions: usize,
    strategy: PartitionStrategy,
) -> Vec<u32> {
    assert!(num_partitions > 0, "need at least one partition");
    let n = sizes.len();
    let mut assignment = vec![0u32; n];
    if n == 0 {
        return assignment;
    }
    match strategy {
        PartitionStrategy::Static { seed } => {
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
            // Equal number of items per partition, in shuffled order.
            for (pos, &item) in order.iter().enumerate() {
                assignment[item] = (pos * num_partitions / n) as u32;
            }
        }
        PartitionStrategy::Dynamic => {
            // Contiguous slices targeting total/num_partitions tokens each.
            let total: u64 = sizes.iter().sum();
            let target = (total as f64 / num_partitions as f64).max(1.0);
            let mut current: u64 = 0;
            let mut part: u32 = 0;
            for (i, &s) in sizes.iter().enumerate() {
                // Close the current slice when it has reached its target, but never
                // run out of partitions before running out of items.
                if current as f64 >= target * (part as f64 + 1.0)
                    && (part as usize) < num_partitions - 1
                {
                    part += 1;
                }
                assignment[i] = part;
                current += s;
            }
        }
        PartitionStrategy::Greedy => {
            // Sort by size descending; assign to least-loaded partition.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
            let mut loads = vec![0u64; num_partitions];
            for &item in &order {
                let (best, _) =
                    loads.iter().enumerate().min_by_key(|&(_, &l)| l).expect("num_partitions > 0");
                assignment[item] = best as u32;
                loads[best] += sizes[item];
            }
        }
    }
    assignment
}

/// A chunked atomic-cursor work queue over the index range `0..len`, drained
/// by [`parallel_for`].
///
/// Each claim is a contiguous chunk of indices owned exclusively by the
/// claiming worker. Unlike an up-front partition there is no tail imbalance:
/// a worker that finishes early keeps claiming. Chunks keep claims
/// contiguous (sequential memory access within a claim) and amortize the
/// atomic increment. The indices are entities of very unequal size, so
/// chunks are cut at about equal *mass* ([`by_mass`](Self::by_mass)), not
/// at an equal number of indices. Even workers claim from the front of the
/// range and odd workers from the back, so two workers claim neighbouring
/// chunks only where the two ends meet: the records on either side of a
/// chunk boundary share a cache line, and a line that two cores write in
/// turn moves between them on every write. On a 2-CPU host a cursor that
/// hands every worker the first unclaimed chunk ran a two-thread
/// `ParallelWarpLda` iteration 6–12 % slower (1.5 M tokens, K = 50 and 256,
/// 20 alternating runs each).
#[derive(Debug)]
pub struct ChunkCursor {
    /// Chunks claimed from the front (low 32 bits) and from the back (high
    /// 32 bits), in one word so that a claim reads both ends at once.
    claimed: AtomicU64,
    /// Chunk `i` is `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
}

/// One chunk claimed from the back, in [`ChunkCursor::claimed`].
const BACK: u64 = 1 << 32;

impl ChunkCursor {
    /// A cursor over the entities `0..offsets.len() - 1`, entity `i` weighing
    /// `offsets[i + 1] - offsets[i]` (prefix sums, e.g. a matrix's column
    /// offsets), cut into chunks of about equal mass: no chunk exceeds
    /// 1/(32 · `num_workers`) of the total unless it is a single entity that
    /// alone weighs more, which then is a chunk of its own. Equal-count
    /// chunks over a power-law vocabulary put half of all tokens into the
    /// first chunk and cap a phase's speed-up below 2 on any thread count.
    /// Two neighbouring chunks together weigh more than that share, so
    /// there are fewer than 64 · `num_workers` chunks.
    ///
    /// # Panics
    /// Panics if `offsets` is empty, or if it cuts 2³¹ chunks or more, which
    /// takes 2²⁵ workers or more, however many entities there are.
    pub fn by_mass(offsets: &[u32], num_workers: usize) -> Self {
        let len = offsets.len().checked_sub(1).expect("prefix sums start with a zero");
        let total = (offsets[len] - offsets[0]) as usize;
        let cap = total.div_ceil(num_workers.max(1) * 32).max(1);
        let mut bounds = Vec::with_capacity(len.min(64 * num_workers.max(1)) + 1);
        bounds.push(0);
        let mut start = 0;
        for end in 1..=len {
            // Close the chunk before the entity that would overfill it.
            if end - 1 > start && (offsets[end] - offsets[start]) as usize > cap {
                bounds.push(end - 1);
                start = end - 1;
            }
        }
        if len > 0 {
            bounds.push(len);
        }
        // Claims past the end keep counting, so each end's count stays well
        // clear of the other's bits.
        assert!(bounds.len() <= (BACK / 2) as usize, "a cursor counts its chunks in 31 bits");
        Self { claimed: AtomicU64::new(0), bounds }
    }

    /// The chunk bounds: chunk `i` is `bounds()[i]..bounds()[i + 1]`. They
    /// start at 0, end at the number of entities and strictly increase.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// `buf` cut into one slice per chunk, in order: chunk `i`'s is
    /// `buf[at(bounds[i])..at(bounds[i + 1])]`, where `at` maps an entity
    /// bound to an offset into `buf` (non-decreasing, 0 at 0).
    pub fn split_mut<'a, T>(
        &'a self,
        buf: &'a mut [T],
        at: impl Fn(usize) -> usize + 'a,
    ) -> impl Iterator<Item = &'a mut [T]> {
        let mut rest = buf;
        self.bounds.windows(2).map(move |b| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(at(b[1]) - at(b[0]));
            rest = tail;
            head
        })
    }

    /// Number of chunks.
    fn chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Claims the next chunk for worker `worker` and returns its index: the
    /// first unclaimed chunk for an even worker, the last for an odd one;
    /// `None` once every chunk is claimed. Both ends advance in one atomic
    /// add, so a claim sees how many chunks the other end took and no chunk
    /// is handed out twice.
    fn claim(&self, worker: usize) -> Option<usize> {
        let from_back = worker % 2 == 1;
        let before = self.claimed.fetch_add(if from_back { BACK } else { 1 }, Ordering::Relaxed);
        let (front, back) = ((before % BACK) as usize, (before / BACK) as usize);
        let chunks = self.chunks();
        if front + back >= chunks {
            return None;
        }
        Some(if from_back { chunks - 1 - back } else { front })
    }

    /// Rewinds the cursor so the range can be drained again. `Relaxed`
    /// suffices: a drain's spawns and joins order the rewind before its
    /// claims and every claim of the last drain before the rewind.
    fn reset(&self) {
        self.claimed.store(0, Ordering::Relaxed);
    }
}

/// Runs `work` over every chunk of `cursor` on the calling thread and
/// `workers.len() − 1` scoped threads: thread `i` claims chunks as worker
/// `i`, with `workers[i]` as its own state. `jobs` yields one job per chunk
/// in chunk order (say the caller's buffers cut by
/// [`split_mut`](ChunkCursor::split_mut)); a job waits in its chunk's slot
/// for the one claim that names it. The cursor is rewound first; two drains
/// of one cursor must not overlap. Which thread runs which chunk must not
/// show in what the jobs write.
///
/// # Panics
/// Panics if `workers` is empty, if `jobs` yields fewer jobs than there are
/// chunks, or if another drain of `cursor` overlapped this one. A panic in
/// `work` resumes on the calling thread, with its payload, once every
/// thread has stopped.
pub fn parallel_for<J: Send, W: Send>(
    cursor: &ChunkCursor,
    jobs: impl IntoIterator<Item = J>,
    workers: &mut [W],
    work: impl Fn(&mut W, Range<usize>, J) + Sync,
) {
    cursor.reset();
    let chunks = cursor.chunks();
    let slots: Vec<Mutex<Option<J>>> =
        jobs.into_iter().take(chunks).map(|job| Mutex::new(Some(job))).collect();
    assert_eq!(slots.len(), chunks, "one job per chunk");
    let drain = |worker: usize, state: &mut W| {
        while let Some(i) = cursor.claim(worker) {
            let job = slots[i].lock().expect("no job runs holding its slot").take();
            let job = job.expect("drains of one cursor overlapped: a chunk came twice");
            work(state, cursor.bounds[i]..cursor.bounds[i + 1], job);
        }
    };
    let drain = &drain;
    let (first, others) = workers.split_first_mut().expect("need at least one worker");
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..)
            .zip(others)
            .map(|(worker, state)| scope.spawn(move || drain(worker, state)))
            .collect();
        drain(0, first);
        for handle in spawned {
            handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
    let all_ran = slots.into_iter().all(|slot| slot.into_inner().is_ok_and(|job| job.is_none()));
    assert!(all_ran, "drains of one cursor overlapped: a chunk went unclaimed");
}

/// Computes the per-partition total sizes from an assignment.
pub fn partition_loads(sizes: &[u64], assignment: &[u32], num_partitions: usize) -> Vec<u64> {
    let mut loads = vec![0u64; num_partitions];
    for (i, &p) in assignment.iter().enumerate() {
        loads[p as usize] += sizes[i];
    }
    loads
}

/// The imbalance index of Figure 4:
/// `(largest partition) / (average partition) − 1`. Zero means perfect balance.
pub fn imbalance_index(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let max = *loads.iter().max().unwrap() as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean <= 0.0 {
        0.0
    } else {
        max / mean - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_sizes(n: usize, exponent: f64, total: u64) -> Vec<u64> {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)).collect();
        let sum: f64 = weights.iter().sum();
        weights.iter().map(|w| ((w / sum) * total as f64).round() as u64 + 1).collect()
    }

    #[test]
    fn all_items_are_assigned_exactly_once() {
        let sizes = zipf_sizes(1000, 1.1, 1_000_000);
        for strategy in [
            PartitionStrategy::Static { seed: 1 },
            PartitionStrategy::Dynamic,
            PartitionStrategy::Greedy,
        ] {
            let a = partition_by_size(&sizes, 8, strategy);
            assert_eq!(a.len(), sizes.len());
            assert!(a.iter().all(|&p| (p as usize) < 8), "{strategy:?}");
            let loads = partition_loads(&sizes, &a, 8);
            assert_eq!(loads.iter().sum::<u64>(), sizes.iter().sum::<u64>(), "{strategy:?}");
        }
    }

    #[test]
    fn greedy_beats_static_and_dynamic_on_power_law() {
        // This is the qualitative claim of Figure 4. The vocabulary has to be
        // large enough that the most frequent word stays below the
        // per-partition share (the paper's ClueWeb12 vocabulary is 1M words).
        let sizes = zipf_sizes(50_000, 0.9, 10_000_000);
        let p = 16;
        let greedy = imbalance_index(&partition_loads(
            &sizes,
            &partition_by_size(&sizes, p, PartitionStrategy::Greedy),
            p,
        ));
        let stat = imbalance_index(&partition_loads(
            &sizes,
            &partition_by_size(&sizes, p, PartitionStrategy::Static { seed: 3 }),
            p,
        ));
        let dynamic = imbalance_index(&partition_loads(
            &sizes,
            &partition_by_size(&sizes, p, PartitionStrategy::Dynamic),
            p,
        ));
        assert!(greedy < stat, "greedy {greedy} should beat static {stat}");
        assert!(greedy < dynamic, "greedy {greedy} should beat dynamic {dynamic}");
        assert!(greedy < 0.05, "greedy imbalance should be small, got {greedy}");
    }

    #[test]
    fn imbalance_index_zero_for_perfect_balance() {
        assert_eq!(imbalance_index(&[5, 5, 5, 5]), 0.0);
        assert!(imbalance_index(&[]) == 0.0);
        assert!((imbalance_index(&[10, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_partition_takes_everything() {
        let sizes = vec![3, 1, 4, 1, 5];
        for strategy in [
            PartitionStrategy::Static { seed: 0 },
            PartitionStrategy::Dynamic,
            PartitionStrategy::Greedy,
        ] {
            let a = partition_by_size(&sizes, 1, strategy);
            assert!(a.iter().all(|&p| p == 0));
            assert_eq!(imbalance_index(&partition_loads(&sizes, &a, 1)), 0.0);
        }
    }

    #[test]
    fn more_partitions_than_items_leaves_some_empty_but_covers_all_items() {
        let sizes = vec![10, 20];
        let a = partition_by_size(&sizes, 8, PartitionStrategy::Greedy);
        let loads = partition_loads(&sizes, &a, 8);
        assert_eq!(loads.iter().sum::<u64>(), 30);
        assert_eq!(loads.iter().filter(|&&l| l > 0).count(), 2);
    }

    #[test]
    fn dynamic_partitions_are_contiguous() {
        let sizes = zipf_sizes(500, 1.0, 100_000);
        let a = partition_by_size(&sizes, 7, PartitionStrategy::Dynamic);
        // Assignment must be non-decreasing for contiguous slices.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_sizes_produce_empty_assignment() {
        let a = partition_by_size(&[], 4, PartitionStrategy::Greedy);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panic() {
        let _ = partition_by_size(&[1, 2], 0, PartitionStrategy::Greedy);
    }

    impl ChunkCursor {
        /// The range of the chunk [`claim`](Self::claim) hands `worker`.
        fn claim_range(&self, worker: usize) -> Option<Range<usize>> {
            self.claim(worker).map(|i| self.bounds[i]..self.bounds[i + 1])
        }
    }

    /// Prefix sums of `sizes`, the form [`ChunkCursor::by_mass`] takes.
    fn offsets_of(sizes: &[u64]) -> Vec<u32> {
        let mut offsets = vec![0u32];
        for &s in sizes {
            offsets.push(offsets.last().unwrap() + s as u32);
        }
        offsets
    }

    #[test]
    fn chunk_cursor_covers_the_range_exactly_once() {
        let offsets = offsets_of(&zipf_sizes(103, 1.0, 5_000));
        let cursor = ChunkCursor::by_mass(&offsets, 2);
        let mut seen = vec![0u32; 103];
        let mut first = None;
        while let Some(chunk) = cursor.claim_range(0) {
            first.get_or_insert(chunk.clone());
            for i in chunk {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        assert!(cursor.claim_range(0).is_none(), "exhausted cursors stay exhausted");
        assert!(cursor.claim_range(1).is_none(), "exhausted cursors stay exhausted");
        cursor.reset();
        assert_eq!(cursor.claim_range(0), first);
    }

    #[test]
    fn even_workers_claim_from_the_front_and_odd_ones_from_the_back() {
        let offsets = offsets_of(&zipf_sizes(500, 1.0, 50_000));
        let cursor = ChunkCursor::by_mass(&offsets, 2);
        let chunks = chunks_of(&cursor);
        cursor.reset();
        // Worker 1 takes the chunks from the back, worker 2 (even) from the
        // front, in any interleaving, until the two ends meet.
        let (mut front, mut back) = (Vec::new(), Vec::new());
        for round in 0.. {
            let worker = if round % 3 == 0 { 2 } else { 1 };
            let Some(chunk) = cursor.claim_range(worker) else { break };
            if worker == 1 {
                back.push(chunk)
            } else {
                front.push(chunk)
            }
        }
        assert!(cursor.claim_range(2).is_none() && cursor.claim_range(3).is_none());
        assert_eq!(front, chunks[..front.len()]);
        back.reverse();
        assert_eq!(back, chunks[front.len()..]);
        assert!(!front.is_empty() && !back.is_empty());
    }

    /// Drains `cursor`, returning its chunks in claim order.
    fn chunks_of(cursor: &ChunkCursor) -> Vec<std::ops::Range<usize>> {
        std::iter::from_fn(|| cursor.claim_range(0)).collect()
    }

    #[test]
    fn mass_chunks_tile_the_range_and_none_is_overweight() {
        // A Zipf vocabulary: equal-count chunks would put more than half of
        // all tokens into the first of 64.
        let sizes = zipf_sizes(8_000, 1.0, 1_500_000);
        let offsets = offsets_of(&sizes);
        let total = *offsets.last().unwrap() as u64;
        let mass = |c: &std::ops::Range<usize>| (offsets[c.end] - offsets[c.start]) as u64;
        assert!(mass(&(0..8_000 / 64)) * 2 > total, "the defect this cut exists for");

        for workers in [1usize, 2, 3, 8] {
            let cursor = ChunkCursor::by_mass(&offsets, workers);
            let chunks = chunks_of(&cursor);
            assert_eq!(chunks.first().unwrap().start, 0);
            assert_eq!(chunks.last().unwrap().end, 8_000);
            assert!(chunks.windows(2).all(|p| p[0].end == p[1].start), "chunks must tile");
            assert!(chunks.iter().all(|c| !c.is_empty()));
            assert!(
                chunks.len() <= 64 * workers + 1,
                "{} chunks ({workers} workers)",
                chunks.len()
            );
            assert_eq!(cursor.bounds().len(), chunks.len() + 1);
            let heaviest_entity = *sizes.iter().max().unwrap();
            let mean = total / chunks.len() as u64;
            let limit = (2 * mean).max(heaviest_entity);
            for c in &chunks {
                assert!(mass(c) <= limit, "{c:?} weighs {} > {limit} ({workers} workers)", mass(c));
                let cap = total.div_ceil(32 * workers as u64);
                assert!(mass(c) <= cap || c.len() == 1, "{c:?} is over the cap and not alone");
            }
            assert!(cursor.claim_range(0).is_none(), "exhausted cursors stay exhausted");
            cursor.reset();
            assert_eq!(cursor.claim_range(0), Some(chunks[0].clone()));
        }
    }

    #[test]
    fn mass_chunks_edge_cases() {
        assert!(ChunkCursor::by_mass(&[0], 4).claim_range(0).is_none());
        assert!(ChunkCursor::by_mass(&[0], 4).claim_range(1).is_none());
        // All-empty entities are one chunk; a lone giant is its own.
        assert_eq!(chunks_of(&ChunkCursor::by_mass(&[0, 0, 0, 0], 2)), vec![0..3]);
        assert_eq!(
            chunks_of(&ChunkCursor::by_mass(&[0, 1, 1_000, 1_001], 1)),
            vec![0..1, 1..2, 2..3]
        );
    }

    /// [`parallel_for`] on 1–4 workers: every chunk's job runs once, with
    /// its own chunk, on the state of the one thread that claimed it (worker
    /// 0's on the caller); an empty cursor runs nothing.
    #[test]
    fn chunk_cursor_is_safe_under_concurrent_claims() {
        let offsets = offsets_of(&zipf_sizes(10_000, 1.0, 1_000_000));
        let caller = std::thread::current().id();
        for workers in 1..=4 {
            let cursor = ChunkCursor::by_mass(&offsets, workers);
            let (mut seen, mut runs) = (vec![0u32; 10_000], vec![0u32; cursor.chunks()]);
            // Twice over one cursor: the drain rewinds it.
            for _ in 0..2 {
                // Each state records the one thread that used it.
                let mut states = vec![None; workers];
                let jobs = cursor.split_mut(&mut seen, |i| i).zip(&mut runs);
                parallel_for(&cursor, jobs, &mut states, |thread, range, (seen, runs)| {
                    let me = std::thread::current().id();
                    assert_eq!(*thread.get_or_insert(me), me, "a state is one thread's");
                    assert_eq!(seen.len(), range.len(), "a job is its own chunk's");
                    seen.iter_mut().for_each(|s| *s += 1);
                    *runs += 1;
                });
                assert!(states[0].is_none_or(|t| t == caller), "worker 0 is the caller");
                let threads: std::collections::HashSet<_> = states.iter().flatten().collect();
                assert_eq!(threads.len(), states.iter().flatten().count(), "one state a thread");
            }
            assert!(runs.iter().chain(&seen).all(|&r| r == 2), "{workers} workers");

            let empty = ChunkCursor::by_mass(&[0], workers);
            parallel_for(&empty, std::iter::empty(), &mut vec![(); workers], |_, _, ()| {
                panic!("an empty cursor has no chunk")
            });
        }
    }

    #[test]
    fn a_panic_on_a_spawned_worker_reaches_the_caller_with_its_payload() {
        let offsets = offsets_of(&zipf_sizes(2_000, 1.0, 200_000));
        let caller = std::thread::current().id();
        for workers in 2..=4 {
            let cursor = ChunkCursor::by_mass(&offsets, workers);
            let spawned_ran = std::sync::atomic::AtomicBool::new(false);
            let panic = std::panic::catch_unwind(|| {
                let jobs = std::iter::repeat(());
                parallel_for(&cursor, jobs, &mut vec![(); workers], |_, _, ()| {
                    if std::thread::current().id() != caller {
                        spawned_ran.store(true, Ordering::Relaxed);
                        std::panic::panic_any(workers);
                    }
                    // Hold the caller in its first chunk until a spawned
                    // worker has claimed one of the others.
                    while !spawned_ran.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                });
            });
            let panic = panic.expect_err("the worker's panic resumes on the caller");
            assert_eq!(panic.downcast_ref::<usize>(), Some(&workers));
        }
    }

    #[test]
    fn greedy_imbalance_grows_when_partitions_exceed_head_mass() {
        // The paper notes greedy degrades once the largest column exceeds the
        // per-partition share (hundreds of machines on ClueWeb). Reproduce the
        // qualitative effect: imbalance at p=4096 is much worse than at p=16.
        let sizes = zipf_sizes(5_000, 1.3, 2_000_000);
        let small_p = imbalance_index(&partition_loads(
            &sizes,
            &partition_by_size(&sizes, 16, PartitionStrategy::Greedy),
            16,
        ));
        let large_p = imbalance_index(&partition_loads(
            &sizes,
            &partition_by_size(&sizes, 4096, PartitionStrategy::Greedy),
            4096,
        ));
        assert!(large_p > small_p * 10.0, "large_p {large_p} vs small_p {small_p}");
    }
}
