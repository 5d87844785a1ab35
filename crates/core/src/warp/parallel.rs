//! Multi-threaded WarpLDA (Section 5.3.1): a thread pool over the visits of
//! [`WarpLda`].
//!
//! WarpLDA parallelizes trivially because workers own disjoint documents
//! (doc phase) or words (word phase) and the only shared state — the global
//! topic vector `c_k` — is read-only within a phase and merged at the phase
//! boundary. This driver adds exactly one mechanic to the sampler's visits:
//!
//! * **Chunked work queue.** Workers pull contiguous column/row chunks from a
//!   [`ChunkCursor`] instead of receiving a static partition, so the tail
//!   imbalance a power-law head word leaves in any up-front split disappears:
//!   whoever finishes early claims the next chunk. Chunks are cut at about
//!   equal *token* mass, once, from the matrix offsets
//!   ([`ChunkCursor::by_mass`]) — cut by entity count, the first chunk of a
//!   Zipf vocabulary holds more than half of all tokens and no thread count
//!   runs the word phase faster than twice one thread. Every entity draws
//!   from its own RNG stream, so which worker claims which chunk cannot show
//!   up in the result — a run is **bit-identical to the serial sampler for
//!   any thread count**.
//!
//! At the phase boundary the calling thread sums the per-worker partial `c_k`
//! vectors: `K × threads` additions, at most 320 000 in any workload, ledger
//! row or example of this workspace (`reproduce --full`'s `fig9cd`: 20 000 × 16).
//! An inline merge moves about four additions per nanosecond and a
//! scoped-thread spawn plus join costs on the order of 10² µs, so handing
//! stripes of the merge to threads would start to pay in the millions of
//! additions; no caller is near that, and no parallel reduce is kept for one.
//!
//! Worker scratch (the count vector, alias table, partial `c_k`) persists
//! across iterations and is sized at construction for every row and column
//! length of the corpus, so the scoped-thread spawns are the phases' only
//! heap allocations — the same number every iteration, whichever worker
//! claims which chunk.

use std::borrow::Cow;

use warplda_cachesim::NoProbe;
use warplda_corpus::{Corpus, DocMajorView, WordMajorView};
use warplda_sparse::{with_topic_type, ChunkCursor};

use crate::checkpoint::Checkpointable;
use crate::params::ModelParams;
use crate::sampler::Sampler;
use warplda_corpus::io::codec::{CodecResult, Decoder, Encoder};

use super::{PhaseKind, PhaseScratch, WarpLda, WarpLdaConfig};

/// Reusable per-worker state: the phase scratch plus the worker's partial
/// `c_k` accumulator. Persists across iterations.
struct WorkerScratch {
    partial_ck: Vec<u32>,
    scratch: PhaseScratch,
}

/// Multi-threaded WarpLDA driver (Figure 9a).
pub struct ParallelWarpLda {
    inner: WarpLda<NoProbe>,
    workers: Vec<WorkerScratch>,
    /// Work queues over the columns and the rows, indexed by [`PhaseKind`].
    cursors: [ChunkCursor; 2],
    /// Wall seconds the most recent iteration spent in its two phases.
    last_phase_secs: f64,
}

impl ParallelWarpLda {
    /// Creates a parallel sampler over `num_threads` worker threads.
    pub fn new(
        corpus: &Corpus,
        params: ModelParams,
        config: WarpLdaConfig,
        seed: u64,
        num_threads: usize,
    ) -> Self {
        assert!(num_threads >= 1, "need at least one worker thread");
        let inner = WarpLda::new(corpus, params, config, seed);
        let workers = (0..num_threads)
            .map(|_| WorkerScratch {
                partial_ck: vec![0; params.num_topics],
                scratch: inner.new_scratch(),
            })
            .collect();
        let cursors = [PhaseKind::Word, PhaseKind::Doc]
            .map(|kind| ChunkCursor::by_mass(inner.entity_offsets(kind), num_threads));
        Self { inner, workers, cursors, last_phase_secs: 0.0 }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// The global topic counts `c_k`.
    pub fn topic_counts(&self) -> &[u32] {
        self.inner.topic_counts()
    }

    /// One phase on the thread pool: every worker claims chunks of entities
    /// until the queue is dry, then the partial `c_k` are merged and
    /// installed.
    fn run_phase(&mut self, kind: PhaseKind) {
        let Self { inner, workers, cursors, .. } = self;
        let cursor = &mut cursors[kind as usize];
        cursor.reset();
        let cursor = &*cursor;
        with_topic_type!(inner.record_width(), T => {
            let (phase, ..) = inner.phase::<T>(kind);
            std::thread::scope(|scope| {
                for WorkerScratch { partial_ck, scratch } in workers.iter_mut() {
                    scope.spawn(move || {
                        partial_ck.fill(0);
                        while let Some(chunk) = cursor.claim() {
                            for id in chunk {
                                // SAFETY: the cursor hands every entity to
                                // exactly one worker, and `phase` holds the
                                // sampler's exclusive borrow all scope long.
                                unsafe { phase.visit(id as u32, partial_ck, scratch, &mut NoProbe) };
                            }
                        }
                    });
                }
            });
        });
        reduce_partials(&mut inner.topic_counts, workers);
    }
}

/// Replaces `ck` with the sum of the per-worker partial `c_k` vectors.
/// Integer addition commutes, so the order of the workers cannot show.
fn reduce_partials(ck: &mut [u32], workers: &[WorkerScratch]) {
    ck.fill(0);
    for ws in workers {
        for (dst, &src) in ck.iter_mut().zip(&ws.partial_ck) {
            *dst += src;
        }
    }
}

impl Sampler for ParallelWarpLda {
    fn name(&self) -> &'static str {
        "WarpLDA (parallel)"
    }

    fn params(&self) -> &ModelParams {
        self.inner.params()
    }

    fn run_iteration(&mut self) {
        let t0 = std::time::Instant::now();
        self.run_phase(PhaseKind::Word);
        self.run_phase(PhaseKind::Doc);
        self.inner.advance_iteration();
        self.last_phase_secs = t0.elapsed().as_secs_f64();
    }

    fn iterations(&self) -> u64 {
        self.inner.iterations()
    }

    fn assignments(&self) -> Vec<u32> {
        self.inner.assignments()
    }

    fn word_major_assignments(&self, corpus: &Corpus) -> (Cow<'_, [u32]>, Vec<u32>) {
        self.inner.word_major_assignments(corpus)
    }

    fn last_iteration_phase_seconds(&self) -> Option<f64> {
        Some(self.last_phase_secs)
    }

    fn log_likelihood(&self, corpus: &Corpus, dv: &DocMajorView, wv: &WordMajorView) -> f64 {
        self.inner.log_likelihood(corpus, dv, wv)
    }
}

/// The thread count is not part of the state: a checkpoint is the sampler's,
/// under the sampler's kind, and resumes under any driver.
impl Checkpointable for ParallelWarpLda {
    fn checkpoint_kind(&self) -> &'static str {
        self.inner.checkpoint_kind()
    }

    fn write_state(&self, enc: &mut Encoder<'_>) -> CodecResult<()> {
        self.inner.write_state(enc)
    }

    fn read_state(&mut self, dec: &mut Decoder<'_>) -> CodecResult<()> {
        self.inner.read_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::DatasetPreset;

    #[test]
    fn topic_counts_match_assignments_after_parallel_iterations() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let params = ModelParams::new(8, 0.5, 0.1);
        let mut s = ParallelWarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 3, 4);
        for _ in 0..3 {
            s.run_iteration();
            let mut hist = [0u32; 8];
            for t in s.assignments() {
                hist[t as usize] += 1;
            }
            assert_eq!(s.topic_counts(), &hist[..]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let corpus = DatasetPreset::Tiny.generate_scaled(10);
        let _ = ParallelWarpLda::new(
            &corpus,
            ModelParams::new(4, 0.5, 0.1),
            WarpLdaConfig::default(),
            1,
            0,
        );
    }
}
