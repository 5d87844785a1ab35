//! The deterministic per-worker exchange plan of multi-process training.
//!
//! The coordinator and every worker build the *same* [`ShardPlan`] from the
//! same inputs — the replica's token matrix and the [`GridPartition`] — so
//! entry lists never cross the wire: a delta or sync frame carries only
//! packed records, and both ends already agree — in order — on which entries
//! those records belong to.
//!
//! Per worker `i` the plan holds the columns/rows it advances
//! (`owned_words[i]` / `owned_docs[i]`) and, per phase, a [`PhasePlan`]: the
//! entries whose records worker `i` reports after the phase, laid out as one
//! contiguous **segment** per destination worker.
//!
//! * Segment `i → j` (`j ≠ i`) holds the entries worker `i` just advanced
//!   that worker `j` advances in the *next* phase: entries of `i`'s columns
//!   in `j`'s rows after a word phase, entries of `i`'s rows in `j`'s columns
//!   after a doc phase. Cross-owner segments come first, by ascending `j`.
//! * After a doc phase one trailing *own* segment `i → i` follows, which
//!   only the coordinator's replica needs (it is how the replica learns the
//!   iteration's result). After a word phase the own segment is empty: the
//!   replica is not touched mid-iteration, and worker `i` already has it.
//!
//! The sync worker `j` receives at a boundary is therefore the
//! concatenation of the segments `i → j` over the senders `i ≠ j`,
//! ascending — byte ranges of the senders' deltas, which is what lets the
//! coordinator route a boundary without decoding it.
//!
//! Within a segment entries ascend by entry id, which is storage order: a
//! delta is exported, and a segment imported, in one forward sweep over the
//! records. The segment `i → j` of a phase has exactly as many entries as its
//! grid cell, so the plan is sized from the grid and filled in one pass over
//! the matrix's columns, which is what makes it identical on every process
//! without coordination.

use std::ops::Range;

use warplda_core::{topic_wire_width, WarpLda};
use warplda_corpus::io::codec::{CodecError, CodecResult};

use crate::fault::FaultPhase;
use crate::grid::GridPartition;
use crate::protocol::{
    delta_head_bytes, parse_delta, parse_sync, record_wire_bytes, sync_head_bytes, Blocks,
    RUN_ITERATION_BYTES,
};

/// The exchange layout of one phase (see the module docs).
#[derive(Debug, Clone)]
pub struct PhasePlan {
    phase: FaultPhase,
    /// `delta_entries[i]`: the entries worker `i` reports after the phase,
    /// its segments concatenated.
    pub delta_entries: Vec<Vec<u32>>,
    /// `segments[i][j]`: the range of `delta_entries[i]` that is segment
    /// `i → j`.
    segments: Vec<Vec<Range<usize>>>,
    /// Tokens worker `i` advances in the phase: what its partial `c_k` sums
    /// to.
    shard_tokens: Vec<u64>,
}

impl PhasePlan {
    /// Lays out one phase with its entries still unfilled: segment `i → j`
    /// holds `len(i, j)` entries, and worker `i` advances `shard_tokens[i]`
    /// tokens. Every entry list ends in one spare slot, where the own segment
    /// starts when it is empty (it comes last): [`ShardPlan::build`] writes
    /// the entries that segment does not take there, and then drops the slot.
    fn sized(phase: FaultPhase, shard_tokens: &[u64], len: impl Fn(usize, usize) -> u64) -> Self {
        let workers = shard_tokens.len();
        let mut delta_entries = Vec::with_capacity(workers);
        let mut segments = Vec::with_capacity(workers);
        for i in 0..workers {
            let mut ranges = vec![0..0; workers];
            let mut end = 0;
            for j in (0..workers).filter(|&j| j != i).chain([i]) {
                let start = end;
                end += len(i, j) as usize;
                ranges[j] = start..end;
            }
            delta_entries.push(vec![0; end + 1]);
            segments.push(ranges);
        }
        Self { phase, delta_entries, segments, shard_tokens: shard_tokens.to_vec() }
    }

    /// The first slot of every segment, `i · P + j` for segment `i → j`:
    /// the cursors [`ShardPlan::build`] fills the segments through.
    fn segment_starts(&self) -> Vec<usize> {
        self.segments.iter().flatten().map(|range| range.start).collect()
    }

    /// Whether every segment is full once the cursors stand at `next`.
    fn filled(&self, next: &[usize]) -> bool {
        self.segments.iter().flatten().zip(next).all(|(range, &at)| at == range.end)
    }

    /// Segment `from → to`: its range within `delta_entries[from]`.
    pub fn segment(&self, from: usize, to: usize) -> Range<usize> {
        self.segments[from][to].clone()
    }

    /// The senders whose segments make up worker `to`'s sync, in wire order.
    pub fn sync_sources(&self, to: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.segments.len()).filter(move |&from| from != to)
    }

    /// Entries in worker `to`'s sync: the segments `from → to` of every
    /// other worker.
    pub fn sync_len(&self, to: usize) -> usize {
        self.sync_sources(to).map(|from| self.segments[from][to].len()).sum()
    }

    /// The coordinator's gate for worker `sender`'s delta `payload`: it is a
    /// delta of this phase and of `epoch`, from `sender`, at the width `K`
    /// dictates, with exactly the plan's record count, every topic below `K`
    /// and a partial `c_k` that sums to the sender's shard. On success the
    /// partial `c_k` is added into `merged` and the record bytes are
    /// returned; on failure `merged` is untouched.
    pub fn check_delta<'a>(
        &self,
        replica: &WarpLda,
        sender: usize,
        epoch: u64,
        payload: &'a [u8],
        merged: &mut [u32],
    ) -> CodecResult<&'a [u8]> {
        let delta = parse_delta(payload)?;
        if (delta.phase, delta.worker_id as usize, delta.epoch) != (self.phase, sender, epoch) {
            return Err(CodecError::Corrupt(format!(
                "{:?} delta of worker {} for epoch {} where worker {sender}'s {:?} delta for \
                 epoch {epoch} was due",
                delta.phase, delta.worker_id, delta.epoch, self.phase
            )));
        }
        let entries = self.delta_entries[sender].len();
        self.check_blocks(replica, &delta.blocks, entries, self.shard_tokens[sender])?;
        for (m, c) in merged.iter_mut().zip(delta.blocks.counts()) {
            *m += c;
        }
        Ok(delta.blocks.records)
    }

    /// What a delta and a sync have in common: the wire width of `K`, one
    /// count per topic summing to `tokens`, and `entries` valid records.
    fn check_blocks(
        &self,
        replica: &WarpLda,
        blocks: &Blocks<'_>,
        entries: usize,
        tokens: u64,
    ) -> CodecResult<()> {
        let k = replica.topic_counts().len();
        if blocks.width != topic_wire_width(k) {
            return Err(CodecError::Corrupt(format!(
                "records at {} bytes per topic where K = {k} travels at {}",
                blocks.width,
                topic_wire_width(k)
            )));
        }
        let counts = blocks.counts();
        if counts.len() != k {
            return Err(CodecError::Corrupt(format!("c_k has {} slots for K = {k}", counts.len())));
        }
        let sum: u64 = counts.map(u64::from).sum();
        if sum != tokens {
            return Err(CodecError::Corrupt(format!("c_k sums to {sum} over {tokens} tokens")));
        }
        replica.check_records_packed(entries, blocks.width, blocks.records)
    }

    /// The worker side of a boundary: validates the sync `payload` addressed
    /// to worker `me` like [`check_delta`](Self::check_delta) validates a
    /// delta, then installs the merged `c_k` and scatters each sender's
    /// segment. Nothing is modified unless the whole payload is valid.
    /// `counts` is a `K`-slot scratch buffer.
    pub fn apply_sync(
        &self,
        replica: &mut WarpLda,
        me: usize,
        epoch: u64,
        payload: &[u8],
        counts: &mut [u32],
    ) -> CodecResult<()> {
        let sync = parse_sync(payload)?;
        if (sync.phase, sync.epoch) != (self.phase, epoch) {
            return Err(CodecError::Corrupt(format!(
                "{:?} sync for epoch {} where the {:?} sync for epoch {epoch} was due",
                sync.phase, sync.epoch, self.phase
            )));
        }
        let tokens = replica.num_entries() as u64;
        self.check_blocks(replica, &sync.blocks, self.sync_len(me), tokens)?;
        for (slot, c) in counts.iter_mut().zip(sync.blocks.counts()) {
            *slot = c;
        }
        replica.install_topic_counts(counts);
        let record_bytes = replica.stride() * sync.blocks.width;
        let mut rest = sync.blocks.records;
        for from in self.sync_sources(me) {
            let entries = &self.delta_entries[from][self.segment(from, me)];
            let (bytes, tail) = rest.split_at(entries.len() * record_bytes);
            replica.import_records_packed(entries, sync.blocks.width, bytes)?;
            rest = tail;
        }
        Ok(())
    }
}

/// Per-worker ownership and the two phases' exchange layouts (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Columns worker `i` advances in word phases.
    pub owned_words: Vec<Vec<u32>>,
    /// Rows worker `i` advances in doc phases.
    pub owned_docs: Vec<Vec<u32>>,
    /// What moves after a word phase.
    pub word: PhasePlan,
    /// What moves after a doc phase.
    pub doc: PhasePlan,
}

impl ShardPlan {
    /// Builds the plan for `grid.workers()` workers over `sampler`'s matrix.
    /// Deterministic: every process building from the same corpus and worker
    /// count gets the identical plan.
    ///
    /// The sampler keeps no per-entry row or column ids. One pass over the
    /// rows records each entry's document owner; then one pass over the
    /// columns, in entry order, appends every entry to its segments through
    /// a cursor per segment, each segment sized from its grid cell.
    ///
    /// # Panics
    /// Panics if `grid` was built from a corpus other than `sampler`'s, or
    /// for more than 65 536 workers.
    pub fn build(sampler: &WarpLda, grid: &GridPartition) -> Self {
        assert_eq!(grid.total_tokens(), sampler.num_entries() as u64, "a grid of another corpus");
        let p = grid.workers();
        let mut owned_words: Vec<Vec<u32>> = vec![Vec::new(); p];
        for w in 0..sampler.num_words() as u32 {
            owned_words[grid.word_owner(w) as usize].push(w);
        }
        let mut owned_docs: Vec<Vec<u32>> = vec![Vec::new(); p];
        // Two bytes per entry, not four: this array is written in row order,
        // so at random, and the smaller it is the more of it stays cached.
        let mut doc_owner_of = vec![0u16; sampler.num_entries()];
        for d in 0..sampler.num_docs() as u32 {
            let owner = grid.doc_owner(d);
            owned_docs[owner as usize].push(d);
            let owner = u16::try_from(owner).expect("at most 65 536 workers");
            for &e in sampler.row_entry_ids(d) {
                doc_owner_of[e as usize] = owner;
            }
        }

        // After a word phase worker `i` reports its columns' entries in the
        // rows of `j ≠ i`, cell `(j, i)`; after a doc phase its rows' entries
        // in the columns of every `j`, cell `(i, j)`.
        let mut word = PhasePlan::sized(FaultPhase::Word, grid.word_phase_loads(), |i, j| {
            if i == j {
                0
            } else {
                grid.cell_tokens(j, i)
            }
        });
        let mut doc = PhasePlan::sized(FaultPhase::Doc, grid.doc_phase_loads(), |i, j| {
            grid.cell_tokens(i, j)
        });
        let (mut word_next, mut doc_next) = (word.segment_starts(), doc.segment_starts());
        for w in 0..sampler.num_words() as u32 {
            let word_owner = grid.word_owner(w) as usize;
            let word_entries = &mut word.delta_entries[word_owner];
            for e in sampler.col_entry_range(w) {
                let doc_owner = usize::from(doc_owner_of[e]);
                let at = &mut doc_next[doc_owner * p + word_owner];
                doc.delta_entries[doc_owner][*at] = e as u32;
                *at += 1;
                // Without a branch: an entry of the empty own segment lands
                // on the spare slot, and its cursor stays there.
                let at = &mut word_next[word_owner * p + doc_owner];
                word_entries[*at] = e as u32;
                *at += usize::from(doc_owner != word_owner);
            }
        }
        for entries in word.delta_entries.iter_mut().chain(&mut doc.delta_entries) {
            entries.pop();
        }
        assert!(
            word.filled(&word_next) && doc.filled(&doc_next),
            "the matrix disagrees with the grid's cells"
        );
        Self { owned_words, owned_docs, word, doc }
    }

    /// Cluster size `P`.
    pub fn workers(&self) -> usize {
        self.owned_words.len()
    }

    /// The exchange layout of `phase`.
    pub fn phase(&self, phase: FaultPhase) -> &PhasePlan {
        match phase {
            FaultPhase::Word => &self.word,
            FaultPhase::Doc => &self.doc,
        }
    }

    /// Frame bytes (length prefixes included) a healthy iteration puts on
    /// the sockets, both directions: one `RunIteration` per worker and, per
    /// phase, every worker's delta and sync. Pure arithmetic over the plan —
    /// what `ProcessIterationReport::bytes_exchanged` must equal.
    pub fn iteration_wire_bytes(&self, num_topics: usize, mh_steps: usize) -> u64 {
        let record = record_wire_bytes(num_topics, mh_steps);
        let frames = |head: usize, entries: usize| 4 + head as u64 + entries as u64 * record;
        let exchanged: u64 = [&self.word, &self.doc]
            .into_iter()
            .flat_map(|phase| {
                (0..self.workers()).map(move |i| {
                    frames(delta_head_bytes(num_topics), phase.delta_entries[i].len())
                        + frames(sync_head_bytes(num_topics), phase.sync_len(i))
                })
            })
            .sum();
        self.workers() as u64 * (4 + RUN_ITERATION_BYTES as u64) + exchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::{ModelParams, WarpLdaConfig};
    use warplda_corpus::{Corpus, DatasetPreset, DocMajorView, WordMajorView};

    /// Sampler, grid, plan, and the `(doc owner, word owner)` of every entry.
    type Built = (WarpLda, GridPartition, ShardPlan, Vec<(usize, usize)>);

    fn build_all(corpus: &Corpus, workers: usize) -> Built {
        let dv = DocMajorView::build(corpus);
        let wv = WordMajorView::build(corpus, &dv);
        let grid = GridPartition::for_cluster(corpus, workers);
        let sampler =
            WarpLda::new(corpus, ModelParams::new(5, 0.5, 0.1), WarpLdaConfig::with_mh_steps(2), 7);
        let plan = ShardPlan::build(&sampler, &grid);
        // Independently of the plan's own derivation: an entry is a slot of
        // the word-major view.
        let mut owners = Vec::with_capacity(sampler.num_entries());
        for w in 0..sampler.num_words() as u32 {
            assert_eq!(sampler.col_entry_range(w), wv.word_range(w));
            for &d in wv.word_docs(w) {
                owners.push((grid.doc_owner(d) as usize, grid.word_owner(w) as usize));
            }
        }
        (sampler, grid, plan, owners)
    }

    /// Segments list their entries in storage order, each at most once.
    fn assert_ascending(segment: &[u32], from: usize, to: usize, workers: usize) {
        assert!(
            segment.windows(2).all(|pair| pair[0] < pair[1]),
            "segment {from} → {to} is not strictly ascending ({workers} workers)"
        );
    }

    #[test]
    fn doc_phase_segments_partition_the_matrix_exactly_once() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [1usize, 2, 3, 4] {
            let (sampler, grid, plan, owners) = build_all(&corpus, workers);
            let mut seen = vec![false; sampler.num_entries()];
            for from in 0..workers {
                let mut covered = 0;
                for to in (0..workers).filter(|&to| to != from).chain([from]) {
                    // Segments tile the delta in wire order, the own one last.
                    let range = plan.doc.segment(from, to);
                    assert_eq!(range.start, covered, "{from} → {to} ({workers} workers)");
                    covered = range.end;
                    let segment = &plan.doc.delta_entries[from][range];
                    assert_ascending(segment, from, to, workers);
                    for &e in segment {
                        assert!(!seen[e as usize], "entry {e} reported twice ({workers} workers)");
                        seen[e as usize] = true;
                        assert_eq!(owners[e as usize], (from, to), "entry {e}");
                    }
                }
                assert_eq!(covered, plan.doc.delta_entries[from].len());
                assert_eq!(plan.doc.shard_tokens[from], grid.doc_phase_loads()[from]);
            }
            assert!(seen.iter().all(|&s| s), "some entry unreported ({workers} workers)");
        }
    }

    #[test]
    fn word_phase_segments_are_exactly_the_cross_owner_entries() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [1usize, 2, 3, 4] {
            let (sampler, grid, plan, owners) = build_all(&corpus, workers);
            let mut seen = vec![false; sampler.num_entries()];
            for from in 0..workers {
                assert!(plan.word.segment(from, from).is_empty(), "no own segment mid-iteration");
                for to in plan.word.sync_sources(from) {
                    let segment = &plan.word.delta_entries[from][plan.word.segment(from, to)];
                    assert_ascending(segment, from, to, workers);
                    for &e in segment {
                        assert!(!seen[e as usize], "entry {e} reported twice");
                        seen[e as usize] = true;
                        assert_eq!(owners[e as usize], (to, from), "entry {e}");
                    }
                }
                assert_eq!(plan.word.shard_tokens[from], grid.word_phase_loads()[from]);
            }
            for (e, &(doc_owner, word_owner)) in owners.iter().enumerate() {
                assert_eq!(seen[e], doc_owner != word_owner, "entry {e} ({workers} workers)");
            }
        }
    }

    #[test]
    fn a_sync_is_the_concatenation_of_the_segments_addressed_to_its_receiver() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [1usize, 2, 3] {
            let (sampler, grid, plan, owners) = build_all(&corpus, workers);
            for (phase, consumer_of) in [
                (&plan.word, (|o: (usize, usize)| (o.1, o.0)) as fn((usize, usize)) -> _),
                (&plan.doc, |o| o),
            ] {
                let mut total = 0;
                for to in 0..workers {
                    // What `to` must receive: everything it advances next
                    // phase that someone else advanced in this one.
                    let mut due: Vec<u32> = (0..sampler.num_entries() as u32)
                        .filter(|&e| {
                            let (producer, consumer) = consumer_of(owners[e as usize]);
                            consumer == to && producer != to
                        })
                        .collect();
                    let mut sync: Vec<u32> = phase
                        .sync_sources(to)
                        .flat_map(|from| &phase.delta_entries[from][phase.segment(from, to)])
                        .copied()
                        .collect();
                    assert_eq!(sync.len(), phase.sync_len(to));
                    assert!(phase.sync_sources(to).is_sorted());
                    sync.sort_unstable();
                    due.sort_unstable();
                    assert_eq!(sync, due, "worker {to} of {workers}");
                    total += sync.len();
                }
                assert_eq!(total as u64, grid.tokens_exchanged_per_phase_switch());
            }
        }
    }
}
