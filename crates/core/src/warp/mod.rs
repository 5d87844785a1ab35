//! WarpLDA (Section 4 of the paper): an O(1)-per-token MCEM sampler whose
//! randomly accessed memory per document/word is a single O(K) vector.
//!
//! The sampler is built directly on the [`warplda_sparse::TokenMatrix`]
//! structure of Section 5 (offsets and row pointers); the per-token state
//! lives in a [`PackedRecords`] buffer: one interleaved record per entry
//! holding the current topic assignment followed by the `M` pending MH
//! proposals. Assignment and proposals are always read and written
//! together, so packing them makes each token touch a single sequential
//! stream instead of two parallel ones. Neither `Cd` nor `Cw` is ever
//! materialized — each row/column count vector is recomputed on the fly while
//! its document/word is being visited and discarded afterwards (Section 4.4,
//! M-step) — and that holds for evaluation too:
//! [`Sampler::log_likelihood`] streams the same on-the-fly counts through one
//! reusable vector.
//!
//! # Memory: `T · (4 + (M + 1) · w)` bytes plus O(D + V + K)
//!
//! Per token the sampler holds one row pointer (4 bytes) and one record of
//! `M + 1` topic ids at `w =` [`topic_wire_width`]`(K)` bytes each — 1 byte
//! up to 256 topics, 2 up to 65 536, 4 beyond — and nothing else
//! ([`WarpLda::heap_bytes`] adds it up; the `memory_footprint` suite pins
//! it). The width is derived from `K`, never configured, and it is the width
//! records travel at between processes and rest at in a checkpoint, so those
//! paths copy bytes instead of repacking them.
//!
//! **Width dispatch.** A driver turns the width into a type once per
//! *phase* ([`with_topic_type!`] around its entity loop) and opens a `Phase`
//! over [`Topic`], whose one column kernel and one row kernel are
//! monomorphized with it; the bulk operations (initialization,
//! [`Sampler::assignments`], the validation scan of
//! [`WarpLda::check_records_packed`], the likelihood) dispatch once per call.
//! Nothing matches on the width per entity, let alone per token.
//!
//! **Sharing.** The kernels are safe code over `&[Cell<T>]` that every visitor
//! of a phase shares. That no two of them meet on a cell is claimed once, by
//! the `Send`/`Sync` impls of `SharedRecs`; a driver upholds `Phase::visit`'s
//! contract (one visitor per entity) and nothing else.
//!
//! **Who validates what.** [`PackedRecords`] guarantees shape only; that
//! every stored id is below `K` is this module's invariant, established by
//! construction and kept by the kernels. Record bytes from outside enter
//! through [`WarpLda::check_records_packed`] (width equals
//! [`topic_wire_width`]`(K)`, exact length, every id `< K`) before a byte of
//! them is copied, so a rejected payload leaves the sampler untouched: a
//! peer's delta or sync through [`WarpLda::import_records_packed`], and whole
//! states — a checkpoint, or the same bytes as a cluster's resume payload —
//! through [`Checkpointable::read_state`], the one reader of the one
//! serialized form.
//!
//! One iteration is two passes (Algorithm 2):
//!
//! 1. **Word phase** (a visit by column): for each word, compute `c_w`, run the
//!    MH chains that consume the *document* proposals drawn in the previous
//!    doc phase (their acceptance rate only needs `c_w` and `c_k`), then draw
//!    fresh *word* proposals `q_word(k) ∝ C_wk + β` from an alias table over
//!    the updated `c_w`.
//! 2. **Document phase** (a visit by row): for each document, compute `c_d`,
//!    run the MH chains that consume the word proposals (acceptance needs only
//!    `c_d` and `c_k`), then draw fresh document proposals
//!    `q_doc(k) ∝ C_dk + α` by random positioning.
//!
//! The global vector `c_k` is read-only within a phase; the counts of the
//! visited entities accumulate into a *partial* `c_k` that is installed at
//! the phase boundary (delayed update), which is what makes the reordering
//! legal — and what makes the algorithm parallelize: nothing but `c_k` is
//! shared between entities.
//!
//! # One MH step, one proposal
//!
//! **Acceptance by multiply-and-select.** A step from `z` to the proposal
//! `t` has ratio `num / den` with `num = (C_t + prior)·(c_k[z] + β̄)` and
//! `den = (C_z + prior)·(c_k[t] + β̄)`, where `C` is the visited entity's
//! count vector and the prior is `β` (word phase) or `α` (doc phase). The
//! kernel draws one uniform `u ∈ [0, 1)` and sets
//! `z = if u·den < num { t } else { z }`: since `den > 0` and `u < 1`, that
//! accepts with probability exactly `min(1, num/den)`, without a division or
//! a data-dependent branch, and a step with `t == z` is a no-op by
//! construction.
//!
//! **The RNG schedule.** A visit's stream first yields one uniform per MH
//! step of every token, drawn unconditionally, so the chains consume
//! `M · L` draws whatever they accept. Each of the `M · L` fresh proposals
//! then takes one 64-bit word: its high half against `⌊p·2³²⌋` picks the
//! mixture component (`p = L/(L + Kβ)` for `q_word`, `L/(L + ᾱ)` for
//! `q_doc`), and its low half an exactly uniform index into that component
//! by Lemire's multiply-shift with rejection ([`Mixture`],
//! [`index_from_word`]) — an alias bin (then one more uniform against the
//! bin's probability), a token of the document whose topic is copied, or a
//! uniform topic. A rejected low half (probability < n/2³²) is replaced
//! from the stream. So the mixture weight is quantised at 2⁻³², and nothing
//! else in a proposal is approximated.
//!
//! # One state type, one visit, several drivers
//!
//! [`WarpLda`] is the only sampler state. A visit of one entity (a column in
//! the word phase, a row in the doc phase) is a pure function of that
//! entity's records, the installed `c_k` and an RNG stream derived from
//! `(seed, iteration, phase, entity)` via [`split_seed`]; `visit_column` /
//! `visit_row` are the only code that performs one. Who calls them, in which
//! order, on how many threads or processes, cannot change a sampled value:
//!
//! * [`Sampler::run_iteration`] on a [`WarpLda`] visits every column, then
//!   every row, on the calling thread. This is the **reference mode** every
//!   other driver is differential-tested against, and the only one generic
//!   over a [`MemoryProbe`].
//! * [`parallel::ParallelWarpLda`] visits the same entities from a thread
//!   pool.
//! * [`WarpLda::run_word_phase_shard`] / [`WarpLda::run_doc_phase_shard`]
//!   visit a caller-chosen subset; with [`WarpLda::install_topic_counts`],
//!   [`WarpLda::export_records_packed`] / [`WarpLda::import_records_packed`]
//!   ([`topic_wire_width`] bytes per topic) and
//!   [`WarpLda::advance_iteration`] they are the phase API the multi-process
//!   runtime in `warplda-dist` drives replicas through.
//!
//! All of them produce bit-identical assignments and `c_k` from one seed,
//! and share one checkpoint kind.
//!
//! Steady-state iterations perform **no heap allocation**: every visit
//! counts into one reusable [`DenseCounts`] over the K topics — the O(K)
//! vector the module is named for, whatever the row or column length — and
//! the word-proposal alias table is rebuilt in place
//! ([`SparseAliasTable::rebuild`]) into buffers pre-sized at construction
//! for the longest row/column of the corpus (pinned by the `zero_alloc`
//! integration suite). Section 5.4's hash tables measured slower here at
//! every K from 2¹² to 2²⁰ (see [`crate::counts`]), so no visit uses them.

pub mod parallel;

use std::borrow::Cow;
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use warplda_cachesim::{MemoryProbe, NoProbe, RegionId};
use warplda_corpus::{Corpus, DocMajorView, Document, WordMajorView};
use warplda_sampling::{
    index_from_word, new_rng, split_seed, AliasBuildScratch, Mixture, SparseAliasTable,
};
use warplda_sparse::{with_topic_type, PackedRecords, TokenMatrix, Topic};

use crate::checkpoint::Checkpointable;
use crate::counts::{DenseCounts, TopicCounts};
use crate::eval::LikelihoodSum;
use crate::params::ModelParams;
use crate::sampler::Sampler;
use warplda_corpus::io::codec::{CodecError, CodecResult, Decoder, Encoder};

/// Tuning knobs of WarpLDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpLdaConfig {
    /// Number of MH proposals kept per token (`M` in the paper; Figures 5–8
    /// use 1–16, with 1, 2 or 4 recommended).
    pub mh_steps: usize,
    /// Selects nothing: every visit counts into the dense vector (see the
    /// module docs), and both values give the same chain bit for bit. The
    /// field stays only because the checkpoint's state section and the
    /// cluster's `Setup` carry it as a byte of format version 4, and the
    /// repository benchmark names it; removing it is a format bump.
    pub use_hash_counts: bool,
}

impl Default for WarpLdaConfig {
    fn default() -> Self {
        Self { mh_steps: 2, use_hash_counts: true }
    }
}

impl WarpLdaConfig {
    /// Configuration with a specific number of MH steps.
    pub fn with_mh_steps(mh_steps: usize) -> Self {
        assert!(mh_steps >= 1, "need at least one MH proposal per token");
        Self { mh_steps, ..Self::default() }
    }
}

/// The word-proposal distribution `q_word(k) ∝ C_wk + β` of the column being
/// visited: an alias table rebuilt in place per word, plus its build buffers.
struct WordProposals {
    /// `(topic, count)` pairs of the current word, staged for the alias build.
    pairs: Vec<(u32, f64)>,
    table: SparseAliasTable,
    build: AliasBuildScratch,
}

impl WordProposals {
    fn rebuild(&mut self, cw: &DenseCounts) {
        self.pairs.clear();
        cw.for_each(|t, c| self.pairs.push((t, c as f64)));
        self.table.rebuild(&self.pairs, &mut self.build);
    }
}

/// Reusable working state of whoever performs visits: the `c_d` / `c_w`
/// count vector plus the word-proposal table, all pre-sized so steady-state
/// iterations allocate nothing. The sampler owns one; the parallel driver
/// owns one per worker.
pub(crate) struct PhaseScratch {
    /// The count vector of the entity being visited, cleared per visit.
    counts: DenseCounts,
    proposals: WordProposals,
}

impl PhaseScratch {
    /// Scratch complete for every row and column of `matrix`: their lengths
    /// never change, so sized for the longest (at most `min{K, L}` distinct
    /// topics) every buffer is at its high-water mark. Whoever visits
    /// whichever entity with it never allocates.
    fn for_matrix(num_topics: usize, matrix: &TokenMatrix) -> Self {
        let max_len = [matrix.row_offsets(), matrix.col_offsets()]
            .iter()
            .flat_map(|offsets| offsets.windows(2).map(|w| (w[1] - w[0]) as usize))
            .max()
            .unwrap_or(0);
        let cap = num_topics.min(max_len).max(1);
        Self {
            counts: DenseCounts::new(num_topics),
            proposals: WordProposals {
                pairs: Vec::with_capacity(cap),
                table: SparseAliasTable::with_capacity(cap),
                build: AliasBuildScratch::with_capacity(cap),
            },
        }
    }

    fn heap_bytes(&self) -> usize {
        let WordProposals { pairs, table, build } = &self.proposals;
        self.counts.heap_bytes()
            + std::mem::size_of::<(u32, f64)>() * pairs.capacity()
            + table.heap_bytes()
            + build.heap_bytes()
    }
}

/// What every visit needs and no iteration changes: the hyper-parameters with
/// their sums precomputed and the probe regions.
#[derive(Debug, Clone, Copy)]
struct VisitCtx {
    k: usize,
    m: usize,
    alpha: f64,
    alpha_bar: f64,
    beta: f64,
    beta_bar: f64,
    region_cd: RegionId,
    region_cw: RegionId,
    region_ck: RegionId,
}

/// The two passes of Algorithm 2. The discriminant is the phase's slot in an
/// iteration's seed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseKind {
    /// Visit by column: consumes doc proposals, produces word proposals.
    Word = 0,
    /// Visit by row: consumes word proposals, produces doc proposals.
    Doc = 1,
}

/// The packed records of one phase at their width, as every visitor of the
/// phase sees them. Columns own contiguous blocks but rows reach their
/// entries through the row-pointer indirection, so the entries of different
/// rows interleave in memory and cannot be handed out as disjoint `&mut`
/// slices; shared cells can.
#[derive(Clone, Copy)]
struct SharedRecs<'a, T> {
    cells: &'a [Cell<T>],
    /// Ids per record.
    stride: usize,
}

// SAFETY: the disjointness claim of Sections 5.2–5.3, stated once for the
// workspace. Within a phase distinct words own disjoint contiguous record
// blocks (the column ranges tile the entries) and distinct documents own
// disjoint records behind the row pointers (a permutation of the entries);
// `Phase::visit`'s contract puts at most one visitor on an entity and the
// kernels touch the visited entity's records only. So no cell is ever reached
// from two threads, and a cell one thread reaches is plain memory.
unsafe impl<T: Topic> Send for SharedRecs<'_, T> {}
unsafe impl<T: Topic> Sync for SharedRecs<'_, T> {}

impl<'a, T: Topic> SharedRecs<'a, T> {
    /// Entry `e`'s record: slot 0 is the assignment, slot `1 + i` proposal
    /// `i`. The one access of the kernels that is bounds-checked in builds
    /// with debug assertions only (tier-1's `cargo test` is one).
    #[inline(always)]
    fn record(self, e: u32) -> &'a [Cell<T>] {
        let at = e as usize * self.stride;
        debug_assert!(at + self.stride <= self.cells.len(), "entry {e} is outside the records");
        // SAFETY: `e` comes off the row pointers of the phase's matrix, which
        // are entry ids below its `num_entries` by construction
        // (`TokenMatrix::from_rows`), and `WarpLda::phase` asserts that the
        // cells hold `num_entries × stride` ids before any visit runs.
        unsafe { self.cells.get_unchecked(at..at + self.stride) }
    }
}

/// The topic a cell holds, as a host integer.
#[inline(always)]
fn topic<T: Topic>(cell: &Cell<T>) -> u32 {
    cell.get().get()
}

/// One phase of one iteration as its visits see it: everything the entities
/// of the phase share (matrix structure, the installed `c_k`, the stream
/// root) plus the records at their width `T`. `Copy`, so every worker of a
/// driver holds one.
#[derive(Clone, Copy)]
pub(crate) struct Phase<'a, T> {
    kind: PhaseKind,
    ctx: VisitCtx,
    matrix: &'a TokenMatrix,
    recs: SharedRecs<'a, T>,
    ck: &'a [u32],
    /// Stream root of this `(seed, iteration, phase)`; per-entity streams
    /// hang off it, so results are independent of visiting order.
    seed: u64,
}

impl<T: Topic> Phase<'_, T> {
    /// Visits entity `id` — a column in the word phase, a row in the doc
    /// phase — accumulating its updated counts into `partial_ck`.
    ///
    /// # Safety
    /// No other thread may visit the same entity of this phase at the same
    /// time. Distinct entities of one phase own disjoint records, so any
    /// number of them may be visited concurrently.
    #[inline]
    pub(crate) unsafe fn visit<P: MemoryProbe>(
        &self,
        id: u32,
        partial_ck: &mut [u32],
        scratch: &mut PhaseScratch,
        probe: &mut P,
    ) {
        match self.kind {
            PhaseKind::Word => self.visit_column(id, partial_ck, scratch, probe),
            PhaseKind::Doc => self.visit_row(id, partial_ck, scratch, probe),
        }
    }

    /// One column of the word phase: the kernel over the column's block of
    /// records, a single sequential stream over `len * (M + 1)` ids, counting
    /// `c_w` into the cleared dense vector. Performs no heap allocation.
    fn visit_column<P: MemoryProbe>(
        &self,
        w: u32,
        partial_ck: &mut [u32],
        scratch: &mut PhaseScratch,
        probe: &mut P,
    ) {
        let range = self.matrix.col_entry_range(w);
        if range.is_empty() {
            return;
        }
        let mut rng = new_rng(split_seed(self.seed, w as u64));
        let stride = self.recs.stride;
        let block = &self.recs.cells[range.start * stride..range.end * stride];
        let PhaseScratch { counts, proposals } = scratch;
        counts.clear();
        self.word_column_kernel(block, partial_ck, counts, proposals, &mut rng, probe);
    }

    fn word_column_kernel<P: MemoryProbe>(
        &self,
        block: &[Cell<T>],
        next_ck: &mut [u32],
        cw: &mut DenseCounts,
        proposals: &mut WordProposals,
        rng: &mut SmallRng,
        probe: &mut P,
    ) {
        let VisitCtx { k, m, beta, beta_bar, region_cw, region_ck, .. } = self.ctx;
        let ck = self.ck;
        let stride = m + 1;
        debug_assert!(!block.is_empty() && block.len().is_multiple_of(stride));
        let len = block.len() / stride;

        // c_w on the fly.
        for rec in block.chunks_exact(stride) {
            let t = topic(&rec[0]);
            cw.increment(t);
            probe.write(region_cw, t as usize);
        }

        // Simulate the q_doc chains with the proposals drawn last doc phase:
        // accept t with probability min(1, num/den) by select (see the
        // module docs); t == z keeps z either way.
        for rec in block.chunks_exact(stride) {
            let mut z = topic(&rec[0]);
            for slot in &rec[1..] {
                let t = topic(slot);
                let u = rng.gen::<f64>();
                probe.read(region_cw, t as usize);
                probe.read(region_cw, z as usize);
                probe.read(region_ck, t as usize);
                probe.read(region_ck, z as usize);
                let num = (cw.get(t) as f64 + beta) * (ck[z as usize] as f64 + beta_bar);
                let den = (cw.get(z) as f64 + beta) * (ck[t as usize] as f64 + beta_bar);
                z = if u * den < num { t } else { z };
            }
            rec[0].set(T::put(z));
        }

        // Recompute c_w from the updated assignments (Algorithm 2 "Update Cwk"),
        // accumulate it into the next c_k, and rebuild the alias table of
        // q_word(k) ∝ C_wk + β in place.
        cw.clear();
        for rec in block.chunks_exact(stride) {
            let t = topic(&rec[0]);
            cw.increment(t);
            probe.write(region_cw, t as usize);
            next_ck[t as usize] += 1;
        }
        proposals.rebuild(cw);
        // Mixture weights of q_word: counts part (mass L_w) vs smoothing part
        // (mass K·β). One word per proposal picks the part and the alias bin
        // or uniform topic; a bin then costs one coin.
        let count_mass = len as f64;
        let smooth_mass = k as f64 * beta;
        let mixture = Mixture::new(count_mass / (count_mass + smooth_mass));
        let bins = proposals.table.len() as u32;

        for rec in block.chunks_exact(stride) {
            for slot in &rec[1..] {
                let (from_counts, i) = mixture.draw(rng, bins, k as u32);
                slot.set(T::put(if from_counts {
                    proposals.table.sample_bin(i as usize, rng)
                } else {
                    i
                }));
            }
        }
    }

    /// One row of the doc phase: the kernel over the row's entry ids,
    /// counting `c_d` into the cleared dense vector. Allocation-free.
    fn visit_row<P: MemoryProbe>(
        &self,
        d: u32,
        partial_ck: &mut [u32],
        scratch: &mut PhaseScratch,
        probe: &mut P,
    ) {
        let entries = self.matrix.row_entry_ids(d);
        if entries.is_empty() {
            return;
        }
        let mut rng = new_rng(split_seed(self.seed, d as u64));
        scratch.counts.clear();
        self.doc_row_kernel(entries, partial_ck, &mut scratch.counts, &mut rng, probe);
    }

    fn doc_row_kernel<P: MemoryProbe>(
        &self,
        entries: &[u32],
        next_ck: &mut [u32],
        cd: &mut DenseCounts,
        rng: &mut SmallRng,
        probe: &mut P,
    ) {
        let VisitCtx { k, alpha, alpha_bar, beta_bar, region_cd, region_ck, .. } = self.ctx;
        let (ck, recs) = (self.ck, self.recs);
        let len = entries.len();

        // c_d on the fly.
        for &e in entries {
            let t = topic(&recs.record(e)[0]);
            cd.increment(t);
            probe.write(region_cd, t as usize);
        }

        // Simulate the q_word chains with the proposals drawn last word
        // phase, accepting by select as the word phase does.
        for &e in entries {
            let rec = recs.record(e);
            let old = topic(&rec[0]);
            let mut cur = old;
            for slot in &rec[1..] {
                let t = topic(slot);
                let u = rng.gen::<f64>();
                probe.read(region_cd, t as usize);
                probe.read(region_cd, cur as usize);
                probe.read(region_ck, t as usize);
                probe.read(region_ck, cur as usize);
                let num = (cd.get(t) as f64 + alpha) * (ck[cur as usize] as f64 + beta_bar);
                let den = (cd.get(cur) as f64 + alpha) * (ck[t as usize] as f64 + beta_bar);
                cur = if u * den < num { t } else { cur };
            }
            if cur != old {
                // Keep c_d in sync so the upcoming random positioning reflects
                // the updated assignments of this document.
                cd.decrement(old);
                cd.increment(cur);
                rec[0].set(T::put(cur));
            }
        }

        // Accumulate the updated c_d into the next c_k.
        cd.for_each(|t, c| next_ck[t as usize] += c);

        // Draw the doc proposals q_doc(k) ∝ C_dk + α by random positioning: with
        // probability L_d/(L_d + ᾱ) reuse the topic of a uniformly chosen token
        // of this document, otherwise a uniform topic — one word per proposal.
        let mixture = Mixture::new(len as f64 / (len as f64 + alpha_bar));
        for &e in entries {
            for slot in &recs.record(e)[1..] {
                let (copy, i) = mixture.draw(rng, len as u32, k as u32);
                slot.set(if copy { recs.record(entries[i as usize])[0].get() } else { T::put(i) });
            }
        }
    }
}

/// Bytes one topic id of a `num_topics`-topic model takes in the packed wire
/// form of records: `⌈log₂₅₆ K⌉` rounded up to 1, 2 or 4. Both ends of a
/// connection derive it from `K`, so it is never configured.
pub fn topic_wire_width(num_topics: usize) -> usize {
    match num_topics {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

/// The WarpLDA sampler state, generic over an optional memory probe.
pub struct WarpLda<P: MemoryProbe = NoProbe> {
    params: ModelParams,
    config: WarpLdaConfig,
    ctx: VisitCtx,
    /// D × V matrix, structure only: column offsets, row offsets and one row
    /// pointer per token. The pointers are in doc-major token order, so they
    /// also map a token index to its entry id.
    matrix: TokenMatrix,
    /// Packed per-entry records `[z | M proposals]`, stride `M + 1`, indexed
    /// by entry id (CSC position), at [`topic_wire_width`]`(K)` bytes per id.
    /// Every id in it is below `K`.
    records: PackedRecords,
    /// Global topic counts as of the last installed phase boundary; read-only
    /// during a phase.
    topic_counts: Vec<u32>,
    /// Root of every RNG stream of the chain (and of the initial state).
    seed: u64,
    iterations: u64,
    scratch: PhaseScratch,
    /// Partial `c_k` of the serial driver, kept so it allocates nothing.
    partial_ck: Vec<u32>,
    /// Wall seconds the most recent `run_iteration` spent in its two phases.
    last_phase_secs: f64,
    probe: P,
}

/// The replica type of the multi-process runtime, which is the sampler
/// itself. Kept as a forwarding alias for code that names it.
pub type ShardedWarpLda = WarpLda;

impl WarpLda<NoProbe> {
    /// Creates an uninstrumented WarpLDA sampler with random initial topics.
    pub fn new(corpus: &Corpus, params: ModelParams, config: WarpLdaConfig, seed: u64) -> Self {
        Self::with_probe(corpus, params, config, seed, NoProbe)
    }
}

/// The random initial state in one pass over the ids in storage order, each
/// record's assignment and proposals together: two uniform topics per 64-bit
/// word of the one stream `rng`, high half first, each through
/// [`index_from_word`] (the order the golden hash pins). Two records hold a
/// whole number of words; an odd last record leaves the low half of its
/// last word unused when `M + 1` is odd. Assignments are counted into
/// `topic_counts` on the way.
fn init_records<T: Topic>(
    ids: &mut [T],
    stride: usize,
    k: usize,
    rng: &mut SmallRng,
    topic_counts: &mut [u32],
) {
    let k = u32::try_from(k).expect("topic ids are 32-bit");
    let mut fill = |ids: &mut [T]| {
        let mut pairs = ids.chunks_exact_mut(2);
        for pair in &mut pairs {
            let r = rng.next_u64();
            pair[0] = T::put(index_from_word((r >> 32) as u32, k, rng));
            pair[1] = T::put(index_from_word(r as u32, k, rng));
        }
        if let [id] = pairs.into_remainder() {
            *id = T::put(index_from_word((rng.next_u64() >> 32) as u32, k, rng));
        }
    };
    let mut twos = ids.chunks_exact_mut(2 * stride);
    for recs in &mut twos {
        fill(recs);
        topic_counts[recs[0].get() as usize] += 1;
        topic_counts[recs[stride].get() as usize] += 1;
    }
    let last = twos.into_remainder();
    if !last.is_empty() {
        fill(last);
        topic_counts[last[0].get() as usize] += 1;
    }
}

impl<P: MemoryProbe> WarpLda<P> {
    /// Creates a sampler whose count-vector accesses are reported to `probe`.
    /// The initial state is a pure function of the arguments: every process
    /// of a cluster that calls this with the same corpus, parameters,
    /// configuration and seed starts from bit-identical replicas.
    ///
    /// Construction allocates what the sampler keeps and nothing per token
    /// besides: the row pointers come from one counting sort over the
    /// corpus's own token arrays.
    ///
    /// Only the count structures are probed (`c_d`, `c_w`, `c_k`): the packed
    /// token records are scanned strictly sequentially by construction and
    /// are therefore irrelevant to the random-access analysis of Sections 3
    /// and 6 (Table 2 lists no sequential-access term for WarpLDA).
    pub fn with_probe(
        corpus: &Corpus,
        params: ModelParams,
        config: WarpLdaConfig,
        seed: u64,
        mut probe: P,
    ) -> Self {
        assert!(config.mh_steps >= 1, "need at least one MH proposal per token");
        let vocab_size = corpus.vocab_size();
        let k = params.num_topics;
        let m = config.mh_steps;

        // One entry per token; a row keeps its document's token order.
        let matrix: TokenMatrix =
            TokenMatrix::from_rows(vocab_size, corpus.docs().iter().map(Document::tokens));
        let num_entries = matrix.num_entries();

        // Random initial topics + proposals, packed per entry.
        let mut rng = new_rng(seed);
        let mut records = PackedRecords::new(num_entries, m + 1, topic_wire_width(k));
        let mut topic_counts = vec![0u32; k];
        with_topic_type!(records.width(), T => {
            init_records::<T>(records.ids_mut(), m + 1, k, &mut rng, &mut topic_counts)
        });

        let ctx = VisitCtx {
            k,
            m,
            alpha: params.alpha,
            alpha_bar: params.alpha_bar(),
            beta: params.beta,
            beta_bar: params.beta_bar(vocab_size),
            region_cd: probe.register_region("cd vector", k, 4),
            region_cw: probe.register_region("cw vector", k, 4),
            region_ck: probe.register_region("ck vector", k, 4),
        };

        Self {
            params,
            config,
            ctx,
            records,
            topic_counts,
            seed,
            iterations: 0,
            scratch: PhaseScratch::for_matrix(k, &matrix),
            matrix,
            partial_ck: vec![0u32; k],
            last_phase_secs: 0.0,
            probe,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarpLdaConfig {
        &self.config
    }

    /// The memory probe (e.g. to read cache statistics after a run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The seed every RNG stream of the chain derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The global topic counts as of the last installed phase boundary.
    pub fn topic_counts(&self) -> &[u32] {
        &self.topic_counts
    }

    /// Number of documents (matrix rows).
    pub fn num_docs(&self) -> usize {
        self.matrix.num_rows()
    }

    /// Number of vocabulary words (matrix columns).
    pub fn num_words(&self) -> usize {
        self.matrix.num_cols()
    }

    /// Number of token entries.
    pub fn num_entries(&self) -> usize {
        self.matrix.num_entries()
    }

    /// Topic ids per packed record (`M + 1`).
    pub fn stride(&self) -> usize {
        self.records.stride()
    }

    /// Bytes per topic id of the records: [`topic_wire_width`]`(K)`.
    pub fn record_width(&self) -> usize {
        self.records.width()
    }

    /// Entry ids of document `d`, in token order.
    pub fn row_entry_ids(&self, d: u32) -> &[u32] {
        self.matrix.row_entry_ids(d)
    }

    /// The contiguous entry-id range of word `w`'s column. Within it entries
    /// ascend by document and keep token order inside a document: the order
    /// of [`Sampler::word_major_assignments`].
    pub fn col_entry_range(&self, w: u32) -> std::ops::Range<usize> {
        self.matrix.col_entry_range(w)
    }

    /// Prefix sums of the lengths of `kind`'s entities (columns for the word
    /// phase, rows for the doc phase): what a driver cuts token-balanced work
    /// chunks from.
    pub(crate) fn entity_offsets(&self, kind: PhaseKind) -> &[u32] {
        match kind {
            PhaseKind::Word => self.matrix.col_offsets(),
            PhaseKind::Doc => self.matrix.row_offsets(),
        }
    }

    /// Scratch for one more visitor of this sampler's entities (a pool
    /// worker), pre-sized like the sampler's own.
    pub(crate) fn new_scratch(&self) -> PhaseScratch {
        PhaseScratch::for_matrix(self.ctx.k, &self.matrix)
    }

    /// The full packed record buffer as little-endian bytes at
    /// [`record_width`](Self::record_width) per id — the form records travel
    /// and rest in, so a checkpoint writes it as is.
    pub fn records_bytes(&self) -> &[u8] {
        self.records.as_bytes()
    }

    /// Bytes of heap this sampler holds: the sum of its own buffers'
    /// capacities. `T · (4 + (M + 1) · w)` for the row pointers and the
    /// records, `4 · (D + V + 2)` for the offsets, and O(K) of scratch (count
    /// vectors, alias table, the two `c_k`) — the claim of the module docs as
    /// a number.
    pub fn heap_bytes(&self) -> usize {
        self.matrix.heap_bytes()
            + self.records.heap_bytes()
            + 4 * (self.topic_counts.capacity() + self.partial_ck.capacity())
            + self.scratch.heap_bytes()
    }

    /// Opens phase `kind` of the current iteration over the records at their
    /// width `T` (panics at any other). The returned view holds the exclusive
    /// borrow of the sampler, which is what makes it the only route to the
    /// records while the phase runs.
    pub(crate) fn phase<T: Topic>(
        &mut self,
        kind: PhaseKind,
    ) -> (Phase<'_, T>, &mut PhaseScratch, &mut P) {
        let stride = self.records.stride();
        let cells = Cell::from_mut(self.records.ids_mut::<T>()).as_slice_of_cells();
        // What `SharedRecs::record` leaves unchecked in optimized builds.
        assert_eq!(cells.len(), self.matrix.num_entries() * stride, "one record per entry");
        let phase = Phase {
            kind,
            ctx: self.ctx,
            matrix: &self.matrix,
            recs: SharedRecs { cells, stride },
            ck: &self.topic_counts,
            seed: split_seed(self.seed, self.iterations * 2 + kind as u64),
        };
        (phase, &mut self.scratch, &mut self.probe)
    }

    /// The serial driver of one phase: visits `entities` in order on the
    /// calling thread, accumulating their counts into `partial_ck` (zeroed
    /// first).
    fn run_phase(
        &mut self,
        kind: PhaseKind,
        entities: impl Iterator<Item = u32>,
        partial_ck: &mut [u32],
    ) {
        assert_eq!(partial_ck.len(), self.ctx.k, "partial c_k must have one slot per topic");
        partial_ck.fill(0);
        with_topic_type!(self.records.width(), T => {
            let (phase, scratch, probe) = self.phase::<T>(kind);
            for id in entities {
                // SAFETY: the sampler is exclusively borrowed and the loop is
                // serial, so no two visits ever overlap.
                unsafe { phase.visit(id, partial_ck, scratch, probe) };
            }
        });
    }

    /// Runs the word phase over the columns `words` only, accumulating the
    /// updated counts of those columns into `partial_ck` (zeroed first).
    /// The global `c_k` read by the MH chains is whatever the last
    /// [`install_topic_counts`](Self::install_topic_counts) installed.
    /// `words` must be distinct; results are independent of their order and
    /// of which other columns any other replica visits.
    pub fn run_word_phase_shard(&mut self, words: &[u32], partial_ck: &mut [u32]) {
        self.run_phase(PhaseKind::Word, words.iter().copied(), partial_ck);
    }

    /// Runs the doc phase over the rows `docs` only. Same contract as
    /// [`run_word_phase_shard`](Self::run_word_phase_shard).
    pub fn run_doc_phase_shard(&mut self, docs: &[u32], partial_ck: &mut [u32]) {
        self.run_phase(PhaseKind::Doc, docs.iter().copied(), partial_ck);
    }

    /// Installs the global `c_k` of a phase boundary: the sum of the partial
    /// `c_k` of every shard of the phase that just ran.
    pub fn install_topic_counts(&mut self, ck: &[u32]) {
        assert_eq!(ck.len(), self.ctx.k, "c_k must have one slot per topic");
        self.topic_counts.copy_from_slice(ck);
    }

    /// Advances the iteration counter once both phases of an iteration have
    /// run and their boundaries were installed.
    pub fn advance_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Appends the packed records of `entries` (in that order) to `out`:
    /// `entries.len() × stride × record_width` bytes, the form records travel
    /// in between processes. Storage and wire share one layout, so this is a
    /// byte copy — one `memcpy` per run of consecutive entry ids, hence one
    /// for a whole column.
    pub fn export_records_packed(&self, entries: &[u32], out: &mut Vec<u8>) {
        let rb = self.records.record_bytes();
        let src = self.records.as_bytes();
        out.reserve(entries.len() * rb);
        let mut rest = entries;
        while let Some((&first, _)) = rest.split_first() {
            let run = 1 + rest.windows(2).take_while(|p| p[1] == p[0] + 1).count();
            out.extend_from_slice(&src[first as usize * rb..][..run * rb]);
            rest = &rest[run..];
        }
    }

    /// Validates `bytes` as the packed records of `entries` entries at
    /// `width` bytes per topic without applying them: the width is the one
    /// `K` dictates, the length is exact and every topic is below `K`. This
    /// is the validation gate for record bytes from outside — off the wire or
    /// out of a file.
    pub fn check_records_packed(
        &self,
        entries: usize,
        width: usize,
        bytes: &[u8],
    ) -> CodecResult<()> {
        let (stride, k) = (self.stride(), self.ctx.k);
        if width != self.records.width() {
            return Err(CodecError::Corrupt(format!(
                "records at {width} bytes per topic where K = {k} is stored at {}",
                self.records.width()
            )));
        }
        if bytes.len() != entries * stride * width {
            return Err(CodecError::Corrupt(format!(
                "record payload holds {} bytes but {entries} entries × stride {stride} × \
                 {width} need {}",
                bytes.len(),
                entries * stride * width,
            )));
        }
        // A branch-free maximum over unaligned ids, so the scan vectorizes.
        let max = with_topic_type!(width, T => {
            bytes.chunks_exact(T::WIDTH).fold(0, |max, id| max.max(T::read(id)))
        });
        if max as usize >= k {
            return Err(CodecError::Corrupt(format!("record topic {max} out of range (K = {k})")));
        }
        Ok(())
    }

    /// Overwrites the packed records of `entries` (in that order) with
    /// `bytes`, the form [`export_records_packed`](Self::export_records_packed)
    /// produced on the owning peer. Nothing is written unless
    /// [`check_records_packed`](Self::check_records_packed) accepts the
    /// payload; after it, the import is a byte copy per entry.
    pub fn import_records_packed(
        &mut self,
        entries: &[u32],
        width: usize,
        bytes: &[u8],
    ) -> CodecResult<()> {
        self.check_records_packed(entries.len(), width, bytes)?;
        let rb = self.records.record_bytes();
        let dst = self.records.as_bytes_mut();
        for (rec, &e) in bytes.chunks_exact(rb).zip(entries) {
            dst[e as usize * rb..][..rb].copy_from_slice(rec);
        }
        Ok(())
    }

    /// Feeds `sum` the topics of every document, then of every word, in
    /// token order, straight off the records.
    fn stream_likelihood<T: Topic>(&self, sum: &mut LikelihoodSum) {
        let ids = self.records.ids::<T>();
        let stride = self.stride();
        for d in 0..self.num_docs() as u32 {
            sum.doc(self.row_entry_ids(d).iter().map(|&e| ids[e as usize * stride].get()));
        }
        for w in 0..self.num_words() as u32 {
            let range = self.col_entry_range(w);
            let block = &ids[range.start * stride..range.end * stride];
            sum.word(block.iter().step_by(stride).map(|t| t.get()));
        }
    }
}

impl<P: MemoryProbe> Sampler for WarpLda<P> {
    fn name(&self) -> &'static str {
        "WarpLDA"
    }

    fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The reference mode: every column, then every row, on this thread.
    fn run_iteration(&mut self) {
        let t0 = std::time::Instant::now();
        let mut partial = std::mem::take(&mut self.partial_ck);
        // Algorithm 2: word phase first, then document phase.
        self.run_phase(PhaseKind::Word, 0..self.num_words() as u32, &mut partial);
        self.install_topic_counts(&partial);
        self.run_phase(PhaseKind::Doc, 0..self.num_docs() as u32, &mut partial);
        self.install_topic_counts(&partial);
        self.partial_ck = partial;
        self.advance_iteration();
        self.last_phase_secs = t0.elapsed().as_secs_f64();
    }

    fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Gathers the primaries through the row pointers, which are in
    /// doc-major token order.
    fn assignments(&self) -> Vec<u32> {
        let stride = self.stride();
        with_topic_type!(self.records.width(), T => {
            let ids = self.records.ids::<T>();
            self.matrix.row_ptr().iter().map(|&e| ids[e as usize * stride].get()).collect()
        })
    }

    /// The records are stored word-major already: one forward pass copies
    /// each record's assignment, and the offsets are the matrix's own.
    fn word_major_assignments(&self, _: &Corpus) -> (Cow<'_, [u32]>, Vec<u32>) {
        let stride = self.stride();
        let z = with_topic_type!(self.records.width(), T => {
            self.records.ids::<T>().iter().step_by(stride).map(|t| t.get()).collect()
        });
        (Cow::Borrowed(self.matrix.col_offsets()), z)
    }

    fn last_iteration_phase_seconds(&self) -> Option<f64> {
        Some(self.last_phase_secs)
    }

    /// The sampler's own on-the-fly counting: one reusable count vector over
    /// the rows and columns of the records, no copy of the assignments and no
    /// count tables. Bit-identical to evaluating a snapshot.
    fn log_likelihood(&self, _: &Corpus, _: &DocMajorView, _: &WordMajorView) -> f64 {
        let mut sum = LikelihoodSum::new(&self.params, self.num_words());
        with_topic_type!(self.records.width(), T => self.stream_likelihood::<T>(&mut sum));
        sum.finish()
    }
}

impl<P: MemoryProbe> Checkpointable for WarpLda<P> {
    fn checkpoint_kind(&self) -> &'static str {
        "warplda"
    }

    /// The chain is a pure function of `(seed, iteration, records, c_k)`, so
    /// that is the whole payload: any driver resumes what any driver wrote,
    /// and a cluster's coordinator sends these same bytes to a worker that
    /// must rejoin an iteration boundary. The records are written as they are
    /// stored — `width:u8, n:u64, n × width` bytes, the layout they also
    /// cross the wire in.
    fn write_state(&self, enc: &mut Encoder<'_>) -> CodecResult<()> {
        enc.write_u64(self.seed)?;
        enc.write_u64(self.iterations)?;
        enc.write_usize(self.config.mh_steps)?;
        enc.write_bool(self.config.use_hash_counts)?;
        enc.write_u8(self.records.width() as u8)?;
        enc.write_usize(self.num_entries() * self.stride())?;
        enc.write_bytes(self.records.as_bytes())?;
        enc.write_u32_slice(&self.topic_counts)
    }

    /// Adopts a state where it lies in `dec`'s input: every check runs
    /// against the borrowed bytes — `M` and the hash flag, the record shape,
    /// every id `< K`, `c_k` equal to the assignment histogram — and only then
    /// are the records copied, once. A rejected state leaves the sampler as it
    /// was.
    fn read_state(&mut self, dec: &mut Decoder<'_>) -> CodecResult<()> {
        let seed = dec.read_u64()?;
        let iterations = dec.read_u64()?;
        let mh_steps = dec.read_usize()?;
        let use_hash = dec.read_bool()?;
        if mh_steps != self.config.mh_steps || use_hash != self.config.use_hash_counts {
            return Err(CodecError::Corrupt(format!(
                "checkpoint config (M = {mh_steps}, hash counts = {use_hash}) does not match \
                 the sampler (M = {}, hash counts = {})",
                self.config.mh_steps, self.config.use_hash_counts,
            )));
        }
        // Phase streams are keyed on `2 · iteration + phase`; no run gets
        // near a counter that this would overflow on.
        if iterations >= 1 << 62 {
            return Err(CodecError::Corrupt(format!(
                "iteration counter {iterations} out of range"
            )));
        }
        let width = dec.read_u8()? as usize;
        let ids = dec.read_count(width)?;
        let records = dec.bytes(ids * width)?;
        self.check_records_packed(self.num_entries(), width, records)?;
        let k = self.ctx.k;
        let counts = dec.read_count(4)?;
        if counts != k {
            return Err(CodecError::Corrupt(format!("c_k has {counts} slots for K = {k}")));
        }
        let counts = dec.bytes(4 * k)?.as_chunks::<4>().0;
        // The delayed-update invariant between iterations: c_k is exactly the
        // topic histogram of the assignments.
        let mut hist = vec![0u32; k];
        with_topic_type!(width, T => {
            for rec in records.chunks_exact(self.records.record_bytes()) {
                hist[T::read(rec) as usize] += 1;
            }
        });
        if !counts.iter().map(|c| u32::from_le_bytes(*c)).eq(hist.iter().copied()) {
            return Err(CodecError::Corrupt(
                "topic counts do not match the assignment histogram".to_string(),
            ));
        }
        self.records.as_bytes_mut().copy_from_slice(records);
        self.topic_counts = hist;
        self.iterations = iterations;
        // The state's seed, not the constructor's, governs continuation.
        self.seed = seed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgs::CollapsedGibbs;
    use crate::eval::log_joint_likelihood;
    use warplda_cachesim::{CacheProbe, HierarchyConfig};
    use warplda_corpus::{CorpusBuilder, DatasetPreset, WordMajorView};

    fn themed_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..30 {
            b.push_text_doc(["river", "lake", "water", "fish", "river", "boat"]);
            b.push_text_doc(["desert", "sand", "dune", "cactus", "desert", "heat"]);
        }
        b.build().unwrap()
    }

    /// The global topic histogram straight from the packed records (K ≤ 256:
    /// one byte per id).
    fn topic_histogram(s: &WarpLda) -> Vec<u32> {
        let mut hist = vec![0u32; s.params.num_topics];
        for &t in s.records_bytes().iter().step_by(s.stride()) {
            hist[t as usize] += 1;
        }
        hist
    }

    fn ll_of<S: Sampler>(s: &S, corpus: &Corpus) -> f64 {
        let dv = DocMajorView::build(corpus);
        let wv = WordMajorView::build(corpus, &dv);
        log_joint_likelihood(corpus, &dv, &wv, s.params(), &s.assignments())
    }

    #[test]
    fn topic_counts_stay_consistent_with_assignments() {
        let corpus = themed_corpus();
        let params = ModelParams::new(5, 0.3, 0.05);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 3);
        for _ in 0..4 {
            s.run_iteration();
            let hist = topic_histogram(&s);
            assert_eq!(s.topic_counts(), &hist[..], "ck must equal the topic histogram");
            let total: u32 = hist.iter().sum();
            assert_eq!(total as u64, corpus.num_tokens());
        }
    }

    #[test]
    fn assignments_cover_every_token_and_valid_topics() {
        let corpus = themed_corpus();
        let params = ModelParams::new(7, 0.3, 0.05);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 5);
        s.run_iteration();
        let z = s.assignments();
        assert_eq!(z.len() as u64, corpus.num_tokens());
        assert!(z.iter().all(|&t| t < 7));
    }

    #[test]
    fn likelihood_improves_and_approaches_cgs() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut warp = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(4), 7);
        let mut cgs = CollapsedGibbs::new(&corpus, params, 7);
        let ll0 = ll_of(&warp, &corpus);
        for _ in 0..50 {
            warp.run_iteration();
            cgs.run_iteration();
        }
        let ll_w = ll_of(&warp, &corpus);
        let ll_c = ll_of(&cgs, &corpus);
        assert!(ll_w > ll0, "likelihood should improve: {ll0} -> {ll_w}");
        assert!(
            (ll_w - ll_c).abs() < 0.06 * ll_c.abs(),
            "WarpLDA {ll_w} should approach CGS {ll_c} (Section 6.3 claim)"
        );
    }

    #[test]
    fn separates_planted_topics() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(4), 11);
        for _ in 0..60 {
            s.run_iteration();
        }
        let z = s.assignments();
        let dv = DocMajorView::build(&corpus);
        // Majority topic of the "river" documents vs the "desert" documents.
        let mut votes = [[0u32; 2]; 2];
        for d in 0..corpus.num_docs() {
            let theme = d % 2;
            for i in dv.doc_range(d as u32) {
                votes[theme][z[i] as usize] += 1;
            }
        }
        let river_topic = if votes[0][0] > votes[0][1] { 0 } else { 1 };
        let desert_topic = if votes[1][0] > votes[1][1] { 0 } else { 1 };
        assert_ne!(river_topic, desert_topic, "themes should map to different topics: {votes:?}");
        // Majorities should be strong.
        assert!(votes[0][river_topic] * 10 > (votes[0][0] + votes[0][1]) * 7);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let corpus = DatasetPreset::Tiny.generate_scaled(10);
        let params = ModelParams::new(5, 0.5, 0.1);
        let mut a = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 42);
        let mut b = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 42);
        for _ in 0..2 {
            a.run_iteration();
            b.run_iteration();
        }
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn hash_count_flag_gives_one_chain_serial_and_parallel() {
        // Every row has 2L < K, the rows Section 5.4 would serve from hash
        // tables: the flag must still select nothing, on any driver.
        let corpus = DatasetPreset::Tiny.generate();
        let params = ModelParams::new(4096, 0.5, 0.1);
        assert!(corpus.docs().iter().all(|d| 2 * d.tokens().len() < params.num_topics));
        fn three_iterations<S: Sampler>(mut s: S, ck: fn(&S) -> &[u32]) -> (Vec<u32>, Vec<u32>) {
            (0..3).for_each(|_| s.run_iteration());
            (s.assignments(), ck(&s).to_vec())
        }
        let chain = |use_hash_counts, threads| {
            let config = WarpLdaConfig { mh_steps: 2, use_hash_counts };
            if threads == 1 {
                three_iterations(WarpLda::new(&corpus, params, config, 29), WarpLda::topic_counts)
            } else {
                let s = parallel::ParallelWarpLda::new(&corpus, params, config, 29, threads);
                three_iterations(s, parallel::ParallelWarpLda::topic_counts)
            }
        };
        for threads in [1, 2] {
            assert_eq!(chain(true, threads), chain(false, threads), "{threads} thread(s)");
        }
    }

    #[test]
    fn an_mh_step_accepts_with_probability_min_one_num_over_den_in_both_kernels() {
        // A two-topic toy state with fixed counts: 60 documents of one word
        // five times, M = 1, assignments [0 0 0 1 1] in every document, so
        // c_d = (3, 2) and c_w = (180, 120), and an installed c_k that is
        // deliberately not their histogram. Each trial writes that state
        // with chosen proposals, visits, and counts who moved; the next
        // iteration's streams make the trials independent.
        const Z: [u8; 5] = [0, 0, 0, 1, 1];
        let docs = 60;
        let mut b = CorpusBuilder::new();
        for _ in 0..docs {
            b.push_text_doc(["w"; 5]);
        }
        let corpus = b.build().unwrap();
        let params = ModelParams::new(2, 0.7, 0.4);
        let (alpha, beta, beta_bar) = (params.alpha, params.beta, params.beta_bar(1));
        let ck = [150u32, 420];
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(1), 3);
        let entries: Vec<u32> = (0..s.num_entries() as u32).collect();
        let doc_ids: Vec<u32> = (0..docs as u32).collect();
        let mut partial = [0u32; 2];
        // Writes the state with the proposal `propose(j)` for token j of
        // every document, runs `visit`, and returns how many tokens that
        // proposed moved per starting topic: `[(moved, proposed); 2]`.
        let mut trial = |s: &mut WarpLda,
                         propose: &dyn Fn(usize) -> u8,
                         visit: &dyn Fn(&mut WarpLda, &mut [u32])| {
            let mut bytes = vec![0u8; 2 * entries.len()];
            for d in 0..docs as u32 {
                for (j, &e) in s.row_entry_ids(d).iter().enumerate() {
                    bytes[2 * e as usize..][..2].copy_from_slice(&[Z[j], propose(j)]);
                }
            }
            s.import_records_packed(&entries, 1, &bytes).unwrap();
            s.install_topic_counts(&ck);
            visit(s, &mut partial);
            s.advance_iteration();
            let mut tally = [(0u32, 0u32); 2];
            for d in 0..docs as u32 {
                for (j, &e) in s.row_entry_ids(d).iter().enumerate() {
                    if propose(j) != Z[j] {
                        let moved = s.records_bytes()[2 * e as usize] != Z[j];
                        tally[Z[j] as usize].0 += u32::from(moved);
                        tally[Z[j] as usize].1 += 1;
                    }
                }
            }
            tally
        };
        let check = |kernel: &str, from: usize, (moved, n): (u32, u32), num: f64, den: f64| {
            let p = (num / den).min(1.0);
            let rate = moved as f64 / n as f64;
            let se = (p * (1.0 - p) / n as f64).sqrt();
            assert!((rate - p).abs() <= 4.0 * se, "{kernel}, {from} → {}: {rate} vs {p}", 1 - from);
        };
        let (cw, cd) = ([180.0, 120.0], [3.0, 2.0]);
        let ck = ck.map(f64::from);

        // Word kernel: every token proposes the other topic, and c_w stays
        // fixed while the column's chains run.
        let mut sum = [(0, 0); 2];
        for _ in 0..100 {
            let tally = trial(&mut s, &|j| 1 - Z[j], &|s, p| s.run_word_phase_shard(&[0], p));
            for (acc, (m, n)) in sum.iter_mut().zip(tally) {
                *acc = (acc.0 + m, acc.1 + n);
            }
        }
        for (from, to) in [(0, 1), (1, 0)] {
            let num = (cw[to] + beta) * (ck[from] + beta_bar);
            let den = (cw[from] + beta) * (ck[to] + beta_bar);
            check("word", from, sum[from], num, den);
        }

        // Doc kernel: an accepted move updates c_d for the tokens after it,
        // so one token per document proposes — token 0 (topic 0) or token 3
        // (topic 1) in alternate trials — and the rest propose their own.
        let mut sum = [(0, 0); 2];
        for i in 0..200 {
            let mover = if i % 2 == 0 { 0 } else { 3 };
            let tally = trial(&mut s, &|j| if j == mover { 1 - Z[j] } else { Z[j] }, &|s, p| {
                s.run_doc_phase_shard(&doc_ids, p)
            });
            let from = Z[mover] as usize;
            sum[from] = (sum[from].0 + tally[from].0, sum[from].1 + tally[from].1);
        }
        for (from, to) in [(0, 1), (1, 0)] {
            let num = (cd[to] + alpha) * (ck[from] + beta_bar);
            let den = (cd[from] + alpha) * (ck[to] + beta_bar);
            check("doc", from, sum[from], num, den);
        }
    }

    #[test]
    fn more_mh_steps_never_hurts_much() {
        // Figure 8: larger M converges at least as fast per iteration.
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut m1 = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(1), 17);
        let mut m8 = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(8), 17);
        for _ in 0..15 {
            m1.run_iteration();
            m8.run_iteration();
        }
        let ll1 = ll_of(&m1, &corpus);
        let ll8 = ll_of(&m8, &corpus);
        assert!(ll8 > ll1 - 0.02 * ll1.abs(), "M=8 ({ll8}) should not lag far behind M=1 ({ll1})");
    }

    #[test]
    fn cache_probe_shows_small_working_set() {
        // WarpLDA's random accesses go to O(K) vectors. With K chosen so that
        // the vectors overflow the tiny test hierarchy's L1/L2 but fit its
        // 16 KiB L3, the accesses must be absorbed by the L3 (contrast with
        // the LightLDA/F+LDA matrices, exercised in the table4 benchmark).
        let corpus = themed_corpus();
        let params = ModelParams::new(1024, 0.5, 0.1);
        let probe = CacheProbe::new(HierarchyConfig::tiny_for_tests());
        let mut s =
            WarpLda::with_probe(&corpus, params, WarpLdaConfig::with_mh_steps(2), 19, probe);
        for _ in 0..3 {
            s.run_iteration();
        }
        let stats = s.probe().stats();
        assert!(stats.accesses > 0);
        assert!(stats.l3_miss_rate() < 0.3, "WarpLDA working set should fit the cache: {stats:?}");

        // The probe sees the same visits through the phase API, here over a
        // strict subset of the entities (every other word, every third doc).
        let words: Vec<u32> = (0..s.num_words() as u32).step_by(2).collect();
        let docs: Vec<u32> = (0..s.num_docs() as u32).step_by(3).collect();
        let mut partial = vec![0u32; 1024];
        s.run_word_phase_shard(&words, &mut partial);
        let after_words = s.probe().stats().accesses;
        assert!(after_words > stats.accesses, "the word shard must be probed");
        s.run_doc_phase_shard(&docs, &mut partial);
        let shard_stats = s.probe().stats();
        assert!(shard_stats.accesses > after_words, "the doc shard must be probed");
        assert!(shard_stats.l3_miss_rate() < 0.3, "{shard_stats:?}");
        let visited: usize = docs.iter().map(|&d| s.row_entry_ids(d).len()).sum();
        assert_eq!(partial.iter().sum::<u32>() as usize, visited, "only the subset was visited");
    }

    #[test]
    fn records_are_packed_with_assignment_then_proposals() {
        // The layout contract the checkpoint codec and the parallel driver
        // rely on: stride M + 1, primary word first, one block per column.
        let corpus = themed_corpus();
        let params = ModelParams::new(6, 0.5, 0.1);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(3), 23);
        s.run_iteration();
        assert_eq!((s.records.stride(), s.records.width()), (4, 1));
        // One byte per id, so the bytes are the ids.
        let ids = s.records_bytes();
        assert_eq!(ids.len() as u64, 4 * corpus.num_tokens());
        assert!(ids.iter().all(|&t| t < 6), "every id is a topic");
        // The primaries are exactly the assignments, reached through the row
        // pointers in doc-major token order.
        let z = s.assignments();
        let mut token = 0;
        for d in 0..s.num_docs() as u32 {
            for &e in s.row_entry_ids(d) {
                assert_eq!(z[token], ids[e as usize * 4] as u32);
                token += 1;
            }
        }
        assert_eq!(token, z.len());
    }

    #[test]
    fn malformed_deltas_and_resume_states_are_typed_errors_that_change_nothing() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let params = ModelParams::new(6, 0.5, 0.1);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
        let stride = s.stride();
        let before = s.records_bytes().to_vec();
        // Wrong length, wrong width, topic out of range.
        for (entries, width, bytes) in [
            (&[0u32, 1][..], 1, vec![0u8; stride]),
            (&[0][..], 2, vec![0u8; 2 * stride]),
            (&[0][..], 1, vec![params.num_topics as u8; stride]),
        ] {
            let err = s.import_records_packed(entries, width, &bytes).unwrap_err();
            assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        }
        assert_eq!(s.records_bytes(), &before[..], "rejected input must not be applied");

        // A state as `write_state` lays it out, around the given sections.
        let state = |m: usize, width: u8, records: &[u8], ck: &[u32]| {
            let mut out = Vec::new();
            let mut enc = Encoder::new(&mut out);
            enc.write_u64(77).unwrap();
            enc.write_u64(9).unwrap();
            enc.write_usize(m).unwrap();
            enc.write_bool(true).unwrap();
            enc.write_u8(width).unwrap();
            enc.write_usize(records.len() / width.max(1) as usize).unwrap();
            enc.write_bytes(records).unwrap();
            enc.write_u32_slice(ck).unwrap();
            out
        };
        // A c_k that is not the assignment histogram, a short record buffer,
        // a c_k of the wrong length, another M, a width K does not travel at,
        // an id >= K, and every truncation of a valid state.
        let good_ck = s.topic_counts().to_vec();
        let mut bad_ck = good_ck.clone();
        bad_ck[0] = bad_ck[0].wrapping_add(1);
        let mut bad_id = before.clone();
        bad_id[stride] = params.num_topics as u8;
        let good = state(2, 1, &before, &good_ck);
        let mut rejected = vec![
            state(2, 1, &before, &bad_ck),
            state(2, 1, &before[..before.len() - 1], &good_ck),
            state(2, 1, &before, &good_ck[..good_ck.len() - 1]),
            state(3, 1, &before, &good_ck),
            state(2, 2, &before, &good_ck),
            state(2, 0, &before, &good_ck),
            state(2, 1, &bad_id, &good_ck),
        ];
        rejected.extend((0..good.len()).step_by(7).map(|cut| good[..cut].to_vec()));
        for bytes in &rejected {
            let err = s.read_state(&mut Decoder::new(bytes)).unwrap_err();
            assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        }
        assert_eq!(s.records_bytes(), &before[..], "rejected input must not be applied");
        assert_eq!((s.iterations(), s.seed()), (0, 5));
        let mut dec = Decoder::new(&good);
        s.read_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!((s.iterations(), s.seed()), (9, 77), "the state's seed governs");
    }

    #[test]
    fn a_whole_column_exports_as_its_byte_range_at_every_width() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for k in [6usize, 300, 70_000] {
            let width = topic_wire_width(k);
            let params = ModelParams::new(k, 0.5, 0.1);
            let mut source = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
            source.run_iteration();
            assert_eq!(source.record_width(), width);
            let rb = source.stride() * width;
            // The longest column: its export is the buffer's byte range.
            let w = (0..source.num_words() as u32)
                .max_by_key(|&w| source.col_entry_range(w).len())
                .unwrap();
            let range = source.col_entry_range(w);
            let column: Vec<u32> = range.clone().map(|e| e as u32).collect();
            let mut wire = vec![0xAA];
            source.export_records_packed(&column, &mut wire);
            assert_eq!(wire[0], 0xAA, "export appends");
            assert_eq!(&wire[1..], &source.records_bytes()[range.start * rb..range.end * rb]);

            // A scattered row round-trips into a fresh replica, and only it.
            let d = (0..source.num_docs() as u32)
                .max_by_key(|&d| source.row_entry_ids(d).len())
                .unwrap();
            let row = source.row_entry_ids(d).to_vec();
            let mut sink = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
            let untouched = sink.records_bytes().to_vec();
            wire.clear();
            source.export_records_packed(&row, &mut wire);
            sink.import_records_packed(&row, width, &wire).unwrap();
            for e in 0..sink.num_entries() {
                let at = e * rb..(e + 1) * rb;
                let from =
                    if row.contains(&(e as u32)) { source.records_bytes() } else { &untouched };
                assert_eq!(&sink.records_bytes()[at.clone()], &from[at], "entry {e}, K = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one MH proposal")]
    fn zero_mh_steps_rejected() {
        let _ = WarpLdaConfig::with_mh_steps(0);
    }
}
