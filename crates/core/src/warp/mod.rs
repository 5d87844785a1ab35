//! WarpLDA (Section 4 of the paper): an O(1)-per-token MCEM sampler whose
//! randomly accessed memory per document/word is a single O(K) vector.
//!
//! The sampler is built directly on the [`warplda_sparse::TokenMatrix`]
//! framework of Section 5, used structure-only (offsets and row pointers);
//! the per-token state lives in a [`PackedRecords`] buffer: one interleaved
//! record per entry holding the current topic assignment followed by the `M`
//! pending MH proposals. Assignment and proposals are always read and written
//! together, so packing them makes each token touch a single sequential
//! stream instead of two parallel ones. Neither `Cd` nor `Cw` is ever
//! materialized — each row/column count vector is recomputed on the fly while
//! its document/word is being visited and discarded afterwards (Section 4.4,
//! M-step).
//!
//! One iteration is two passes (Algorithm 2):
//!
//! 1. **Word phase** (`VisitByColumn`): for each word, compute `c_w`, run the
//!    MH chains that consume the *document* proposals drawn in the previous
//!    doc phase (their acceptance rate only needs `c_w` and `c_k`), then draw
//!    fresh *word* proposals `q_word(k) ∝ C_wk + β` from an alias table over
//!    the updated `c_w`.
//! 2. **Document phase** (`VisitByRow`): for each document, compute `c_d`, run
//!    the MH chains that consume the word proposals (acceptance needs only
//!    `c_d` and `c_k`), then draw fresh document proposals
//!    `q_doc(k) ∝ C_dk + α` by random positioning.
//!
//! The global vector `c_k` is read-only within a phase; the counts of the
//! visited entities accumulate into a *partial* `c_k` that is installed at
//! the phase boundary (delayed update), which is what makes the reordering
//! legal — and what makes the algorithm parallelize: nothing but `c_k` is
//! shared between entities.
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
//!   [`WarpLda::export_records`] / [`WarpLda::import_records`] (or their
//!   `_packed` forms, [`topic_wire_width`] bytes per topic) and
//!   [`WarpLda::advance_iteration`] they are the phase API the multi-process
//!   runtime in `warplda-dist` drives replicas through.
//!
//! All of them produce bit-identical assignments and `c_k` from one seed,
//! and share one checkpoint kind.
//!
//! Steady-state iterations perform **no heap allocation**: the count vectors
//! come from a per-sampler [`CountPool`], the word-proposal alias table is
//! rebuilt in place ([`SparseAliasTable::rebuild`]), and all buffers are
//! pre-sized at construction for the largest row/column of the corpus. The
//! first iteration populates the pool's capacity classes; everything after it
//! runs allocation-free (pinned by the `zero_alloc` integration suite).

pub mod parallel;

use rand::rngs::SmallRng;
use rand::Rng;

use warplda_cachesim::{MemoryProbe, NoProbe, RegionId};
use warplda_corpus::{Corpus, DocMajorView};
use warplda_sampling::{new_rng, split_seed, AliasBuildScratch, Dice, SparseAliasTable};
use warplda_sparse::{PackedRecords, SendPtr, TokenMatrix};

use crate::checkpoint::Checkpointable;
use crate::counts::{CountPool, TopicCounts};
use crate::params::ModelParams;
use crate::sampler::Sampler;
use warplda_corpus::io::codec::{CodecError, CodecResult, Decoder, Encoder};

/// Tuning knobs of WarpLDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpLdaConfig {
    /// Number of MH proposals kept per token (`M` in the paper; Figures 5–8
    /// use 1–16, with 1, 2 or 4 recommended).
    pub mh_steps: usize,
    /// Use the open-addressing hash tables of Section 5.4 for the per-row /
    /// per-column count vectors when they are expected to be sparse; when
    /// `false` a dense reusable vector is always used (ablation knob).
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
    fn rebuild<C: TopicCounts>(&mut self, cw: &C) {
        self.pairs.clear();
        cw.for_each(|t, c| self.pairs.push((t, c as f64)));
        self.table.rebuild(&self.pairs, &mut self.build);
    }
}

/// Reusable working state of whoever performs visits: pooled count vectors
/// plus the word-proposal table, all pre-sized so steady-state iterations
/// allocate nothing. The sampler owns one; the parallel driver owns one per
/// worker.
pub(crate) struct PhaseScratch {
    /// Pooled `c_d` / `c_w` count vectors.
    counts: CountPool,
    proposals: WordProposals,
}

impl PhaseScratch {
    /// Scratch for `num_topics` topics where no row/column exceeds
    /// `max_len` entries (so at most `min{K, max_len}` distinct topics).
    pub(crate) fn new(num_topics: usize, max_len: usize) -> Self {
        let cap = num_topics.min(max_len).max(1);
        Self {
            counts: CountPool::new(num_topics),
            proposals: WordProposals {
                pairs: Vec::with_capacity(cap),
                table: SparseAliasTable::with_capacity(cap),
                build: AliasBuildScratch::with_capacity(cap),
            },
        }
    }
}

/// What every visit needs and no iteration changes: the hyper-parameters with
/// their sums precomputed, the count-representation switch and the probe
/// regions.
#[derive(Debug, Clone, Copy)]
struct VisitCtx {
    k: usize,
    m: usize,
    alpha: f64,
    alpha_bar: f64,
    beta: f64,
    beta_bar: f64,
    use_hash: bool,
    region_cd: RegionId,
    region_cw: RegionId,
    region_ck: RegionId,
}

/// The two passes of Algorithm 2. The discriminant is the phase's slot in an
/// iteration's seed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseKind {
    /// `VisitByColumn`: consumes doc proposals, produces word proposals.
    Word = 0,
    /// `VisitByRow`: consumes word proposals, produces doc proposals.
    Doc = 1,
}

/// A raw view over the packed records. Columns own contiguous blocks but
/// rows reach their entries through the row-pointer indirection, so the
/// entries of different rows interleave in memory and cannot be handed out
/// as disjoint slices.
#[derive(Clone, Copy)]
struct RecPtr {
    base: SendPtr<u32>,
    stride: usize,
}

impl RecPtr {
    /// Word `slot` of entry `e`'s record: slot 0 is the assignment, slot
    /// `1 + i` proposal `i`.
    ///
    /// # Safety
    /// `e` must be an entry id of the records this view was created from and
    /// `slot` at most `M`. Dereferencing the result additionally requires
    /// that no other thread accesses that record.
    #[inline]
    unsafe fn at(self, e: u32, slot: usize) -> *mut u32 {
        self.base.0.add(e as usize * self.stride + slot)
    }
}

/// One phase of one iteration as its visits see it: everything the entities
/// of the phase share (matrix structure, the installed `c_k`, the stream
/// root) plus the record view. `Copy`, so every worker of a driver holds one.
#[derive(Clone, Copy)]
pub(crate) struct Phase<'a> {
    kind: PhaseKind,
    ctx: VisitCtx,
    matrix: &'a TokenMatrix<()>,
    recs: RecPtr,
    ck: &'a [u32],
    /// Stream root of this `(seed, iteration, phase)`; per-entity streams
    /// hang off it, so results are independent of visiting order.
    seed: u64,
}

impl Phase<'_> {
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

    /// One column of the word phase. Picks the hash or dense representation
    /// of `c_w` per the paper's heuristic, then runs the monomorphized
    /// kernel. Performs no heap allocation once the scratch buffers have
    /// grown to the column's size.
    ///
    /// # Safety
    /// Same contract as [`visit`](Self::visit).
    unsafe fn visit_column<P: MemoryProbe>(
        &self,
        w: u32,
        partial_ck: &mut [u32],
        scratch: &mut PhaseScratch,
        probe: &mut P,
    ) {
        let range = self.matrix.col_entry_range(w);
        let len = range.len();
        if len == 0 {
            return;
        }
        let mut rng = new_rng(split_seed(self.seed, w as u64));
        // SAFETY: column w's records are the contiguous block of its entry
        // range, which lies inside the records `recs` views because those
        // are the records of `matrix`; the caller guarantees that nobody
        // else touches them during the visit. The whole visit is therefore a
        // single sequential stream over `len * (M + 1)` words.
        let block = std::slice::from_raw_parts_mut(
            self.recs.at(range.start as u32, 0),
            len * self.recs.stride,
        );
        probe.begin_scope();
        let PhaseScratch { counts, proposals } = scratch;
        if self.ctx.use_hash && counts.prefers_hash(len) {
            let cw = counts.hash_for(len);
            self.word_column_kernel(block, partial_ck, cw, proposals, &mut rng, probe);
        } else {
            self.word_column_kernel(block, partial_ck, counts.dense(), proposals, &mut rng, probe);
        }
        probe.end_scope();
    }

    fn word_column_kernel<C: TopicCounts, P: MemoryProbe>(
        &self,
        block: &mut [u32],
        next_ck: &mut [u32],
        cw: &mut C,
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
            let t = rec[0];
            cw.increment(t);
            probe.write(region_cw, t as usize);
        }

        // Simulate the q_doc chains with the proposals drawn last doc phase.
        for rec in block.chunks_exact_mut(stride) {
            let mut z = rec[0];
            for &t in &rec[1..] {
                if t != z {
                    probe.read(region_cw, t as usize);
                    probe.read(region_cw, z as usize);
                    probe.read(region_ck, t as usize);
                    probe.read(region_ck, z as usize);
                    let ratio = (cw.get(t) as f64 + beta) / (cw.get(z) as f64 + beta)
                        * (ck[z as usize] as f64 + beta_bar)
                        / (ck[t as usize] as f64 + beta_bar);
                    if ratio >= 1.0 || rng.gen::<f64>() < ratio {
                        z = t;
                    }
                }
            }
            rec[0] = z;
        }

        // Recompute c_w from the updated assignments (Algorithm 2 "Update Cwk"),
        // accumulate it into the next c_k, and rebuild the alias table of
        // q_word(k) ∝ C_wk + β in place.
        cw.clear();
        for rec in block.chunks_exact(stride) {
            let t = rec[0];
            cw.increment(t);
            probe.write(region_cw, t as usize);
            next_ck[t as usize] += 1;
        }
        proposals.rebuild(cw);
        // Mixture weights of q_word: counts part (mass L_w) vs smoothing part
        // (mass K·β).
        let count_mass = len as f64;
        let smooth_mass = k as f64 * beta;
        let p_count = count_mass / (count_mass + smooth_mass);

        for rec in block.chunks_exact_mut(stride) {
            for slot in &mut rec[1..] {
                *slot = if rng.gen::<f64>() < p_count {
                    proposals.table.sample(rng)
                } else {
                    rng.dice(k) as u32
                };
            }
        }
    }

    /// One row of the doc phase. Picks the hash or dense representation of
    /// `c_d` per the paper's heuristic, then runs the monomorphized kernel.
    /// Allocation-free.
    ///
    /// # Safety
    /// Same contract as [`visit`](Self::visit).
    unsafe fn visit_row<P: MemoryProbe>(
        &self,
        d: u32,
        partial_ck: &mut [u32],
        scratch: &mut PhaseScratch,
        probe: &mut P,
    ) {
        let entries = self.matrix.row_entry_ids(d);
        let len = entries.len();
        if len == 0 {
            return;
        }
        let mut rng = new_rng(split_seed(self.seed, d as u64));
        probe.begin_scope();
        let counts = &mut scratch.counts;
        if self.ctx.use_hash && counts.prefers_hash(len) {
            self.doc_row_kernel(entries, partial_ck, counts.hash_for(len), &mut rng, probe);
        } else {
            self.doc_row_kernel(entries, partial_ck, counts.dense(), &mut rng, probe);
        }
        probe.end_scope();
    }

    /// # Safety
    /// `entries` must be the entry ids of one row of `self.matrix`, and no
    /// other thread may touch those records for the duration of the call.
    unsafe fn doc_row_kernel<C: TopicCounts, P: MemoryProbe>(
        &self,
        entries: &[u32],
        next_ck: &mut [u32],
        cd: &mut C,
        rng: &mut SmallRng,
        probe: &mut P,
    ) {
        let VisitCtx { k, m, alpha, alpha_bar, beta_bar, region_cd, region_ck, .. } = self.ctx;
        let (recs, ck) = (self.recs, self.ck);
        let len = entries.len();

        // c_d on the fly.
        for &e in entries {
            let t = *recs.at(e, 0);
            cd.increment(t);
            probe.write(region_cd, t as usize);
        }

        // Simulate the q_word chains with the proposals drawn last word phase.
        for &e in entries {
            let old = *recs.at(e, 0);
            let mut cur = old;
            for i in 0..m {
                let t = *recs.at(e, 1 + i);
                if t != cur {
                    probe.read(region_cd, t as usize);
                    probe.read(region_cd, cur as usize);
                    probe.read(region_ck, t as usize);
                    probe.read(region_ck, cur as usize);
                    let ratio = (cd.get(t) as f64 + alpha) / (cd.get(cur) as f64 + alpha)
                        * (ck[cur as usize] as f64 + beta_bar)
                        / (ck[t as usize] as f64 + beta_bar);
                    if ratio >= 1.0 || rng.gen::<f64>() < ratio {
                        cur = t;
                    }
                }
            }
            if cur != old {
                // Keep c_d in sync so the upcoming random positioning reflects
                // the updated assignments of this document.
                cd.decrement(old);
                cd.increment(cur);
                *recs.at(e, 0) = cur;
            }
        }

        // Accumulate the updated c_d into the next c_k.
        cd.for_each(|t, c| next_ck[t as usize] += c);

        // Draw the doc proposals q_doc(k) ∝ C_dk + α by random positioning: with
        // probability L_d/(L_d + ᾱ) reuse the topic of a uniformly chosen token
        // of this document, otherwise a uniform topic.
        let p_count = len as f64 / (len as f64 + alpha_bar);
        for &e in entries {
            for i in 0..m {
                let t = if rng.gen::<f64>() < p_count {
                    *recs.at(entries[rng.dice(len)], 0)
                } else {
                    rng.dice(k) as u32
                };
                *recs.at(e, 1 + i) = t;
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

/// A topic id in transit: a host `u32`, or its low `W ≤ 4` little-endian
/// bytes. What lets every record width share one gather and one scatter loop.
trait WireTopic: Copy {
    fn pack(topic: u32) -> Self;
    fn unpack(self) -> u32;
}

impl WireTopic for u32 {
    #[inline]
    fn pack(topic: u32) -> Self {
        topic
    }

    #[inline]
    fn unpack(self) -> u32 {
        self
    }
}

impl<const W: usize> WireTopic for [u8; W] {
    #[inline]
    fn pack(topic: u32) -> Self {
        let bytes = topic.to_le_bytes();
        std::array::from_fn(|i| bytes[i])
    }

    #[inline]
    fn unpack(self) -> u32 {
        let mut bytes = [0u8; 4];
        bytes[..W].copy_from_slice(&self);
        u32::from_le_bytes(bytes)
    }
}

/// Evaluates `$body` with the const `$W` bound to the record width `$width`;
/// any width but 1, 2 or 4 is a typed corruption error.
macro_rules! for_width {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            1 => {
                const $W: usize = 1;
                $body
            }
            2 => {
                const $W: usize = 2;
                $body
            }
            4 => {
                const $W: usize = 4;
                $body
            }
            w => Err(CodecError::Corrupt(format!("record width {w} is not 1, 2 or 4 bytes"))),
        }
    };
}

/// The WarpLDA sampler state, generic over an optional memory probe.
pub struct WarpLda<P: MemoryProbe = NoProbe> {
    params: ModelParams,
    config: WarpLdaConfig,
    ctx: VisitCtx,
    /// D × V matrix, structure only (offsets + row pointers; no entry data).
    matrix: TokenMatrix<()>,
    /// Packed per-entry records `[z | M proposals]`, stride `M + 1`, indexed
    /// by entry id (CSC position).
    records: PackedRecords,
    /// Global topic counts as of the last installed phase boundary; read-only
    /// during a phase.
    topic_counts: Vec<u32>,
    /// Entry id of each doc-major token index (for exporting assignments).
    entry_of_token: Vec<u32>,
    /// Root of every RNG stream of the chain (and of the initial state).
    seed: u64,
    iterations: u64,
    /// Largest row or column of the corpus; sizes phase/worker scratch.
    max_visit_len: usize,
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

impl<P: MemoryProbe> WarpLda<P> {
    /// Creates a sampler whose count-vector accesses are reported to `probe`.
    /// The initial state is a pure function of the arguments: every process
    /// of a cluster that calls this with the same corpus, parameters,
    /// configuration and seed starts from bit-identical replicas.
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
        let doc_view = DocMajorView::build(corpus);
        let num_docs = corpus.num_docs();
        let vocab_size = corpus.vocab_size();
        let k = params.num_topics;
        let m = config.mh_steps;

        // Build the token matrix: one entry per token, in doc-major order so
        // the row slices keep the original token order.
        let mut entries = Vec::with_capacity(doc_view.num_tokens());
        for d in 0..num_docs {
            for i in doc_view.doc_range(d as u32) {
                entries.push((d as u32, doc_view.word_of(i)));
            }
        }
        let matrix: TokenMatrix<()> = TokenMatrix::from_entries(num_docs, vocab_size, &entries);
        let num_entries = matrix.num_entries();

        // Map each doc-major token index to its entry id.
        let mut entry_of_token = vec![0u32; num_entries];
        {
            let mut cursor = 0usize;
            for d in 0..num_docs {
                for &e in matrix.row_entry_ids(d as u32) {
                    entry_of_token[cursor] = e;
                    cursor += 1;
                }
            }
        }

        let max_col_len = (0..vocab_size).map(|w| matrix.col_len(w as u32)).max().unwrap_or(0);
        let max_row_len = (0..num_docs).map(|d| matrix.row_len(d as u32)).max().unwrap_or(0);
        let max_visit_len = max_col_len.max(max_row_len);

        // Random initial topics + proposals, packed per entry.
        let mut rng = new_rng(seed);
        let mut records = PackedRecords::new(num_entries, m + 1);
        let mut topic_counts = vec![0u32; k];
        for e in 0..num_entries {
            let t = rng.dice(k) as u32;
            records.set_primary(e, t);
            topic_counts[t as usize] += 1;
        }
        for e in 0..num_entries {
            for slot in &mut records.record_mut(e)[1..] {
                *slot = rng.dice(k) as u32;
            }
        }

        let ctx = VisitCtx {
            k,
            m,
            alpha: params.alpha,
            alpha_bar: params.alpha_bar(),
            beta: params.beta,
            beta_bar: params.beta_bar(vocab_size),
            use_hash: config.use_hash_counts,
            region_cd: probe.register_region("cd vector", k, 4),
            region_cw: probe.register_region("cw vector", k, 4),
            region_ck: probe.register_region("ck vector", k, 4),
        };

        Self {
            params,
            config,
            ctx,
            matrix,
            records,
            topic_counts,
            entry_of_token,
            seed,
            iterations: 0,
            max_visit_len,
            scratch: PhaseScratch::new(k, max_visit_len),
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

    /// Words per packed record (`M + 1`).
    pub fn stride(&self) -> usize {
        self.records.stride()
    }

    /// Entry ids of document `d`, in row order.
    pub fn row_entry_ids(&self, d: u32) -> &[u32] {
        self.matrix.row_entry_ids(d)
    }

    /// Word id of each entry of document `d`, aligned with
    /// [`row_entry_ids`](Self::row_entry_ids).
    pub fn row_entry_cols(&self, d: u32) -> &[u32] {
        self.matrix.row_entry_cols(d)
    }

    /// The contiguous entry-id range of word `w`'s column.
    pub fn col_entry_range(&self, w: u32) -> std::ops::Range<usize> {
        self.matrix.col_entry_range(w)
    }

    /// Document id of each entry of word `w`'s column, in entry order.
    pub fn col_entry_rows(&self, w: u32) -> &[u32] {
        self.matrix.col_entry_rows(w)
    }

    /// The full packed record buffer (for building resume payloads).
    pub fn records_slice(&self) -> &[u32] {
        self.records.as_slice()
    }

    /// Opens phase `kind` of the current iteration. The returned view holds
    /// the exclusive borrow of the sampler, which is what makes it the only
    /// route to the records while the phase runs.
    pub(crate) fn phase(&mut self, kind: PhaseKind) -> (Phase<'_>, &mut PhaseScratch, &mut P) {
        let recs =
            RecPtr { base: SendPtr(self.records.as_mut_ptr()), stride: self.records.stride() };
        let phase = Phase {
            kind,
            ctx: self.ctx,
            matrix: &self.matrix,
            recs,
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
        let (phase, scratch, probe) = self.phase(kind);
        for id in entities {
            // SAFETY: the sampler is exclusively borrowed and the loop is
            // serial, so no two visits ever overlap.
            unsafe { phase.visit(id, partial_ck, scratch, probe) };
        }
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

    /// Writes the packed records of `entries` (in that order) to `out`
    /// (cleared first): `entries.len() × stride` words.
    pub fn export_records(&self, entries: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.resize(entries.len() * self.stride(), 0);
        self.gather(entries, out);
    }

    /// Overwrites the packed records of `entries` (in that order) with
    /// `words`, the wire form produced by
    /// [`export_records`](Self::export_records) on the owning peer. Length
    /// and topic-range mismatches are typed corruption errors that leave the
    /// records untouched.
    pub fn import_records(&mut self, entries: &[u32], words: &[u32]) -> CodecResult<()> {
        self.check_wire(entries.len(), words)?;
        self.scatter(entries, words);
        Ok(())
    }

    /// [`export_records`](Self::export_records) at `width` bytes per topic
    /// (little-endian), appended to `out`: the form records travel in between
    /// processes.
    ///
    /// # Panics
    /// Panics if `width` is not 1, 2 or 4, or is narrower than
    /// [`topic_wire_width`] of this model's `K`.
    pub fn export_records_packed(&self, entries: &[u32], width: usize, out: &mut Vec<u8>) {
        assert!(width >= topic_wire_width(self.ctx.k), "width {width} cannot hold every topic");
        let at = out.len();
        out.resize(at + entries.len() * self.stride() * width, 0);
        let dst = &mut out[at..];
        for_width!(width, W => {
            self.gather(entries, dst.as_chunks_mut::<W>().0);
            Ok(())
        })
        .expect("export width is chosen by this program");
    }

    /// Validates `bytes` as the packed records of `entries` entries at
    /// `width` bytes per topic without applying them: the width is 1, 2 or 4,
    /// the length is exact and every topic is below `K`. This is the
    /// validation gate for record payloads arriving off the wire.
    pub fn check_records_packed(
        &self,
        entries: usize,
        width: usize,
        bytes: &[u8],
    ) -> CodecResult<()> {
        for_width!(width, W => {
            let (topics, tail) = bytes.as_chunks::<W>();
            if !tail.is_empty() {
                return Err(CodecError::Corrupt(format!(
                    "{} record bytes do not divide into {W}-byte topics",
                    bytes.len()
                )));
            }
            self.check_wire(entries, topics)
        })
    }

    /// [`import_records`](Self::import_records) from the packed form of
    /// [`export_records_packed`](Self::export_records_packed). Nothing is
    /// written unless [`check_records_packed`](Self::check_records_packed)
    /// accepts the payload.
    pub fn import_records_packed(
        &mut self,
        entries: &[u32],
        width: usize,
        bytes: &[u8],
    ) -> CodecResult<()> {
        self.check_records_packed(entries.len(), width, bytes)?;
        for_width!(width, W => {
            self.scatter(entries, bytes.as_chunks::<W>().0);
            Ok(())
        })
    }

    /// The one gather loop: the records of `entries`, in order, into `out`.
    fn gather<T: WireTopic>(&self, entries: &[u32], out: &mut [T]) {
        for (dst, &e) in out.chunks_exact_mut(self.stride()).zip(entries) {
            for (slot, &t) in dst.iter_mut().zip(self.records.record(e as usize)) {
                *slot = T::pack(t);
            }
        }
    }

    /// The one scatter loop: `src` over the records of `entries`, in order.
    /// The caller has validated `src` with [`check_wire`](Self::check_wire).
    fn scatter<T: WireTopic>(&mut self, entries: &[u32], src: &[T]) {
        for (rec, &e) in src.chunks_exact(self.stride()).zip(entries) {
            for (slot, t) in self.records.record_mut(e as usize).iter_mut().zip(rec) {
                *slot = t.unpack();
            }
        }
    }

    /// Length and topic-range check of the wire form of `entries` records.
    fn check_wire<T: WireTopic>(&self, entries: usize, src: &[T]) -> CodecResult<()> {
        let (stride, k) = (self.stride(), self.ctx.k);
        if src.len() != entries * stride {
            return Err(CodecError::Corrupt(format!(
                "record payload holds {} topics but {entries} entries × stride {stride} need {}",
                src.len(),
                entries * stride,
            )));
        }
        // A branch-free maximum, so the scan vectorizes.
        let max = src.iter().fold(0, |max, t| max.max(t.unpack()));
        if max as usize >= k {
            return Err(CodecError::Corrupt(format!("record topic {max} out of range (K = {k})")));
        }
        Ok(())
    }

    /// Replaces the full sampler state (iteration counter, packed records,
    /// `c_k`) — how a checkpoint is adopted and how a worker of the
    /// multi-process runtime rejoins an iteration boundary. Nothing is
    /// modified unless the state is structurally valid for this corpus and
    /// configuration.
    pub fn restore(
        &mut self,
        iterations: u64,
        records: &[u32],
        topic_counts: &[u32],
    ) -> CodecResult<()> {
        let stride = self.stride();
        let k = self.ctx.k;
        self.check_wire(self.num_entries(), records)?;
        // The delayed-update invariant between iterations: c_k is exactly the
        // topic histogram of the assignments.
        let mut hist = vec![0u32; k];
        for &t in records.iter().step_by(stride) {
            hist[t as usize] += 1;
        }
        if topic_counts != hist {
            return Err(CodecError::Corrupt(
                "topic counts do not match the assignment histogram".to_string(),
            ));
        }
        self.records.as_mut_slice().copy_from_slice(records);
        self.topic_counts = hist;
        self.iterations = iterations;
        Ok(())
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

    fn assignments(&self) -> Vec<u32> {
        self.entry_of_token.iter().map(|&e| self.records.primary(e as usize)).collect()
    }

    fn last_iteration_phase_seconds(&self) -> Option<f64> {
        Some(self.last_phase_secs)
    }
}

impl<P: MemoryProbe> Checkpointable for WarpLda<P> {
    fn checkpoint_kind(&self) -> &'static str {
        "warplda"
    }

    /// The chain is a pure function of `(seed, iteration, records, c_k)`, so
    /// that is the whole payload: any driver resumes what any driver wrote.
    fn write_state(&self, enc: &mut Encoder<'_>) -> CodecResult<()> {
        enc.write_u64(self.seed)?;
        enc.write_u64(self.iterations)?;
        enc.write_usize(self.config.mh_steps)?;
        enc.write_bool(self.config.use_hash_counts)?;
        enc.write_u32_slice(self.records.as_slice())?;
        enc.write_u32_slice(&self.topic_counts)
    }

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
        let records = dec.read_u32_vec()?;
        let topic_counts = dec.read_u32_vec()?;
        self.restore(iterations, &records, &topic_counts)?;
        // The checkpoint's seed, not the constructor's, governs continuation.
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

    /// The global topic histogram straight from the packed records.
    fn topic_histogram(s: &WarpLda) -> Vec<u32> {
        let mut hist = vec![0u32; s.params.num_topics];
        for t in s.records.primaries() {
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
    fn dense_and_hash_count_configurations_both_converge() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        for use_hash in [true, false] {
            let cfg = WarpLdaConfig { mh_steps: 2, use_hash_counts: use_hash };
            let mut s = WarpLda::new(&corpus, params, cfg, 13);
            let ll0 = ll_of(&s, &corpus);
            for _ in 0..30 {
                s.run_iteration();
            }
            assert!(ll_of(&s, &corpus) > ll0, "use_hash={use_hash} should still converge");
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
        assert_eq!(s.records.stride(), 4);
        assert_eq!(s.records.num_records() as u64, corpus.num_tokens());
        assert!(s.records.as_slice().iter().all(|&t| t < 6), "every word is a topic id");
        // The primaries are exactly the assignments, entry-indexed.
        let z = s.assignments();
        for (token, &e) in s.entry_of_token.iter().enumerate() {
            assert_eq!(z[token], s.records.primary(e as usize));
        }
    }

    #[test]
    fn malformed_deltas_and_resume_states_are_typed_errors_that_change_nothing() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let params = ModelParams::new(6, 0.5, 0.1);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
        let stride = s.stride();
        let before = s.records_slice().to_vec();
        // Wrong length.
        let err = s.import_records(&[0, 1], &vec![0u32; stride]).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // Topic out of range.
        let err = s.import_records(&[0], &vec![params.num_topics as u32; stride]).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // Restore with a c_k that is not the assignment histogram, with a
        // short record buffer, and with a c_k of the wrong width.
        let mut bad_ck = s.topic_counts().to_vec();
        bad_ck[0] = bad_ck[0].wrapping_add(1);
        let good_ck = s.topic_counts().to_vec();
        for (records, ck) in [
            (&before[..], &bad_ck[..]),
            (&before[..before.len() - 1], &good_ck[..]),
            (&before[..], &good_ck[..good_ck.len() - 1]),
        ] {
            let err = s.restore(9, records, ck).unwrap_err();
            assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        }
        assert_eq!(s.records_slice(), &before[..], "rejected input must not be applied");
        assert_eq!(s.iterations(), 0);
        s.restore(9, &before, &good_ck).unwrap();
        assert_eq!(s.iterations(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one MH proposal")]
    fn zero_mh_steps_rejected() {
        let _ = WarpLdaConfig::with_mh_steps(0);
    }
}
