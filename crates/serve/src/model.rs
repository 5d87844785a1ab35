//! The frozen, read-optimized serving model.
//!
//! Training state is write-optimized: counts live in per-row count vectors
//! that samplers mutate millions of times a second. A serving model is the
//! opposite — it is read by many threads, mutated never — so
//! [`TopicModel::from_assignments`] counts the topic assignments **once**,
//! word-major: the paper's token matrix is stored by column (Section 5.2), a
//! word's tokens are one contiguous slice of it, and a freeze is one forward
//! pass over those slices ([`TopicModel::freeze_sampler`] takes them from
//! [`Sampler::word_major_assignments`], which WarpLDA fills straight off its
//! records). The counts go into:
//!
//! * a CSR-style word→(topic, count) layout, sorted by topic within each
//!   word — the persisted form of the counts;
//! * a flat per-word open-addressing index over the same counts (the hash
//!   tables of the paper's Section 5.4, read-only), so a `C_wk` lookup is a
//!   mask and one or two probes. Word `w` gets the least power of two
//!   `≥ min{K, 2·nnz_w}` slots: a word with `2·nnz_w ≥ K` is a direct-mapped
//!   dense row, and every other word's table is at most half full;
//! * pre-built sparse alias bins over the non-zero counts, one bin per pair
//!   in the same CSR layout (a [`SparseAliasStore`]: word `w`'s table is
//!   bins `word_offsets[w]..word_offsets[w+1]`, with no per-word header or
//!   allocation), so the word-proposal `q_word(k) ∝ C_wk + β` of the
//!   paper's MH machinery samples in O(1) at query time with **zero rebuild
//!   cost** (training has to rebuild these tables every iteration; serving
//!   never does);
//! * the dense global topic vector `c_k` and the smoothing constants.
//!
//! Models persist as [`MODEL_MAGIC`] (`WLDAMODL`) framed sections of the
//! workspace codec — same container discipline as checkpoints (version,
//! length, checksum), different magic, so a checkpoint can never be misread
//! as a model. Alias bins and the `C_wk` index are derived data and are
//! rebuilt deterministically at load time rather than persisted. A freeze
//! or a load sizes every per-word structure once, from the offsets, on the
//! calling thread, so it allocates a fixed number of buffers whatever the
//! vocabulary size; the counting passes of a freeze and the assembly that a
//! freeze and a load share then drain a [`ChunkCursor`] over the words
//! ([`parallel_for`]): chunks of about equal mass, claimed on demand by one
//! thread per core of the host, each filling its chunk's slices of those
//! buffers. The model is the same bytes for any number of threads.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use warplda_corpus::io::codec::{
    read_framed_section, write_framed_section, CodecError, CodecResult, Decoder, Encoder,
    MODEL_MAGIC,
};
use warplda_corpus::{Corpus, Vocabulary};

use rand::rngs::SmallRng;

use warplda_core::checkpoint::{read_model_params, write_model_params};
use warplda_core::{ModelParams, Sampler};
use warplda_sampling::{AliasBin, AliasBuildScratch, Mixture, SparseAliasStore};
use warplda_sparse::{parallel_for, ChunkCursor};

/// Payload tag distinguishing model payloads from any future section kinds.
const MODEL_KIND: &str = "topic-model";

/// A free slot of the `C_wk` index.
const EMPTY_SLOT: u64 = u64::MAX;

/// Slots of a word's `C_wk` index with `nnz` non-zero topics: the least power
/// of two `≥ min{K, 2·nnz}` (one for a word with no counts).
fn index_slots(k: usize, nnz: usize) -> usize {
    k.min(2 * nnz).next_power_of_two()
}

/// Most threads a freeze or a load runs on. Each holds O(K) of counting
/// scratch, and past a handful of cores the passes wait on memory rather
/// than on arithmetic.
const MAX_WORKERS: usize = 8;

/// Threads a freeze or a load runs on: the host's cores, up to
/// [`MAX_WORKERS`] — never a function of V or nnz, so the buffers a freeze
/// allocates do not depend on the vocabulary. Asked once per process: the
/// question reads the process's CPU quota from files.
fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS))
    })
}

/// One thread's counting scratch in a freeze: the K-vector a word is
/// counted into, the touched list and bitmap that order a word's topics,
/// and the thread's per-topic sums.
struct Counter {
    counts: Vec<u32>,
    touched: Vec<u32>,
    bitmap: Vec<u64>,
    topic_counts: Vec<u32>,
}

impl Counter {
    fn new(k: usize) -> Self {
        Self {
            counts: vec![0; k],
            touched: vec![0; k + 1],
            bitmap: vec![0; k.div_ceil(64)],
            topic_counts: vec![0; k],
        }
    }

    /// Counts one word's topics into the K-vector, listing each topic the
    /// first time it appears (branch-free: the slot past the list is always
    /// written, and kept only for a new topic); returns how many it listed.
    fn count(&mut self, topics: &[u32]) -> usize {
        let mut n = 0;
        for &t in topics {
            let c = &mut self.counts[t as usize];
            self.touched[n] = t;
            n += usize::from(*c == 0);
            *c += 1;
        }
        n
    }

    /// Writes the `n` listed topics and their counts to `topics` and
    /// `counts` in ascending topic order — a short list sorted, a long one
    /// read off a bitmap of the K topics — and clears them from the
    /// K-vector.
    fn drain(&mut self, n: usize, topics: &mut [u32], counts: &mut [u32]) {
        let Self { counts: kvec, touched, bitmap, .. } = self;
        let short = 64 * n < kvec.len();
        let mut at = 0;
        let mut take = |t: u32| {
            (topics[at], counts[at]) = (t, std::mem::take(&mut kvec[t as usize]));
            at += 1;
        };
        if short {
            touched[..n].sort_unstable();
            touched[..n].iter().for_each(|&t| take(t));
        } else {
            for &t in &touched[..n] {
                bitmap[t as usize / 64] |= 1 << (t % 64);
            }
            for (base, bits) in (0u32..).step_by(64).zip(bitmap.iter_mut()) {
                while *bits != 0 {
                    take(base + bits.trailing_zeros());
                    *bits &= *bits - 1;
                }
            }
        }
    }
}

/// A model's persisted columns: the global topic counts `c_k` and the CSR
/// word→(topic, count) pairs, sorted by topic within each word.
struct PairColumns {
    topic_counts: Vec<u32>,
    word_offsets: Vec<u32>,
    pair_topics: Vec<u32>,
    pair_counts: Vec<u32>,
}

impl PairColumns {
    /// Counts word-major assignments (word `w`'s topics are
    /// `z[col_offsets[w]..col_offsets[w + 1]]`) in one pass over `z`, whose
    /// memory then holds each word's pairs until the pair columns are sized:
    /// a word of `len` tokens and `nnz` topics writes its topics and then
    /// its counts over its own tokens when `2·nnz ≤ len`; any other word is
    /// counted again from its tokens, of which it has fewer than
    /// `2·nnz ≤ 2K`, when its pairs are moved into the columns. Both stages
    /// drain chunks of words of about equal token mass on `workers` threads.
    ///
    /// # Panics
    /// Panics if `col_offsets` is not non-decreasing offsets from 0 to
    /// `z.len()`, or if a topic in `z` is not below `k`.
    fn count(k: usize, col_offsets: &[u32], mut z: Vec<u32>, workers: usize) -> Self {
        let num_words = col_offsets.len().checked_sub(1).expect("column offsets start at 0");
        assert_eq!(col_offsets[0], 0, "column offsets start at 0");
        assert_eq!(col_offsets[num_words] as usize, z.len(), "one topic per token required");
        assert!(col_offsets.is_sorted(), "column offsets must not decrease");
        let cursor = ChunkCursor::by_mass(col_offsets, workers);
        let mut counters: Vec<Counter> = (0..workers).map(|_| Counter::new(k)).collect();

        // Count each word once, keeping its pairs where they fit and its
        // number of topics, which the prefix sum turns into offsets.
        let mut word_offsets = vec![0u32; col_offsets.len()];
        let jobs = cursor
            .split_mut(&mut z, |w| col_offsets[w] as usize)
            .zip(cursor.split_mut(&mut word_offsets[1..], |w| w));
        parallel_for(&cursor, jobs, &mut counters, |counter, words, (tokens, distinct)| {
            let offsets = &col_offsets[words.start..=words.end];
            for (r, out) in offsets.windows(2).zip(distinct) {
                let word = &mut tokens[(r[0] - offsets[0]) as usize..(r[1] - offsets[0]) as usize];
                let n = counter.count(word);
                *out = n as u32;
                let Counter { counts, touched, topic_counts, .. } = counter;
                for &t in &touched[..n] {
                    topic_counts[t as usize] += counts[t as usize];
                }
                if 2 * n <= word.len() {
                    let (topics, counts) = word.split_at_mut(n);
                    counter.drain(n, topics, &mut counts[..n]);
                } else {
                    touched[..n].iter().for_each(|&t| counts[t as usize] = 0);
                }
            }
        });
        for w in 1..word_offsets.len() {
            word_offsets[w] += word_offsets[w - 1];
        }

        // Move each word's pairs into the sized columns.
        let nnz = word_offsets[num_words] as usize;
        let (mut pair_topics, mut pair_counts) = (vec![0u32; nnz], vec![0u32; nnz]);
        let pairs_at = |w: usize| word_offsets[w] as usize;
        let jobs = cursor
            .split_mut(&mut pair_topics, pairs_at)
            .zip(cursor.split_mut(&mut pair_counts, pairs_at));
        parallel_for(&cursor, jobs, &mut counters, |counter, words, (topics, counts)| {
            let base = word_offsets[words.start];
            for w in words {
                let pairs =
                    (word_offsets[w] - base) as usize..(word_offsets[w + 1] - base) as usize;
                let (topics, counts) = (&mut topics[pairs.clone()], &mut counts[pairs]);
                let word = &z[col_offsets[w] as usize..col_offsets[w + 1] as usize];
                let n = topics.len();
                if 2 * n <= word.len() {
                    topics.copy_from_slice(&word[..n]);
                    counts.copy_from_slice(&word[n..2 * n]);
                } else {
                    counter.count(word);
                    counter.drain(n, topics, counts);
                }
            }
        });
        let mut topic_counts = vec![0u32; k];
        for counter in &counters {
            for (sum, &c) in topic_counts.iter_mut().zip(&counter.topic_counts) {
                *sum += c;
            }
        }
        Self { topic_counts, word_offsets, pair_topics, pair_counts }
    }
}

/// One thread's state in an assembly: its per-topic sums of the counts and
/// its alias build scratch.
struct Assembler {
    from_pairs: Vec<u64>,
    scratch: AliasBuildScratch,
}

impl Assembler {
    /// Checks the pairs of the chunk of `words` word by word, fills each
    /// word's `C_wk` index slots, term frequency and alias bins (the chunk's
    /// parts of those buffers), and adds the counts to the per-topic sums;
    /// stops at the chunk's lowest bad word with its error.
    fn build(
        &mut self,
        words: std::ops::Range<usize>,
        ((slots, totals), bins): ((&mut [u64], &mut [u32]), &mut [AliasBin]),
        cols: &PairColumns,
        index_offsets: &[usize],
        k: usize,
    ) -> CodecResult<()> {
        let (slot_base, pair_base) = (index_offsets[words.start], cols.word_offsets[words.start]);
        slots.fill(EMPTY_SLOT);
        for (w, total_out) in words.zip(totals) {
            let (start, end) = (cols.word_offsets[w] as usize, cols.word_offsets[w + 1] as usize);
            let slots = &mut slots[index_offsets[w] - slot_base..index_offsets[w + 1] - slot_base];
            let mask = slots.len() - 1;
            let mut total = 0u64;
            for i in start..end {
                let (t, c) = (cols.pair_topics[i], cols.pair_counts[i]);
                let bad = if t as usize >= k {
                    Some(format!("word {w}: topic {t} out of range (K = {k})"))
                } else if i > start && cols.pair_topics[i - 1] >= t {
                    Some(format!("word {w}: topics not strictly ascending"))
                } else if c == 0 {
                    Some(format!(
                        "word {w}: zero count for topic {t} (frozen models store only non-zeros)"
                    ))
                } else {
                    None
                };
                if let Some(msg) = bad {
                    return Err(CodecError::Corrupt(msg));
                }
                self.from_pairs[t as usize] += c as u64;
                total += c as u64;
                // The topics so far are distinct and below K, so they number
                // at most min{K, nnz} ≤ the slot count, and a free slot is
                // left for each.
                let mut slot = t as usize & mask;
                while slots[slot] != EMPTY_SLOT {
                    slot = (slot + 1) & mask;
                }
                slots[slot] = u64::from(t) << 32 | u64::from(c);
            }
            let Ok(total) = u32::try_from(total) else {
                return Err(CodecError::Corrupt(format!("word {w}: term frequency overflows u32")));
            };
            *total_out = total;
            let pairs = cols.pair_topics[start..end].iter().zip(&cols.pair_counts[start..end]);
            let table = &mut bins[start - pair_base as usize..end - pair_base as usize];
            SparseAliasStore::fill(
                table,
                pairs.map(|(&t, &c)| (t, f64::from(c))),
                &mut self.scratch,
            );
        }
        Ok(())
    }
}

/// An immutable, read-optimized topic model frozen from a trained sampler.
#[derive(Debug)]
pub struct TopicModel {
    params: ModelParams,
    /// Global topic counts `c_k`.
    topic_counts: Vec<u32>,
    /// `word_offsets[w]..word_offsets[w+1]` indexes the pair arrays.
    word_offsets: Vec<u32>,
    /// Topics with non-zero count, sorted ascending within each word.
    pair_topics: Vec<u32>,
    /// Counts parallel to `pair_topics`.
    pair_counts: Vec<u32>,
    /// Term frequency `L_w` of each word (sum of its pair counts).
    word_totals: Vec<u32>,
    /// The pre-built word-proposal alias bins, one per non-zero: word `w`'s
    /// table is bins `word_offsets[w]..word_offsets[w+1]` (none for a word
    /// without counts — its proposal is pure smoothing).
    alias: SparseAliasStore,
    /// `index_offsets[w]..index_offsets[w+1]` is word `w`'s slot range in
    /// `index`; its length is [`index_slots`] of the word's non-zeros.
    index_offsets: Vec<usize>,
    /// The `C_wk` index: `topic << 32 | count` per occupied slot,
    /// [`EMPTY_SLOT`] otherwise. A topic's home slot is `topic & (len − 1)`
    /// of its word's range, collisions probe linearly.
    index: Vec<u64>,
    /// `β̄ = V·β`, cached.
    beta_bar: f64,
    /// The frozen vocabulary, when the model serves raw-text queries.
    vocab: Option<Vocabulary>,
}

impl TopicModel {
    /// Freezes word-major topic assignments into a serving model: word `w`'s
    /// topics are `z[col_offsets[w]..col_offsets[w + 1]]`, the form
    /// [`Sampler::word_major_assignments`] returns. The freeze counts a copy
    /// of `z` in one forward pass: each word's contiguous slice goes through
    /// a reused K-vector, and its pairs are written over its own tokens,
    /// which sizes the CSR columns exactly; a second stage moves them there
    /// ([`freeze_sampler`](Self::freeze_sampler) counts the sampler's own
    /// word-major copy instead). Both stages, and the assembly after them,
    /// cut the words into contiguous chunks of about equal token (or pair)
    /// mass, which one thread per core of the host claims from a
    /// [`ChunkCursor`]; the result is the same bytes for any number of
    /// threads. Besides the model the freeze holds the copy of z
    /// (4 B/token) plus O(threads·K) of counting scratch, and it allocates
    /// the same number of buffers whatever `V` is. `vocab` enables raw-text
    /// queries; pass the training corpus vocabulary (or the one embedded in
    /// a checkpoint).
    ///
    /// # Panics
    /// Panics if `col_offsets` is not `V + 1` non-decreasing offsets from 0 to
    /// `z.len()`, if a topic in `z` is not below `K`, or if `vocab` is
    /// supplied but its size differs from `V` — a model/vocabulary mix-up,
    /// not a runtime input.
    pub fn from_assignments(
        params: ModelParams,
        col_offsets: &[u32],
        z: &[u32],
        vocab: Option<&Vocabulary>,
    ) -> Self {
        Self::freeze_in(params, col_offsets, z.to_vec(), vocab.cloned(), host_workers())
    }

    /// Freezes the current state of any live [`Sampler`] trained on `corpus`:
    /// its [`word_major_assignments`](Sampler::word_major_assignments) as
    /// [`from_assignments`](Self::from_assignments) freezes them, with the
    /// corpus vocabulary embedded, counting the sampler's word-major copy of
    /// z itself (WarpLDA fills it in one forward pass over its records).
    /// Besides the model the freeze holds that copy (4 B/token) plus
    /// O(threads·K), and the copy is dropped once counted, before the
    /// model's index and bins are allocated. Also the path for checkpoints:
    /// load the checkpoint into a sampler over its corpus, then freeze the
    /// sampler.
    ///
    /// # Panics
    /// Panics if the sampler's word or token count differs from `corpus`'s
    /// [`vocab_size`](Corpus::vocab_size) or
    /// [`num_tokens`](Corpus::num_tokens): the sampler was not trained on
    /// this corpus.
    pub fn freeze_sampler(sampler: &dyn Sampler, corpus: &Corpus) -> Self {
        let (col_offsets, z) = sampler.word_major_assignments(corpus);
        let sampler_shape = (col_offsets.len() - 1, z.len() as u64);
        let corpus_shape = (corpus.vocab_size(), corpus.num_tokens());
        assert_eq!(
            sampler_shape, corpus_shape,
            "the sampler is not a sampler of the corpus: (V, T) = {sampler_shape:?}, the \
             corpus's {corpus_shape:?}"
        );
        let vocab = Some(corpus.vocab().clone());
        Self::freeze_in(*sampler.params(), &col_offsets, z, vocab, host_workers())
    }

    /// The freeze of [`from_assignments`](Self::from_assignments) on
    /// `workers` threads, counting `z` itself.
    fn freeze_in(
        params: ModelParams,
        col_offsets: &[u32],
        z: Vec<u32>,
        vocab: Option<Vocabulary>,
        workers: usize,
    ) -> Self {
        let columns = PairColumns::count(params.num_topics, col_offsets, z, workers);
        if let Some(v) = &vocab {
            assert_eq!(
                v.len() + 1,
                col_offsets.len(),
                "vocabulary size does not match the model's word count"
            );
        }
        Self::from_columns(params, columns, vocab, workers)
            .expect("counted assignments freeze cleanly")
    }

    /// Assembles (and fully validates) a model from its raw columns, and
    /// derives its alias bins and `C_wk` index — the back end of the codec
    /// reader, through [`from_columns`](Self::from_columns) over the host's
    /// cores.
    fn from_parts(
        params: ModelParams,
        topic_counts: Vec<u32>,
        word_offsets: Vec<u32>,
        pair_topics: Vec<u32>,
        pair_counts: Vec<u32>,
        vocab: Option<Vocabulary>,
    ) -> CodecResult<Self> {
        let columns = PairColumns { topic_counts, word_offsets, pair_topics, pair_counts };
        Self::from_columns(params, columns, vocab, host_workers())
    }

    /// Assembles (and fully validates) a model from its raw columns, and
    /// derives its alias bins and `C_wk` index — the shared back end of a
    /// freeze and a load. Every buffer is sized once, from the offsets, on
    /// the calling thread; the words are then checked and their index
    /// slots, term frequencies and bins filled in contiguous chunks of about
    /// equal pair mass, which `workers` threads claim from a
    /// [`ChunkCursor`]. A corrupt model is refused with the error of its
    /// lowest bad word, whatever the number of threads.
    fn from_columns(
        params: ModelParams,
        columns: PairColumns,
        vocab: Option<Vocabulary>,
        workers: usize,
    ) -> CodecResult<Self> {
        let k = params.num_topics;
        let PairColumns { topic_counts, word_offsets, pair_topics, pair_counts } = &columns;
        if topic_counts.len() != k {
            return Err(CodecError::Corrupt(format!(
                "model has {} topic counts but K = {k}",
                topic_counts.len()
            )));
        }
        if word_offsets.first() != Some(&0) || word_offsets.is_empty() {
            return Err(CodecError::Corrupt("word offsets must start at 0".into()));
        }
        if pair_topics.len() != pair_counts.len()
            || word_offsets.last().copied().unwrap_or(0) as usize != pair_topics.len()
        {
            return Err(CodecError::Corrupt(format!(
                "pair arrays ({} topics, {} counts) do not match the final offset {:?}",
                pair_topics.len(),
                pair_counts.len(),
                word_offsets.last()
            )));
        }
        let num_words = word_offsets.len() - 1;
        if let Some(v) = &vocab {
            if v.len() != num_words {
                return Err(CodecError::Corrupt(format!(
                    "embedded vocabulary has {} words but the model has {num_words}",
                    v.len()
                )));
            }
        }
        // Monotonic offsets ending at the pair count bound every range below
        // and the index they size: at most `4·nnz + V` slots.
        let mut index_offsets = Vec::with_capacity(num_words + 1);
        index_offsets.push(0);
        let mut widest = 0;
        for (w, range) in word_offsets.windows(2).enumerate() {
            if range[0] > range[1] {
                return Err(CodecError::Corrupt(format!("word {w}: offsets not monotonic")));
            }
            let nnz = (range[1] - range[0]) as usize;
            widest = widest.max(nnz);
            index_offsets.push(index_offsets[w] + index_slots(k, nnz));
        }
        // The index is zeroed here and filled by the threads, so its pages
        // are first written where its slots are.
        let mut index = vec![0u64; index_offsets[num_words]];
        let mut word_totals = vec![0u32; num_words];
        let mut alias = SparseAliasStore::with_len(pair_topics.len());
        let cursor = ChunkCursor::by_mass(word_offsets, workers);
        let mut errors: Vec<Option<CodecError>> =
            cursor.bounds()[1..].iter().map(|_| None).collect();
        let jobs = cursor
            .split_mut(&mut index, |w| index_offsets[w])
            .zip(cursor.split_mut(&mut word_totals, |w| w))
            .zip(cursor.split_mut(alias.bins_mut(), |w| word_offsets[w] as usize))
            .zip(&mut errors);
        let mut assemblers: Vec<Assembler> = (0..workers)
            .map(|_| Assembler {
                from_pairs: vec![0; k],
                scratch: AliasBuildScratch::with_capacity(widest),
            })
            .collect();
        parallel_for(&cursor, jobs, &mut assemblers, |asm, words, (outputs, error)| {
            *error = asm.build(words, outputs, &columns, &index_offsets, k).err();
        });
        // The chunks are in word order, so the first error is the lowest
        // bad word's, as a serial pass would have stopped at it.
        if let Some(error) = errors.into_iter().flatten().next() {
            return Err(error);
        }
        let mut from_pairs = vec![0u64; k];
        for asm in &assemblers {
            for (sum, &c) in from_pairs.iter_mut().zip(&asm.from_pairs) {
                *sum += c;
            }
        }
        for (t, (&have, &want)) in from_pairs.iter().zip(topic_counts).enumerate() {
            if have != want as u64 {
                return Err(CodecError::Corrupt(format!(
                    "topic {t}: word counts sum to {have} but c_k says {want}"
                )));
            }
        }
        let PairColumns { topic_counts, word_offsets, pair_topics, pair_counts } = columns;
        Ok(Self {
            params,
            topic_counts,
            word_offsets,
            pair_topics,
            pair_counts,
            word_totals,
            alias,
            index_offsets,
            index,
            beta_bar: params.beta_bar(num_words),
            vocab,
        })
    }

    /// Model hyper-parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.params.num_topics
    }

    /// Vocabulary size `V`.
    pub fn num_words(&self) -> usize {
        self.word_totals.len()
    }

    /// The frozen vocabulary, when one was embedded.
    pub fn vocab(&self) -> Option<&Vocabulary> {
        self.vocab.as_ref()
    }

    /// Global topic counts `c_k`.
    pub(crate) fn topic_counts(&self) -> &[u32] {
        &self.topic_counts
    }

    /// `β̄ = V·β`.
    pub(crate) fn beta_bar(&self) -> f64 {
        self.beta_bar
    }

    /// Frozen count `C_wk`, from the word's index: the home slot of a word
    /// with `2·nnz ≥ K` is the topic's own, and any other word's table is at
    /// most half full, so a hit or a miss ends within a probe or two. A topic
    /// at or above `K` reads 0.
    #[inline]
    pub fn word_topic_count(&self, word: u32, topic: u32) -> u32 {
        // Below K the probe ends: a full row is direct-mapped, so the topic's
        // home slot holds it; any other row has a free slot.
        if topic as usize >= self.params.num_topics {
            return 0;
        }
        let w = word as usize;
        let slots = &self.index[self.index_offsets[w]..self.index_offsets[w + 1]];
        let mask = slots.len() - 1;
        let mut slot = topic as usize & mask;
        loop {
            let entry = slots[slot];
            if entry == EMPTY_SLOT {
                return 0;
            }
            if (entry >> 32) as u32 == topic {
                return entry as u32;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Bytes of heap this model holds: the sum of its own buffers'
    /// capacities — `4·(K + 2V + 1) + 8·nnz` for `c_k`, the CSR columns and
    /// the term frequencies, 16 per alias bin (one bin per non-zero, no
    /// per-word header: the CSR offsets address the bins), and
    /// `8·(V + 1) + 8·slots` for the `C_wk` index, where
    /// `slots ≤ 4·nnz + V`. The embedded vocabulary is not counted.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.topic_counts.capacity()
            + self.word_offsets.capacity()
            + self.pair_topics.capacity()
            + self.pair_counts.capacity()
            + self.word_totals.capacity())
            + self.alias.heap_bytes()
            + std::mem::size_of::<usize>() * self.index_offsets.capacity()
            + std::mem::size_of::<u64>() * self.index.capacity()
    }

    /// The mixture weight of `word`'s proposal `q_word(k) ∝ C_wk + β`: the
    /// count part has mass `L_w`, the uniform smoothing part `K·β`. A word
    /// without counts gets `Mixture::new(0.0)`, which never picks the count
    /// part. Computed once per token, not per draw.
    #[inline]
    pub(crate) fn word_mixture(&self, word: u32) -> Mixture {
        let count_mass = self.word_totals[word as usize] as f64;
        Mixture::new(count_mass / (count_mass + self.params.num_topics as f64 * self.params.beta))
    }

    /// Draws from the word proposal `q_word(k) ∝ C_wk + β` in O(1), given
    /// `mixture = self.word_mixture(word)`: one 64-bit word picks the part
    /// and either a bin of the word's pre-built count alias bins (then one
    /// coin between the bin's two labels) or a uniform topic.
    #[inline]
    pub(crate) fn sample_word_proposal(
        &self,
        word: u32,
        mixture: Mixture,
        rng: &mut SmallRng,
    ) -> u32 {
        let w = word as usize;
        let (start, end) = (self.word_offsets[w], self.word_offsets[w + 1]);
        match mixture.draw(rng, end - start, self.params.num_topics as u32) {
            (true, bin) if end > start => self.alias.sample_bin((start + bin) as usize, rng),
            (_, topic) => topic,
        }
    }

    /// The `top_n` highest-count words per topic as `(word, count)` pairs —
    /// the qualitative view of the frozen model, no training state needed.
    pub fn top_words(&self, top_n: usize) -> Vec<Vec<(u32, u32)>> {
        let mut per_topic: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.params.num_topics];
        for w in 0..self.num_words() {
            let range = self.word_offsets[w] as usize..self.word_offsets[w + 1] as usize;
            for i in range {
                per_topic[self.pair_topics[i] as usize].push((w as u32, self.pair_counts[i]));
            }
        }
        for list in &mut per_topic {
            list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            list.truncate(top_n);
        }
        per_topic
    }

    /// Serializes the model as one `WLDAMODL` framed section.
    pub fn write(&self, w: &mut dyn Write) -> CodecResult<()> {
        // Sized once: the kind, the parameters, four length-prefixed
        // columns, the vocabulary flag and the length-prefixed words.
        let words = self.vocab.as_ref().map_or(0, |v| v.iter().map(|(_, w)| 8 + w.len()).sum());
        let columns =
            self.topic_counts.len() + self.word_offsets.len() + 2 * self.pair_topics.len();
        let mut payload =
            Vec::with_capacity(8 + MODEL_KIND.len() + 24 + 4 * (8 + columns) + 9 + words);
        {
            let mut enc = Encoder::new(&mut payload);
            enc.write_str(MODEL_KIND)?;
            write_model_params(&mut enc, &self.params)?;
            enc.write_u32_slice(&self.topic_counts)?;
            enc.write_u32_slice(&self.word_offsets)?;
            enc.write_u32_slice(&self.pair_topics)?;
            enc.write_u32_slice(&self.pair_counts)?;
            match &self.vocab {
                Some(v) => {
                    enc.write_bool(true)?;
                    warplda_corpus::io::codec::write_vocab(&mut enc, v)?;
                }
                None => enc.write_bool(false)?,
            }
        }
        write_framed_section(w, MODEL_MAGIC, &payload)
    }

    /// Reads a model written by [`write`](Self::write), rejecting anything
    /// structurally inconsistent (wrong magic, bad checksum, count columns
    /// that do not sum to `c_k`, …) with a typed [`CodecError`]. Alias
    /// bins are rebuilt deterministically from the counts.
    pub fn read(r: &mut dyn Read) -> CodecResult<Self> {
        let payload = read_framed_section(r, MODEL_MAGIC)?;
        let mut dec = Decoder::new(&payload);
        let kind = dec.read_str()?;
        if kind != MODEL_KIND {
            return Err(CodecError::Corrupt(format!(
                "expected a {MODEL_KIND:?} payload, found {kind:?}"
            )));
        }
        let params = read_model_params(&mut dec)?;
        let topic_counts = dec.read_u32_vec()?;
        let word_offsets = dec.read_u32_vec()?;
        let pair_topics = dec.read_u32_vec()?;
        let pair_counts = dec.read_u32_vec()?;
        let vocab = if dec.read_bool()? {
            Some(warplda_corpus::io::codec::read_vocab(&mut dec)?)
        } else {
            None
        };
        dec.finish()?;
        // Everything is copied out: the payload's memory can take the index.
        drop(payload);
        Self::from_parts(params, topic_counts, word_offsets, pair_topics, pair_counts, vocab)
    }

    /// Saves the model to `path`, creating parent directories as needed. The
    /// write is crash-safe ([`warplda_corpus::io::atomic_write`]): a crash
    /// mid-save leaves any previous model at `path` intact and serve nodes
    /// can never load a torn artifact.
    pub fn save(&self, path: &Path) -> CodecResult<()> {
        warplda_corpus::io::atomic_write(path, |w| self.write(w))
    }

    /// Loads a model saved by [`save`](Self::save).
    pub fn load(path: &Path) -> CodecResult<Self> {
        let mut r = BufReader::new(File::open(path)?);
        Self::read(&mut r)
    }
}

/// The hot-swappable slot a server reads its live model from.
///
/// Readers take the read lock only long enough to clone the `Arc` (no
/// allocation, no contention with other readers), so in-flight requests keep
/// the model they started with while [`swap`](Self::swap) promotes a new one
/// — a freshly trained checkpoint goes live without dropping a request.
#[derive(Debug)]
pub(crate) struct ModelHandle {
    slot: RwLock<Arc<TopicModel>>,
    /// Bumped on every swap; responses echo it so clients can observe
    /// promotions.
    epoch: AtomicU32,
}

impl ModelHandle {
    /// Creates a handle serving `model` at epoch 0.
    pub(crate) fn new(model: Arc<TopicModel>) -> Self {
        Self { slot: RwLock::new(model), epoch: AtomicU32::new(0) }
    }

    /// The live model and the epoch it was promoted at.
    pub(crate) fn current(&self) -> (Arc<TopicModel>, u32) {
        let guard = self.slot.read().expect("model slot poisoned");
        // The epoch is read under the same lock the slot is, so a response
        // never pairs an old model with a new epoch.
        (Arc::clone(&guard), self.epoch.load(Ordering::Acquire))
    }

    /// Number of swaps performed so far.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically promotes `model`, returning the one it replaced.
    pub(crate) fn swap(&self, model: Arc<TopicModel>) -> Arc<TopicModel> {
        let mut guard = self.slot.write().expect("model slot poisoned");
        let old = std::mem::replace(&mut *guard, model);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::counts::TopicCounts;
    use warplda_core::{Trainer, WarpLda, WarpLdaConfig};
    use warplda_corpus::CorpusBuilder;

    fn trained_model() -> (Corpus, TopicModel) {
        let mut b = CorpusBuilder::new();
        for _ in 0..20 {
            b.push_text_doc(["river", "lake", "water", "fish"]);
            b.push_text_doc(["desert", "sand", "dune", "heat"]);
        }
        let corpus = b.build().unwrap();
        let mut sampler =
            WarpLda::new(&corpus, ModelParams::new(2, 0.5, 0.1), WarpLdaConfig::default(), 7);
        for _ in 0..30 {
            sampler.run_iteration();
        }
        let model = TopicModel::freeze_sampler(&sampler, &corpus);
        (corpus, model)
    }

    #[test]
    fn freeze_preserves_counts_and_phi_normalizes() {
        let (corpus, model) = trained_model();
        assert_eq!(model.num_words(), corpus.vocab_size());
        assert_eq!(
            model.topic_counts().iter().map(|&c| c as u64).sum::<u64>(),
            corpus.num_tokens()
        );
        // Each φ_·k = (C_wk + β) / (c_k + β̄) is a probability distribution
        // over the vocabulary exactly when the word counts of topic k add up
        // to c_k.
        for (k, &c_k) in model.topic_counts().iter().enumerate() {
            let total: u32 =
                (0..model.num_words()).map(|w| model.word_topic_count(w as u32, k as u32)).sum();
            assert_eq!(total, c_k, "topic {k}");
        }
        // Per-word totals are the term frequencies.
        let tf = corpus.term_frequencies();
        for (w, &f) in tf.iter().enumerate() {
            assert_eq!(model.word_totals[w] as u64, f, "word {w}");
        }
    }

    /// The `WLDAMODL` bytes of a model assembled straight from the count
    /// tables of `sampler`'s [`Sampler::snapshot_state`] — sorted pairs per
    /// word, `c_k` — a reference that shares no code with the freeze path.
    fn count_table_bytes(sampler: &dyn Sampler, corpus: &Corpus) -> Vec<u8> {
        let views = Trainer::new(corpus);
        let state = sampler.snapshot_state(corpus, views.doc_view(), views.word_view());
        let mut word_offsets = vec![0u32];
        let (mut pair_topics, mut pair_counts) = (Vec::new(), Vec::new());
        for w in 0..state.num_words() as u32 {
            let mut pairs = state.word_counts(w).to_pairs();
            pairs.sort_unstable_by_key(|&(t, _)| t);
            pair_topics.extend(pairs.iter().map(|&(t, _)| t));
            pair_counts.extend(pairs.iter().map(|&(_, c)| c));
            word_offsets.push(pair_topics.len() as u32);
        }
        let assembled = TopicModel::from_parts(
            *sampler.params(),
            state.topic_counts().to_vec(),
            word_offsets,
            pair_topics,
            pair_counts,
            Some(corpus.vocab().clone()),
        )
        .unwrap();
        let mut bytes = Vec::new();
        assembled.write(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn the_streaming_freeze_writes_the_bytes_of_a_model_assembled_from_count_tables() {
        use warplda_core::{CollapsedGibbs, ParallelWarpLda};
        use warplda_corpus::DatasetPreset;
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let config = WarpLdaConfig::with_mh_steps(2);
        let assert_same_bytes = |sampler: &mut dyn Sampler, what: &str| {
            for _ in 0..3 {
                sampler.run_iteration();
            }
            let mut streamed = Vec::new();
            TopicModel::freeze_sampler(sampler, &corpus).write(&mut streamed).unwrap();
            assert!(streamed == count_table_bytes(sampler, &corpus), "{what}: saved bytes differ");
        };
        // Serial WarpLDA straight off its records at one-, two- and four-byte
        // record widths; at K = 300 and above most words have far fewer
        // occurrences than topics.
        for (k, width) in [(6usize, 1), (300, 2), (65_537, 4)] {
            let mut sampler = WarpLda::new(&corpus, ModelParams::paper_defaults(k), config, 13);
            assert_eq!(sampler.record_width(), width);
            assert_same_bytes(&mut sampler, &format!("WarpLDA, K = {k}"));
        }
        // The type the benchmark freezes, and the default path (a token
        // matrix built from the corpus) through a baseline.
        let params = ModelParams::paper_defaults(300);
        let mut parallel = ParallelWarpLda::new(&corpus, params, config, 13, 2);
        assert_same_bytes(&mut parallel, "ParallelWarpLda on 2 threads");
        let mut cgs = CollapsedGibbs::new(&corpus, params, 13);
        assert_same_bytes(&mut cgs, "CollapsedGibbs");
    }

    #[test]
    #[should_panic(expected = "the sampler is not a sampler of the corpus: (V, T) = (4, 8), \
                               the corpus's (3, 8)")]
    fn freezing_against_a_corpus_of_another_shape_panics() {
        let corpus_of = |docs: [[&str; 4]; 2]| {
            let mut b = CorpusBuilder::new();
            for doc in docs {
                b.push_text_doc(doc);
            }
            b.build().unwrap()
        };
        let trained = corpus_of([["a", "b", "c", "d"], ["a", "b", "c", "d"]]);
        let other = corpus_of([["a", "b", "c", "a"], ["a", "b", "c", "a"]]);
        let sampler =
            WarpLda::new(&trained, ModelParams::new(2, 0.5, 0.1), WarpLdaConfig::default(), 1);
        TopicModel::freeze_sampler(&sampler, &other);
    }

    /// Every `C_wk`, `t < K`, read through the index equals the pair
    /// columns' count (0 where the word lists no pair), and topic `K` reads 0.
    fn assert_index_matches_the_pair_columns(model: &TopicModel) {
        let k = model.num_topics();
        let mut row = vec![0u32; k];
        for w in 0..model.num_words() {
            row.fill(0);
            for i in model.word_offsets[w] as usize..model.word_offsets[w + 1] as usize {
                row[model.pair_topics[i] as usize] = model.pair_counts[i];
            }
            for (t, &c) in row.iter().enumerate() {
                assert_eq!(model.word_topic_count(w as u32, t as u32), c, "K = {k}, word {w}");
            }
            assert_eq!(model.word_topic_count(w as u32, k as u32), 0, "K = {k}, word {w}");
        }
    }

    /// Freezes one iteration of serial WarpLDA on Tiny/2 at `k` (one
    /// iteration leaves the rows wide) and returns it with its save → load
    /// copy.
    fn fresh_and_loaded(k: usize) -> (TopicModel, TopicModel) {
        let corpus = warplda_corpus::DatasetPreset::Tiny.generate_scaled(2);
        let params = ModelParams::paper_defaults(k);
        let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 3);
        sampler.run_iteration();
        let model = TopicModel::freeze_sampler(&sampler, &corpus);
        let mut bytes = Vec::new();
        model.write(&mut bytes).unwrap();
        let loaded = TopicModel::read(&mut bytes.as_slice()).unwrap();
        (model, loaded)
    }

    #[test]
    fn the_index_reads_every_count_of_the_pair_columns_fresh_and_loaded() {
        for k in [16usize, 300, 5_000] {
            let (model, loaded) = fresh_and_loaded(k);
            assert_eq!(loaded.index_offsets, model.index_offsets);
            assert_index_matches_the_pair_columns(&model);
            assert_index_matches_the_pair_columns(&loaded);
            if k == 16 {
                // Both kinds of row: direct-mapped (as many slots as
                // topics) and hashed.
                let slots: Vec<usize> =
                    model.index_offsets.windows(2).map(|r| r[1] - r[0]).collect();
                assert!(slots.contains(&k) && slots.iter().any(|&s| s < k), "{slots:?}");
            }
        }
    }

    /// K = 4, built as the codec reader builds it: word 0 holds every topic
    /// (a full, direct-mapped row: no free slot to stop a probe), word 1 no
    /// pair, word 2 one.
    fn hand_built_model() -> TopicModel {
        TopicModel::from_parts(
            ModelParams::new(4, 0.5, 0.1),
            vec![1, 2, 3, 5],
            vec![0, 4, 4, 5],
            vec![0, 1, 2, 3, 3],
            vec![1, 2, 3, 4, 1],
            None,
        )
        .unwrap()
    }

    #[test]
    fn a_word_without_counts_and_a_full_row_read_back_exactly() {
        let model = hand_built_model();
        assert_eq!(model.index_offsets, [0, 4, 5, 7]);
        let mut bytes = Vec::new();
        model.write(&mut bytes).unwrap();
        let loaded = TopicModel::read(&mut bytes.as_slice()).unwrap();
        for m in [&model, &loaded] {
            assert_index_matches_the_pair_columns(m);
            assert_eq!(m.word_topic_count(0, u32::MAX), 0);
            assert_eq!(m.word_topic_count(1, 0), 0);
            assert_eq!(m.word_totals[1], 0);
        }
    }

    #[test]
    fn heap_bytes_are_the_closed_form_and_the_index_stays_within_its_bound() {
        for k in [16usize, 300, 5_000] {
            // The loaded copy holds its buffers at their exact lengths.
            let (_, model) = fresh_and_loaded(k);
            let (v, nnz, slots) = (model.num_words(), model.pair_topics.len(), model.index.len());
            assert!(slots <= 4 * nnz + v, "K = {k}: {slots} slots for {nnz} non-zeros, V = {v}");
            // What ends every probe early: a row is direct-mapped or at most
            // half full.
            for (w, range) in model.index_offsets.windows(2).enumerate() {
                let row = &model.index[range[0]..range[1]];
                let used = row.iter().filter(|&&e| e != EMPTY_SLOT).count();
                assert!(row.len() >= k || 2 * used <= row.len(), "K = {k}, word {w}");
            }
            assert_eq!(
                model.heap_bytes(),
                4 * (k + 2 * v + 1) + 8 * nnz + 16 * nnz + 8 * (v + 1) + 8 * slots,
                "K = {k}"
            );
        }
    }

    #[test]
    fn word_proposal_matches_the_smoothed_distribution() {
        // A trained word, then a full row, a word without counts (the
        // mixture never picks its count part) and a single-pair word.
        let (_, trained) = trained_model();
        let hand_built = hand_built_model();
        for (model, w) in [(&trained, 0u32), (&hand_built, 0), (&hand_built, 1), (&hand_built, 2)] {
            let mut rng = warplda_sampling::new_rng(3);
            let mut hist = vec![0u64; model.num_topics()];
            let draws = 200_000;
            let mixture = model.word_mixture(w);
            for _ in 0..draws {
                hist[model.sample_word_proposal(w, mixture, &mut rng) as usize] += 1;
            }
            let k = model.num_topics() as f64;
            let total_mass = model.word_totals[w as usize] as f64 + k * model.params().beta;
            for (t, &h) in hist.iter().enumerate() {
                let expect =
                    (model.word_topic_count(w, t as u32) as f64 + model.params().beta) / total_mass;
                let got = h as f64 / draws as f64;
                assert!((got - expect).abs() < 0.01, "word {w}, topic {t}: {got} vs {expect}");
            }
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let (_, model) = trained_model();
        let mut buf = Vec::new();
        model.write(&mut buf).unwrap();
        let back = TopicModel::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back.topic_counts, model.topic_counts);
        assert_eq!(back.word_offsets, model.word_offsets);
        assert_eq!(back.pair_topics, model.pair_topics);
        assert_eq!(back.pair_counts, model.pair_counts);
        assert_eq!(back.word_totals, model.word_totals);
        assert_eq!(back.vocab.as_ref().map(|v| v.len()), model.vocab.as_ref().map(|v| v.len()));
        // The rebuilt alias bins draw the same stream as the originals.
        let mut a = warplda_sampling::new_rng(11);
        let mut b = warplda_sampling::new_rng(11);
        let (mixture, back_mixture) = (model.word_mixture(0), back.word_mixture(0));
        for _ in 0..2_000 {
            assert_eq!(
                model.sample_word_proposal(0, mixture, &mut a),
                back.sample_word_proposal(0, back_mixture, &mut b)
            );
        }
    }

    #[test]
    fn corrupted_models_are_rejected() {
        let (_, model) = trained_model();
        let mut good = Vec::new();
        model.write(&mut good).unwrap();
        // Checksum: flip one payload byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            TopicModel::read(&mut bad.as_slice()),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Magic: a checkpoint-magic file is not a model.
        let mut bad = good.clone();
        bad[..8].copy_from_slice(b"WLDACKPT");
        assert!(matches!(TopicModel::read(&mut bad.as_slice()), Err(CodecError::BadMagic)));
        // Truncation.
        let mut bad = good.clone();
        bad.truncate(bad.len() - 6);
        assert!(matches!(TopicModel::read(&mut bad.as_slice()), Err(CodecError::Io(_))));
        // Trailing bytes: one byte past the last section, re-framed under a
        // valid checksum.
        let mut payload = read_framed_section(&mut good.as_slice(), MODEL_MAGIC).unwrap();
        payload.push(0);
        let mut bad = Vec::new();
        write_framed_section(&mut bad, MODEL_MAGIC, &payload).unwrap();
        let err = TopicModel::read(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn inconsistent_columns_are_rejected() {
        let (_, model) = trained_model();
        // c_k no longer matches the per-word counts.
        let mut counts = model.topic_counts.clone();
        counts[0] += 1;
        let err = TopicModel::from_parts(
            model.params,
            counts,
            model.word_offsets.clone(),
            model.pair_topics.clone(),
            model.pair_counts.clone(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // Unsorted topics within a word (hand-built: word 0 lists topic 1
        // before topic 0; the per-topic sums are kept consistent so only the
        // ordering check can catch it).
        let err = TopicModel::from_parts(
            ModelParams::new(2, 0.5, 0.1),
            vec![3, 2],
            vec![0, 2, 3],
            vec![1, 0, 0],
            vec![2, 1, 2],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // An offset past the pair count, taken back by the next one: the
        // offsets are checked before any range they bound is read or sized.
        let err = TopicModel::from_parts(
            ModelParams::new(2, 0.5, 0.1),
            vec![1, 1],
            vec![0, 5, 2],
            vec![0, 1],
            vec![1, 1],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        // Zero-count pairs are rejected too.
        let err = TopicModel::from_parts(
            ModelParams::new(2, 0.5, 0.1),
            vec![1, 0],
            vec![0, 2],
            vec![0, 1],
            vec![1, 0],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    /// The model [`TopicModel::from_columns`] assembles from `model`'s
    /// columns on `workers` threads: what a load on `workers` cores builds
    /// from `model`'s file.
    fn reassembled(model: &TopicModel, workers: usize) -> CodecResult<TopicModel> {
        let columns = PairColumns {
            topic_counts: model.topic_counts.clone(),
            word_offsets: model.word_offsets.clone(),
            pair_topics: model.pair_topics.clone(),
            pair_counts: model.pair_counts.clone(),
        };
        TopicModel::from_columns(model.params, columns, model.vocab.clone(), workers)
    }

    /// `model` and `reference` write the same `WLDAMODL` bytes, hold the
    /// same heap, and derived the same index, term frequencies and bins.
    fn assert_same_model(model: &TopicModel, reference: &TopicModel, what: &str) {
        let bytes = |m: &TopicModel| {
            let mut out = Vec::new();
            m.write(&mut out).unwrap();
            out
        };
        assert!(bytes(model) == bytes(reference), "{what}: saved bytes differ");
        assert_eq!(model.heap_bytes(), reference.heap_bytes(), "{what}");
        assert_eq!(model.index_offsets, reference.index_offsets, "{what}");
        assert!(model.index == reference.index, "{what}: C_wk index differs");
        assert_eq!(model.word_totals, reference.word_totals, "{what}");
        assert!(model.alias == reference.alias, "{what}: alias bins differ");
    }

    /// Freezes `(col_offsets, z)` on one, two and three threads, and loads
    /// the model on one, two and three: every model is the one-thread
    /// freeze, byte for byte.
    fn assert_the_split_changes_nothing(k: usize, col_offsets: &[u32], z: &[u32], what: &str) {
        let params = ModelParams::paper_defaults(k);
        let freeze =
            |workers| TopicModel::freeze_in(params, col_offsets, z.to_vec(), None, workers);
        let reference = freeze(1);
        for workers in [1, 2, 3] {
            assert_same_model(
                &freeze(workers),
                &reference,
                &format!("{what}: frozen on {workers}"),
            );
            let loaded = reassembled(&reference, workers).unwrap();
            assert_same_model(&loaded, &reference, &format!("{what}: loaded on {workers}"));
        }
    }

    /// Word-major assignments of words with `lens[w]` tokens each, topics
    /// below `k` from a fixed stream.
    fn assignments_of(lens: &[u32], k: usize) -> (Vec<u32>, Vec<u32>) {
        let mut col_offsets = vec![0u32];
        col_offsets.extend(lens.iter().scan(0, |end, &len| {
            *end += len;
            Some(*end)
        }));
        let mut x = 0x2545_f491u32;
        let z = (0..*col_offsets.last().unwrap())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x % k as u32
            })
            .collect();
        (col_offsets, z)
    }

    #[test]
    fn the_split_changes_no_byte_of_the_model() {
        // Sampled state at one-, two- and four-byte record widths.
        let corpus = warplda_corpus::DatasetPreset::Tiny.generate_scaled(8);
        for k in [6usize, 300, 65_537] {
            let params = ModelParams::paper_defaults(k);
            let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
            sampler.run_iteration();
            let (col_offsets, z) = sampler.word_major_assignments(&corpus);
            assert_the_split_changes_nothing(k, &col_offsets, &z, &format!("K = {k}"));
        }

        // Every other word is empty, and a chunk closes before the word
        // that would overfill it, so chunks end on empty words, whatever the
        // mass a stage splits by.
        let lens: Vec<u32> = (0..200).map(|w| if w % 2 == 1 { 0 } else { 1 + w % 7 * 9 }).collect();
        let (col_offsets, z) = assignments_of(&lens, 300);
        for workers in [1, 2, 3] {
            let cursor = ChunkCursor::by_mass(&col_offsets, workers);
            let cuts = &cursor.bounds()[1..cursor.bounds().len() - 1];
            assert!(cuts.iter().any(|&b| lens[b - 1] == 0), "{:?}", cursor.bounds());
        }
        assert_the_split_changes_nothing(300, &col_offsets, &z, "chunks ending on empty words");

        // One word holds most tokens: it is a chunk of its own.
        let lens = [3, 1, 2, 5_000, 4, 1, 3];
        let (col_offsets, z) = assignments_of(&lens, 300);
        for workers in [1, 2, 3] {
            let cursor = ChunkCursor::by_mass(&col_offsets, workers);
            assert!(cursor.bounds().windows(2).any(|c| c == [3, 4]), "{:?}", cursor.bounds());
        }
        assert_the_split_changes_nothing(300, &col_offsets, &z, "a cut beside a huge word");
    }

    #[test]
    fn a_corrupt_model_names_its_lowest_bad_word_whatever_the_split() {
        let corpus = warplda_corpus::DatasetPreset::Tiny.generate_scaled(8);
        let params = ModelParams::paper_defaults(300);
        let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
        sampler.run_iteration();
        let model = TopicModel::freeze_sampler(&sampler, &corpus);
        let v = model.num_words();
        let offsets = &model.word_offsets;
        // The first word with pairs at or after `w`.
        let with_pairs = |w: usize| (w..v).find(|&w| offsets[w] < offsets[w + 1]).unwrap();
        // The chunks a load on three threads cuts.
        let cursor = ChunkCursor::by_mass(offsets, 3);
        let bounds = cursor.bounds();
        let last = bounds[bounds.len() - 2];
        let (first_in_last, middle, later) =
            (with_pairs(last), with_pairs(bounds[bounds.len() / 2]), with_pairs(last + 1));
        assert!(middle < bounds[bounds.len() / 2 + 1] && last + 1 < v, "{bounds:?}");
        // Damage `model`'s copy: a zero count, or a topic past K, in word `w`.
        let damaged = |zero_counts: &[usize], topics_past_k: &[usize]| {
            let mut bad = reassembled(&model, 1).unwrap();
            for &w in zero_counts {
                bad.pair_counts[bad.word_offsets[w] as usize] = 0;
            }
            for &w in topics_past_k {
                bad.pair_topics[bad.word_offsets[w + 1] as usize - 1] = 301;
            }
            bad
        };
        let cases = [
            ("the first bad word in the last chunk", damaged(&[first_in_last], &[]), first_in_last),
            ("bad words in two chunks", damaged(&[later], &[middle]), middle),
        ];
        for (what, bad, lowest) in cases {
            let serial = reassembled(&bad, 1).unwrap_err().to_string();
            assert!(
                serial.starts_with(&format!("corrupt checkpoint payload: word {lowest}:")),
                "{what}: {serial}"
            );
            for workers in [2, 3] {
                let err = reassembled(&bad, workers).unwrap_err().to_string();
                assert_eq!(err, serial, "{what}, {workers} threads");
            }
        }
    }

    #[test]
    fn handle_swaps_atomically_and_bumps_the_epoch() {
        let (_, model) = trained_model();
        let handle = ModelHandle::new(Arc::new(model));
        let (m0, e0) = handle.current();
        assert_eq!(e0, 0);
        let (_, second) = trained_model();
        let old = handle.swap(Arc::new(second));
        assert!(Arc::ptr_eq(&m0, &old));
        let (m1, e1) = handle.current();
        assert_eq!(e1, 1);
        assert!(!Arc::ptr_eq(&m0, &m1));
    }
}
