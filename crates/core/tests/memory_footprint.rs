//! The memory claims of `warplda_core::warp` as exact numbers.
//!
//! * **Footprint:** a sampler holds `T · (4 + (M + 1) · w)` bytes for its `T`
//!   tokens — one row pointer and one record of `M + 1` topic ids at
//!   `w = topic_wire_width(K)` bytes — plus O(D + V + K), at every width.
//! * **Streaming evaluation:** the likelihood of a sampler, and of an
//!   assignment vector, is bit-identical to the one computed from a
//!   materialized [`SamplerState`], and computing it performs a handful of
//!   allocations of O(K) bytes — not one count table per document and word.
//!
//! A counting global allocator tallies the heap operations of this binary, so
//! it holds a single `#[test]`: the harness runs tests of one binary
//! concurrently, and a second one would pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use warplda_core::eval::log_joint_likelihood_of_state;
use warplda_core::{
    log_joint_likelihood, topic_wire_width, ModelParams, Sampler, WarpLda, WarpLdaConfig,
};
use warplda_corpus::{Corpus, DatasetPreset, DocMajorView, WordMajorView};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`; returns its result with the allocator calls and the bytes they
/// asked for.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let out = f();
    (out, ALLOC_CALLS.load(Relaxed) - calls, ALLOC_BYTES.load(Relaxed) - bytes)
}

fn footprint_is_the_closed_form(corpus: &Corpus) {
    let (t, d, v) = (corpus.num_tokens() as usize, corpus.num_docs(), corpus.vocab_size());
    for (k, width) in [(256usize, 1usize), (257, 2), (65_536, 2), (65_537, 4)] {
        assert_eq!(topic_wire_width(k), width);
        for m in [1usize, 2, 4] {
            let params = ModelParams::new(k, 0.5, 0.1);
            let mut s = WarpLda::new(corpus, params, WarpLdaConfig::with_mh_steps(m), 5);
            let per_token = 4 + (m + 1) * width;
            let bound = t * per_token + 8 * (d + v + 2) + 256 * k + (1 << 20);
            assert!(
                s.heap_bytes() <= bound,
                "K = {k}, M = {m}: {} bytes held, bound {bound}",
                s.heap_bytes()
            );
            // Per token it is the closed form exactly — the row pointer and
            // the record, nothing else — and sampling does not grow it.
            let fixed = s.heap_bytes() - t * per_token;
            assert!(fixed < 8 * (d + v + 2) + 256 * k + 4096, "K = {k}, M = {m}: {fixed} fixed");
            let before = s.heap_bytes();
            s.run_iteration();
            assert_eq!(s.heap_bytes(), before, "an iteration grew a buffer (K = {k}, M = {m})");
        }
    }
}

fn evaluation_streams_and_matches_the_tables_bit_for_bit(corpus: &Corpus) {
    let dv = DocMajorView::build(corpus);
    let wv = WordMajorView::build(corpus, &dv);
    let entities = (corpus.num_docs() + corpus.vocab_size()) as u64;
    for k in [5usize, 300, 5_000] {
        let params = ModelParams::new(k, 0.5, 0.1);
        let mut s = WarpLda::new(corpus, params, WarpLdaConfig::with_mh_steps(2), 9);
        for _ in 0..2 {
            s.run_iteration();
        }
        let z = s.assignments();
        let from_tables = log_joint_likelihood_of_state(&s.snapshot_state(corpus, &dv, &wv));

        let (streamed, calls, bytes) =
            measured(|| log_joint_likelihood(corpus, &dv, &wv, &params, &z));
        assert_eq!(
            streamed.to_bits(),
            from_tables.to_bits(),
            "K = {k}: {streamed} vs {from_tables}"
        );
        // One count vector (values, touched list, listed flags) and one c_k.
        assert!(calls <= 6, "K = {k}: {calls} allocations for one evaluation");
        assert!(bytes <= 16 * k as u64 + 256, "K = {k}: {bytes} bytes for one evaluation");
        assert!(entities > 100 * calls, "the corpus must tell O(1) from O(D + V)");

        // The sampler evaluates itself off its records: no copy of z either.
        let (own, calls, bytes) = measured(|| s.log_likelihood(corpus, &dv, &wv));
        assert_eq!(own.to_bits(), from_tables.to_bits(), "K = {k}: {own} vs {from_tables}");
        assert!(calls <= 6, "K = {k}: {calls} allocations for Sampler::log_likelihood");
        assert!(bytes <= 16 * k as u64 + 256, "K = {k}: {bytes} bytes for Sampler::log_likelihood");
    }
}

#[test]
fn the_sampler_holds_seven_bytes_per_token_and_evaluates_in_o_k() {
    let corpus = DatasetPreset::Tiny.generate_scaled(4);
    footprint_is_the_closed_form(&corpus);
    evaluation_streams_and_matches_the_tables_bit_for_bit(&corpus);
}
