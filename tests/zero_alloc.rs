//! Pins the zero-allocation guarantees of the WarpLDA hot paths: training
//! iterations *and* serving-side fold-in inference.
//!
//! A counting global allocator tallies every heap operation of this test
//! binary. Row and column lengths are known when a sampler is built, so its
//! one O(K) count vector and its alias/scratch buffers are at their
//! high-water marks from the start: serial iterations — the first one
//! included — must perform **zero** heap allocations, parallel iterations
//! exactly the scoped-thread spawns (one number, the same every iteration,
//! whatever the corpus size and whichever worker claims which chunk), and
//! steady-state inference over a frozen model must be **zero allocations per
//! request**.
//!
//! This file deliberately contains a single `#[test]`: the harness runs the
//! tests of one binary concurrently, so a second test would pollute the
//! global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use warplda::prelude::*;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Relaxed);
    f();
    ALLOC_CALLS.load(Relaxed) - before
}

#[test]
fn steady_state_iterations_do_not_allocate() {
    // K chosen above 2·L for both documents and most words: the sparse
    // shape, where a visit touches few of the count vector's K slots and a
    // word's alias table holds fewer bins than it was sized for.
    let params = ModelParams::new(100, 0.5, 0.05);
    let config = WarpLdaConfig::with_mh_steps(2);

    // --- Serial: strictly zero allocations, from the first iteration on. ---
    for scale in [4usize, 1] {
        let corpus = DatasetPreset::Tiny.generate_scaled(scale);
        let mut sampler = WarpLda::new(&corpus, params, config, 7);
        let allocs = allocs_during(|| {
            for _ in 0..5 {
                sampler.run_iteration();
            }
        });
        assert_eq!(allocs, 0, "serial WarpLDA must not allocate (corpus scale 1/{scale})");
        // The iterations above must still be doing real work.
        assert_eq!(sampler.iterations(), 5);
    }

    // --- Parallel: worker scratch is complete at construction, so the only
    // allocations are the scoped-thread spawns — one number, whichever
    // worker first meets which row length, and the same for 4x the tokens. ---
    let mut per_iteration = Vec::new();
    for scale in [4usize, 1] {
        let corpus = DatasetPreset::Tiny.generate_scaled(scale);
        let mut sampler = ParallelWarpLda::new(&corpus, params, config, 7, 4);
        per_iteration.extend((0..4).map(|_| allocs_during(|| sampler.run_iteration())));
    }
    assert!(
        per_iteration[0] <= 64,
        "parallel WarpLDA should only pay the thread spawns, got {per_iteration:?}"
    );
    assert!(
        per_iteration.iter().all(|&a| a == per_iteration[0]),
        "parallel allocations must be one number: {per_iteration:?}"
    );

    // --- Serving: steady-state fold-in inference is zero allocations per
    // request. The first request grows the scratch (token assignments, c_d,
    // θ, top list) to its high-water mark; every later request — including
    // ones for different documents and seeds — reuses it. ---
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let mut sampler = WarpLda::new(&corpus, params, config, 7);
    for _ in 0..3 {
        sampler.run_iteration();
    }
    let model = TopicModel::freeze_sampler(&sampler, &corpus);
    let engine = InferenceEngine::new(&model, InferConfig::default());
    let docs: Vec<Vec<u32>> = (0..8usize)
        .map(|i| (0..4 + i).map(|j| ((i * 31 + j * 7) % corpus.vocab_size()) as u32).collect())
        .collect();
    let mut scratch = InferScratch::new();
    // Warm-up on the *largest* request shapes so the buffers reach their
    // high-water marks.
    for (i, doc) in docs.iter().enumerate() {
        engine.infer_into(doc, i as u64, &mut scratch);
    }
    let allocs = allocs_during(|| {
        for round in 0..3u64 {
            for (i, doc) in docs.iter().enumerate() {
                engine.infer_into(doc, round * 100 + i as u64, &mut scratch);
            }
        }
    });
    assert_eq!(allocs, 0, "steady-state inference must not allocate per request");
    // The requests above did real work: θ is a fresh distribution.
    let total: f64 = scratch.theta().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}
