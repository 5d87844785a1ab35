//! Pins the coordinator's zero-allocation steady state: after warm-up (the
//! receive buffers grow to the largest frame, the scratch buffer to the
//! largest head), a healthy `ProcessCluster::run_iteration` receives,
//! validates, routes and imports a whole iteration without touching the heap.
//!
//! A counting global allocator tallies every heap operation of this test
//! binary; the workers are separate processes and do not count. This file
//! deliberately contains a single `#[test]`: the harness runs the tests of
//! one binary concurrently, so a second test would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use warplda_core::{ModelParams, Sampler, WarpLda, WarpLdaConfig};
use warplda_corpus::DatasetPreset;
use warplda_dist::{ProcessCluster, ProcessClusterConfig};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every operation is forwarded unchanged to the system allocator.
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

#[test]
fn healthy_iterations_do_not_allocate_in_the_coordinator() {
    let corpus = DatasetPreset::NyTimesLike.generate_scaled(60);
    // K = 300: two bytes per topic, frames well beyond the buffers' initial
    // capacity, so the warm-up has real growth to do.
    let params = ModelParams::paper_defaults(300);
    let config = WarpLdaConfig::with_mh_steps(2);
    for workers in [2usize, 3] {
        let mut cfg = ProcessClusterConfig::new(workers);
        cfg.worker_binary = Some(env!("CARGO_BIN_EXE_warplda-dist-worker").into());
        cfg.io_timeout = Duration::from_secs(60);
        let mut cluster = ProcessCluster::new(&corpus, params, config, 3, cfg).expect("spawn");
        let mut oracle = WarpLda::new(&corpus, params, config, 3);
        let before = ALLOC_CALLS.load(Relaxed);
        for _ in 0..2 {
            cluster.run_iteration().expect("warm-up iteration");
            oracle.run_iteration();
        }
        assert!(ALLOC_CALLS.load(Relaxed) > before, "the warm-up grows the frame buffers");

        let before = ALLOC_CALLS.load(Relaxed);
        for _ in 0..4 {
            cluster.run_iteration().expect("steady-state iteration");
        }
        let allocs = ALLOC_CALLS.load(Relaxed) - before;
        assert_eq!(allocs, 0, "{workers} workers: the coordinator allocated in steady state");

        // The iterations above did real work.
        for _ in 0..4 {
            oracle.run_iteration();
        }
        assert_eq!(cluster.assignments(), oracle.assignments());
        cluster.shutdown().expect("clean shutdown");
    }
}
