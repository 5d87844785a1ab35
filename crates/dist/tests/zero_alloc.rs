//! Pins the coordinator's zero-allocation steady state: after warm-up (the
//! receive buffers grow to the largest frame, the scratch buffer to the
//! largest head), a healthy `ProcessCluster::run_iteration` receives,
//! validates, routes and imports a whole iteration without touching the heap.
//!
//! A counting global allocator tallies every heap operation of this test
//! binary; the workers are separate processes and do not count. The counter
//! is process-wide, so the binary has no test harness (`harness = false`):
//! libtest's own thread runs beside a test and can allocate inside a
//! measured span on any schedule. `main` runs the one check on the only
//! thread there is and prints one line when it passes.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::time::Duration;

use counting_alloc::allocs_during;
use warplda_core::{ModelParams, Sampler, WarpLda, WarpLdaConfig};
use warplda_corpus::DatasetPreset;
use warplda_dist::{ProcessCluster, ProcessClusterConfig};

fn main() {
    healthy_iterations_do_not_allocate_in_the_coordinator();
    println!("test healthy_iterations_do_not_allocate_in_the_coordinator ... ok");
}

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
        let warm_up = allocs_during(|| {
            for _ in 0..2 {
                cluster.run_iteration().expect("warm-up iteration");
                oracle.run_iteration();
            }
        });
        assert!(warm_up > 0, "the warm-up grows the frame buffers");

        let allocs = allocs_during(|| {
            for _ in 0..4 {
                cluster.run_iteration().expect("steady-state iteration");
            }
        });
        assert_eq!(allocs, 0, "{workers} workers: the coordinator allocated in steady state");

        // The iterations above did real work.
        for _ in 0..4 {
            oracle.run_iteration();
        }
        assert_eq!(cluster.assignments(), oracle.assignments());
        cluster.shutdown().expect("clean shutdown");
    }
}
