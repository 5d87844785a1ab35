//! Distributed WarpLDA on a 2-process cluster (`warplda-dist-worker`
//! children over loopback TCP): the grid's balance and exchange volume, then
//! a run checked bit-for-bit against the serial sampler. The bytes every
//! iteration puts on the sockets must equal the closed form of the exchange
//! plan, or the run exits non-zero. The worker binary must be built first
//! (`cargo build --release -p warplda-dist --bin warplda-dist-worker`);
//! without it the cluster refuses to start with an error that says so.
//!
//! With `--fault-smoke`, a 4-process cluster is trained under a scripted
//! fault plan — one worker killed outright, another hung mid-iteration — and
//! the run must recover both and still finish bit-identical to the fault-free
//! serial sampler. CI runs this as the fault-injection smoke test.
//!
//! ```bash
//! cargo run --release --example distributed_run
//! cargo run --release --example distributed_run -- --fault-smoke
//! ```

use std::time::Duration;

use warplda::prelude::*;

fn run_cluster(corpus: &Corpus, params: ModelParams, config: WarpLdaConfig, seed: u64) {
    let workers = 2;
    let iterations = 5;
    println!("\n{workers}-process cluster (loopback TCP):");
    let mut cluster =
        ProcessCluster::new(corpus, params, config, seed, ProcessClusterConfig::new(workers))
            .unwrap_or_else(|e| {
                eprintln!("cannot spawn the process cluster: {e}");
                std::process::exit(1);
            });
    let grid = cluster.grid();
    println!(
        "grid: doc-phase imbalance {:.4}, word-phase imbalance {:.4}, \
         {} of {} tokens cross owners per phase switch",
        grid.doc_phase_imbalance(),
        grid.word_phase_imbalance(),
        grid.tokens_exchanged_per_phase_switch(),
        grid.total_tokens(),
    );
    let mut oracle = WarpLda::new(corpus, params, config, seed);
    let tokens = corpus.num_tokens() as f64;
    let expected = cluster.plan().iteration_wire_bytes(params.num_topics, config.mh_steps);
    println!("{:<6} {:>14} {:>14} {:>14}", "iter", "Mtokens/s", "wire KB", "wire B/token");
    for _ in 0..iterations {
        let report = cluster.run_iteration().unwrap_or_else(|e| {
            eprintln!("distributed iteration failed: {e}");
            std::process::exit(1);
        });
        oracle.run_iteration();
        println!(
            "{:<6} {:>14.2} {:>14.1} {:>14.3}",
            report.iteration,
            tokens / report.wall_sec.max(1e-12) / 1e6,
            report.bytes_exchanged as f64 / 1e3,
            report.bytes_exchanged as f64 / tokens,
        );
        if report.bytes_exchanged != expected {
            eprintln!(
                "iteration {} exchanged {} bytes but the plan's closed form says {expected}",
                report.iteration, report.bytes_exchanged
            );
            std::process::exit(1);
        }
    }
    println!(
        "every iteration exchanged the closed form of the plan: {expected} B = {:.3} B/token \
         ({} B records)",
        expected as f64 / tokens,
        warplda::dist::protocol::record_wire_bytes(params.num_topics, config.mh_steps),
    );
    assert_eq!(
        cluster.assignments(),
        oracle.assignments(),
        "multi-process training diverged from the serial oracle"
    );
    println!(
        "after {iterations} iterations the multi-process assignments are bit-identical \
         to the serial sampler's"
    );
    cluster.shutdown().unwrap_or_else(|e| {
        eprintln!("shutdown failed: {e}");
        std::process::exit(1);
    });
}

/// Fault-injection smoke test: kill one worker, hang another, and demand a
/// final model bit-identical to a run that never saw a fault.
fn run_fault_smoke(corpus: &Corpus, config: WarpLdaConfig, seed: u64) {
    let workers = 4;
    let iterations = 6;
    let params = ModelParams::paper_defaults(20);
    println!("\nfault-injection smoke: {workers}-process cluster, {iterations} iterations");
    println!("  scripted: worker 1 killed in iteration 2 (word phase),");
    println!("            worker 0 hung in iteration 4 (doc phase, outlives liveness timeout)");

    let mut cfg = ProcessClusterConfig::new(workers);
    cfg.heartbeat_interval = Duration::from_millis(100);
    cfg.liveness_timeout = Duration::from_secs(2);
    cfg.fault_plan =
        FaultPlan::new().crash(1, 2, FaultPhase::Word).hang(0, 4, FaultPhase::Doc, 600_000);

    let mut cluster = ProcessCluster::new(corpus, params, config, seed, cfg).unwrap_or_else(|e| {
        eprintln!("cannot spawn the process cluster: {e}");
        std::process::exit(1);
    });
    let mut oracle = WarpLda::new(corpus, params, config, seed);
    for _ in 0..iterations {
        let report = cluster.run_iteration().unwrap_or_else(|e| {
            eprintln!("iteration did not survive the scripted faults: {e}");
            std::process::exit(1);
        });
        oracle.run_iteration();
        let note = match report.recoveries {
            0 => String::new(),
            n => format!("   <- recovered {n} worker(s)"),
        };
        println!("  iteration {:>2} complete{note}", report.iteration);
    }

    assert_eq!(cluster.recoveries(), 2, "expected exactly two recoveries (one kill, one hang)");
    assert_eq!(
        cluster.assignments(),
        oracle.assignments(),
        "recovered training diverged from the fault-free oracle"
    );
    assert_eq!(cluster.topic_counts(), oracle.topic_counts(), "topic counts diverged");
    cluster.shutdown().unwrap_or_else(|e| {
        eprintln!("shutdown failed: {e}");
        std::process::exit(1);
    });
    println!("survived 1 kill + 1 hang; final assignments bit-identical to the fault-free oracle");
}

fn main() {
    let corpus = DatasetPreset::Tiny.generate();
    let params = ModelParams::paper_defaults(20);
    let config = WarpLdaConfig::with_mh_steps(2);
    println!("corpus: {}", corpus.stats().table_row("tiny-synthetic"));

    if std::env::args().any(|a| a == "--fault-smoke") {
        run_fault_smoke(&corpus, config, 7);
    } else {
        run_cluster(&corpus, params, config, 7);
    }
}
