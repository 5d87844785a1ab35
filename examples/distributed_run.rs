//! Distributed WarpLDA on a 2-process cluster (`warplda-dist-worker`
//! children over loopback TCP): the grid's balance and exchange volume, then
//! a run checked bit-for-bit against the serial sampler. Both train through
//! the one `Trainer` loop, which records each iteration's bytes on the wire
//! and likelihood; the bytes must equal the closed form of the exchange plan,
//! or the run exits non-zero. The worker binary must be built first
//! (`cargo build --release -p warplda-dist --bin warplda-dist-worker`);
//! without it the cluster refuses to start with an error that says so.
//!
//! With `--fault-smoke`, a 4-process cluster is trained under a scripted
//! fault plan — one worker killed outright, another hung mid-iteration, then
//! two killed in the same phase of one iteration — and the run must recover
//! with one restart of every worker per failed iteration and still finish
//! bit-identical to the fault-free serial sampler. CI runs this as the
//! fault-injection smoke test.
//!
//! ```bash
//! cargo run --release --example distributed_run
//! cargo run --release --example distributed_run -- --fault-smoke
//! ```

use std::time::Duration;

use warplda::prelude::*;

/// Exits with `message` and `e` when a cluster run fails.
fn or_exit<T>(result: Result<T, DistError>, message: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{message}: {e}");
        std::process::exit(1);
    })
}

fn run_cluster(corpus: &Corpus, params: ModelParams, config: WarpLdaConfig, seed: u64) {
    let workers = 2;
    let iterations = 5;
    println!("\n{workers}-process cluster (loopback TCP):");
    let mut cluster = or_exit(
        ProcessCluster::new(corpus, params, config, seed, ProcessClusterConfig::new(workers)),
        "cannot spawn the process cluster",
    );
    let grid = cluster.grid();
    println!(
        "grid: doc-phase imbalance {:.4}, word-phase imbalance {:.4}, \
         {} of {} tokens cross owners per phase switch",
        grid.doc_phase_imbalance(),
        grid.word_phase_imbalance(),
        grid.tokens_exchanged_per_phase_switch(),
        grid.total_tokens(),
    );

    // The cluster and the serial oracle train through the same loop, each
    // evaluated after every iteration.
    let trainer = Trainer::new(corpus);
    let schedule = TrainerConfig::new(iterations).eval_every(1);
    let log = or_exit(
        trainer.train_checkpointed(&schedule, "cluster", &mut cluster, None),
        "distributed training failed",
    )
    .log;
    let mut oracle = WarpLda::new(corpus, params, config, seed);
    let oracle_log = trainer.train(&schedule, &mut oracle);

    let tokens = corpus.num_tokens() as f64;
    let expected = cluster.plan().iteration_wire_bytes(params.num_topics, config.mh_steps);
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>18}",
        "iter", "Mtokens/s", "wire KB", "wire B/token", "log likelihood"
    );
    let rows: String = log
        .records()
        .iter()
        .map(|r| {
            format!(
                "{:<6} {:>14.2} {:>14.1} {:>14.3} {:>18.1}\n",
                r.iteration,
                r.tokens_per_sec / 1e6,
                r.bytes_exchanged as f64 / 1e3,
                r.bytes_exchanged as f64 / tokens,
                r.log_likelihood.unwrap_or(f64::NAN),
            )
        })
        .collect();
    print!("{rows}");
    if let Some(r) = log.records().iter().find(|r| r.bytes_exchanged != expected) {
        eprintln!(
            "iteration {} exchanged {} bytes but the plan's closed form says {expected}",
            r.iteration, r.bytes_exchanged
        );
        std::process::exit(1);
    }
    println!(
        "every iteration exchanged the closed form of the plan: {expected} B = {:.3} B/token",
        expected as f64 / tokens,
    );
    assert_eq!(
        cluster.assignments(),
        oracle.assignments(),
        "multi-process training diverged from the serial oracle"
    );
    let bits = |log: &IterationLog| -> Vec<u64> {
        log.eval_points().filter_map(|r| r.log_likelihood).map(f64::to_bits).collect()
    };
    assert_eq!(bits(&log), bits(&oracle_log), "the likelihood curves differ");
    println!(
        "after {iterations} iterations the multi-process assignments and likelihood curve are \
         bit-identical to the serial sampler's"
    );
    or_exit(cluster.shutdown(), "shutdown failed");
}

/// Fault-injection smoke test: kill one worker, hang another, kill two at
/// once, and demand a final model bit-identical to a run that never saw a
/// fault.
fn run_fault_smoke(corpus: &Corpus, config: WarpLdaConfig, seed: u64) {
    let workers = 4;
    let iterations = 6;
    let params = ModelParams::paper_defaults(20);
    println!("\nfault-injection smoke: {workers}-process cluster, {iterations} iterations");
    println!("  scripted: worker 1 killed in iteration 2 (word phase),");
    println!("            worker 0 hung in iteration 4 (doc phase, outlives liveness timeout),");
    println!("            workers 2 and 3 killed in iteration 5 (word phase)");

    let mut cfg = ProcessClusterConfig::new(workers);
    cfg.liveness_timeout = Duration::from_secs(2);
    cfg.fault_plan = FaultPlan::new()
        .crash(1, 2, FaultPhase::Word)
        .hang(0, 4, FaultPhase::Doc, 600_000)
        .crash(2, 5, FaultPhase::Word)
        .crash(3, 5, FaultPhase::Word);

    let mut cluster = or_exit(
        ProcessCluster::new(corpus, params, config, seed, cfg),
        "cannot spawn the process cluster",
    );
    let trainer = Trainer::new(corpus);
    let schedule = TrainerConfig::sampling_only(iterations);
    let log = or_exit(
        trainer.train_checkpointed(&schedule, "fault-smoke", &mut cluster, None),
        "training did not survive the scripted faults",
    )
    .log;
    let mut oracle = WarpLda::new(corpus, params, config, seed);
    trainer.train(&schedule, &mut oracle);

    let rows: String = log
        .records()
        .iter()
        .map(|r| {
            let note = match r.recoveries {
                0 => String::new(),
                1 => "   <- cluster restarted".to_string(),
                n => format!("   <- cluster restarted {n} times"),
            };
            format!("  iteration {:>2} complete{note}\n", r.iteration)
        })
        .collect();
    print!("{rows}");

    let recorded: u64 = log.records().iter().map(|r| u64::from(r.recoveries)).sum();
    assert_eq!(recorded, cluster.recoveries(), "the records count every recovery once");
    assert_eq!(
        cluster.recoveries(),
        3,
        "expected exactly three recoveries (one kill, one hang, one double kill)"
    );
    assert_eq!(
        cluster.assignments(),
        oracle.assignments(),
        "recovered training diverged from the fault-free oracle"
    );
    assert_eq!(cluster.topic_counts(), oracle.topic_counts(), "topic counts diverged");
    or_exit(cluster.shutdown(), "shutdown failed");
    println!(
        "survived 1 kill + 1 hang + 1 double kill; final assignments bit-identical to the \
         fault-free oracle"
    );
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
