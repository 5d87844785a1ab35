//! Figure 9(b): multi-machine speedup of distributed WarpLDA on the simulated
//! cluster — modelled throughput and speedup vs number of machines on the
//! PubMed-like preset.
//!
//! The model: single-machine sampling throughput is *measured* on this host;
//! each machine-count point then charges (a) compute time = the largest
//! per-machine token load (from the real greedy grid partition) divided by the
//! measured single-machine throughput and (b) communication time = the
//! all-to-all volume of off-diagonal grid cells through the Table-like network
//! model. Expected shape: near-linear scaling (the paper reports 13.5x on 16
//! machines), bending where communication and residual imbalance bite.

use warplda::prelude::*;
use warplda_bench::{full_scale, write_csv};

fn main() {
    let full = full_scale();
    let corpus = if full {
        DatasetPreset::PubMedLike.generate()
    } else {
        DatasetPreset::PubMedLike.generate_scaled(10)
    };
    let k = if full { 10_000 } else { 400 };
    let iterations = if full { 10 } else { 4 };
    let params = ModelParams::paper_defaults(k);
    let config = WarpLdaConfig::with_mh_steps(1);
    println!("corpus: {}", corpus.stats().table_row("PubMed-like"));
    println!("K = {k}, M = 1\n");

    // Measure single-machine throughput (tokens sampled per second of
    // compute; WarpLDA visits every token twice per iteration) through the
    // unified pipeline, with one warm-up iteration.
    let trainer = Trainer::new(&corpus);
    let mut single = WarpLda::new(&corpus, params, config, 5);
    let single_tps =
        trainer.measure_throughput(&mut single, iterations, 1, corpus.num_tokens() * 2);
    println!("measured single-machine throughput: {:.2} Mtoken/s\n", single_tps / 1e6);

    let (doc_view, word_view) = (trainer.doc_view(), trainer.word_view());

    let worker_counts = [1usize, 2, 4, 8, 16];
    println!(
        "{:>10} {:>14} {:>12} {:>12} {:>10}",
        "machines", "Mtoken/s", "compute ms", "comm ms", "speedup"
    );
    let mut rows = Vec::new();
    let mut baseline = None;
    for &p in &worker_counts {
        let grid = GridPartition::build(&corpus, doc_view, word_view, p, PartitionStrategy::Greedy);
        let cluster = ClusterConfig::tianhe2_like(p);
        // The canonical cost model shared with `warplda::dist::runner`.
        let point = warplda::dist::runner::model_point(
            corpus.num_tokens(),
            single_tps,
            &grid,
            &cluster,
            &params,
            &config,
        );
        let (tps, compute_sec, comm_sec) =
            (point.tokens_per_sec, point.compute_sec, point.comm_sec);
        let base = *baseline.get_or_insert(tps);
        println!(
            "{:>10} {:>14.2} {:>12.2} {:>12.3} {:>10.2}",
            p,
            tps / 1e6,
            compute_sec * 1e3,
            comm_sec * 1e3,
            tps / base
        );
        rows.push(format!("{p},{tps:.1},{compute_sec:.6},{comm_sec:.6},{:.3}", tps / base));
    }
    write_csv("fig9b_machines.csv", "machines,tokens_per_sec,compute_sec,comm_sec,speedup", &rows);
    println!(
        "\nExpected shape (Figure 9b): close-to-linear speedup (the paper reports 13.5x at 16"
    );
    println!(
        "machines); the gap to ideal comes from partition imbalance plus the all-to-all volume."
    );
}
