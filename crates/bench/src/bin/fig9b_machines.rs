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

    // `scaling_sweep` measures single-machine throughput (tokens sampled per
    // second of compute; WarpLDA visits every token twice per iteration) and
    // prices every machine count with it. One machine exchanges nothing, so
    // its modeled throughput is the measured one.
    let points = warplda::dist::runner::scaling_sweep(
        &corpus,
        params,
        config,
        &[1, 2, 4, 8, 16],
        iterations,
        5,
    );
    println!(
        "measured single-machine throughput: {:.2} Mtoken/s\n",
        points[0].tokens_per_sec / 1e6
    );

    println!(
        "{:>10} {:>14} {:>12} {:>12} {:>10}",
        "machines", "Mtoken/s", "compute ms", "comm ms", "speedup"
    );
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>10} {:>14.2} {:>12.2} {:>12.3} {:>10.2}",
            p.workers,
            p.tokens_per_sec / 1e6,
            p.compute_sec * 1e3,
            p.comm_sec * 1e3,
            p.speedup
        );
        rows.push(format!(
            "{},{:.1},{:.6},{:.6},{:.3}",
            p.workers, p.tokens_per_sec, p.compute_sec, p.comm_sec, p.speedup
        ));
    }
    write_csv("fig9b_machines.csv", "machines,tokens_per_sec,compute_sec,comm_sec,speedup", &rows);
    println!(
        "\nExpected shape (Figure 9b): close-to-linear speedup (the paper reports 13.5x at 16"
    );
    println!(
        "machines); the gap to ideal comes from partition imbalance plus the all-to-all volume."
    );
}
