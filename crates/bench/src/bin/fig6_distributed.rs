//! Figure 6: distributed convergence on the ClueWeb12-subset-like preset —
//! WarpLDA (M=4) on the simulated multi-machine cluster against LightLDA
//! (M=16) as the baseline, log likelihood vs (modelled) time.
//!
//! Expected shape: WarpLDA reaches any given likelihood roughly an order of
//! magnitude sooner than LightLDA.

use warplda::dist::runner::price_iteration_log;
use warplda::prelude::*;
use warplda_bench::{full_scale, logs_to_csv_rows, run_trace, write_csv};

fn main() {
    let full = full_scale();
    let corpus = if full {
        DatasetPreset::ClueWebSubsetLike.generate()
    } else {
        DatasetPreset::ClueWebSubsetLike.generate_scaled(10)
    };
    let k = if full { 10_000 } else { 300 };
    let iterations = if full { 100 } else { 30 };
    let workers = 8;
    let params = ModelParams::paper_defaults(k);
    println!("corpus: {}", corpus.stats().table_row("ClueWeb12-subset-like"));
    println!("K = {k}, {workers} simulated machines\n");

    // Distributed WarpLDA, M = 4: one sampler worker per simulated machine
    // through the same Trainer pipeline as every other run, then priced with
    // the cluster's exchange model.
    let config = WarpLdaConfig::with_mh_steps(4);
    let cluster = ClusterConfig::tianhe2_like(workers);
    let trainer = Trainer::new(&corpus);
    let mut warp = ParallelWarpLda::new(&corpus, params, config, 3, workers);
    let measured = trainer.train(
        &TrainerConfig::new(iterations).eval_every(5),
        "WarpLDA (M=4, dist)",
        &mut warp,
    );
    let grid =
        GridPartition::for_cluster(&corpus, trainer.doc_view(), trainer.word_view(), workers);
    let warp_log = price_iteration_log(&measured, &grid, &cluster, &params, &config);

    // LightLDA baseline, M = 16, single machine (measured time).
    let mut light = LightLda::new(&corpus, params, 16, 3);
    let light_log = run_trace("LightLDA (M=16)", &mut light, &corpus, iterations, 5);

    println!("{:<22} {:>8} {:>12} {:>18}", "sampler", "iter", "time (s)", "log likelihood");
    for log in [&warp_log, &light_log] {
        for p in log.eval_points() {
            println!(
                "{:<22} {:>8} {:>12.2} {:>18.1}",
                log.name(),
                p.iteration,
                p.seconds,
                p.log_likelihood.unwrap()
            );
        }
    }

    write_csv(
        "fig6_distributed.csv",
        "sampler,iteration,seconds,log_likelihood",
        &logs_to_csv_rows(&[warp_log, light_log]),
    );
    println!("\nExpected shape (Figure 6): WarpLDA reaches the same likelihood roughly 10x sooner");
    println!("in wall-clock time than LightLDA.");
}
