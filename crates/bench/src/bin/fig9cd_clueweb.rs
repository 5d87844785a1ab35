//! Figure 9(c, d): the headline capacity run — convergence and throughput of
//! distributed WarpLDA on the (scaled) ClueWeb12-like corpus with the largest
//! topic count the quick/full mode affords, plus the analytical extrapolation
//! to the paper's 256-machine / 11G token-per-second configuration.
//!
//! Expected shape: (c) the likelihood keeps improving smoothly over the whole
//! run; (d) the per-iteration throughput is roughly flat (slightly improving
//! as the counts sparsify), which is what makes the time-to-converge
//! predictable.

use warplda::dist::runner::price_iteration_log;
use warplda::prelude::*;
use warplda_bench::{full_scale, write_csv};

fn main() {
    let full = full_scale();
    let corpus = if full {
        DatasetPreset::ClueWebSubsetLike.generate()
    } else {
        DatasetPreset::ClueWebSubsetLike.generate_scaled(10)
    };
    // The paper learns K = 10^6 topics on 639M documents; the scaled run keeps
    // the same topics-per-document ratio within laptop memory.
    let k = if full { 20_000 } else { 1000 };
    let iterations = if full { 150 } else { 40 };
    let workers = 16;
    let params = ModelParams::new(k, 50.0 / k as f64, 0.001); // beta = 0.001 as in Section 6.4
    let config = WarpLdaConfig::with_mh_steps(1);
    let cluster = ClusterConfig::tianhe2_like(workers);
    println!("corpus: {}", corpus.stats().table_row("ClueWeb12-like (scaled)"));
    println!("K = {k}, M = 1, beta = 0.001, {workers} simulated machines\n");

    // One sampler worker per simulated machine through the ordinary Trainer
    // (evaluating every 5 iterations), priced with the cluster's exchange
    // model.
    let trainer = Trainer::new(&corpus);
    let mut sampler = ParallelWarpLda::new(&corpus, params, config, 7, workers);
    let measured = trainer.train(
        &TrainerConfig::new(iterations).eval_every(5),
        "WarpLDA (dist)",
        &mut sampler,
    );
    let grid =
        GridPartition::for_cluster(&corpus, trainer.doc_view(), trainer.word_view(), workers);
    let log = price_iteration_log(&measured, &grid, &cluster, &params, &config);

    println!("{:>6} {:>14} {:>14} {:>18}", "iter", "time (s)", "Gtoken/s", "log likelihood");
    for p in log.eval_points() {
        println!(
            "{:>6} {:>14.2} {:>14.4} {:>18.1}",
            p.iteration,
            p.seconds,
            p.tokens_per_sec / 1e9,
            p.log_likelihood.unwrap()
        );
    }
    let rows: Vec<String> = log
        .records()
        .iter()
        .map(|p| {
            format!(
                "{},{:.4},{:.1},{}",
                p.iteration,
                p.seconds,
                p.tokens_per_sec,
                p.log_likelihood.map_or(String::new(), |l| format!("{l:.3}"))
            )
        })
        .collect();
    write_csv("fig9cd_clueweb.csv", "iteration,seconds,tokens_per_sec,log_likelihood", &rows);

    // Throughput context: the simulated machines share this host's physical
    // cores, so the honest per-core number divides by the host core count. A
    // naive extrapolation to the paper's 256×24-core cluster is printed as an
    // upper bound only — the paper's run uses K = 10^6, where every MH step is
    // substantially more expensive than at the scaled K used here.
    let records = log.records();
    let mean_tps: f64 =
        records.iter().map(|r| r.tokens_per_sec).sum::<f64>() / records.len().max(1) as f64;
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let per_core = mean_tps / host_cores as f64;
    let extrapolated = per_core * 256.0 * 24.0 * 0.8;
    println!(
        "\nmean throughput on this host: {:.2} Mtoken/s across {host_cores} core(s) ({:.2} Mtoken/s per core)",
        mean_tps / 1e6,
        per_core / 1e6
    );
    println!(
        "naive upper-bound extrapolation to 256 machines x 24 cores at 80% efficiency: {:.1} Gtoken/s \
         (paper measures 11 Gtoken/s at K = 10^6)",
        extrapolated / 1e9
    );
    println!(
        "\nExpected shape (Figure 9c/d): monotone likelihood improvement over the whole run and"
    );
    println!("an approximately flat throughput curve across iterations.");
}
