//! The simulated cluster's cost model: pricing a measured training run
//! ([`price_iteration_log`]) and modeled machine-count scaling sweeps
//! (Figure 9b, [`scaling_sweep`]).
//!
//! A simulated cluster of `P` machines *is* a
//! [`ParallelWarpLda`](warplda_core::ParallelWarpLda) run — every visit draws
//! from its entity's own RNG stream, so the assignments are those of the
//! serial [`WarpLda`] for any worker count — plus accounting: the P×P
//! [`GridPartition`] says which tokens cross machine boundaries at each phase
//! switch, and the [`ClusterConfig`] prices that exchange.
//! [`price_iteration_log`] adds that accounting to the [`IterationLog`] the
//! ordinary [`Trainer`] produced.
//!
//! The simulated machines share one host's cores, so *measured* multi-worker
//! wall times say more about the host than about the cluster. The sweep
//! therefore prices each machine count analytically, the way the paper's own
//! scaling model does: measure single-machine sampling throughput once, then
//! charge each `P` (a) compute time — the slowest machine's token load over
//! the two phases at the measured per-machine throughput — and
//! (b) communication time — the off-diagonal grid volume through the
//! cluster's all-to-all model. It models the paper's *actual cluster
//! deployment*, which greedy-partitions both documents and words
//! (Section 5.3.2 / Figure 4).

use warplda_core::trainer::{IterationLog, IterationRecord};
use warplda_core::{ModelParams, Trainer, WarpLda, WarpLdaConfig};
use warplda_corpus::Corpus;
use warplda_sparse::PartitionStrategy;

use crate::cluster::{exchange_bytes_per_iteration, ClusterConfig};
use crate::grid::GridPartition;

/// Prices a measured run for a simulated cluster: `log` is what the
/// [`Trainer`] recorded for a WarpLDA sampler (any driver — they sample the
/// same chain), `grid` the partition of its corpus over `cluster.workers`
/// machines. To every iteration's measured sampling time the result adds the
/// modeled time of its two all-to-all exchanges
/// ([`exchange_bytes_per_iteration`] through
/// [`ClusterConfig::exchange_time_sec`]; the grid is static, so every
/// iteration ships the same bytes).
///
/// In the returned log `seconds` accumulates the modeled wall time (compute
/// plus communication), `phase_seconds` is the measured compute time alone,
/// and throughput counts **`2 T` tokens per iteration** — WarpLDA visits
/// every token in the word phase and again in the doc phase — where the
/// trainer's own log counts `T`. Iteration numbers and evaluations carry over.
pub fn price_iteration_log(
    log: &IterationLog,
    grid: &GridPartition,
    cluster: &ClusterConfig,
    params: &ModelParams,
    config: &WarpLdaConfig,
) -> IterationLog {
    let tokens_sampled = log.tokens_per_iteration() * 2;
    let comm_sec = cluster.exchange_time_sec(exchange_bytes_per_iteration(
        grid.tokens_exchanged_per_phase_switch(),
        params.num_topics,
        config.mh_steps,
    ));
    let mut priced = IterationLog::new(log.name(), tokens_sampled);
    let (mut measured, mut seconds) = (0.0, 0.0);
    for r in log.records() {
        let compute_sec = (r.seconds - measured).max(1e-9);
        measured = r.seconds;
        let wall_sec = compute_sec + comm_sec;
        seconds += wall_sec;
        priced.push(IterationRecord {
            seconds,
            tokens_per_sec: tokens_sampled as f64 / wall_sec,
            phase_seconds: Some(compute_sec),
            ..*r
        });
    }
    priced
}

/// One machine count of a scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Number of machines `P`.
    pub workers: usize,
    /// Modeled per-iteration compute time (slowest machine), seconds.
    pub compute_sec: f64,
    /// Modeled per-iteration communication time, seconds.
    pub comm_sec: f64,
    /// Modeled throughput, tokens/second.
    pub tokens_per_sec: f64,
    /// Throughput relative to the first point of the sweep.
    pub speedup: f64,
}

/// Prices one machine count of [`scaling_sweep`] (which the Figure 9b binary
/// prints).
///
/// Per iteration the model charges the slowest machine's two-phase token load
/// at the measured single-machine throughput, and overlaps the all-to-all
/// exchange with computation except for a `1/P` synchronization tail:
/// `wall = max(compute, comm) + comm / P`.
///
/// The returned point's `speedup` is set to `1.0`; the sweep rescales against
/// its first machine count.
fn model_point(
    total_tokens: u64,
    single_tokens_per_sec: f64,
    grid: &GridPartition,
    cluster: &ClusterConfig,
    params: &ModelParams,
    config: &WarpLdaConfig,
) -> ScalingPoint {
    let max_doc = grid.doc_phase_loads().iter().copied().max().unwrap_or(0) as f64;
    let max_word = grid.word_phase_loads().iter().copied().max().unwrap_or(0) as f64;
    let compute_sec = (max_doc + max_word) / single_tokens_per_sec;
    let bytes = exchange_bytes_per_iteration(
        grid.tokens_exchanged_per_phase_switch(),
        params.num_topics,
        config.mh_steps,
    );
    let comm_sec = cluster.exchange_time_sec(bytes);
    let wall = (compute_sec.max(comm_sec) + comm_sec / cluster.workers as f64).max(1e-12);
    ScalingPoint {
        workers: cluster.workers,
        compute_sec,
        comm_sec,
        tokens_per_sec: total_tokens as f64 * 2.0 / wall,
        speedup: 1.0,
    }
}

/// Sweeps `worker_counts` machine counts, returning one modeled point each.
///
/// Single-machine throughput is measured on this host over `iterations`
/// iterations of the serial sampler (seeded with `seed`); each machine count
/// is then priced with the real greedy grid partition of the corpus and the
/// Tianhe-2-like network model. `speedup` is relative to the first entry of
/// `worker_counts`.
///
/// # Panics
/// Panics if `worker_counts` is empty or `iterations` is zero.
pub fn scaling_sweep(
    corpus: &Corpus,
    params: ModelParams,
    config: WarpLdaConfig,
    worker_counts: &[usize],
    iterations: usize,
    seed: u64,
) -> Vec<ScalingPoint> {
    assert!(!worker_counts.is_empty(), "need at least one machine count");
    assert!(iterations >= 1, "need at least one measurement iteration");

    // Measured single-machine sampling throughput (tokens/sec of compute;
    // WarpLDA visits every token twice per iteration). The first iteration
    // pays allocation costs, so it runs as unmeasured warm-up.
    let trainer = Trainer::new(corpus);
    let mut single = WarpLda::new(corpus, params, config, seed);
    let single_tps =
        trainer.measure_throughput(&mut single, iterations, 1, corpus.num_tokens() * 2);

    let mut points = Vec::with_capacity(worker_counts.len());
    let mut baseline: Option<f64> = None;
    for &workers in worker_counts {
        let grid = GridPartition::build(
            corpus,
            trainer.doc_view(),
            trainer.word_view(),
            workers,
            PartitionStrategy::Greedy,
        );
        let cluster = ClusterConfig::tianhe2_like(workers);
        let mut point =
            model_point(corpus.num_tokens(), single_tps, &grid, &cluster, &params, &config);
        let base = *baseline.get_or_insert(point.tokens_per_sec);
        point.speedup = point.tokens_per_sec / base;
        points.push(point);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::{DatasetPreset, DocMajorView, WordMajorView};

    #[test]
    fn communication_volume_sweep_matches_analytical_bound() {
        // Property-style sweep over workers x mh_steps: every iteration must
        // be charged (off-diagonal tokens) * (M + 1) one-byte topics (K = 4)
        // * 2 switches through the cluster's exchange model, on top of its
        // measured time, for every configuration.
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let dv = DocMajorView::build(&corpus);
        let wv = WordMajorView::build(&corpus, &dv);
        let params = ModelParams::paper_defaults(4);
        let tokens = corpus.num_tokens();
        // A trainer's log: T tokens per iteration, cumulative measured
        // seconds, the second of three iterations evaluated.
        let compute = [0.5, 0.25, 0.125];
        let mut measured = IterationLog::new("run", tokens);
        let mut seconds = 0.0;
        for (i, c) in compute.iter().enumerate() {
            seconds += c;
            measured.push(IterationRecord {
                iteration: 10 + i as u64,
                seconds,
                tokens_per_sec: tokens as f64 / c,
                phase_seconds: None,
                log_likelihood: (i == 1).then_some(-123.0),
            });
        }
        for workers in [1usize, 2, 3, 4, 6, 8] {
            let grid = GridPartition::build(&corpus, &dv, &wv, workers, PartitionStrategy::Greedy);
            let cluster = ClusterConfig::tianhe2_like(workers);
            for mh_steps in [1usize, 2, 3, 4, 8] {
                let config = WarpLdaConfig::with_mh_steps(mh_steps);
                let priced = price_iteration_log(&measured, &grid, &cluster, &params, &config);
                let bytes = grid.tokens_exchanged_per_phase_switch() * (mh_steps as u64 + 1) * 2;
                let comm = cluster.exchange_time_sec(bytes);
                assert_eq!(comm > 0.0, workers > 1);
                assert_eq!(priced.name(), "run");
                assert_eq!(priced.tokens_per_iteration(), tokens * 2);
                assert_eq!(priced.records().len(), 3);
                let mut wall = 0.0;
                for (r, c) in priced.records().iter().zip(compute) {
                    let what = format!("workers = {workers}, mh_steps = {mh_steps}: {r:?}");
                    wall += c + comm;
                    assert!((r.seconds - wall).abs() < 1e-12, "{what}");
                    assert!((r.phase_seconds.unwrap() - c).abs() < 1e-12, "{what}");
                    let tps = (tokens * 2) as f64 / (c + comm);
                    assert!((r.tokens_per_sec / tps - 1.0).abs() < 1e-9, "{what}");
                }
                assert_eq!(priced.eval_points().map(|r| r.iteration).collect::<Vec<_>>(), [11]);
                assert_eq!(priced.likelihood_at(11), Some(-123.0));
            }
        }
    }

    #[test]
    fn sweep_reports_one_point_per_machine_count() {
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let params = ModelParams::paper_defaults(4);
        let config = WarpLdaConfig::with_mh_steps(1);
        let points = scaling_sweep(&corpus, params, config, &[1, 2, 4], 1, 3);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].workers, 1);
        assert!((points[0].speedup - 1.0).abs() < 1e-12, "first point is the baseline");
        for p in &points {
            assert!(p.tokens_per_sec > 0.0);
            assert!(p.compute_sec > 0.0);
            assert!(p.comm_sec >= 0.0);
        }
    }

    #[test]
    fn compute_time_shrinks_with_more_machines() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let params = ModelParams::paper_defaults(4);
        let config = WarpLdaConfig::with_mh_steps(1);
        let points = scaling_sweep(&corpus, params, config, &[1, 8], 1, 3);
        assert!(
            points[1].compute_sec < points[0].compute_sec,
            "8 machines should model less per-machine compute than 1"
        );
    }

    #[test]
    #[should_panic(expected = "at least one machine count")]
    fn empty_sweep_rejected() {
        let corpus = DatasetPreset::Tiny.generate_scaled(16);
        let _ = scaling_sweep(
            &corpus,
            ModelParams::paper_defaults(4),
            WarpLdaConfig::with_mh_steps(1),
            &[],
            1,
            1,
        );
    }
}
