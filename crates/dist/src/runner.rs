//! Modeled machine-count scaling sweeps (Figure 9b).
//!
//! The simulated machines of [`DistributedWarpLda`](crate::DistributedWarpLda)
//! share one host's cores, so *measured* multi-worker wall times say more
//! about the host than about the cluster. The sweep therefore prices each
//! machine count analytically, the way the paper's own scaling model does:
//! measure single-machine sampling throughput once, then charge each `P`
//! (a) compute time — the slowest machine's token load over the two phases at
//! the measured per-machine throughput — and (b) communication time — the
//! off-diagonal grid volume through the cluster's all-to-all model.
//!
//! Unlike [`DistributedWarpLda`](crate::DistributedWarpLda), whose grid mirrors
//! the shared-memory execution it accounts for, the sweep models the paper's
//! *actual cluster deployment*, which greedy-partitions both documents and
//! words (Section 5.3.2 / Figure 4).

use warplda_core::{ModelParams, Trainer, WarpLda, WarpLdaConfig};
use warplda_corpus::Corpus;
use warplda_sparse::PartitionStrategy;

use crate::cluster::{exchange_bytes_per_iteration, ClusterConfig};
use crate::grid::GridPartition;

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

/// Prices one machine count: the canonical cost model shared by
/// [`scaling_sweep`] and the Figure 9b binary, so the library API and the
/// harness always agree.
///
/// Per iteration the model charges the slowest machine's two-phase token load
/// at the measured single-machine throughput, and overlaps the all-to-all
/// exchange with computation except for a `1/P` synchronization tail:
/// `wall = max(compute, comm) + comm / P`.
///
/// The returned point's `speedup` is set to `1.0`; callers comparing several
/// machine counts rescale against their chosen baseline.
pub fn model_point(
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
    use warplda_corpus::DatasetPreset;

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
