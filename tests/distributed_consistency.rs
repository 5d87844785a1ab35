//! Distributed-vs-serial consistency: the simulated cluster must learn
//! exactly the same model as the serial reference sampler (the simulation
//! only adds accounting), the grid partition must stay balanced, and the
//! communication volume must match the analytical bound.

use warplda::prelude::*;

fn corpus() -> Corpus {
    DatasetPreset::Tiny.generate_scaled(2)
}

#[test]
fn distributed_assignments_match_the_serial_sampler() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(12);
    let config = WarpLdaConfig::with_mh_steps(2);
    let workers = 4;

    let mut dist =
        DistributedWarpLda::new(&corpus, params, config, ClusterConfig::tianhe2_like(workers), 31);
    let mut serial = WarpLda::new(&corpus, params, config, 31);
    for iter in 1..=5 {
        dist.run_iteration(&corpus, false);
        serial.run_iteration();
        assert_eq!(dist.assignments(), serial.assignments(), "iteration {iter}");
    }
}

#[test]
fn grid_partition_is_balanced_and_complete() {
    let corpus = corpus();
    let doc_view = DocMajorView::build(&corpus);
    let word_view = WordMajorView::build(&corpus, &doc_view);
    for workers in [2usize, 4, 8] {
        let grid = GridPartition::build(
            &corpus,
            &doc_view,
            &word_view,
            workers,
            PartitionStrategy::Greedy,
        );
        assert_eq!(grid.total_tokens(), corpus.num_tokens());
        assert!(
            grid.doc_phase_imbalance() < 0.1,
            "doc-phase imbalance too high for {workers} workers: {}",
            grid.doc_phase_imbalance()
        );
        assert!(
            grid.word_phase_imbalance() < 0.2,
            "word-phase imbalance too high for {workers} workers: {}",
            grid.word_phase_imbalance()
        );
    }
}

#[test]
fn communication_volume_matches_grid_bound() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(3);
    let cluster = ClusterConfig::tianhe2_like(4);
    let mut dist = DistributedWarpLda::new(&corpus, params, config, cluster, 3);
    let report = dist.run_iteration(&corpus, false);
    // One (M + 1)-topic record per off-diagonal token — a byte per topic at
    // K = 8 — and two exchanges per iteration.
    let expected =
        dist.grid().tokens_exchanged_per_phase_switch() * (config.mh_steps as u64 + 1) * 2;
    assert_eq!(report.bytes_exchanged, expected);
    assert!(report.comm_sec > 0.0);
    assert!(report.tokens_per_sec > 0.0);
}

#[test]
fn distributed_convergence_improves_likelihood() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(12);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut dist =
        DistributedWarpLda::new(&corpus, params, config, ClusterConfig::tianhe2_like(8), 5);
    let first = dist.run_iteration(&corpus, true).log_likelihood.unwrap();
    let reports = dist.run(&corpus, 20, 20);
    let last = reports.last().unwrap().log_likelihood.unwrap();
    assert!(last > first, "distributed training should improve likelihood: {first} -> {last}");
}

#[test]
fn more_workers_do_not_change_total_work() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(1);
    for workers in [1usize, 2, 4] {
        let mut dist = DistributedWarpLda::new(
            &corpus,
            params,
            config,
            ClusterConfig::tianhe2_like(workers),
            7,
        );
        let r = dist.run_iteration(&corpus, false);
        assert_eq!(r.tokens_sampled, corpus.num_tokens() * 2, "workers = {workers}");
    }
}
