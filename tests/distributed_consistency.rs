//! Distributed-vs-serial consistency: the simulated cluster — the ordinary
//! `Trainer` over a `ParallelWarpLda`, priced by the cluster's cost model —
//! must learn exactly the same model as the serial reference sampler (the
//! simulation only adds accounting), the grid partition must stay balanced,
//! and the communication volume must match the analytical bound.

use warplda::dist::runner::price_iteration_log;
use warplda::prelude::*;

fn corpus() -> Corpus {
    DatasetPreset::Tiny.generate_scaled(2)
}

/// Trains on `workers` simulated machines under `schedule` and prices the
/// run; returns the sampler, the grid and the priced log.
fn simulate(
    corpus: &Corpus,
    params: ModelParams,
    config: WarpLdaConfig,
    workers: usize,
    seed: u64,
    schedule: &TrainerConfig,
) -> (ParallelWarpLda, GridPartition, IterationLog) {
    let trainer = Trainer::new(corpus);
    let mut sampler = ParallelWarpLda::new(corpus, params, config, seed, workers);
    let measured = trainer.train(schedule, "dist", &mut sampler);
    let grid = GridPartition::for_cluster(corpus, trainer.doc_view(), trainer.word_view(), workers);
    let cluster = ClusterConfig::tianhe2_like(workers);
    let log = price_iteration_log(&measured, &grid, &cluster, &params, &config);
    (sampler, grid, log)
}

#[test]
fn distributed_assignments_match_the_serial_sampler() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(12);
    let config = WarpLdaConfig::with_mh_steps(2);

    let (dist, _, log) = simulate(&corpus, params, config, 4, 31, &TrainerConfig::sampling_only(5));
    let mut serial = WarpLda::new(&corpus, params, config, 31);
    for _ in 0..5 {
        serial.run_iteration();
    }
    assert_eq!(log.records().len(), 5);
    assert_eq!(dist.assignments(), serial.assignments());
    assert_eq!(dist.topic_counts(), serial.topic_counts());
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
    let (_, grid, log) = simulate(&corpus, params, config, 4, 3, &TrainerConfig::sampling_only(1));
    // One (M + 1)-topic record per off-diagonal token — a byte per topic at
    // K = 8 — and two exchanges per iteration, charged on top of the
    // measured compute time.
    let bytes = grid.tokens_exchanged_per_phase_switch() * (config.mh_steps as u64 + 1) * 2;
    let comm_sec = ClusterConfig::tianhe2_like(4).exchange_time_sec(bytes);
    assert!(bytes > 0 && comm_sec > 0.0);
    let r = log.records()[0];
    assert!((r.seconds - r.phase_seconds.unwrap() - comm_sec).abs() < 1e-12);
    assert!(r.tokens_per_sec > 0.0);
}

#[test]
fn distributed_convergence_improves_likelihood() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(12);
    let config = WarpLdaConfig::with_mh_steps(2);
    let schedule = TrainerConfig::new(21).eval_every(1);
    let (_, _, log) = simulate(&corpus, params, config, 8, 5, &schedule);
    let (first, last) = (log.likelihood_at(1).unwrap(), log.final_ll());
    assert!(last > first, "distributed training should improve likelihood: {first} -> {last}");
}

#[test]
fn more_workers_do_not_change_total_work() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(1);
    for workers in [1usize, 2, 4] {
        let (_, _, log) =
            simulate(&corpus, params, config, workers, 7, &TrainerConfig::sampling_only(1));
        assert_eq!(log.tokens_per_iteration(), corpus.num_tokens() * 2, "workers = {workers}");
    }
}
