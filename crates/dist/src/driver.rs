//! The distributed WarpLDA driver.
//!
//! [`DistributedWarpLda`] executes the sampler exactly as the shared-memory
//! [`ParallelWarpLda`] does — each simulated machine is one worker visiting
//! disjoint documents (doc phases) and words (word phases) — and adds the
//! distributed bookkeeping on top: the P×P [`GridPartition`] says which tokens cross machine boundaries
//! at each phase switch, and the [`ClusterConfig`] prices that exchange.
//!
//! Because the execution *is* the shared-memory execution, the assignments
//! after any number of iterations are bit-identical to the serial `WarpLda`
//! with the same seed, for any worker count; the integration suite
//! (`tests/distributed_consistency.rs`) pins that property down.

use std::time::Instant;

use warplda_core::trainer::{IterationLog, IterationRecord};
use warplda_core::{ModelParams, ParallelWarpLda, Sampler, WarpLdaConfig};
use warplda_corpus::{Corpus, DocMajorView, WordMajorView};
use warplda_sparse::PartitionStrategy;

use crate::cluster::{exchange_bytes_per_iteration, ClusterConfig};
use crate::grid::GridPartition;

/// Accounting for one distributed iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration number, 1-based.
    pub iteration: u64,
    /// Tokens sampled this iteration: every token is visited in the word
    /// phase and again in the doc phase, so `2 * T`.
    pub tokens_sampled: u64,
    /// Bytes crossing the network this iteration: the off-diagonal tokens of
    /// the grid, one wire record each, shipped at both phase switches
    /// ([`exchange_bytes_per_iteration`]).
    pub bytes_exchanged: u64,
    /// Measured sampling time of the iteration on this host, seconds.
    pub compute_sec: f64,
    /// Modeled communication time of the two all-to-all exchanges, seconds.
    pub comm_sec: f64,
    /// Modeled wall time: compute plus communication.
    pub wall_sec: f64,
    /// Modeled sampling throughput, `tokens_sampled / wall_sec`.
    pub tokens_per_sec: f64,
    /// Log joint likelihood after the iteration, when evaluation was
    /// requested.
    pub log_likelihood: Option<f64>,
}

/// WarpLDA on a simulated cluster of [`ClusterConfig::workers`] machines.
pub struct DistributedWarpLda {
    shared: ParallelWarpLda,
    grid: GridPartition,
    cluster: ClusterConfig,
    /// What every iteration ships: the grid is static.
    bytes_per_iteration: u64,
    doc_view: DocMajorView,
    word_view: WordMajorView,
    reports: Vec<IterationReport>,
}

impl DistributedWarpLda {
    /// Creates a distributed sampler over `cluster.workers` simulated
    /// machines.
    ///
    /// The grid mirrors the partitions the shared-memory execution actually
    /// uses — greedy document shards for doc phases and contiguous
    /// token-balanced word ranges for word phases — so the communication
    /// accounting prices exactly the execution that runs. The underlying
    /// sampler state is identical to
    /// `ParallelWarpLda::new(corpus, params, config, seed, workers)`.
    pub fn new(
        corpus: &Corpus,
        params: ModelParams,
        config: WarpLdaConfig,
        cluster: ClusterConfig,
        seed: u64,
    ) -> Self {
        let doc_view = DocMajorView::build(corpus);
        let word_view = WordMajorView::build(corpus, &doc_view);
        let grid = GridPartition::build_with(
            corpus,
            &doc_view,
            &word_view,
            cluster.workers,
            PartitionStrategy::Greedy,
            PartitionStrategy::Dynamic,
        );
        let bytes_per_iteration = exchange_bytes_per_iteration(
            grid.tokens_exchanged_per_phase_switch(),
            params.num_topics,
            config.mh_steps,
        );
        let shared = ParallelWarpLda::new(corpus, params, config, seed, cluster.workers);
        Self {
            shared,
            grid,
            cluster,
            bytes_per_iteration,
            doc_view,
            word_view,
            reports: Vec::new(),
        }
    }

    /// The grid partition in use.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// The cluster model in use.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Number of simulated machines.
    pub fn workers(&self) -> usize {
        self.cluster.workers
    }

    /// Iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.shared.iterations()
    }

    /// Reports of all completed iterations, in order.
    pub fn reports(&self) -> &[IterationReport] {
        &self.reports
    }

    /// Current topic assignments in document-major token order — bit-identical
    /// to a [`ParallelWarpLda`] run with the same seed and worker count.
    pub fn assignments(&self) -> Vec<u32> {
        self.shared.assignments()
    }

    /// Runs one iteration (word phase + doc phase), optionally evaluating the
    /// log joint likelihood afterwards, and returns its report.
    pub fn run_iteration(&mut self, corpus: &Corpus, evaluate: bool) -> IterationReport {
        let start = Instant::now();
        self.shared.run_iteration();
        let compute_sec = start.elapsed().as_secs_f64().max(1e-9);

        let tokens_sampled = corpus.num_tokens() * 2;
        let bytes_exchanged = self.bytes_per_iteration;
        let comm_sec = self.cluster.exchange_time_sec(bytes_exchanged);
        let wall_sec = compute_sec + comm_sec;

        let log_likelihood =
            evaluate.then(|| self.shared.log_likelihood(corpus, &self.doc_view, &self.word_view));

        let report = IterationReport {
            iteration: self.shared.iterations(),
            tokens_sampled,
            bytes_exchanged,
            compute_sec,
            comm_sec,
            wall_sec,
            tokens_per_sec: tokens_sampled as f64 / wall_sec,
            log_likelihood,
        };
        self.reports.push(report.clone());
        report
    }

    /// Runs `iterations` iterations, evaluating the likelihood every
    /// `eval_every` iterations (and always on the last), and returns their
    /// reports.
    pub fn run(
        &mut self,
        corpus: &Corpus,
        iterations: usize,
        eval_every: usize,
    ) -> Vec<IterationReport> {
        self.run_where(corpus, iterations, |it| {
            it == iterations || (eval_every > 0 && it % eval_every == 0)
        })
    }

    /// Like [`run`](Self::run) but with an arbitrary evaluation schedule:
    /// `evaluate` receives the 1-based index of each iteration *within this
    /// call* and returns whether to compute the likelihood after it. Used by
    /// harness binaries that want extra points (e.g. the very first
    /// iteration of a convergence curve).
    pub fn run_where(
        &mut self,
        corpus: &Corpus,
        iterations: usize,
        mut evaluate: impl FnMut(usize) -> bool,
    ) -> Vec<IterationReport> {
        (1..=iterations).map(|it| self.run_iteration(corpus, evaluate(it))).collect()
    }

    /// Adapts the accumulated per-iteration reports into the workspace's
    /// shared [`IterationLog`] format — the same structure the single-machine
    /// [`Trainer`](warplda_core::Trainer) produces — so distributed and
    /// shared-memory runs print, export and compare through one pipeline.
    /// `seconds` accumulates the *modeled* wall time (compute plus
    /// communication).
    pub fn iteration_log(&self, name: &str) -> IterationLog {
        let tokens_per_iteration = self.doc_view.num_tokens() as u64 * 2;
        let mut log = IterationLog::new(name, tokens_per_iteration);
        let mut seconds = 0.0;
        for r in &self.reports {
            seconds += r.wall_sec;
            log.push(IterationRecord {
                iteration: r.iteration,
                seconds,
                tokens_per_sec: r.tokens_per_sec,
                // compute_sec is the measured sampling time of the iteration,
                // already free of the modeled communication cost.
                phase_seconds: Some(r.compute_sec),
                log_likelihood: r.log_likelihood,
                // The distributed driver has no held-out evaluation path.
                held_out: None,
            });
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::DatasetPreset;

    fn driver(workers: usize, mh_steps: usize, seed: u64) -> (Corpus, DistributedWarpLda) {
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let params = ModelParams::paper_defaults(6);
        let config = WarpLdaConfig::with_mh_steps(mh_steps);
        let cluster = ClusterConfig::tianhe2_like(workers);
        let d = DistributedWarpLda::new(&corpus, params, config, cluster, seed);
        (corpus, d)
    }

    #[test]
    fn matches_shared_memory_sampler_bit_for_bit() {
        let (corpus, mut dist) = driver(3, 2, 17);
        let params = ModelParams::paper_defaults(6);
        let mut shared =
            ParallelWarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 17, 3);
        assert_eq!(dist.assignments(), shared.assignments(), "initial state");
        for _ in 0..3 {
            dist.run_iteration(&corpus, false);
            shared.run_iteration();
            assert_eq!(dist.assignments(), shared.assignments());
        }
    }

    #[test]
    fn communication_volume_sweep_matches_analytical_bound() {
        // Property-style sweep over workers x mh_steps: the reported volume
        // must equal (off-diagonal tokens) * (M + 1) one-byte topics (K = 4)
        // * 2 switches, for every configuration.
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let params = ModelParams::paper_defaults(4);
        for workers in [1usize, 2, 3, 4, 6, 8] {
            for mh_steps in [1usize, 2, 3, 4, 8] {
                let config = WarpLdaConfig::with_mh_steps(mh_steps);
                let cluster = ClusterConfig::tianhe2_like(workers);
                let mut d = DistributedWarpLda::new(&corpus, params, config, cluster, 5);
                let r = d.run_iteration(&corpus, false);
                let expected =
                    d.grid().tokens_exchanged_per_phase_switch() * (mh_steps as u64 + 1) * 2;
                assert_eq!(
                    r.bytes_exchanged, expected,
                    "workers = {workers}, mh_steps = {mh_steps}"
                );
                // The volume is also stable across iterations: the grid is
                // static, so the second iteration ships the same bytes.
                let r2 = d.run_iteration(&corpus, false);
                assert_eq!(r2.bytes_exchanged, expected);
            }
        }
    }

    #[test]
    fn reports_accumulate_with_one_based_iteration_numbers() {
        let (corpus, mut dist) = driver(2, 1, 3);
        let reports = dist.run(&corpus, 4, 2);
        assert_eq!(reports.len(), 4);
        assert_eq!(dist.reports().len(), 4);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.iteration, i as u64 + 1);
            assert!(r.tokens_per_sec > 0.0);
            assert!(r.wall_sec >= r.compute_sec);
        }
        // eval_every = 2 evaluates iterations 2 and 4 only.
        assert!(reports[0].log_likelihood.is_none());
        assert!(reports[1].log_likelihood.is_some());
        assert!(reports[2].log_likelihood.is_none());
        assert!(reports[3].log_likelihood.is_some());
    }

    #[test]
    fn iteration_log_mirrors_reports() {
        let (corpus, mut dist) = driver(2, 1, 3);
        dist.run(&corpus, 4, 2);
        let log = dist.iteration_log("dist");
        assert_eq!(log.records().len(), 4);
        assert_eq!(log.eval_points().count(), 2, "iterations 2 and 4 were evaluated");
        assert_eq!(log.records()[0].iteration, 1);
        assert_eq!(log.tokens_per_iteration(), corpus.num_tokens() * 2);
        assert!(log.total_seconds() > 0.0);
        assert!(log.final_ll().is_finite());
        // Cumulative seconds equal the summed modeled wall times.
        let wall: f64 = dist.reports().iter().map(|r| r.wall_sec).sum();
        assert!((log.total_seconds() - wall).abs() < 1e-12);
    }

    #[test]
    fn final_iteration_is_always_evaluated() {
        let (corpus, mut dist) = driver(2, 1, 4);
        let reports = dist.run(&corpus, 3, 0);
        assert!(reports[0].log_likelihood.is_none());
        assert!(reports[1].log_likelihood.is_none());
        assert!(reports[2].log_likelihood.is_some());
    }

    #[test]
    fn tokens_sampled_is_independent_of_worker_count() {
        for workers in [1usize, 2, 4] {
            let (corpus, mut dist) = driver(workers, 1, 7);
            let r = dist.run_iteration(&corpus, false);
            assert_eq!(r.tokens_sampled, corpus.num_tokens() * 2, "workers = {workers}");
        }
    }
}
