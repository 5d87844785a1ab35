//! The unified training pipeline: one loop that owns iteration timing,
//! scheduled evaluation and checkpoint persistence for every driver of the
//! chain ([`TrainDriver`]).
//!
//! Every consumer of the workspace — the `reproduce` ledger behind the paper's
//! tables and figures, the examples, the benchmark and the integration tests —
//! trains through the [`Trainer`] instead of its own `run_iteration → time it
//! → maybe evaluate` loop, which gives all of them two capabilities:
//!
//! * **Overlapped evaluation.** Computing the log joint likelihood walks
//!   every token and is often as expensive as a sampling iteration. The
//!   trainer snapshots the assignments ([`Sampler::assignments`]) and
//!   evaluates the snapshot on a background thread inside a
//!   [`std::thread::scope`], so sampling iteration `i + 1` runs concurrently
//!   with the evaluation of iteration `i`. Because evaluation is a pure
//!   function of the snapshot, the values are identical to inline
//!   evaluation — only the wall clock differs. One metric is evaluated per
//!   point: the log joint likelihood, or whatever [`Trainer::with_eval_fn`]
//!   put in its place.
//! * **Checkpoint persistence.** At a configurable cadence
//!   [`Trainer::train_checkpointed`] saves the [`Checkpointable`] state
//!   being trained — serial or parallel WarpLDA, or a cluster's replica —
//!   through the binary codec ([`crate::checkpoint`]), and
//!   [`Trainer::resume`] continues a saved run bit-identically.
//!
//! What the trainer steps is a [`TrainDriver`]: any [`Sampler`], or a process
//! cluster. [`Trainer::train`] takes in-process samplers and cannot fail;
//! [`Trainer::train_checkpointed`] takes any driver and returns its error.
//!
//! The trainer's wall clock around each [`TrainDriver::step`] is the one
//! iteration clock of the workspace: no sampler or driver times itself, so
//! every reported sampling time is measured the same way.
//!
//! The produced [`IterationLog`] is the one report format shared by all
//! call sites: per-iteration sampling time, throughput, the step's extras
//! and (where evaluated) log likelihood, with the derived quantities
//! (time-to-target, iterations-to-target) the ledger's claims are judged on.

use std::path::{Path, PathBuf};
use std::time::Instant;

use warplda_corpus::io::codec::{CodecError, CodecResult};
use warplda_corpus::{Corpus, DocMajorView, Vocabulary, WordMajorView};

use crate::checkpoint::{self, Checkpointable};
use crate::eval;
use crate::params::ModelParams;
use crate::sampler::Sampler;

/// Schedule and persistence knobs of one training run.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of iterations to run.
    pub iterations: usize,
    /// Evaluate the log likelihood every `eval_every` iterations (`0` means
    /// no periodic evaluation).
    pub eval_every: usize,
    /// Always evaluate after the final iteration, regardless of `eval_every`.
    pub eval_final: bool,
    /// `(dir, every)`: save a checkpoint into `dir` every `every`
    /// iterations, and after the final one (`None` or `every == 0` means
    /// never). Set by [`checkpoint_into`](Self::checkpoint_into).
    pub checkpoint: Option<(PathBuf, usize)>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self { iterations: 100, eval_every: 10, eval_final: true, checkpoint: None }
    }
}

impl TrainerConfig {
    /// A run of `iterations` iterations with the default schedule (evaluate
    /// every 10, overlapped, no checkpoints).
    pub fn new(iterations: usize) -> Self {
        Self { iterations, ..Self::default() }
    }

    /// A run that only samples: no periodic evaluation, no final evaluation,
    /// no checkpoints. Used for warm-up and throughput measurements.
    pub fn sampling_only(iterations: usize) -> Self {
        Self { iterations, eval_every: 0, eval_final: false, ..Self::default() }
    }

    /// Sets the evaluation cadence.
    pub fn eval_every(mut self, every: usize) -> Self {
        self.eval_every = every;
        self
    }

    /// Disables the forced evaluation after the final iteration.
    pub fn no_final_eval(mut self) -> Self {
        self.eval_final = false;
        self
    }

    /// Enables checkpoints every `every` iterations into `dir`.
    pub fn checkpoint_into(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some((dir.into(), every));
        self
    }

    fn wants_eval(&self, iteration_in_run: usize) -> bool {
        (self.eval_every > 0 && iteration_in_run.is_multiple_of(self.eval_every))
            || (self.eval_final && iteration_in_run == self.iterations)
    }

    fn wants_checkpoint(&self, iteration_in_run: usize) -> bool {
        matches!(self.checkpoint, Some((_, every)) if every > 0
            && (iteration_in_run.is_multiple_of(every) || iteration_in_run == self.iterations))
    }
}

/// One trained iteration as recorded by the [`Trainer`].
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Absolute iteration number (1-based, continues across resumes).
    pub iteration: u64,
    /// Cumulative sampling seconds up to and including this iteration
    /// (excludes evaluation — overlapped or not).
    pub seconds: f64,
    /// Sampling throughput of this iteration, tokens/second, derived from
    /// the trainer's wall clock around [`TrainDriver::step`]. It is wall
    /// time: CPU taken by other threads of the process (the overlapped
    /// evaluation worker on a core-constrained machine) shows up in it.
    pub tokens_per_sec: f64,
    /// Frame bytes the step put on sockets ([`StepExtras::bytes_exchanged`];
    /// 0 for an in-process sampler).
    pub bytes_exchanged: u64,
    /// Recoveries the step performed ([`StepExtras::recoveries`]; 0 for an
    /// in-process sampler).
    pub recoveries: u32,
    /// Log joint likelihood after this iteration, when evaluated.
    pub log_likelihood: Option<f64>,
}

/// The per-iteration history of a training run: the one report format shared
/// by the bench harness, the process cluster, the examples and the tests.
#[derive(Debug, Clone)]
pub struct IterationLog {
    tokens_per_iteration: u64,
    records: Vec<IterationRecord>,
}

impl IterationLog {
    /// An empty log for a sampler processing `tokens_per_iteration` tokens
    /// per iteration.
    fn new(tokens_per_iteration: u64) -> Self {
        Self { tokens_per_iteration, records: Vec::new() }
    }

    /// All records, in iteration order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Appends a record.
    fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// The records that carry a likelihood, in iteration order — the points
    /// of a convergence curve.
    pub fn eval_points(&self) -> impl Iterator<Item = &IterationRecord> {
        self.records.iter().filter(|r| r.log_likelihood.is_some())
    }

    /// The last evaluated log likelihood (`-inf` when nothing was evaluated,
    /// so comparisons still order sensibly).
    pub fn final_ll(&self) -> f64 {
        self.eval_points().last().and_then(|r| r.log_likelihood).unwrap_or(f64::NEG_INFINITY)
    }

    /// Total sampling seconds over the run.
    pub fn total_seconds(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.seconds)
    }

    /// Mean sampling throughput over the run, tokens/second.
    pub fn mean_tokens_per_sec(&self) -> f64 {
        let total = self.total_seconds();
        self.tokens_per_iteration as f64 * self.records.len() as f64 / total.max(1e-12)
    }

    /// First evaluated iteration whose likelihood reaches `target`, if any.
    pub fn iterations_to_reach(&self, target: f64) -> Option<u64> {
        self.eval_points().find(|r| r.log_likelihood.unwrap() >= target).map(|r| r.iteration)
    }

    /// Sampling seconds needed to reach `target`, if ever reached.
    pub fn seconds_to_reach(&self, target: f64) -> Option<f64> {
        self.eval_points().find(|r| r.log_likelihood.unwrap() >= target).map(|r| r.seconds)
    }

    fn set_evaluation(&mut self, iteration: u64, ll: f64) {
        if let Some(r) = self.records.iter_mut().find(|r| r.iteration == iteration) {
            r.log_likelihood = Some(ll);
        }
    }
}

/// What one [`TrainDriver::step`] reports beyond the state it advanced. Both
/// counts are 0 for an in-process sampler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepExtras {
    /// Frame bytes of protocol traffic the step put on sockets (both
    /// directions, length prefixes and recovery traffic included; heartbeats
    /// are proportional to time, not work, and do not count).
    pub bytes_exchanged: u64,
    /// Recoveries — restarts of every worker — the step performed.
    pub recoveries: u32,
}

/// What the [`Trainer`] steps: a driver that advances one [`Sampler`] state
/// an iteration at a time. Every [`Sampler`] is one whose state is itself and
/// whose step never fails; a process cluster is one whose state is its
/// coordinator replica.
pub trait TrainDriver {
    /// The state being trained: read for evaluation snapshots, and saved at
    /// the checkpoint cadence when it is [`Checkpointable`].
    type State: Sampler + ?Sized;
    /// Why a run fails: a step's error, or a checkpoint that did not save.
    type Error: From<CodecError>;

    /// Runs one iteration.
    fn step(&mut self) -> Result<StepExtras, Self::Error>;

    /// The state after the last completed step.
    fn sampler(&self) -> &Self::State;
}

impl<S: Sampler + ?Sized> TrainDriver for S {
    type State = S;
    /// A sampler's step never fails; only a checkpoint can.
    type Error = CodecError;

    fn step(&mut self) -> Result<StepExtras, CodecError> {
        self.run_iteration();
        Ok(StepExtras::default())
    }

    fn sampler(&self) -> &S {
        self
    }
}

/// Everything an evaluation function may look at: the corpus, its two views,
/// the model parameters and the snapshotted assignments.
pub struct EvalInput<'a> {
    /// The training corpus.
    pub corpus: &'a Corpus,
    /// Document-major view of the corpus.
    pub doc_view: &'a DocMajorView,
    /// Word-major view of the corpus.
    pub word_view: &'a WordMajorView,
    /// Model hyper-parameters.
    pub params: ModelParams,
    /// Snapshot of the topic assignments (doc-major token order).
    pub assignments: &'a [u32],
}

/// A replaceable evaluation metric; the default computes the log joint
/// likelihood of the snapshot.
type EvalFn = Box<dyn Fn(EvalInput<'_>) -> f64 + Send + Sync>;

/// Internal hook that saves a checkpoint of `S` at an iteration and returns
/// the written path.
type SaveHook<'a, S> = &'a dyn Fn(&S, u64) -> CodecResult<PathBuf>;

fn default_eval(input: EvalInput<'_>) -> f64 {
    eval::log_joint_likelihood(
        input.corpus,
        input.doc_view,
        input.word_view,
        &input.params,
        input.assignments,
    )
}

/// The outcome of a checkpointed training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The per-iteration history.
    pub log: IterationLog,
    /// Paths of every checkpoint written, in iteration order.
    pub checkpoints: Vec<PathBuf>,
}

/// The unified training loop (see the module docs).
pub struct Trainer<'a> {
    corpus: &'a Corpus,
    doc_view: DocMajorView,
    word_view: WordMajorView,
    eval_fn: Option<EvalFn>,
}

impl<'a> Trainer<'a> {
    /// Creates a trainer over `corpus`, building the two views.
    pub fn new(corpus: &'a Corpus) -> Self {
        let doc_view = DocMajorView::build(corpus);
        let word_view = WordMajorView::build(corpus, &doc_view);
        Self { corpus, doc_view, word_view, eval_fn: None }
    }

    /// Replaces the evaluation metric (default: log joint likelihood).
    pub fn with_eval_fn(mut self, f: EvalFn) -> Self {
        self.eval_fn = Some(f);
        self
    }

    /// The document-major view the trainer evaluates against.
    pub fn doc_view(&self) -> &DocMajorView {
        &self.doc_view
    }

    /// The word-major view the trainer evaluates against.
    pub fn word_view(&self) -> &WordMajorView {
        &self.word_view
    }

    /// Runs `config.iterations` iterations of `sampler`, returning the log.
    ///
    /// Evaluations follow `config`'s schedule and run on a background worker
    /// overlapped with the next sampling iterations.
    pub fn train(&self, config: &TrainerConfig, sampler: &mut (dyn Sampler + '_)) -> IterationLog {
        let (log, _) = self
            .train_impl(config, sampler, None)
            .expect("training without checkpoints cannot fail");
        log
    }

    /// Like [`train`](Self::train) for any [`TrainDriver`], additionally
    /// saving its state at `config`'s cadence into its directory. A config
    /// without a cadence saves nothing, so this is also how a driver
    /// whose step can fail (a process cluster) trains at all.
    ///
    /// `vocab` (usually `Some(corpus.vocab())`) is embedded into every
    /// checkpoint so saved models can be inspected standalone.
    ///
    /// # Errors
    /// `D::Error`: a failed step ends the run there, as does a checkpoint
    /// that did not save.
    pub fn train_checkpointed<D>(
        &self,
        config: &TrainerConfig,
        name: &str,
        driver: &mut D,
        vocab: Option<&Vocabulary>,
    ) -> Result<TrainOutcome, D::Error>
    where
        D: TrainDriver + ?Sized,
        D::State: Checkpointable,
    {
        let file_stem = sanitize_name(name);
        let saver = config.checkpoint.as_ref().map(|(dir, _)| {
            move |s: &D::State, iteration: u64| -> CodecResult<PathBuf> {
                let path = dir.join(format!("{file_stem}-iter{iteration:06}.ckpt"));
                checkpoint::save_checkpoint(s, vocab, &path)?;
                Ok(path)
            }
        });
        let saver = saver.as_ref().map(|f| f as SaveHook<'_, D::State>);
        let (log, checkpoints) = self.train_impl(config, driver, saver)?;
        Ok(TrainOutcome { log, checkpoints })
    }

    /// Loads the checkpoint at `path` into `sampler` and continues training
    /// under `config`. Continuation is bit-identical to an uninterrupted run.
    ///
    /// When `vocab` is `None`, checkpoints written by the continued run reuse
    /// the vocabulary embedded in the loaded checkpoint (if any), so a
    /// crash/resume cycle does not silently drop it.
    pub fn resume(
        &self,
        config: &TrainerConfig,
        name: &str,
        sampler: &mut (dyn Checkpointable + '_),
        path: &Path,
        vocab: Option<&Vocabulary>,
    ) -> CodecResult<TrainOutcome> {
        let embedded = checkpoint::load_checkpoint(sampler, path)?;
        self.train_checkpointed(config, name, sampler, vocab.or(embedded.as_ref()))
    }

    /// The single loop behind [`train`](Self::train) and
    /// [`train_checkpointed`](Self::train_checkpointed), generic over the
    /// driver and over whether its state is saved.
    fn train_impl<D: TrainDriver + ?Sized>(
        &self,
        config: &TrainerConfig,
        driver: &mut D,
        saver: Option<SaveHook<'_, D::State>>,
    ) -> Result<(IterationLog, Vec<PathBuf>), D::Error> {
        let tokens_per_iter = self.doc_view.num_tokens() as u64;
        let mut log = IterationLog::new(tokens_per_iter);
        let mut checkpoints = Vec::new();
        let params = *driver.sampler().params();
        let corpus = self.corpus;
        let doc_view = &self.doc_view;
        let word_view = &self.word_view;
        let evaluate: &(dyn Fn(EvalInput<'_>) -> f64 + Send + Sync) = match &self.eval_fn {
            Some(f) => f.as_ref(),
            None => &default_eval,
        };

        let mut result = Ok(());
        std::thread::scope(|scope| {
            // At most one evaluation is in flight; joining the previous one
            // before spawning the next bounds memory and keeps results in
            // iteration order. By the time the next evaluation is due, the
            // previous worker has typically long finished.
            type EvalHandle<'s> = std::thread::ScopedJoinHandle<'s, f64>;
            let mut pending: Option<(u64, EvalHandle<'_>)> = None;
            let mut evals: Vec<(u64, f64)> = Vec::new();
            let mut sampling_secs = 0.0;

            for it in 1..=config.iterations {
                let t0 = Instant::now();
                let extras = match driver.step() {
                    Ok(extras) => extras,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                };
                let iter_secs = t0.elapsed().as_secs_f64();
                sampling_secs += iter_secs;
                let sampler = driver.sampler();
                let iteration = sampler.iterations();
                log.push(IterationRecord {
                    iteration,
                    seconds: sampling_secs,
                    tokens_per_sec: tokens_per_iter as f64 / iter_secs.max(1e-12),
                    bytes_exchanged: extras.bytes_exchanged,
                    recoveries: extras.recoveries,
                    log_likelihood: None,
                });

                if config.wants_eval(it) {
                    let snapshot = sampler.assignments();
                    if let Some((i, handle)) = pending.take() {
                        evals.push((i, handle.join().expect("evaluation worker panicked")));
                    }
                    let handle = scope.spawn(move || {
                        evaluate(EvalInput {
                            corpus,
                            doc_view,
                            word_view,
                            params,
                            assignments: &snapshot,
                        })
                    });
                    pending = Some((iteration, handle));
                }

                if let Some(saver) = saver {
                    if config.wants_checkpoint(it) {
                        match saver(sampler, iteration) {
                            Ok(path) => checkpoints.push(path),
                            Err(e) => {
                                result = Err(e.into());
                                break;
                            }
                        }
                    }
                }
            }

            if let Some((i, handle)) = pending.take() {
                evals.push((i, handle.join().expect("evaluation worker panicked")));
            }
            for (iteration, ll) in evals {
                log.set_evaluation(iteration, ll);
            }
        });
        result.map(|()| (log, checkpoints))
    }
}

/// Maps a run name to a filesystem-safe checkpoint file stem.
fn sanitize_name(name: &str) -> String {
    let stem: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if stem.is_empty() {
        "run".to_string()
    } else {
        stem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{WarpLda, WarpLdaConfig};
    use crate::ParallelWarpLda;
    use warplda_corpus::DatasetPreset;

    fn corpus() -> Corpus {
        DatasetPreset::Tiny.generate_scaled(8)
    }

    #[test]
    fn schedule_evaluates_on_cadence_and_final() {
        let corpus = corpus();
        let trainer = Trainer::new(&corpus);
        let mut s =
            WarpLda::new(&corpus, ModelParams::paper_defaults(6), WarpLdaConfig::default(), 1);
        let log = trainer.train(&TrainerConfig::new(7).eval_every(3), &mut s);
        assert_eq!(log.records().len(), 7);
        let evaluated: Vec<u64> = log.eval_points().map(|r| r.iteration).collect();
        assert_eq!(evaluated, vec![3, 6, 7], "cadence 3 plus the forced final evaluation");
        assert!(log.final_ll().is_finite());
        assert!(log.total_seconds() > 0.0);
        assert!(log.mean_tokens_per_sec() > 0.0);
    }

    #[test]
    fn sampling_only_never_evaluates() {
        let corpus = corpus();
        let trainer = Trainer::new(&corpus);
        let mut s =
            WarpLda::new(&corpus, ModelParams::paper_defaults(6), WarpLdaConfig::default(), 1);
        let log = trainer.train(&TrainerConfig::sampling_only(4), &mut s);
        assert_eq!(log.records().len(), 4);
        assert_eq!(log.eval_points().count(), 0);
        assert_eq!(log.final_ll(), f64::NEG_INFINITY);
        assert_eq!(s.iterations(), 4);
    }

    #[test]
    fn overlapped_matches_inline_likelihoods_exactly() {
        let corpus = corpus();
        let params = ModelParams::paper_defaults(8);
        let trainer = Trainer::new(&corpus);

        let mut a = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 3);
        let overlapped = trainer.train(&TrainerConfig::new(10).eval_every(2), &mut a);
        let lls: Vec<(u64, f64)> =
            overlapped.eval_points().map(|r| (r.iteration, r.log_likelihood.unwrap())).collect();
        assert_eq!(lls.len(), 5, "iterations 2, 4, 6, 8, 10");

        // The reference: the same chain by hand, evaluated inline.
        let mut b = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 3);
        for (it, ll) in lls {
            b.run_iteration();
            b.run_iteration();
            assert_eq!(b.iterations(), it);
            let inline = b.log_likelihood(&corpus, trainer.doc_view(), trainer.word_view());
            assert_eq!(ll.to_bits(), inline.to_bits(), "iteration {it}: {ll} vs {inline}");
        }
        // Overlapped evaluation must not perturb the chain either.
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn trainer_works_through_dyn_sampler_for_parallel_runs() {
        let corpus = corpus();
        let params = ModelParams::paper_defaults(6);
        let trainer = Trainer::new(&corpus);
        let mut s = ParallelWarpLda::new(&corpus, params, WarpLdaConfig::default(), 5, 3);
        let log = trainer.train(&TrainerConfig::new(3).eval_every(1), &mut s);
        assert_eq!(log.eval_points().count(), 3);
        assert!(log.final_ll().is_finite());
    }

    #[test]
    fn custom_eval_fn_replaces_the_metric() {
        let corpus = corpus();
        let trainer =
            Trainer::new(&corpus).with_eval_fn(Box::new(|input| input.assignments.len() as f64));
        let mut s =
            WarpLda::new(&corpus, ModelParams::paper_defaults(4), WarpLdaConfig::default(), 1);
        let log = trainer.train(&TrainerConfig::new(2).eval_every(1), &mut s);
        for p in log.eval_points() {
            assert_eq!(p.log_likelihood.unwrap(), corpus.num_tokens() as f64);
        }
    }

    #[test]
    fn targets_helpers_find_crossings() {
        let mut log = IterationLog::new(100);
        for (it, ll) in [(1u64, -100.0), (2, -50.0), (3, -25.0)] {
            log.push(IterationRecord {
                iteration: it,
                seconds: it as f64,
                tokens_per_sec: 100.0,
                bytes_exchanged: 0,
                recoveries: 0,
                log_likelihood: Some(ll),
            });
        }
        assert_eq!(log.iterations_to_reach(-60.0), Some(2));
        assert_eq!(log.seconds_to_reach(-60.0), Some(2.0));
        assert_eq!(log.iterations_to_reach(0.0), None);
        assert_eq!(log.final_ll(), -25.0);
    }
}
