//! Integration tests of the unified [`Trainer`] pipeline: the evaluation
//! schedule, the checkpoint cadence, and — the point of the overlapped
//! evaluator — that sampling iterations are *not* serialized behind
//! likelihood computation.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use warplda::prelude::*;

type Span = (Instant, Instant);

/// What the fake sampler and the fake evaluation tell each other, and the
/// spans they record.
#[derive(Default)]
struct Progress {
    sampling_started: u64,
    evals_started: u64,
    sampling_spans: Vec<Span>,
    eval_spans: Vec<Span>,
    timed_out: bool,
}

type Shared = Arc<(Mutex<Progress>, Condvar)>;

/// Applies `update`, wakes the other side, then blocks until `ready` — for at
/// most a generous bound, so a pipeline that does *not* overlap fails the
/// test instead of hanging it.
fn signal_and_wait(
    shared: &Shared,
    update: impl FnOnce(&mut Progress),
    ready: impl Fn(&Progress) -> bool,
) {
    let (lock, wake) = &**shared;
    let mut progress = lock.lock().unwrap();
    update(&mut progress);
    wake.notify_all();
    let (mut progress, wait) =
        wake.wait_timeout_while(progress, Duration::from_secs(20), |p| !ready(p)).unwrap();
    progress.timed_out |= wait.timed_out();
}

/// A sampler that does no work: iteration `i` only waits until the
/// evaluation of iteration `i − 1` has started, and records its span.
struct WaitingSampler {
    params: ModelParams,
    z: Vec<u32>,
    iters: u64,
    shared: Shared,
}

impl Sampler for WaitingSampler {
    fn name(&self) -> &'static str {
        "WaitingSampler"
    }
    fn params(&self) -> &ModelParams {
        &self.params
    }
    fn run_iteration(&mut self) {
        let start = Instant::now();
        self.iters += 1;
        let i = self.iters;
        signal_and_wait(&self.shared, |p| p.sampling_started = i, |p| p.evals_started >= i - 1);
        self.shared.0.lock().unwrap().sampling_spans.push((start, Instant::now()));
    }
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn assignments(&self) -> Vec<u32> {
        self.z.clone()
    }
    fn assignments_slice(&self) -> Option<&[u32]> {
        Some(&self.z)
    }
}

#[test]
fn overlapped_evaluation_does_not_serialize_sampling() {
    let corpus = DatasetPreset::Tiny.generate_scaled(32);
    let iterations = 4u64;
    let shared: Shared = Arc::default();

    // Evaluation `n` holds on until sampling iteration `n + 1` has started
    // (the last one has no successor to wait for); together with the
    // sampler's wait this makes the two spans overlap whenever the pipeline
    // lets them run concurrently at all, with no timing assumption.
    let eval_shared = Arc::clone(&shared);
    let trainer = Trainer::new(&corpus).with_eval_fn(Box::new(move |input| {
        let start = Instant::now();
        // One evaluation is in flight at a time, so `evals_started` is this
        // evaluation's number until it returns.
        signal_and_wait(
            &eval_shared,
            |p| p.evals_started += 1,
            |p| p.evals_started == iterations || p.sampling_started > p.evals_started,
        );
        eval_shared.0.lock().unwrap().eval_spans.push((start, Instant::now()));
        input.assignments.len() as f64
    }));
    let mut sampler = WaitingSampler {
        params: ModelParams::paper_defaults(4),
        z: vec![0; corpus.num_tokens() as usize],
        iters: 0,
        shared: Arc::clone(&shared),
    };
    let log =
        trainer.train(&TrainerConfig::new(iterations as usize).eval_every(1), "w", &mut sampler);
    assert_eq!(log.eval_points().count(), iterations as usize);

    let progress = shared.0.lock().unwrap();
    assert!(!progress.timed_out, "sampling and evaluation waited for each other in vain");
    let overlap = |a: Span, b: Span| a.0 < b.1 && b.0 < a.1;
    for n in 1..iterations as usize {
        assert!(
            overlap(progress.eval_spans[n - 1], progress.sampling_spans[n]),
            "evaluation {n} must run concurrently with sampling iteration {}",
            n + 1
        );
    }
}

#[test]
fn overlapped_and_inline_produce_identical_likelihoods_and_chains() {
    let corpus = DatasetPreset::Tiny.generate_scaled(8);
    let params = ModelParams::paper_defaults(10);
    let config = WarpLdaConfig::with_mh_steps(2);
    let trainer = Trainer::new(&corpus);

    let mut a = WarpLda::new(&corpus, params, config, 21);
    let overlapped = trainer.train(&TrainerConfig::new(12).eval_every(3), "overlapped", &mut a);
    let lls: Vec<(u64, u64)> = overlapped
        .eval_points()
        .map(|r| (r.iteration, r.log_likelihood.unwrap().to_bits()))
        .collect();

    // The reference: the same chain by hand, evaluated inline.
    let mut b = WarpLda::new(&corpus, params, config, 21);
    let mut inline = Vec::new();
    for it in 1..=12u64 {
        b.run_iteration();
        if it % 3 == 0 {
            let ll = b.log_likelihood(&corpus, trainer.doc_view(), trainer.word_view());
            inline.push((it, ll.to_bits()));
        }
    }
    assert_eq!(a.assignments(), b.assignments(), "evaluation must not perturb the chain");
    assert_eq!(lls, inline, "likelihood values must be identical (iterations 3, 6, 9, 12)");
}

#[test]
fn checkpoint_cadence_writes_and_resumes() {
    let corpus = DatasetPreset::Tiny.generate_scaled(4);
    let params = ModelParams::paper_defaults(6);
    let config = WarpLdaConfig::with_mh_steps(2);
    let dir = std::env::temp_dir().join(format!("warplda-trainer-test-{}", std::process::id()));

    let trainer = Trainer::new(&corpus);
    let schedule = TrainerConfig::new(6).eval_every(0).no_final_eval().checkpoint_into(&dir, 2);
    let mut sampler = WarpLda::new(&corpus, params, config, 9);
    let outcome = trainer
        .train_checkpointed(&schedule, "run A", &mut sampler, Some(corpus.vocab()))
        .expect("checkpointed training succeeds");
    assert_eq!(outcome.checkpoints.len(), 3, "iterations 2, 4 and 6");
    for path in &outcome.checkpoints {
        assert!(path.exists(), "{path:?} must exist");
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("run_A-iter"));
    }

    // Resume from the iteration-4 checkpoint and run the remaining 2
    // iterations: bit-identical to the uninterrupted 6-iteration run.
    let mut resumed = WarpLda::new(&corpus, params, config, 777);
    let continued = trainer
        .resume(
            &TrainerConfig::new(2).eval_every(0).no_final_eval().checkpoint_into(&dir, 2),
            "run A resumed",
            &mut resumed,
            &outcome.checkpoints[1],
            None,
        )
        .expect("resume succeeds");
    assert_eq!(resumed.iterations(), 6);
    assert_eq!(resumed.assignments(), sampler.assignments());
    assert_eq!(continued.log.records().first().map(|r| r.iteration), Some(5));

    // Checkpoints written by the resumed run carry the vocabulary embedded in
    // the loaded checkpoint even though resume() was given None.
    let final_ckpt = continued.checkpoints.last().expect("resumed run checkpointed");
    let mut reloaded = WarpLda::new(&corpus, params, config, 4242);
    let vocab = load_checkpoint(&mut reloaded, final_ckpt).expect("reload succeeds");
    assert_eq!(vocab.expect("vocab carried through resume").len(), corpus.vocab_size());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn trainer_drives_every_sampler_kind_through_one_pipeline() {
    let corpus = DatasetPreset::Tiny.generate_scaled(4);
    let params = ModelParams::paper_defaults(8);
    let trainer = Trainer::new(&corpus);
    let schedule = TrainerConfig::new(3).eval_every(3);

    let mut samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(CollapsedGibbs::new(&corpus, params, 1)),
        Box::new(FPlusLda::new(&corpus, params, 1)),
        Box::new(LightLda::new(&corpus, params, 2, 1)),
        Box::new(WarpLda::new(&corpus, params, WarpLdaConfig::default(), 1)),
        Box::new(ParallelWarpLda::new(&corpus, params, WarpLdaConfig::default(), 1, 2)),
    ];
    for sampler in &mut samplers {
        let log = trainer.train(&schedule, "any", sampler.as_mut());
        assert_eq!(log.records().len(), 3);
        assert!(log.final_ll().is_finite());
        assert!(log.total_seconds() > 0.0);
    }
}
