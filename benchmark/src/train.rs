//! The training path: sampler set-up, serial and threaded throughput, the
//! `Trainer` pipeline to a quality target, and (traced) the phase split.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::alloc_count;
use crate::spec::{Focus, Metrics, Run, CHECKPOINT_EVERY, EVAL_EVERY, PARALLELISM, WARMUP_ITERS};
use crate::stats::median;
use crate::sut::{
    load_checkpoint, log_joint_likelihood, save_checkpoint, CountPool, DocMajorView, EvalInput,
    ParallelWarpLda, Sampler, ShardedWarpLda, Trainer, TrainerConfig, WarpLda, WordMajorView,
};
use crate::trace::Tracer;

/// What later phases need from training.
pub struct Trained {
    /// The sampler the `Trainer` pipeline left behind; serving freezes it.
    pub sampler: ParallelWarpLda,
    /// Median wall of one threaded iteration.
    pub par_iter_s: f64,
    pub doc_view: DocMajorView,
    pub word_view: WordMajorView,
}

/// Walls of the iterations after the warm-up, and the allocations they made.
#[derive(Default)]
struct Timed {
    done: usize,
    walls: Vec<f64>,
    allocs: u64,
}

impl Timed {
    fn iteration(&mut self, span: &'static str, tr: &mut Tracer, run: impl FnOnce()) {
        let before = alloc_count();
        let ((), secs) = tr.time(span, run);
        let allocs = alloc_count() - before;
        self.done += 1;
        if self.done > WARMUP_ITERS {
            self.walls.push(secs);
            self.allocs += allocs;
        }
    }

    fn allocs_per_iter(&self) -> f64 {
        self.allocs as f64 / self.walls.len() as f64
    }
}

/// The serial sampler, stepped one iteration at a time by the interleaved
/// sampling loop. Set-up (corpus in hand → a sampler ready to iterate) is
/// timed when the lane is built and again, on a throw-away sampler, before
/// each of the first iterations, so that the repetitions are spread over
/// seconds instead of sharing one moment of the host.
pub struct SerialLane<'a> {
    inp: &'a Run<'a>,
    sampler: WarpLda,
    timed: Timed,
    new_s: Vec<f64>,
}

fn timed_new(inp: &Run<'_>, tr: &mut Tracer) -> (WarpLda, f64) {
    tr.time("core.WarpLda.new", || WarpLda::new(inp.corpus, inp.params, inp.config, inp.seed))
}

impl<'a> SerialLane<'a> {
    pub fn new(inp: &'a Run<'a>, tr: &mut Tracer) -> Self {
        let (sampler, secs) = timed_new(inp, tr);
        Self { inp, sampler, timed: Timed::default(), new_s: vec![secs] }
    }

    pub fn done(&self) -> bool {
        self.timed.done >= self.inp.plan.serial_iters
    }

    pub fn step(&mut self, tr: &mut Tracer) {
        if self.done() {
            return;
        }
        if self.new_s.len() < self.inp.plan.setup_reps {
            self.new_s.push(timed_new(self.inp, tr).1);
        }
        let sampler = &mut self.sampler;
        self.timed.iteration("core.WarpLda.run_iteration", tr, || sampler.run_iteration());
    }
}

/// `ParallelWarpLda` on two threads. Its first iterations double as the
/// determinism check (two threads must sample exactly what one thread
/// samples), and its state at the iterations in `oracle_at` is what the
/// cluster is compared with.
pub struct ParLane<'a> {
    inp: &'a Run<'a>,
    sampler: ParallelWarpLda,
    one_thread: Option<ParallelWarpLda>,
    timed: Timed,
    oracle_at: &'a [usize],
    /// Assignments and `c_k` after the iterations in `oracle_at`.
    pub oracle: BTreeMap<usize, (Vec<u32>, Vec<u32>)>,
}

impl<'a> ParLane<'a> {
    pub fn new(inp: &'a Run<'a>, oracle_at: &'a [usize]) -> Self {
        let new =
            |threads| ParallelWarpLda::new(inp.corpus, inp.params, inp.config, inp.seed, threads);
        Self {
            inp,
            sampler: new(PARALLELISM),
            one_thread: Some(new(1)),
            timed: Timed::default(),
            oracle_at,
            oracle: BTreeMap::new(),
        }
    }

    pub fn done(&self) -> bool {
        self.timed.done >= self.inp.plan.par_iters
    }

    pub fn step(&mut self, tr: &mut Tracer, m: &mut Metrics) {
        if self.done() {
            return;
        }
        let sampler = &mut self.sampler;
        self.timed.iteration("core.ParallelWarpLda.run_iteration", tr, || sampler.run_iteration());
        if self.timed.done <= WARMUP_ITERS {
            let one = self.one_thread.as_mut().expect("kept through the warm-up");
            one.run_iteration();
            m.check(
                self.sampler.assignments() == one.assignments(),
                "ParallelWarpLda(2) and ParallelWarpLda(1) assignments differ",
            );
        } else {
            self.one_thread = None;
        }
        if self.oracle_at.contains(&self.timed.done) {
            let state = (self.sampler.assignments(), self.sampler.topic_counts().to_vec());
            self.oracle.insert(self.timed.done, state);
        }
    }
}

/// Reports the throughput of both lanes, then runs the `Trainer` pipeline to
/// the quality target the serial lane reached.
pub fn finish(
    serial: SerialLane<'_>,
    par: ParLane<'_>,
    split: Option<SplitLane<'_>>,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<Trained, String> {
    let inp = serial.inp;
    let Run { plan, corpus, params, config, seed, .. } = *inp;
    let tokens = corpus.num_tokens() as f64;
    m.count((serial.timed.done + par.timed.done) as u64, 0);

    m.layer("core.sampler_new_s", median(&serial.new_s));
    if inp.workload.focus == Focus::Train {
        m.end_to_end("setup_s", median(&serial.new_s));
    }
    let serial_iter_s = median(&serial.timed.walls);
    if let Some(split) = split {
        split.report(&serial.timed.walls, m);
    }
    m.end_to_end("train_tokens_per_s", tokens / serial_iter_s);
    m.layer("core.allocs_per_iter", serial.timed.allocs_per_iter());
    let par_iter_s = median(&par.timed.walls);
    m.end_to_end("train_par_tokens_per_s", tokens / par_iter_s);
    m.layer("core.par_allocs_per_iter", par.timed.allocs_per_iter());
    m.layer("core.par_speedup", serial_iter_s / par_iter_s);
    drop(par);

    let (doc_view, views_a) = tr.time("corpus.DocMajorView.build", || DocMajorView::build(corpus));
    let (word_view, views_b) =
        tr.time("corpus.WordMajorView.build", || WordMajorView::build(corpus, &doc_view));
    m.layer("corpus.views_build_s", views_a + views_b);
    // The quality target: what the serial sampler has reached by now.
    let (target_ll, _) = tr.time("core.Sampler.log_likelihood", || {
        serial.sampler.log_likelihood(corpus, &doc_view, &word_view)
    });
    drop(serial);

    // The pipeline a user runs: threaded sampler under the Trainer, with
    // overlapped evaluation and periodic checkpoints.
    let phase = tr.begin("train.pipeline");
    let ckpt_dir = inp.scratch_dir.join("checkpoints");
    let evals: Arc<Mutex<Vec<(Instant, Instant)>>> = Arc::default();
    let evals_in = Arc::clone(&evals);
    let trainer = Trainer::new(corpus).with_eval_fn(Box::new(move |input: EvalInput<'_>| {
        let t0 = Instant::now();
        let ll = log_joint_likelihood(
            input.corpus,
            input.doc_view,
            input.word_view,
            &input.params,
            input.assignments,
        );
        evals_in.lock().expect("evaluation list poisoned").push((t0, Instant::now()));
        ll
    }));
    let mut sampler = ParallelWarpLda::new(corpus, params, config, seed, PARALLELISM);
    let cfg = TrainerConfig::new(plan.trainer_iters)
        .eval_every(EVAL_EVERY)
        .checkpoint_into(&ckpt_dir, CHECKPOINT_EVERY);
    let (outcome, pipeline_s) = tr.time("core.Trainer.train_checkpointed", || {
        trainer.train_checkpointed(&cfg, "pipeline", &mut sampler, Some(corpus.vocab()))
    });
    m.count(plan.trainer_iters as u64, 0);
    let evals = evals.lock().expect("evaluation list poisoned").clone();
    for &(a, b) in &evals {
        tr.record("core.log_joint_likelihood", a, b);
    }
    tr.end(phase);
    let log = outcome.map_err(|e| format!("checkpointed training: {e}"))?.log;
    let reached = log.seconds_to_reach(target_ll);
    m.check(reached.is_some(), "the Trainer run never reached the serial sampler's target");
    m.end_to_end("time_to_target_s", reached.unwrap_or(log.total_seconds()));
    m.layer("core.iters_to_target", log.iterations_to_reach(target_ll).unwrap_or(0) as f64);
    m.check(log.final_ll().is_finite(), "final log likelihood is not finite");
    m.layer("core.final_ll_per_token", log.final_ll() / tokens);
    m.layer("core.trainer_overhead_share", 1.0 - log.total_seconds() / pipeline_s);
    let eval_s: Vec<f64> = evals.iter().map(|(a, b)| b.duration_since(*a).as_secs_f64()).collect();
    m.layer("core.eval_s", median(&eval_s));

    if m.trace() {
        checkpoint_round_trip(inp, &sampler, tr, m);
        m.layer("core.hash_path_share", hash_path_share(inp, &doc_view, &word_view));
    }
    Ok(Trained { sampler, par_iter_s, doc_view, word_view })
}

fn checkpoint_round_trip(
    inp: &Run<'_>,
    sampler: &ParallelWarpLda,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let path = inp.scratch_dir.join("probe.ckpt");
    let (saved, save_s) = tr
        .time("core.save_checkpoint", || save_checkpoint(sampler, Some(inp.corpus.vocab()), &path));
    let mut fresh = ParallelWarpLda::new(inp.corpus, inp.params, inp.config, inp.seed, PARALLELISM);
    let (loaded, load_s) =
        tr.time("core.load_checkpoint", || load_checkpoint(&mut fresh, &path).map(|_| ()));
    m.check(
        saved.is_ok() && loaded.is_ok() && fresh.assignments() == sampler.assignments(),
        "checkpoint did not round-trip the sampler state",
    );
    m.layer("core.checkpoint_save_s", save_s);
    m.layer("core.checkpoint_load_s", load_s);
    m.layer("core.checkpoint_bytes", std::fs::metadata(&path).map_or(0.0, |f| f.len() as f64));
}

/// Drives the two phases of an iteration separately through the sharded
/// sampler's public phase functions (all entities, one shard), so the time
/// of a whole `run_iteration` can be compared with the sum of its parts.
/// Stepped by the interleaved loop of a traced run, right after the serial
/// lane: the comparison is between the same iterations, moments apart.
pub struct SplitLane<'a> {
    inp: &'a Run<'a>,
    sampler: ShardedWarpLda,
    words: Vec<u32>,
    docs: Vec<u32>,
    partial_ck: Vec<u32>,
    done: usize,
    word_s: Vec<f64>,
    doc_s: Vec<f64>,
    install_s: Vec<f64>,
}

impl<'a> SplitLane<'a> {
    pub fn new(inp: &'a Run<'a>) -> Self {
        let sampler = ShardedWarpLda::new(inp.corpus, inp.params, inp.config, inp.seed);
        Self {
            inp,
            words: (0..sampler.num_words() as u32).collect(),
            docs: (0..sampler.num_docs() as u32).collect(),
            partial_ck: vec![0; inp.params.num_topics],
            sampler,
            done: 0,
            word_s: Vec::new(),
            doc_s: Vec::new(),
            install_s: Vec::new(),
        }
    }

    pub fn done(&self) -> bool {
        self.done >= WARMUP_ITERS + (self.inp.plan.serial_iters / 3).max(3)
    }

    pub fn step(&mut self, tr: &mut Tracer) {
        if self.done() {
            return;
        }
        let Self { sampler, words, docs, partial_ck, .. } = self;
        let iteration = tr.begin("train.sharded_iteration");
        let ((), w) = tr.time("core.ShardedWarpLda.run_word_phase_shard", || {
            sampler.run_word_phase_shard(words, partial_ck)
        });
        let ((), i1) = tr.time("core.ShardedWarpLda.install_topic_counts", || {
            sampler.install_topic_counts(partial_ck)
        });
        let ((), d) = tr.time("core.ShardedWarpLda.run_doc_phase_shard", || {
            sampler.run_doc_phase_shard(docs, partial_ck)
        });
        let ((), i2) = tr.time("core.ShardedWarpLda.install_topic_counts", || {
            sampler.install_topic_counts(partial_ck);
            sampler.advance_iteration();
        });
        tr.end(iteration);
        self.done += 1;
        if self.done > WARMUP_ITERS {
            self.word_s.push(w);
            self.doc_s.push(d);
            self.install_s.push(i1 + i2);
        }
    }

    /// `serial_walls`: the serial lane's timed iterations, from the same
    /// first timed iteration on.
    fn report(&self, serial_walls: &[f64], m: &mut Metrics) {
        let (w, d, i) = (median(&self.word_s), median(&self.doc_s), median(&self.install_s));
        m.layer("core.word_phase_s_per_iter", w);
        m.layer("core.doc_phase_s_per_iter", d);
        m.layer("core.ck_install_s_per_iter", i);
        let same_iterations = &serial_walls[..self.word_s.len().min(serial_walls.len())];
        m.layer("core.unattributed_share", 1.0 - (w + d + i) / median(same_iterations));
    }
}

/// The property the two train workloads differ in, measured: the share of
/// token visits (each token is visited once by row and once by column) whose
/// row or column is short enough for the hash-table path.
fn hash_path_share(inp: &Run<'_>, doc_view: &DocMajorView, word_view: &WordMajorView) -> f64 {
    let pool = CountPool::new(inp.params.num_topics);
    let rows = (0..doc_view.num_docs() as u32).map(|d| doc_view.doc_len(d));
    let cols = (0..word_view.num_words() as u32).map(|w| word_view.word_len(w));
    let hashed: usize = rows.chain(cols).filter(|&len| pool.prefers_hash(len)).sum();
    hashed as f64 / (2.0 * inp.corpus.num_tokens() as f64)
}
