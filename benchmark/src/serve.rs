//! The serving path: the cold path from a trained sampler to a first answer,
//! then load against the query server — closed loop for capacity, open loop
//! (Poisson arrivals) for latency, because query clients are independent
//! users who do not wait for each other.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::load::{drive, poisson_schedule, ConnReport, Mode, Query, QueryClass, Rng64};
use crate::spec::{
    Focus, Metrics, Plan, Run, IN_FLIGHT_PER_CONN, MAIN_RATE_RPS, P99_LIMIT_US, PARALLELISM,
    SWAP_EVERY_MS, UNANSWERED_US,
};
use crate::stats::{median, percentile_sorted, sort};
use crate::sut::{
    split_seed, InferenceEngine, Response, Server, ServerConfig, ServerHandle, TopicModel,
};
use crate::trace::Tracer;
use crate::train::Trained;

pub const POOL_SIZE: usize = 1024;
/// The closed-loop window is cut into this many slices; capacity is the
/// median of their rates.
const LOAD_SLICES: usize = 8;
/// One reply in a hundred is decoded whole and compared with direct inference.
const SAMPLE_EVERY: usize = 100;

fn server_config() -> ServerConfig {
    ServerConfig { workers: 1, ..ServerConfig::default() }
}

/// The cold path, once: freeze → save → load → bind → first answer.
struct ColdPath {
    freeze_s: f64,
    save_s: f64,
    load_s: f64,
    bind_first_answer_s: f64,
    model_bytes: f64,
    model: Arc<TopicModel>,
}

fn cold_path(
    inp: &Run<'_>,
    trained: &Trained,
    first: &Query,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<ColdPath> {
    let path = inp.scratch_dir.join("model.wlda");
    let span = tr.begin("serve.cold_path");
    let (frozen, freeze_s) = tr.time("serve.TopicModel.freeze_sampler", || {
        TopicModel::freeze_sampler(&trained.sampler, inp.corpus)
    });
    let (saved, save_s) = tr.time("serve.TopicModel.save", || frozen.save(&path));
    saved.map_err(std::io::Error::other)?;
    drop(frozen);
    let (loaded, load_s) = tr.time("serve.TopicModel.load", || TopicModel::load(&path));
    let model = Arc::new(loaded.map_err(std::io::Error::other)?);
    let open = tr.begin("serve.bind_first_answer");
    let server = Server::bind("127.0.0.1:0", Arc::clone(&model), server_config())?;
    let answer = drive(
        server.addr(),
        std::slice::from_ref(first),
        0,
        1,
        Mode::Open { schedule: vec![0] },
        Instant::now(),
        1,
        tr,
    );
    let bind_first_answer_s = tr.end(open);
    tr.end(span);
    server.shutdown();
    let answer = answer?;
    m.count(1, answer.failed);
    check_theta(&model, std::slice::from_ref(first), &answer, m);
    let model_bytes = std::fs::metadata(&path)?.len() as f64;
    Ok(ColdPath { freeze_s, save_s, load_s, bind_first_answer_s, model_bytes, model })
}

/// θ of every sampled reply must equal direct inference with the request's
/// seed, bit for bit.
fn check_theta(model: &TopicModel, pool: &[Query], report: &ConnReport, m: &mut Metrics) {
    let engine = InferenceEngine::new(model, server_config().infer);
    for (q, response) in &report.sampled {
        let query = &pool[*q];
        let same = match response {
            Response::Ok(reply) => {
                let direct = engine.infer(&query.words, query.seed);
                reply.theta.len() == direct.theta.len()
                    && reply
                        .theta
                        .iter()
                        .zip(&direct.theta)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            // An error reply was already counted as a failed request.
            Response::Error(_) => true,
        };
        m.check(same, "served θ differs from direct InferenceEngine::infer");
    }
}

/// What one or more load phases saw: the generators' merged report, the
/// server's own latency percentiles (of the last phase absorbed) and its
/// counters (summed).
#[derive(Default)]
struct Phase {
    report: ConnReport,
    server_p50_us: f64,
    server_p99_us: f64,
    shed: f64,
    deadline_expired: f64,
    stalled_disconnects: f64,
}

impl Phase {
    fn absorb(&mut self, slice: Phase) {
        self.report.merge(slice.report);
        self.server_p50_us = slice.server_p50_us;
        self.server_p99_us = slice.server_p99_us;
        self.shed += slice.shed;
        self.deadline_expired += slice.deadline_expired;
        self.stalled_disconnects += slice.stalled_disconnects;
    }
}

/// One load slice against a fresh server (so its latency histogram covers
/// this slice only): both connections driven to completion, reports merged.
fn load_phase(
    model: &Arc<TopicModel>,
    pool: &[Query],
    modes: Vec<Mode>,
    during: impl FnOnce(&ServerHandle, Instant),
    tr: &mut Tracer,
) -> std::io::Result<Phase> {
    let server = Server::bind("127.0.0.1:0", Arc::clone(model), server_config())?;
    let addr = server.addr();
    let start = Instant::now() + Duration::from_millis(20);
    let stride = modes.len();
    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = modes
            .into_iter()
            .enumerate()
            .map(|(c, mode)| {
                let mut fork = tr.fork();
                scope.spawn(move || {
                    let r = drive(addr, pool, c, stride, mode, start, SAMPLE_EVERY, &mut fork);
                    (r, fork)
                })
            })
            .collect();
        during(&server, start);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut report = ConnReport::default();
    let mut error = None;
    for (r, fork) in outcome {
        tr.absorb(fork);
        match r {
            Ok(r) => report.merge(r),
            Err(e) => error = Some(e),
        }
    }
    let latency = server.latency();
    let counters = server.counters();
    server.shutdown();
    if let Some(e) = error {
        return Err(e);
    }
    Ok(Phase {
        report,
        server_p50_us: latency.p50_us as f64,
        server_p99_us: latency.p99_us as f64,
        shed: counters.shed_overload as f64,
        deadline_expired: counters.deadline_expired as f64,
        stalled_disconnects: counters.stalled_disconnects as f64,
    })
}

fn open_modes(rate: f64, seconds: f64, seed: u64) -> Vec<Mode> {
    (0..PARALLELISM)
        .map(|c| {
            let mut rng = Rng64::new(split_seed(seed, 0xa221 + c as u64));
            Mode::Open { schedule: poisson_schedule(rate / PARALLELISM as f64, seconds, &mut rng) }
        })
        .collect()
}

fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    percentile_sorted(sort(&mut v), q).min(UNANSWERED_US)
}

fn class_p99(report: &ConnReport, class: QueryClass) -> f64 {
    let v: Vec<f64> = report
        .latency_us
        .iter()
        .zip(&report.class)
        .filter(|(_, c)| **c == class)
        .map(|(l, _)| *l)
        .collect();
    percentile(&v, 0.99)
}

/// Runs the serving phases against queries from `pool`; returns the loaded
/// model for the direct-call probes.
pub fn run(
    inp: &Run<'_>,
    trained: &Trained,
    pool: &[Query],
    tr: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<Arc<TopicModel>> {
    let plan: &Plan = inp.plan;

    // The cold path and the closed loop (what the server can do when callers
    // wait for replies), in slices, each against a fresh server: neither a
    // bad moment of the host nor one unlucky placement of the server's
    // threads owns the whole measurement. Cold-path repetitions sit between
    // the slices for the same reason; they all produce the same model.
    let span = tr.begin("serve.cold_path_and_closed_loop");
    let window = Duration::from_secs_f64(plan.closed_s / LOAD_SLICES as f64);
    let mut colds: Vec<ColdPath> = Vec::new();
    let mut closed = Phase::default();
    let mut slice_rps = Vec::new();
    for slice in 0..LOAD_SLICES {
        if slice * plan.serve_setups / LOAD_SLICES == colds.len() {
            colds.push(cold_path(inp, trained, &pool[0], tr, m)?);
        }
        let model = &colds.last().expect("a cold path precedes the first slice").model;
        let modes = (0..PARALLELISM)
            .map(|_| Mode::Closed { in_flight: IN_FLIGHT_PER_CONN, duration: window })
            .collect();
        let phase = load_phase(model, pool, modes, |_, _| (), tr)?;
        slice_rps.push((phase.report.sent - phase.report.failed) as f64 / phase.report.span_s);
        closed.absorb(phase);
    }
    tr.end(span);
    let part = |f: fn(&ColdPath) -> f64| median(&colds.iter().map(f).collect::<Vec<_>>());
    if inp.workload.focus == Focus::Serve {
        m.end_to_end("setup_s", part(|c| c.freeze_s + c.save_s + c.load_s + c.bind_first_answer_s));
    }
    m.layer("serve.freeze_s", part(|c| c.freeze_s));
    m.layer("serve.save_s", part(|c| c.save_s));
    m.layer("serve.load_s", part(|c| c.load_s));
    m.layer("serve.bind_first_answer_s", part(|c| c.bind_first_answer_s));
    m.layer("serve.model_bytes", part(|c| c.model_bytes));
    let model = colds.pop().expect("at least one cold path").model;
    drop(colds);
    m.count(closed.report.sent, closed.report.failed);
    check_theta(&model, pool, &closed.report, m);
    m.end_to_end("serve_capacity_rps", median(&slice_rps));
    // Latency repeats too poorly on this host to carry a bound (README,
    // "Demoted"), so everything from here on is per-layer: traced runs only.
    if !m.trace() {
        return Ok(model);
    }

    // Open loop at the main rate.
    let span = tr.begin("serve.open_loop");
    let main = load_phase(
        &model,
        pool,
        open_modes(MAIN_RATE_RPS, plan.open_s, split_seed(inp.seed, 1)),
        |_, _| (),
        tr,
    )?;
    tr.end(span);
    m.count(main.report.sent, main.report.failed);
    check_theta(&model, pool, &main.report, m);
    let p50 = percentile(&main.report.latency_us, 0.50);
    let p99 = percentile(&main.report.latency_us, 0.99);
    m.layer("serve.p50_us", p50);
    m.layer("serve.p99_us", p99);
    m.layer("serve.server_p50_us", main.server_p50_us);
    m.layer("serve.server_p99_us", main.server_p99_us);
    m.layer("serve.outside_server_us", p50 - main.server_p50_us);
    m.layer("serve.short_p99_us", class_p99(&main.report, QueryClass::Short));
    m.layer("serve.long_p99_us", class_p99(&main.report, QueryClass::Long));
    // How late the generator itself ran in the phase the latencies above come
    // from. (Past the server's capacity the generator starves with it.)
    m.layer("serve.gen_lateness_p99_us", percentile(&main.report.lateness_us, 0.99));

    // Rate sweep. Overload at the top rates is the finding, not a failure
    // of the benchmark, so these requests are not counted as operations.
    // `rest` gathers every open-loop phase after the main one, for the
    // server's counters.
    let mut rest = Phase::default();
    let mut max_ok = 0.0f64;
    for (i, &(rate, name)) in SWEEP.iter().enumerate() {
        let (rate_p99, failed) = if rate == MAIN_RATE_RPS {
            (p99, main.report.failed)
        } else {
            let span = tr.begin("serve.rate_sweep");
            let modes = open_modes(rate, plan.sweep_s, split_seed(inp.seed, 2 + i as u64));
            let phase = load_phase(&model, pool, modes, |_, _| (), tr)?;
            tr.end(span);
            check_theta(&model, pool, &phase.report, m);
            let seen = (percentile(&phase.report.latency_us, 0.99), phase.report.failed);
            rest.absorb(phase);
            seen
        };
        if failed == 0 && rate_p99 <= P99_LIMIT_US {
            max_ok = max_ok.max(rate);
        }
        m.layer(name, rate_p99);
    }
    m.layer("serve.max_ok_rps", max_ok);

    // The write beside the reads: hot-swap the model while serving.
    let other = Arc::new(
        TopicModel::load(&inp.scratch_dir.join("model.wlda")).map_err(std::io::Error::other)?,
    );
    let span = tr.begin("serve.swap");
    let swap_window = Duration::from_secs_f64(plan.sweep_s);
    let swap = load_phase(
        &model,
        pool,
        open_modes(MAIN_RATE_RPS, plan.sweep_s, split_seed(inp.seed, 9)),
        |server, start| {
            let mut next = [Arc::clone(&other), Arc::clone(&model)].into_iter().cycle();
            let mut at = start + Duration::from_millis(SWAP_EVERY_MS);
            while at < start + swap_window {
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                server.swap_model(next.next().expect("cycle never ends"));
                at += Duration::from_millis(SWAP_EVERY_MS);
            }
        },
        tr,
    )?;
    tr.end(span);
    m.count(swap.report.sent, swap.report.failed);
    check_theta(&model, pool, &swap.report, m);
    m.layer("serve.swap_p99_us", percentile(&swap.report.latency_us, 0.99));
    rest.absorb(swap);
    m.layer("serve.shed", main.shed + rest.shed);
    m.layer("serve.deadline_expired", main.deadline_expired + rest.deadline_expired);
    m.layer("serve.stalled_disconnects", main.stalled_disconnects + rest.stalled_disconnects);
    Ok(model)
}

/// The open-loop rates of the sweep and the per-layer metric each reports.
/// [`MAIN_RATE_RPS`] is one of them; its phase is the main open-loop phase.
const SWEEP: [(f64, &str); 4] = [
    (1500.0, "serve.r1500_p99_us"),
    (3000.0, "serve.r3000_p99_us"),
    (4500.0, "serve.r4500_p99_us"),
    (6000.0, "serve.r6000_p99_us"),
];
