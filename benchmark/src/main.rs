//! The repository benchmark. See `benchmark/README.md`.
//!
//! `warplda-benchmark --workload W --seed N --seconds S --trace 0|1
//! --worker-bin PATH` runs one workload in this process and prints every
//! metric as `name value unit`, then one JSON result object as the last
//! line. `run.sh` builds the binaries and is the command to use.

mod cluster;
mod compare;
mod json;
mod load;
mod probes;
mod serve;
mod spec;
mod stats;
mod sut;
mod trace;
mod train;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use json::Json;
use spec::{Metrics, Plan, Run, Workload, FAULT_ITERS, PLANTED_TOPICS, WORKLOADS};
use sut::{LdaGenerator, ModelParams, SyntheticConfig, WarpLdaConfig};
use trace::Tracer;

/// Counts every heap allocation of the process, so "allocations per
/// iteration" and "per request" are exact numbers, not estimates.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation unchanged to the system allocator; the
// counter is a statistic that publishes no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
    worker_bin: Option<PathBuf>,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] [--sets N] [--out FILE] | --compare A.json B.json";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        sets: 1,
        worker_bin: None,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        compare: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--sets" => a.sets = value("a number")?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--worker-bin" => a.worker_bin = Some(value("a path")?.into()),
            "--out-dir" => a.out_dir = value("a path")?.into(),
            "--out" => a.out = Some(value("a path")?.into()),
            "--smoke" => a.smoke = true,
            // The driver passes `--trace 0|1`; by hand a bare `--trace` will do.
            "--trace" => {
                a.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => {
                a.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(name) = &args.workload {
        match spec::workload(name) {
            Some(w) => run_workload(w, &args),
            None => Err(format!(
                "unknown workload {name}; one of {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// One workload, in this process, start to result line.
fn run_workload(w: &Workload, args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let worker_binary =
        args.worker_bin.as_deref().ok_or("--worker-bin is required (run.sh passes it)")?;
    if !worker_binary.is_file() {
        return Err(format!("worker binary {} does not exist", worker_binary.display()));
    }
    let plan = Plan::new(w, args.seconds, args.trace, args.smoke);
    let scratch_dir = args.out_dir.join(format!("scratch-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch_dir).map_err(|e| format!("{}: {e}", scratch_dir.display()))?;
    let result = run_phases(w, &plan, args, worker_binary, &scratch_dir, started);
    // Checkpoints and the model file are scratch, not results.
    let _ = std::fs::remove_dir_all(&scratch_dir);
    result
}

fn run_phases(
    w: &Workload,
    plan: &Plan,
    args: &Args,
    worker_binary: &Path,
    scratch_dir: &Path,
    started: Instant,
) -> Result<(), String> {
    let mut m = Metrics::new(args.trace);
    let mut tr = Tracer::new(args.trace);
    let seed = args.seed;

    // Inputs come from the seed alone; the program sees only the corpus.
    let synth = SyntheticConfig {
        num_docs: plan.docs,
        vocab_size: w.vocab,
        mean_doc_len: w.mean_len,
        num_topics: PLANTED_TOPICS,
        seed,
        ..SyntheticConfig::default()
    };
    let corpus = LdaGenerator::new(synth).generate();
    let params = ModelParams::paper_defaults(w.topics);
    let config = WarpLdaConfig::with_mh_steps(2);
    eprintln!(
        "# {}: seed {seed}, {} docs, {} tokens, V={}, K={}, host_cpus {}",
        w.name,
        corpus.num_docs(),
        corpus.num_tokens(),
        w.vocab,
        w.topics,
        host_cpus()
    );

    let run = Run {
        workload: w,
        plan,
        corpus: &corpus,
        synth,
        params,
        config,
        seed,
        scratch_dir,
        worker_binary,
        smoke: args.smoke,
    };
    let whole = tr.begin("workload");
    let oracle_at = [plan.cluster_iters, FAULT_ITERS];
    let mut serial = train::SerialLane::new(&run, &mut tr);
    let mut par = train::ParLane::new(&run, &oracle_at);
    let mut healthy = cluster::HealthyLane::new(&run);
    let mut split = args.trace.then(|| train::SplitLane::new(&run));
    // One iteration of each sampler in turn, not one sampler after another:
    // the host gives and takes a core for seconds at a time, and this way
    // such a spell costs each throughput a few samples instead of costing
    // one of them all of its samples.
    let sampling = tr.begin("sampling.interleaved");
    while !(serial.done() && par.done() && healthy.done()) {
        serial.step(&mut tr);
        if let Some(split) = &mut split {
            split.step(&mut tr);
        }
        par.step(&mut tr, &mut m);
        healthy.step(&par.oracle, &mut tr, &mut m)?;
    }
    tr.end(sampling);
    if args.trace {
        cluster::faults(&run, &par.oracle, &mut tr, &mut m)?;
    }
    let trained = train::finish(serial, par, split, &mut tr, &mut m)?;
    healthy.finish(trained.par_iter_s, &mut m);
    let pool = load::query_pool(seed, corpus.vocab_size(), serve::POOL_SIZE);
    let model = serve::run(&run, &trained, &pool, &mut tr, &mut m)
        .map_err(|e| format!("serving phase: {e}"))?;
    if args.trace {
        probes::run(&run, &trained, &model, &pool, &mut tr, &mut m);
    }
    let traced_s = tr.end(whole);

    m.end_to_end("peak_rss_mb", peak_rss_mb()?);
    m.layer("host_cpus", host_cpus() as f64);
    // What storing the spans cost this run: their number times the measured
    // cost of storing one, as a share of the traced wall time.
    let span_cost_s = tr.spans().len() as f64 * Tracer::per_span_overhead_s();
    m.layer("trace_overhead_share", span_cost_s / traced_s);
    if args.trace {
        let file = args.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&file, trace::to_json(w.name, tr.spans()).to_line())
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }

    m.validate()?;
    for failure in &m.failures {
        eprintln!("# FAILED: {failure}");
    }
    eprintln!("# {}: {:.1} s wall", w.name, started.elapsed().as_secs_f64());
    for line in m.lines() {
        println!("{line}");
    }
    println!("ops_attempted {} count", m.attempted);
    println!("ops_failed {} count", m.failed);
    println!("{}", m.result().to_line());
    Ok(())
}

/// Every workload, each in its own child process (so `peak_rss_mb` is that
/// workload's alone), `--sets` times with consecutive seeds, untraced and —
/// with `--trace` — traced as well. Results go to one JSON file.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let worker = args.worker_bin.as_deref().ok_or("--worker-bin is required (run.sh passes it)")?;
    let modes: &[bool] = if args.trace || args.smoke { &[false, true] } else { &[false] };
    let mut runs = Vec::new();
    let mut failed_runs = 0;
    for set in 0..args.sets as u64 {
        for w in &WORKLOADS {
            for &trace in modes {
                let seed = args.seed + set;
                println!("== {} seed {seed} trace {}", w.name, u8::from(trace));
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--worker-bin")
                    .arg(worker)
                    .arg("--out-dir")
                    .arg(&args.out_dir);
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                match result {
                    Some(Json::Obj(mut fields)) if output.status.success() => {
                        if fields.iter().any(|(k, v)| k == "correct" && *v != Json::Bool(true)) {
                            failed_runs += 1;
                        }
                        fields.insert(0, ("workload".into(), Json::Str(w.name.into())));
                        fields.insert(1, ("seed".into(), Json::Num(seed as f64)));
                        fields.insert(2, ("trace".into(), Json::Bool(trace)));
                        runs.push(Json::Obj(fields));
                    }
                    _ => {
                        failed_runs += 1;
                        eprintln!("# {} did not produce a result ({})", w.name, output.status);
                    }
                }
            }
        }
    }
    let file = args.out.clone().unwrap_or_else(|| args.out_dir.join("results.json"));
    let doc = Json::Obj(vec![
        ("host_cpus".into(), Json::Num(host_cpus() as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    std::fs::write(&file, doc.to_line() + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    println!("results written to {}", file.display());
    if failed_runs > 0 {
        return Err(format!("{failed_runs} run(s) failed a check or did not finish"));
    }
    Ok(())
}
