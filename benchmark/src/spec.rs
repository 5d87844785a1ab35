//! What the benchmark runs and what it reports: the four workloads, the
//! metric tables (mirrored by `BENCHMARK.json`, checked by a test), and the
//! collector that refuses to finish a run whose emitted names differ from the
//! declared ones.

use std::path::Path;

use crate::json::Json;
use crate::sut::{Corpus, ModelParams, SyntheticConfig, WarpLdaConfig};

/// The path a workload stresses. It decides what `setup_s` means and which
/// phases get the long windows; every workload still runs every phase, so
/// every metric is a real measurement on every input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    Train,
    Cluster,
    Serve,
}

/// One input shape and the path it stresses.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub focus: Focus,
    pub docs: usize,
    pub vocab: usize,
    pub mean_len: usize,
    pub topics: usize,
}

/// Serial iterations (the first `WARMUP_ITERS` untimed). The serial sampler's likelihood
/// after the last one is the quality target of `time_to_target_s`; see
/// README "time_to_target_s".
pub const SERIAL_ITERS: usize = 22;
pub const WARMUP_ITERS: usize = 3;
pub const EVAL_EVERY: usize = 5;
pub const CHECKPOINT_EVERY: usize = 10;
/// Threads, worker processes and client connections: the box has two cores.
pub const PARALLELISM: usize = 2;
/// Topics the generator plants, for every workload: many more than any
/// corpus needs, so that corpora of different seeds have alike statistics
/// (with 50 planted topics the samplers' speed moved by a fifth from seed to
/// seed, and the likelihood level by 0.5 nat/token).
pub const PLANTED_TOPICS: usize = 200;
/// Arrival rate of the open loop the latency metrics are read at: a quarter
/// to a half of what one server worker sustains on these models, so latency
/// is the service path's and not a queue's. The sweep shows the knee.
pub const MAIN_RATE_RPS: f64 = 1500.0;
pub const P99_LIMIT_US: f64 = 5000.0;
pub const IN_FLIGHT_PER_CONN: usize = 8;
pub const SWAP_EVERY_MS: u64 = 500;
/// Iterations of the fault phase and the (iteration, worker) of its crashes.
pub const FAULT_ITERS: usize = 8;
pub const FAULT_CRASHES: [(u64, u32); 3] = [(3, 0), (5, 1), (7, 0)];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_dense",
        focus: Focus::Train,
        docs: 4500,
        vocab: 8000,
        mean_len: 332,
        topics: 50,
    },
    Workload {
        name: "train_sparse",
        focus: Focus::Train,
        docs: 20_000,
        vocab: 12_000,
        mean_len: 90,
        topics: 4096,
    },
    Workload {
        name: "cluster",
        focus: Focus::Cluster,
        docs: 4000,
        vocab: 8000,
        mean_len: 332,
        topics: 256,
    },
    Workload {
        name: "serve_mixed",
        focus: Focus::Serve,
        docs: 3000,
        vocab: 8000,
        mean_len: 332,
        topics: 256,
    },
];

/// Everything the phases of one run share.
pub struct Run<'a> {
    pub workload: &'a Workload,
    pub plan: &'a Plan,
    pub corpus: &'a Corpus,
    /// How `corpus` was generated (the cache simulator runs a smaller copy).
    pub synth: SyntheticConfig,
    pub params: ModelParams,
    pub config: WarpLdaConfig,
    pub seed: u64,
    /// Checkpoints and model files go here; removed when the run ends.
    pub scratch_dir: &'a Path,
    /// Passed to every cluster explicitly; never discovered, never from the
    /// environment.
    pub worker_binary: &'a Path,
    pub smoke: bool,
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sizes of one run, for `--seconds 20`: the focused path gets the long
/// windows. Scaled to `--seconds`, halved for a traced run (which spends the
/// other half on the per-layer-only phases), and cut to a tenth of the
/// corpus for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub docs: usize,
    pub serial_iters: usize,
    pub trainer_iters: usize,
    /// `ParallelWarpLda` iterations, warm-up included.
    pub par_iters: usize,
    /// Fresh clusters spawned, and iterations driven on each.
    pub cluster_blocks: usize,
    pub cluster_iters: usize,
    /// `WarpLda::new` repetitions (no more than `serial_iters`).
    pub setup_reps: usize,
    /// Cold paths (freeze → first answer) walked.
    pub serve_setups: usize,
    /// Closed-loop window, seconds.
    pub closed_s: f64,
    /// Open-loop window at the main rate, and at each other sweep rate and
    /// under hot swap; seconds. Traced runs only.
    pub open_s: f64,
    pub sweep_s: f64,
}

impl Plan {
    pub fn new(w: &Workload, seconds: f64, trace: bool, smoke: bool) -> Self {
        let f = (seconds / 20.0) * if trace { 0.5 } else { 1.0 };
        let iters = |n: usize, min: usize| ((n as f64 * f).round() as usize).max(min);
        // The serial count stays ≡ 2 (mod EVAL_EVERY): the trainer then
        // crosses the target mid-way between two evaluations, 2.5 iterations
        // from either, so every seed finds it at the same evaluation.
        let serial_iters = if smoke { 7 } else { SERIAL_ITERS };
        let reach = serial_iters.div_ceil(EVAL_EVERY) * EVAL_EVERY;
        let (cluster_blocks, cluster_iters) = match w.focus {
            Focus::Cluster => (3, 12),
            _ => (2, 8),
        };
        let cluster_blocks = if trace { cluster_blocks - 1 } else { cluster_blocks };
        let cluster_iters = if smoke { 4 } else { iters(cluster_iters, 5) };
        // The parallel run must pass the iterations the cluster checks
        // compare against.
        let par_floor = cluster_iters.max(FAULT_ITERS) + 1;
        let par_iters = if w.focus == Focus::Train { 20 } else { 14 };
        let (serve_setups, closed_s) = if w.focus == Focus::Serve { (3, 8.0) } else { (1, 4.0) };
        Self {
            docs: if smoke { w.docs / 10 } else { w.docs },
            serial_iters,
            trainer_iters: reach + EVAL_EVERY,
            par_iters: if smoke { par_floor } else { iters(par_iters, par_floor) },
            cluster_blocks: if smoke { 1 } else { cluster_blocks },
            cluster_iters,
            setup_reps: if smoke { 3 } else { 9 },
            serve_setups: if smoke { 1 } else { serve_setups },
            closed_s: if smoke { 0.3 } else { closed_s * f },
            open_s: if smoke { 0.5 } else { 6.0 * f },
            sweep_s: if smoke { 0.3 } else { 3.0 * f },
        }
    }
}

/// (name, unit) of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_tokens_per_s", "tok/s"),
    ("train_par_tokens_per_s", "tok/s"),
    ("time_to_target_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cluster_tokens_per_s", "tok/s"),
    ("cluster_bytes_per_token", "B"),
    ("serve_capacity_rps", "req/s"),
];

/// (name, unit) of every per-layer metric, in `BENCHMARK.json` order. The
/// prefix is the crate the number belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.word_phase_s_per_iter", "s"),
    ("core.doc_phase_s_per_iter", "s"),
    ("core.ck_install_s_per_iter", "s"),
    ("core.unattributed_share", "share"),
    ("core.par_speedup", "x"),
    ("core.allocs_per_iter", "count"),
    ("core.par_allocs_per_iter", "count"),
    ("core.hash_path_share", "share"),
    ("core.hashcounts_ns_per_op", "ns"),
    ("core.densecounts_clear_ns", "ns"),
    ("core.iters_to_target", "count"),
    ("core.eval_s", "s"),
    ("core.trainer_overhead_share", "share"),
    ("core.checkpoint_save_s", "s"),
    ("core.checkpoint_load_s", "s"),
    ("core.checkpoint_bytes", "B"),
    ("core.sampler_new_s", "s"),
    ("core.final_ll_per_token", "nat/tok"),
    ("sampling.alias_rebuild_ns_per_entry", "ns"),
    ("sampling.alias_draw_ns", "ns"),
    ("sampling.rng_stream_init_ns", "ns"),
    ("cachesim.l1_miss_per_token", "1/tok"),
    ("cachesim.l3_miss_per_token", "1/tok"),
    ("corpus.views_build_s", "s"),
    ("corpus.codec_write_mb_per_s", "MB/s"),
    ("corpus.codec_read_mb_per_s", "MB/s"),
    ("corpus.tokenize_ns_per_token", "ns"),
    ("net.frame_encode_mb_per_s", "MB/s"),
    ("net.frame_decode_mb_per_s", "MB/s"),
    ("net.small_frame_ns", "ns"),
    ("dist.iter_wall_s", "s"),
    ("dist.inproc_iter_wall_s", "s"),
    ("dist.overhead_s_per_iter", "s"),
    ("dist.overhead_ratio", "x"),
    ("dist.bytes_per_iter", "B"),
    ("dist.delta_encode_mb_per_s", "MB/s"),
    ("dist.delta_decode_mb_per_s", "MB/s"),
    ("dist.setup_encode_s", "s"),
    ("dist.spawn_handshake_s", "s"),
    ("dist.first_iter_extra_s", "s"),
    ("dist.recovery_s", "s"),
    ("dist.recovery_bytes", "B"),
    ("dist.recoveries", "count"),
    ("dist.shutdown_s", "s"),
    ("serve.freeze_s", "s"),
    ("serve.save_s", "s"),
    ("serve.load_s", "s"),
    ("serve.bind_first_answer_s", "s"),
    ("serve.model_bytes", "B"),
    ("serve.infer_us_per_token_short", "us"),
    ("serve.infer_us_per_token_long", "us"),
    ("serve.allocs_per_request", "count"),
    ("serve.wire_encode_ns", "ns"),
    ("serve.wire_decode_ns", "ns"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.outside_server_us", "us"),
    ("serve.short_p99_us", "us"),
    ("serve.long_p99_us", "us"),
    ("serve.r1500_p99_us", "us"),
    ("serve.r3000_p99_us", "us"),
    ("serve.r4500_p99_us", "us"),
    ("serve.r6000_p99_us", "us"),
    ("serve.max_ok_rps", "req/s"),
    ("serve.swap_p99_us", "us"),
    ("serve.gen_lateness_p99_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.stalled_disconnects", "count"),
    ("trace_overhead_share", "share"),
    ("host_cpus", "count"),
];

/// Counters that repeat exactly for a seed; `--compare` holds them to
/// equality instead of a bound.
pub const EXACT: &[&str] = &[
    "core.allocs_per_iter",
    "serve.allocs_per_request",
    "core.iters_to_target",
    "dist.recoveries",
];

/// Stand-in for a latency no finite number describes (every sample beyond the
/// percentile failed): far past any limit, and still valid JSON.
pub const UNANSWERED_US: f64 = 1e12;

/// Collects one run's metrics and operation counts.
pub struct Metrics {
    trace: bool,
    values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Metrics {
    pub fn new(trace: bool) -> Self {
        Self { trace, values: Vec::new(), attempted: 0, failed: 0, failures: Vec::new() }
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Reports an end-to-end metric (kept by an untraced run only).
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(END_TO_END, name).is_some(), "undeclared end-to-end metric {name}");
        if !self.trace {
            self.put(name, value);
        }
    }

    /// Reports a per-layer metric (kept by a traced run only).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(PER_LAYER, name).is_some(), "undeclared per-layer metric {name}");
        if self.trace {
            self.put(name, value);
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        assert!(self.values.iter().all(|(n, _)| *n != name), "metric {name} reported twice");
        if value.is_finite() {
            self.values.push((name, value));
        } else {
            self.values.push((name, UNANSWERED_US));
            self.check(false, &format!("{name} is not a finite number"));
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok));
        if !ok {
            self.failures.push(what.to_owned());
        }
    }

    /// Counts a batch of operations (iterations, requests).
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The declared table for this run's mode.
    pub fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every declared name reported, nothing else: the names a run prints are
    /// exactly the names `BENCHMARK.json` promises for its mode.
    pub fn validate(&self) -> Result<(), String> {
        let missing: Vec<_> = self
            .declared()
            .iter()
            .filter(|(n, _)| self.values.iter().all(|(m, _)| m != n))
            .map(|(n, _)| *n)
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("declared but not reported: {}", missing.join(", ")))
        }
    }

    /// `name value unit` lines in table order.
    pub fn lines(&self) -> Vec<String> {
        self.ordered().map(|(n, v, u)| format!("{n} {v} {u}")).collect()
    }

    fn ordered(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.declared().iter().filter_map(|&(n, u)| {
            self.values.iter().find(|(m, _)| *m == n).map(|&(_, v)| (n, v, u))
        })
    }

    /// The result object the contract asks for as the last line of stdout.
    pub fn result(&self) -> Json {
        let metrics = self
            .ordered()
            .map(|(n, v, u)| {
                let entry = vec![
                    ("value".to_owned(), Json::Num(v)),
                    ("unit".to_owned(), Json::Str(u.to_owned())),
                ];
                (n.to_owned(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared_in_file(key: &str) -> Vec<(String, String)> {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        spec.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn tables_mirror_benchmark_json() {
        assert_eq!(declared_in_file("end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in_file("per_layer"), owned(PER_LAYER));
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name.to_owned()));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(n), "bad metric name {n}");
            assert!(unit_ok(u), "bad unit {u} of {n}");
            assert!(seen.insert(*n), "{n} declared twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "bad workload name {}", w.name);
        }
        for exact in EXACT {
            assert!(unit_of(PER_LAYER, exact).is_some(), "{exact} is not a per-layer metric");
        }
    }

    #[test]
    fn a_run_reports_its_mode_and_only_declared_names() {
        let mut m = Metrics::new(false);
        m.layer("core.par_speedup", 1.9);
        assert!(m.lines().is_empty(), "an untraced run drops per-layer metrics");
        assert!(m.validate().unwrap_err().contains("setup_s"));
        for (n, _) in END_TO_END {
            m.end_to_end(n, 1.5);
        }
        assert!(m.validate().is_ok());
        assert_eq!(m.lines().len(), END_TO_END.len());
        let undeclared = std::panic::catch_unwind(|| Metrics::new(false).end_to_end("bogus", 1.0));
        assert!(undeclared.is_err());
    }

    #[test]
    fn failures_show_in_the_result_line() {
        let mut m = Metrics::new(true);
        m.count(10, 0);
        m.check(false, "θ differs");
        m.layer("serve.swap_p99_us", f64::INFINITY);
        let r = m.result();
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(r.get("attempted").and_then(Json::as_f64), Some(12.0));
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(2.0));
        let v = r.get("metrics").unwrap().get("serve.swap_p99_us").unwrap();
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(UNANSWERED_US));
    }

    #[test]
    fn the_target_falls_between_two_evaluations() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let p = Plan::new(w, 20.0, false, smoke);
                assert_eq!(p.serial_iters % EVAL_EVERY, 2);
                assert!(p.trainer_iters > p.serial_iters + 2);
                assert!(p.par_iters > p.cluster_iters && p.par_iters > FAULT_ITERS);
            }
        }
    }
}
