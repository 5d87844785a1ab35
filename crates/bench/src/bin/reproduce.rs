//! The paper's evaluation (§6: Tables 2 and 4, Figures 4–9) as one ledger.
//!
//! Each row of [`CLAIMS`] is a claim: where the paper makes it, what runs at
//! quick and `--full` scale, the bounds its measured values must meet and the
//! verdict recorded here. A run prints the rows, writes
//! `target/experiments/REPRODUCTION.json`, and exits 1 when a measured verdict
//! is not the recorded one. A [`Kind::Timed`] bound sits at least 2× inside
//! the quick run's value, beyond this box's 15–40 % noise floor.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use warplda::lda::access::table2_profiles;
use warplda::prelude::*;
use warplda::sampling::new_rng;
use warplda::sparse::{imbalance_index, partition_by_size};
use DatasetPreset::{ClueWebSubsetLike as CLUEWEB, NyTimesLike as NYTIMES, PubMedLike as PUBMED};
use Verdict::{Fails, Holds, NotReproducibleHere};

/// Seed of every sampler the ledger trains.
const SEED: u64 = 5;

/// A verdict; a recorded `Fails` or `NotReproducibleHere` carries its reason,
/// and verdicts compare by kind alone.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    Holds,
    Fails(&'static str),
    NotReproducibleHere(&'static str),
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Holds => "holds",
            Fails(_) => "fails",
            NotReproducibleHere(_) => "not-reproducible-here",
        }
    }

    fn reason(self) -> &'static str {
        match self {
            Holds => "",
            Fails(why) | NotReproducibleHere(why) => why,
        }
    }
}

impl PartialEq for Verdict {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

/// What a bound reads: seeded chains, simulators and arithmetic, wall-clock
/// time, or the host (unmet: not reproducible here rather than failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exact,
    Timed,
    Host,
}

/// `value` must be measured and lie in `[min, max]`.
#[derive(Debug, Clone, Copy)]
struct Check {
    value: &'static str,
    min: f64,
    max: f64,
    kind: Kind,
}

const fn between(value: &'static str, min: f64, max: f64) -> Check {
    Check { value, min, max, kind: Kind::Exact }
}

const fn at_least(value: &'static str, min: f64) -> Check {
    between(value, min, f64::INFINITY)
}

const fn at_most(value: &'static str, max: f64) -> Check {
    between(value, f64::NEG_INFINITY, max)
}

impl Check {
    const fn timed(self) -> Self {
        Self { kind: Kind::Timed, ..self }
    }

    const fn host(self) -> Self {
        Self { kind: Kind::Host, ..self }
    }

    /// How far inside its bounds `v` lies, as a factor (≥ 1 when it holds).
    fn margin(&self, v: f64) -> f64 {
        let above = if self.min > 0.0 { v / self.min } else { f64::INFINITY };
        above.min(self.max / v)
    }
}

/// Named measured values, in the order a run produced them.
type Values = Vec<(String, f64)>;

/// Not reproducible here when a host bound is unmet, else holds exactly when
/// every bound does (a value on its bound meets it).
fn verdict(checks: &[Check], values: &Values) -> Verdict {
    let holds = |c: &Check| values.iter().any(|(n, v)| n == c.value && (c.min..=c.max).contains(v));
    if checks.iter().any(|c| c.kind == Kind::Host && !holds(c)) {
        NotReproducibleHere("")
    } else if checks.iter().all(holds) {
        Holds
    } else {
        Fails("")
    }
}

/// 0 when every measured verdict is the recorded one, else 1.
fn exit_code(recorded_and_measured: impl IntoIterator<Item = (Verdict, Verdict)>) -> i32 {
    i32::from(recorded_and_measured.into_iter().any(|(recorded, measured)| recorded != measured))
}

/// `Ok(full)` for no argument or `--full`; any other argument is the `Err`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    args.into_iter().try_fold(false, |_, arg| if arg == "--full" { Ok(true) } else { Err(arg) })
}

/// A preset at `1/divisor` of its documents, and K.
type Shape = (DatasetPreset, usize, usize);

/// What one claim runs at one scale.
#[derive(Debug, Clone, Copy)]
struct Setting {
    shapes: &'static [Shape],
    iterations: usize,
}

const fn at(shapes: &'static [Shape], iterations: usize) -> Setting {
    Setting { shapes, iterations }
}

fn describe((preset, divisor, k): Shape) -> String {
    format!("{}/{divisor} K={k}", preset.name())
}

/// One row of the ledger.
struct Claim {
    id: &'static str,
    locus: &'static str,
    claim: &'static str,
    /// What runs at quick and at `--full` scale.
    scale: [Setting; 2],
    run: fn(&mut Runs, &Setting) -> Values,
    checks: &'static [Check],
    recorded: Verdict,
}

const FIG5_FULL: &[Shape] =
    &[(NYTIMES, 1, 1000), (NYTIMES, 1, 4000), (PUBMED, 1, 1000), (PUBMED, 1, 4000)];
const FIG9A: [Setting; 2] = [at(&[(NYTIMES, 3, 200)], 8), at(&[(NYTIMES, 1, 1000)], 20)];

const CLAIMS: &[Claim] = &[
    Claim {
        id: "fig4",
        locus: "§5.3.2, Fig. 4",
        claim: "greedy partitions beat static and dynamic until the head word outgrows a share",
        scale: [at(&[(CLUEWEB, 5, 0)], 0), at(&[(CLUEWEB, 1, 0)], 0)],
        run: fig4,
        checks: &[
            at_most("greedy_max", 1e-3),
            at_most("greedy_over_best_other", 1.0),
            at_least("greedy_past_head", 0.1),
        ],
        recorded: Holds,
    },
    Claim {
        id: "fig5",
        locus: "§6.2, Fig. 5",
        claim: "WarpLDA: no fewer iterations, less time than LightLDA, F+LDA; top throughput",
        scale: [at(&[(NYTIMES, 6, 100), (PUBMED, 10, 400)], 60), at(FIG5_FULL, 150)],
        run: fig5,
        checks: &[
            at_most("iters_ratio_max", 1.0),
            at_least("seconds_ratio_min", 1.0).timed(),
            at_least("throughput_ratio_min", 1.0).timed(),
        ],
        recorded: Holds,
    },
    Claim {
        id: "fig6",
        locus: "§6.4, Fig. 6",
        claim: "8-machine WarpLDA reaches each target 4x sooner than LightLDA",
        scale: [at(&[(CLUEWEB, 10, 300)], 15), at(&[(CLUEWEB, 1, 10_000)], 100)],
        run: fig6,
        checks: &[at_least("host_cpus", 8.0).host(), at_least("seconds_ratio_min", 4.0).timed()],
        recorded: NotReproducibleHere("needs 8 machines; measured on 8 threads of host_cpus cores"),
    },
    Claim {
        id: "fig7",
        locus: "§6.3, Fig. 7",
        claim: "the ladder LightLDA, +DW, +DD, +SP, WarpLDA (M=1) ends within a 5 % spread",
        scale: [at(&[(NYTIMES, 6, 100)], 60), at(&[(NYTIMES, 1, 1000)], 150)],
        run: fig7,
        checks: &[at_most("spread_pct", 5.0)],
        recorded: Fails("LightLDA and WarpLDA agree, the three +DW rungs lag; cause open"),
    },
    Claim {
        id: "fig8",
        locus: "§6.3, Fig. 8",
        claim: "larger M: no more iterations to each target; M in {1, 2, 4} beats {8, 16} in time",
        scale: [at(&[(NYTIMES, 6, 100)], 60), at(&[(NYTIMES, 1, 1000)], 150)],
        run: fig8,
        checks: &[at_most("iters_growth_max", 1.0), at_least("seconds_ratio_min", 1.0).timed()],
        recorded: Holds,
    },
    Claim {
        id: "fig9a-balance",
        locus: "§6.5, Fig. 9a",
        claim: "the partitions let 24 threads reach half-linear speedup (paper: 17x measured)",
        scale: FIG9A,
        run: fig9a,
        checks: &[at_least("balance_speedup@24", 12.0)],
        recorded: Holds,
    },
    Claim {
        id: "fig9a-measured",
        locus: "§6.5, Fig. 9a",
        claim: "measured: 24 threads sample at least 12x faster than one",
        scale: FIG9A,
        run: fig9a,
        checks: &[at_least("host_cpus", 24.0).host(), at_least("speedup@24", 12.0).timed()],
        recorded: NotReproducibleHere("needs 24 cores; measured up to host_cpus only"),
    },
    Claim {
        id: "fig9b",
        locus: "§6.5, Fig. 9b",
        claim: "the greedy grid's balance lets 16 machines reach within 20 % of the paper's 13.5x",
        scale: [at(&[(PUBMED, 10, 0)], 0), at(&[(PUBMED, 1, 0)], 0)],
        run: fig9b,
        checks: &[between("balance_speedup@16", 13.5 / 1.2, 13.5 * 1.2)],
        recorded: Holds,
    },
    Claim {
        id: "fig9cd",
        locus: "§6.5, Fig. 9c/9d",
        claim: "16 machines: likelihood up at every evaluation, flat throughput",
        scale: [at(&[(CLUEWEB, 10, 1000)], 40), at(&[(CLUEWEB, 1, 20_000)], 150)],
        run: fig9cd,
        checks: &[at_most("ll_drops", 0.0), between("late_over_early", 1.0 / 3.0, 3.0).timed()],
        recorded: Holds,
    },
    Claim {
        id: "table2",
        locus: "§3.3, Table 2",
        claim: "at the paper's shapes only WarpLDA's random region, O(K), fits the 30 MB L3",
        scale: [at(&[(NYTIMES, 6, 1000)], 0), at(&[(NYTIMES, 1, 1000)], 0)],
        run: table2,
        checks: &[at_most("others_fitting_l3", 0.0), at_most("warp_exceeding_l3", 0.0)],
        recorded: Holds,
    },
    Claim {
        id: "table4",
        locus: "§6.2, Table 4",
        claim: "simulated: fewer of WarpLDA's accesses reach memory than LightLDA's or F+LDA's",
        scale: [
            at(&[(NYTIMES, 6, 500), (PUBMED, 10, 2000)], 2),
            at(&[(NYTIMES, 1, 1000), (PUBMED, 1, 10_000)], 2),
        ],
        run: table4,
        checks: &[at_most("warp_over_best_other_max", 1.0)],
        recorded: Holds,
    },
];

/// A training run the ledger shares between rows: WarpLDA with M, LightLDA
/// with M at a rung of the Fig. 7 ladder (0 = plain), F+LDA, or WarpLDA with
/// M on P threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Algo {
    Warp(usize),
    Light(u32, usize),
    FPlus,
    Parallel(usize, usize),
}

fn ladder(rung: usize) -> LightLdaVariant {
    type V = LightLdaVariant;
    [V::standard(), V::delayed_word(), V::delayed_word_doc(), V::warp_like()][rung]
}

/// Corpora and training logs, each made once.
#[derive(Default)]
struct Runs {
    corpora: HashMap<(&'static str, usize), Corpus>,
    logs: HashMap<(&'static str, usize, usize, usize, Algo), IterationLog>,
}

impl Runs {
    fn corpus(&mut self, (preset, divisor, _): Shape) -> &Corpus {
        let key = (preset.name(), divisor);
        self.corpora.entry(key).or_insert_with(|| preset.generate_scaled(divisor))
    }

    /// `iterations` of `algo` on `s`, evaluated every `iterations / 12`.
    fn log(&mut self, s: Shape, iterations: usize, algo: Algo) -> IterationLog {
        let key = (s.0.name(), s.1, s.2, iterations, algo);
        if !self.logs.contains_key(&key) {
            let log = train(self.corpus(s), s.2, iterations, algo);
            self.logs.insert(key, log);
        }
        self.logs[&key].clone()
    }
}

fn train(corpus: &Corpus, k: usize, iterations: usize, algo: Algo) -> IterationLog {
    let params = ModelParams::paper_defaults(k);
    let trainer = Trainer::new(corpus);
    let schedule = TrainerConfig::new(iterations).eval_every((iterations / 12).max(1));
    match algo {
        Algo::Warp(m) => {
            let mut s = WarpLda::new(corpus, params, WarpLdaConfig::with_mh_steps(m), SEED);
            trainer.train(&schedule, &mut s)
        }
        Algo::Light(m, rung) => {
            let mut s = LightLda::with_variant(corpus, params, m, SEED, ladder(rung));
            trainer.train(&schedule, &mut s)
        }
        Algo::FPlus => trainer.train(&schedule, &mut FPlusLda::new(corpus, params, SEED)),
        Algo::Parallel(m, threads) => {
            let config = WarpLdaConfig::with_mh_steps(m);
            let mut s = ParallelWarpLda::new(corpus, params, config, SEED, threads);
            trainer.train(&schedule, &mut s)
        }
    }
}

/// Likelihoods every log attains: 50, 80 and 95 % of the way from the lowest
/// first evaluation to the lowest final one, as the paper picks its targets.
fn targets(logs: &[&IterationLog]) -> [f64; 3] {
    let first = |l: &&IterationLog| l.eval_points().next().and_then(|p| p.log_likelihood);
    let start = lowest(logs.iter().filter_map(first));
    let end = lowest(logs.iter().map(|l| l.final_ll()));
    [0.5, 0.8, 0.95].map(|f| start + (end - start) * f)
}

fn iters_to(log: &IterationLog, target: f64) -> f64 {
    log.iterations_to_reach(target).map_or(f64::NAN, |i| i as f64)
}

fn seconds_to(log: &IterationLog, target: f64) -> f64 {
    log.seconds_to_reach(target).unwrap_or(f64::NAN)
}

/// The minimum, NaN if any element is (`f64::min` would drop it).
fn lowest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, |a, x| if x.is_nan() || x < a { x } else { a })
}

fn highest(xs: impl IntoIterator<Item = f64>) -> f64 {
    -lowest(xs.into_iter().map(|x| -x))
}

fn named(pairs: &[(&str, f64)]) -> Values {
    pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

/// Imbalance index of `sizes` dealt to `parts` owners by `strategy`.
fn imbalance_of(sizes: &[u64], parts: usize, strategy: PartitionStrategy) -> f64 {
    let mut loads = vec![0u64; parts];
    for (size, &owner) in sizes.iter().zip(&partition_by_size(sizes, parts, strategy)) {
        loads[owner as usize] += size;
    }
    imbalance_index(&loads)
}

/// Imbalances over P = 2 … 1024 while P·head < 1, and greedy's at the first P
/// past that: ClueWeb12's vocabulary at 1/divisor of its size, where exponent
/// 0.6 puts ≈ 0.3 % of the tokens on the head word (the paper: 0.257 %).
fn fig4(_: &mut Runs, s: &Setting) -> Values {
    let (preset, divisor, _) = s.shapes[0];
    let (_, tokens, vocab, _) = preset.paper_stats().expect("a paper dataset");
    let vocab_size = (vocab / divisor as u64) as usize;
    let cfg = SyntheticConfig { vocab_size, zipf_exponent: 0.6, ..SyntheticConfig::default() };
    let tf = ZipfGenerator::new(cfg).term_frequency_profile(tokens / divisor as u64);
    let head = tf[0] as f64 / tf.iter().sum::<u64>() as f64;
    let (mut before, mut after) = (vec![], f64::NAN);
    for p in (1..=10).map(|e| 1usize << e) {
        let greedy = imbalance_of(&tf, p, PartitionStrategy::Greedy);
        if p as f64 * head < 1.0 {
            let fixed = imbalance_of(&tf, p, PartitionStrategy::Static { seed: 11 });
            before.push((fixed, imbalance_of(&tf, p, PartitionStrategy::Dynamic), greedy));
        } else if after.is_nan() {
            after = greedy;
        }
    }
    named(&[
        ("head_word_share_pct", head * 100.0),
        ("static_min", lowest(before.iter().map(|b| b.0))),
        ("static_max", highest(before.iter().map(|b| b.0))),
        ("dynamic_max", highest(before.iter().map(|b| b.1))),
        ("greedy_max", highest(before.iter().map(|b| b.2))),
        ("greedy_over_best_other", highest(before.iter().map(|b| b.2 / b.0.min(b.1)))),
        ("greedy_past_head", after),
    ])
}

/// LightLDA's and F+LDA's iterations and seconds to each target over
/// WarpLDA's, and WarpLDA's throughput over the better of theirs.
fn fig5(runs: &mut Runs, s: &Setting) -> Values {
    let (mut iters, mut seconds, mut throughput) = (vec![], vec![], vec![]);
    for &shape in s.shapes {
        let [warp, light, fplus] = [Algo::Warp(2), Algo::Light(4, 0), Algo::FPlus]
            .map(|a| runs.log(shape, s.iterations, a));
        let others = [light, fplus];
        for t in targets(&[&warp, &others[0], &others[1]]) {
            iters.extend(others.iter().map(|b| iters_to(b, t) / iters_to(&warp, t)));
            seconds.extend(others.iter().map(|b| seconds_to(b, t) / seconds_to(&warp, t)));
        }
        let best_other = highest(others.iter().map(IterationLog::mean_tokens_per_sec));
        throughput.push(warp.mean_tokens_per_sec() / best_other);
    }
    named(&[
        ("iters_ratio_max", highest(iters)),
        ("seconds_ratio_min", lowest(seconds)),
        ("throughput_ratio_min", lowest(throughput)),
    ])
}

/// LightLDA's seconds to each target over WarpLDA's on 8 threads.
fn fig6(runs: &mut Runs, s: &Setting) -> Values {
    let warp = runs.log(s.shapes[0], s.iterations, Algo::Parallel(4, 8));
    let light = runs.log(s.shapes[0], s.iterations, Algo::Light(16, 0));
    let ratios = targets(&[&warp, &light]).map(|t| seconds_to(&light, t) / seconds_to(&warp, t));
    named(&[("host_cpus", host_cpus() as f64), ("seconds_ratio_min", lowest(ratios))])
}

/// Each rung's final likelihood below plain LightLDA's, and the spread.
fn fig7(runs: &mut Runs, s: &Setting) -> Values {
    let final_ll = |runs: &mut Runs, algo| runs.log(s.shapes[0], s.iterations, algo).final_ll();
    let mut rungs: Vec<(&str, f64)> =
        (0..4).map(|rung| (ladder(rung).label(), final_ll(runs, Algo::Light(1, rung)))).collect();
    rungs.push(("WarpLDA", final_ll(runs, Algo::Warp(1))));
    let finals = || rungs.iter().map(|r| r.1);
    let (light, best, worst) = (rungs[0].1, highest(finals()), lowest(finals()));
    let below = |ll: f64| (light - ll) / light.abs() * 100.0;
    let mut values: Values =
        rungs[1..].iter().map(|&(r, ll)| (format!("{r}_below_pct"), below(ll))).collect();
    values.push(("spread_pct".to_string(), (best - worst) / best.abs() * 100.0));
    values
}

/// Iterations of each M over the previous M's, to each target; the best
/// seconds of M in {8, 16} over the best of M in {1, 2, 4}.
fn fig8(runs: &mut Runs, s: &Setting) -> Values {
    let logs = [1, 2, 4, 8, 16].map(|m| runs.log(s.shapes[0], s.iterations, Algo::Warp(m)));
    let ts = targets(&logs.each_ref());
    let fastest = |logs: &[IterationLog], t| lowest(logs.iter().map(|l| seconds_to(l, t)));
    let growth = |t| logs.windows(2).map(move |w| iters_to(&w[1], t) / iters_to(&w[0], t));
    named(&[
        ("iters_growth_max", highest(ts.into_iter().flat_map(growth))),
        ("seconds_ratio_min", lowest(ts.map(|t| fastest(&logs[3..], t) / fastest(&logs[..3], t)))),
    ])
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Balance-limited speedup (threads over one plus the worse of the greedy doc
/// and dynamic word imbalance) at 2 … 24 threads, and measured speedup at up
/// to 24 threads, as many as the host has.
fn fig9a(runs: &mut Runs, s: &Setting) -> Values {
    let (shape @ (_, _, k), threads) = (s.shapes[0], host_cpus().min(24));
    let corpus = runs.corpus(shape);
    let trainer = Trainer::new(corpus);
    let (docs, words) = (trainer.doc_view(), trainer.word_view());
    let doc_sizes: Vec<u64> = (0..docs.num_docs()).map(|d| docs.doc_len(d as u32) as u64).collect();
    let word_sizes: Vec<u64> =
        (0..words.num_words()).map(|w| words.word_len(w as u32) as u64).collect();
    let balanced = |t: usize| {
        let doc = imbalance_of(&doc_sizes, t, PartitionStrategy::Greedy);
        t as f64 / (1.0 + doc.max(imbalance_of(&word_sizes, t, PartitionStrategy::Dynamic)))
    };
    let mut values: Values =
        [2, 4, 6, 12, 24].iter().map(|&t| (format!("balance_speedup@{t}"), balanced(t))).collect();
    let (params, config) = (ModelParams::paper_defaults(k), WarpLdaConfig::with_mh_steps(2));
    let tokens_per_sec = |threads| {
        let mut sampler = ParallelWarpLda::new(corpus, params, config, SEED, threads);
        // Unmeasured: the first iteration pays the allocation costs.
        sampler.run_iteration();
        let schedule = TrainerConfig::sampling_only(s.iterations);
        trainer.train(&schedule, &mut sampler).mean_tokens_per_sec()
    };
    values.push(("host_cpus".to_string(), host_cpus() as f64));
    values.push((format!("speedup@{threads}"), tokens_per_sec(threads) / tokens_per_sec(1)));
    values
}

/// Balance-limited speedup of the greedy P×P grid at 1 … 16 machines: both
/// phases' tokens over the largest doc shard plus the largest word shard.
fn fig9b(runs: &mut Runs, s: &Setting) -> Values {
    let corpus = runs.corpus(s.shapes[0]);
    let largest = |loads: &[u64]| loads.iter().copied().max().unwrap_or(0) as f64;
    let speedup = |p: usize| {
        let grid = GridPartition::build(corpus, p);
        let slowest = largest(grid.doc_phase_loads()) + largest(grid.word_phase_loads());
        2.0 * corpus.num_tokens() as f64 / slowest
    };
    [1, 2, 4, 8, 16].iter().map(|&p| (format!("balance_speedup@{p}"), speedup(p))).collect()
}

/// Likelihood drops between evaluations, and the median throughput of the
/// run's second half over its first, on 16 threads.
fn fig9cd(runs: &mut Runs, s: &Setting) -> Values {
    let log = runs.log(s.shapes[0], s.iterations, Algo::Parallel(1, 16));
    let lls: Vec<f64> = log.eval_points().filter_map(|p| p.log_likelihood).collect();
    let mut tps: Vec<f64> = log.records().iter().map(|r| r.tokens_per_sec).collect();
    let (early, late) = tps.split_at_mut(log.records().len() / 2);
    named(&[
        ("ll_drops", lls.windows(2).filter(|w| w[1] < w[0]).count() as f64),
        ("late_over_early", median(late) / median(early)),
    ])
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The paper's datasets at the K it trains them with (Table 4, Fig. 9c).
const PAPER_K: [(DatasetPreset, u64); 3] =
    [(NYTIMES, 1000), (PUBMED, 100_000), (CLUEWEB, 1_000_000)];

/// Each algorithm's random region on the setting's corpus and, re-evaluating
/// its symbolic size (K, KV or DK elements), the smallest at the paper's
/// shapes; then how many regions at those shapes contradict the claim.
fn table2(runs: &mut Runs, s: &Setting) -> Values {
    let shape @ (_, _, k) = s.shapes[0];
    let corpus = runs.corpus(shape);
    let (params, mb) = (ModelParams::paper_defaults(k), |b: u64| b as f64 / 1e6);
    let state = SamplerState::init_random(corpus, params, &mut new_rng(SEED));
    let elements = |symbolic: &str, (d, v, k): (u64, u64, u64)| match symbolic {
        "K" => k,
        "KV" => k * v,
        _ => d * k,
    };
    let (here, corpus_name) =
        ((corpus.num_docs() as u64, corpus.vocab_size() as u64, k as u64), describe(shape));
    let (l3, mut wrong, mut values) =
        (HierarchyConfig::ivy_bridge().l3.size_bytes, [0.0; 2], vec![]);
    for r in table2_profiles(corpus, &state, 1) {
        let per_element = r.random_region_bytes / elements(r.random_region_symbolic, here);
        let at_paper = PAPER_K.map(|(preset, k)| {
            let (d, _, v, _) = preset.paper_stats().expect("a paper dataset");
            per_element * elements(r.random_region_symbolic, (d, v, k))
        });
        let (warp, fitting) =
            (r.algorithm == "WarpLDA", at_paper.iter().filter(|&&b| b <= l3).count());
        wrong[usize::from(warp)] += if warp { 3 - fitting } else { fitting } as f64;
        let smallest = at_paper.into_iter().min().unwrap_or(0);
        values.push((format!("{}_mb@{corpus_name}", r.algorithm), mb(r.random_region_bytes)));
        values.push((format!("{}_mb@paper_min", r.algorithm), mb(smallest)));
    }
    values.extend(named(&[("others_fitting_l3", wrong[0]), ("warp_exceeding_l3", wrong[1])]));
    values
}

/// Simulated misses to memory per access, L3 accesses and the L3 miss rate
/// (conditional on reaching L3) for each algorithm and corpus.
fn table4(runs: &mut Runs, s: &Setting) -> Values {
    let (mut values, mut ratios) = (Values::new(), vec![]);
    for &shape in s.shapes {
        let corpus = runs.corpus(shape);
        let (params, probe) = (ModelParams::paper_defaults(shape.2), CacheProbe::ivy_bridge);
        let (trainer, sampling) =
            (Trainer::new(corpus), TrainerConfig::sampling_only(s.iterations));
        let mut light =
            LightLda::with_variant_and_probe(corpus, params, 1, SEED, ladder(0), probe());
        trainer.train(&sampling, &mut light);
        let mut fplus = FPlusLda::with_probe(corpus, params, SEED, probe());
        trainer.train(&sampling, &mut fplus);
        let config = WarpLdaConfig::with_mh_steps(1);
        let mut warp = WarpLda::with_probe(corpus, params, config, SEED, probe());
        trainer.train(&sampling, &mut warp);
        let stats = [light.probe().stats(), fplus.probe().stats(), warp.probe().stats()];
        for (algo, st) in ["LightLDA", "F+LDA", "WarpLDA"].into_iter().zip(stats) {
            let at = format!("{algo}@{}", describe(shape));
            values.extend([
                (format!("misses_per_access_pct:{at}"), st.memory_access_fraction() * 100.0),
                (format!("l3_accesses:{at}"), (st.l3_hits + st.memory_accesses) as f64),
                (format!("l3_miss_rate_pct:{at}"), st.l3_miss_rate() * 100.0),
            ]);
        }
        let misses = stats.map(|st| st.memory_access_fraction());
        ratios.push(misses[2] / misses[0].min(misses[1]));
    }
    values.push(("warp_over_best_other_max".to_string(), highest(ratios)));
    values
}

/// Four decimals, or four significant digits below 0.001.
fn num(v: f64) -> String {
    match v.abs() {
        tiny if tiny > 0.0 && tiny < 1e-3 => format!("{v:.3e}"),
        _ => format!("{v:.4}"),
    }
}

/// Prints a claim's row, then its values, each with its bounds.
fn print_row(claim: &Claim, setting: &str, values: &Values, measured: Verdict, secs: f64) {
    let flag = if measured == claim.recorded { "" } else { "  <- DIFFERS FROM THE RECORD" };
    println!("\n{:<15} {:<17} {:<22}{flag}", claim.id, claim.locus, measured.name());
    println!("    {}\n    [{setting}; {secs:.1} s]", claim.claim);
    for (name, v) in values {
        let mut line = format!("    {name:<48} {:>10}", num(*v));
        for c in claim.checks.iter().filter(|c| c.value == name) {
            let _ = write!(line, "  in [{}, {}]", num(c.min), num(c.max));
            if c.kind == Kind::Timed {
                let _ = write!(line, " timed, margin {:.2}x", c.margin(*v));
            }
        }
        println!("{line}");
    }
    if !claim.recorded.reason().is_empty() {
        println!("    recorded {}: {}", claim.recorded.name(), claim.recorded.reason());
    }
}

fn main() {
    let full = parse_args(std::env::args().skip(1)).unwrap_or_else(|arg| {
        eprintln!("reproduce: unexpected argument `{arg}`\nusage: reproduce [--full]");
        std::process::exit(2)
    });
    let (scale, cpus) = (if full { "full" } else { "quick" }, host_cpus());
    println!("WarpLDA reproduction ledger, {scale} scale, {cpus} host CPUs");
    let (mut runs, mut verdicts, mut json) = (Runs::default(), vec![], vec![]);
    for claim in CLAIMS {
        let s = claim.scale[usize::from(full)];
        let shapes: Vec<String> = s.shapes.iter().map(|&shape| describe(shape)).collect();
        let setting = format!("{}, {} iterations", shapes.join(" + "), s.iterations);
        let t0 = Instant::now();
        let values = (claim.run)(&mut runs, &s);
        let measured = verdict(claim.checks, &values);
        print_row(claim, &setting, &values, measured, t0.elapsed().as_secs_f64());
        // `Debug` quoting is JSON for the ledger's printable strings.
        let number = |v: f64| if v.is_finite() { v.to_string() } else { "null".to_string() };
        let values: Vec<String> =
            values.iter().map(|(n, v)| format!("{n:?}:{}", number(*v))).collect();
        let (id, locus, text, recorded) = (claim.id, claim.locus, claim.claim, claim.recorded);
        json.push(format!(
            "{{\"id\":{id:?},\"locus\":{locus:?},\"claim\":{text:?},\"setting\":{setting:?},\
             \"values\":{{{}}},\"measured\":{:?},\"recorded\":{:?},\"reason\":{:?}}}",
            values.join(","),
            measured.name(),
            recorded.name(),
            recorded.reason()
        ));
        verdicts.push((recorded, measured));
    }
    let (code, claims) = (exit_code(verdicts), json.join(",\n"));
    let doc = format!("{{\"scale\":{scale:?},\"host_cpus\":{cpus},\"claims\":[\n{claims}\n]}}\n");
    let path = std::path::Path::new("target/experiments/REPRODUCTION.json");
    warplda::corpus::io::atomic_write::<std::io::Error, _>(path, |f| f.write_all(doc.as_bytes()))
        .expect("write REPRODUCTION.json");
    let outcome = if code == 0 { "every verdict as recorded" } else { "A VERDICT DIFFERS" };
    println!("\nwrote {}: {} claims, {outcome}", path.display(), CLAIMS.len());
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(id: &str) -> &'static Claim {
        CLAIMS.iter().find(|c| c.id == id).expect("a ledger row")
    }

    #[test]
    fn verdicts_on_hand_written_values() {
        let checks = [at_least("speedup", 2.0).timed(), at_most("spread_pct", 5.0)];
        let judge = |pairs: &[(&str, f64)]| verdict(&checks, &named(pairs));
        assert_eq!(judge(&[("speedup", 2.7), ("spread_pct", 0.7)]), Holds);
        assert_eq!(judge(&[("speedup", 2.0), ("spread_pct", 5.0)]), Holds, "on the bound");
        assert_eq!(judge(&[("speedup", 1.99), ("spread_pct", 0.7)]), Fails(""));
        assert_eq!(judge(&[("speedup", 2.7), ("spread_pct", 6.01)]), Fails(""));
        assert_eq!(judge(&[("speedup", 2.7)]), Fails(""), "a missing value meets no bound");
        let host = |pairs: &[(&str, f64)]| verdict(claim("fig9a-measured").checks, &named(pairs));
        assert_eq!(host(&[("host_cpus", 2.0), ("speedup@2", 1.9)]), NotReproducibleHere(""));
        assert_eq!(host(&[("host_cpus", 24.0), ("speedup@24", 15.0)]), Holds);
        assert_eq!(host(&[("host_cpus", 32.0), ("speedup@24", 6.0)]), Fails(""));
        let fig6 = |pairs: &[(&str, f64)]| verdict(claim("fig6").checks, &named(pairs));
        assert_eq!(
            fig6(&[("host_cpus", 2.0), ("seconds_ratio_min", 9.0)]),
            NotReproducibleHere("")
        );
        assert_eq!(fig6(&[("host_cpus", 8.0), ("seconds_ratio_min", 5.0)]), Holds);
        assert_eq!(fig6(&[("host_cpus", 8.0), ("seconds_ratio_min", 3.0)]), Fails(""));
        assert_eq!([checks[0].margin(5.0), between("x", 1.0, 3.0).margin(2.0)], [2.5, 1.5]);
    }

    #[test]
    fn the_run_exits_nonzero_exactly_when_a_verdict_differs_from_its_record() {
        let nrh = NotReproducibleHere("");
        assert_eq!(exit_code([(Holds, Holds), (Fails("why"), Fails("")), (nrh, nrh)]), 0);
        assert_eq!(exit_code([(Holds, Holds), (Holds, Fails(""))]), 1, "stopped holding");
        assert_eq!(exit_code([(Fails("why"), Holds)]), 1, "started holding: record it");
        assert_eq!(exit_code([(nrh, Holds)]), 1, "a wider host shows it: record it");
    }

    #[test]
    fn only_full_is_an_argument() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        assert_eq!((parse(&[]), parse(&["--full"])), (Ok(false), Ok(true)));
        for bad in [&["--ful"][..], &["--full", "--quick"], &["--help"]] {
            assert_eq!(parse(bad), Err(bad[bad.len() - 1].to_string()));
        }
    }

    #[test]
    fn the_arithmetic_rows_reproduce_their_record() {
        let mut runs = Runs::default();
        for c in ["fig4", "fig9b", "table2"].map(claim) {
            let values = (c.run)(&mut runs, &c.scale[0]);
            assert_eq!(verdict(c.checks, &values), c.recorded, "{}: {values:?}", c.id);
        }
    }
}
