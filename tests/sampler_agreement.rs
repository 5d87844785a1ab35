//! Cross-sampler agreement, the Section 6.3 claim ("the MCEM solution of
//! WarpLDA is very similar with the CGS solution"), checked two ways:
//!
//! * **The exact-posterior oracle.** On a corpus small enough to score every
//!   one of its K^T assignments, the posterior's co-assignment matrix
//!   `P(z_i = z_j)` is known exactly; each sampler's seeded chains estimate
//!   it with a Monte Carlo standard error. The exact samplers (CGS, F+LDA)
//!   must land within error, a deliberately wrong α must not, and the MH
//!   samplers (LightLDA, the Figure 7 ladder, WarpLDA) must land within a
//!   fixed distance.
//! * **Converged likelihoods.** On a larger synthetic corpus every sampler
//!   and every Figure 7 variant reaches a similar log joint likelihood, and
//!   more MH steps converge no slower (Figure 8).

use warplda::prelude::*;

/// The oracle's corpus, `[a b a] [b c c d] [a d c]`: T = 10 tokens over
/// V = 4 words, so at K = 3 its 3¹⁰ = 59,049 assignments can all be scored.
fn enumerable_corpus() -> Corpus {
    let mut b = CorpusBuilder::new();
    b.push_text_doc(["a", "b", "a"]);
    b.push_text_doc(["b", "c", "c", "d"]);
    b.push_text_doc(["a", "d", "c"]);
    b.build().unwrap()
}

/// Whether tokens `i < j` share a topic under `z`, for every pair in a fixed
/// order. Relabelling the topics changes none of these, so they are
/// comparable between chains that settled on different labellings (the
/// per-token marginals are all 1/K by symmetry and tell nothing).
fn co_assigned(z: &[u32]) -> impl Iterator<Item = bool> + '_ {
    (0..z.len()).flat_map(move |i| (i + 1..z.len()).map(move |j| z[i] == z[j]))
}

/// `P(z_i = z_j | W)` for every pair, from the exact posterior: every
/// assignment weighted by `exp(log p(W, Z))`.
fn exact_co_assignment(corpus: &Corpus, params: &ModelParams) -> Vec<f64> {
    let doc_view = DocMajorView::build(corpus);
    let word_view = WordMajorView::build(corpus, &doc_view);
    let (tokens, k) = (doc_view.num_tokens(), params.num_topics as u32);
    let mut z = vec![0u32; tokens];
    let mut states = Vec::new();
    loop {
        states.push((log_joint_likelihood(corpus, &doc_view, &word_view, params, &z), z.clone()));
        // Count `z` up in base K; the states are exhausted when it wraps to 0.
        let Some(digit) = z.iter().position(|&t| t + 1 < k) else { break };
        z[..digit].fill(0);
        z[digit] += 1;
    }
    let max = states.iter().map(|&(ll, _)| ll).fold(f64::NEG_INFINITY, f64::max);
    let mut pairs = vec![0.0; tokens * (tokens - 1) / 2];
    let mut total = 0.0;
    for (ll, z) in &states {
        let p = (ll - max).exp();
        total += p;
        for (sum, same) in pairs.iter_mut().zip(co_assigned(z)) {
            *sum += if same { p } else { 0.0 };
        }
    }
    pairs.iter().map(|sum| sum / total).collect()
}

/// How far one sampler's co-assignment estimate lies from the exact one,
/// over all pairs: the largest and the mean absolute difference, and the
/// largest difference in standard errors.
#[derive(Debug)]
struct Agreement {
    max_abs: f64,
    mean_abs: f64,
    max_z: f64,
}

/// Runs `CHAINS` chains of `chain(seed)`, seeds 1..=CHAINS, each for
/// `BURN_IN` iterations and then `SAMPLES` more whose states are all
/// counted. Each chain contributes one mean per pair; the spread of those
/// independent means gives the standard error, whatever the chains'
/// autocorrelation.
fn agreement<S: Sampler>(exact: &[f64], chain: impl Fn(u64) -> S) -> Agreement {
    const CHAINS: u64 = 400;
    const BURN_IN: usize = 20;
    const SAMPLES: usize = 200;
    let (mut sum, mut sum_sq) = (vec![0.0; exact.len()], vec![0.0; exact.len()]);
    let mut hits = vec![0u32; exact.len()];
    for seed in 1..=CHAINS {
        let mut sampler = chain(seed);
        for _ in 0..BURN_IN {
            sampler.run_iteration();
        }
        hits.fill(0);
        for _ in 0..SAMPLES {
            sampler.run_iteration();
            for (h, same) in hits.iter_mut().zip(co_assigned(&sampler.assignments())) {
                *h += same as u32;
            }
        }
        for ((s, s2), &h) in sum.iter_mut().zip(&mut sum_sq).zip(&hits) {
            let mean = h as f64 / SAMPLES as f64;
            *s += mean;
            *s2 += mean * mean;
        }
    }
    let n = CHAINS as f64;
    let mut out = Agreement { max_abs: 0.0, mean_abs: 0.0, max_z: 0.0 };
    for ((&s, &s2), &p) in sum.iter().zip(&sum_sq).zip(exact) {
        let mean = s / n;
        let std_err = ((s2 / n - mean * mean) / (n - 1.0)).sqrt();
        let d = (mean - p).abs();
        out.max_abs = out.max_abs.max(d);
        out.mean_abs += d / exact.len() as f64;
        out.max_z = out.max_z.max(d / std_err);
    }
    out
}

/// What the oracle must say about a sampler.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// An exact sampler: every pair within the Bonferroni bound over the 45
    /// pairs (a |z| above 4.5 has probability ≈ 3·10⁻⁴ across all of them).
    WithinError,
    /// A sampler of the wrong posterior: some pair beyond that bound.
    Flagged,
    /// An MH sampler: every pair within this absolute distance.
    Within(f64),
}

#[test]
fn exact_posterior_oracle_checks_which_distribution_each_sampler_targets() {
    const Z_BOUND: f64 = 4.5;
    const MH_BOUND: f64 = 0.1;
    let corpus = enumerable_corpus();
    let params = ModelParams::new(3, 0.5, 0.1);
    let exact = exact_co_assignment(&corpus, &params);
    assert_eq!(exact.len(), 45);

    let mut failures = Vec::new();
    let mut check = |name: &str, expect: Expect, a: Agreement| {
        println!("{name:<22} {:>8.4} {:>8.4} {:>8.2}  {expect:?}", a.max_abs, a.mean_abs, a.max_z);
        let holds = match expect {
            Expect::WithinError => a.max_z <= Z_BOUND,
            Expect::Flagged => a.max_z > Z_BOUND,
            Expect::Within(bound) => a.max_abs <= bound,
        };
        if !holds {
            failures.push(format!("{name}: {a:?}, expected {expect:?}"));
        }
    };
    println!("{:<22} {:>8} {:>8} {:>8}  expected", "sampler", "max |d|", "mean |d|", "max |z|");

    let c = &corpus;
    check("CGS", Expect::WithinError, agreement(&exact, |s| CollapsedGibbs::new(c, params, s)));
    check("F+LDA", Expect::WithinError, agreement(&exact, |s| FPlusLda::new(c, params, s)));
    let wrong_alpha = ModelParams::new(3, 0.4, 0.1);
    let cgs_wrong_alpha = agreement(&exact, |s| CollapsedGibbs::new(c, wrong_alpha, s));
    check("CGS, α = 0.4", Expect::Flagged, cgs_wrong_alpha);
    for m in [1, 4] {
        let a = agreement(&exact, |s| LightLda::new(c, params, m, s));
        check(&format!("LightLDA M={m}"), Expect::Within(MH_BOUND), a);
    }
    use LightLdaVariant as V;
    for variant in [V::delayed_word(), V::delayed_word_doc(), V::warp_like()] {
        let a = agreement(&exact, |s| LightLda::with_variant(c, params, 1, s, variant));
        check(&format!("{} M=1", variant.label()), Expect::Within(MH_BOUND), a);
    }
    for m in [1, 4] {
        let a = agreement(&exact, |s| WarpLda::new(c, params, WarpLdaConfig::with_mh_steps(m), s));
        check(&format!("WarpLDA M={m}"), Expect::Within(MH_BOUND), a);
    }
    assert!(failures.is_empty(), "the oracle disagrees: {failures:#?}");
}

fn corpus() -> Corpus {
    let mut cfg = SyntheticConfig {
        num_docs: 120,
        vocab_size: 300,
        mean_doc_len: 50,
        num_topics: 5,
        ..SyntheticConfig::default()
    };
    cfg.seed = 2016;
    LdaGenerator::new(cfg).generate()
}

fn final_ll(sampler: &mut dyn Sampler, corpus: &Corpus, iterations: usize) -> f64 {
    let trainer = Trainer::new(corpus);
    trainer.train(&TrainerConfig::new(iterations).eval_every(0), sampler.name(), sampler).final_ll()
}

#[test]
fn all_samplers_converge_to_similar_likelihood() {
    let corpus = corpus();
    let params = ModelParams::new(5, 0.5, 0.05);
    let iterations = 60;

    let mut samplers: Vec<(&str, Box<dyn Sampler>)> = vec![
        ("CGS", Box::new(CollapsedGibbs::new(&corpus, params, 1))),
        ("F+LDA", Box::new(FPlusLda::new(&corpus, params, 4))),
        ("LightLDA", Box::new(LightLda::new(&corpus, params, 4, 5))),
        ("WarpLDA", Box::new(WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(4), 6))),
    ];

    let mut results = Vec::new();
    for (name, sampler) in &mut samplers {
        let ll = final_ll(sampler.as_mut(), &corpus, iterations);
        assert!(ll.is_finite(), "{name} produced a non-finite likelihood");
        results.push((*name, ll));
    }

    let reference = results.iter().find(|(n, _)| *n == "CGS").unwrap().1;
    for &(name, ll) in &results {
        assert!(
            (ll - reference).abs() < 0.04 * reference.abs(),
            "{name} ({ll:.1}) should converge near CGS ({reference:.1}); all: {results:?}"
        );
    }
}

#[test]
fn figure7_ladder_variants_agree_with_warplda() {
    let corpus = corpus();
    let params = ModelParams::new(5, 0.5, 0.05);
    let iterations = 60;

    let mut lls = Vec::new();
    for variant in [
        LightLdaVariant::standard(),
        LightLdaVariant::delayed_word(),
        LightLdaVariant::delayed_word_doc(),
        LightLdaVariant::warp_like(),
    ] {
        let mut s = LightLda::with_variant(&corpus, params, 1, 9, variant);
        lls.push((variant.label(), final_ll(&mut s, &corpus, iterations)));
    }
    let mut warp = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(1), 9);
    lls.push(("WarpLDA", final_ll(&mut warp, &corpus, iterations)));

    let best = lls.iter().map(|&(_, l)| l).fold(f64::NEG_INFINITY, f64::max);
    let worst = lls.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
    assert!(
        (best - worst).abs() < 0.05 * best.abs(),
        "the Figure 7 ladder should converge to similar likelihoods: {lls:?}"
    );
}

#[test]
fn more_mh_steps_converge_in_fewer_iterations() {
    // Figure 8: per iteration, larger M converges faster (or at least no slower).
    let corpus = corpus();
    let params = ModelParams::new(5, 0.5, 0.05);
    let budget = 12;

    let ll_for = |m: usize| {
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(m), 77);
        final_ll(&mut s, &corpus, budget)
    };
    let ll_m1 = ll_for(1);
    let ll_m8 = ll_for(8);
    assert!(
        ll_m8 >= ll_m1 - 0.01 * ll_m1.abs(),
        "after {budget} iterations M=8 ({ll_m8:.1}) should be at least as good as M=1 ({ll_m1:.1})"
    );
}
