//! AliasLDA (Li, Ahmed, Ravi & Smola, KDD 2014).
//!
//! Factorization (Section 3.2 of the WarpLDA paper):
//!
//! ```text
//! p(k) ∝ C_dk · (C_wk + β)/(C_k + β̄)   — enumerated over the non-zeros of c_d
//!      +  α   · (C_wk + β)/(C_k + β̄)   — drawn from a *stale* per-word alias table
//! ```
//!
//! The stale table makes the draw O(1) amortized (it is rebuilt after `L_w`
//! draws so the O(K) build amortizes away); a Metropolis–Hastings correction
//! step removes the bias introduced by the staleness.

use rand::rngs::SmallRng;
use rand::Rng;

use warplda_corpus::{Corpus, DocMajorView, WordMajorView};
use warplda_sampling::{new_rng, AliasTable};

use crate::counts::TopicCounts;
use crate::params::ModelParams;
use crate::sampler::Sampler;
use crate::state::SamplerState;

/// A per-word stale alias table over `α(C_wk+β)/(C_k+β̄)` plus the sparse
/// word-topic counts it was built from (needed to evaluate the proposal
/// density in the MH correction).
struct StaleWordTable {
    table: AliasTable,
    /// Total unnormalized mass of the smoothing term at build time.
    total: f64,
    /// Stale sparse `(topic, count)` pairs of the word at build time.
    stale_pairs: Vec<(u32, u32)>,
    /// Draws since the table was built.
    draws: u32,
}

/// The AliasLDA sampler (sparsity-aware + MH, document-by-document, instant
/// count updates).
pub struct AliasLda {
    params: ModelParams,
    doc_view: DocMajorView,
    word_view: WordMajorView,
    state: SamplerState,
    rng: SmallRng,
    iterations: u64,
    beta_bar: f64,
    tables: Vec<Option<StaleWordTable>>,
    /// Number of MH correction steps per token (the original paper uses a
    /// handful; 2 is enough in practice).
    mh_steps: u32,
}

impl AliasLda {
    /// Creates a sampler with random initial assignments.
    pub fn new(corpus: &Corpus, params: ModelParams, seed: u64) -> Self {
        let doc_view = DocMajorView::build(corpus);
        let word_view = WordMajorView::build(corpus, &doc_view);
        let mut rng = new_rng(seed);
        let state = SamplerState::init_random(corpus, &doc_view, &word_view, params, &mut rng);
        let beta_bar = params.beta_bar(corpus.vocab_size());
        let tables = (0..corpus.vocab_size()).map(|_| None).collect();
        Self {
            params,
            doc_view,
            word_view,
            state,
            rng,
            iterations: 0,
            beta_bar,
            tables,
            mh_steps: 2,
        }
    }

    /// The current state (counts + assignments).
    pub fn state(&self) -> &SamplerState {
        &self.state
    }

    /// The document-major view.
    pub fn doc_view(&self) -> &DocMajorView {
        &self.doc_view
    }

    /// The word-major view.
    pub fn word_view(&self) -> &WordMajorView {
        &self.word_view
    }

    /// Builds (or rebuilds) the stale table for `w` from the current counts.
    fn rebuild_table(&mut self, w: u32) {
        let k = self.params.num_topics;
        let alpha = self.params.alpha;
        let beta = self.params.beta;
        let mut weights = vec![0.0f64; k];
        for (t, weight) in weights.iter_mut().enumerate() {
            let cwk = self.state.word_topic(w, t as u32) as f64;
            let ck = self.state.topic(t as u32) as f64;
            *weight = alpha * (cwk + beta) / (ck + self.beta_bar);
        }
        let total: f64 = weights.iter().sum();
        self.tables[w as usize] = Some(StaleWordTable {
            table: AliasTable::new(&weights),
            total,
            stale_pairs: self.state.word_counts(w).to_pairs(),
            draws: 0,
        });
    }

    /// Stale proposal density (unnormalized) of topic `t` for word `w`:
    /// `α (C^stale_wk + β)/(C_k + β̄)`. The global count `C_k` is read fresh —
    /// it is large and slowly varying, the same approximation LightLDA makes.
    fn stale_smoothing_weight(&self, w: u32, t: u32) -> f64 {
        let table = self.tables[w as usize].as_ref().expect("table built before use");
        let stale_cwk =
            table.stale_pairs.iter().find(|&&(topic, _)| topic == t).map_or(0, |&(_, c)| c) as f64;
        self.params.alpha * (stale_cwk + self.params.beta)
            / (self.state.topic(t) as f64 + self.beta_bar)
    }

    /// True (fresh, ¬dn) unnormalized conditional of topic `t`.
    fn target_weight(&self, d: u32, w: u32, t: u32) -> f64 {
        let cdk = self.state.doc_topic(d, t) as f64;
        let cwk = self.state.word_topic(w, t) as f64;
        let ck = self.state.topic(t) as f64;
        (cdk + self.params.alpha) * (cwk + self.params.beta) / (ck + self.beta_bar)
    }

    /// Full proposal density (doc bucket + stale smoothing bucket) of topic `t`.
    fn proposal_weight(&self, d: u32, w: u32, t: u32) -> f64 {
        let cdk = self.state.doc_topic(d, t) as f64;
        let cwk = self.state.word_topic(w, t) as f64;
        let ck = self.state.topic(t) as f64;
        cdk * (cwk + self.params.beta) / (ck + self.beta_bar) + self.stale_smoothing_weight(w, t)
    }
}

impl Sampler for AliasLda {
    fn name(&self) -> &'static str {
        "AliasLDA"
    }

    fn params(&self) -> &ModelParams {
        &self.params
    }

    fn run_iteration(&mut self) {
        let beta = self.params.beta;
        let beta_bar = self.beta_bar;

        for d in 0..self.doc_view.num_docs() {
            let d = d as u32;
            for i in self.doc_view.doc_range(d) {
                let w = self.doc_view.word_of(i);
                let current = self.state.remove_token(d, w, i);

                // Make sure the stale table exists and is not too old.
                let needs_rebuild = match &self.tables[w as usize] {
                    None => true,
                    Some(t) => t.draws as usize >= self.word_view.word_len(w).max(8),
                };
                if needs_rebuild {
                    self.rebuild_table(w);
                }

                // Doc bucket with fresh counts: weights over the non-zeros of c_d.
                let mut doc_weights: Vec<(u32, f64)> = Vec::new();
                let mut doc_total = 0.0;
                self.state.doc_counts(d).for_each(|t, cdk| {
                    let cwk = self.state.word_topic(w, t) as f64;
                    let ck = self.state.topic(t) as f64;
                    let wgt = cdk as f64 * (cwk + beta) / (ck + beta_bar);
                    doc_total += wgt;
                    doc_weights.push((t, wgt));
                });

                let mut z = current;
                for _ in 0..self.mh_steps {
                    // Draw a candidate from the mixture proposal.
                    let (stale_total, candidate) = {
                        let table = self.tables[w as usize].as_mut().expect("built above");
                        table.draws += 1;
                        let stale_total = table.total;
                        let u = self.rng.gen::<f64>() * (doc_total + stale_total);
                        let candidate = if u < doc_total && !doc_weights.is_empty() {
                            let mut acc = 0.0;
                            let mut chosen = doc_weights[doc_weights.len() - 1].0;
                            for &(t, wgt) in &doc_weights {
                                acc += wgt;
                                if u < acc {
                                    chosen = t;
                                    break;
                                }
                            }
                            chosen
                        } else {
                            table.table.sample(&mut self.rng) as u32
                        };
                        (stale_total, candidate)
                    };
                    let _ = stale_total;
                    if candidate == z {
                        continue;
                    }
                    // MH correction: accept with p(t)q(s) / (p(s)q(t)).
                    let num = self.target_weight(d, w, candidate) * self.proposal_weight(d, w, z);
                    let den = self.target_weight(d, w, z) * self.proposal_weight(d, w, candidate);
                    let ratio = if den <= 0.0 { 1.0 } else { num / den };
                    if ratio >= 1.0 || self.rng.gen::<f64>() < ratio {
                        z = candidate;
                    }
                }

                self.state.assign_token(d, w, i, z);
            }
        }
        self.iterations += 1;
    }

    fn iterations(&self) -> u64 {
        self.iterations
    }

    fn assignments(&self) -> Vec<u32> {
        self.state.assignments().to_vec()
    }

    fn assignments_slice(&self) -> Option<&[u32]> {
        Some(self.state.assignments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgs::CollapsedGibbs;
    use crate::eval::log_joint_likelihood_of_state;
    use warplda_corpus::CorpusBuilder;

    fn themed_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..25 {
            b.push_text_doc(["sun", "beach", "sand", "wave", "sun"]);
            b.push_text_doc(["snow", "ski", "ice", "cold", "snow"]);
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_stay_consistent() {
        let corpus = themed_corpus();
        let mut s = AliasLda::new(&corpus, ModelParams::new(5, 0.3, 0.05), 3);
        for _ in 0..3 {
            s.run_iteration();
            let dv = s.doc_view().clone();
            let wv = s.word_view().clone();
            s.state().assert_consistent(&dv, &wv);
        }
    }

    #[test]
    fn converges_close_to_cgs() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut alias = AliasLda::new(&corpus, params, 5);
        let mut cgs = CollapsedGibbs::new(&corpus, params, 5);
        let ll0 = log_joint_likelihood_of_state(alias.doc_view(), alias.word_view(), alias.state());
        for _ in 0..30 {
            alias.run_iteration();
            cgs.run_iteration();
        }
        let ll_alias =
            log_joint_likelihood_of_state(alias.doc_view(), alias.word_view(), alias.state());
        let ll_cgs = log_joint_likelihood_of_state(cgs.doc_view(), cgs.word_view(), cgs.state());
        assert!(ll_alias > ll0, "likelihood should improve: {ll0} -> {ll_alias}");
        assert!(
            (ll_alias - ll_cgs).abs() < 0.05 * ll_cgs.abs(),
            "AliasLDA {ll_alias} should approach CGS {ll_cgs}"
        );
    }

    #[test]
    fn separates_planted_topics() {
        let corpus = themed_corpus();
        let mut s = AliasLda::new(&corpus, ModelParams::new(2, 0.5, 0.1), 29);
        for _ in 0..40 {
            s.run_iteration();
        }
        let sun = corpus.vocab().get("sun").unwrap();
        let snow = corpus.vocab().get("snow").unwrap();
        let sun_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(sun, t)).unwrap();
        let snow_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(snow, t)).unwrap();
        assert_ne!(sun_topic, snow_topic);
    }

    #[test]
    fn stale_tables_are_rebuilt_after_enough_draws() {
        let corpus = themed_corpus();
        let mut s = AliasLda::new(&corpus, ModelParams::new(4, 0.5, 0.1), 31);
        s.run_iteration();
        // Every word seen during the iteration must have a table.
        for w in 0..corpus.vocab_size() as u32 {
            if s.word_view().word_len(w) > 0 {
                assert!(s.tables[w as usize].is_some(), "word {w} should have a table");
            }
        }
    }
}
