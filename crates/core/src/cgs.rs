//! Plain collapsed Gibbs sampling (Griffiths & Steyvers), the O(K)-per-token
//! reference everything else is measured against (Section 2.1, Eq. 1).

use rand::rngs::SmallRng;

use warplda_corpus::{Corpus, DocMajorView};
use warplda_sampling::{new_rng, sample_unnormalized};

use crate::params::ModelParams;
use crate::sampler::Sampler;
use crate::state::SamplerState;

/// The exact collapsed Gibbs sampler: for every token it removes the token
/// from the counts, evaluates the full conditional
/// `p(z = k) ∝ (C¬_dk + α)(C¬_wk + β)/(C¬_k + β̄)` for all `K` topics and
/// draws from it.
pub struct CollapsedGibbs {
    params: ModelParams,
    /// The token order the sampler visits.
    doc_view: DocMajorView,
    state: SamplerState,
    rng: SmallRng,
    iterations: u64,
    beta_bar: f64,
    /// Reusable O(K) weight buffer.
    weights: Vec<f64>,
}

impl CollapsedGibbs {
    /// Creates a sampler with random initial assignments.
    pub fn new(corpus: &Corpus, params: ModelParams, seed: u64) -> Self {
        let doc_view = DocMajorView::build(corpus);
        let mut rng = new_rng(seed);
        let state = SamplerState::init_random(corpus, params, &mut rng);
        let beta_bar = params.beta_bar(corpus.vocab_size());
        let weights = vec![0.0; params.num_topics];
        Self { params, doc_view, state, rng, iterations: 0, beta_bar, weights }
    }

    /// The current state (counts + assignments).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &SamplerState {
        &self.state
    }
}

impl Sampler for CollapsedGibbs {
    fn params(&self) -> &ModelParams {
        &self.params
    }

    fn run_iteration(&mut self) {
        let k = self.params.num_topics;
        let alpha = self.params.alpha;
        let beta = self.params.beta;
        for d in 0..self.doc_view.num_docs() {
            let d = d as u32;
            for i in self.doc_view.doc_range(d) {
                let w = self.doc_view.word_of(i);
                self.state.remove_token(d, w, i);
                for t in 0..k as u32 {
                    let cdk = self.state.doc_topic(d, t) as f64;
                    let cwk = self.state.word_topic(w, t) as f64;
                    let ck = self.state.topic(t) as f64;
                    self.weights[t as usize] = (cdk + alpha) * (cwk + beta) / (ck + self.beta_bar);
                }
                let new = sample_unnormalized(&mut self.rng, &self.weights) as u32;
                self.state.assign_token(d, w, i, new);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::log_joint_likelihood_of_state;
    use warplda_corpus::{CorpusBuilder, DatasetPreset};

    fn two_topic_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..30 {
            b.push_text_doc(["cat", "dog", "pet", "kitten", "cat", "dog"]);
            b.push_text_doc(["stock", "bond", "market", "trade", "stock", "bond"]);
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_stay_consistent_across_iterations() {
        let corpus = two_topic_corpus();
        let mut s = CollapsedGibbs::new(&corpus, ModelParams::new(4, 0.5, 0.1), 7);
        for _ in 0..3 {
            s.run_iteration();
            s.state().assert_consistent(&corpus);
        }
        assert_eq!(s.iterations(), 3);
    }

    #[test]
    fn likelihood_improves_from_random_initialization() {
        let corpus = two_topic_corpus();
        let mut s = CollapsedGibbs::new(&corpus, ModelParams::new(2, 0.5, 0.1), 11);
        let ll0 = log_joint_likelihood_of_state(s.state());
        for _ in 0..20 {
            s.run_iteration();
        }
        let ll1 = log_joint_likelihood_of_state(s.state());
        assert!(ll1 > ll0 + 5.0, "likelihood should improve: {ll0} -> {ll1}");
    }

    #[test]
    fn separates_two_planted_topics() {
        let corpus = two_topic_corpus();
        let mut s = CollapsedGibbs::new(&corpus, ModelParams::new(2, 0.5, 0.1), 13);
        for _ in 0..30 {
            s.run_iteration();
        }
        // "cat" and "stock" should end up dominated by different topics.
        let cat = corpus.vocab().get("cat").unwrap();
        let stock = corpus.vocab().get("stock").unwrap();
        let cat_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(cat, t)).unwrap();
        let stock_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(stock, t)).unwrap();
        assert_ne!(cat_topic, stock_topic, "the two themes should land in different topics");
        // And the dominant topic should hold most of the word's mass.
        let cat_total: u32 = (0..2u32).map(|t| s.state().word_topic(cat, t)).sum();
        assert!(s.state().word_topic(cat, cat_topic) * 10 >= cat_total * 8);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let corpus = DatasetPreset::Tiny.generate_scaled(10);
        let mut a = CollapsedGibbs::new(&corpus, ModelParams::new(5, 0.5, 0.1), 42);
        let mut b = CollapsedGibbs::new(&corpus, ModelParams::new(5, 0.5, 0.1), 42);
        a.run_iteration();
        b.run_iteration();
        assert_eq!(a.assignments(), b.assignments());
    }
}
