//! SparseLDA (Yao, Mimno & McCallum, KDD 2009).
//!
//! The conditional of Eq. 1 is split into three buckets (Section 3.2 of the
//! WarpLDA paper):
//!
//! ```text
//! p(k) ∝  C_wk · (C_dk + α)/(C_k + β̄)     "q" — needs the non-zeros of c_w
//!       +  β · C_dk /(C_k + β̄)             "r" — needs the non-zeros of c_d
//!       +  α · β  /(C_k + β̄)               "s" — dense smoothing, slowly varying
//! ```
//!
//! Sampling costs O(K_d + K_w) per token instead of O(K): draw a uniform in
//! `[0, Q+R+S)` and walk whichever bucket it lands in.

use rand::rngs::SmallRng;
use rand::Rng;

use warplda_corpus::{Corpus, DocMajorView, WordMajorView};
use warplda_sampling::new_rng;

use crate::counts::TopicCounts;
use crate::params::ModelParams;
use crate::sampler::Sampler;
use crate::state::SamplerState;

/// The SparseLDA sampler (sparsity-aware, document-by-document, instant count
/// updates).
pub struct SparseLda {
    params: ModelParams,
    doc_view: DocMajorView,
    word_view: WordMajorView,
    state: SamplerState,
    rng: SmallRng,
    iterations: u64,
    beta_bar: f64,
}

impl SparseLda {
    /// Creates a sampler with random initial assignments.
    pub fn new(corpus: &Corpus, params: ModelParams, seed: u64) -> Self {
        let doc_view = DocMajorView::build(corpus);
        let word_view = WordMajorView::build(corpus, &doc_view);
        let mut rng = new_rng(seed);
        let state = SamplerState::init_random(corpus, &doc_view, &word_view, params, &mut rng);
        let beta_bar = params.beta_bar(corpus.vocab_size());
        Self { params, doc_view, word_view, state, rng, iterations: 0, beta_bar }
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

    /// The dense smoothing bucket total `S = Σ_k αβ/(C_k + β̄)`.
    fn smoothing_total(&self) -> f64 {
        let alpha = self.params.alpha;
        let beta = self.params.beta;
        self.state.topic_counts().iter().map(|&ck| alpha * beta / (ck as f64 + self.beta_bar)).sum()
    }

    /// The document bucket total `R = Σ_k β·C_dk/(C_k + β̄)` for document `d`.
    fn doc_bucket_total(&self, d: u32) -> f64 {
        let beta = self.params.beta;
        let mut r = 0.0;
        self.state.doc_counts(d).for_each(|t, c| {
            r += beta * c as f64 / (self.state.topic(t) as f64 + self.beta_bar);
        });
        r
    }
}

impl Sampler for SparseLda {
    fn name(&self) -> &'static str {
        "SparseLDA"
    }

    fn params(&self) -> &ModelParams {
        &self.params
    }

    fn run_iteration(&mut self) {
        let alpha = self.params.alpha;
        let beta = self.params.beta;
        let beta_bar = self.beta_bar;

        for d in 0..self.doc_view.num_docs() {
            let d = d as u32;
            for i in self.doc_view.doc_range(d) {
                let w = self.doc_view.word_of(i);
                self.state.remove_token(d, w, i);

                // Bucket totals with the ¬dn counts. S and R are recomputed here
                // for simplicity and correctness; the classic implementation
                // maintains them incrementally but the bucket *logic* is identical.
                let s_total = self.smoothing_total();
                let r_total = self.doc_bucket_total(d);
                // Q bucket: iterate the non-zeros of c_w.
                let mut q_total = 0.0;
                let word_pairs = self.state.word_counts(w).to_pairs();
                let mut q_weights: Vec<(u32, f64)> = Vec::with_capacity(word_pairs.len());
                for &(t, cwk) in &word_pairs {
                    let weight = cwk as f64 * (self.state.doc_topic(d, t) as f64 + alpha)
                        / (self.state.topic(t) as f64 + beta_bar);
                    q_total += weight;
                    q_weights.push((t, weight));
                }

                let u = self.rng.gen::<f64>() * (q_total + r_total + s_total);
                let new_topic = if u < q_total {
                    // Walk the q bucket.
                    let mut acc = 0.0;
                    let mut chosen = q_weights.last().map(|&(t, _)| t).unwrap_or(0);
                    for &(t, wgt) in &q_weights {
                        acc += wgt;
                        if u < acc {
                            chosen = t;
                            break;
                        }
                    }
                    chosen
                } else if u < q_total + r_total {
                    // Walk the r bucket (non-zeros of c_d).
                    let target = u - q_total;
                    let mut acc = 0.0;
                    let mut chosen = None;
                    let pairs = self.state.doc_counts(d).to_pairs();
                    for &(t, cdk) in &pairs {
                        acc += beta * cdk as f64 / (self.state.topic(t) as f64 + beta_bar);
                        if target < acc {
                            chosen = Some(t);
                            break;
                        }
                    }
                    chosen.or_else(|| pairs.last().map(|&(t, _)| t)).unwrap_or(0)
                } else {
                    // Walk the dense smoothing bucket.
                    let target = u - q_total - r_total;
                    let mut acc = 0.0;
                    let mut chosen = self.params.num_topics as u32 - 1;
                    for (t, &ck) in self.state.topic_counts().iter().enumerate() {
                        acc += alpha * beta / (ck as f64 + beta_bar);
                        if target < acc {
                            chosen = t as u32;
                            break;
                        }
                    }
                    chosen
                };

                self.state.assign_token(d, w, i, new_topic);
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
            b.push_text_doc(["goal", "match", "team", "score", "goal"]);
            b.push_text_doc(["gene", "cell", "protein", "dna", "gene"]);
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_stay_consistent() {
        let corpus = themed_corpus();
        let mut s = SparseLda::new(&corpus, ModelParams::new(6, 0.3, 0.05), 3);
        for _ in 0..3 {
            s.run_iteration();
            let dv = s.doc_view().clone();
            let wv = s.word_view().clone();
            s.state().assert_consistent(&dv, &wv);
        }
    }

    #[test]
    fn likelihood_improves_and_tracks_cgs() {
        let corpus = themed_corpus();
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut sparse = SparseLda::new(&corpus, params, 5);
        let mut cgs = CollapsedGibbs::new(&corpus, params, 5);
        let ll0 =
            log_joint_likelihood_of_state(sparse.doc_view(), sparse.word_view(), sparse.state());
        for _ in 0..25 {
            sparse.run_iteration();
            cgs.run_iteration();
        }
        let ll_sparse =
            log_joint_likelihood_of_state(sparse.doc_view(), sparse.word_view(), sparse.state());
        let ll_cgs = log_joint_likelihood_of_state(cgs.doc_view(), cgs.word_view(), cgs.state());
        assert!(ll_sparse > ll0, "likelihood should improve: {ll0} -> {ll_sparse}");
        // SparseLDA samples from the exact conditional, so it should converge to
        // essentially the same likelihood as CGS (within a small tolerance).
        assert!(
            (ll_sparse - ll_cgs).abs() < 0.05 * ll_cgs.abs(),
            "SparseLDA {ll_sparse} should be close to CGS {ll_cgs}"
        );
    }

    #[test]
    fn separates_planted_topics() {
        let corpus = themed_corpus();
        let mut s = SparseLda::new(&corpus, ModelParams::new(2, 0.5, 0.1), 17);
        for _ in 0..30 {
            s.run_iteration();
        }
        let goal = corpus.vocab().get("goal").unwrap();
        let gene = corpus.vocab().get("gene").unwrap();
        let goal_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(goal, t)).unwrap();
        let gene_topic = (0..2u32).max_by_key(|&t| s.state().word_topic(gene, t)).unwrap();
        assert_ne!(goal_topic, gene_topic);
    }

    #[test]
    fn bucket_totals_are_positive_and_finite() {
        let corpus = themed_corpus();
        let s = SparseLda::new(&corpus, ModelParams::new(8, 0.4, 0.02), 23);
        let smoothing = s.smoothing_total();
        assert!(smoothing.is_finite() && smoothing > 0.0);
        let r = s.doc_bucket_total(0);
        assert!(r.is_finite() && r > 0.0);
    }
}
