//! Model-quality evaluation.
//!
//! The paper measures quality by the **log joint likelihood** (Section 6.1):
//!
//! ```text
//! L = log p(W, Z | α, β)
//!   = Σ_d [ ln Γ(ᾱ) − ln Γ(ᾱ + L_d) + Σ_k ( ln Γ(α_k + C_dk) − ln Γ(α_k) ) ]
//!   + Σ_k [ ln Γ(β̄) − ln Γ(β̄ + C_k) + Σ_w ( ln Γ(β + C_kw) − ln Γ(β) ) ]
//! ```
//!
//! Only non-zero counts contribute to the inner sums, so the cost is
//! O(non-zeros), not O(DK + KV).
//!
//! Evaluating assignments does not materialize `C_d` or `C_w` (Section 4.4
//! holds for evaluation as it does for sampling): [`log_joint_likelihood`]
//! counts one document, then one word, at a time into a single reusable
//! vector (`LikelihoodSum`) and allocates O(K), whatever D and V are.
//! [`log_joint_likelihood_of_state`] is for callers that hold the count
//! tables anyway; both add the same terms in the same order and return the
//! same bits.

use warplda_corpus::{Corpus, DocMajorView, WordMajorView};

use crate::counts::{DenseCounts, TopicCounts};
use crate::math::ln_gamma_ratio;
use crate::params::ModelParams;
use crate::state::SamplerState;

/// The log joint likelihood as a running sum over entities visited one at a
/// time: every document ([`doc`](Self::doc)), then every word
/// ([`word`](Self::word)), then [`finish`](Self::finish). One count vector
/// serves them all. Topics of an entity must arrive in token order: counts
/// are added up in order of first touch, which is the order a
/// [`SamplerState`]'s tables iterate in, so the floating-point sum equals
/// [`log_joint_likelihood_of_state`]'s bit for bit.
pub(crate) struct LikelihoodSum {
    alpha: f64,
    alpha_bar: f64,
    beta: f64,
    beta_bar: f64,
    counts: DenseCounts,
    /// `c_k`, accumulated over the words.
    topic_counts: Vec<u32>,
    ll: f64,
}

impl LikelihoodSum {
    pub(crate) fn new(params: &ModelParams, vocab_size: usize) -> Self {
        Self {
            alpha: params.alpha,
            alpha_bar: params.alpha_bar(),
            beta: params.beta,
            beta_bar: params.beta_bar(vocab_size),
            counts: DenseCounts::new(params.num_topics),
            topic_counts: vec![0; params.num_topics],
            ll: 0.0,
        }
    }

    /// Adds one document's term given the topics of its tokens.
    pub(crate) fn doc(&mut self, topics: impl Iterator<Item = u32>) {
        self.counts.clear();
        for t in topics {
            self.counts.increment(t);
        }
        self.ll -= ln_gamma_ratio(self.alpha_bar, self.counts.total());
        let (alpha, ll) = (self.alpha, &mut self.ll);
        self.counts.for_each(|_, c| *ll += ln_gamma_ratio(alpha, c as u64));
    }

    /// Adds one word's term given the topics of its occurrences.
    pub(crate) fn word(&mut self, topics: impl Iterator<Item = u32>) {
        self.counts.clear();
        for t in topics {
            self.counts.increment(t);
            self.topic_counts[t as usize] += 1;
        }
        let (beta, ll) = (self.beta, &mut self.ll);
        self.counts.for_each(|_, c| *ll += ln_gamma_ratio(beta, c as u64));
    }

    /// Adds the per-topic terms and returns the sum.
    pub(crate) fn finish(mut self) -> f64 {
        for &ck in &self.topic_counts {
            self.ll -= ln_gamma_ratio(self.beta_bar, ck as u64);
        }
        self.ll
    }
}

/// Computes `log p(W, Z | α, β)` for arbitrary topic assignments `z`
/// (doc-major token order), streaming: no count table outlives the document
/// or word it belongs to.
///
/// # Panics
/// Panics if `z` does not hold one topic below `K` per token.
pub fn log_joint_likelihood(
    corpus: &Corpus,
    doc_view: &DocMajorView,
    word_view: &WordMajorView,
    params: &ModelParams,
    z: &[u32],
) -> f64 {
    debug_assert_eq!(corpus.vocab_size(), word_view.num_words());
    assert_eq!(z.len(), doc_view.num_tokens(), "one topic per token required");
    let mut sum = LikelihoodSum::new(params, word_view.num_words());
    for d in 0..doc_view.num_docs() as u32 {
        sum.doc(z[doc_view.doc_range(d)].iter().copied());
    }
    for w in 0..word_view.num_words() as u32 {
        sum.word(word_view.word_token_indices(w).iter().map(|&i| z[i as usize]));
    }
    sum.finish()
}

/// Computes the log joint likelihood from an existing [`SamplerState`]
/// (avoids re-counting when the caller already maintains counts). A
/// document's length is its row's total.
pub fn log_joint_likelihood_of_state(state: &SamplerState) -> f64 {
    let params = state.params();
    let k = params.num_topics;
    let vocab_size = state.num_words();
    let alpha = params.alpha;
    let alpha_bar = params.alpha_bar();
    let beta = params.beta;
    let beta_bar = params.beta_bar(vocab_size);

    let mut ll = 0.0;

    // Document part.
    for d in 0..state.num_docs() as u32 {
        let counts = state.doc_counts(d);
        ll -= ln_gamma_ratio(alpha_bar, counts.total());
        counts.for_each(|_, c| {
            ll += ln_gamma_ratio(alpha, c as u64);
        });
    }

    // Word part: Σ_k Σ_w ln Γ(β + C_kw) − ln Γ(β), grouped by word rows.
    for w in 0..vocab_size {
        state.word_counts(w as u32).for_each(|_, c| {
            ll += ln_gamma_ratio(beta, c as u64);
        });
    }
    for t in 0..k {
        let ck = state.topic_counts()[t] as u64;
        ll -= ln_gamma_ratio(beta_bar, ck);
    }
    ll
}

/// Per-token perplexity `exp(−L / T)` of the joint likelihood; a scale-free
/// number that is easier to compare across corpora than raw log likelihood.
///
/// Returns `None` for an empty corpus (`num_tokens == 0`): perplexity is
/// undefined without tokens, and the old behaviour of silently yielding `NaN`
/// poisoned every downstream aggregate.
pub fn perplexity_per_token(log_likelihood: f64, num_tokens: u64) -> Option<f64> {
    if num_tokens == 0 {
        return None;
    }
    Some((-log_likelihood / num_tokens as f64).exp())
}

/// Returns, for each topic, the `top_n` highest-count words as
/// `(word_id, count)` pairs — the standard qualitative inspection of a topic
/// model.
pub fn top_words(state: &SamplerState, top_n: usize) -> Vec<Vec<(u32, u32)>> {
    let k = state.params().num_topics;
    let mut per_topic: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
    for w in 0..state.num_words() {
        state.word_counts(w as u32).for_each(|t, c| {
            per_topic[t as usize].push((w as u32, c));
        });
    }
    for list in &mut per_topic {
        list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        list.truncate(top_n);
    }
    per_topic
}

/// Renders the top words of every topic using the corpus vocabulary; one line
/// per topic. Used by the examples.
pub fn format_topics(corpus: &Corpus, state: &SamplerState, top_n: usize) -> String {
    let lists = top_words(state, top_n);
    let mut out = String::new();
    for (topic, list) in lists.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        out.push_str(&format!("topic {topic:>4}:"));
        for &(w, c) in list {
            let word = corpus.vocab().word(w).unwrap_or("?");
            out.push_str(&format!(" {word}({c})"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::ln_gamma;
    use warplda_corpus::CorpusBuilder;

    fn tiny() -> (Corpus, DocMajorView, WordMajorView) {
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["x", "y", "x"]);
        b.push_text_doc(["y", "z"]);
        let corpus = b.build().unwrap();
        let dv = DocMajorView::build(&corpus);
        let wv = WordMajorView::build(&corpus, &dv);
        (corpus, dv, wv)
    }

    /// Brute-force likelihood straight from the formula, with dense loops over
    /// all (d, k) and (k, w) pairs — the ground truth for the sparse version.
    fn brute_force_ll(corpus: &Corpus, dv: &DocMajorView, params: &ModelParams, z: &[u32]) -> f64 {
        let k = params.num_topics;
        let v = corpus.vocab_size();
        let d_count = corpus.num_docs();
        let mut cdk = vec![vec![0u64; k]; d_count];
        let mut ckw = vec![vec![0u64; v]; k];
        let mut ck = vec![0u64; k];
        for (d, row) in cdk.iter_mut().enumerate() {
            for i in dv.doc_range(d as u32) {
                let t = z[i] as usize;
                let w = dv.word_of(i) as usize;
                row[t] += 1;
                ckw[t][w] += 1;
                ck[t] += 1;
            }
        }
        let alpha = params.alpha;
        let alpha_bar = params.alpha_bar();
        let beta = params.beta;
        let beta_bar = params.beta_bar(v);
        let mut ll = 0.0;
        for row in &cdk {
            let len: u64 = row.iter().sum();
            ll += ln_gamma(alpha_bar) - ln_gamma(alpha_bar + len as f64);
            for &c in row {
                ll += ln_gamma(alpha + c as f64) - ln_gamma(alpha);
            }
        }
        for (t, row) in ckw.iter().enumerate() {
            ll += ln_gamma(beta_bar) - ln_gamma(beta_bar + ck[t] as f64);
            for &c in row {
                ll += ln_gamma(beta + c as f64) - ln_gamma(beta);
            }
        }
        ll
    }

    #[test]
    fn sparse_likelihood_matches_brute_force() {
        let (corpus, dv, wv) = tiny();
        let params = ModelParams::new(3, 0.4, 0.05);
        for z in [vec![0u32, 1, 0, 2, 1], vec![0, 0, 0, 0, 0], vec![2, 1, 0, 2, 1]] {
            let fast = log_joint_likelihood(&corpus, &dv, &wv, &params, &z);
            let slow = brute_force_ll(&corpus, &dv, &params, &z);
            assert!((fast - slow).abs() < 1e-8, "z={z:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn coherent_assignment_beats_random_assignment() {
        // Two "topics" with disjoint vocabularies; assigning by vocabulary must
        // score higher than mixing them.
        let mut b = CorpusBuilder::new();
        for _ in 0..20 {
            b.push_text_doc(["cat", "dog", "pet", "cat"]);
            b.push_text_doc(["stock", "bond", "market", "stock"]);
        }
        let corpus = b.build().unwrap();
        let dv = DocMajorView::build(&corpus);
        let wv = WordMajorView::build(&corpus, &dv);
        let params = ModelParams::new(2, 0.5, 0.1);
        let coherent: Vec<u32> =
            (0..dv.num_tokens()).map(|i| if (i / 4) % 2 == 0 { 0 } else { 1 }).collect();
        let mixed: Vec<u32> = (0..dv.num_tokens()).map(|i| (i % 2) as u32).collect();
        let ll_coherent = log_joint_likelihood(&corpus, &dv, &wv, &params, &coherent);
        let ll_mixed = log_joint_likelihood(&corpus, &dv, &wv, &params, &mixed);
        assert!(
            ll_coherent > ll_mixed + 10.0,
            "coherent {ll_coherent} should beat mixed {ll_mixed}"
        );
    }

    #[test]
    fn perplexity_is_monotone_in_likelihood() {
        let p1 = perplexity_per_token(-1000.0, 100).unwrap();
        let p2 = perplexity_per_token(-900.0, 100).unwrap();
        assert!(p2 < p1);
        assert_eq!(perplexity_per_token(-10.0, 0), None);
    }

    #[test]
    fn top_words_orders_by_count() {
        let (corpus, _, _) = tiny();
        let params = ModelParams::new(2, 0.5, 0.1);
        // x→topic0 (2 occurrences), y→topic1 (2), z→topic0 (1).
        let z = vec![0u32, 1, 0, 1, 0];
        let state = SamplerState::from_assignments(&corpus, params, z);
        let tops = top_words(&state, 2);
        let x = corpus.vocab().get("x").unwrap();
        assert_eq!(tops[0][0].0, x);
        assert_eq!(tops[0][0].1, 2);
        let rendered = format_topics(&corpus, &state, 2);
        assert!(rendered.contains("topic"));
        assert!(rendered.contains("x(2)"));
    }
}
