//! Fold-in inference: estimating θ_d for an unseen document under a frozen
//! model.
//!
//! The engine runs the same Metropolis–Hastings machinery WarpLDA trains
//! with, but with the topic–word side frozen, and it samples the exact
//! fold-in posterior `p(z) ∝ ∏_k Γ(C_dk + α) · ∏_i φ_{w_i z_i}`. Each sweep
//! alternates, per token `i` at topic `z`,
//!
//! * a **word proposal** `q_word(k) ∝ C_wk + β`, drawn in O(1) from the
//!   model's pre-built alias tables. The `C_wk` factors of the target and
//!   the proposal cancel, exactly the cancellation the paper exploits, so
//!   the step to `t` has `num = (C_dt + α)(c_k[z] + β̄)` and
//!   `den = (C_dz − 1 + α)(c_k[t] + β̄)`: the partial `c_d` with token `i`
//!   excluded, and the frozen `c_k`;
//! * a **doc proposal** `q_doc(k) ∝ C_dk + α`, drawn by random positioning
//!   over the document's current assignments, token `i` included. So the
//!   proposal depends on `z`, the reverse proposal's `c_d` factors cancel
//!   the target's, and the step has `num = (C_wt + β)(c_k[z] + β̄)` and
//!   `den = (C_wz + β)(c_k[t] + β̄)`: the frozen `φ` ratio (two `C_wk`
//!   lookups in the model's per-word index, a probe or two each) and `c_k`,
//!   no `c_d`.
//!
//! Both steps follow the training kernels' discipline. A proposal takes one
//! 64-bit word through [`Mixture`]: its high half picks the component
//! (`p = L_w/(L_w + K·β)` for `q_word`, a word without counts never picking
//! its count part; `p = L/(L + ᾱ)` for `q_doc`), its low half an exact
//! uniform index into it (an alias bin, which then costs one coin; a
//! position whose topic is copied; or a topic). Then the step draws one
//! uniform `u`, whatever it proposed, and sets
//! `z = if u·den < num { t } else { z }`, which accepts with probability
//! `min(1, num/den)` and leaves `z` alone when `t == z`. The RNG schedule
//! per request is therefore: one word-proposal draw per token for the
//! initial state, then per token, sweep and MH pair the word proposal, its
//! `u`, the doc proposal and its `u`.
//!
//! After the sweeps, `θ_k = (C_dk + α) / (L_d + ᾱ)`.
//!
//! **Determinism.** Every request derives its RNG stream purely from its own
//! seed, and all working state lives in the caller's [`InferScratch`] (fully
//! reset per request). A request therefore produces bit-identical θ no matter
//! which server worker runs it, how many workers exist, or what ran on the
//! scratch before — the same discipline that makes parallel training
//! thread-count independent.
//!
//! **Allocation.** Steady-state inference performs zero heap allocations:
//! the scratch buffers grow to their high-water marks and are reused (pinned
//! by the workspace's counting-allocator suite).

use rand::Rng;

use warplda_core::counts::{DenseCounts, TopicCounts};
use warplda_sampling::{new_rng, split_seed, Mixture};

use crate::model::TopicModel;

/// Stream index separating fold-in RNG streams from every training stream.
const INFER_STREAM: u64 = 0x5EDE_D0C5;

/// Tuning knobs of fold-in inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferConfig {
    /// Number of MH sweeps over the document. Fold-in burn-in is fast —
    /// 8–32 sweeps is the usual range; more sweeps sharpen θ at linear cost.
    pub sweeps: usize,
    /// Word-proposal/doc-proposal pairs per token per sweep (the `M` of the
    /// training configuration).
    pub mh_steps: usize,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self { sweeps: 16, mh_steps: 2 }
    }
}

/// Reusable per-request working state. One scratch serves any number of
/// sequential requests (each fully resets it); a server worker owns one, so
/// steady-state request handling allocates nothing.
#[derive(Debug)]
pub struct InferScratch {
    /// Current topic of each query token.
    z: Vec<u32>,
    /// Partial document–topic counts `c_d`.
    cd: DenseCounts,
    /// Number of topics `cd`/`theta` are sized for.
    k: usize,
    /// The estimated document–topic mixture, written by the last request.
    theta: Vec<f64>,
    /// Topics with non-zero counts, sorted by weight (descending).
    top: Vec<(u32, f64)>,
}

impl InferScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self { z: Vec::new(), cd: DenseCounts::new(0), k: 0, theta: Vec::new(), top: Vec::new() }
    }

    fn ensure_topics(&mut self, k: usize) {
        if self.k != k {
            // Only on first use or after a hot swap to a model with a
            // different K — never in the per-request steady state.
            self.cd = DenseCounts::new(k);
            self.theta = vec![0.0; k];
            self.k = k;
        }
    }

    /// The θ estimated by the most recent request (length `K`).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// The topic each query token holds at the end of the most recent
    /// request (length `L`, in query order).
    pub fn assignments(&self) -> &[u32] {
        &self.z
    }

    /// The topics the most recent request actually assigned tokens to, as
    /// `(topic, θ_topic)` pairs sorted by weight (descending, ties by topic
    /// id). Topics carrying only the α-smoothing mass are omitted — they tie
    /// at `α / (L + ᾱ)` and say nothing about the document.
    pub fn top_topics(&self) -> &[(u32, f64)] {
        &self.top
    }
}

impl Default for InferScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// θ plus top topics of one inference, as owned data (the allocating
/// convenience form of [`InferScratch`]'s borrowed views).
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The estimated document–topic mixture (length `K`, sums to 1).
    pub theta: Vec<f64>,
    /// Topics with assigned tokens, by descending θ.
    pub top: Vec<(u32, f64)>,
}

/// The fold-in inference engine: a cheap view pairing a frozen model with an
/// inference configuration. Construct one per request batch (it is two
/// pointers) or keep one around — it holds no mutable state.
#[derive(Debug, Clone, Copy)]
pub struct InferenceEngine<'m> {
    model: &'m TopicModel,
    config: InferConfig,
}

impl<'m> InferenceEngine<'m> {
    /// Creates an engine over a frozen model.
    pub fn new(model: &'m TopicModel, config: InferConfig) -> Self {
        assert!(config.sweeps >= 1, "need at least one fold-in sweep");
        assert!(config.mh_steps >= 1, "need at least one MH pair per token");
        Self { model, config }
    }

    /// The frozen model.
    pub fn model(&self) -> &'m TopicModel {
        self.model
    }

    /// The inference configuration.
    pub fn config(&self) -> &InferConfig {
        &self.config
    }

    /// Infers θ for `words` (token ids of the unseen document, OOV already
    /// removed), writing θ and the top-topic list into `scratch`. The result
    /// is a pure function of `(model, config, words, seed)`.
    ///
    /// # Panics
    /// Panics if any word id is outside the model vocabulary — servers
    /// validate ids at the protocol boundary, so an out-of-range id here is
    /// caller error, not runtime input.
    pub fn infer_into(&self, words: &[u32], seed: u64, scratch: &mut InferScratch) {
        let model = self.model;
        let k = model.num_topics();
        let num_words = model.num_words() as u32;
        assert!(
            words.iter().all(|&w| w < num_words),
            "word id out of range for the model vocabulary"
        );
        scratch.ensure_topics(k);
        let params = model.params();
        let (alpha, alpha_bar) = (params.alpha, params.alpha_bar());
        let beta_bar = model.beta_bar();
        let ck = model.topic_counts();
        let len = words.len();

        // The top list holds at most min{K, L} topics. Reserving that up
        // front ties its growth to the query length, as `z`'s is, instead of
        // to how many topics this seed happens to end with: once the scratch
        // has seen the longest query, no request allocates.
        scratch.top.clear();
        scratch.top.reserve(len.min(k));
        if len == 0 {
            // No evidence: θ is the prior mean.
            scratch.theta.fill(1.0 / k as f64);
            return;
        }

        let mut rng = new_rng(split_seed(seed, INFER_STREAM));
        let z = &mut scratch.z;
        let cd = &mut scratch.cd;
        cd.clear();

        // Initialize each token from its word proposal: the document starts
        // at the word-side posterior mode instead of uniform noise, which
        // shortens burn-in.
        z.clear();
        for &w in words {
            let t = model.sample_word_proposal(w, model.word_mixture(w), &mut rng);
            z.push(t);
            cd.increment(t);
        }

        // Each step draws its proposal, then one uniform u, and accepts by
        // select (see the module docs); t == cur keeps cur either way.
        let (k, beta) = (k as u32, params.beta);
        let doc_mixture = Mixture::new(len as f64 / (len as f64 + alpha_bar));
        for _sweep in 0..self.config.sweeps {
            for i in 0..len {
                let w = words[i];
                let word_mixture = model.word_mixture(w);
                for _ in 0..self.config.mh_steps {
                    // Word proposal: the C_wk factors of target and proposal
                    // cancel; acceptance needs only c_d (¬i) and c_k.
                    let cur = z[i];
                    let t = model.sample_word_proposal(w, word_mixture, &mut rng);
                    let u = rng.gen::<f64>();
                    let num = (cd.get(t) as f64 + alpha) * (ck[cur as usize] as f64 + beta_bar);
                    let den =
                        (cd.get(cur) as f64 - 1.0 + alpha) * (ck[t as usize] as f64 + beta_bar);
                    let next = if u * den < num { t } else { cur };
                    if next != cur {
                        cd.decrement(cur);
                        cd.increment(next);
                        z[i] = next;
                    }
                    // Doc proposal by random positioning over the current
                    // assignments, token i included: its c_d factors cancel
                    // against the reverse proposal's, so acceptance needs
                    // the frozen φ ratio and c_k alone.
                    let cur = z[i];
                    let t = match doc_mixture.draw(&mut rng, len as u32, k) {
                        (true, j) => z[j as usize],
                        (false, topic) => topic,
                    };
                    let u = rng.gen::<f64>();
                    let num = (model.word_topic_count(w, t) as f64 + beta)
                        * (ck[cur as usize] as f64 + beta_bar);
                    let den = (model.word_topic_count(w, cur) as f64 + beta)
                        * (ck[t as usize] as f64 + beta_bar);
                    let next = if u * den < num { t } else { cur };
                    if next != cur {
                        cd.decrement(cur);
                        cd.increment(next);
                        z[i] = next;
                    }
                }
            }
        }

        // θ_k = (C_dk + α) / (L + ᾱ), and the non-zero topics sorted for the
        // top-topics view.
        let denom = len as f64 + alpha_bar;
        for (t, slot) in scratch.theta.iter_mut().enumerate() {
            *slot = (cd.get(t as u32) as f64 + alpha) / denom;
        }
        let (theta, top) = (&scratch.theta, &mut scratch.top);
        cd.for_each(|t, _| top.push((t, theta[t as usize])));
        top.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    /// Allocating convenience wrapper around
    /// [`infer_into`](Self::infer_into).
    pub fn infer(&self, words: &[u32], seed: u64) -> InferenceResult {
        let mut scratch = InferScratch::new();
        self.infer_into(words, seed, &mut scratch);
        InferenceResult { theta: scratch.theta, top: scratch.top }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::{ModelParams, Sampler, WarpLda, WarpLdaConfig};
    use warplda_corpus::{Corpus, CorpusBuilder};

    fn themed() -> (Corpus, TopicModel) {
        let mut b = CorpusBuilder::new();
        for _ in 0..40 {
            b.push_text_doc(["river", "lake", "water", "fish", "boat", "river"]);
            b.push_text_doc(["desert", "sand", "dune", "cactus", "heat", "desert"]);
        }
        let corpus = b.build().unwrap();
        let mut sampler = WarpLda::new(
            &corpus,
            ModelParams::new(2, 0.5, 0.1),
            WarpLdaConfig::with_mh_steps(4),
            7,
        );
        for _ in 0..60 {
            sampler.run_iteration();
        }
        let model = TopicModel::freeze_sampler(&sampler, &corpus);
        (corpus, model)
    }

    fn ids(corpus: &Corpus, words: &[&str]) -> Vec<u32> {
        words.iter().map(|w| corpus.vocab().get(w).unwrap()).collect()
    }

    #[test]
    fn theta_is_a_distribution_and_finds_the_planted_topic() {
        let (corpus, model) = themed();
        let engine = InferenceEngine::new(&model, InferConfig::default());
        let water_doc = ids(&corpus, &["river", "water", "lake", "fish", "water"]);
        let desert_doc = ids(&corpus, &["sand", "dune", "desert", "heat"]);
        let a = engine.infer(&water_doc, 1);
        let b = engine.infer(&desert_doc, 1);
        for r in [&a, &b] {
            let total: f64 = r.theta.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "θ sums to {total}");
            assert!(!r.top.is_empty());
        }
        // The two documents peak on different topics, each decisively.
        assert_ne!(a.top[0].0, b.top[0].0, "a: {:?}, b: {:?}", a.top, b.top);
        assert!(a.theta[a.top[0].0 as usize] > 0.7, "{:?}", a.theta);
        assert!(b.theta[b.top[0].0 as usize] > 0.7, "{:?}", b.theta);
    }

    #[test]
    fn fixed_seed_is_bit_identical_and_scratch_reuse_is_clean() {
        let (corpus, model) = themed();
        let engine = InferenceEngine::new(&model, InferConfig::default());
        let doc = ids(&corpus, &["river", "boat", "fish"]);
        let other = ids(&corpus, &["desert", "heat", "sand", "dune", "cactus"]);
        let fresh = engine.infer(&doc, 99);
        // Run an unrelated query through the same scratch first: the reused
        // buffers must not leak into the next request.
        let mut scratch = InferScratch::new();
        engine.infer_into(&other, 5, &mut scratch);
        engine.infer_into(&doc, 99, &mut scratch);
        assert_eq!(
            fresh.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scratch.theta().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(fresh.top, scratch.top_topics());
        // Different seeds explore differently.
        let again = engine.infer(&doc, 100);
        assert_eq!(fresh.theta.len(), again.theta.len());
    }

    #[test]
    fn empty_document_returns_the_prior_mean() {
        let (_, model) = themed();
        let engine = InferenceEngine::new(&model, InferConfig::default());
        let r = engine.infer(&[], 3);
        for &v in &r.theta {
            assert_eq!(v, 1.0 / model.num_topics() as f64);
        }
        assert!(r.top.is_empty());
    }

    #[test]
    #[should_panic(expected = "word id out of range")]
    fn out_of_vocabulary_id_panics() {
        let (_, model) = themed();
        let engine = InferenceEngine::new(&model, InferConfig::default());
        let _ = engine.infer(&[u32::MAX], 1);
    }
}
