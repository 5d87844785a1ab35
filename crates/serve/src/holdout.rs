//! Fold-in held-out perplexity.
//!
//! The training likelihood (`warplda_core::eval`) scores the documents the
//! model was fit on; it cannot see overfitting. The held-out metric here is
//! the serving-side complement: freeze the model, estimate θ for documents
//! the sampler never saw (through the [`InferenceEngine`], i.e. the exact
//! code path production queries take), and score
//! `exp(−Σ ln p(w | θ, φ) / T_heldout)` — per-token perplexity on unseen
//! data.
//!
//! [`held_out_eval_fn`] packages the whole procedure as a
//! [`Trainer`](warplda_core::Trainer) evaluation closure, so training runs
//! can report held-out perplexity next to the joint likelihood (opt-in via
//! [`Trainer::with_held_out_fn`](warplda_core::Trainer::with_held_out_fn)).

use std::sync::Arc;

use warplda_core::eval::perplexity_per_token;
use warplda_core::trainer::{EvalFn, EvalInput};
use warplda_corpus::Corpus;

use crate::infer::{InferConfig, InferenceEngine};
use crate::model::TopicModel;

/// A held-out document set: token ids under the *training* vocabulary.
#[derive(Debug, Clone)]
pub struct HeldOutSet {
    docs: Vec<Vec<u32>>,
    num_tokens: u64,
}

impl HeldOutSet {
    /// Builds the set from a corpus. The corpus must share the training
    /// vocabulary (build it with
    /// [`CorpusBuilder::with_vocab`](warplda_corpus::CorpusBuilder::with_vocab),
    /// which also makes genuinely unseen words impossible to smuggle in) —
    /// ids outside the model vocabulary panic at inference time.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        Self::from_docs(corpus.docs().iter().map(|d| d.tokens().to_vec()).collect())
    }

    /// Builds the set from raw token-id documents.
    pub fn from_docs(docs: Vec<Vec<u32>>) -> Self {
        let num_tokens = docs.iter().map(|d| d.len() as u64).sum();
        Self { docs, num_tokens }
    }

    /// Number of held-out documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Total held-out tokens.
    pub fn num_tokens(&self) -> u64 {
        self.num_tokens
    }

    /// The documents.
    pub fn docs(&self) -> &[Vec<u32>] {
        &self.docs
    }
}

/// Fold-in held-out perplexity of `model` on `set`: θ is estimated per
/// document by the inference engine (document `i` on stream
/// `split_seed(seed, i)`, so the value is deterministic and thread-count
/// independent), then every held-out token is scored against `θ·φ`.
///
/// Returns `None` for an empty set (perplexity is undefined without tokens).
/// Lower is better; a model that learned nothing scores near the vocabulary
/// size.
pub fn fold_in_perplexity(
    model: &TopicModel,
    config: InferConfig,
    set: &HeldOutSet,
    seed: u64,
    num_threads: usize,
) -> Option<f64> {
    if set.num_tokens == 0 {
        return None;
    }
    let engine = InferenceEngine::new(model, config);
    let thetas = engine.infer_batch(&set.docs, seed, num_threads);
    let mut ll = 0.0;
    for (doc, theta) in set.docs.iter().zip(&thetas) {
        // The CSR fast path (O(nnz_w) per token); the model-agnostic
        // reference scorer lives in warplda_core::eval.
        ll += model.fold_in_doc_log_likelihood(theta, doc);
    }
    perplexity_per_token(ll, set.num_tokens)
}

/// Packages [`fold_in_perplexity`] as a [`Trainer`](warplda_core::Trainer)
/// evaluation closure: at each evaluation point the current assignment
/// snapshot is frozen into a [`TopicModel`] and scored on `set`. Runs on the
/// trainer's overlapped background worker like any other metric.
pub fn held_out_eval_fn(set: Arc<HeldOutSet>, config: InferConfig, seed: u64) -> EvalFn {
    Box::new(move |input: EvalInput<'_>| {
        let model =
            TopicModel::from_assignments(input.params, input.word_view, input.assignments, None);
        fold_in_perplexity(&model, config, &set, seed, 1).unwrap_or(f64::NAN)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::eval::fold_in_token_log_likelihood;
    use warplda_core::{ModelParams, Sampler, Trainer, TrainerConfig, WarpLda, WarpLdaConfig};
    use warplda_corpus::CorpusBuilder;

    /// Training corpus with two planted themes plus held-out docs drawn from
    /// the same themes, sharing one vocabulary.
    fn split_corpora() -> (Corpus, Corpus) {
        let mut b = CorpusBuilder::new();
        for _ in 0..40 {
            b.push_text_doc(["river", "lake", "water", "fish", "boat", "river"]);
            b.push_text_doc(["desert", "sand", "dune", "cactus", "heat", "desert"]);
        }
        let train = b.build().unwrap();
        let mut h = CorpusBuilder::with_vocab(train.vocab().clone());
        for _ in 0..10 {
            h.push_text_doc(["water", "fish", "river", "lake"]);
            h.push_text_doc(["heat", "dune", "sand", "desert"]);
        }
        let held = h.build().unwrap();
        (train, held)
    }

    #[test]
    fn training_lowers_held_out_perplexity() {
        let (train, held) = split_corpora();
        let set = HeldOutSet::from_corpus(&held);
        assert_eq!(set.num_docs(), 20);
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut sampler = WarpLda::new(&train, params, WarpLdaConfig::with_mh_steps(4), 7);
        let untrained = TopicModel::freeze_sampler(&sampler, &train);
        for _ in 0..60 {
            sampler.run_iteration();
        }
        let trained = TopicModel::freeze_sampler(&sampler, &train);
        let cfg = InferConfig::default();
        let ppl_untrained = fold_in_perplexity(&untrained, cfg, &set, 1, 1).unwrap();
        let ppl_trained = fold_in_perplexity(&trained, cfg, &set, 1, 1).unwrap();
        assert!(
            ppl_trained < ppl_untrained * 0.8,
            "training should cut held-out perplexity: {ppl_untrained} -> {ppl_trained}"
        );
        // A themed model on a 12-word vocabulary concentrates each doc on
        // ~6 words; perplexity must be far below the vocabulary size.
        assert!(ppl_trained < 12.0, "{ppl_trained}");
        // Deterministic and thread-count independent.
        let a = fold_in_perplexity(&trained, cfg, &set, 9, 1).unwrap();
        let b = fold_in_perplexity(&trained, cfg, &set, 9, 3).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn fast_path_matches_the_reference_scorer() {
        let (train, held) = split_corpora();
        let mut sampler =
            WarpLda::new(&train, ModelParams::new(2, 0.5, 0.1), WarpLdaConfig::default(), 3);
        for _ in 0..20 {
            sampler.run_iteration();
        }
        let model = TopicModel::freeze_sampler(&sampler, &train);
        let engine = InferenceEngine::new(&model, InferConfig::with_sweeps(8));
        for (i, doc) in held.docs().iter().enumerate() {
            let theta = engine.infer(doc.tokens(), i as u64).theta;
            let fast = model.fold_in_doc_log_likelihood(&theta, doc.tokens());
            let reference =
                fold_in_token_log_likelihood(&theta, doc.tokens(), |w, k| model.phi(w, k));
            assert!(
                (fast - reference).abs() <= 1e-9 * reference.abs(),
                "doc {i}: fast {fast} vs reference {reference}"
            );
        }
    }

    #[test]
    fn empty_set_has_no_perplexity() {
        let (train, _) = split_corpora();
        let sampler =
            WarpLda::new(&train, ModelParams::new(2, 0.5, 0.1), WarpLdaConfig::default(), 1);
        let model = TopicModel::freeze_sampler(&sampler, &train);
        let set = HeldOutSet::from_docs(Vec::new());
        assert!(fold_in_perplexity(&model, InferConfig::default(), &set, 1, 1).is_none());
    }

    #[test]
    fn trainer_reports_the_metric_through_iteration_log() {
        let (train, held) = split_corpora();
        let set = Arc::new(HeldOutSet::from_corpus(&held));
        let trainer = Trainer::new(&train).with_held_out_fn(held_out_eval_fn(
            set,
            InferConfig::with_sweeps(8),
            13,
        ));
        let params = ModelParams::new(2, 0.5, 0.1);
        let mut sampler = WarpLda::new(&train, params, WarpLdaConfig::with_mh_steps(4), 7);
        let log = trainer.train(&TrainerConfig::new(20).eval_every(10), "held-out", &mut sampler);
        let points: Vec<f64> = log.held_out_points().map(|r| r.held_out.unwrap()).collect();
        assert_eq!(points.len(), 2, "iterations 10 and 20");
        for p in &points {
            assert!(p.is_finite() && *p > 1.0, "perplexity {p}");
        }
    }
}
