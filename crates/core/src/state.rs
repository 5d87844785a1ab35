//! Shared sampler state: topic assignments and count matrices.
//!
//! All the *baseline* samplers (CGS, F+LDA, LightLDA) maintain the canonical
//! CGS state: one topic per token, the sparse document–topic matrix `Cd`, the
//! sparse word–topic matrix `Cw`, and the dense global topic vector `ck`.
//! WarpLDA deliberately does *not* use this struct for its hot path (it never
//! materializes `Cd`/`Cw`, see Section 4.4) but produces one on demand for
//! evaluation.

use rand::Rng;

use warplda_corpus::{Corpus, DocMajorView, WordMajorView};

use crate::counts::{HashCounts, TopicCounts};
use crate::params::ModelParams;

/// Topic assignments plus the three count structures of collapsed LDA.
#[derive(Debug, Clone)]
pub struct SamplerState {
    params: ModelParams,
    /// Topic of each token, indexed by the document-major token index.
    z: Vec<u32>,
    /// Per-document topic counts (sparse rows).
    doc_counts: Vec<HashCounts>,
    /// Per-word topic counts (sparse rows).
    word_counts: Vec<HashCounts>,
    /// Global topic counts `c_k`.
    topic_counts: Vec<u32>,
}

impl SamplerState {
    /// Creates a state with uniformly random topic assignments and consistent
    /// counts.
    pub fn init_random<R: Rng>(
        corpus: &Corpus,
        doc_view: &DocMajorView,
        word_view: &WordMajorView,
        params: ModelParams,
        rng: &mut R,
    ) -> Self {
        let k = params.num_topics;
        let num_tokens = doc_view.num_tokens();
        let z: Vec<u32> = (0..num_tokens).map(|_| rng.gen_range(0..k as u32)).collect();
        Self::from_assignments(corpus, doc_view, word_view, params, z)
    }

    /// Creates a state from existing topic assignments (doc-major token order).
    pub fn from_assignments(
        corpus: &Corpus,
        doc_view: &DocMajorView,
        word_view: &WordMajorView,
        params: ModelParams,
        z: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(corpus.vocab_size(), word_view.num_words());
        assert_eq!(z.len(), doc_view.num_tokens(), "one topic per token required");
        assert!(z.iter().all(|&t| (t as usize) < params.num_topics), "topic out of range");
        let k = params.num_topics;
        let mut doc_counts: Vec<HashCounts> = (0..doc_view.num_docs())
            .map(|d| HashCounts::with_expected(doc_view.doc_len(d as u32), k))
            .collect();
        let mut word_counts: Vec<HashCounts> = (0..word_view.num_words())
            .map(|w| HashCounts::with_expected(word_view.word_len(w as u32), k))
            .collect();
        let mut topic_counts = vec![0u32; k];
        for (d, counts) in doc_counts.iter_mut().enumerate() {
            for i in doc_view.doc_range(d as u32) {
                let topic = z[i];
                let word = doc_view.word_of(i);
                counts.increment(topic);
                word_counts[word as usize].increment(topic);
                topic_counts[topic as usize] += 1;
            }
        }
        Self { params, z, doc_counts, word_counts, topic_counts }
    }

    /// Model hyper-parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Topic of token `token_index`.
    #[inline]
    pub fn topic_of(&self, token_index: usize) -> u32 {
        self.z[token_index]
    }

    /// All topic assignments, indexed by doc-major token index.
    pub fn assignments(&self) -> &[u32] {
        &self.z
    }

    /// Number of documents the state tracks counts for.
    pub fn num_docs(&self) -> usize {
        self.doc_counts.len()
    }

    /// Number of words the state tracks counts for (the vocabulary size of
    /// the corpus the state was built over).
    pub fn num_words(&self) -> usize {
        self.word_counts.len()
    }

    /// Per-document sparse counts.
    pub fn doc_counts(&self, doc: u32) -> &HashCounts {
        &self.doc_counts[doc as usize]
    }

    /// Per-word sparse counts.
    pub fn word_counts(&self, word: u32) -> &HashCounts {
        &self.word_counts[word as usize]
    }

    /// Global topic counts.
    pub fn topic_counts(&self) -> &[u32] {
        &self.topic_counts
    }

    /// Count of `topic` in document `doc` (`C_dk`).
    #[inline]
    pub fn doc_topic(&self, doc: u32, topic: u32) -> u32 {
        self.doc_counts[doc as usize].get(topic)
    }

    /// Count of `topic` for word `word` (`C_wk`).
    #[inline]
    pub fn word_topic(&self, word: u32, topic: u32) -> u32 {
        self.word_counts[word as usize].get(topic)
    }

    /// Count of `topic` globally (`C_k`).
    #[inline]
    pub fn topic(&self, topic: u32) -> u32 {
        self.topic_counts[topic as usize]
    }

    /// Removes the current assignment of a token from all counts (the `¬dn`
    /// exclusion of Eq. 1).
    #[inline]
    pub fn remove_token(&mut self, doc: u32, word: u32, token_index: usize) -> u32 {
        let topic = self.z[token_index];
        self.doc_counts[doc as usize].decrement(topic);
        self.word_counts[word as usize].decrement(topic);
        self.topic_counts[topic as usize] -= 1;
        topic
    }

    /// Assigns `topic` to a token and adds it to all counts.
    #[inline]
    pub fn assign_token(&mut self, doc: u32, word: u32, token_index: usize, topic: u32) {
        self.z[token_index] = topic;
        self.doc_counts[doc as usize].increment(topic);
        self.word_counts[word as usize].increment(topic);
        self.topic_counts[topic as usize] += 1;
    }

    /// Verifies the internal consistency invariants:
    /// `Σ_k C_dk = L_d`, `Σ_k C_wk = L_w`, `Σ_d C_dk = Σ_w C_wk = C_k`, and
    /// `Σ_k C_k = T`. Panics with a description if any is violated.
    pub fn assert_consistent(&self, doc_view: &DocMajorView, word_view: &WordMajorView) {
        let k = self.params.num_topics;
        let mut from_docs = vec![0u64; k];
        for (d, counts) in self.doc_counts.iter().enumerate() {
            assert_eq!(
                counts.total() as usize,
                doc_view.doc_len(d as u32),
                "doc {d}: row total != document length"
            );
            counts.for_each(|t, c| from_docs[t as usize] += c as u64);
        }
        let mut from_words = vec![0u64; k];
        for (w, counts) in self.word_counts.iter().enumerate() {
            assert_eq!(
                counts.total() as usize,
                word_view.word_len(w as u32),
                "word {w}: row total != term frequency"
            );
            counts.for_each(|t, c| from_words[t as usize] += c as u64);
        }
        for t in 0..k {
            assert_eq!(from_docs[t], self.topic_counts[t] as u64, "topic {t}: Cd sum != ck");
            assert_eq!(from_words[t], self.topic_counts[t] as u64, "topic {t}: Cw sum != ck");
        }
        let total: u64 = self.topic_counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total as usize, doc_view.num_tokens(), "Σ ck != number of tokens");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::CorpusBuilder;

    fn small() -> (Corpus, DocMajorView, WordMajorView) {
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["a", "b", "a", "c"]);
        b.push_text_doc(["b", "b", "d"]);
        b.push_text_doc(["a", "d", "e", "e", "a"]);
        let corpus = b.build().unwrap();
        let dv = DocMajorView::build(&corpus);
        let wv = WordMajorView::build(&corpus, &dv);
        (corpus, dv, wv)
    }

    #[test]
    fn random_init_is_consistent() {
        let (corpus, dv, wv) = small();
        let params = ModelParams::new(7, 0.5, 0.1);
        let mut rng = warplda_sampling::new_rng(3);
        let state = SamplerState::init_random(&corpus, &dv, &wv, params, &mut rng);
        state.assert_consistent(&dv, &wv);
        assert_eq!(state.assignments().len(), 12);
    }

    #[test]
    fn remove_and_assign_keep_consistency() {
        let (corpus, dv, wv) = small();
        let params = ModelParams::new(4, 0.5, 0.1);
        let mut rng = warplda_sampling::new_rng(5);
        let mut state = SamplerState::init_random(&corpus, &dv, &wv, params, &mut rng);
        // Resample every token a few times with arbitrary topics.
        for round in 0..3u32 {
            for d in 0..dv.num_docs() {
                for i in dv.doc_range(d as u32) {
                    let w = dv.word_of(i);
                    let _old = state.remove_token(d as u32, w, i);
                    let new = (i as u32 + round) % 4;
                    state.assign_token(d as u32, w, i, new);
                }
            }
            state.assert_consistent(&dv, &wv);
        }
    }

    #[test]
    fn from_assignments_counts_are_exact() {
        let (corpus, dv, wv) = small();
        let params = ModelParams::new(3, 0.5, 0.1);
        let z = vec![0, 1, 2, 0, 1, 1, 2, 0, 0, 0, 2, 1];
        let state = SamplerState::from_assignments(&corpus, &dv, &wv, params, z);
        state.assert_consistent(&dv, &wv);
        // Document 0 = [a b a c] with topics [0 1 2 0].
        assert_eq!(state.doc_topic(0, 0), 2);
        assert_eq!(state.doc_topic(0, 1), 1);
        assert_eq!(state.doc_topic(0, 2), 1);
        // Word "a" appears at token indices 0, 2, 7, 11 → topics 0, 2, 0, 1.
        let a = corpus.vocab().get("a").unwrap();
        assert_eq!(state.word_topic(a, 0), 2);
        assert_eq!(state.word_topic(a, 1), 1);
        assert_eq!(state.word_topic(a, 2), 1);
    }

    #[test]
    #[should_panic(expected = "one topic per token")]
    fn wrong_assignment_length_panics() {
        let (corpus, dv, wv) = small();
        let params = ModelParams::new(3, 0.5, 0.1);
        let _ = SamplerState::from_assignments(&corpus, &dv, &wv, params, vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "topic out of range")]
    fn out_of_range_topic_panics() {
        let (corpus, dv, wv) = small();
        let params = ModelParams::new(3, 0.5, 0.1);
        let _ = SamplerState::from_assignments(&corpus, &dv, &wv, params, vec![7; 12]);
    }
}
