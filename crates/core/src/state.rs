//! Shared sampler state: topic assignments and count matrices.
//!
//! All the *baseline* samplers (CGS, F+LDA, LightLDA) maintain the canonical
//! CGS state: one topic per token, the sparse document–topic matrix `Cd`, the
//! sparse word–topic matrix `Cw`, and the dense global topic vector `ck`.
//! WarpLDA deliberately does *not* use this struct for its hot path (it never
//! materializes `Cd`/`Cw`, see Section 4.4) but produces one on demand for
//! evaluation.
//!
//! The state counts straight from the corpus and reads no corpus view: each
//! row's length is the document's, each column's the word's term frequency,
//! and both are also the totals of the state's own tables.

use rand::Rng;

use warplda_corpus::Corpus;

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
    pub fn init_random<R: Rng>(corpus: &Corpus, params: ModelParams, rng: &mut R) -> Self {
        let k = params.num_topics;
        let z: Vec<u32> = (0..corpus.num_tokens()).map(|_| rng.gen_range(0..k as u32)).collect();
        Self::from_assignments(corpus, params, z)
    }

    /// Creates a state from existing topic assignments (doc-major token order).
    pub fn from_assignments(corpus: &Corpus, params: ModelParams, z: Vec<u32>) -> Self {
        assert_eq!(z.len() as u64, corpus.num_tokens(), "one topic per token required");
        assert!(z.iter().all(|&t| (t as usize) < params.num_topics), "topic out of range");
        let k = params.num_topics;
        let mut doc_counts: Vec<HashCounts> =
            corpus.docs().iter().map(|doc| HashCounts::with_expected(doc.len(), k)).collect();
        let mut word_counts: Vec<HashCounts> = corpus
            .term_frequencies()
            .into_iter()
            .map(|tf| HashCounts::with_expected(tf as usize, k))
            .collect();
        let mut topic_counts = vec![0u32; k];
        let mut start = 0;
        for (doc, counts) in corpus.docs().iter().zip(&mut doc_counts) {
            let topics = &z[start..start + doc.len()];
            start += doc.len();
            for (&word, &topic) in doc.tokens().iter().zip(topics) {
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

    /// Verifies the internal consistency invariants against `corpus`:
    /// `Σ_k C_dk = L_d`, `Σ_k C_wk = L_w`, `Σ_d C_dk = Σ_w C_wk = C_k`, and
    /// `Σ_k C_k = T`. Panics with a description if any is violated.
    pub fn assert_consistent(&self, corpus: &Corpus) {
        let k = self.params.num_topics;
        let mut from_docs = vec![0u64; k];
        assert_eq!(self.doc_counts.len(), corpus.num_docs(), "one row per document");
        for (d, (counts, doc)) in self.doc_counts.iter().zip(corpus.docs()).enumerate() {
            assert_eq!(counts.total() as usize, doc.len(), "doc {d}: row total != document length");
            counts.for_each(|t, c| from_docs[t as usize] += c as u64);
        }
        let mut from_words = vec![0u64; k];
        let tf = corpus.term_frequencies();
        assert_eq!(self.word_counts.len(), tf.len(), "one column per word");
        for (w, (counts, &len)) in self.word_counts.iter().zip(&tf).enumerate() {
            assert_eq!(counts.total(), len, "word {w}: row total != term frequency");
            counts.for_each(|t, c| from_words[t as usize] += c as u64);
        }
        for t in 0..k {
            assert_eq!(from_docs[t], self.topic_counts[t] as u64, "topic {t}: Cd sum != ck");
            assert_eq!(from_words[t], self.topic_counts[t] as u64, "topic {t}: Cw sum != ck");
        }
        let total: u64 = self.topic_counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, corpus.num_tokens(), "Σ ck != number of tokens");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::CorpusBuilder;

    fn small() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["a", "b", "a", "c"]);
        b.push_text_doc(["b", "b", "d"]);
        b.push_text_doc(["a", "d", "e", "e", "a"]);
        b.build().unwrap()
    }

    #[test]
    fn random_init_is_consistent() {
        let corpus = small();
        let params = ModelParams::new(7, 0.5, 0.1);
        let mut rng = warplda_sampling::new_rng(3);
        let state = SamplerState::init_random(&corpus, params, &mut rng);
        state.assert_consistent(&corpus);
        assert_eq!(state.assignments().len(), 12);
    }

    #[test]
    fn remove_and_assign_keep_consistency() {
        let corpus = small();
        let params = ModelParams::new(4, 0.5, 0.1);
        let mut rng = warplda_sampling::new_rng(5);
        let mut state = SamplerState::init_random(&corpus, params, &mut rng);
        // Resample every token a few times with arbitrary topics.
        for round in 0..3u32 {
            let tokens =
                corpus.iter().flat_map(|(d, doc)| doc.tokens().iter().map(move |&w| (d, w)));
            for (i, (d, w)) in tokens.enumerate() {
                let _old = state.remove_token(d, w, i);
                let new = (i as u32 + round) % 4;
                state.assign_token(d, w, i, new);
            }
            state.assert_consistent(&corpus);
        }
    }

    #[test]
    fn from_assignments_counts_are_exact() {
        let corpus = small();
        let params = ModelParams::new(3, 0.5, 0.1);
        let z = vec![0, 1, 2, 0, 1, 1, 2, 0, 0, 0, 2, 1];
        let state = SamplerState::from_assignments(&corpus, params, z);
        state.assert_consistent(&corpus);
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
        let corpus = small();
        let params = ModelParams::new(3, 0.5, 0.1);
        let _ = SamplerState::from_assignments(&corpus, params, vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "topic out of range")]
    fn out_of_range_topic_panics() {
        let corpus = small();
        let params = ModelParams::new(3, 0.5, 0.1);
        let _ = SamplerState::from_assignments(&corpus, params, vec![7; 12]);
    }
}
