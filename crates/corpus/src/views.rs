//! Document-major and word-major token views.
//!
//! Section 4.1 of the paper defines the topic-assignment matrix `X` (documents
//! × words, one cell per token occurrence) and its two linearizations:
//! `Zd` — tokens grouped by document (row-major), and `Zw` — tokens grouped by
//! word (column-major). The samplers need both orderings: document phases
//! visit tokens document-by-document, word phases word-by-word.
//!
//! Both views name a token occurrence by a stable *token index* `0..T`
//! assigned in document-major order, so that per-token state (topic
//! assignment, MH proposals) can live in flat arrays indexed by it regardless
//! of the visiting order.
//!
//! Who still reads them: the baselines that visit in one order keep that
//! order's view (CGS and LightLDA a [`DocMajorView`], F+LDA a
//! [`WordMajorView`]), and evaluation through `Trainer` and
//! `log_joint_likelihood` reads both. WarpLDA reads none: it visits its own
//! `TokenMatrix`. Count tables and the Table 2 model take their lengths from
//! the corpus or from their own totals.

use crate::{Corpus, DocId, WordId};

/// Document-major view: for each document, the contiguous range of token
/// indices and their word ids.
#[derive(Debug, Clone)]
pub struct DocMajorView {
    /// `offsets[d]..offsets[d+1]` is the token-index range of document `d`.
    offsets: Vec<u32>,
    /// `words[i]` is the word of token index `i`.
    words: Vec<WordId>,
}

impl DocMajorView {
    /// Builds the document-major view of a corpus.
    pub fn build(corpus: &Corpus) -> Self {
        let mut offsets = Vec::with_capacity(corpus.num_docs() + 1);
        let mut words = Vec::with_capacity(corpus.num_tokens() as usize);
        offsets.push(0u32);
        for (_, doc) in corpus.iter() {
            words.extend_from_slice(doc.tokens());
            offsets.push(words.len() as u32);
        }
        Self { offsets, words }
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of tokens.
    pub fn num_tokens(&self) -> usize {
        self.words.len()
    }

    /// The token-index range of document `d`.
    pub fn doc_range(&self, d: DocId) -> std::ops::Range<usize> {
        let d = d as usize;
        self.offsets[d] as usize..self.offsets[d + 1] as usize
    }

    /// Word of token index `i`.
    pub fn word_of(&self, token_index: usize) -> WordId {
        self.words[token_index]
    }

    /// Document length `L_d`.
    pub fn doc_len(&self, d: DocId) -> usize {
        self.doc_range(d).len()
    }
}

/// Word-major view: for each word, the token indices of its occurrences and
/// the documents they occur in. This is the `Zw` / CSC ordering of the paper;
/// within each word the occurrences are sorted by document id, which is
/// exactly the property Section 5.2 relies on for cache-friendly indirect row
/// accesses.
#[derive(Debug, Clone)]
pub struct WordMajorView {
    /// `offsets[w]..offsets[w+1]` is the occurrence range of word `w`.
    offsets: Vec<u32>,
    /// Token index (into the document-major arrays) of each occurrence.
    token_indices: Vec<u32>,
    /// Document of each occurrence, parallel to `token_indices`.
    docs: Vec<DocId>,
}

impl WordMajorView {
    /// Builds the word-major view from the document-major view, which must
    /// be `corpus`'s.
    pub fn build(corpus: &Corpus, doc_view: &DocMajorView) -> Self {
        debug_assert_eq!(doc_view.num_tokens() as u64, corpus.num_tokens());
        Self::from_corpus(corpus)
    }

    /// Builds the word-major view of a corpus.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let vocab_size = corpus.vocab_size();
        let mut counts = vec![0u32; vocab_size + 1];
        for (_, doc) in corpus.iter() {
            for &w in doc.tokens() {
                counts[w as usize + 1] += 1;
            }
        }
        for w in 0..vocab_size {
            counts[w + 1] += counts[w];
        }
        let offsets = counts.clone();
        let total = corpus.num_tokens() as usize;
        let mut token_indices = vec![0u32; total];
        let mut docs = vec![0u32; total];
        let mut cursor = offsets.clone();
        // Visiting tokens document-by-document (increasing doc id) guarantees
        // that within each word bucket the occurrences are sorted by doc id.
        let mut i = 0u32;
        for (d, doc) in corpus.iter() {
            for &w in doc.tokens() {
                let slot = cursor[w as usize] as usize;
                token_indices[slot] = i;
                docs[slot] = d;
                cursor[w as usize] += 1;
                i += 1;
            }
        }
        Self { offsets, token_indices, docs }
    }

    /// Number of words.
    pub fn num_words(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Occurrence range of word `w`.
    pub fn word_range(&self, w: WordId) -> std::ops::Range<usize> {
        let w = w as usize;
        self.offsets[w] as usize..self.offsets[w + 1] as usize
    }

    /// Term frequency `L_w` of word `w`.
    pub fn word_len(&self, w: WordId) -> usize {
        self.word_range(w).len()
    }

    /// Token indices (into document-major order) of the occurrences of `w`.
    pub fn word_token_indices(&self, w: WordId) -> &[u32] {
        &self.token_indices[self.word_range(w)]
    }

    /// Documents of the occurrences of `w`, parallel to
    /// [`word_token_indices`](Self::word_token_indices).
    pub fn word_docs(&self, w: WordId) -> &[DocId] {
        &self.docs[self.word_range(w)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusBuilder;

    fn fig1_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["ios", "android"]);
        b.push_text_doc(["apple", "iphone", "apple", "ios"]);
        b.push_text_doc(["apple", "orange"]);
        b.build().unwrap()
    }

    #[test]
    fn doc_view_preserves_lengths_and_words() {
        let c = fig1_corpus();
        let dv = DocMajorView::build(&c);
        assert_eq!(dv.num_docs(), 3);
        assert_eq!(dv.num_tokens(), 8);
        assert_eq!(dv.doc_len(0), 2);
        assert_eq!(dv.doc_len(1), 4);
        assert_eq!(dv.doc_len(2), 2);
        let apple = c.vocab().get("apple").unwrap();
        assert_eq!(dv.doc_range(1).filter(|&i| dv.word_of(i) == apple).count(), 2);
    }

    #[test]
    fn word_view_is_a_permutation_of_doc_view() {
        let c = fig1_corpus();
        let dv = DocMajorView::build(&c);
        let wv = WordMajorView::build(&c, &dv);
        let mut seen = vec![false; dv.num_tokens()];
        for w in 0..wv.num_words() as WordId {
            for &i in wv.word_token_indices(w) {
                assert_eq!(dv.word_of(i as usize), w);
                assert!(!seen[i as usize], "token index repeated");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn word_occurrences_are_sorted_by_doc() {
        let c = fig1_corpus();
        let dv = DocMajorView::build(&c);
        let wv = WordMajorView::build(&c, &dv);
        for w in 0..wv.num_words() {
            let docs = wv.word_docs(w as WordId);
            assert!(docs.windows(2).all(|p| p[0] <= p[1]), "word {w} docs not sorted: {docs:?}");
        }
    }

    #[test]
    fn term_frequencies_match_word_view() {
        let c = fig1_corpus();
        let dv = DocMajorView::build(&c);
        let wv = WordMajorView::build(&c, &dv);
        let tf = c.term_frequencies();
        for (w, &freq) in tf.iter().enumerate() {
            assert_eq!(freq as usize, wv.word_len(w as WordId));
        }
    }

    #[test]
    fn empty_corpus_views() {
        let c = Corpus::from_parts(vec![], crate::Vocabulary::new()).unwrap();
        let dv = DocMajorView::build(&c);
        let wv = WordMajorView::build(&c, &dv);
        assert_eq!(dv.num_docs(), 0);
        assert_eq!(dv.num_tokens(), 0);
        assert_eq!(wv.num_words(), 0);
    }

    #[test]
    fn doc_ranges_cover_all_tokens_in_order() {
        let c = fig1_corpus();
        let dv = DocMajorView::build(&c);
        let mut next = 0;
        for d in 0..dv.num_docs() as DocId {
            assert_eq!(dv.doc_range(d).start, next, "doc {d} starts where doc {d} - 1 ends");
            next = dv.doc_range(d).end;
        }
        assert_eq!(next, 8);
        assert_eq!(dv.doc_range(0), 0..2);
        assert_eq!(dv.doc_range(2), 6..8);
    }
}
