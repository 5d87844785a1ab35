//! The [`Corpus`] container and its builder.

use crate::{CorpusError, CorpusStats, DocId, Document, Vocabulary, WordId};

/// A bag-of-words corpus: a set of documents over a shared vocabulary.
///
/// This is the input to every LDA sampler in the workspace. The corpus is
/// immutable after construction; the samplers keep all mutable state (topic
/// assignments, counts) separately so that one corpus can be shared across
/// threads and across samplers.
#[derive(Debug, Clone)]
pub struct Corpus {
    docs: Vec<Document>,
    vocab: Vocabulary,
    num_tokens: u64,
}

impl Corpus {
    /// Builds a corpus from parts, validating that all token ids are within
    /// the vocabulary.
    pub fn from_parts(docs: Vec<Document>, vocab: Vocabulary) -> Result<Self, CorpusError> {
        let vocab_size = vocab.len();
        let mut num_tokens = 0u64;
        for d in &docs {
            for &w in d.tokens() {
                if (w as usize) >= vocab_size {
                    return Err(CorpusError::WordOutOfRange { word: w, vocab_size });
                }
            }
            num_tokens += d.len() as u64;
        }
        Ok(Self { docs, vocab, num_tokens })
    }

    /// Builds a corpus from token-id documents with an anonymous synthetic
    /// vocabulary sized to the largest token id plus one.
    pub fn from_token_docs(docs: Vec<Vec<WordId>>) -> Self {
        let max_word = docs.iter().flat_map(|d| d.iter().copied()).max().map_or(0, |m| m + 1);
        let vocab = Vocabulary::synthetic(max_word as usize);
        let docs: Vec<Document> = docs.into_iter().map(Document::from_tokens).collect();
        let num_tokens = docs.iter().map(|d| d.len() as u64).sum();
        Self { docs, vocab, num_tokens }
    }

    /// Number of documents (`D` in the paper).
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Vocabulary size (`V` in the paper).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Total number of token occurrences (`T` in Table 3).
    pub fn num_tokens(&self) -> u64 {
        self.num_tokens
    }

    /// The documents.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// A single document.
    pub fn doc(&self, d: DocId) -> Option<&Document> {
        self.docs.get(d as usize)
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Term frequency of every word: `tf[w]` = number of occurrences of `w`
    /// in the whole corpus (`L_w` in Section 4.1).
    pub fn term_frequencies(&self) -> Vec<u64> {
        let mut tf = vec![0u64; self.vocab_size()];
        for d in &self.docs {
            for &w in d.tokens() {
                tf[w as usize] += 1;
            }
        }
        tf
    }

    /// Summary statistics (the rows of Table 3).
    pub fn stats(&self) -> CorpusStats {
        CorpusStats::from_corpus(self)
    }

    /// Iterates over `(doc_id, document)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().enumerate().map(|(i, d)| (i as DocId, d))
    }
}

/// Incremental builder used by the readers and generators.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    docs: Vec<Document>,
    vocab: Vocabulary,
}

impl CorpusBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document given as raw word strings, interning new words.
    pub fn push_text_doc<'a, I: IntoIterator<Item = &'a str>>(&mut self, words: I) -> DocId {
        let tokens: Vec<WordId> = words.into_iter().map(|w| self.vocab.intern(w)).collect();
        self.push_token_doc(tokens)
    }

    /// Adds a document given as token ids.
    fn push_token_doc(&mut self, tokens: Vec<WordId>) -> DocId {
        let id = self.docs.len() as DocId;
        self.docs.push(Document::from_tokens(tokens));
        id
    }

    /// Finalizes the corpus.
    pub fn build(self) -> Result<Corpus, CorpusError> {
        Corpus::from_parts(self.docs, self.vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Corpus {
        // The Figure 1 example: 3 documents over {ios, android, apple, iphone, orange}.
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["ios", "android"]);
        b.push_text_doc(["apple", "iphone", "apple", "ios"]);
        b.push_text_doc(["apple", "orange"]);
        b.build().unwrap()
    }

    #[test]
    fn counts_match_figure1_example() {
        let c = tiny();
        assert_eq!(c.num_docs(), 3);
        assert_eq!(c.vocab_size(), 5);
        assert_eq!(c.num_tokens(), 8);
        let tf = c.term_frequencies();
        let apple = c.vocab().get("apple").unwrap() as usize;
        assert_eq!(tf[apple], 3);
        assert_eq!(tf.iter().sum::<u64>(), 8);
    }

    #[test]
    fn from_token_docs_builds_synthetic_vocab() {
        let c = Corpus::from_token_docs(vec![vec![0, 4, 2], vec![1]]);
        assert_eq!(c.vocab_size(), 5);
        assert_eq!(c.num_tokens(), 4);
        assert_eq!(c.doc(1).unwrap().tokens(), &[1]);
        assert!(c.doc(2).is_none());
    }

    #[test]
    fn out_of_range_token_is_rejected() {
        let vocab = Vocabulary::synthetic(3);
        let err = Corpus::from_parts(vec![Document::from_tokens(vec![0, 3])], vocab).unwrap_err();
        match err {
            CorpusError::WordOutOfRange { word, vocab_size } => {
                assert_eq!(word, 3);
                assert_eq!(vocab_size, 3);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn empty_corpus_is_allowed_by_from_parts() {
        let c = Corpus::from_parts(vec![], Vocabulary::new()).unwrap();
        assert_eq!(c.num_docs(), 0);
        assert_eq!(c.num_tokens(), 0);
    }
}
