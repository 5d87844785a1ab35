//! A single bag-of-words document.

use crate::WordId;

/// A document is an ordered list of token occurrences (word ids).
///
/// LDA is a bag-of-words model, so the order of tokens carries no meaning;
/// we keep a flat `Vec<WordId>` because the samplers assign one latent topic
/// per *occurrence* (Section 2.1 of the paper distinguishes words from
/// tokens: "apple" is a word, each of its occurrences is a token).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    tokens: Vec<WordId>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a document from a list of token occurrences.
    pub fn from_tokens(tokens: Vec<WordId>) -> Self {
        Self { tokens }
    }

    /// Creates a document from `(word, count)` pairs, expanding counts into
    /// individual token occurrences (the UCI bag-of-words representation).
    pub fn from_counts<I: IntoIterator<Item = (WordId, u32)>>(counts: I) -> Self {
        let mut tokens = Vec::new();
        for (w, c) in counts {
            for _ in 0..c {
                tokens.push(w);
            }
        }
        Self { tokens }
    }

    /// Number of token occurrences (`L_d` in the paper).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` when the document has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The token occurrences.
    pub fn tokens(&self) -> &[WordId] {
        &self.tokens
    }

    /// Appends a token occurrence.
    pub fn push(&mut self, word: WordId) {
        self.tokens.push(word);
    }
}

impl FromIterator<WordId> for Document {
    fn from_iter<T: IntoIterator<Item = WordId>>(iter: T) -> Self {
        Self { tokens: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_expands_occurrences() {
        let d = Document::from_counts(vec![(3, 2), (7, 1), (3, 1)]);
        assert_eq!(d.tokens(), &[3, 3, 7, 3]);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn empty_document() {
        let d = Document::new();
        assert!(d.is_empty());
    }

    #[test]
    fn push_and_collect() {
        let mut d = Document::new();
        d.push(1);
        d.push(1);
        d.push(2);
        assert_eq!(d.len(), 3);
        let d2: Document = vec![1u32, 1, 2].into_iter().collect();
        assert_eq!(d, d2);
    }

    #[test]
    fn zero_count_words_are_skipped() {
        let d = Document::from_counts(vec![(5, 0), (6, 2)]);
        assert_eq!(d.tokens(), &[6, 6]);
    }
}
