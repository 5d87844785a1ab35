//! Corpus summary statistics (Table 3 of the paper).

use crate::Corpus;

/// Summary statistics of a corpus, matching the columns of Table 3:
/// `D` (documents), `T` (tokens), `V` (vocabulary), `T/D` (mean document
/// length), plus a few extras that the analysis sections use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusStats {
    /// Number of documents (`D`).
    pub num_docs: usize,
    /// Total token occurrences (`T`).
    pub num_tokens: u64,
    /// Vocabulary size (`V`).
    pub vocab_size: usize,
    /// Mean document length (`T/D`).
    pub mean_doc_len: f64,
    /// Longest document.
    pub max_doc_len: usize,
    /// Largest term frequency (most frequent word).
    pub max_term_frequency: u64,
    /// Fraction of all tokens taken by the single most frequent word
    /// (the paper quotes 0.257% for ClueWeb12 after stop-word removal).
    pub top_word_fraction: f64,
}

impl CorpusStats {
    /// Computes statistics for a corpus.
    pub(crate) fn from_corpus(corpus: &Corpus) -> Self {
        let num_docs = corpus.num_docs();
        let num_tokens = corpus.num_tokens();
        let vocab_size = corpus.vocab_size();
        let max_doc_len = corpus.docs().iter().map(|d| d.len()).max().unwrap_or(0);
        let tf = corpus.term_frequencies();
        let max_term_frequency = tf.iter().copied().max().unwrap_or(0);
        let mean_doc_len = if num_docs == 0 { 0.0 } else { num_tokens as f64 / num_docs as f64 };
        let top_word_fraction =
            if num_tokens == 0 { 0.0 } else { max_term_frequency as f64 / num_tokens as f64 };
        Self {
            num_docs,
            num_tokens,
            vocab_size,
            mean_doc_len,
            max_doc_len,
            max_term_frequency,
            top_word_fraction,
        }
    }

    /// Renders the statistics as a Table 3 style row: `D  T  V  T/D`.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{name:<22} D={:<10} T={:<12} V={:<9} T/D={:.1}",
            self.num_docs, self.num_tokens, self.vocab_size, self.mean_doc_len
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::CorpusBuilder;

    #[test]
    fn stats_of_small_corpus() {
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["a", "b", "a", "a"]);
        b.push_text_doc(["b", "c"]);
        let c = b.build().unwrap();
        let s = c.stats();
        assert_eq!(s.num_docs, 2);
        assert_eq!(s.num_tokens, 6);
        assert_eq!(s.vocab_size, 3);
        assert!((s.mean_doc_len - 3.0).abs() < 1e-12);
        assert_eq!(s.max_doc_len, 4);
        assert_eq!(s.max_term_frequency, 3);
        assert!((s.top_word_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_corpus() {
        let c = crate::Corpus::from_parts(vec![], crate::Vocabulary::new()).unwrap();
        let s = c.stats();
        assert_eq!(s.num_docs, 0);
        assert_eq!(s.mean_doc_len, 0.0);
        assert_eq!(s.top_word_fraction, 0.0);
    }

    #[test]
    fn table_row_contains_fields() {
        let mut b = CorpusBuilder::new();
        b.push_text_doc(["x", "y"]);
        let c = b.build().unwrap();
        let row = c.stats().table_row("Tiny");
        assert!(row.contains("Tiny"));
        assert!(row.contains("D=2") || row.contains("D=1"));
    }
}
