//! Readers and writers for corpus files.
//!
//! * The UCI "bag of words" `docword` format used by the NYTimes and PubMed
//!   datasets of the paper: a header of three lines (`D`, `V`, `NNZ`) followed
//!   by `docID wordID count` triples (all 1-based).
//! * Plain-text tokenization ([`tokenize_text`], [`tokenize_query_into`]):
//!   whitespace-separated tokens, lower-cased, with everything except ASCII
//!   alphanumerics stripped — the same pre-processing the paper applies to
//!   ClueWeb12.
//!
//! Binary persistence (model checkpoints, vocabulary snapshots) lives in the
//! [`codec`] submodule; crash-safe file replacement (temp + fsync + rename,
//! with scripted write-fault injection) lives in [`atomic`].

pub mod atomic;
pub mod codec;

pub use atomic::atomic_write;

use std::io::{BufRead, BufReader, Read, Write};

use crate::{Corpus, CorpusError, Document, Vocabulary, WordId};

/// Reads a corpus in the UCI `docword` bag-of-words format.
///
/// The vocabulary is synthetic (`w0`, `w1`, …) unless `vocab` is supplied from
/// a matching `vocab.*.txt` file via [`read_uci_vocab`].
pub fn read_uci_bag_of_words<R: Read>(
    reader: R,
    vocab: Option<Vocabulary>,
) -> Result<Corpus, CorpusError> {
    let mut lines = BufReader::new(reader).lines();
    let mut next_header = |line_no: usize| -> Result<usize, CorpusError> {
        let line = lines
            .next()
            .ok_or(CorpusError::Empty("missing header line"))?
            .map_err(CorpusError::Io)?;
        line.trim().parse::<usize>().map_err(|_| CorpusError::Parse {
            line: line_no,
            message: format!("expected integer header, got {line:?}"),
        })
    };
    let num_docs = next_header(1)?;
    let vocab_size = next_header(2)?;
    let _nnz = next_header(3)?;

    let vocab = match vocab {
        Some(v) => {
            if v.len() < vocab_size {
                return Err(CorpusError::Parse {
                    line: 2,
                    message: format!(
                        "provided vocabulary has {} words but header declares {vocab_size}",
                        v.len()
                    ),
                });
            }
            v
        }
        None => Vocabulary::synthetic(vocab_size),
    };

    let mut docs: Vec<Vec<(WordId, u32)>> = vec![Vec::new(); num_docs];
    for (i, line) in lines.enumerate() {
        let line_no = i + 4;
        let line = line.map_err(CorpusError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_field = |s: Option<&str>, what: &str| -> Result<u64, CorpusError> {
            s.and_then(|v| v.parse::<u64>().ok()).ok_or_else(|| CorpusError::Parse {
                line: line_no,
                message: format!("expected {what} on triple line {trimmed:?}"),
            })
        };
        let doc = parse_field(parts.next(), "docID")?;
        let word = parse_field(parts.next(), "wordID")?;
        let count = parse_field(parts.next(), "count")?;
        if doc == 0 || doc as usize > num_docs {
            return Err(CorpusError::DocOutOfRange { doc: doc as u32, num_docs });
        }
        if word == 0 || word as usize > vocab_size {
            return Err(CorpusError::WordOutOfRange { word: word as u32, vocab_size });
        }
        docs[(doc - 1) as usize].push(((word - 1) as WordId, count as u32));
    }

    let docs: Vec<Document> = docs.into_iter().map(Document::from_counts).collect();
    Corpus::from_parts(docs, vocab)
}

/// Reads the UCI `vocab.*.txt` companion file: one word per line, in id order.
pub fn read_uci_vocab<R: Read>(reader: R) -> Result<Vocabulary, CorpusError> {
    let mut vocab = Vocabulary::new();
    for line in BufReader::new(reader).lines() {
        let line = line.map_err(CorpusError::Io)?;
        let w = line.trim();
        if !w.is_empty() {
            vocab.intern(w);
        }
    }
    Ok(vocab)
}

/// Writes a corpus in the UCI `docword` format (1-based ids, one triple per
/// distinct `(doc, word)` pair).
pub fn write_uci_bag_of_words<W: Write>(corpus: &Corpus, mut writer: W) -> Result<(), CorpusError> {
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    for (d, doc) in corpus.iter() {
        let mut counts = std::collections::BTreeMap::new();
        for &w in doc.tokens() {
            *counts.entry(w).or_insert(0u32) += 1;
        }
        for (w, c) in counts {
            triples.push((d + 1, w + 1, c));
        }
    }
    writeln!(writer, "{}", corpus.num_docs())?;
    writeln!(writer, "{}", corpus.vocab_size())?;
    writeln!(writer, "{}", triples.len())?;
    for (d, w, c) in triples {
        writeln!(writer, "{d} {w} {c}")?;
    }
    Ok(())
}

/// Normalizes raw text the way the paper pre-processes ClueWeb12: keep ASCII
/// alphanumerics, lower-case, split on whitespace and drop stop words.
pub fn tokenize_text(text: &str, stop_words: &[&str]) -> Vec<String> {
    let cleaned: String = text
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { ' ' })
        .collect();
    cleaned.split_whitespace().filter(|t| !stop_words.contains(t)).map(str::to_owned).collect()
}

/// What to do with query words that are not in the frozen vocabulary.
///
/// A serving vocabulary is frozen at model-freeze time, so unseen documents
/// routinely contain words the model has never assigned topics to. The two
/// policies of every production LDA deployment:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OovPolicy {
    /// Silently drop out-of-vocabulary words and report how many were
    /// dropped. The default: an unseen word carries no topic information
    /// under a frozen model, so skipping it is the statistically honest
    /// treatment.
    #[default]
    Skip,
    /// Reject the whole query with [`CorpusError::UnknownWord`]. For callers
    /// that would rather surface a vocabulary mismatch (e.g. a stale client
    /// querying a re-trained model) than degrade silently.
    Reject,
}

/// Tokenizes a raw-text query against a *frozen* [`Vocabulary`], applying the
/// same normalization as [`tokenize_text`] (ASCII-alphanumeric, lower-cased,
/// whitespace-split; stop words are assumed to simply be absent from the
/// vocabulary). Known words are appended to `out` as ids; out-of-vocabulary
/// words follow `policy`. Returns the number of OOV words dropped.
///
/// `scratch` stages the normalized text; both buffers are cleared first and
/// reused across calls, so a caller holding onto them (the query server's
/// workers do) tokenizes without heap allocation once they have grown to the
/// largest query seen.
pub fn tokenize_query_into(
    vocab: &Vocabulary,
    text: &str,
    policy: OovPolicy,
    scratch: &mut String,
    out: &mut Vec<WordId>,
) -> Result<usize, CorpusError> {
    scratch.clear();
    scratch.extend(text.chars().map(|c| {
        if c.is_ascii_alphanumeric() {
            c.to_ascii_lowercase()
        } else {
            ' '
        }
    }));
    out.clear();
    let mut oov = 0usize;
    for token in scratch.split_whitespace() {
        match vocab.get(token) {
            Some(id) => out.push(id),
            None => match policy {
                OovPolicy::Skip => oov += 1,
                OovPolicy::Reject => {
                    return Err(CorpusError::UnknownWord { word: token.to_owned() })
                }
            },
        }
    }
    Ok(oov)
}

/// A small default English stop-word list.
pub const DEFAULT_STOP_WORDS: &[&str] = &[
    "a", "an", "the", "and", "or", "of", "to", "in", "is", "it", "for", "on", "with", "as", "by",
    "at", "be", "this", "that", "from", "are", "was", "were", "but", "not", "have", "has", "had",
];

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "3\n4\n5\n1 1 2\n1 3 1\n2 2 1\n3 4 3\n3 1 1\n";

    #[test]
    fn uci_round_trip() {
        let corpus = read_uci_bag_of_words(SAMPLE.as_bytes(), None).unwrap();
        assert_eq!(corpus.num_docs(), 3);
        assert_eq!(corpus.vocab_size(), 4);
        assert_eq!(corpus.num_tokens(), 2 + 1 + 1 + 3 + 1);
        let mut out = Vec::new();
        write_uci_bag_of_words(&corpus, &mut out).unwrap();
        let reread = read_uci_bag_of_words(out.as_slice(), None).unwrap();
        assert_eq!(reread.num_docs(), corpus.num_docs());
        assert_eq!(reread.num_tokens(), corpus.num_tokens());
        assert_eq!(reread.term_frequencies(), corpus.term_frequencies());
    }

    #[test]
    fn uci_rejects_out_of_range_ids() {
        let bad_doc = "1\n2\n1\n5 1 1\n";
        assert!(matches!(
            read_uci_bag_of_words(bad_doc.as_bytes(), None),
            Err(CorpusError::DocOutOfRange { .. })
        ));
        let bad_word = "1\n2\n1\n1 7 1\n";
        assert!(matches!(
            read_uci_bag_of_words(bad_word.as_bytes(), None),
            Err(CorpusError::WordOutOfRange { .. })
        ));
    }

    #[test]
    fn uci_rejects_garbage_header() {
        let bad = "three\n2\n1\n";
        assert!(matches!(
            read_uci_bag_of_words(bad.as_bytes(), None),
            Err(CorpusError::Parse { .. })
        ));
    }

    #[test]
    fn uci_with_explicit_vocab() {
        let vocab_txt = "alpha\nbeta\ngamma\ndelta\n";
        let vocab = read_uci_vocab(vocab_txt.as_bytes()).unwrap();
        let corpus = read_uci_bag_of_words(SAMPLE.as_bytes(), Some(vocab)).unwrap();
        assert_eq!(corpus.vocab().word(0), Some("alpha"));
        assert_eq!(corpus.vocab().word(3), Some("delta"));
    }

    #[test]
    fn uci_rejects_too_small_vocab() {
        let vocab = read_uci_vocab("only\none\n".as_bytes()).unwrap();
        assert!(read_uci_bag_of_words(SAMPLE.as_bytes(), Some(vocab)).is_err());
    }

    #[test]
    fn tokenizer_strips_punctuation_and_stop_words() {
        let toks =
            tokenize_text("The QUICK, brown fox; jumps over the lazy dog!", DEFAULT_STOP_WORDS);
        assert_eq!(toks, vec!["quick", "brown", "fox", "jumps", "over", "lazy", "dog"]);
    }

    #[test]
    fn tokenizer_keeps_digits() {
        let toks = tokenize_text("LDA-2016 scales to 11G tokens", &[]);
        assert_eq!(toks, vec!["lda", "2016", "scales", "to", "11g", "tokens"]);
    }

    #[test]
    fn query_tokenizer_maps_known_words_and_applies_policy() {
        let mut vocab = Vocabulary::new();
        for w in ["apple", "iphone", "ios"] {
            vocab.intern(w);
        }
        let mut scratch = String::new();
        let mut ids = Vec::new();
        // Skip policy: unknown words are counted, known ones mapped in order,
        // with the same normalization as the corpus reader.
        let oov = tokenize_query_into(
            &vocab,
            "APPLE's iPhone beats Android!",
            OovPolicy::Skip,
            &mut scratch,
            &mut ids,
        )
        .unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(oov, 3, "\"s\", \"beats\" and \"android\" are out of vocabulary");
        // Reject policy: the first unknown word fails the whole query.
        let err =
            tokenize_query_into(&vocab, "ios android", OovPolicy::Reject, &mut scratch, &mut ids)
                .unwrap_err();
        assert!(matches!(err, CorpusError::UnknownWord { ref word } if word == "android"), "{err}");
        // Buffers are reused: an all-known query after the error is clean.
        let oov =
            tokenize_query_into(&vocab, "ios ios apple", OovPolicy::Reject, &mut scratch, &mut ids)
                .unwrap();
        assert_eq!(oov, 0);
        assert_eq!(ids, vec![2, 2, 0]);
    }
}
