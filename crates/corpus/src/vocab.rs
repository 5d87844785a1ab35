//! Bidirectional word ⇄ id mapping.

use std::collections::HashMap;

use crate::WordId;

/// A bidirectional mapping between word strings and dense `u32` ids.
///
/// Ids are assigned in insertion order starting from zero, so a vocabulary
/// built by scanning a corpus front to back is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    words: Vec<String>,
    index: HashMap<String, WordId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a vocabulary with `n` synthetic word strings `w0, w1, ...`.
    ///
    /// Used by the synthetic corpus generators, where words carry no meaning
    /// beyond their id.
    pub fn synthetic(n: usize) -> Self {
        let mut v = Self::with_capacity(n);
        for i in 0..n {
            v.intern(&format!("w{i}"));
        }
        v
    }

    /// Creates an empty vocabulary with room for `capacity` words.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { words: Vec::with_capacity(capacity), index: HashMap::with_capacity(capacity) }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` when the vocabulary contains no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Returns the id of `word`, inserting it if necessary.
    pub fn intern(&mut self, word: &str) -> WordId {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        let id = self.words.len() as WordId;
        self.words.push(word.to_owned());
        self.index.insert(word.to_owned(), id);
        id
    }

    /// Returns the id of `word` if it is already known.
    pub fn get(&self, word: &str) -> Option<WordId> {
        self.index.get(word).copied()
    }

    /// Returns the word string for `id`, or `None` if out of range.
    pub fn word(&self, id: WordId) -> Option<&str> {
        self.words.get(id as usize).map(String::as_str)
    }

    /// Iterates over `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str)> {
        self.words.iter().enumerate().map(|(i, w)| (i as WordId, w.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        let b = v.intern("banana");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(v.intern("apple"), a);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let mut v = Vocabulary::new();
        for w in ["ios", "android", "apple", "iphone", "orange"] {
            v.intern(w);
        }
        for w in ["ios", "android", "apple", "iphone", "orange"] {
            let id = v.get(w).unwrap();
            assert_eq!(v.word(id), Some(w));
        }
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.word(99), None);
    }

    #[test]
    fn synthetic_vocab_has_requested_size() {
        let v = Vocabulary::synthetic(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.word(42), Some("w42"));
        assert_eq!(v.get("w99"), Some(99));
    }

    #[test]
    fn empty_vocab() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    fn codec_round_trip() {
        // Real persistence goes through the binary codec, not derives.
        use crate::io::codec::{read_vocab, write_vocab, Decoder, Encoder};
        let mut v = Vocabulary::new();
        v.intern("alpha");
        v.intern("beta");
        let mut buf = Vec::new();
        write_vocab(&mut Encoder::new(&mut buf), &v).unwrap();
        let back = read_vocab(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(back.word(0), Some("alpha"));
        assert_eq!(back.get("beta"), Some(1));
    }
}
