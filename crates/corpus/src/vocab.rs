//! Bidirectional word ⇄ id mapping.
//!
//! The layout is flat, like every per-word structure on the serving path:
//! the words sit back to back in one `String`, word `i` ending at byte
//! `ends[i]` (and starting where word `i − 1` ends), and the id of a word is
//! found through one open-addressing table of `(tag, id)` slots. A vocabulary
//! of any size is three buffers, so cloning or decoding one allocates a
//! fixed number of times whatever its size.
//!
//! The table hashes with a [`RandomState`] the vocabulary holds: std's
//! SipHash under keys drawn per process. Raw-text queries reach
//! [`Vocabulary::get`] from outside the program, and with an unkeyed hash a
//! client could pick words that all land in one probe run and make every
//! lookup linear in `V`. Ids depend only on insertion order, never on the
//! keys, so everything observable stays deterministic.

use std::hash::{BuildHasher, RandomState};

use crate::WordId;

/// A free slot of the id table.
const EMPTY: u64 = u64::MAX;

/// A bidirectional mapping between word strings and dense `u32` ids.
///
/// Ids are assigned in insertion order starting from zero, so a vocabulary
/// built by scanning a corpus front to back is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    /// Every word's bytes, in id order.
    text: String,
    /// `ends[i]` is the byte where word `i` ends in `text`.
    ends: Vec<usize>,
    /// Open-addressing id table, a power of two at most half full (empty
    /// before the first word): `tag << 32 | id` per used slot, [`EMPTY`]
    /// otherwise. `tag` is the high half of the word's hash; its low bits
    /// pick the home slot, and collisions probe linearly.
    slots: Vec<u64>,
    hasher: RandomState,
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
    pub(crate) fn synthetic(n: usize) -> Self {
        let mut v = Self::with_capacity(n);
        for i in 0..n {
            v.intern(&format!("w{i}"));
        }
        v
    }

    /// Creates an empty vocabulary with room for `capacity` words.
    fn with_capacity(capacity: usize) -> Self {
        Self::with_capacities(capacity, 0)
    }

    /// Creates an empty vocabulary with room for `words` words of `bytes`
    /// bytes in all, so interning them allocates nothing more.
    pub(crate) fn with_capacities(words: usize, bytes: usize) -> Self {
        let slots = if words == 0 { 0 } else { (2 * words).next_power_of_two() };
        Self {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(words),
            slots: vec![EMPTY; slots],
            hasher: RandomState::new(),
        }
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` when the vocabulary contains no words.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Returns the id of `word`, inserting it if necessary.
    ///
    /// # Panics
    /// Panics if a new word would take id `u32::MAX`.
    pub fn intern(&mut self, word: &str) -> WordId {
        let tag = self.tag(word);
        let free = match self.find(word, tag) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.ends.len() as WordId;
        assert!(id < WordId::MAX, "a vocabulary holds fewer than 2^32 - 1 words");
        self.text.push_str(word);
        self.ends.push(self.text.len());
        let entry = u64::from(tag) << 32 | u64::from(id);
        if 2 * self.ends.len() > self.slots.len() {
            // Double the table (two slots at first) and re-insert every word
            // from its stored tag: none is hashed again.
            let doubled = vec![EMPTY; (2 * self.slots.len()).max(2)];
            let old = std::mem::replace(&mut self.slots, doubled);
            for e in old.into_iter().filter(|&e| e != EMPTY).chain([entry]) {
                place(&mut self.slots, e);
            }
        } else {
            self.slots[free] = entry;
        }
        id
    }

    /// Returns the id of `word` if it is already known.
    pub fn get(&self, word: &str) -> Option<WordId> {
        self.find(word, self.tag(word)).ok()
    }

    /// Returns the word string for `id`, or `None` if out of range.
    pub fn word(&self, id: WordId) -> Option<&str> {
        let id = id as usize;
        let end = *self.ends.get(id)?;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.text[start..end])
    }

    /// Iterates over `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let spans = starts.zip(&self.ends);
        (0..).zip(spans.map(|(start, &end)| &self.text[start..end]))
    }

    /// The high half of `word`'s hash: the tag its slot stores, and (low
    /// bits) its home slot.
    fn tag(&self, word: &str) -> u32 {
        (self.hasher.hash_one(word) >> 32) as u32
    }

    /// `Ok(id)` if `word` is known, else `Err` with the free slot its probe
    /// ended on (meaningless while the table is empty).
    fn find(&self, word: &str, tag: u32) -> Result<WordId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            let id = entry as WordId;
            if (entry >> 32) as u32 == tag && self.word(id) == Some(word) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Stores `entry` in the first free slot of `slots` from its tag's home slot
/// on.
fn place(slots: &mut [u64], entry: u64) {
    let mask = slots.len() - 1;
    let mut slot = (entry >> 32) as usize & mask;
    while slots[slot] != EMPTY {
        slot = (slot + 1) & mask;
    }
    slots[slot] = entry;
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

    /// Words that catch off-by-one errors in the end offsets (the empty
    /// word, prefixes of one another) and in byte-versus-char handling
    /// (multibyte UTF-8, a prefix of one within another).
    const POOL: [&str; 12] =
        ["", "a", "ab", "abc", "b", "ba", "é", "éa", "aé", "日本", "日本語", "🦀 crab"];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn intern_and_get_agree_with_a_hash_map(
            ops in proptest::collection::vec((0usize..POOL.len() + 40, proptest::bool::ANY), 0..120)
        ) {
            use std::collections::HashMap;
            use crate::io::codec::{read_vocab, write_vocab, Decoder, Encoder};
            use proptest::prop_assert_eq;
            // A pick past the pool is a generated word: repeats and
            // prefixes of the pool's words ("a0", "ab1", ...).
            let word = |i: usize| match i.checked_sub(POOL.len()) {
                None => POOL[i].to_owned(),
                Some(j) => format!("{}{}", POOL[j % 4], j % 10),
            };
            let mut vocab = Vocabulary::new();
            let mut oracle: HashMap<String, WordId> = HashMap::new();
            let mut order: Vec<String> = Vec::new();
            for &(pick, insert) in &ops {
                let w = word(pick);
                if insert {
                    let next = order.len() as WordId;
                    let want = *oracle.entry(w.clone()).or_insert_with(|| {
                        order.push(w.clone());
                        next
                    });
                    prop_assert_eq!(vocab.intern(&w), want);
                } else {
                    prop_assert_eq!(vocab.get(&w), oracle.get(&w).copied());
                }
            }
            // The codec's layout: the count, then each word length-prefixed.
            let mut bytes = Vec::new();
            let mut enc = Encoder::new(&mut bytes);
            enc.write_usize(order.len()).unwrap();
            for w in &order {
                enc.write_str(w).unwrap();
            }
            let decoded = read_vocab(&mut Decoder::new(&bytes)).unwrap();
            for v in [&vocab, &vocab.clone(), &decoded] {
                prop_assert_eq!(v.len(), order.len());
                let listed: Vec<(WordId, &str)> = v.iter().collect();
                let expect: Vec<(WordId, &str)> =
                    (0..).zip(order.iter().map(String::as_str)).collect();
                prop_assert_eq!(listed, expect);
                for (id, w) in order.iter().enumerate() {
                    prop_assert_eq!(v.get(w), Some(id as WordId));
                    prop_assert_eq!(v.word(id as WordId), Some(w.as_str()));
                }
                prop_assert_eq!(v.word(order.len() as WordId), None);
                let mut again = Vec::new();
                write_vocab(&mut Encoder::new(&mut again), v).unwrap();
                prop_assert_eq!(&again, &bytes);
            }
        }
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
