//! A small self-contained binary codec for model checkpoints.
//!
//! The build environment has no package registry, so instead of pulling in a
//! real serialization framework the workspace writes its persistent artifacts
//! (sampler checkpoints, model snapshots, vocabularies) through this module:
//! little-endian primitives behind an [`Encoder`]/[`Decoder`] pair, wrapped in
//! a *framed container* with a magic number, a format version and a checksum
//! ([`checksum64`]) so that truncated, corrupted or foreign files are rejected with a
//! typed [`CodecError`] instead of being silently misread.
//!
//! **One reader for bytes from outside.** [`Decoder`] is a bounds-checked
//! cursor over a byte slice — a file's payload once the container has
//! verified it, a frame where it lies in a socket's receive buffer. Its reads
//! borrow ([`Decoder::bytes`], [`Decoder::read_str`]), so bulk sections are
//! validated in place and copied once, by whoever keeps them. Every section
//! that announces a count goes through **one length rule**
//! ([`Decoder::fits`]): the count times the smallest encoding of one element
//! must fit the bytes that remain, else [`CodecError::Corrupt`] — so nothing
//! a payload declares can make a reader allocate more than a small multiple of
//! the payload's own length, and a payload that ends early is `Corrupt`, never
//! a panic. The only code that faces a real `Read` is the container itself,
//! which guards the one length a file declares about bytes not yet read.
//!
//! Framed container layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"WLDACKPT"
//! 8       4     format version (currently 5)
//! 12      8     payload length in bytes
//! 20      8     checksum64 of the payload
//! 28      n     payload
//! ```
//!
//! **Format history.** Version 1 stored WarpLDA's per-token state as two
//! separate arrays (assignments, then a flat proposal array). Version 2
//! stored the packed per-entry records (assignment + `M` proposals
//! interleaved) under two WarpLDA checkpoint kinds, one of which continued
//! from a saved sequential RNG state. Version 3 has one WarpLDA kind whose
//! payload is `(seed, iteration, M, hash-counts flag, records, c_k)`: every
//! driver derives its RNG streams from `(seed, iteration, phase, entity)`,
//! so no RNG state is stored and any driver resumes what any driver wrote.
//! Version 4 keeps that payload but writes the records as the sampler stores
//! them and as they cross the wire — `width:u8, n:u64, n × width` bytes, with
//! `width` the 1, 2 or 4 bytes a topic id of a `K`-topic model needs —
//! where v3 wrote a length-prefixed `u32` array (a quarter of the bytes at
//! `K ≤ 256`). Version 5 keeps v4's payloads byte for byte and changes only
//! the header's checksum: [`checksum64`] runs FNV-1a's step over 8-byte words
//! in four interleaved lanes instead of over single bytes, so verifying a
//! payload costs a small fraction of reading it (v4's byte-serial FNV-1a ran
//! at about 570 MB/s, one dependent multiply per byte). Version 6 writes the
//! WarpLDA state as `(seed, iteration, M, assignments, c_k)`: the pending MH
//! proposals are a pure function of the seed, the iteration and the
//! assignments, so the reader re-derives them instead of reading `M`
//! further ids per token, and the hash-count flag byte, which selected
//! nothing, is gone.
//! v1, v2, v3, v4 and v5 files are rejected with the typed
//! [`CodecError::LegacyVersion`] — re-train or re-save under the current
//! format. There is no in-place migration and no second reader: a v2 serial
//! checkpoint can only be continued by the sequential stream it saved, which
//! no sampler draws from any more, so resuming it would silently run a
//! different chain than the one that was saved; a v3 file could be widened,
//! a v4 file re-hashed and a v5 file stripped of its proposals, but a reader
//! kept for files only this repository's own runs ever wrote
//! is a second code path with no user. The version is the container's, so
//! older serving models are refused with it and are re-frozen from their
//! sampler.
//!
//! The payload itself is written by the caller via an [`Encoder`]; the
//! checkpoint layer in `warplda-core` composes sampler state, model
//! parameters and (optionally) a [`Vocabulary`] inside one payload.
//!
//! The container materializes the whole payload in memory on both sides so
//! the length and checksum can sit in the header. A save holds the sampler
//! and the payload; a load holds the payload and the sampler it is copied
//! into, section by section, straight from the payload — peak memory ≈ 2× the
//! serialized state either way. Fine at the corpus scales this workspace
//! trains; if a future PR checkpoints multi-GB models, move the checksum to a
//! trailer and stream the payload instead — that is a format-version bump.

use std::io::{Read, Write};

use crate::{Corpus, Document, Vocabulary};

/// Magic number opening every framed file: identifies WarpLDA checkpoints.
pub const MAGIC: [u8; 8] = *b"WLDACKPT";

/// Magic number of frozen serving models ([`MODEL_MAGIC`] files hold a
/// read-optimized `TopicModel`, written by the `warplda-serve` crate). The
/// container layout is identical to checkpoints; only the magic differs, so a
/// checkpoint can never be misread as a model or vice versa.
pub const MODEL_MAGIC: [u8; 8] = *b"WLDAMODL";

/// Current format version of the framed container. Bump when the payload
/// layout changes incompatibly; readers reject versions they do not know.
/// See the module docs for the format history.
pub const FORMAT_VERSION: u32 = 6;

/// Errors produced while encoding or decoding framed binary data.
#[derive(Debug)]
pub enum CodecError {
    /// An underlying I/O error (file missing, disk full, short read, …).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a WarpLDA checkpoint.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file uses a superseded format this reader deliberately no longer
    /// decodes (see the format history in the module docs). Re-save the
    /// model with the current code.
    LegacyVersion(u32),
    /// The payload's checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the payload actually read.
        found: u64,
    },
    /// The payload decoded to something structurally invalid.
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
            CodecError::BadMagic => write!(f, "bad magic: not a WarpLDA checkpoint file"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (reader supports {FORMAT_VERSION})"
                )
            }
            CodecError::LegacyVersion(v) => {
                write!(
                    f,
                    "checkpoint format version {v} is superseded (current: {FORMAT_VERSION}): \
                     v1 predates the packed token-record layout, v2 the per-entity RNG streams \
                     every sampler now draws from, v3 the width-native records, v4 the \
                     word-lane checksum, v5 the assignment-only state — re-train or re-save \
                     the model"
                )
            }
            CodecError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}")
            }
            CodecError::Corrupt(msg) => write!(f, "corrupt checkpoint payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Result alias for codec operations.
pub type CodecResult<T> = Result<T, CodecError>;

/// FNV-1a's offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a's step: xor in `w`, multiply by the prime. For a fixed state it is
/// a bijection of `w`, and for a fixed `w` a bijection of the state (the
/// prime is odd).
#[inline]
fn fnv_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit hash, one byte per step. The tests' golden hashes of
/// sampled chains and θ are taken with it; the container checksums with
/// [`checksum64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, u64::from(b)))
}

/// The integrity checksum of the framed container (since format v5). FNV-1a's step
/// runs over the little-endian 8-byte words of `bytes` in four interleaved
/// lanes (word `i` goes to lane `i mod 4`, so the lanes' multiplies do not
/// wait on each other); then the tail bytes past the last 32-byte block and
/// the length are folded in with the byte step, and the lanes last, in
/// order. Every step is a bijection of its lane's state, so damage confined
/// to one word, or to one tail byte, always changes the result.
///
/// Not cryptographic; it exists to catch truncation and bit rot, the failure
/// modes that actually happen to checkpoint files on disk.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes: [u64; 4] = std::array::from_fn(|i| FNV_OFFSET ^ i as u64);
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = fnv_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let length = (bytes.len() as u64).to_le_bytes();
    let h = tail.iter().chain(&length).fold(FNV_OFFSET, |h, &b| fnv_step(h, u64::from(b)));
    lanes.into_iter().fold(h, fnv_step)
}

/// Writes little-endian primitives to an underlying writer.
pub struct Encoder<'a> {
    w: &'a mut dyn Write,
}

impl<'a> Encoder<'a> {
    /// Wraps a writer.
    pub fn new(w: &'a mut dyn Write) -> Self {
        Self { w }
    }

    /// Writes raw bytes verbatim.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> CodecResult<()> {
        self.w.write_all(bytes)?;
        Ok(())
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) -> CodecResult<()> {
        self.write_bytes(&[v])
    }

    /// Writes a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) -> CodecResult<()> {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Writes a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) -> CodecResult<()> {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Writes a `usize` as a `u64`.
    pub fn write_usize(&mut self, v: usize) -> CodecResult<()> {
        self.write_u64(v as u64)
    }

    /// Writes an `f64` via its IEEE-754 bit pattern (exact round trip).
    pub fn write_f64(&mut self, v: f64) -> CodecResult<()> {
        self.write_u64(v.to_bits())
    }

    /// Writes a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) -> CodecResult<()> {
        self.write_u8(v as u8)
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) -> CodecResult<()> {
        self.write_u64(s.len() as u64)?;
        self.write_bytes(s.as_bytes())
    }

    /// Writes a length-prefixed `u32` slice. Elements are staged into a
    /// stack chunk so the underlying writer sees kilobyte-sized blocks
    /// rather than one virtual call per element — checkpoints stream
    /// hundreds of millions of `u32`s through this path.
    pub fn write_u32_slice(&mut self, vs: &[u32]) -> CodecResult<()> {
        self.write_u64(vs.len() as u64)?;
        let mut buf = [0u8; CHUNK_ELEMS * 4];
        for chunk in vs.chunks(CHUNK_ELEMS) {
            for (slot, &v) in buf.chunks_exact_mut(4).zip(chunk) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            self.write_bytes(&buf[..chunk.len() * 4])?;
        }
        Ok(())
    }
}

/// Elements per staged chunk of [`Encoder::write_u32_slice`] (4 KiB).
const CHUNK_ELEMS: usize = 1024;

/// A bounds-checked cursor over bytes from outside the program: reads
/// little-endian primitives and borrowed sections off the front of a slice.
/// A read past the end is a typed [`CodecError::Corrupt`], never a panic.
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Takes the next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.ends_short(n));
        };
        self.rest = rest;
        Ok(head)
    }

    /// Out of line, so the reads that succeed stay a length check and a split.
    #[cold]
    fn ends_short(&self, n: usize) -> CodecError {
        CodecError::Corrupt(format!("payload ends {} bytes into a {n}-byte field", self.rest.len()))
    }

    /// Takes everything that remains: an opaque tail for another reader.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    fn array<const N: usize>(&mut self) -> CodecResult<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N bytes long"))
    }

    /// **The** length guard of every counted section: `count` elements of at
    /// least `min_elem_bytes` each must fit the bytes that remain. What it
    /// returns is safe to allocate for and to multiply by `min_elem_bytes`.
    pub fn fits(&self, count: u64, min_elem_bytes: usize) -> CodecResult<usize> {
        let left = self.rest.len();
        usize::try_from(count)
            .ok()
            .filter(|n| n.checked_mul(min_elem_bytes).is_some_and(|bytes| bytes <= left))
            .ok_or_else(|| {
                CodecError::Corrupt(format!(
                    "{count} elements of {min_elem_bytes}+ bytes announced with {left} bytes left"
                ))
            })
    }

    /// Reads a `u64` element count and checks it with [`fits`](Self::fits).
    pub fn read_count(&mut self, min_elem_bytes: usize) -> CodecResult<usize> {
        let count = self.read_u64()?;
        self.fits(count, min_elem_bytes)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> CodecResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` written by [`Encoder::write_usize`], rejecting values
    /// that do not fit the host's pointer width.
    pub fn read_usize(&mut self) -> CodecResult<usize> {
        let v = self.read_u64()?;
        usize::try_from(v)
            .map_err(|_| CodecError::Corrupt(format!("length {v} exceeds the host usize")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is a corruption error.
    pub fn read_bool(&mut self) -> CodecResult<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string (the mirror of
    /// [`Encoder::write_str`]), borrowed from the input.
    pub fn read_str(&mut self) -> CodecResult<&'a str> {
        let len = self.read_count(1)?;
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|e| CodecError::Corrupt(format!("string is not UTF-8: {e}")))
    }

    /// Reads a length-prefixed `u32` vector (the mirror of
    /// [`Encoder::write_u32_slice`]).
    pub fn read_u32_vec(&mut self) -> CodecResult<Vec<u32>> {
        let len = self.read_count(4)?;
        let words = self.bytes(len * 4)?.as_chunks::<4>().0;
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }

    /// Asserts the input was consumed exactly: trailing bytes after a
    /// well-formed message are a corruption error.
    pub fn finish(self) -> CodecResult<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

/// Wraps `payload` in the framed container (magic, version, length, checksum)
/// and writes it to `w` under the checkpoint magic. See
/// [`write_framed_section`] for other section kinds.
pub fn write_framed(w: &mut dyn Write, payload: &[u8]) -> CodecResult<()> {
    write_framed_section(w, MAGIC, payload)
}

/// Reads a checkpoint-magic framed container from `r`, verifying magic,
/// version, length and checksum, and returns the payload bytes.
pub fn read_framed(r: &mut dyn Read) -> CodecResult<Vec<u8>> {
    read_framed_section(r, MAGIC)
}

/// Wraps `payload` in the framed container under an explicit section magic
/// ([`MAGIC`] for checkpoints, [`MODEL_MAGIC`] for frozen serving models).
pub fn write_framed_section(w: &mut dyn Write, magic: [u8; 8], payload: &[u8]) -> CodecResult<()> {
    w.write_all(&magic)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&checksum64(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads a framed container from `r`, requiring it to open with `expected_magic`
/// (a file carrying a *different* section magic — e.g. a model where a
/// checkpoint is expected — is rejected with [`CodecError::BadMagic`]), then
/// verifies version, length and checksum and returns the payload bytes.
pub fn read_framed_section(r: &mut dyn Read, expected_magic: [u8; 8]) -> CodecResult<Vec<u8>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != expected_magic {
        return Err(CodecError::BadMagic);
    }
    let mut head = [0u8; 20];
    r.read_exact(&mut head)?;
    let mut dec = Decoder::new(&head);
    let version = dec.read_u32()?;
    // Versions below the current one shipped before it; anything else (0, or
    // a future number) is unknown, not legacy.
    if (1..FORMAT_VERSION).contains(&version) {
        return Err(CodecError::LegacyVersion(version));
    }
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let len = dec.read_usize()?;
    let expected = dec.read_u64()?;
    let payload = read_payload(r, len)?;
    let found = checksum64(&payload);
    if found != expected {
        return Err(CodecError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// Reads the `len` payload bytes a container header announced. `len` is the
/// one length that describes bytes not yet read, so the slice rule of
/// [`Decoder::fits`] cannot check it: the buffer instead grows in megabyte
/// steps, and a corrupt length over a short file fails with a typed I/O error
/// at the first missing chunk rather than allocating it all upfront.
fn read_payload(r: &mut dyn Read, len: usize) -> CodecResult<Vec<u8>> {
    const CHUNK: usize = 1 << 20;
    let mut out = Vec::with_capacity(len.min(CHUNK));
    while out.len() < len {
        let start = out.len();
        out.resize(len.min(start + CHUNK), 0);
        r.read_exact(&mut out[start..])?;
    }
    Ok(out)
}

/// Writes a [`Vocabulary`] (word strings in id order) through an encoder.
pub fn write_vocab(enc: &mut Encoder<'_>, vocab: &Vocabulary) -> CodecResult<()> {
    enc.write_usize(vocab.len())?;
    for (_, word) in vocab.iter() {
        enc.write_str(word)?;
    }
    Ok(())
}

/// Reads a [`Vocabulary`] previously written by [`write_vocab`].
pub fn read_vocab(dec: &mut Decoder<'_>) -> CodecResult<Vocabulary> {
    // Every word is at least its 8-byte length prefix.
    let len = dec.read_count(8)?;
    // A first look at the length prefixes sizes the word bytes, so the
    // vocabulary's buffers are allocated once.
    let mut lengths = Decoder::new(dec.rest);
    let mut bytes = 0;
    for _ in 0..len {
        let word = lengths.read_count(1)?;
        lengths.bytes(word)?;
        bytes += word;
    }
    let mut vocab = Vocabulary::with_capacities(len, bytes);
    for i in 0..len {
        let word = dec.read_str()?;
        let id = vocab.intern(word);
        if id as usize != i {
            return Err(CodecError::Corrupt(format!("duplicate vocabulary word {word:?}")));
        }
    }
    Ok(vocab)
}

/// Writes a full [`Corpus`] (vocabulary + per-document token-id sequences)
/// through an encoder. The distributed runtime ships the training corpus to
/// every worker through this path, inside one wire frame.
pub fn write_corpus(enc: &mut Encoder<'_>, corpus: &Corpus) -> CodecResult<()> {
    write_vocab(enc, corpus.vocab())?;
    enc.write_usize(corpus.num_docs())?;
    for doc in corpus.docs() {
        enc.write_u32_slice(doc.tokens())?;
    }
    Ok(())
}

/// Reads a [`Corpus`] previously written by [`write_corpus`], re-validating
/// every token id against the decoded vocabulary.
pub fn read_corpus(dec: &mut Decoder<'_>) -> CodecResult<Corpus> {
    let vocab = read_vocab(dec)?;
    // Every document is at least its 8-byte token count.
    let num_docs = dec.read_count(8)?;
    let mut docs = Vec::with_capacity(num_docs);
    for _ in 0..num_docs {
        docs.push(Document::from_tokens(dec.read_u32_vec()?));
    }
    Corpus::from_parts(docs, vocab).map_err(|e| CodecError::Corrupt(format!("invalid corpus: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        {
            let mut enc = Encoder::new(&mut buf);
            enc.write_u8(7).unwrap();
            enc.write_u32(0xDEAD_BEEF).unwrap();
            enc.write_u64(u64::MAX - 3).unwrap();
            enc.write_f64(-0.125).unwrap();
            enc.write_f64(f64::NEG_INFINITY).unwrap();
            enc.write_bool(true).unwrap();
            enc.write_str("warp λδα").unwrap();
            enc.write_u32_slice(&[1, 2, 3]).unwrap();
        }
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.read_u8().unwrap(), 7);
        assert_eq!(dec.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.read_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.read_f64().unwrap(), -0.125);
        assert_eq!(dec.read_f64().unwrap(), f64::NEG_INFINITY);
        assert!(dec.read_bool().unwrap());
        assert_eq!(dec.read_str().unwrap(), "warp λδα");
        assert_eq!(dec.read_u32_vec().unwrap(), vec![1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_borrows_and_bounds_checks() {
        let corrupt = |r: CodecResult<()>| assert!(matches!(r, Err(CodecError::Corrupt(_))));
        let input = [1u8, 2, 3, 4, 5];
        let mut dec = Decoder::new(&input);
        // Borrowed reads point into the input.
        assert!(std::ptr::eq(dec.bytes(2).unwrap(), &input[..2]));
        // A read past the end is typed and consumes nothing.
        corrupt(dec.read_u32().map(drop));
        corrupt(dec.bytes(4).map(drop));
        assert_eq!(dec.bytes(3).unwrap(), &input[2..]);
        dec.finish().unwrap();
        corrupt(Decoder::new(&input).finish());

        // The length rule: a count must fit what is left at the element's
        // smallest size, whatever it would overflow to.
        let dec = Decoder::new(&input);
        assert_eq!(dec.fits(5, 1).unwrap(), 5);
        assert_eq!(dec.fits(2, 2).unwrap(), 2);
        assert_eq!(dec.fits(u64::MAX, 0).ok(), usize::try_from(u64::MAX).ok());
        for (count, elem) in [(6, 1), (3, 2), (u64::MAX, 1), (1 << 62, 4), (1 << 60, 8)] {
            corrupt(dec.fits(count, elem).map(drop));
        }
    }

    #[test]
    fn counts_larger_than_the_remaining_bytes_are_corrupt_not_allocated() {
        // Regression: `read_vocab` used to hand an unchecked count to
        // `Vocabulary::with_capacity` and panic with "capacity overflow".
        for count in [1u64 << 60, u64::MAX] {
            let mut buf = Vec::new();
            let mut enc = Encoder::new(&mut buf);
            enc.write_u64(count).unwrap();
            enc.write_str("two").unwrap();
            enc.write_str("words").unwrap();
            let corrupt = |r: CodecResult<()>| match r {
                Err(CodecError::Corrupt(_)) => {}
                other => panic!("count {count}: expected Corrupt, got {other:?}"),
            };
            corrupt(read_vocab(&mut Decoder::new(&buf)).map(drop));
            corrupt(Decoder::new(&buf).read_u32_vec().map(drop));
            corrupt(Decoder::new(&buf).read_str().map(drop));
            // The same count where a corpus keeps its document count.
            let mut corpus = Vec::new();
            let mut enc = Encoder::new(&mut corpus);
            write_vocab(&mut enc, &Vocabulary::new()).unwrap();
            enc.write_bytes(&buf).unwrap();
            corrupt(read_corpus(&mut Decoder::new(&corpus)).map(drop));
        }
    }

    #[test]
    fn slices_crossing_chunk_boundaries_round_trip() {
        let u32s: Vec<u32> =
            (0..CHUNK_ELEMS as u32 * 3 + 7).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut buf = Vec::new();
        {
            let mut enc = Encoder::new(&mut buf);
            enc.write_u32_slice(&u32s).unwrap();
        }
        assert_eq!(Decoder::new(&buf).read_u32_vec().unwrap(), u32s);
    }

    #[test]
    fn absurd_payload_length_is_rejected_without_allocating() {
        let mut file = Vec::new();
        write_framed(&mut file, b"tiny").unwrap();
        // Corrupt the length field (offset 12..20) to claim a 1 TiB payload:
        // the reader must fail on the missing data, not attempt the
        // allocation.
        file[12..20].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(read_framed(&mut file.as_slice()), Err(CodecError::Io(_))));
    }

    #[test]
    fn framed_round_trip() {
        let payload = b"the quick brown fox".to_vec();
        let mut file = Vec::new();
        write_framed(&mut file, &payload).unwrap();
        let back = read_framed(&mut file.as_slice()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn model_section_round_trips_and_is_not_a_checkpoint() {
        let payload = b"frozen phi".to_vec();
        let mut file = Vec::new();
        write_framed_section(&mut file, MODEL_MAGIC, &payload).unwrap();
        let back = read_framed_section(&mut file.as_slice(), MODEL_MAGIC).unwrap();
        assert_eq!(back, payload);
        // A model file must never decode as a checkpoint, nor vice versa.
        assert!(matches!(read_framed(&mut file.as_slice()), Err(CodecError::BadMagic)));
        let mut ckpt = Vec::new();
        write_framed(&mut ckpt, &payload).unwrap();
        assert!(matches!(
            read_framed_section(&mut ckpt.as_slice(), MODEL_MAGIC),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut file = Vec::new();
        write_framed(&mut file, b"x").unwrap();
        file[0] ^= 0xFF;
        assert!(matches!(read_framed(&mut file.as_slice()), Err(CodecError::BadMagic)));
    }

    #[test]
    fn future_version_rejected() {
        let mut file = Vec::new();
        write_framed(&mut file, b"x").unwrap();
        file[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_framed(&mut file.as_slice()),
            Err(CodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn legacy_versions_rejected_with_typed_error() {
        for (legacy, reason) in [
            (1u32, "packed token-record"),
            (2, "per-entity RNG streams"),
            (3, "width-native records"),
            (4, "word-lane checksum"),
            (5, "assignment-only state"),
        ] {
            let mut file = Vec::new();
            write_framed(&mut file, b"x").unwrap();
            file[8..12].copy_from_slice(&legacy.to_le_bytes());
            let err = read_framed(&mut file.as_slice()).unwrap_err();
            assert!(matches!(err, CodecError::LegacyVersion(v) if v == legacy), "{err}");
            assert!(err.to_string().contains(reason), "{err}");
        }
    }

    #[test]
    fn version_zero_is_unknown_not_legacy() {
        // Version 0 never existed: a header claiming it is corruption, and
        // telling the user to "re-save" such a file would be misleading.
        let mut file = Vec::new();
        write_framed(&mut file, b"x").unwrap();
        file[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_framed(&mut file.as_slice()),
            Err(CodecError::UnsupportedVersion(0))
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut file = Vec::new();
        write_framed(&mut file, b"precious model weights").unwrap();
        let last = file.len() - 1;
        file[last] ^= 0x01;
        assert!(matches!(
            read_framed(&mut file.as_slice()),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_is_an_io_error() {
        let mut file = Vec::new();
        write_framed(&mut file, b"0123456789").unwrap();
        file.truncate(file.len() - 4);
        assert!(matches!(read_framed(&mut file.as_slice()), Err(CodecError::Io(_))));
    }

    #[test]
    fn vocab_round_trip() {
        let mut vocab = Vocabulary::new();
        for w in ["alpha", "beta", "gamma", "delta"] {
            vocab.intern(w);
        }
        let mut buf = Vec::new();
        write_vocab(&mut Encoder::new(&mut buf), &vocab).unwrap();
        let back = read_vocab(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.word(0), Some("alpha"));
        assert_eq!(back.get("delta"), Some(3));
    }

    #[test]
    fn corpus_round_trips_and_validates_token_ids() {
        let mut vocab = Vocabulary::new();
        for w in ["sun", "moon", "star"] {
            vocab.intern(w);
        }
        let docs = vec![
            Document::from_tokens(vec![0, 2, 1, 1]),
            Document::from_tokens(vec![]),
            Document::from_tokens(vec![2, 2]),
        ];
        let corpus = Corpus::from_parts(docs, vocab).unwrap();
        let mut buf = Vec::new();
        write_corpus(&mut Encoder::new(&mut buf), &corpus).unwrap();
        let back = read_corpus(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(back.num_docs(), corpus.num_docs());
        assert_eq!(back.vocab_size(), corpus.vocab_size());
        assert_eq!(back.num_tokens(), corpus.num_tokens());
        for (a, b) in back.docs().iter().zip(corpus.docs()) {
            assert_eq!(a.tokens(), b.tokens());
        }
        assert_eq!(back.vocab().word(2), Some("star"));

        // A token id outside the decoded vocabulary is structural corruption.
        let mut vocab = Vocabulary::new();
        vocab.intern("only");
        let corpus = Corpus::from_parts(vec![Document::from_tokens(vec![0, 0])], vocab).unwrap();
        let mut buf = Vec::new();
        write_corpus(&mut Encoder::new(&mut buf), &corpus).unwrap();
        // Patch the single-token doc's first token id (last 8 bytes are the
        // two u32 tokens; flip the final one to an out-of-vocab id).
        let at = buf.len() - 4;
        buf[at..].copy_from_slice(&7u32.to_le_bytes());
        let err = read_corpus(&mut Decoder::new(&buf)).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the tests' golden hashes are taken with it.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// `n` bytes of a fixed pseudo-random stream.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Every size up to 72 (the tail alone, one and two 32-byte blocks with
    /// every tail length), then sizes beside 8- and 32-byte boundaries up to
    /// 4 096.
    fn checked_sizes() -> impl Iterator<Item = usize> {
        let beside = [255, 256, 257, 263, 264, 1_023, 1_024, 1_031, 4_095, 4_096];
        (0..=72).chain(beside)
    }

    #[test]
    fn checksum_is_pinned() {
        // Pinned values: the checksum is part of the on-disk format. The
        // empty payload, a tail alone, one whole block, one block and a
        // tail byte, three blocks and a tail of zeros.
        let fixed: [(&[u8], u64); 5] = [
            (b"", 0x2421_9dd0_fab1_0db5),
            (b"a", 0xaab4_e1ef_7ad1_24dd),
            (b"0123456789abcdef0123456789abcdef", 0xcb03_82ab_586a_a771),
            (b"0123456789abcdef0123456789abcdef!", 0xe4f1_97c3_68ef_8e79),
            (&[0; 100], 0x8943_8115_d6d3_18f5),
        ];
        for (bytes, want) in fixed {
            assert_eq!(
                checksum64(bytes),
                want,
                "{} bytes: {:#018x}",
                bytes.len(),
                checksum64(bytes)
            );
        }
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        for n in checked_sizes() {
            let mut bytes = noise(n);
            let good = checksum64(&bytes);
            for i in 0..n {
                for bit in 0..8 {
                    bytes[i] ^= 1 << bit;
                    assert_ne!(checksum64(&bytes), good, "{n} bytes, byte {i}, bit {bit}");
                    bytes[i] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn checksum_catches_every_truncation_and_appended_zero() {
        for n in checked_sizes() {
            for mut bytes in [noise(n), vec![0; n]] {
                let good = checksum64(&bytes);
                for cut in 0..n {
                    assert_ne!(checksum64(&bytes[..cut]), good, "{n} bytes cut to {cut}");
                }
                bytes.push(0);
                assert_ne!(checksum64(&bytes), good, "{n} bytes and a zero");
            }
        }
    }

    #[test]
    fn the_container_refuses_a_flipped_bit_anywhere_in_the_payload() {
        let payload = noise(100);
        let mut file = Vec::new();
        write_framed(&mut file, &payload).unwrap();
        assert_eq!(file[20..28], checksum64(&payload).to_le_bytes());
        for i in 28..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x80;
            assert!(
                matches!(
                    read_framed(&mut bad.as_slice()),
                    Err(CodecError::ChecksumMismatch { .. })
                ),
                "byte {i}"
            );
        }
    }
}
