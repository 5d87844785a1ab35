//! Binary checkpoint persistence for a resumable WarpLDA run.
//!
//! Built on the framed codec of [`warplda_corpus::io::codec`] (magic number,
//! format version, checksum), this module defines what it means for a
//! sampler to be resumable:
//!
//! * [`Checkpointable`] — a [`Sampler`] that can write its complete
//!   resumable state into an [`Encoder`] and adopt it from a [`Decoder`], the
//!   workspace's bounds-checked cursor over a byte slice. The state is one
//!   serialized form with one reader: the section a checkpoint file holds is,
//!   byte for byte, what a process cluster's coordinator sends a worker that
//!   must rejoin an iteration boundary, and both are adopted by
//!   [`read_state`](Checkpointable::read_state) where they lie — in the
//!   file's payload or the socket's frame buffer — with one copy, into the
//!   sampler.
//!   WarpLDA is what checkpoints: [`WarpLda`](crate::WarpLda) and
//!   [`ParallelWarpLda`](crate::ParallelWarpLda) implement the trait (a
//!   process cluster saves and resumes through its coordinator replica, a
//!   `WarpLda`). Every checkpoint file opens with the one kind string
//!   `"warplda"`, which this module writes and checks, so every driver's
//!   file is the same kind by construction. Restoration is
//!   **bit-identical** under every driver: a run that is saved, loaded into a
//!   freshly constructed sampler — serial, threaded or a cluster's replica —
//!   and continued produces exactly the same assignments as an uninterrupted
//!   run. The three baselines are comparators and are not checkpointed.
//! * [`save_checkpoint`] / [`load_checkpoint`] — one-file persistence of a
//!   sampler plus (optionally) the corpus [`Vocabulary`], so a checkpoint can
//!   be inspected (top words per topic) without the original corpus files.
//!
//! There is no sampler-independent snapshot beside the checkpoint: a trained
//! *model* for downstream consumers is the `WLDAMODL` file of
//! `warplda_serve::TopicModel` (counts + vocabulary).
//!
//! A checkpoint can only be loaded into a sampler constructed over the same
//! corpus with the same hyper-parameters and configuration; every mismatch
//! the payload can reveal (kind, topic count, token count, MH steps, …) is
//! rejected with [`CodecError::Corrupt`] rather than silently producing a
//! broken model.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use warplda_corpus::io::codec::{
    read_framed, write_framed, CodecError, CodecResult, Decoder, Encoder,
};
use warplda_corpus::Vocabulary;

use crate::params::ModelParams;
use crate::sampler::Sampler;

/// A sampler whose complete resumable state can be persisted.
///
/// Implementations write everything their `run_iteration` depends on that the
/// constructor does not deterministically rebuild: the seed every RNG stream
/// is derived from, the iteration counter, the per-token assignments and the
/// delayed topic counts — WarpLDA's state is `(seed, iteration, z, c_k)`.
/// What is a function of those is *not* persisted but derived on reading:
/// the pending MH proposals, which the last doc phase drew from
/// `(seed, iteration, z)` (the initializer, at iteration 0), and the alias
/// tables, which every visit rebuilds.
pub trait Checkpointable: Sampler {
    /// Writes the resumable state into `enc`.
    fn write_state(&self, enc: &mut Encoder<'_>) -> CodecResult<()>;

    /// Restores state previously written by
    /// [`write_state`](Self::write_state) into a sampler constructed over the
    /// same corpus with the same parameters and configuration. The bytes may
    /// come from a file or a socket: everything is validated before anything
    /// is adopted, and a rejected state leaves the sampler unchanged.
    fn read_state(&mut self, dec: &mut Decoder<'_>) -> CodecResult<()>;
}

/// The kind string every checkpoint opens with. WarpLDA is the one sampler
/// that checkpoints, so there is one kind; [`read_checkpoint`] refuses a file
/// of any other (a baseline's file from before baselines stopped
/// checkpointing).
const CHECKPOINT_KIND: &str = "warplda";

/// Writes `params` through an encoder.
pub fn write_model_params(enc: &mut Encoder<'_>, params: &ModelParams) -> CodecResult<()> {
    enc.write_usize(params.num_topics)?;
    enc.write_f64(params.alpha)?;
    enc.write_f64(params.beta)
}

/// Reads [`ModelParams`] previously written by [`write_model_params`].
pub fn read_model_params(dec: &mut Decoder<'_>) -> CodecResult<ModelParams> {
    let num_topics = dec.read_usize()?;
    let alpha = dec.read_f64()?;
    let beta = dec.read_f64()?;
    if num_topics == 0 || !alpha.is_finite() || !beta.is_finite() || alpha <= 0.0 || beta <= 0.0 {
        return Err(CodecError::Corrupt(format!(
            "invalid model parameters: K = {num_topics}, alpha = {alpha}, beta = {beta}"
        )));
    }
    Ok(ModelParams::new(num_topics, alpha, beta))
}

fn check_params_match(found: &ModelParams, expected: &ModelParams) -> CodecResult<()> {
    if found.num_topics != expected.num_topics
        || found.alpha.to_bits() != expected.alpha.to_bits()
        || found.beta.to_bits() != expected.beta.to_bits()
    {
        return Err(CodecError::Corrupt(format!(
            "checkpoint parameters (K = {}, alpha = {}, beta = {}) do not match the sampler \
             (K = {}, alpha = {}, beta = {})",
            found.num_topics,
            found.alpha,
            found.beta,
            expected.num_topics,
            expected.alpha,
            expected.beta,
        )));
    }
    Ok(())
}

/// Serializes `sampler` (and optionally the corpus vocabulary) as one framed
/// checkpoint into `w`.
pub fn write_checkpoint<C: Checkpointable + ?Sized>(
    sampler: &C,
    vocab: Option<&Vocabulary>,
    w: &mut dyn Write,
) -> CodecResult<()> {
    let mut payload = Vec::new();
    {
        let mut enc = Encoder::new(&mut payload);
        enc.write_str(CHECKPOINT_KIND)?;
        write_model_params(&mut enc, sampler.params())?;
        sampler.write_state(&mut enc)?;
        match vocab {
            Some(v) => {
                enc.write_bool(true)?;
                warplda_corpus::io::codec::write_vocab(&mut enc, v)?;
            }
            None => enc.write_bool(false)?,
        }
    }
    write_framed(w, &payload)
}

/// Restores `sampler` from a framed checkpoint read from `r`; returns the
/// embedded vocabulary when one was saved.
pub fn read_checkpoint(
    sampler: &mut dyn Checkpointable,
    r: &mut dyn Read,
) -> CodecResult<Option<Vocabulary>> {
    let payload = read_framed(r)?;
    let mut dec = Decoder::new(&payload);
    let kind = dec.read_str()?;
    if kind != CHECKPOINT_KIND {
        return Err(CodecError::Corrupt(format!(
            "checkpoint holds a {kind:?} sampler, cannot load into {CHECKPOINT_KIND:?}"
        )));
    }
    let params = read_model_params(&mut dec)?;
    check_params_match(&params, sampler.params())?;
    sampler.read_state(&mut dec)?;
    let vocab = if dec.read_bool()? {
        Some(warplda_corpus::io::codec::read_vocab(&mut dec)?)
    } else {
        None
    };
    dec.finish()?;
    Ok(vocab)
}

/// Saves `sampler` (and optionally the vocabulary) to `path`, creating parent
/// directories as needed. The write is crash-safe
/// ([`warplda_corpus::io::atomic_write`]): a crash or I/O error mid-save
/// leaves any previous checkpoint at `path` intact, and a reader can never
/// observe a torn file.
pub fn save_checkpoint<C: Checkpointable + ?Sized>(
    sampler: &C,
    vocab: Option<&Vocabulary>,
    path: &Path,
) -> CodecResult<()> {
    warplda_corpus::io::atomic_write(path, |w| write_checkpoint(sampler, vocab, w))
}

/// Loads the checkpoint at `path` into `sampler`; returns the embedded
/// vocabulary when one was saved.
pub fn load_checkpoint(
    sampler: &mut dyn Checkpointable,
    path: &Path,
) -> CodecResult<Option<Vocabulary>> {
    let mut r = BufReader::new(File::open(path)?);
    read_checkpoint(sampler, &mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{WarpLda, WarpLdaConfig};
    use warplda_corpus::{Corpus, CorpusBuilder, DatasetPreset};

    fn tiny() -> Corpus {
        let mut b = CorpusBuilder::new();
        for _ in 0..10 {
            b.push_text_doc(["sun", "moon", "star", "sun"]);
            b.push_text_doc(["leaf", "tree", "root", "leaf"]);
        }
        b.build().unwrap()
    }

    fn rejected(buf: &[u8], target: &mut WarpLda) {
        let err = read_checkpoint(target, &mut &buf[..]).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let corpus = tiny();
        let params = ModelParams::new(4, 0.5, 0.1);
        // A well-framed checkpoint of another kind, e.g. a baseline's file
        // written before baselines stopped checkpointing.
        let mut payload = Vec::new();
        let mut enc = Encoder::new(&mut payload);
        enc.write_str("cgs").unwrap();
        write_model_params(&mut enc, &params).unwrap();
        let mut buf = Vec::new();
        write_framed(&mut buf, &payload).unwrap();
        rejected(&buf, &mut WarpLda::new(&corpus, params, WarpLdaConfig::default(), 1));
    }

    #[test]
    fn params_mismatch_is_rejected() {
        let corpus = tiny();
        let config = WarpLdaConfig::default();
        let a = WarpLda::new(&corpus, ModelParams::new(4, 0.5, 0.1), config, 1);
        let mut buf = Vec::new();
        write_checkpoint(&a, None, &mut buf).unwrap();
        rejected(&buf, &mut WarpLda::new(&corpus, ModelParams::new(5, 0.5, 0.1), config, 1));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let corpus = tiny();
        let fresh = || WarpLda::new(&corpus, ModelParams::new(4, 0.5, 0.1), Default::default(), 1);
        let mut buf = Vec::new();
        write_checkpoint(&fresh(), Some(corpus.vocab()), &mut buf).unwrap();
        // One byte past the vocabulary, re-framed under a valid checksum.
        let mut payload = read_framed(&mut buf.as_slice()).unwrap();
        payload.push(0);
        let mut bad = Vec::new();
        write_framed(&mut bad, &payload).unwrap();
        rejected(&bad, &mut fresh());
    }

    #[test]
    fn wrong_corpus_shape_is_rejected() {
        let corpus = tiny();
        let params = ModelParams::new(4, 0.5, 0.1);
        let a = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 1);
        let mut buf = Vec::new();
        write_checkpoint(&a, None, &mut buf).unwrap();
        let bigger = DatasetPreset::Tiny.generate_scaled(4);
        rejected(&buf, &mut WarpLda::new(&bigger, params, WarpLdaConfig::default(), 1));
    }
}
