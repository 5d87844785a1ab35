//! Serialization round-trips through the binary checkpoint codec: a WarpLDA
//! checkpoint saves and reloads losslessly, corrupted files are rejected by
//! the framed container (magic + version + checksum), and a saved WarpLDA run
//! — serial and parallel — continues bit-identically to an uninterrupted one
//! (the any-writer → any-reader matrix across drivers is in
//! `crates/core/tests/differential.rs`). The UCI text format round-trips are
//! retained from the original suite.

use warplda::corpus::io::codec::{
    write_framed_section, write_vocab, CodecError, Encoder, MAGIC, MODEL_MAGIC,
};
use warplda::corpus::io::{read_uci_bag_of_words, write_uci_bag_of_words};
use warplda::lda::checkpoint::{read_checkpoint, write_checkpoint};
use warplda::prelude::*;

fn corpus() -> Corpus {
    DatasetPreset::Tiny.generate_scaled(4)
}

/// Trains a sampler, saves it, loads the checkpoint into a fresh one built
/// with a *different* seed (the checkpoint must fully determine the restored
/// state), and asserts the reload is lossless: assignments, iteration counter
/// and likelihood all identical.
#[test]
fn warplda_checkpoint_round_trip_is_lossless() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut sampler = WarpLda::new(&corpus, params, config, 7);
    let mut fresh = WarpLda::new(&corpus, params, config, 99);
    let trainer = Trainer::new(&corpus);
    trainer.train(&TrainerConfig::sampling_only(5), "warplda", &mut sampler);

    let mut buf = Vec::new();
    write_checkpoint(&sampler, Some(corpus.vocab()), &mut buf).expect("checkpoint writes");
    let vocab = read_checkpoint(&mut fresh, &mut buf.as_slice()).expect("checkpoint reads");
    assert_eq!(vocab.expect("vocab embedded").len(), corpus.vocab_size());

    assert_eq!(fresh.iterations(), 5);
    assert_eq!(fresh.assignments(), sampler.assignments());
    let ll_a = sampler.log_likelihood(&corpus, trainer.doc_view(), trainer.word_view());
    let ll_b = fresh.log_likelihood(&corpus, trainer.doc_view(), trainer.word_view());
    assert_eq!(ll_a.to_bits(), ll_b.to_bits(), "{ll_a} vs {ll_b}");
}

#[test]
fn corrupted_checkpoints_are_rejected() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(6);
    let sampler = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 3);
    let mut buf = Vec::new();
    write_checkpoint(&sampler, None, &mut buf).expect("checkpoint writes");

    // A flipped magic byte: not recognized as a checkpoint at all.
    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    let mut target = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 3);
    assert!(matches!(
        read_checkpoint(&mut target, &mut bad_magic.as_slice()),
        Err(CodecError::BadMagic)
    ));

    // A flipped payload bit: caught by the checksum.
    let mut bad_payload = buf.clone();
    let last = bad_payload.len() - 1;
    bad_payload[last] ^= 0x01;
    assert!(matches!(
        read_checkpoint(&mut target, &mut bad_payload.as_slice()),
        Err(CodecError::ChecksumMismatch { .. })
    ));

    // A truncated file: short read.
    let mut truncated = buf.clone();
    truncated.truncate(truncated.len() / 2);
    assert!(matches!(
        read_checkpoint(&mut target, &mut truncated.as_slice()),
        Err(CodecError::Io(_))
    ));

    // An unknown future format version.
    let mut future = buf.clone();
    future[8..12].copy_from_slice(&42u32.to_le_bytes());
    assert!(matches!(
        read_checkpoint(&mut target, &mut future.as_slice()),
        Err(CodecError::UnsupportedVersion(42))
    ));

    // Legacy files — v1 (split assignment/proposal arrays), v2 (serial
    // checkpoints continuing from a saved sequential RNG state) and v3
    // (records as a `u32` array): rejected with the dedicated typed error,
    // not misread.
    for version in [1u32, 2, 3] {
        let mut legacy = buf.clone();
        legacy[8..12].copy_from_slice(&version.to_le_bytes());
        let err = read_checkpoint(&mut target, &mut legacy.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::LegacyVersion(v) if v == version), "{err}");
    }

    // Damage the container cannot see, because the checksum was recomputed
    // over it: a vocabulary that announces more words than the payload holds.
    // The payload's own reader refuses it, in a checkpoint and in a serving
    // model alike. (Regression: the count used to reach
    // `Vocabulary::with_capacity` unchecked and panic with "capacity
    // overflow".)
    let mut with_vocab = Vec::new();
    write_checkpoint(&sampler, Some(corpus.vocab()), &mut with_vocab).expect("checkpoint writes");
    let mut model = Vec::new();
    TopicModel::freeze_sampler(&sampler, &corpus).write(&mut model).expect("model writes");
    let mut vocab = Vec::new();
    write_vocab(&mut Encoder::new(&mut vocab), corpus.vocab()).expect("vocabulary encodes");
    for count in [1u64 << 60, u64::MAX, corpus.vocab_size() as u64 + 1] {
        // The vocabulary is the tail of both payloads; its count comes first.
        let reframed = |file: &[u8], magic| {
            let mut payload = file[28..].to_vec();
            let at = payload.len() - vocab.len();
            payload[at..at + 8].copy_from_slice(&count.to_le_bytes());
            let mut out = Vec::new();
            write_framed_section(&mut out, magic, &payload).expect("frames");
            out
        };
        let err = read_checkpoint(&mut target, &mut reframed(&with_vocab, MAGIC).as_slice())
            .expect_err("a checkpoint cannot hold that many words");
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        let err = TopicModel::read(&mut reframed(&model, MODEL_MAGIC).as_slice())
            .expect_err("a model cannot hold that many words");
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    // None of the rejections left the target partially overwritten in a way
    // that breaks it: it still runs.
    target.run_iteration();
}

/// Save → load → continue must equal an uninterrupted run *bit for bit*.
fn assert_resume_is_bit_identical<S: Checkpointable>(
    corpus: &Corpus,
    make: impl Fn(u64) -> S,
    split: usize,
    total: usize,
) {
    let trainer = Trainer::new(corpus);

    // The uninterrupted reference run.
    let mut continuous = make(11);
    trainer.train(&TrainerConfig::sampling_only(total), "continuous", &mut continuous);

    // The interrupted run: train to `split`, checkpoint, reload into a fresh
    // sampler (different seed — the checkpoint must carry the seed), continue.
    let mut first_half = make(11);
    trainer.train(&TrainerConfig::sampling_only(split), "first-half", &mut first_half);
    let mut buf = Vec::new();
    write_checkpoint(&first_half, None, &mut buf).expect("checkpoint writes");

    let mut resumed = make(1234);
    read_checkpoint(&mut resumed, &mut buf.as_slice()).expect("checkpoint reads");
    assert_eq!(resumed.assignments(), first_half.assignments());
    trainer.train(&TrainerConfig::sampling_only(total - split), "second-half", &mut resumed);

    assert_eq!(resumed.iterations(), continuous.iterations());
    assert_eq!(
        resumed.assignments(),
        continuous.assignments(),
        "resumed run must match the uninterrupted run bit for bit"
    );
}

#[test]
fn serial_warplda_resume_equals_continuous_run() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    assert_resume_is_bit_identical(
        &corpus,
        |seed| WarpLda::new(&corpus, params, config, seed),
        4,
        9,
    );
}

#[test]
fn parallel_warplda_resume_equals_continuous_run() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    assert_resume_is_bit_identical(
        &corpus,
        |seed| ParallelWarpLda::new(&corpus, params, config, seed, 3),
        3,
        7,
    );
}

#[test]
fn checkpoint_files_round_trip_on_disk() {
    let corpus = corpus();
    let params = ModelParams::paper_defaults(6);
    let dir = std::env::temp_dir().join(format!("warplda-ckpt-test-{}", std::process::id()));
    let path = dir.join("nested/run.ckpt");

    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 5);
    sampler.run_iteration();
    save_checkpoint(&sampler, Some(corpus.vocab()), &path).expect("file saves");

    let mut fresh = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 500);
    let vocab = load_checkpoint(&mut fresh, &path).expect("file loads");
    assert_eq!(fresh.assignments(), sampler.assignments());
    assert_eq!(vocab.expect("vocab embedded").len(), corpus.vocab_size());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn uci_format_round_trips_counts_exactly() {
    let corpus = corpus();
    let mut buf = Vec::new();
    write_uci_bag_of_words(&corpus, &mut buf).unwrap();
    let reread = read_uci_bag_of_words(buf.as_slice(), None).unwrap();
    assert_eq!(reread.num_docs(), corpus.num_docs());
    assert_eq!(reread.num_tokens(), corpus.num_tokens());
    assert_eq!(reread.vocab_size(), corpus.vocab_size());
    assert_eq!(reread.term_frequencies(), corpus.term_frequencies());
    // Per-document token multisets are preserved (order may differ).
    for (d, doc) in corpus.iter() {
        let mut a = doc.tokens().to_vec();
        let mut b = reread.doc(d).unwrap().tokens().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "document {d}");
    }
}

#[test]
fn synthetic_generation_is_reproducible_across_processes() {
    // The same preset and seed must always generate the identical corpus —
    // this is what makes every ledger row and benchmark workload reproducible.
    let a = DatasetPreset::PubMedLike.generate_scaled(50);
    let b = DatasetPreset::PubMedLike.generate_scaled(50);
    assert_eq!(a.num_tokens(), b.num_tokens());
    assert_eq!(a.term_frequencies(), b.term_frequencies());
    let sa = a.stats();
    let sb = b.stats();
    assert_eq!(sa, sb);
}
