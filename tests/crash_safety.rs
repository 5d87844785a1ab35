//! Crash-safe persistence: every artifact save (checkpoints, frozen serving
//! models) goes through `warplda_corpus::io::atomic_write` — temp file in the
//! target directory, flush + fsync, atomic rename. These tests script a
//! crash at a precise write via the fail-Nth-write injection hook and assert
//! the three atomicity guarantees: the previous artifact is untouched, no
//! temp debris is left behind, and a half-written artifact never becomes
//! visible under the target name.

use std::path::Path;

use warplda::corpus::io::atomic::{disarm_write_faults, fail_nth_write};
use warplda::prelude::*;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("warplda-crash-safety-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Any leftover `.tmp-` artifacts in `dir`.
fn temp_debris(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp-"))
        .collect()
}

#[test]
fn interrupted_checkpoint_save_never_corrupts_the_previous_checkpoint() {
    let dir = scratch_dir("ckpt");
    let path = dir.join("training.ckpt");
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 17);
    sampler.run_iteration();

    // A good checkpoint exists.
    save_checkpoint(&sampler, Some(corpus.vocab()), &path).expect("initial save");
    let good_bytes = std::fs::read(&path).expect("read good checkpoint");

    // Training advances, then the next save dies mid-write — at an early
    // write (headers) and at a later one (payload), the guarantees hold.
    // The framed container is five writes: magic, version, length, checksum,
    // payload. Kill the first (nothing on disk yet), a header in the middle,
    // and the payload itself (temp file holds a believable prefix).
    sampler.run_iteration();
    for n in [1u64, 3, 5] {
        fail_nth_write(n);
        let err = save_checkpoint(&sampler, Some(corpus.vocab()), &path)
            .expect_err("injected write fault must abort the save");
        assert!(err.to_string().contains("injected"), "unexpected error: {err}");
        disarm_write_faults();

        assert_eq!(
            std::fs::read(&path).expect("checkpoint still readable"),
            good_bytes,
            "failing save (n = {n}) must leave the previous checkpoint untouched"
        );
        assert_eq!(temp_debris(&dir), Vec::<String>::new(), "temp debris after n = {n}");
    }

    // The original still loads, and a retry with the fault gone replaces it.
    let mut reloaded = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 17);
    load_checkpoint(&mut reloaded, &path).expect("previous checkpoint loads");
    assert_eq!(reloaded.iterations(), 1);

    save_checkpoint(&sampler, Some(corpus.vocab()), &path).expect("retry succeeds");
    let mut latest = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 17);
    load_checkpoint(&mut latest, &path).expect("new checkpoint loads");
    assert_eq!(latest.iterations(), 2);
    assert_eq!(latest.assignments(), sampler.assignments());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn half_written_model_never_becomes_visible() {
    let dir = scratch_dir("model");
    let path = dir.join("frozen.model");
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let mut sampler =
        WarpLda::new(&corpus, ModelParams::paper_defaults(8), WarpLdaConfig::default(), 3);
    sampler.run_iteration();
    let model = TopicModel::freeze_sampler(&sampler, &corpus);

    // No previous artifact: a save that dies mid-write must leave *nothing*
    // visible — a reader can never observe a readable-but-corrupt model.
    fail_nth_write(2);
    model.save(&path).expect_err("injected write fault must abort the save");
    disarm_write_faults();
    assert!(!path.exists(), "half-written model became visible");
    assert_eq!(temp_debris(&dir), Vec::<String>::new());
    assert!(TopicModel::load(&path).is_err(), "nothing to load after an aborted save");

    // The retry publishes a complete, loadable model.
    model.save(&path).expect("retry succeeds");
    let loaded = TopicModel::load(&path).expect("complete model loads");
    assert_eq!(loaded.num_topics(), model.num_topics());

    let _ = std::fs::remove_dir_all(&dir);
}
