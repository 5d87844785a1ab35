//! Real multi-process distributed training, differentially tested against the
//! serial sampler.
//!
//! [`ProcessCluster`] spawns genuine `warplda-dist-worker` OS processes and
//! exchanges deltas over loopback TCP; the serial [`WarpLda`] — the reference
//! mode of every driver — advances the same model without any wire. Because
//! a visit's randomness derives from per-entity RNG streams and partial `c_k`
//! merge by commutative integer sums, the two must agree **bit-for-bit** after
//! every iteration —
//! assignments, global topic counts and therefore perplexity. These tests
//! enforce that, plus the cluster's row and column of the checkpoint matrix
//! (any driver resumes any driver's checkpoint, under any worker count) and
//! typed (non-hanging) failure on worker death.
//!
//! The fault-tolerance half drives the same differential argument through
//! scripted failures: a worker killed or hung mid-iteration is detected
//! (child exit / heartbeat silence), respawned from the coordinator's
//! replica, and the retried iteration replays bit-identically —
//! so the *final* model after recovery equals the fault-free oracle's
//! exactly. With recovery disabled, the same faults surface as fast typed
//! errors, and a dropped cluster never leaves zombie worker processes.
//!
//! The wire half pins the exchange's arithmetic: the bytes a healthy
//! iteration reports are a closed form of the plan, `K` and `M`, identical
//! from run to run, and are what the `Trainer` records for a cluster it
//! drives.
//!
//! The suite lives in the crate that owns the worker binary so that cargo
//! builds exactly the binary under test and hands over its path: no test
//! here depends on what an earlier build left in `target/`.

use std::time::Duration;

use warplda_core::checkpoint::{read_checkpoint, write_checkpoint};
use warplda_core::eval::{log_joint_likelihood, perplexity_per_token};
use warplda_core::{
    Checkpointable, ModelParams, ParallelWarpLda, Sampler, TrainDriver, Trainer, TrainerConfig,
    WarpLda, WarpLdaConfig,
};
use warplda_corpus::{Corpus, DatasetPreset, DocMajorView, WordMajorView};
use warplda_dist::process::validate_delta;
use warplda_dist::{DistError, FaultPhase, FaultPlan, ProcessCluster, ProcessClusterConfig};

fn process_config(workers: usize) -> ProcessClusterConfig {
    let mut cfg = ProcessClusterConfig::new(workers);
    cfg.worker_binary = Some(env!("CARGO_BIN_EXE_warplda-dist-worker").into());
    // CI boxes are slow but a minute is still far beyond any healthy
    // exchange on a loopback socket.
    cfg.io_timeout = Duration::from_secs(60);
    cfg
}

/// Per-iteration differential run: multi-process vs. serial.
fn assert_backends_agree(
    corpus: &Corpus,
    num_topics: usize,
    workers: usize,
    iters: u64,
    seed: u64,
) {
    let params = ModelParams::paper_defaults(num_topics);
    let config = WarpLdaConfig::with_mh_steps(2);
    let doc_view = DocMajorView::build(corpus);
    let word_view = WordMajorView::build(corpus, &doc_view);

    let mut cluster = ProcessCluster::new(corpus, params, config, seed, process_config(workers))
        .expect("spawn cluster");
    let mut serial = WarpLda::new(corpus, params, config, seed);

    for iter in 1..=iters {
        cluster.run_iteration().expect("distributed iteration");
        assert_eq!(cluster.iterations(), iter);
        serial.run_iteration();

        let z = cluster.assignments();
        assert_eq!(z, serial.assignments(), "iteration {iter}, {workers} workers: serial");
        assert_eq!(
            cluster.topic_counts(),
            serial.topic_counts(),
            "iteration {iter}, {workers} workers: c_k"
        );

        let ll = log_joint_likelihood(corpus, &doc_view, &word_view, &params, &z);
        let ll_serial =
            log_joint_likelihood(corpus, &doc_view, &word_view, &params, &serial.assignments());
        let ppl = perplexity_per_token(ll, corpus.num_tokens()).unwrap();
        let ppl_serial = perplexity_per_token(ll_serial, corpus.num_tokens()).unwrap();
        assert_eq!(
            ppl.to_bits(),
            ppl_serial.to_bits(),
            "iteration {iter}, {workers} workers: perplexity bits"
        );
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn multi_process_training_matches_the_oracles_on_tiny() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    for workers in [1usize, 2, 4] {
        assert_backends_agree(&corpus, 12, workers, 5, 41);
    }
}

#[test]
fn multi_process_training_matches_the_oracles_on_nytimes_like() {
    let corpus = DatasetPreset::NyTimesLike.generate_scaled(60);
    for workers in [2usize, 4] {
        assert_backends_agree(&corpus, 16, workers, 5, 97);
    }
}

/// The cluster's row and column of the checkpoint matrix (the in-process
/// drivers' any-writer → any-reader block is in `warplda-core`'s
/// `differential` suite): a checkpoint of the coordinator replica resumes
/// under every in-process driver, and every driver's checkpoint — the
/// cluster's own included — resumes under `ProcessCluster::from_sampler`
/// with a different worker count. The serial, threaded and cluster files of
/// one boundary are one file, byte for byte (a state is the assignments, and
/// the replica's stale diagonal proposals are not in it); every read
/// re-derives the serial writer's records, proposals included; continuation
/// is bit-identical to the uninterrupted serial run either way.
#[test]
fn cluster_checkpoints_resume_anywhere_and_any_checkpoint_resumes_on_a_cluster() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let config = WarpLdaConfig::with_mh_steps(2);
    let seed = 23;
    let (split, total) = (3, 6);

    // The uninterrupted serial run is the oracle for the whole span.
    let mut oracle = WarpLda::new(&corpus, params, config, seed);
    for _ in 0..total {
        oracle.run_iteration();
    }

    // One checkpoint at `split` per writer.
    let mut serial = WarpLda::new(&corpus, params, config, seed);
    let mut parallel = ParallelWarpLda::new(&corpus, params, config, seed, 3);
    let mut cluster =
        ProcessCluster::new(&corpus, params, config, seed, process_config(2)).expect("spawn");
    for _ in 0..split {
        serial.run_iteration();
        parallel.run_iteration();
        cluster.run_iteration().expect("iteration");
    }
    let writers: [(&str, &dyn Checkpointable); 3] =
        [("serial", &serial), ("parallel(3)", &parallel), ("cluster(2)", cluster.sampler())];
    let mut files: Vec<(&str, Vec<u8>)> = writers
        .iter()
        .map(|&(name, writer)| {
            let mut file = Vec::new();
            write_checkpoint(writer, None, &mut file).expect("checkpoint writes");
            (name, file)
        })
        .collect();
    cluster.shutdown().expect("shutdown");
    for (name, file) in &files[1..] {
        assert!(file == &files[0].1, "{name}'s file is not the serial writer's");
    }

    // The fourth writer: a cluster the Trainer drives to `split`, saving its
    // replica at a cadence; its last file is the one resumed below. Every
    // step of it is healthy, so each record's bytes are the plan's closed
    // form.
    let dir = std::env::temp_dir().join(format!("warplda-cluster-ckpt-{}", std::process::id()));
    let mut driven =
        ProcessCluster::new(&corpus, params, config, seed, process_config(3)).expect("spawn");
    let schedule = TrainerConfig::sampling_only(split as usize).checkpoint_into(&dir, 2);
    let outcome = Trainer::new(&corpus)
        .train_checkpointed(&schedule, "cluster", &mut driven, None)
        .expect("a healthy cluster trains under the Trainer");
    let wire_bytes = driven.plan().iteration_wire_bytes(params.num_topics, config.mh_steps);
    for record in outcome.log.records() {
        assert_eq!(record.bytes_exchanged, wire_bytes, "iteration {}", record.iteration);
        assert_eq!(record.recoveries, 0, "iteration {}", record.iteration);
    }
    assert_eq!(outcome.checkpoints.len(), 2, "iterations 2 and {split}");
    let last = outcome.checkpoints.last().expect("the final iteration is saved");
    files.push(("Trainer-driven cluster(3)", std::fs::read(last).expect("checkpoint file")));
    driven.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Every file resumes on a cluster of a worker count nobody wrote with.
    // The replica is built under another seed: the checkpoint's governs.
    for (workers, (name, file)) in [4usize, 1, 3, 2].into_iter().zip(&files) {
        let mut replica = WarpLda::new(&corpus, params, config, seed + 1);
        read_checkpoint(&mut replica, &mut file.as_slice()).expect("checkpoint reads");
        assert_eq!(replica.iterations(), split);
        assert!(replica.records_bytes() == serial.records_bytes(), "{name}: records read back");
        let mut resumed = ProcessCluster::from_sampler(&corpus, replica, process_config(workers))
            .expect("respawn");
        for _ in split..total {
            resumed.run_iteration().expect("iteration");
        }
        assert_eq!(resumed.assignments(), oracle.assignments(), "{name} → cluster({workers})");
        assert_eq!(resumed.topic_counts(), oracle.topic_counts(), "{name} → cluster({workers})");
        resumed.shutdown().expect("shutdown");
    }

    // The cluster's file resumes under the in-process drivers, each read
    // re-deriving the serial writer's records.
    let cluster_file = &files[2].1;
    let mut reader = WarpLda::new(&corpus, params, config, seed + 1);
    read_checkpoint(&mut reader, &mut cluster_file.as_slice()).expect("checkpoint reads");
    assert!(reader.records_bytes() == serial.records_bytes(), "cluster(2) → serial: records");
    let mut parallel_reader = ParallelWarpLda::new(&corpus, params, config, seed + 1, 2);
    read_checkpoint(&mut parallel_reader, &mut cluster_file.as_slice()).expect("checkpoint reads");
    assert!(
        parallel_reader.records_bytes() == serial.records_bytes(),
        "cluster(2) → parallel(2): records"
    );
    let readers: [(&str, &mut dyn Sampler); 2] =
        [("serial", &mut reader), ("parallel(2)", &mut parallel_reader)];
    for (name, reader) in readers {
        for _ in split..total {
            reader.run_iteration();
        }
        assert_eq!(reader.assignments(), oracle.assignments(), "cluster(2) → {name}");
    }
}

/// `bytes_exchanged` of a healthy iteration is arithmetic: one `RunIteration`
/// per worker plus, per phase, every worker's delta and sync frame — spelled
/// out here byte by byte from the plan's segment lengths, for every worker
/// count and every record width. A segment to a peer carries `M + 1` ids per
/// entry, an own segment one. Two clusters of one seed report the same.
#[test]
fn healthy_iterations_exchange_exactly_the_closed_form_byte_count() {
    let corpus = DatasetPreset::Tiny.generate_scaled(4);
    let config = WarpLdaConfig::with_mh_steps(2);
    let stride = config.mh_steps as u64 + 1;
    for (k, width) in [(6usize, 1u64), (300, 2), (70_000, 4)] {
        let params = ModelParams::paper_defaults(k);
        for workers in 1usize..=4 {
            let mut reported = Vec::new();
            for _ in 0..2 {
                let mut cluster =
                    ProcessCluster::new(&corpus, params, config, 13, process_config(workers))
                        .expect("spawn cluster");
                let plan = cluster.plan().clone();
                let counts = 8 + 4 * k as u64; // K, then K × u32
                let topics = |ids: u64| 1 + 8 + ids * width;
                let mut expected = workers as u64 * (4 + 1 + 8); // RunIteration{epoch}
                for phase in [&plan.word, &plan.doc] {
                    for i in 0..workers {
                        let own = phase.segment(i, i).len() as u64;
                        let to_peers = phase.delta_entries[i].len() as u64 - own;
                        let delta = topics(to_peers * stride + own);
                        expected += 4 + (1 + 4 + 8) + counts + delta;
                        let sync = topics(phase.sync_len(i) as u64 * stride);
                        expected += 4 + (1 + 8) + counts + sync;
                    }
                }
                assert_eq!(plan.iteration_wire_bytes(k, config.mh_steps), expected);
                // Up: the cross-owner entries, then everything. Down: the
                // cross-owner entries, twice.
                let cross = cluster.grid().tokens_exchanged_per_phase_switch();
                let up: usize = [&plan.word, &plan.doc]
                    .iter()
                    .flat_map(|p| &p.delta_entries)
                    .map(Vec::len)
                    .sum();
                assert_eq!(up as u64, cross + corpus.num_tokens());
                for _ in 0..3 {
                    let report = cluster.run_iteration().expect("healthy iteration");
                    assert_eq!(report.bytes_exchanged, expected, "K = {k}, {workers} workers");
                    reported.push(report.bytes_exchanged);
                }
                cluster.shutdown().expect("clean shutdown");
            }
            assert!(reported.windows(2).all(|w| w[0] == w[1]), "{reported:?}");
        }
    }
}

#[test]
fn a_missing_worker_binary_is_a_typed_error_naming_the_build_command() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let mut cfg = process_config(2);
    cfg.worker_binary = Some("/nonexistent/warplda-dist-worker".into());
    let err = ProcessCluster::new(
        &corpus,
        ModelParams::paper_defaults(4),
        WarpLdaConfig::default(),
        1,
        cfg,
    )
    .err()
    .expect("no worker binary, no cluster");
    match &err {
        DistError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other}"),
    }
    let message = err.to_string();
    assert!(
        message.contains("cargo build --release -p warplda-dist --bin warplda-dist-worker"),
        "{message}"
    );
}

/// A replica of another corpus is refused with a typed error before a worker
/// is spawned: the binary here does not exist, so anything that got as far as
/// spawning would fail with `NotFound` instead. Same `T` with other rows (the
/// first iteration used to fail only after the recovery budget was spent on a
/// healthy worker), other columns under the same rows, and another `T` (which
/// used to panic while building the plan).
#[test]
fn a_replica_of_another_corpus_is_a_typed_error_before_any_worker_spawns() {
    let corpus =
        Corpus::from_token_docs(vec![vec![0, 1, 2, 3, 4, 5], vec![0, 1], vec![2, 3, 4, 5]]);
    let others = [
        vec![vec![0, 1, 2, 3], vec![4, 5, 0, 1], vec![2, 3, 4, 5]],
        vec![vec![0, 0, 0, 3, 4, 5], vec![1, 1], vec![2, 3, 4, 5]],
        vec![vec![0, 1, 2, 3, 4, 5], vec![0, 1], vec![2, 3, 4]],
    ];
    let params = ModelParams::paper_defaults(4);
    for docs in others {
        let replica = WarpLda::new(
            &Corpus::from_token_docs(docs.clone()),
            params,
            WarpLdaConfig::default(),
            1,
        );
        let mut cfg = process_config(2);
        cfg.worker_binary = Some("/nonexistent/warplda-dist-worker".into());
        match ProcessCluster::from_sampler(&corpus, replica, cfg).err() {
            Some(DistError::Protocol(message)) => {
                assert!(message.contains("not a sampler of the corpus"), "{docs:?}: {message}")
            }
            Some(other) => panic!("{docs:?}: expected a protocol error, got {other}"),
            None => panic!("{docs:?}: a replica of another corpus was accepted"),
        }
    }
}

/// The exchange plan keeps a two-byte document owner per entry, so a cluster
/// has 1 to 65 536 workers; other counts are refused before any spawn.
#[test]
fn worker_counts_outside_one_to_65536_are_typed_errors() {
    let corpus = DatasetPreset::Tiny.generate_scaled(16);
    for workers in [0, (1 << 16) + 1] {
        let mut cfg = process_config(workers);
        cfg.worker_binary = Some("/nonexistent/warplda-dist-worker".into());
        let params = ModelParams::paper_defaults(4);
        match ProcessCluster::new(&corpus, params, WarpLdaConfig::default(), 1, cfg).err() {
            Some(DistError::Protocol(message)) => assert!(message.contains("65 536"), "{message}"),
            other => panic!("{workers} workers: expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn killed_worker_surfaces_as_a_typed_error_not_a_hang() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut cfg = process_config(2);
    // Tight bound: the error must arrive fast, not after a long timeout.
    cfg.io_timeout = Duration::from_secs(10);
    // Recovery off: this test asserts the *typed error* path.
    cfg.max_recoveries = 0;
    let mut cluster = ProcessCluster::new(&corpus, params, config, 7, cfg).expect("spawn");
    cluster.run_iteration().expect("healthy iteration");

    cluster.kill_worker(1);
    let start = std::time::Instant::now();
    let err = cluster.run_iteration().expect_err("iteration with a dead worker must fail");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "failure took {:?} — the coordinator hung instead of failing fast",
        start.elapsed()
    );
    match err {
        DistError::WorkerFailed { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerFailed, got {other}"),
    }
}

/// Trains `iters` iterations under `plan` through the [`Trainer`], asserting
/// that every scripted fault auto-recovers, that the records count each
/// recovery once and put the plan's closed form on the wire in every healthy
/// iteration, and that the final model — assignments, `c_k`, likelihood — is
/// bit-identical to a fault-free serial [`WarpLda`] run of the same seed.
fn assert_recovery_is_bit_identical(
    workers: usize,
    plan: FaultPlan,
    iters: usize,
    expected_recoveries: u64,
) {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let config = WarpLdaConfig::with_mh_steps(2);
    let seed = 71;

    let mut cfg = process_config(workers);
    // Keep hang detection quick so the hang tests don't dominate the suite.
    cfg.liveness_timeout = Duration::from_secs(2);
    cfg.fault_plan = plan;
    let mut cluster =
        ProcessCluster::new(&corpus, params, config, seed, cfg).expect("spawn cluster");
    let mut oracle = WarpLda::new(&corpus, params, config, seed);
    // Evaluated once, after the last iteration.
    let schedule = TrainerConfig::new(iters).eval_every(0);
    let trainer = Trainer::new(&corpus);
    let log = trainer
        .train_checkpointed(&schedule, "cluster", &mut cluster, None)
        .expect("iterations must survive scripted faults")
        .log;
    let oracle_log = trainer.train(&schedule, &mut oracle);

    assert_eq!(cluster.recoveries(), expected_recoveries, "{workers} workers: recovery counter");
    let recorded: u64 = log.records().iter().map(|r| u64::from(r.recoveries)).sum();
    assert_eq!(recorded, expected_recoveries, "{workers} workers: per-record counters");
    let wire_bytes = cluster.plan().iteration_wire_bytes(params.num_topics, config.mh_steps);
    for record in log.records().iter().filter(|r| r.recoveries == 0) {
        assert_eq!(record.bytes_exchanged, wire_bytes, "healthy iteration {}", record.iteration);
    }

    assert_eq!(
        cluster.assignments(),
        oracle.assignments(),
        "{workers} workers: assignments after recovery"
    );
    assert_eq!(cluster.topic_counts(), oracle.topic_counts(), "{workers} workers: c_k");
    assert_eq!(
        log.final_ll().to_bits(),
        oracle_log.final_ll().to_bits(),
        "{workers} workers: likelihood bits"
    );
    cluster.shutdown().expect("clean shutdown after recovery");
}

#[test]
fn killed_worker_recovers_bit_identically() {
    for workers in [2usize, 4] {
        // Worker 1 exits abruptly at the start of iteration 2's word phase.
        let plan = FaultPlan::new().crash(1, 2, FaultPhase::Word);
        assert_recovery_is_bit_identical(workers, plan, 4, 1);
    }
}

/// Two workers crash at the start of the same phase of one iteration: one
/// restart of every worker recovers both, and the replay runs with neither
/// crash.
#[test]
fn two_workers_crashing_in_one_phase_recover_with_one_restart() {
    for workers in [2usize, 4] {
        let plan = FaultPlan::new().crash(1, 2, FaultPhase::Word).crash(0, 2, FaultPhase::Word);
        assert_recovery_is_bit_identical(workers, plan, 4, 1);
    }
}

/// The replica is the snapshot: a failed attempt leaves no mark on it, so
/// after a worker dies *past the word boundary* of iteration 3 the
/// coordinator still holds exactly the state after iteration 2 — with
/// recovery disabled, so nothing could have rolled it back — and with
/// recovery enabled the same crash ends bit-identical to a fault-free run.
#[test]
fn a_worker_killed_after_the_word_boundary_leaves_the_replica_at_the_last_iteration_boundary() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let config = WarpLdaConfig::with_mh_steps(2);
    let plan = FaultPlan::new().crash(1, 3, FaultPhase::Doc);

    let mut cfg = process_config(2);
    cfg.max_recoveries = 0;
    cfg.fault_plan = plan.clone();
    let mut cluster = ProcessCluster::new(&corpus, params, config, 71, cfg).expect("spawn");
    let mut oracle = WarpLda::new(&corpus, params, config, 71);
    for _ in 0..2 {
        cluster.run_iteration().expect("healthy iteration");
        oracle.run_iteration();
    }
    match cluster.run_iteration().expect_err("worker 1 dies in iteration 3's doc phase") {
        DistError::WorkerFailed { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerFailed, got {other}"),
    }
    assert_eq!(cluster.iterations(), 2);
    assert_eq!(cluster.assignments(), oracle.assignments(), "replica after the failed attempt");
    assert_eq!(cluster.topic_counts(), oracle.topic_counts());
    drop(cluster);

    assert_recovery_is_bit_identical(2, plan, 4, 1);
}

/// A delta whose *forwarded* segment, or whose own segment of bare
/// assignments, carries an out-of-range topic is the sender's failure —
/// caught by the coordinator before a byte is routed or imported, not by
/// the peer that would have imported it — and, like every other defect of a
/// delta, leaves the replica and the `c_k` merge untouched.
#[test]
fn a_poisoned_forwarded_segment_is_blamed_on_its_sender() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let (k, config, seed) = (10usize, WarpLdaConfig::with_mh_steps(2), 7);
    let params = ModelParams::paper_defaults(k);
    let cluster =
        ProcessCluster::new(&corpus, params, config, seed, process_config(2)).expect("spawn");
    let (replica, plan) = (cluster.sampler(), cluster.plan());

    let sender = 1;
    let mut worker = WarpLda::new(&corpus, params, config, seed);
    let mut partial = vec![0u32; k];
    for phase in [FaultPhase::Word, FaultPhase::Doc] {
        // Worker 1's delta, built by the function the worker binary builds
        // it with.
        match phase {
            FaultPhase::Word => {
                worker.run_word_phase_shard(&plan.owned_words[sender], &mut partial)
            }
            FaultPhase::Doc => worker.run_doc_phase_shard(&plan.owned_docs[sender], &mut partial),
        }
        let exchange = plan.phase(phase);
        let mut frame = Vec::new();
        exchange.encode_delta(&worker, sender, 0, &partial, &mut frame);
        let ids = exchange.delta_ids(sender, worker.stride());

        let mut merged = vec![0u32; k];
        let records = validate_delta(replica, plan, phase, sender, 0, &frame[4..], &mut merged)
            .expect("the honest delta validates");
        assert_eq!(records.len(), ids);
        assert_eq!(merged, partial);

        // Poison one topic (K = 10 travels at one byte per id): after the
        // word phase in the segment addressed to worker 0, after the doc
        // phase in the last assignment of the own segment.
        let at = match phase {
            FaultPhase::Word => {
                let to_peer = exchange.segment(sender, 0);
                assert!(!to_peer.is_empty(), "worker 1 has records for worker 0");
                to_peer.start * worker.stride()
            }
            FaultPhase::Doc => {
                let own = exchange.segment(sender, sender);
                assert!(!own.is_empty(), "worker 1 has diagonal tokens");
                assert_eq!(own.start * worker.stride() + own.len(), ids, "the own segment is last");
                ids - 1
            }
        };
        let before = (replica.records_bytes().to_vec(), replica.topic_counts().to_vec());
        let at = frame.len() - ids + at;
        frame[at] = k as u8;
        merged.fill(0);
        match validate_delta(replica, plan, phase, sender, 0, &frame[4..], &mut merged) {
            Err(DistError::WorkerFailed { worker, message }) => {
                assert_eq!(worker as usize, sender, "{phase:?}");
                assert!(message.contains("out of range"), "{phase:?}: {message}");
            }
            other => panic!("{phase:?}: expected WorkerFailed, got {other:?}"),
        }
        assert!(merged.iter().all(|&c| c == 0), "{phase:?}: a rejected delta reached the merge");
        assert_eq!(before.0, replica.records_bytes(), "{phase:?}");
        assert_eq!(before.1, replica.topic_counts(), "{phase:?}");
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn hung_worker_is_detected_by_heartbeat_timeout_and_recovers_bit_identically() {
    for workers in [2usize, 4] {
        // Worker 0 stops heartbeating and stalls mid-iteration-3; the stall
        // far outlives the liveness timeout, so only heartbeat-based
        // detection (not a child-exit check) can catch it.
        let plan = FaultPlan::new().hang(0, 3, FaultPhase::Doc, 600_000);
        assert_recovery_is_bit_identical(workers, plan, 4, 1);
    }
}

#[test]
fn corrupt_and_truncated_deltas_trigger_recovery() {
    // Worker 1 flips bits in its iteration-2 word delta (a typed decode
    // failure on the coordinator), and worker 0 truncates its iteration-3
    // doc delta mid-frame then exits. Both recover; the final model is
    // still exact.
    let plan = FaultPlan::new().corrupt_delta(1, 2, FaultPhase::Word).truncate_delta(
        0,
        3,
        FaultPhase::Doc,
    );
    assert_recovery_is_bit_identical(2, plan, 4, 2);
}

#[test]
fn delayed_but_heartbeating_worker_is_not_declared_hung() {
    // Worker 1 stalls for 3 s — longer than the 1 s liveness timeout — but
    // keeps heartbeating. A correct supervisor rides it out: no recovery.
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut cfg = process_config(2);
    cfg.liveness_timeout = Duration::from_secs(1);
    cfg.fault_plan = FaultPlan::new().delay(1, 2, FaultPhase::Word, 3_000);
    let mut cluster = ProcessCluster::new(&corpus, params, config, 5, cfg).expect("spawn");
    let mut oracle = WarpLda::new(&corpus, params, config, 5);
    for _ in 0..3 {
        cluster.run_iteration().expect("a slow worker is not a dead worker");
        oracle.run_iteration();
    }
    assert_eq!(cluster.recoveries(), 0, "a heartbeating worker must never be recovered");
    assert_eq!(cluster.assignments(), oracle.assignments());
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn hung_worker_with_recovery_disabled_is_a_typed_hang_error() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(8);
    let config = WarpLdaConfig::with_mh_steps(2);
    let mut cfg = process_config(2);
    cfg.max_recoveries = 0;
    cfg.liveness_timeout = Duration::from_secs(1);
    cfg.fault_plan = FaultPlan::new().hang(1, 1, FaultPhase::Doc, 600_000);
    let mut cluster = ProcessCluster::new(&corpus, params, config, 9, cfg).expect("spawn");

    let start = std::time::Instant::now();
    let err = cluster.run_iteration().expect_err("hang with recovery disabled must fail");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "hang detection took {:?} — liveness is not working",
        start.elapsed()
    );
    match err {
        DistError::WorkerHung { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerHung, got {other}"),
    }

    // Satellite check: dropping the cluster mid-iteration (worker 1 is
    // alive-but-hung, worker 0 is blocked awaiting a sync) kills and reaps
    // every child — no zombies, no orphans.
    let pids = cluster.worker_pids();
    assert_eq!(pids.len(), 2);
    drop(cluster);
    for pid in pids {
        assert!(
            !process_is_live_or_zombie(pid),
            "worker pid {pid} still present after the cluster was dropped"
        );
    }
}

/// True when `/proc/<pid>` still names a live or zombie `warplda-dist-worker`
/// process. PID recycling is handled by checking the command name.
fn process_is_live_or_zombie(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/comm")) {
        Ok(comm) => comm.trim_end().starts_with("warplda-dist-w"),
        Err(_) => false,
    }
}

#[test]
fn malformed_delta_payloads_are_rejected_with_typed_codec_errors() {
    use warplda_corpus::io::codec::CodecError;
    use warplda_dist::protocol::{decode_message, encode_message, Delta, Message};

    let delta = Message::WordDelta(Delta {
        worker_id: 0,
        epoch: 1,
        records: vec![1, 2, 3],
        partial_ck: vec![4, 5],
    });
    let mut bytes = encode_message(&delta);
    // Truncating the payload mid-vector must be a typed decode error.
    bytes.truncate(bytes.len() - 3);
    assert!(decode_message(&bytes).is_err());

    // Unknown message tag.
    let mut unknown = encode_message(&Message::Shutdown);
    unknown[0] = 0xEE;
    match decode_message(&unknown) {
        Err(CodecError::Corrupt(msg)) => assert!(msg.contains("tag"), "unexpected: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A structurally valid delta whose records don't match the plan's entry
    // list (wrong length / out-of-range topic) is rejected by the replica.
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let mut sampler =
        WarpLda::new(&corpus, ModelParams::paper_defaults(6), WarpLdaConfig::default(), 3);
    let entries = [0u32, 1];
    assert!(sampler.import_records_packed(&entries, 1, &[0u8; 5]).is_err(), "wrong length");
    let bad_topic = vec![6u8; 2 * (WarpLdaConfig::default().mh_steps + 1)];
    assert!(sampler.import_records_packed(&entries, 1, &bad_topic).is_err(), "topic out of range");
}

#[test]
fn truncated_frames_and_oversized_prefixes_are_typed_wire_errors() {
    use warplda_net::{FrameBuffer, WireError};

    // A frame cut mid-payload is Malformed, not a hang or a panic.
    let mut buf = FrameBuffer::new(64);
    let mut frame = 8u32.to_le_bytes().to_vec();
    frame.extend_from_slice(&[1, 2, 3]); // promises 8 bytes, delivers 3
    let mut cursor = std::io::Cursor::new(frame);
    match buf.read_frame(&mut cursor) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("mid-frame")),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // An oversized length prefix is rejected before any buffering.
    let mut buf = FrameBuffer::with_max_frame(64, 1024);
    let huge = (u32::MAX).to_le_bytes();
    let mut cursor = std::io::Cursor::new(huge.to_vec());
    match buf.read_frame(&mut cursor) {
        Err(WireError::FrameTooLarge { len, limit }) => {
            assert_eq!(len, u32::MAX);
            assert_eq!(limit, 1024);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}
