//! One oracle for every WarpLDA driver.
//!
//! The serial [`WarpLda`] is the reference mode. Every other way of running
//! the chain — a thread pool of any size, any partition of the entities
//! across replicas driven through the phase API with record exchange, a
//! checkpoint written by one driver and resumed by another — must reproduce
//! its assignments **and** `c_k` bit for bit after every iteration, at every
//! record width (1, 2 and 4 bytes per topic id). A golden hash additionally
//! pins the chain itself across commits.

use std::sync::OnceLock;

use proptest::prelude::*;

use warplda_cachesim::CountingProbe;
use warplda_core::checkpoint::{read_checkpoint, write_checkpoint};
use warplda_core::{
    topic_wire_width, Checkpointable, CollapsedGibbs, FPlusLda, LightLda, LightLdaVariant,
    ModelParams, ParallelWarpLda, Sampler, WarpLda, WarpLdaConfig,
};
use warplda_corpus::io::codec::{fnv1a64, CodecError, MAGIC};
use warplda_corpus::{Corpus, DatasetPreset};

const ITERATIONS: usize = 3;

/// One row of the differential table.
#[derive(Clone, Copy)]
struct Case {
    preset: DatasetPreset,
    scale: usize,
    k: usize,
    m: usize,
    seed: u64,
}

impl Case {
    fn corpus(&self) -> Corpus {
        self.preset.generate_scaled(self.scale)
    }

    fn params(&self) -> ModelParams {
        ModelParams::new(self.k, 0.5, 0.1)
    }

    fn config(&self) -> WarpLdaConfig {
        WarpLdaConfig::with_mh_steps(self.m)
    }
}

/// Small K gives rows and columns holding every topic, K above twice their
/// lengths sparse ones, so few of the dense count vector's slots are touched
/// per visit; M = 1 has a single proposal slot per record.
const BASE: [Case; 4] = [
    Case { preset: DatasetPreset::Tiny, scale: 4, k: 6, m: 2, seed: 21 },
    Case { preset: DatasetPreset::Tiny, scale: 8, k: 5, m: 1, seed: 11 },
    Case { preset: DatasetPreset::Tiny, scale: 2, k: 300, m: 3, seed: 33 },
    Case { preset: DatasetPreset::NyTimesLike, scale: 200, k: 64, m: 2, seed: 97 },
];

/// One K per record width: topic ids of 1, 2 and 4 bytes.
const WIDTH_KS: [usize; 3] = [6, 300, 70_000];

/// The base rows, then every base row again at each K of [`WIDTH_KS`] it is
/// not already at — so each corpus shape and M runs through the width-generic
/// kernels at all three widths.
fn table() -> &'static [Case] {
    static TABLE: OnceLock<Vec<Case>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let widened =
            BASE.iter().flat_map(|case| WIDTH_KS.iter().map(move |&k| Case { k, ..*case })).filter(
                |case| !BASE.iter().any(|b| (b.scale, b.k, b.m) == (case.scale, case.k, case.m)),
            );
        BASE.iter().copied().chain(widened).collect()
    })
}

/// `(assignments, c_k)` after each iteration.
type Trajectory = Vec<(Vec<u32>, Vec<u32>)>;

/// The serial trajectory of every table row, computed once.
fn oracle(row: usize) -> &'static Trajectory {
    static ORACLES: OnceLock<Vec<Trajectory>> = OnceLock::new();
    &ORACLES.get_or_init(|| {
        table()
            .iter()
            .map(|case| {
                let mut serial =
                    WarpLda::new(&case.corpus(), case.params(), case.config(), case.seed);
                (0..ITERATIONS)
                    .map(|_| {
                        serial.run_iteration();
                        (serial.assignments(), serial.topic_counts().to_vec())
                    })
                    .collect()
            })
            .collect()
    })[row]
}

#[test]
fn every_thread_count_reproduces_the_serial_sampler() {
    for (row, case) in table().iter().enumerate() {
        let corpus = case.corpus();
        for threads in [1usize, 2, 3, 8] {
            let mut parallel =
                ParallelWarpLda::new(&corpus, case.params(), case.config(), case.seed, threads);
            for (it, (z, ck)) in oracle(row).iter().enumerate() {
                parallel.run_iteration();
                assert_eq!(&parallel.assignments(), z, "row {row}, {threads} threads, iter {it}");
                assert_eq!(parallel.topic_counts(), &ck[..], "row {row}, {threads} threads: c_k");
            }
        }
    }
}

/// Runs one phase of the distributed protocol in process: every replica
/// advances its own shard, the partial `c_k` are summed, every replica ships
/// the records of the entities it owns to every other one, and all install
/// the merged counts.
fn exchange_phase(
    replicas: &mut [WarpLda],
    shards: &[Vec<u32>],
    entries_of: impl Fn(&WarpLda, u32) -> Vec<u32>,
    run: impl Fn(&mut WarpLda, &[u32], &mut [u32]),
) {
    let k = replicas[0].topic_counts().len();
    let mut merged = vec![0u32; k];
    let mut partial = vec![0u32; k];
    for (replica, shard) in replicas.iter_mut().zip(shards) {
        run(replica, shard, &mut partial);
        merged.iter_mut().zip(&partial).for_each(|(m, p)| *m += p);
    }
    let width = topic_wire_width(k);
    let mut wire = Vec::new();
    for (owner, shard) in shards.iter().enumerate() {
        let entries: Vec<u32> =
            shard.iter().flat_map(|&id| entries_of(&replicas[owner], id)).collect();
        wire.clear();
        replicas[owner].export_records_packed(&entries, &mut wire);
        for (peer, replica) in replicas.iter_mut().enumerate() {
            if peer != owner {
                replica
                    .import_records_packed(&entries, width, &wire)
                    .expect("a peer's export imports");
            }
        }
    }
    for replica in replicas.iter_mut() {
        replica.install_topic_counts(&merged);
    }
}

/// Splits `0..n` into `shards` lists by cycling through the drawn owners.
fn partition(n: usize, shards: usize, owners: &[usize]) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); shards];
    for id in 0..n {
        lists[owners[id % owners.len()] % shards].push(id as u32);
    }
    lists
}

/// Drives `shards` replicas of table row `row` through the phase API under
/// the given ownership and compares every replica with the serial oracle
/// after every iteration.
fn phase_api_reproduces_the_oracle(
    row: usize,
    shards: usize,
    word_owners: &[usize],
    doc_owners: &[usize],
) -> Result<(), String> {
    let case = &table()[row];
    let corpus = case.corpus();
    let mut replicas: Vec<WarpLda> = (0..shards)
        .map(|_| WarpLda::new(&corpus, case.params(), case.config(), case.seed))
        .collect();
    let words = partition(replicas[0].num_words(), shards, word_owners);
    let docs = partition(replicas[0].num_docs(), shards, doc_owners);

    for (it, (z, ck)) in oracle(row).iter().enumerate() {
        exchange_phase(
            &mut replicas,
            &words,
            |s, w| s.col_entry_range(w).map(|e| e as u32).collect(),
            |s, shard, partial| s.run_word_phase_shard(shard, partial),
        );
        exchange_phase(
            &mut replicas,
            &docs,
            |s, d| s.row_entry_ids(d).to_vec(),
            |s, shard, partial| s.run_doc_phase_shard(shard, partial),
        );
        for replica in &mut replicas {
            replica.advance_iteration();
            if &replica.assignments() != z || replica.topic_counts() != &ck[..] {
                return Err(format!("row {row}, {shards} shards: diverged in iteration {it}"));
            }
        }
    }
    Ok(())
}

#[test]
fn the_phase_api_reproduces_the_serial_sampler_on_every_row() {
    for row in 0..table().len() {
        phase_api_reproduces_the_oracle(row, 3, &[0, 1, 2, 1], &[2, 0, 1]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_partition_through_the_phase_api_reproduces_the_serial_sampler(
        row in 0usize..table().len(),
        shards in 1usize..6,
        word_owners in prop::collection::vec(0usize..60, 7..97),
        doc_owners in prop::collection::vec(0usize..60, 5..89),
    ) {
        let outcome = phase_api_reproduces_the_oracle(row, shards, &word_owners, &doc_owners);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

/// FNV-1a over assignments‖`c_k` after 3 iterations of `ParallelWarpLda`
/// (Tiny/4, K = 6, M = 2, seed 21, 3 threads). Computed at the commit that
/// moved the chain on purpose in four ways at once: the acceptance form
/// (multiply-and-select instead of a ratio and a branch), the RNG schedule
/// (one uniform per MH step, drawn whether or not `t == z`), the proposal
/// draws (one 64-bit word each: mixture coin plus exact Lemire index) and
/// the initial state (one pass, two topics per word). The constant before
/// it, `0xd5f7b5d9f92bf1d3`, had pinned the chain since the commit before
/// the samplers were folded into one. Nothing may change a sampled value
/// without changing this constant on purpose.
#[test]
fn the_chain_is_pinned_across_commits() {
    const GOLDEN: u64 = 0x01c6_8b0f_027a_24b0;
    let case = &table()[0];
    let mut s = ParallelWarpLda::new(&case.corpus(), case.params(), case.config(), case.seed, 3);
    for _ in 0..3 {
        s.run_iteration();
    }
    let bytes: Vec<u8> =
        s.assignments().iter().chain(s.topic_counts()).flat_map(|t| t.to_le_bytes()).collect();
    assert_eq!(fnv1a64(&bytes), GOLDEN, "got {:#018x}", fnv1a64(&bytes));
    // And the serial oracle is that same chain.
    assert_eq!(s.assignments(), oracle(0)[2].0);
}

/// The reference samplers' chains, pinned like WarpLDA's: table row 0's
/// corpus and seed, 3 iterations, the FNV-1a hash of the assignments. The
/// probed samplers also pin the probe's `(reads, writes)`, which feed the
/// Table 4 experiment. A change that only moves where a baseline reads its
/// doc ranges or word occurrences from must leave every value alone.
#[test]
fn baseline_chains_are_pinned_across_commits() {
    let case = &table()[0];
    let (corpus, params, seed) = (case.corpus(), ModelParams::new(6, 0.5, 0.1), case.seed);
    let light = |m: u32, variant: LightLdaVariant| {
        LightLda::with_variant_and_probe(&corpus, params, m, seed, variant, CountingProbe::new())
    };
    let mut cgs = CollapsedGibbs::new(&corpus, params, seed);
    let mut fplus = FPlusLda::with_probe(&corpus, params, seed, CountingProbe::new());
    let mut lights = [
        light(1, LightLdaVariant::standard()),
        light(4, LightLdaVariant::standard()),
        light(1, LightLdaVariant::delayed_word()),
        light(1, LightLdaVariant::delayed_word_doc()),
        light(1, LightLdaVariant::warp_like()),
    ];
    let hash = |s: &mut dyn Sampler| {
        for _ in 0..3 {
            s.run_iteration();
        }
        let bytes: Vec<u8> = s.assignments().iter().flat_map(|t| t.to_le_bytes()).collect();
        fnv1a64(&bytes)
    };
    let mut got = vec![(hash(&mut cgs), None), (hash(&mut fplus), Some(fplus.probe().totals()))];
    for s in &mut lights {
        got.push((hash(s), Some(s.probe().totals())));
    }
    let want = [
        (0xb621_268f_1124_4f52, None),
        (0xd38c_2cf3_05e4_74d0, Some((102_495, 33_606))),
        (0x8086_0d26_6940_4c25, Some((33_606, 33_606))),
        (0x8aa2_6cd4_83b0_4356, Some((134_424, 33_606))),
        (0xe5bb_5ed4_a387_7663, Some((33_606, 33_606))),
        (0xd89c_21e6_407d_0296, Some((33_606, 33_606))),
        (0xe93f_1aa0_5d46_3876, Some((33_606, 33_606))),
    ];
    let names = ["CGS", "F+LDA", "LightLDA M=1", "LightLDA M=4", "+DW", "+DW+DD", "+DW+DD+SP"];
    for ((name, (hash, totals)), want) in names.iter().zip(&got).zip(want) {
        assert_eq!((*hash, *totals), want, "{name}: got {hash:#018x}, {totals:?}");
    }
}

/// The in-process drivers of the checkpoint matrix (the multi-process one
/// joins it in `crates/dist/tests/process.rs`).
fn driver(case: &Case, corpus: &Corpus, which: usize, seed: u64) -> Box<dyn Checkpointable> {
    match which {
        0 => Box::new(WarpLda::new(corpus, case.params(), case.config(), seed)),
        1 => Box::new(ParallelWarpLda::new(corpus, case.params(), case.config(), seed, 2)),
        _ => Box::new(ParallelWarpLda::new(corpus, case.params(), case.config(), seed, 3)),
    }
}

/// Table row 0 at K = `k`, and its serial trajectory.
fn row0_at(k: usize) -> (Case, &'static Trajectory) {
    let row = table().iter().position(|c| (c.scale, c.k, c.m) == (4, k, 2)).expect("in the table");
    (table()[row], oracle(row))
}

#[test]
fn any_driver_resumes_any_drivers_checkpoint_bit_identically_at_every_width() {
    for k in WIDTH_KS {
        let (case, oracle) = row0_at(k);
        let corpus = case.corpus();
        let (split, total) = (1, ITERATIONS);
        for writer in 0..3 {
            let mut first = driver(&case, &corpus, writer, case.seed);
            for _ in 0..split {
                first.run_iteration();
            }
            assert_eq!(first.checkpoint_kind(), "warplda", "one kind for every driver");
            let mut file = Vec::new();
            write_checkpoint(first.as_ref(), None, &mut file).unwrap();
            assert_eq!(&file[8..12], &4u32.to_le_bytes(), "container format version");

            for reader in 0..3 {
                // Built under another seed: the checkpoint's governs continuation.
                let mut resumed = driver(&case, &corpus, reader, case.seed + 1000);
                read_checkpoint(resumed.as_mut(), &mut file.as_slice()).unwrap();
                assert_eq!(resumed.iterations(), split as u64);
                assert_eq!(resumed.assignments(), oracle[split - 1].0);
                for (it, (z, _)) in oracle.iter().enumerate().take(total).skip(split) {
                    resumed.run_iteration();
                    assert_eq!(
                        &resumed.assignments(),
                        z,
                        "K = {k}, writer {writer} → reader {reader}, iteration {it}"
                    );
                }
            }
        }
    }
}

/// Re-frames `payload` as a checkpoint file with a valid checksum, so only
/// the payload's content can be what a reader objects to.
fn reframe(payload: &[u8], version: u32) -> Vec<u8> {
    let mut file = MAGIC.to_vec();
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    file.extend_from_slice(payload);
    file
}

#[test]
fn a_checkpoint_is_the_records_at_their_width_and_damage_is_typed_and_harmless() {
    const HEADER: usize = 28;
    let mut sizes = Vec::new();
    for k in WIDTH_KS {
        let (case, _) = row0_at(k);
        let corpus = case.corpus();
        let width = topic_wire_width(k);
        let mut writer = WarpLda::new(&corpus, case.params(), case.config(), case.seed);
        writer.run_iteration();
        let mut file = Vec::new();
        write_checkpoint(&writer, None, &mut file).unwrap();
        sizes.push(file.len());

        // Payload: kind, K, α, β, seed, iteration, M, hash flag, then the
        // record section `width:u8, n:u64, n × width bytes` — the sampler's
        // buffer, byte for byte.
        let payload = &file[HEADER..];
        let width_at = (8 + "warplda".len()) + 3 * 8 + 2 * 8 + 8 + 1;
        let ids = writer.num_entries() * writer.stride();
        assert_eq!(payload[width_at] as usize, width);
        assert_eq!(payload[width_at + 1..width_at + 9], (ids as u64).to_le_bytes());
        let records_at = width_at + 9;
        assert_eq!(&payload[records_at..records_at + ids * width], writer.records_bytes());

        let mut reader = WarpLda::new(&corpus, case.params(), case.config(), case.seed + 1);
        let untouched = (reader.records_bytes().to_vec(), reader.topic_counts().to_vec());
        let mut refuse = |file: &[u8], what: &str| {
            let err = read_checkpoint(&mut reader, &mut &file[..]).unwrap_err();
            assert_eq!(reader.records_bytes(), &untouched.0[..], "{what}: records changed");
            assert_eq!(reader.topic_counts(), &untouched.1[..], "{what}: c_k changed");
            assert_eq!((reader.iterations(), reader.seed()), (0, case.seed + 1), "{what}");
            err
        };

        // The previous format is refused by version, whatever it holds.
        let err = refuse(&reframe(payload, 3), "v3");
        assert!(matches!(err, CodecError::LegacyVersion(3)), "{err}");

        // A width byte that disagrees with topic_wire_width(K).
        let mut damaged = payload.to_vec();
        damaged[width_at] = if width == 4 { 2 } else { 2 * width as u8 };
        let err = refuse(&reframe(&damaged, 4), "width");
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");

        // A short record section: the count says one id fewer.
        let mut damaged = payload.to_vec();
        damaged[width_at + 1..width_at + 9].copy_from_slice(&(ids as u64 - 1).to_le_bytes());
        let err = refuse(&reframe(&damaged, 4), "length");
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");

        // A topic id ≥ K in the last record.
        let mut damaged = payload.to_vec();
        let last = records_at + (ids - 1) * width;
        damaged[last..last + width].copy_from_slice(&(k as u32).to_le_bytes()[..width]);
        let err = refuse(&reframe(&damaged, 4), "topic range");
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");

        // And the undamaged file still loads into that same sampler.
        read_checkpoint(&mut reader, &mut file.as_slice()).unwrap();
        assert_eq!(reader.assignments(), writer.assignments());
    }
    // Same corpus, same M: the files differ by the record width alone
    // (and the K-slot c_k).
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
}
