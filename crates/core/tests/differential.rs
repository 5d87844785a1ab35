//! One oracle for every WarpLDA driver.
//!
//! The serial [`WarpLda`] is the reference mode. Every other way of running
//! the chain — a thread pool of any size, any partition of the entities
//! across replicas driven through the phase API with record exchange, a
//! checkpoint written by one driver and resumed by another — must reproduce
//! its assignments **and** `c_k` bit for bit after every iteration. A golden
//! hash additionally pins the chain itself across commits.

use std::sync::OnceLock;

use proptest::prelude::*;

use warplda_core::checkpoint::{read_checkpoint, write_checkpoint};
use warplda_core::{Checkpointable, ModelParams, ParallelWarpLda, Sampler, WarpLda, WarpLdaConfig};
use warplda_corpus::io::codec::fnv1a64;
use warplda_corpus::{Corpus, DatasetPreset};

const ITERATIONS: usize = 3;

/// One row of the differential table.
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

/// Small K exercises the dense count path, K above twice the row/column
/// lengths the hash path; M = 1 has a single proposal slot per record.
static TABLE: [Case; 4] = [
    Case { preset: DatasetPreset::Tiny, scale: 4, k: 6, m: 2, seed: 21 },
    Case { preset: DatasetPreset::Tiny, scale: 8, k: 5, m: 1, seed: 11 },
    Case { preset: DatasetPreset::Tiny, scale: 2, k: 300, m: 3, seed: 33 },
    Case { preset: DatasetPreset::NyTimesLike, scale: 200, k: 64, m: 2, seed: 97 },
];

/// `(assignments, c_k)` after each iteration.
type Trajectory = Vec<(Vec<u32>, Vec<u32>)>;

/// The serial trajectory of every table row, computed once.
fn oracle(row: usize) -> &'static Trajectory {
    static ORACLES: OnceLock<Vec<Trajectory>> = OnceLock::new();
    &ORACLES.get_or_init(|| {
        TABLE
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
    for (row, case) in TABLE.iter().enumerate() {
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
    let mut wire = Vec::new();
    for (owner, shard) in shards.iter().enumerate() {
        let entries: Vec<u32> =
            shard.iter().flat_map(|&id| entries_of(&replicas[owner], id)).collect();
        replicas[owner].export_records(&entries, &mut wire);
        for (peer, replica) in replicas.iter_mut().enumerate() {
            if peer != owner {
                replica.import_records(&entries, &wire).expect("a peer's export imports");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_partition_through_the_phase_api_reproduces_the_serial_sampler(
        row in 0usize..TABLE.len(),
        shards in 1usize..6,
        word_owners in prop::collection::vec(0usize..60, 7..97),
        doc_owners in prop::collection::vec(0usize..60, 5..89),
    ) {
        let case = &TABLE[row];
        let corpus = case.corpus();
        let mut replicas: Vec<WarpLda> = (0..shards)
            .map(|_| WarpLda::new(&corpus, case.params(), case.config(), case.seed))
            .collect();
        let words = partition(replicas[0].num_words(), shards, &word_owners);
        let docs = partition(replicas[0].num_docs(), shards, &doc_owners);

        for (z, ck) in oracle(row) {
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
                prop_assert_eq!(&replica.assignments(), z);
                prop_assert_eq!(replica.topic_counts(), &ck[..]);
            }
        }
    }
}

/// FNV-1a over assignments‖`c_k` after 3 iterations of `ParallelWarpLda`
/// (Tiny/4, K = 6, M = 2, seed 21, 3 threads), computed at the commit before
/// the samplers were folded into one. It pins the chain that commit's
/// threaded, sharded and multi-process drivers sampled: nothing since may
/// change a sampled value without changing this constant on purpose.
#[test]
fn the_chain_is_pinned_across_commits() {
    const GOLDEN: u64 = 0xd5f7_b5d9_f92b_f1d3;
    let case = &TABLE[0];
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

/// The in-process drivers of the checkpoint matrix (the multi-process one
/// joins it in `crates/dist/tests/process.rs`).
fn driver(case: &Case, corpus: &Corpus, which: usize, seed: u64) -> Box<dyn Checkpointable> {
    match which {
        0 => Box::new(WarpLda::new(corpus, case.params(), case.config(), seed)),
        1 => Box::new(ParallelWarpLda::new(corpus, case.params(), case.config(), seed, 2)),
        _ => Box::new(ParallelWarpLda::new(corpus, case.params(), case.config(), seed, 3)),
    }
}

#[test]
fn any_driver_resumes_any_drivers_checkpoint_bit_identically() {
    let case = &TABLE[0];
    let corpus = case.corpus();
    let (split, total) = (1, ITERATIONS);
    for writer in 0..3 {
        let mut first = driver(case, &corpus, writer, case.seed);
        for _ in 0..split {
            first.run_iteration();
        }
        assert_eq!(first.checkpoint_kind(), "warplda", "one kind for every driver");
        let mut file = Vec::new();
        write_checkpoint(first.as_ref(), None, &mut file).unwrap();

        for reader in 0..3 {
            // Built under another seed: the checkpoint's governs continuation.
            let mut resumed = driver(case, &corpus, reader, case.seed + 1000);
            read_checkpoint(resumed.as_mut(), &mut file.as_slice()).unwrap();
            assert_eq!(resumed.iterations(), split as u64);
            assert_eq!(resumed.assignments(), oracle(0)[split - 1].0);
            for it in split..total {
                resumed.run_iteration();
                assert_eq!(
                    resumed.assignments(),
                    oracle(0)[it].0,
                    "writer {writer} → reader {reader}, iteration {it}"
                );
            }
        }
    }
}
