//! Property-based tests (proptest) on the core data structures, on the
//! sampler invariants (counts match assignments, determinism across drivers
//! and partitions) and on every reader of bytes from outside the program.

use proptest::prelude::*;

use warplda::cachesim::{MemoryProbe, NoProbe};
use warplda::lda::counts::{DenseCounts, HashCounts, TopicCounts};
use warplda::prelude::*;
use warplda::sampling::{new_rng, AliasBuildScratch, AliasTable, FTree, SparseAliasTable};
use warplda::sparse::{imbalance_index, partition_by_size, TokenMatrix};

// ---------------------------------------------------------------------------
// Alias table: empirical frequencies match the target distribution.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alias_table_matches_weights(weights in prop::collection::vec(0.0f64..10.0, 1..30), seed in 0u64..1000) {
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 1e-6);
        let table = AliasTable::new(&weights);
        let mut rng = new_rng(seed);
        let draws = 30_000;
        let mut counts = vec![0u32; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / draws as f64;
            prop_assert!((observed - expected).abs() < 0.05,
                "outcome {}: observed {} expected {}", i, observed, expected);
            if w == 0.0 {
                prop_assert_eq!(counts[i], 0, "zero-weight outcome sampled");
            }
        }
    }

    #[test]
    fn sparse_alias_rebuild_matches_fresh_build(
        tables in prop::collection::vec(
            prop::collection::vec((0u32..500, 0.0f64..10.0), 1..40), 1..6),
        seed in 0u64..1000,
    ) {
        // Rebuilding one table in place across a sequence of differently
        // sized distributions (the WarpLDA word-phase pattern) must draw
        // exactly what a freshly constructed table draws.
        let mut scratch = AliasBuildScratch::new();
        let mut reused = SparseAliasTable::with_capacity(1);
        for entries in &tables {
            reused.rebuild(entries, &mut scratch);
            let fresh = SparseAliasTable::new(entries);
            prop_assert_eq!(reused.len(), fresh.len());
            prop_assert_eq!(reused.total_weight().to_bits(), fresh.total_weight().to_bits());
            let mut r1 = new_rng(seed);
            let mut r2 = new_rng(seed);
            for _ in 0..500 {
                prop_assert_eq!(reused.sample(&mut r1), fresh.sample(&mut r2));
            }
        }
    }

    #[test]
    fn alias_probabilities_reconstruct_weights(weights in prop::collection::vec(0.0f64..5.0, 1..50)) {
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 1e-6);
        let table = AliasTable::new(&weights);
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            let p = table.probability(i);
            prop_assert!((p - w / total).abs() < 1e-9);
            acc += p;
        }
        prop_assert!((acc - 1.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// F+ tree: totals and prefix sums always equal the naive computation, under
// arbitrary sequences of point updates.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ftree_tracks_naive_sums(
        initial in prop::collection::vec(0.0f64..10.0, 1..40),
        updates in prop::collection::vec((0usize..40, 0.0f64..10.0), 0..60),
    ) {
        let mut tree = FTree::new(&initial);
        let mut naive = initial.clone();
        for (idx, value) in updates {
            let idx = idx % naive.len();
            tree.set(idx, value);
            naive[idx] = value;
        }
        let naive_total: f64 = naive.iter().sum();
        prop_assert!((tree.total() - naive_total).abs() < 1e-9);
        let mut acc = 0.0;
        for (i, &v) in naive.iter().enumerate() {
            acc += v;
            prop_assert!((tree.prefix_sum(i) - acc).abs() < 1e-9);
            prop_assert!((tree.weight(i) - v).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Count vectors behave like a reference HashMap model.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_vectors_match_reference(ops in prop::collection::vec((0u32..200, prop::bool::ANY), 0..400)) {
        let mut hash = HashCounts::with_expected(8, 100_000);
        let mut dense = DenseCounts::new(200);
        let mut reference = std::collections::HashMap::<u32, u32>::new();
        for (topic, inc) in ops {
            if inc {
                hash.increment(topic);
                dense.increment(topic);
                *reference.entry(topic).or_default() += 1;
            } else if reference.get(&topic).copied().unwrap_or(0) > 0 {
                hash.decrement(topic);
                dense.decrement(topic);
                *reference.get_mut(&topic).unwrap() -= 1;
            }
        }
        let expected_total: u64 = reference.values().map(|&v| v as u64).sum();
        prop_assert_eq!(hash.total(), expected_total);
        prop_assert_eq!(dense.total(), expected_total);
        for (&topic, &count) in &reference {
            prop_assert_eq!(hash.get(topic), count);
            prop_assert_eq!(dense.get(topic), count);
        }
        let nonzero = reference.values().filter(|&&v| v > 0).count();
        prop_assert_eq!(hash.num_nonzero(), nonzero);
        prop_assert_eq!(dense.num_nonzero(), nonzero);
    }
}

// ---------------------------------------------------------------------------
// TokenMatrix: what the sampler's one `Send`/`Sync` claim rests on. For any
// sparsity pattern the row pointers are a permutation of the entry ids, the
// column ranges tile them, row slots keep input order and land in the columns
// they named, and columns ascend by row — checked through an entry-id-indexed
// side array, which is how WarpLDA uses the structure.
// ---------------------------------------------------------------------------
fn assert_rows_and_columns_each_partition_the_entries(num_cols: usize, rows: &[Vec<u32>]) {
    let m = TokenMatrix::from_rows(num_cols, rows.iter().map(Vec::as_slice));
    let nnz: usize = rows.iter().map(Vec::len).sum();
    assert_eq!((m.num_rows(), m.num_cols(), m.num_entries()), (rows.len(), num_cols, nnz));
    let mut sorted = m.row_ptr().to_vec();
    sorted.sort_unstable();
    assert!(sorted.iter().copied().eq(0..nnz as u32), "row_ptr is no permutation: {sorted:?}");
    // Stamp each entry with its (row, column as given) through the rows…
    let mut stamp = vec![(0, 0); nnz];
    for (d, cols) in rows.iter().enumerate() {
        let ids = m.row_entry_ids(d as u32);
        assert_eq!((ids.len(), m.row_len(d as u32)), (cols.len(), cols.len()));
        for (&e, &c) in ids.iter().zip(cols) {
            stamp[e as usize] = (d as u32, c);
        }
    }
    // …and read them back through the columns: the ranges tile the entry
    // ids, column w holds exactly the entries whose row slot named it (so
    // row slots keep input order), and rows ascend within a column.
    let mut next = 0;
    for w in 0..num_cols as u32 {
        let range = m.col_entry_range(w);
        assert_eq!((range.start, range.len()), (next, m.col_len(w)));
        next = range.end;
        let col = &stamp[range];
        assert!(col.iter().all(|&(_, c)| c == w), "column {w}: {col:?}");
        assert!(col.windows(2).all(|p| p[0].0 <= p[1].0), "column {w}: {col:?}");
    }
    assert_eq!(next, nnz);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn token_matrix_views_are_consistent(
        num_cols in 1usize..16,
        rows in prop::collection::vec(prop::collection::vec(0u32..15, 0..12), 0..20),
    ) {
        // Narrow vocabularies repeat cells; wide ones leave words unused.
        let rows: Vec<Vec<u32>> =
            rows.iter().map(|r| r.iter().map(|c| c % num_cols as u32).collect()).collect();
        assert_rows_and_columns_each_partition_the_entries(num_cols, &rows);
    }
}

#[test]
fn token_matrix_edge_shapes_partition_their_entries() {
    // Nothing at all, empty documents only, one document, one word, one cell
    // over and over, and a vocabulary most of which no document uses.
    for (num_cols, rows) in [
        (3, vec![]),
        (3, vec![vec![], vec![]]),
        (4, vec![vec![2, 0, 2, 3, 0]]),
        (1, vec![vec![0, 0], vec![], vec![0]]),
        (2, vec![vec![1; 6]]),
        (40, vec![vec![], vec![39, 7], vec![7], vec![]]),
    ] {
        assert_rows_and_columns_each_partition_the_entries(num_cols, &rows);
    }
}

// The other half of the claim is one visitor per entity: with more threads
// than rows or columns the chain is still the serial one, at each width.
#[test]
fn more_threads_than_entities_equal_the_serial_sampler_at_every_width() {
    let mut b = CorpusBuilder::new();
    for doc in [&["a", "b", "a", "c"][..], &["c", "c", "c"], &["b", "d", "a"]] {
        b.push_text_doc(doc.iter().copied());
    }
    let corpus = b.build().unwrap();
    for k in [6usize, 300, 70_000] {
        let params = ModelParams::new(k, 0.5, 0.1);
        let mut serial = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 9);
        let mut pool = ParallelWarpLda::new(&corpus, params, WarpLdaConfig::default(), 9, 8);
        for _ in 0..2 {
            serial.run_iteration();
            pool.run_iteration();
        }
        assert_eq!(pool.assignments(), serial.assignments(), "K = {k}");
        assert_eq!(pool.topic_counts(), serial.topic_counts(), "K = {k}");
    }
}

// ---------------------------------------------------------------------------
// Partitioning: every strategy covers every item exactly once and the greedy
// imbalance is never worse than the static one by more than noise.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitioners_cover_all_items(sizes in prop::collection::vec(0u64..1000, 1..300), parts in 1usize..16) {
        for strategy in [PartitionStrategy::Static { seed: 7 }, PartitionStrategy::Dynamic, PartitionStrategy::Greedy] {
            let assignment = partition_by_size(&sizes, parts, strategy);
            prop_assert_eq!(assignment.len(), sizes.len());
            prop_assert!(assignment.iter().all(|&p| (p as usize) < parts));
            let mut loads = vec![0u64; parts];
            for (i, &p) in assignment.iter().enumerate() {
                loads[p as usize] += sizes[i];
            }
            prop_assert_eq!(loads.iter().sum::<u64>(), sizes.iter().sum::<u64>());
            prop_assert!(imbalance_index(&loads) >= 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Cache probe: hit + miss accounting always balances.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_hierarchy_accounting_balances(addresses in prop::collection::vec(0u64..1_000_000, 1..2000)) {
        let mut probe = CacheProbe::new(HierarchyConfig::tiny_for_tests());
        let region = probe.register_region("r", 1_000_000, 1);
        for &a in &addresses {
            probe.read(region, a as usize);
        }
        let s = probe.stats();
        prop_assert_eq!(s.accesses as usize, addresses.len());
        prop_assert_eq!(s.l1_hits + s.l2_hits + s.l3_hits + s.memory_accesses, s.accesses);
        prop_assert!(s.mean_latency_cycles() >= 5.0);
        prop_assert!(s.mean_latency_cycles() <= 180.0);
    }
}

// ---------------------------------------------------------------------------
// WarpLDA invariants: after every iteration the assignments are in range, the
// global topic counts sum to the token count, and they match a recount.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn warplda_count_invariants(seed in 0u64..500, k in 2usize..20, m in 1usize..4) {
        let corpus = DatasetPreset::Tiny.generate_scaled(10);
        let params = ModelParams::new(k, 0.5, 0.1);
        let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig { mh_steps: m, use_hash_counts: true }, seed);
        for _ in 0..2 {
            sampler.run_iteration();
            let z = sampler.assignments();
            prop_assert_eq!(z.len() as u64, corpus.num_tokens());
            prop_assert!(z.iter().all(|&t| (t as usize) < k));
            let mut hist = vec![0u32; k];
            for &t in &z {
                hist[t as usize] += 1;
            }
            prop_assert_eq!(sampler.topic_counts(), &hist[..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Distributed protocol: delta/sync messages survive an encode/decode roundtrip
// bit-for-bit, for arbitrary payload contents.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dist_delta_messages_roundtrip(
        worker_id in 0u32..64,
        epoch in 0u64..10_000,
        records in prop::collection::vec(0u32..1000, 0..200),
        partial_ck in prop::collection::vec(0u32..100_000, 0..64),
        word in prop::bool::ANY,
    ) {
        use warplda::dist::protocol::{decode_message, encode_message, Delta, Message};

        let delta = Delta { worker_id, epoch, records, partial_ck };
        let msg = if word {
            Message::WordDelta(delta.clone())
        } else {
            Message::DocDelta(delta.clone())
        };
        let payload = encode_message(&msg);
        let decoded = decode_message(&payload).expect("roundtrip decodes");
        let back = match (word, decoded) {
            (true, Message::WordDelta(d)) | (false, Message::DocDelta(d)) => d,
            (_, other) => return Err(TestCaseError::Fail(format!("wrong variant: {other:?}"))),
        };
        prop_assert_eq!(back.worker_id, delta.worker_id);
        prop_assert_eq!(back.epoch, delta.epoch);
        prop_assert_eq!(back.records, delta.records);
        prop_assert_eq!(back.partial_ck, delta.partial_ck);
    }

    #[test]
    fn dist_sync_messages_roundtrip(
        epoch in 0u64..10_000,
        topic_counts in prop::collection::vec(0u32..1_000_000, 0..64),
        records in prop::collection::vec(0u32..1000, 0..200),
    ) {
        use warplda::dist::protocol::{decode_message, encode_message, Message, Sync};

        let sync = Sync { epoch, topic_counts, records };
        let payload = encode_message(&Message::WordSync(sync.clone()));
        let decoded = decode_message(&payload).expect("roundtrip decodes");
        match decoded {
            Message::WordSync(back) => {
                prop_assert_eq!(back.epoch, sync.epoch);
                prop_assert_eq!(back.topic_counts, sync.topic_counts);
                prop_assert_eq!(back.records, sync.records);
            }
            other => return Err(TestCaseError::Fail(format!("wrong variant: {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Grid shard assignment: for arbitrary corpora and worker counts, every
// matrix entry is owned by exactly one worker in each phase and the owned
// shards cover the whole corpus.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grid_shards_partition_every_token(
        docs in prop::collection::vec(prop::collection::vec(0u32..40, 1..30), 1..40),
        workers in 1usize..6,
    ) {
        let corpus = Corpus::from_token_docs(docs);
        let grid = GridPartition::for_cluster(&corpus, workers);
        prop_assert_eq!(grid.total_tokens(), corpus.num_tokens());
        for d in 0..corpus.num_docs() as u32 {
            prop_assert!((grid.doc_owner(d) as usize) < workers);
        }
        for w in 0..corpus.vocab().len() as u32 {
            prop_assert!((grid.word_owner(w) as usize) < workers);
        }

        // Ownership through the exchange plan: the doc-phase deltas are an
        // exact partition of the token matrix (they are how the coordinator's
        // replica learns an iteration), the word-phase deltas hold exactly
        // the cross-owner entries, each once.
        let sampler = WarpLda::new(
            &corpus,
            ModelParams::new(4, 0.5, 0.1),
            WarpLdaConfig::with_mh_steps(1),
            11,
        );
        let plan = ShardPlan::build(&sampler, &grid);
        for (phase, reported) in [
            (&plan.doc, sampler.num_entries() as u64),
            (&plan.word, grid.tokens_exchanged_per_phase_switch()),
        ] {
            let mut seen = vec![false; sampler.num_entries()];
            for list in &phase.delta_entries {
                for &e in list {
                    prop_assert!(!seen[e as usize], "entry {} reported twice", e);
                    seen[e as usize] = true;
                }
            }
            prop_assert_eq!(seen.iter().filter(|&&s| s).count() as u64, reported);
            let synced: usize = (0..workers).map(|j| phase.sync_len(j)).sum();
            prop_assert_eq!(synced as u64, grid.tokens_exchanged_per_phase_switch());
        }
    }
}

// ---------------------------------------------------------------------------
// Packed records: for any entry list, what one replica exports another
// imports, at the one width K dictates — the width they are stored at, so the
// export is the buffer's own bytes.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_records_round_trip_at_their_native_width(
        k in 2usize..70_000,
        m in 1usize..4,
        picks in prop::collection::vec(0usize..1_000_000, 0..300),
    ) {
        use warplda::lda::topic_wire_width;

        let corpus = DatasetPreset::Tiny.generate_scaled(16);
        let config = WarpLdaConfig::with_mh_steps(m);
        let params = ModelParams::new(k, 0.5, 0.1);
        let source = WarpLda::new(&corpus, params, config, 3);
        let mut sink = WarpLda::new(&corpus, params, config, 4);
        let entries: Vec<u32> =
            picks.iter().map(|p| (p % source.num_entries()) as u32).collect();
        let width = topic_wire_width(k);
        prop_assert_eq!(source.record_width(), width);

        let mut wire = vec![0xAB; 5];
        source.export_records_packed(&entries, &mut wire);
        let record = source.stride() * width;
        prop_assert_eq!(wire.len(), 5 + entries.len() * record, "appends exactly");
        let of = |replica: &WarpLda, e: u32| {
            replica.records_bytes()[e as usize * record..(e as usize + 1) * record].to_vec()
        };
        for (bytes, &e) in wire[5..].chunks_exact(record).zip(&entries) {
            prop_assert_eq!(bytes, &of(&source, e)[..], "the export is the stored bytes");
        }

        sink.import_records_packed(&entries, width, &wire[5..]).expect("a peer's export imports");
        for &e in &entries {
            prop_assert_eq!(of(&sink, e), of(&source, e));
        }

        // Anything but the exact byte count, any other width, and any topic
        // >= K, changes nothing.
        let before = sink.records_bytes().to_vec();
        let mut long = wire[5..].to_vec();
        long.push(0);
        prop_assert!(sink.import_records_packed(&entries, width, &long).is_err());
        for other in [1usize, 2, 3, 4].into_iter().filter(|&w| w != width) {
            prop_assert!(sink.import_records_packed(&entries, other, &wire[5..]).is_err());
        }
        if !entries.is_empty() {
            prop_assert!(sink.import_records_packed(&entries, width, &long[1..]).is_err());
            let mut poisoned = wire[5..].to_vec();
            let last = poisoned.len() - width;
            poisoned[last..].copy_from_slice(&(k as u32).to_le_bytes()[..width]);
            if width == 4 || k < 1 << (8 * width) {
                prop_assert!(sink.import_records_packed(&entries, width, &poisoned).is_err());
            }
        }
        prop_assert_eq!(sink.records_bytes(), &before[..]);
    }
}

// ---------------------------------------------------------------------------
// Phase exchange: a boundary routed as bytes delivers every record, and no
// mutation of a delta or sync payload — wrong segment length, bad or too
// narrow width, topic >= K, partial c_k off by one, truncation, trailing
// bytes, arbitrary byte damage — panics or leaves a mark on a replica.
// ---------------------------------------------------------------------------
mod exchange {
    use super::*;
    use warplda::dist::plan::PhasePlan;
    use warplda::dist::protocol::{begin_delta_frame, begin_sync_frame, delta_head_bytes};
    use warplda::lda::topic_wire_width;

    /// One replica per worker plus the coordinator's, at a phase boundary.
    pub struct Boundary {
        pub plan: ShardPlan,
        pub phase: FaultPhase,
        pub replicas: Vec<WarpLda>,
        pub coordinator: WarpLda,
        /// Each worker's delta payload, as put on the wire.
        pub deltas: Vec<Vec<u8>>,
    }

    impl Boundary {
        /// Runs `phase` on every worker's shard and encodes the deltas.
        pub fn reach(workers: usize, k: usize, phase: FaultPhase) -> Self {
            let corpus = DatasetPreset::Tiny.generate_scaled(16);
            let grid = GridPartition::for_cluster(&corpus, workers);
            let replica = || {
                let config = WarpLdaConfig::with_mh_steps(2);
                WarpLda::new(&corpus, ModelParams::new(k, 0.5, 0.1), config, 9)
            };
            let coordinator = replica();
            let plan = ShardPlan::build(&coordinator, &grid);
            let mut replicas: Vec<WarpLda> = (0..workers).map(|_| replica()).collect();
            let width = topic_wire_width(k);
            let mut partial = vec![0u32; k];
            let deltas = replicas
                .iter_mut()
                .enumerate()
                .map(|(i, replica)| {
                    match phase {
                        FaultPhase::Word => {
                            replica.run_word_phase_shard(&plan.owned_words[i], &mut partial)
                        }
                        FaultPhase::Doc => {
                            replica.run_doc_phase_shard(&plan.owned_docs[i], &mut partial)
                        }
                    }
                    let entries = &plan.phase(phase).delta_entries[i];
                    let values = entries.len() * replica.stride();
                    let mut frame = Vec::new();
                    begin_delta_frame(&mut frame, phase, i as u32, 0, width, &partial, values);
                    replica.export_records_packed(entries, &mut frame);
                    frame.split_off(4)
                })
                .collect();
            Self { plan, phase, replicas, coordinator, deltas }
        }

        pub fn exchange(&self) -> &PhasePlan {
            self.plan.phase(self.phase)
        }

        /// What the coordinator does with valid deltas: checks each, merges
        /// the partial `c_k` and routes the segments into one sync payload
        /// per worker.
        pub fn route(&self) -> Vec<Vec<u8>> {
            let k = self.coordinator.topic_counts().len();
            let exchange = self.exchange();
            let mut merged = vec![0u32; k];
            let records: Vec<&[u8]> = (0..self.deltas.len())
                .map(|i| {
                    exchange
                        .check_delta(&self.coordinator, i, 0, &self.deltas[i], &mut merged)
                        .expect("an honest delta validates")
                })
                .collect();
            let stride = self.coordinator.stride();
            let width = topic_wire_width(k);
            (0..self.deltas.len())
                .map(|j| {
                    let values = exchange.sync_len(j) * stride;
                    let mut frame = Vec::new();
                    begin_sync_frame(&mut frame, self.phase, 0, width, &merged, values);
                    for from in exchange.sync_sources(j) {
                        let segment = exchange.segment(from, j);
                        let bytes = stride * width;
                        frame.extend_from_slice(
                            &records[from][segment.start * bytes..segment.end * bytes],
                        );
                    }
                    frame.split_off(4)
                })
                .collect()
        }
    }

    /// The state a rejected payload must leave untouched.
    pub fn state(replica: &WarpLda) -> (Vec<u8>, Vec<u32>, u64) {
        (replica.records_bytes().to_vec(), replica.topic_counts().to_vec(), replica.iterations())
    }

    /// Damages `payload`, whose `counts` block starts at `counts_at`, in the
    /// way `kind` names. Returns whether the result is certainly invalid
    /// (arbitrary byte damage may happen to produce another valid payload).
    pub fn damage(
        payload: &mut Vec<u8>,
        counts_at: usize,
        k: usize,
        record_bytes: usize,
        kind: usize,
        at: usize,
    ) -> bool {
        let width_at = counts_at + 8 + 4 * k;
        let n_at = width_at + 1;
        let records_at = n_at + 8;
        let n = u64::from_le_bytes(payload[n_at..n_at + 8].try_into().unwrap());
        match kind {
            // Arbitrary byte damage.
            0 => {
                let at = at % payload.len();
                payload[at] ^= 1 << (at % 8);
                false
            }
            // Truncation anywhere; trailing bytes.
            1 => {
                payload.truncate(at % payload.len());
                true
            }
            2 => {
                payload.push(at as u8);
                true
            }
            // A width byte outside {1, 2, 4}.
            3 => {
                payload[width_at] = [0, 3, 5, 8, 255][at % 5];
                true
            }
            // A partial / merged c_k that no longer sums to the tokens.
            4 => {
                payload[counts_at + 8 + 4 * (at % k)] ^= 1;
                true
            }
            // A topic >= K in some record (all-ones is >= K at every width
            // the K of this test travels at).
            5 if n > 0 => {
                let width = payload[width_at] as usize;
                let value = records_at + (at % n as usize) * width;
                payload[value..value + width].fill(0xFF);
                true
            }
            // A segment one record short, with a consistent count: it parses,
            // and only the plan knows it is wrong.
            6 if n > 0 => {
                payload.truncate(payload.len() - record_bytes);
                let shorter = n - (record_bytes / payload[width_at] as usize) as u64;
                payload[n_at..n_at + 8].copy_from_slice(&shorter.to_le_bytes());
                true
            }
            // The right shape for the wrong epoch.
            _ => {
                payload[counts_at - 8] ^= 1;
                true
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn routed_boundaries_deliver_and_damaged_payloads_change_nothing(
            workers in 1usize..5,
            k_pick in 0usize..3,
            doc in prop::bool::ANY,
            kind in 0usize..8,
            at in 0usize..1_000_000,
            victim in 0usize..4,
        ) {
            // One K per wire width.
            let k = [6usize, 300, 70_000][k_pick];
            let phase = if doc { FaultPhase::Doc } else { FaultPhase::Word };
            let mut boundary = Boundary::reach(workers, k, phase);
            let syncs = boundary.route();
            let victim = victim % workers;
            let stride = boundary.coordinator.stride();
            let record_bytes = stride * topic_wire_width(k);
            let mut counts = vec![0u32; k];

            // A damaged delta is a typed error that leaves the merge alone
            // (the coordinator's replica is not even mutably borrowed).
            let mut delta = boundary.deltas[victim].clone();
            let counts_at = delta_head_bytes(k) - (8 + 4 * k + 1 + 8);
            let certainly = damage(&mut delta, counts_at, k, record_bytes, kind, at);
            let mut merged = vec![7u32; k];
            let checked = boundary.exchange().check_delta(
                &boundary.coordinator, victim, 0, &delta, &mut merged,
            );
            prop_assert!(!(certainly && checked.is_ok()), "damage {} went unnoticed", kind);
            if checked.is_err() {
                prop_assert!(merged.iter().all(|&c| c == 7), "a rejected delta touched the merge");
            }

            // A damaged sync is a typed error that leaves the replica alone.
            let mut sync = syncs[victim].clone();
            let certainly = damage(&mut sync, counts_at - 4, k, record_bytes, kind, at);
            let exchange = boundary.plan.phase(phase);
            let before = state(&boundary.replicas[victim]);
            let applied =
                exchange.apply_sync(&mut boundary.replicas[victim], victim, 0, &sync, &mut counts);
            prop_assert!(!(certainly && applied.is_ok()), "damage {} went unnoticed", kind);
            if applied.is_err() {
                prop_assert!(state(&boundary.replicas[victim]) == before, "a rejected sync left a mark");
            }

            // The honest syncs apply, and deliver every sender's records.
            for (j, sync) in syncs.iter().enumerate() {
                if j == victim && applied.is_ok() {
                    continue;
                }
                exchange
                    .apply_sync(&mut boundary.replicas[j], j, 0, sync, &mut counts)
                    .expect("an honest sync applies");
            }
            for j in (0..workers).filter(|&j| !(j == victim && applied.is_ok())) {
                for from in exchange.sync_sources(j) {
                    for &e in &exchange.delta_entries[from][exchange.segment(from, j)] {
                        let at = e as usize * record_bytes..(e as usize + 1) * record_bytes;
                        prop_assert_eq!(
                            &boundary.replicas[j].records_bytes()[at.clone()],
                            &boundary.replicas[from].records_bytes()[at],
                            "entry {} from worker {} to worker {}", e, from, j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_width_too_narrow_for_k_is_refused_even_when_every_value_fits() {
        // K = 300 travels at two bytes per topic. A delta of the right shape
        // at one byte per topic — all zeros, so every value is in range and
        // the partial c_k can be honest — is still not this session's format.
        let boundary = Boundary::reach(2, 300, FaultPhase::Doc);
        let exchange = boundary.exchange();
        let entries = &exchange.delta_entries[0];
        let values = entries.len() * boundary.coordinator.stride();
        let mut partial = vec![0u32; 300];
        partial[0] = boundary.plan.owned_docs[0]
            .iter()
            .map(|&d| boundary.coordinator.row_entry_ids(d).len() as u32)
            .sum();
        let mut frame = Vec::new();
        begin_delta_frame(&mut frame, FaultPhase::Doc, 0, 0, 1, &partial, values);
        frame.resize(frame.len() + values, 0);
        let mut merged = vec![0u32; 300];
        let err = exchange
            .check_delta(&boundary.coordinator, 0, 0, &frame[4..], &mut merged)
            .expect_err("one byte per topic cannot be K = 300's format");
        assert!(err.to_string().contains("bytes per topic"), "{err}");
        assert!(merged.iter().all(|&c| c == 0));
    }
}

// ---------------------------------------------------------------------------
// Bytes from outside: one mutation harness for every door a sampler state
// comes in through — a checkpoint and a `Setup` with a state tail — and the
// serving model's. From one valid payload each: every truncation and
// every element count blown up is refused; single-bit flips (a socket has no
// checksum, so a flipped proposal `< K` is legal) are refused or leave a state
// that still satisfies what `read_state` enforces; nothing panics; a refused
// read allocates a small multiple of its input, whatever the input declares;
// and a refusal leaves the target sampler as it was (or, where the payload
// goes on after the state, wholly the payload's — never half-adopted).
// ---------------------------------------------------------------------------
mod doors {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use warplda::corpus::io::codec::{
        write_framed, write_framed_section, write_vocab, Decoder, Encoder, MODEL_MAGIC,
    };
    use warplda::dist::protocol::{decode_message, encode_message, Message, Setup};
    use warplda::lda::checkpoint::{read_checkpoint, write_checkpoint};

    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
        static PEAK: Cell<isize> = const { Cell::new(0) };
    }

    /// Tracks each thread's live heap bytes and their high-water mark — per
    /// thread, because the harness runs this binary's tests concurrently.
    struct PeakAllocator;

    fn track(delta: isize) {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }

    // SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
    // touches only const-initialised thread-locals, which never allocate.
    unsafe impl GlobalAlloc for PeakAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            track(layout.size() as isize);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            track(-(layout.size() as isize));
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            track(new_size as isize - layout.size() as isize);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: PeakAllocator = PeakAllocator;

    /// Runs `f` and returns the most heap it held at once beyond what was
    /// live when it started.
    fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let base = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(base));
        let result = f();
        (result, (PEAK.with(Cell::get) - base) as usize)
    }

    const K: usize = 300;

    struct Door {
        name: &'static str,
        /// A payload the door accepts.
        valid: Vec<u8>,
        /// What the door's reader is handed for a payload: a file re-framed
        /// under a recomputed checksum, or the frame's bytes as they are.
        wrap: fn(&[u8]) -> Vec<u8>,
        /// The door's real reader, adopting into `target`.
        read: fn(&[u8], &mut WarpLda) -> Result<(), String>,
        /// `(offset, width)` of every element count in `valid`.
        counts: Vec<(usize, usize)>,
        /// Whether the payload continues after the state, so that a refusal
        /// of the rest can follow a complete adoption.
        tail_after_state: bool,
        /// The most a refused read may hold for `len` input bytes.
        budget: fn(usize) -> usize,
    }

    fn adopt(target: &mut WarpLda, state: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(state);
        target.read_state(&mut dec).map_err(|e| e.to_string())?;
        dec.finish().map_err(|e| e.to_string())
    }

    fn read_file(file: &[u8], target: &mut WarpLda) -> Result<(), String> {
        read_checkpoint(target, &mut &file[..]).map(drop).map_err(|e| e.to_string())
    }

    fn read_model(file: &[u8], _: &mut WarpLda) -> Result<(), String> {
        TopicModel::read(&mut &file[..]).map(drop).map_err(|e| e.to_string())
    }

    /// What the worker does with a `Setup` frame.
    fn read_frame(payload: &[u8], target: &mut WarpLda) -> Result<(), String> {
        match decode_message(payload).map_err(|e| e.to_string())? {
            Message::Setup(setup) => setup.resume.map_or(Ok(()), |state| adopt(target, state)),
            other => Err(format!("a {other:?} where a state was due")),
        }
    }

    fn corpus() -> Corpus {
        Corpus::from_token_docs(vec![
            vec![0, 1, 2, 1],
            vec![3, 4, 3],
            vec![5, 0, 5, 2, 1],
            vec![4, 4],
            vec![2, 3, 5, 0],
        ])
    }

    fn sampler(corpus: &Corpus, seed: u64) -> WarpLda {
        WarpLda::new(corpus, ModelParams::new(K, 0.5, 0.1), WarpLdaConfig::with_mh_steps(2), seed)
    }

    fn doors(corpus: &Corpus) -> Vec<Door> {
        let mut source = sampler(corpus, 7);
        source.run_iteration();
        source.run_iteration();
        let mut state = Vec::new();
        source.write_state(&mut Encoder::new(&mut state)).unwrap();
        // seed, iteration, M (8 each), hash flag, width, then `n`; c_k's
        // count follows the records.
        let state_counts = |at: usize| [(at + 26, 8), (at + 34 + source.records_bytes().len(), 8)];
        let mut vocab = Vec::new();
        write_vocab(&mut Encoder::new(&mut vocab), corpus.vocab()).unwrap();

        let mut file = Vec::new();
        write_checkpoint(&source, Some(corpus.vocab()), &mut file).unwrap();
        let checkpoint = file.split_off(28);
        let state_at = checkpoint.len() - vocab.len() - 1 - state.len();
        assert_eq!(&checkpoint[state_at..][..state.len()], &state[..], "one serialized form");
        let mut checkpoint_counts = vec![(0, 8), (checkpoint.len() - vocab.len(), 8)];
        checkpoint_counts.extend(state_counts(state_at));

        let mut file = Vec::new();
        TopicModel::freeze_sampler(&source, corpus).write(&mut file).unwrap();
        let model = file.split_off(28);
        // The kind string and the parameters, then four `u32` arrays.
        let mut model_counts = vec![(0, 8), (model.len() - vocab.len(), 8)];
        let mut at = 8 + "topic-model".len() + 24;
        for _ in 0..4 {
            model_counts.push((at, 8));
            at += 8 + 4 * u64::from_le_bytes(model[at..at + 8].try_into().unwrap()) as usize;
        }
        assert_eq!(at + 1, model.len() - vocab.len(), "the arrays end at the vocabulary flag");

        let setup = encode_message(&Message::Setup(Box::new(Setup {
            workers: 2,
            worker_id: 1,
            seed: 7,
            num_topics: K as u64,
            alpha: 0.5,
            beta: 0.1,
            mh_steps: 2,
            use_hash_counts: true,
            corpus: corpus.clone(),
            resume: Some(&state),
            heartbeat_interval_ms: 250,
            faults: FaultPlan::new().crash(1, 3, FaultPhase::Doc).for_worker(1, 1),
        })));
        // Tag and nine head fields, then the corpus: vocabulary, documents.
        let vocab_at = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 1;
        let state_at = setup.len() - state.len();
        let mut setup_counts =
            vec![(vocab_at, 8), (vocab_at + vocab.len(), 8), (state_at - 1 - 22 - 4, 4)];
        setup_counts.extend(state_counts(state_at));

        // What a refused read may hold. A state costs the `4·K` bytes of the
        // histogram `read_state` checks `c_k` against and nothing per record:
        // it is validated where it lies. A file's payload is held once. A
        // vocabulary is the expensive guest — the length rule lets a count
        // claim one word per 8 bytes left, and a claimed word reserves about
        // 60 bytes of tables — so a `Setup` is bounded by 8× its input, and
        // so are a model's arrays and alias tables. (A checkpoint's
        // vocabulary is its tail: a count there has little left to claim.)
        vec![
            Door {
                name: "checkpoint",
                valid: checkpoint,
                wrap: |payload| {
                    let mut file = Vec::new();
                    write_framed(&mut file, payload).unwrap();
                    file
                },
                read: read_file,
                counts: checkpoint_counts,
                tail_after_state: true,
                budget: |len| len + 4 * K + 1024,
            },
            Door {
                name: "model",
                valid: model,
                wrap: |payload| {
                    let mut file = Vec::new();
                    write_framed_section(&mut file, MODEL_MAGIC, payload).unwrap();
                    file
                },
                read: read_model,
                counts: model_counts,
                tail_after_state: false,
                budget: |len| 8 * len,
            },
            Door {
                name: "Setup",
                valid: setup,
                wrap: <[u8]>::to_vec,
                read: read_frame,
                counts: setup_counts,
                tail_after_state: false,
                budget: |len| 8 * len + 4 * K,
            },
        ]
    }

    /// What `read_state` enforces, checked from outside: every assignment is
    /// a topic, `c_k` is their histogram, and — every proposal being a topic
    /// too — an iteration runs.
    fn assert_consistent(target: &mut WarpLda, what: &str) {
        let mut hist = vec![0u32; K];
        for t in target.assignments() {
            assert!((t as usize) < K, "{what}: assignment {t} is no topic");
            hist[t as usize] += 1;
        }
        assert_eq!(target.topic_counts(), &hist[..], "{what}: c_k is not the histogram");
        target.run_iteration();
    }

    #[test]
    fn every_door_refuses_damage_without_panicking_over_allocating_or_half_adopting() {
        let corpus = corpus();
        for door in doors(&corpus) {
            let mut target = sampler(&corpus, 8);
            let name = door.name;
            // Reads `payload` through the door; a refusal must stay within
            // the allocation budget and must not leave a mark.
            let mut knock = |payload: &[u8], what: &str| -> bool {
                let input = (door.wrap)(payload);
                let before = exchange::state(&target);
                let (outcome, peak) = peak_during(|| (door.read)(&input, &mut target));
                match &outcome {
                    Ok(()) => assert_consistent(&mut target, &format!("{name}, {what}")),
                    Err(e) => {
                        let budget = (door.budget)(input.len());
                        assert!(
                            peak <= budget,
                            "{name}, {what}: refusing {} bytes held {peak} (budget {budget}): {e}",
                            input.len()
                        );
                        if exchange::state(&target) != before {
                            assert!(door.tail_after_state, "{name}, {what}: refused, yet adopted");
                            assert_consistent(&mut target, &format!("{name}, {what}"));
                        }
                    }
                }
                outcome.is_ok()
            };

            assert!(knock(&door.valid, "valid"), "{name}: the valid payload is refused");
            for cut in 0..door.valid.len() {
                assert!(!knock(&door.valid[..cut], "truncated"), "{name}: accepted cut at {cut}");
            }
            for &(at, width) in &door.counts {
                let field = &door.valid[at..at + width];
                let mut count = [0u8; 8];
                count[..width].copy_from_slice(field);
                let plus_one = (u64::from_le_bytes(count) + 1).to_le_bytes();
                for damage in [&[0xFF; 8][..width], &plus_one[..width]] {
                    let mut payload = door.valid.clone();
                    payload[at..at + width].copy_from_slice(damage);
                    assert!(!knock(&payload, "count"), "{name}: accepted {damage:?} at {at}");
                }
            }
            // Every single-bit flip: the payloads are small enough to need no
            // sampling.
            for at in 0..door.valid.len() {
                for bit in 0..8 {
                    let mut payload = door.valid.clone();
                    payload[at] ^= 1 << bit;
                    knock(&payload, &format!("bit {bit} of byte {at} flipped"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame buffer: any partial delivery of a frame stream — byte-at-a-time,
// random split points, splits inside the 4-byte length prefix — reassembles
// exactly the frames that were sent, and truncation anywhere inside a frame
// is a typed error, never a hang or a wrong frame.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frame_buffer_reassembles_any_partial_delivery(
        payloads in prop::collection::vec(prop::collection::vec(0u8..255, 0..200), 1..12),
        chunks in prop::collection::vec(1usize..9, 1..64),
    ) {
        use warplda::net::{write_frame, FrameBuffer};

        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }

        // Deliver the stream in the scripted chunk sizes (cycled). Sizes
        // start at 1 byte, so splits land inside length prefixes and inside
        // payloads all the time.
        let mut fb = FrameBuffer::new(8);
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0usize;
        let mut turn = 0usize;
        while pos < stream.len() {
            let n = chunks[turn % chunks.len()].min(stream.len() - pos);
            turn += 1;
            let mut cursor = std::io::Cursor::new(&stream[pos..pos + n]);
            loop {
                while let Some(range) = fb.take_frame().unwrap() {
                    seen.push(fb.payload(range).to_vec());
                }
                if fb.fill_from(&mut cursor).unwrap() == 0 {
                    break;
                }
            }
            pos += n;
        }
        while let Some(range) = fb.take_frame().unwrap() {
            seen.push(fb.payload(range).to_vec());
        }
        prop_assert_eq!(seen, payloads);
    }

    #[test]
    fn frame_buffer_flags_any_truncation_as_malformed(
        payload in prop::collection::vec(0u8..255, 1..200),
        cut_seed in 0usize..10_000,
    ) {
        use warplda::net::{write_frame, FrameBuffer, WireError};

        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        // Cut strictly inside the frame: anywhere from mid-prefix (1..4) to
        // one byte short of complete.
        let cut = 1 + cut_seed % (stream.len() - 1);
        stream.truncate(cut);

        let mut fb = FrameBuffer::new(8);
        let mut cursor = std::io::Cursor::new(stream);
        match fb.read_frame(&mut cursor) {
            Err(WireError::Malformed(msg)) => prop_assert!(msg.contains("mid-frame")),
            other => return Err(TestCaseError::Fail(
                format!("truncated at {cut}: expected Malformed, got {other:?}"),
            )),
        }
    }
}

// A tiny compile-time check that the probe abstraction is object-safe enough
// for downstream users who want dynamic instrumentation.
#[test]
fn no_probe_is_a_valid_probe() {
    fn touch<P: MemoryProbe>(mut p: P) {
        let r = p.register_region("x", 4, 4);
        p.read(r, 0);
        p.write(r, 1);
    }
    touch(NoProbe);
}
