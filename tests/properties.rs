//! Property-based tests (proptest) on the core data structures and on the
//! sampler invariants listed in DESIGN.md §7.

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
// TokenMatrix: row and column views are consistent permutations of the same
// entries for arbitrary sparsity patterns.
// ---------------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn token_matrix_views_are_consistent(entries in prop::collection::vec((0u32..20, 0u32..15), 0..200)) {
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(20, 15, &entries);
        prop_assert_eq!(m.num_entries(), entries.len());
        // Stamp unique ids via rows, check via columns.
        let mut counter = 0u32;
        m.visit_by_row(|_, mut row| {
            for i in 0..row.len() {
                *row.get_mut(i) = counter;
                counter += 1;
            }
        });
        let mut seen = vec![false; entries.len()];
        m.visit_by_column(|w, col| {
            for i in 0..col.len() {
                let v = *col.get(i) as usize;
                assert!(!seen[v]);
                seen[v] = true;
                // Column w must actually contain an entry (row, w).
                assert!(entries.iter().any(|&(r, c)| c == w && r == col.row(i)));
            }
        });
        prop_assert!(seen.iter().all(|&s| s));
        // Row/column lengths add up.
        let row_total: usize = (0..20u32).map(|d| m.row_len(d)).sum();
        let col_total: usize = (0..15u32).map(|w| m.col_len(w)).sum();
        prop_assert_eq!(row_total, entries.len());
        prop_assert_eq!(col_total, entries.len());
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
        let decoded = decode_message(&encode_message(&msg)).expect("roundtrip decodes");
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
        let decoded = decode_message(&encode_message(&Message::WordSync(sync.clone())))
            .expect("roundtrip decodes");
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
        let doc_view = DocMajorView::build(&corpus);
        let word_view = WordMajorView::build(&corpus, &doc_view);
        let grid = GridPartition::build_with(
            &corpus,
            &doc_view,
            &word_view,
            workers,
            PartitionStrategy::Greedy,
            PartitionStrategy::Dynamic,
        );
        prop_assert_eq!(grid.total_tokens(), corpus.num_tokens());
        for d in 0..corpus.num_docs() as u32 {
            prop_assert!((grid.doc_owner(d) as usize) < workers);
        }
        for w in 0..corpus.vocab().len() as u32 {
            prop_assert!((grid.word_owner(w) as usize) < workers);
        }

        // Ownership through the exchange plan: in each phase the per-worker
        // delta entry lists are an exact partition of the token matrix.
        let sampler = WarpLda::new(
            &corpus,
            ModelParams::new(4, 0.5, 0.1),
            WarpLdaConfig::with_mh_steps(1),
            11,
        );
        let plan = ShardPlan::build(&sampler, &grid);
        for lists in [&plan.word_delta_entries, &plan.doc_delta_entries] {
            let mut seen = vec![false; sampler.num_entries()];
            for list in lists.iter() {
                for &e in list {
                    prop_assert!(!seen[e as usize], "entry {} owned twice", e);
                    seen[e as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "some entry unowned");
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
