//! Pins the zero-allocation guarantees of the WarpLDA hot paths: training
//! iterations *and* serving-side fold-in inference.
//!
//! A counting global allocator tallies every heap operation of this test
//! binary, and the bytes live and their peak. Row and column lengths are
//! known when a sampler is built, so its one O(K) count vector and its
//! alias/scratch buffers are at their high-water marks from the start:
//! serial iterations — the first one included — must perform **zero** heap
//! allocations, parallel iterations exactly the chunk drain's own (thread
//! scope, spawns, join handles and job slots: one number, the same every
//! iteration, whatever the corpus size and whichever worker claims which
//! chunk), and steady-state inference over a frozen
//! model must be **zero allocations per request**. Beside them two memory
//! pins: freezing a model holds one word-major copy of z (4 B/token) plus
//! O(V + K) beyond the model itself, and building a baseline sampler holds
//! its count tables plus the one corpus view it visits. And one allocation
//! pin: freezing and loading a model allocate as many buffers at one
//! vocabulary size as at four times it.
//!
//! The counters are process-wide, so the binary has no test harness
//! (`harness = false`): libtest's own thread runs beside a test and can
//! allocate inside a measured span on any schedule. `main` runs the one
//! check on the only thread there is and prints one line when it passes.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_during, peak_above_base};
use warplda::prelude::*;
use warplda::sampling::new_rng;

fn main() {
    steady_state_iterations_do_not_allocate();
    println!("test steady_state_iterations_do_not_allocate ... ok");
}

fn steady_state_iterations_do_not_allocate() {
    // K chosen above 2·L for both documents and most words: the sparse
    // shape, where a visit touches few of the count vector's K slots and a
    // word's alias table holds fewer bins than it was sized for.
    let params = ModelParams::new(100, 0.5, 0.05);
    let config = WarpLdaConfig::with_mh_steps(2);

    // --- Serial: strictly zero allocations, from the first iteration on. ---
    for scale in [4usize, 1] {
        let corpus = DatasetPreset::Tiny.generate_scaled(scale);
        let mut sampler = WarpLda::new(&corpus, params, config, 7);
        let allocs = allocs_during(|| {
            for _ in 0..5 {
                sampler.run_iteration();
            }
        });
        assert_eq!(allocs, 0, "serial WarpLDA must not allocate (corpus scale 1/{scale})");
        // The iterations above must still be doing real work.
        assert_eq!(sampler.iterations(), 5);
    }

    // --- Parallel: worker scratch is complete at construction, so the only
    // allocations are the chunk drain's own (thread scope, spawns, join
    // handles, job slots) — one number, whichever worker first meets which
    // row length, and the same for 4x the tokens. ---
    let mut per_iteration = Vec::new();
    for scale in [4usize, 1] {
        let corpus = DatasetPreset::Tiny.generate_scaled(scale);
        let mut sampler = ParallelWarpLda::new(&corpus, params, config, 7, 4);
        per_iteration.extend((0..4).map(|_| allocs_during(|| sampler.run_iteration())));
    }
    assert!(
        per_iteration[0] <= 64,
        "parallel WarpLDA should only pay the thread spawns, got {per_iteration:?}"
    );
    assert!(
        per_iteration.iter().all(|&a| a == per_iteration[0]),
        "parallel allocations must be one number: {per_iteration:?}"
    );

    // --- Freeze: beyond the model it builds, the freeze holds the
    // word-major z the sampler hands over (4 B/token) and O(V + K).
    // Freezing through a word view of the corpus and a doc-major gather of z
    // peaks 8 B/token higher, which breaks the bound. The O(V + K) rest is
    // bounded at 64 B per word plus topic. Per word it is the embedded
    // vocabulary's clone: the word's bytes in one shared string, an 8-byte
    // end offset and two to four 8-byte id-table slots, at most 44 B for
    // these synthetic words of up to four bytes. Per topic it is, for each
    // thread the freeze runs on, the counting scratch: the count vector, the
    // touched list and the bitmap (about 8 B) and the per-topic sums (4 B),
    // dropped before the assembly; then each thread's per-topic sums checked
    // at assembly (8 B) and the alias build scratch of the widest word (up
    // to 16 B). On this corpus (T/V ≈ 80) the rest was 29 B per word plus
    // topic on one thread. ---
    let corpus =
        LdaGenerator::new(SyntheticConfig { num_docs: 1_000, ..DatasetPreset::Tiny.config() })
            .generate();
    let mut sampler = ParallelWarpLda::new(&corpus, params, config, 7, 2);
    for _ in 0..3 {
        sampler.run_iteration();
    }
    let (model, peak) = peak_above_base(|| TopicModel::freeze_sampler(&sampler, &corpus));
    let (v, k, t) = (corpus.vocab_size(), params.num_topics, corpus.num_tokens() as usize);
    let bound = model.heap_bytes() + 4 * t + 64 * (v + k);
    assert!(
        peak <= bound,
        "the freeze peaked at {peak} B above its base; the model holds {} B, and one \
         word-major z plus 64 B per word and topic allow {bound} B (T = {t}, V = {v}, K = {k})",
        model.heap_bytes()
    );

    // --- Freeze and load allocate a fixed number of buffers, whatever V
    // is: every per-word structure (pair columns, alias bins, C_wk index,
    // vocabulary) is one flat buffer sized from the offsets, so two
    // corpora whose V differs by 4x make the same counts. ---
    let path = std::env::temp_dir().join(format!("warplda-zero-alloc-{}.wlda", std::process::id()));
    let mut freeze_and_load_allocs = Vec::new();
    for vocab_size in [500usize, 2_000] {
        let corpus = LdaGenerator::new(SyntheticConfig {
            num_docs: 400,
            vocab_size,
            ..DatasetPreset::Tiny.config()
        })
        .generate();
        let mut sampler = WarpLda::new(&corpus, params, config, 7);
        sampler.run_iteration();
        let mut model = None;
        let freeze = allocs_during(|| model = Some(TopicModel::freeze_sampler(&sampler, &corpus)));
        model.take().unwrap().save(&path).unwrap();
        let load = allocs_during(|| model = Some(TopicModel::load(&path).unwrap()));
        assert_eq!(model.unwrap().num_words(), vocab_size);
        freeze_and_load_allocs.push((freeze, load));
    }
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        freeze_and_load_allocs[0], freeze_and_load_allocs[1],
        "(freeze, load) allocations at V = 500 and V = 2 000 must be one number"
    );

    // --- Baselines: building one holds its count tables (the peak of
    // `SamplerState::init_random` alone) plus the one view it visits: CGS
    // and LightLDA 4 B/token of doc view, F+LDA 8 B/token of word view.
    // Holding both views (12 B/token) breaks the bound. The rest is bounded at 96 B per document, word and topic: per
    // word LightLDA keeps an 8-byte term frequency and an 88-byte proposal
    // table slot (`Option<WordProposalTable>`, three `Vec`s and two scalars),
    // more than the word view's 4-byte offsets; per document a view holds a
    // 4-byte offset, per topic CGS an 8-byte weight. ---
    let d = corpus.num_docs();
    let (_, state_peak) =
        peak_above_base(|| SamplerState::init_random(&corpus, params, &mut new_rng(7)));
    let builds = [
        ("CGS", 4, peak_above_base(|| CollapsedGibbs::new(&corpus, params, 7)).1),
        ("F+LDA", 8, peak_above_base(|| FPlusLda::new(&corpus, params, 7)).1),
        ("LightLDA", 4, peak_above_base(|| LightLda::new(&corpus, params, 2, 7)).1),
    ];
    for (name, per_token, peak) in builds {
        let bound = state_peak + per_token * t + 96 * (d + v + k);
        assert!(
            peak <= bound,
            "building {name} peaked at {peak} B above its base; its count tables peak at \
             {state_peak} B, and {per_token} B/token plus 96 B per document, word and topic \
             allow {bound} B (T = {t}, D = {d}, V = {v}, K = {k})"
        );
    }

    // --- Serving: steady-state fold-in inference is zero allocations per
    // request. The first request grows the scratch (token assignments, c_d,
    // θ, top list) to its high-water mark; every later request — including
    // ones for different documents and seeds — reuses it. ---
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let mut sampler = WarpLda::new(&corpus, params, config, 7);
    for _ in 0..3 {
        sampler.run_iteration();
    }
    let model = TopicModel::freeze_sampler(&sampler, &corpus);
    let engine = InferenceEngine::new(&model, InferConfig::default());
    let docs: Vec<Vec<u32>> = (0..8usize)
        .map(|i| (0..4 + i).map(|j| ((i * 31 + j * 7) % corpus.vocab_size()) as u32).collect())
        .collect();
    let mut scratch = InferScratch::new();
    // Warm-up on the *largest* request shapes so the buffers reach their
    // high-water marks.
    for (i, doc) in docs.iter().enumerate() {
        engine.infer_into(doc, i as u64, &mut scratch);
    }
    let allocs = allocs_during(|| {
        for round in 0..3u64 {
            for (i, doc) in docs.iter().enumerate() {
                engine.infer_into(doc, round * 100 + i as u64, &mut scratch);
            }
        }
    });
    assert_eq!(allocs, 0, "steady-state inference must not allocate per request");
    // The requests above did real work: θ is a fresh distribution.
    let total: f64 = scratch.theta().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}
