//! End-to-end serving suite: train → freeze → serve → query over loopback.
//!
//! The load-bearing property is the acceptance criterion of the serving
//! subsystem: **θ is a pure function of the request**. A response produced by
//! a multi-worker server under concurrent load must be bit-identical to a
//! single-threaded engine run with the same request seed, for any worker
//! count. Alongside it: the `WLDAMODL` artifact round trip (including
//! corruption rejection at the codec level) and model hot swap under live
//! traffic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use warplda::prelude::*;
use warplda::serve::server::{CAPACITY_MSG, DEADLINE_MSG, OVERLOAD_MSG};
use warplda::serve::wire::{Request, RequestBody, Response};

/// Polls `cond` until it holds or `timeout` elapses.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// Shrinks a socket's kernel receive buffer to a few KB so a reader that
/// never drains it backs the sender up almost immediately (kernel buffer
/// autotuning can otherwise absorb tens of MB before a write would block).
#[cfg(target_os = "linux")]
fn clamp_recv_buffer(stream: &std::net::TcpStream) {
    use std::os::fd::AsRawFd as _;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes as *const i32 as *const core::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

#[cfg(not(target_os = "linux"))]
fn clamp_recv_buffer(_stream: &std::net::TcpStream) {}

/// Trains a small model on the Tiny preset and freezes it.
fn frozen_model() -> (Corpus, Arc<TopicModel>) {
    let corpus = DatasetPreset::Tiny.generate_scaled(4);
    let params = ModelParams::paper_defaults(8);
    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 42);
    for _ in 0..15 {
        sampler.run_iteration();
    }
    let model = Arc::new(TopicModel::freeze_sampler(&sampler, &corpus));
    (corpus, model)
}

/// Unseen query documents as token ids: deterministic pseudo-documents over
/// the preset vocabulary (none is a training document).
fn queries(vocab_size: usize, n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| {
            let len = 3 + (i % 9);
            (0..len).map(|j| ((i * 131 + j * 17 + 7) % vocab_size) as u32).collect()
        })
        .collect()
}

/// The benchmark's query mix in miniature: 16 short queries of 8–32 tokens
/// and 4 long ones of 200–400, each token a uniformly drawn training token
/// (so words come at their corpus frequencies), from a fixed splitmix64
/// stream.
fn golden_queries(corpus: &Corpus) -> Vec<Vec<u32>> {
    let tokens: Vec<u32> = corpus.docs().iter().flat_map(|d| d.tokens().iter().copied()).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x ^ (x >> 31)) % bound as u64) as usize
    };
    (0..20)
        .map(|i| {
            let len = if i % 5 == 4 { 200 + next(201) } else { 8 + next(25) };
            (0..len).map(|_| tokens[next(tokens.len())]).collect()
        })
        .collect()
}

/// FNV-1a over the bits of every θ [`golden_queries`] folds in under two
/// models frozen from a `CollapsedGibbs` run on Tiny. At K = 8 most query
/// tokens are of words with `2·nnz ≥ K`; at K = 1 024 none are. The models
/// come from the exact sampler, not WarpLDA, so a deliberate change to the
/// trainer's chain leaves this constant alone: it moves only when fold-in
/// itself does. Computed at the commit that gave fold-in's MH steps the
/// trainer's discipline: one 64-bit word per proposal (the initial draw
/// too), one uniform per step drawn unconditionally, acceptance by
/// multiply-and-select. The two constants before it are
/// `0x7cb41207c0f4497d` (the ratio-and-branch steps, after the doc
/// acceptance lost its `(c_d,cur + α)/(c_d,cur − 1 + α)` factor) and
/// `0xee3265c594a2a5cc` (with that factor, which sampled the wrong
/// posterior: [`fold_in_matches_the_exact_posterior`] judges that).
/// However the frozen counts are stored or looked up, every θ keeps its
/// bits unless a change means to move them.
#[test]
fn fold_in_theta_is_pinned_across_commits() {
    const GOLDEN: u64 = 0x93f4_a991_9125_6a25;
    let corpus = DatasetPreset::Tiny.generate();
    let docs = golden_queries(&corpus);
    let mut bytes = Vec::new();
    for (k, dense_share) in [(8usize, 0.5..=1.0), (1_024, 0.0..=0.0)] {
        let mut sampler = CollapsedGibbs::new(&corpus, ModelParams::paper_defaults(k), 5);
        for _ in 0..10 {
            sampler.run_iteration();
        }
        let model = TopicModel::freeze_sampler(&sampler, &corpus);
        let nnz = |w: u32| (0..k as u32).filter(|&t| model.word_topic_count(w, t) > 0).count();
        let (dense, total) = docs
            .iter()
            .flatten()
            .fold((0, 0), |(dense, total), &w| (dense + usize::from(2 * nnz(w) >= k), total + 1));
        let share = dense as f64 / total as f64;
        assert!(dense_share.contains(&share), "K = {k}: {share:.3} of query tokens have 2·nnz ≥ K");
        let engine = InferenceEngine::new(&model, InferConfig::default());
        let mut scratch = InferScratch::new();
        for (i, doc) in docs.iter().enumerate() {
            engine.infer_into(doc, i as u64, &mut scratch);
            bytes.extend(scratch.theta().iter().flat_map(|v| v.to_bits().to_le_bytes()));
        }
    }
    let hash = warplda::corpus::io::codec::fnv1a64(&bytes);
    assert_eq!(hash, GOLDEN, "got {hash:#018x}");
}

/// The fold-in oracle's `C_wk` rows at K = 3: three words that each lean on
/// one topic and a frequent fourth that spreads over all three.
const ORACLE_ROWS: [[u32; 3]; 4] = [[30, 2, 1], [3, 25, 4], [5, 6, 20], [40, 10, 70]];

/// A model whose `C_wk` are exactly `rows`, frozen through
/// `from_assignments` from word-major assignments that hold word `w`'s
/// `C_wk` tokens at topic `k`. A row of zeros is a word the training corpus
/// never saw.
fn toy_model(rows: &[[u32; 3]], params: ModelParams) -> TopicModel {
    let (mut col_offsets, mut z) = (vec![0u32], Vec::new());
    for row in rows {
        for (k, &c) in row.iter().enumerate() {
            z.extend(std::iter::repeat_n(k as u32, c as usize));
        }
        col_offsets.push(z.len() as u32);
    }
    TopicModel::from_assignments(params, &col_offsets, &z, None)
}

/// Whether query tokens `i < j` share a topic under `z`, for every pair in a
/// fixed order.
fn co_assigned(z: &[u32]) -> impl Iterator<Item = bool> + '_ {
    (0..z.len()).flat_map(move |i| (i + 1..z.len()).map(move |j| z[i] == z[j]))
}

/// The exact fold-in posterior of `query` under the frozen `rows`, from all
/// Kᴸ assignments: `p(z) ∝ ∏_k Γ(c_dk + α) · ∏_i φ_{w_i z_i}` with
/// `φ_wk = (C_wk + β) / (c_k + V·β)`. Returns `E[θ]` followed by
/// `P(z_i = z_j)` for every pair of query tokens.
fn exact_fold_in(rows: &[[u32; 3]], params: &ModelParams, query: &[u32]) -> Vec<f64> {
    let (k, len) = (params.num_topics, query.len());
    let (alpha, beta) = (params.alpha, params.beta);
    let beta_bar = rows.len() as f64 * beta;
    let ck: Vec<f64> = (0..k).map(|t| rows.iter().map(|r| r[t] as f64).sum()).collect();
    let phi =
        |w: u32, t: u32| (rows[w as usize][t as usize] as f64 + beta) / (ck[t as usize] + beta_bar);
    let mut out = vec![0.0; k + len * (len - 1) / 2];
    let mut total = 0.0;
    let mut z = vec![0u32; len];
    loop {
        let mut cd = vec![0u32; k];
        let mut p = 1.0;
        for (&w, &t) in query.iter().zip(&z) {
            // Γ(c + 1 + α) / Γ(c + α) = c + α, one token at a time.
            p *= (cd[t as usize] as f64 + alpha) * phi(w, t);
            cd[t as usize] += 1;
        }
        total += p;
        for (slot, &c) in out.iter_mut().zip(&cd) {
            *slot += p * (c as f64 + alpha) / (len as f64 + params.alpha_bar());
        }
        for (slot, same) in out[k..].iter_mut().zip(co_assigned(&z)) {
            *slot += if same { p } else { 0.0 };
        }
        // Count `z` up in base K; the states are exhausted when it wraps to 0.
        let Some(digit) = z.iter().position(|&t| (t as usize) + 1 < k) else { break };
        z[..digit].fill(0);
        z[digit] += 1;
    }
    out.iter().map(|v| v / total).collect()
}

/// Fold-in samples the exact posterior of the frozen model, checked against
/// an enumeration of every state (the `sampler_agreement` oracle, applied to
/// inference). Each seed is an independent fold-in run, so its final θ and
/// co-assignments are independent draws; their means must land within
/// 4.5 standard errors of the exact values (over all 72 statistics, 18 for
/// each of 4 rows, a ≈ 5·10⁻⁴ chance of a false alarm if they were
/// independent). The second query holds a word the training corpus never
/// saw, whose word proposal is all smoothing. A sampler of the wrong
/// posterior is flagged: keeping the doc acceptance's
/// `(c_d,cur + α)/(c_d,cur − 1 + α)` factor reads θ tens of standard errors
/// off.
#[test]
fn fold_in_matches_the_exact_posterior() {
    const SEEDS: u64 = 40_000;
    const Z_BOUND: f64 = 4.5;
    let params = ModelParams::new(3, 0.5, 0.1);
    let unseen = [ORACLE_ROWS[0], ORACLE_ROWS[1], ORACLE_ROWS[2], ORACLE_ROWS[3], [0, 0, 0]];
    let cases: [(&[[u32; 3]], [u32; 6]); 2] =
        [(&ORACLE_ROWS, [0, 1, 2, 0, 2, 1]), (&unseen, [0, 4, 2, 3, 4, 1])];
    let mut failures = Vec::new();
    println!("query          M  θ z-scores             max |z| of 15 pairs");
    for (rows, query) in cases {
        let model = toy_model(rows, params);
        let exact = exact_fold_in(rows, &params, &query);
        for mh_steps in [1, 2] {
            let engine =
                InferenceEngine::new(&model, InferConfig { mh_steps, ..Default::default() });
            let mut scratch = InferScratch::new();
            let (mut sum, mut sum_sq) = (vec![0.0; exact.len()], vec![0.0; exact.len()]);
            for seed in 1..=SEEDS {
                engine.infer_into(&query, seed, &mut scratch);
                let same = co_assigned(scratch.assignments()).map(|s| if s { 1.0 } else { 0.0 });
                for ((s, s2), x) in
                    sum.iter_mut().zip(&mut sum_sq).zip(scratch.theta().iter().copied().chain(same))
                {
                    *s += x;
                    *s2 += x * x;
                }
            }
            let n = SEEDS as f64;
            let z: Vec<f64> = sum
                .iter()
                .zip(&sum_sq)
                .zip(&exact)
                .map(|((&s, &s2), &p)| {
                    let mean = s / n;
                    let std_err = ((s2 / n - mean * mean) / (n - 1.0)).sqrt();
                    (mean - p) / std_err
                })
                .collect();
            let pairs_max = z[3..].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            println!(
                "{query:?} {mh_steps}  {:+6.1} {:+6.1} {:+6.1}   {pairs_max:6.1}",
                z[0], z[1], z[2]
            );
            if !z.iter().all(|v| v.abs() <= Z_BOUND) {
                failures.push(format!("{query:?} at M = {mh_steps}: z = {z:.1?}"));
            }
        }
    }
    assert!(failures.is_empty(), "fold-in is off the exact posterior: {failures:#?}");
}

#[test]
fn concurrent_queries_are_bit_identical_to_the_single_threaded_reference() {
    let (corpus, model) = frozen_model();
    let config = ServerConfig::default();
    let docs = queries(corpus.vocab_size(), 120);

    // Single-threaded reference: the engine, directly, same seeds.
    let engine = InferenceEngine::new(&model, config.infer);
    let mut scratch = InferScratch::new();
    let reference: Vec<Vec<u64>> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            engine.infer_into(doc, i as u64, &mut scratch);
            scratch.theta().iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    for workers in [1usize, 2, 4] {
        let handle =
            Server::bind("127.0.0.1:0", Arc::clone(&model), ServerConfig { workers, ..config })
                .expect("bind loopback");
        let addr = handle.addr();

        // ≥ 100 queries concurrently from 4 client threads (client c takes
        // the indices i ≡ c mod 4), all in flight against `workers` server
        // workers.
        let num_clients = 4;
        std::thread::scope(|scope| {
            for c in 0..num_clients {
                let docs = &docs;
                let reference = &reference;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for (i, doc) in docs.iter().enumerate().filter(|(i, _)| i % num_clients == c) {
                        let resp = client.query_tokens(doc, i as u64, 3).expect("query");
                        let Response::Ok(reply) = resp else {
                            panic!("query {i} rejected: {resp:?}")
                        };
                        let bits: Vec<u64> = reply.theta.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            bits, reference[i],
                            "query {i}: θ differs from the single-threaded \
                             reference under {workers} server workers"
                        );
                        assert_eq!(reply.tokens_used as usize, doc.len());
                    }
                });
            }
        });

        let stats = handle.latency();
        assert_eq!(stats.count as usize, docs.len(), "{workers} workers");
        assert!(stats.p50_us <= stats.p95_us && stats.p95_us <= stats.p99_us);
        handle.shutdown();
    }
}

#[test]
fn model_artifact_round_trips_on_disk_and_rejects_corruption() {
    use warplda::corpus::io::codec::CodecError;

    let (corpus, model) = frozen_model();
    let dir = std::env::temp_dir().join(format!("warplda-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.wldamodl");
    model.save(&path).expect("save model");

    // The loaded artifact answers queries bit-identically to the original.
    let loaded = TopicModel::load(&path).expect("load model");
    let config = InferConfig::default();
    let doc: Vec<u32> = queries(corpus.vocab_size(), 1).remove(0);
    let a = InferenceEngine::new(&model, config).infer(&doc, 9);
    let b = InferenceEngine::new(&loaded, config).infer(&doc, 9);
    assert_eq!(
        a.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // Codec-level rejection: flipped payload byte, truncation, wrong magic.
    let bytes = std::fs::read(&path).unwrap();
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert!(matches!(
        TopicModel::read(&mut flipped.as_slice()),
        Err(CodecError::ChecksumMismatch { .. })
    ));
    let mut truncated = bytes.clone();
    truncated.truncate(truncated.len() / 2);
    assert!(matches!(TopicModel::read(&mut truncated.as_slice()), Err(CodecError::Io(_))));
    let mut wrong_magic = bytes.clone();
    wrong_magic[..8].copy_from_slice(b"WLDACKPT");
    assert!(matches!(TopicModel::read(&mut wrong_magic.as_slice()), Err(CodecError::BadMagic)));
    // And the converse: a real checkpoint is not a model.
    let ckpt_path = dir.join("sampler.ckpt");
    let mut sampler = WarpLda::new(&corpus, *model.params(), WarpLdaConfig::with_mh_steps(2), 42);
    sampler.run_iteration();
    save_checkpoint(&sampler, Some(corpus.vocab()), &ckpt_path).unwrap();
    assert!(matches!(TopicModel::load(&ckpt_path), Err(CodecError::BadMagic)));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_under_live_traffic_never_drops_a_request() {
    let (corpus, model) = frozen_model();
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), ServerConfig::with_workers(2))
        .expect("bind loopback");
    let addr = handle.addr();
    let docs = queries(corpus.vocab_size(), 60);

    // A re-frozen model to promote (the state is identical, the artifact is
    // new — what a checkpoint promotion looks like).
    let mut retrained = WarpLda::new(&corpus, *model.params(), WarpLdaConfig::with_mh_steps(2), 43);
    for _ in 0..3 {
        retrained.run_iteration();
    }
    let promoted = Arc::new(TopicModel::freeze_sampler(&retrained, &corpus));

    let (first_reply, stream_started) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let docs = &docs;
        let worker = scope.spawn(move || {
            let mut epochs_seen = Vec::new();
            let mut client = Client::connect(addr).expect("connect");
            for (i, doc) in docs.iter().enumerate() {
                match client.query_tokens(doc, i as u64, 1).expect("query") {
                    Response::Ok(reply) => epochs_seen.push(reply.model_epoch),
                    Response::Error(e) => panic!("request dropped during swap: {e}"),
                }
                if i == 0 {
                    first_reply.send(()).expect("the test is waiting for the first reply");
                }
            }
            epochs_seen
        });
        // Promote mid-stream: once the client has its first reply, with the
        // rest of its requests still to come.
        stream_started
            .recv_timeout(Duration::from_secs(30))
            .expect("the client never got its first reply");
        handle.swap_model(promoted);
        let epochs = worker.join().expect("client thread");
        // Every request was answered, each by a well-defined model
        // generation, and the sequence is monotone (no request went back in
        // time after the promotion).
        assert_eq!(epochs.len(), docs.len());
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "epochs regressed: {epochs:?}");
        assert!(epochs.iter().all(|&e| e <= 1));
    });
    assert_eq!(handle.model_epoch(), 1);
    handle.shutdown();
}

#[test]
fn idle_keepalive_connections_beyond_the_worker_count_still_get_served() {
    // The readiness-loop property: with 2 workers, hundreds of idle
    // keep-alive connections cost zero workers, active clients keep getting
    // answers, and the idle connections themselves are still serviceable.
    let (corpus, model) = frozen_model();
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), config).expect("bind loopback");
    let addr = handle.addr();

    // Paced on the server's own accept counter: the listener's backlog is a
    // fixed 128, and a connect that overflows it waits out a 1 s SYN
    // retransmit, so the client never runs more than 64 connects ahead of
    // what the event loop has accepted.
    let num_idle = 1024;
    let mut idle: Vec<Client> = (0..num_idle)
        .map(|i| {
            let paced = Instant::now();
            while handle.counters().accepted + 64 < i as u64 {
                assert!(
                    paced.elapsed() < Duration::from_secs(30),
                    "accepts stalled at connect {i}"
                );
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}"));
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(200), "connect {i} took {took:?}");
            c.set_deadline(Some(Duration::from_secs(60))).expect("deadline");
            c
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(30), || handle.counters().open_connections
            >= num_idle as u64),
        "event loop should hold all {num_idle} idle connections open, has {}",
        handle.counters().open_connections
    );

    // Active traffic flows while every idle connection stays attached.
    let docs = queries(corpus.vocab_size(), 40);
    let mut active = Client::connect(addr).expect("active connect");
    active.set_deadline(Some(Duration::from_secs(60))).expect("deadline");
    for (i, doc) in docs.iter().enumerate() {
        match active.query_tokens(doc, i as u64, 2).expect("active query") {
            Response::Ok(_) => {}
            Response::Error(e) => panic!("active query {i} rejected under idle load: {e}"),
        }
    }

    // A sample of the long-idle connections is still serviceable.
    for i in (0..num_idle).step_by(61) {
        let doc = &docs[i % docs.len()];
        match idle[i].query_tokens(doc, i as u64, 2).expect("idle query") {
            Response::Ok(_) => {}
            Response::Error(e) => panic!("idle connection {i} rejected its query: {e}"),
        }
    }

    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown with {num_idle} idle connections attached took {:?}",
        t0.elapsed()
    );
}

#[test]
fn overload_sheds_typed_errors_beyond_the_admission_bound() {
    let (corpus, model) = frozen_model();
    // One worker, admission bound of one queued job: a 200-request pipelined
    // burst must be partially shed — and every shed reply is the typed
    // overload error, delivered in request order.
    let config = ServerConfig { workers: 1, max_pending: 1, ..ServerConfig::default() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.set_deadline(Some(Duration::from_secs(60))).expect("deadline");

    let n = 200usize;
    let doc: Vec<u32> = queries(corpus.vocab_size(), 1).remove(0);
    for seed in 0..n {
        client
            .send(&Request { seed: seed as u64, top_n: 1, body: RequestBody::Tokens(doc.clone()) })
            .expect("send");
    }
    let (mut ok, mut shed) = (0usize, 0usize);
    for i in 0..n {
        match client.recv().unwrap_or_else(|e| panic!("response {i}: {e}")) {
            Response::Ok(_) => ok += 1,
            Response::Error(msg) => {
                assert_eq!(msg, OVERLOAD_MSG, "shed reply must be the typed overload error");
                shed += 1;
            }
        }
    }
    assert_eq!(ok + shed, n);
    assert!(ok >= 1, "at least the first admitted request must be served");
    assert!(shed >= 1, "a burst of {n} against max_pending=1 must shed");
    let counters = handle.counters();
    assert_eq!(counters.shed_overload, shed as u64, "counter must match client-visible sheds");

    // The connection survives overload: a lone follow-up request succeeds.
    match client.query_tokens(&doc, 7, 1).expect("follow-up") {
        Response::Ok(_) => {}
        Response::Error(e) => panic!("connection should recover after shedding: {e}"),
    }
    handle.shutdown();
}

#[test]
fn requests_past_their_deadline_get_the_typed_deadline_reply() {
    let (corpus, model) = frozen_model();
    // A zero deadline: every job has waited past it by the time a worker
    // claims it, so each request of the burst is answered, in order, with
    // the typed deadline error instead of being served.
    let config =
        ServerConfig { workers: 2, request_deadline: Duration::ZERO, ..ServerConfig::default() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.set_deadline(Some(Duration::from_secs(60))).expect("deadline");

    let docs = queries(corpus.vocab_size(), 100);
    for (seed, doc) in docs.iter().enumerate() {
        client
            .send(&Request { seed: seed as u64, top_n: 1, body: RequestBody::Tokens(doc.clone()) })
            .expect("send");
    }
    for i in 0..docs.len() {
        match client.recv().unwrap_or_else(|e| panic!("response {i}: {e}")) {
            Response::Error(msg) => assert_eq!(msg, DEADLINE_MSG, "response {i}"),
            Response::Ok(_) => panic!("response {i} was served past a zero deadline"),
        }
    }
    let counters = handle.counters();
    assert_eq!(counters.deadline_expired, docs.len() as u64);
    assert_eq!(counters.shed_overload, 0, "the burst fits the admission bound");
    handle.shutdown();
}

#[test]
fn shutdown_with_queued_work_is_prompt_and_closes_the_connection() {
    use warplda::serve::wire::WireError;

    let (corpus, model) = frozen_model();
    // One worker and a bound that admits the whole burst: thousands of long
    // queries wait in the job channel when shutdown is called.
    let config = ServerConfig { workers: 1, max_pending: 4096, ..ServerConfig::default() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.set_deadline(Some(Duration::from_secs(10))).expect("deadline");
    let n = 3_000u64;
    let doc: Vec<u32> = (0..2_000).map(|j| ((j * 17 + 7) % corpus.vocab_size()) as u32).collect();
    for seed in 0..n {
        client
            .send(&Request { seed, top_n: 8, body: RequestBody::Tokens(doc.clone()) })
            .expect("the server reads what it is sent");
    }
    assert!(wait_until(Duration::from_secs(30), || handle.latency().count >= 1));
    let answered = handle.latency().count;
    assert!(answered < n / 2, "{answered} of {n} were answered before shutdown");

    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown with queued work took {:?}",
        t0.elapsed()
    );
    // The replies the server wrote before it stopped, then EOF or a reset:
    // never a read that waits out its deadline.
    let mut replies = 0u64;
    loop {
        match client.recv() {
            Ok(Response::Ok(_)) => replies += 1,
            Ok(Response::Error(e)) => panic!("reply {replies} is an error: {e}"),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                break
            }
            Err(e) => {
                panic!("after {replies} replies the connection neither closed nor reset: {e}")
            }
        }
    }
    assert!(replies < n, "queued work was dropped, not served: {replies} replies");
}

#[test]
fn connections_beyond_the_cap_get_a_typed_capacity_error() {
    let (_corpus, model) = frozen_model();
    let config = ServerConfig { workers: 1, max_connections: 2, ..ServerConfig::default() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), config).expect("bind loopback");
    let mut keep: Vec<Client> = (0..2).map(|_| Client::connect(handle.addr()).unwrap()).collect();
    assert!(wait_until(Duration::from_secs(10), || handle.counters().open_connections >= 2));

    // The third connection is refused with the typed capacity error (best
    // effort: the refusal may also surface as an immediate EOF).
    let mut over = Client::connect(handle.addr()).expect("tcp connect still accepted");
    over.set_deadline(Some(Duration::from_secs(10))).expect("deadline");
    match over.recv() {
        Ok(Response::Error(msg)) => assert_eq!(msg, CAPACITY_MSG),
        Ok(other) => panic!("expected capacity error, got {other:?}"),
        Err(_) => {} // closed before the refusal flushed — still refused
    }
    assert!(wait_until(Duration::from_secs(10), || handle.counters().rejected_at_capacity >= 1));

    // The connections under the cap still work.
    for (i, client) in keep.iter_mut().enumerate() {
        client.set_deadline(Some(Duration::from_secs(60))).expect("deadline");
        match client.query_text("anything", i as u64, 1).expect("query under cap") {
            Response::Ok(_) | Response::Error(_) => {}
        }
    }
    handle.shutdown();
}

#[test]
fn stalled_readers_are_disconnected_and_shutdown_stays_prompt() {
    use std::io::Write as _;

    let (corpus, model) = frozen_model();
    let stall_timeout = Duration::from_millis(300);
    let config = ServerConfig {
        workers: 2,
        max_pending: 4096,
        write_stall_timeout: stall_timeout,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), config).expect("bind loopback");
    let addr = handle.addr();

    // A client that sends requests and never reads a byte: its responses pile
    // up until they overrun the socket buffers, the write stalls, and the
    // server must disconnect it instead of wedging. How many responses that
    // takes is the kernel's business (socket buffers are host-tuned, tens of
    // MB on some hosts), so clamp this client's receive buffer to keep the
    // overrun cheap and send bursts of doubling size. After each burst the
    // client goes quiet until the counter moves or the stall clock has had
    // two timeouts' time to run out (a round that ends too early only costs
    // the next one): a client that kept writing would keep the server's
    // event loop reading and could hold the stall check off for as long as
    // it writes.
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    clamp_recv_buffer(&stalled);
    stalled.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    let doc: Vec<u32> = queries(corpus.vocab_size(), 1).remove(0);
    let burst_of = |requests: usize| {
        let mut burst = Vec::new();
        for seed in 0..requests as u64 {
            warplda::serve::wire::encode_request(
                &Request { seed, top_n: 8, body: RequestBody::Tokens(doc.clone()) },
                &mut burst,
            );
        }
        burst
    };
    let disconnected = || handle.counters().stalled_disconnects >= 1;
    let mut requests_to_stall = 0;
    for round in 0..8 {
        let requests = 4_000 << round;
        match stalled.write_all(&burst_of(requests)) {
            Ok(()) => requests_to_stall += requests,
            // Reset by the server: the disconnect already happened.
            Err(_) if disconnected() => break,
            Err(e) => panic!("the server stopped reading from a client it still holds: {e}"),
        }
        if wait_until(2 * stall_timeout, disconnected) {
            break;
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), disconnected),
        "stalled reader was not disconnected after {requests_to_stall} unread responses: {:?}",
        handle.counters()
    );

    // Active clients were never blocked by the stalled one.
    let mut active = Client::connect(addr).expect("connect");
    active.set_deadline(Some(Duration::from_secs(60))).expect("deadline");
    match active.query_tokens(&doc, 1, 2).expect("query") {
        Response::Ok(_) => {}
        Response::Error(e) => panic!("active client starved by a stalled reader: {e}"),
    }

    // Shutdown is prompt even with a fresh stalled reader attached — the
    // regression that motivated this PR: a worker stuck in write_all made
    // ServerHandle::shutdown (and Drop) hang indefinitely. The second reader
    // sends what it took to stall the first on this host, then the test
    // waits for the server to have answered all of it — responses nobody
    // reads — before asking it to stop.
    let answered = || {
        let c = handle.counters();
        handle.latency().count + c.shed_overload + c.deadline_expired
    };
    let owed = answered() + requests_to_stall as u64;
    let mut second = std::net::TcpStream::connect(addr).expect("connect");
    clamp_recv_buffer(&second);
    second.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    second.write_all(&burst_of(requests_to_stall)).expect("the server reads what it is sent");
    assert!(
        wait_until(Duration::from_secs(30), || answered() >= owed),
        "the server answered {} of the {owed} requests it was sent",
        answered()
    );
    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown with a stalled reader attached took {:?}",
        t0.elapsed()
    );
    drop(stalled);
    drop(second);
}

#[test]
fn client_deadline_turns_a_wedged_server_into_a_typed_timeout() {
    use warplda::serve::wire::WireError;

    // A listener that accepts and then never answers: without a deadline
    // recv() would hang forever (the old CI-timeout failure mode).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (release, released) = std::sync::mpsc::channel::<()>();
    let wedged = std::thread::spawn(move || {
        let (_stream, _) = listener.accept().expect("accept");
        // Hold the socket open and say nothing until the test lets go.
        let _ = released.recv();
    });

    let mut client =
        Client::connect_timeout(addr, Duration::from_millis(200)).expect("connect with timeout");
    client.send(&Request { seed: 1, top_n: 1, body: RequestBody::Tokens(vec![0]) }).expect("send");
    let t0 = Instant::now();
    match client.recv() {
        Err(WireError::Io(e)) => {
            assert!(
                matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "expected a timeout kind, got {e:?}"
            );
        }
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "deadline must bound recv, took {:?}",
        t0.elapsed()
    );
    drop(release);
    wedged.join().expect("wedged listener thread");
}
