//! Direct calls into single layers, sized like the workload (its K, its row
//! length, its messages). Traced runs only: these feed per-layer metrics
//! that say which layer an end-to-end change came from.

use std::hint::black_box;
use std::time::Instant;

use crate::alloc_count;
use crate::load::{Query, QueryClass, Rng64};
use crate::spec::{Metrics, Run, PARALLELISM};
use crate::stats::median;
use crate::sut::{
    begin_frame, decode_message, decode_response, encode_message, encode_ok_response,
    encode_request, end_frame, new_rng, read_corpus, split_seed, tokenize_query_into, write_corpus,
    AliasBuildScratch, CacheProbe, CountPool, Decoder, Delta, Encoder, FrameBuffer, InferConfig,
    InferScratch, InferenceEngine, LdaGenerator, Message, OovPolicy, Request, RequestBody, Sampler,
    Setup, SparseAliasTable, SyntheticConfig, TopicCounts, TopicModel, WarpLda,
};
use crate::trace::Tracer;
use crate::train::Trained;

/// Median over a few batches of `batch()`'s seconds divided by `units`, in
/// nanoseconds per unit.
fn ns_per(units: usize, mut batch: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..5).map(|_| batch()).collect();
    median(&runs) * 1e9 / units as f64
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

impl Run<'_> {
    /// Loop length of a probe: a tenth under `--smoke`, which tests the
    /// harness and not the numbers.
    fn reps(&self, n: usize) -> usize {
        if self.smoke {
            n / 10
        } else {
            n
        }
    }
}

pub fn run(
    inp: &Run<'_>,
    trained: &Trained,
    model: &TopicModel,
    pool: &[Query],
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let span = tr.begin("probes");
    core_counts(inp, m);
    sampling(inp, trained, m);
    corpus_codec(inp, pool, m);
    net_frames(inp, m);
    dist_messages(inp, m);
    serve_direct(inp, model, pool, m);
    cachesim(inp, tr, m);
    tr.end(span);
}

fn core_counts(inp: &Run<'_>, m: &mut Metrics) {
    let k = inp.params.num_topics;
    let len = inp.workload.mean_len;
    let mut rng = Rng64::new(inp.seed);
    let topics: Vec<u32> = (0..len).map(|_| rng.between(0, k - 1) as u32).collect();
    let mut pool = CountPool::new(k);
    let reps = inp.reps(2000);

    // One row's life in the hash path: clear, count every token, read every
    // token's count back.
    m.layer(
        "core.hashcounts_ns_per_op",
        ns_per(reps * 2 * len, || {
            secs(|| {
                for _ in 0..reps {
                    let table = pool.hash_for(len);
                    for &t in &topics {
                        table.increment(t);
                    }
                    let mut sum = 0u32;
                    for &t in &topics {
                        sum = sum.wrapping_add(table.get(t));
                    }
                    black_box(sum);
                }
            })
        }),
    );
    // The dense path's clear between rows: the time of (clear + count a row)
    // less the time of (count a row) alone.
    let with_clear = ns_per(reps, || {
        secs(|| {
            for _ in 0..reps {
                let table = pool.dense();
                for &t in &topics {
                    table.increment(t);
                }
                black_box(table.get(topics[0]));
            }
        })
    });
    let without = ns_per(reps, || {
        let table = pool.dense();
        secs(|| {
            for _ in 0..reps {
                for &t in &topics {
                    table.increment(t);
                }
                black_box(table.get(topics[0]));
            }
        })
    });
    m.layer("core.densecounts_clear_ns", (with_clear - without).max(0.0));
}

fn sampling(inp: &Run<'_>, trained: &Trained, m: &mut Metrics) {
    // Per-word topic lists as training left them: what the word phase
    // rebuilds an alias table from, once per word per iteration.
    let state = trained.sampler.snapshot_state(inp.corpus, &trained.doc_view, &trained.word_view);
    let lists: Vec<Vec<(u32, f64)>> = (0..state.num_words() as u32)
        .map(|w| state.word_counts(w).to_pairs())
        .filter(|pairs| !pairs.is_empty())
        .take(4000)
        .map(|pairs| pairs.into_iter().map(|(t, c)| (t, f64::from(c) + inp.params.beta)).collect())
        .collect();
    let entries: usize = lists.iter().map(Vec::len).sum();
    let widest = lists.iter().map(Vec::len).max().unwrap_or(1);
    let mut table = SparseAliasTable::with_capacity(widest);
    let mut scratch = AliasBuildScratch::with_capacity(widest);
    m.layer(
        "sampling.alias_rebuild_ns_per_entry",
        ns_per(entries.max(1), || {
            secs(|| {
                for list in &lists {
                    table.rebuild(list, &mut scratch);
                    black_box(table.len());
                }
            })
        }),
    );
    let draws = inp.reps(1_000_000);
    table.rebuild(&lists[lists.len() / 2], &mut scratch);
    let mut rng = new_rng(inp.seed);
    m.layer(
        "sampling.alias_draw_ns",
        ns_per(draws, || {
            secs(|| {
                let mut sum = 0u32;
                for _ in 0..draws {
                    sum = sum.wrapping_add(table.sample(&mut rng));
                }
                black_box(sum);
            })
        }),
    );
    // One stream per row and per column per iteration.
    m.layer(
        "sampling.rng_stream_init_ns",
        ns_per(draws, || {
            secs(|| {
                for entity in 0..draws as u64 {
                    black_box(new_rng(split_seed(inp.seed, entity)));
                }
            })
        }),
    );
}

fn corpus_codec(inp: &Run<'_>, pool: &[Query], m: &mut Metrics) {
    let mut bytes = Vec::new();
    let write_s = secs(|| {
        write_corpus(&mut Encoder::new(&mut bytes), inp.corpus).expect("corpus encodes");
    });
    m.layer("corpus.codec_write_mb_per_s", mb_per_s(bytes.len(), write_s));
    let mut decoded = None;
    let read_s = secs(|| {
        decoded = Some(read_corpus(&mut Decoder::new(&mut &bytes[..])).expect("corpus decodes"));
    });
    m.check(
        decoded.is_some_and(|c| c.num_tokens() == inp.corpus.num_tokens()),
        "corpus codec did not round-trip the token count",
    );
    m.layer("corpus.codec_read_mb_per_s", mb_per_s(bytes.len(), read_s));

    let texts: Vec<&Query> = pool.iter().filter(|q| q.text.is_some()).collect();
    let tokens: usize = texts.iter().map(|q| q.words.len()).sum();
    let (mut stage, mut ids) = (String::new(), Vec::new());
    let passes = inp.reps(20);
    m.layer(
        "corpus.tokenize_ns_per_token",
        ns_per(tokens * passes, || {
            secs(|| {
                for _ in 0..passes {
                    for q in &texts {
                        let text = q.text.as_deref().expect("filtered on text");
                        let oov = tokenize_query_into(
                            inp.corpus.vocab(),
                            text,
                            OovPolicy::Skip,
                            &mut stage,
                            &mut ids,
                        );
                        black_box((oov.ok(), ids.len()));
                    }
                }
            })
        }),
    );
}

/// Frames `payload` `reps` times into `out`, then reads them all back through
/// a `FrameBuffer` over an in-memory reader. Returns (encode s, decode s).
fn frame_round_trip(payload: &[u8], reps: usize) -> (f64, f64) {
    let mut out = Vec::with_capacity(reps * (payload.len() + 4));
    let encode_s = secs(|| {
        for _ in 0..reps {
            let at = begin_frame(&mut out);
            out.extend_from_slice(payload);
            end_frame(&mut out, at);
        }
    });
    let mut buf = FrameBuffer::new(1 << 16);
    let mut reader = &out[..];
    let mut seen = 0usize;
    let decode_s = secs(|| {
        while seen < reps {
            match buf.take_frame().expect("well-formed frames") {
                Some(range) => {
                    black_box(buf.payload(range).len());
                    seen += 1;
                }
                None => {
                    buf.fill_from(&mut reader).expect("in-memory reads cannot fail");
                }
            }
        }
    });
    (encode_s, decode_s)
}

fn net_frames(inp: &Run<'_>, m: &mut Metrics) {
    let big = vec![0xa5u8; 1 << 20];
    let runs: Vec<(f64, f64)> = (0..5).map(|_| frame_round_trip(&big, 16)).collect();
    let total = 16 * big.len();
    m.layer(
        "net.frame_encode_mb_per_s",
        mb_per_s(total, median(&runs.iter().map(|r| r.0).collect::<Vec<_>>())),
    );
    m.layer(
        "net.frame_decode_mb_per_s",
        mb_per_s(total, median(&runs.iter().map(|r| r.1).collect::<Vec<_>>())),
    );
    let small = inp.reps(100_000);
    m.layer(
        "net.small_frame_ns",
        ns_per(small, || {
            let (e, d) = frame_round_trip(&[0x5a; 64], small);
            e + d
        }),
    );
}

fn dist_messages(inp: &Run<'_>, m: &mut Metrics) {
    // A phase delta as one of the two workers sends it: the records of half
    // the corpus (stride M + 1) plus a partial c_k.
    let stride = inp.config.mh_steps + 1;
    let words = inp.corpus.num_tokens() as usize / PARALLELISM * stride;
    let k = inp.params.num_topics as u32;
    let delta = Message::WordDelta(Delta {
        worker_id: 0,
        epoch: 1,
        records: (0..words as u32).map(|i| i % k).collect(),
        partial_ck: vec![1; k as usize],
    });
    let mut payload = Vec::new();
    let encode_s =
        median(&(0..3).map(|_| secs(|| payload = encode_message(&delta))).collect::<Vec<_>>());
    let decode_s = median(
        &(0..3)
            .map(|_| secs(|| drop(black_box(decode_message(&payload).expect("delta decodes")))))
            .collect::<Vec<_>>(),
    );
    m.layer("dist.delta_encode_mb_per_s", mb_per_s(payload.len(), encode_s));
    m.layer("dist.delta_decode_mb_per_s", mb_per_s(payload.len(), decode_s));

    let setup = Message::Setup(Box::new(Setup {
        workers: PARALLELISM as u32,
        worker_id: 0,
        seed: inp.seed,
        num_topics: inp.params.num_topics as u64,
        alpha: inp.params.alpha,
        beta: inp.params.beta,
        mh_steps: inp.config.mh_steps as u64,
        use_hash_counts: inp.config.use_hash_counts,
        corpus: inp.corpus.clone(),
        resume: None,
        heartbeat_interval_ms: 250,
        faults: Vec::new(),
    }));
    m.layer(
        "dist.setup_encode_s",
        median(
            &(0..3).map(|_| secs(|| drop(black_box(encode_message(&setup))))).collect::<Vec<_>>(),
        ),
    );
}

fn serve_direct(inp: &Run<'_>, model: &TopicModel, pool: &[Query], m: &mut Metrics) {
    let engine = InferenceEngine::new(model, InferConfig::default());
    let mut scratch = InferScratch::new();
    let mut infer_class = |class: QueryClass| {
        let queries: Vec<&Query> = pool.iter().filter(|q| q.class == class).take(200).collect();
        let tokens: usize = queries.iter().map(|q| q.words.len()).sum();
        ns_per(tokens, || {
            secs(|| {
                for q in &queries {
                    engine.infer_into(&q.words, q.seed, &mut scratch);
                    black_box(scratch.theta()[0]);
                }
            })
        }) / 1e3
    };
    m.layer("serve.infer_us_per_token_short", infer_class(QueryClass::Short));
    m.layer("serve.infer_us_per_token_long", infer_class(QueryClass::Long));
    // Steady state: the scratch has seen the longest query already.
    let before = alloc_count();
    for q in pool {
        engine.infer_into(&q.words, q.seed, &mut scratch);
    }
    m.layer("serve.allocs_per_request", (alloc_count() - before) as f64 / pool.len() as f64);

    let requests: Vec<Request> = pool
        .iter()
        .map(|q| Request {
            seed: q.seed,
            top_n: crate::load::TOP_N,
            body: match &q.text {
                Some(t) => RequestBody::Text(t.clone()),
                None => RequestBody::Tokens(q.words.clone()),
            },
        })
        .collect();
    let mut out = Vec::new();
    m.layer(
        "serve.wire_encode_ns",
        ns_per(requests.len(), || {
            secs(|| {
                for r in &requests {
                    out.clear();
                    encode_request(r, &mut out);
                    black_box(out.len());
                }
            })
        }),
    );
    engine.infer_into(&pool[0].words, pool[0].seed, &mut scratch);
    let mut reply = Vec::new();
    encode_ok_response(&mut reply, 0, 0, 0, scratch.theta(), scratch.top_topics());
    let decodes = inp.reps(5000);
    m.layer(
        "serve.wire_decode_ns",
        ns_per(decodes, || {
            secs(|| {
                for _ in 0..decodes {
                    drop(black_box(decode_response(&reply[4..])));
                }
            })
        }),
    );
}

/// Modelled cache misses of the serial sampler on a tenth-scale copy of the
/// workload (the simulator is slow; the count vectors it models depend on K
/// and row length, not on corpus size). Exact for a seed.
fn cachesim(inp: &Run<'_>, tr: &mut Tracer, m: &mut Metrics) {
    let scale = if inp.smoke { 100 } else { 10 };
    let small = LdaGenerator::new(SyntheticConfig {
        num_docs: (inp.workload.docs / scale).max(20),
        ..inp.synth
    })
    .generate();
    let mut sampler =
        WarpLda::with_probe(&small, inp.params, inp.config, inp.seed, CacheProbe::ivy_bridge());
    const ITERS: usize = 2;
    for _ in 0..ITERS {
        tr.time("cachesim.WarpLda.run_iteration", || sampler.run_iteration());
    }
    let stats = sampler.probe().stats();
    let visits = (small.num_tokens() as usize * ITERS) as f64;
    m.layer("cachesim.l1_miss_per_token", (stats.accesses - stats.l1_hits) as f64 / visits);
    m.layer("cachesim.l3_miss_per_token", stats.memory_accesses as f64 / visits);
}
