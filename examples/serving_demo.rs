//! End-to-end serving demo: train a tiny model, freeze it to a `WLDAMODL`
//! artifact, serve it over loopback TCP, query unseen documents, hot-swap
//! the model, and print the server's latency summary.
//!
//! ```bash
//! cargo run --release --example serving_demo
//! ```
//!
//! Measured serving numbers come from `bash benchmark/run.sh`, not from here.

use std::sync::Arc;

use warplda::prelude::*;
use warplda::serve::wire::Response;

/// Three planted themes; the model should recover one topic per theme.
fn training_corpus() -> Corpus {
    let mut b = CorpusBuilder::new();
    for _ in 0..60 {
        b.push_text_doc(["river", "lake", "water", "fish", "boat", "river", "stream"]);
        b.push_text_doc(["desert", "sand", "dune", "cactus", "heat", "desert", "sun"]);
        b.push_text_doc(["code", "bug", "compile", "test", "code", "debug", "patch"]);
    }
    b.build().expect("build corpus")
}

/// Unseen documents — none of these exact documents occur in training, and
/// some words ("swim", "scorching", "segfault") are out of vocabulary.
const QUERIES: [&str; 6] = [
    "fish swim in the cold river water",
    "a boat on the lake in a quiet stream",
    "scorching desert heat over the sand dunes",
    "a cactus in the sun baked sand",
    "the compile step hit a segfault bug in the test",
    "debug the patch before you compile the code",
];

fn main() {
    // 1. Train.
    let corpus = training_corpus();
    let params = ModelParams::paper_defaults(3);
    let trainer = Trainer::new(&corpus);
    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(4), 42);
    let log = trainer.train(&TrainerConfig::new(60).eval_every(20), &mut sampler);
    println!("trained 60 iterations, final log-likelihood {:.1}", log.final_ll());

    // 2. Freeze and persist the serving artifact, then reload it — queries
    //    run against the *loaded* model, proving the WLDAMODL round trip.
    let model_path = std::path::PathBuf::from("target/serving_demo.model");
    TopicModel::freeze_sampler(&sampler, &corpus).save(&model_path).expect("save model");
    let model = Arc::new(TopicModel::load(&model_path).expect("load model"));
    println!("frozen model: {} topics, {} words -> {}", 3, model.num_words(), model_path.display());

    // 3. Serve on loopback with two workers and query from three concurrent
    //    client threads (OOV words are dropped and counted).
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&model), ServerConfig::with_workers(2))
        .expect("bind loopback");
    let addr = handle.addr();
    println!("serving on {addr} with 2 workers");
    std::thread::scope(|scope| {
        for c in 0..3u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..40u64 {
                    let q = QUERIES[((c * 40 + round) % QUERIES.len() as u64) as usize];
                    let seed = c * 1_000 + round;
                    match client.query_text(q, seed, 2).expect("query") {
                        Response::Ok(_) => {}
                        Response::Error(e) => panic!("server rejected {q:?}: {e}"),
                    }
                }
            });
        }
    });

    // 4. Show what the model says about each unseen document.
    let vocab = model.vocab().expect("model embeds the vocabulary");
    let tops = model.top_words(3);
    let mut client = Client::connect(addr).expect("connect");
    for (i, q) in QUERIES.iter().enumerate() {
        let Response::Ok(reply) = client.query_text(q, i as u64, 1).expect("query") else {
            panic!("query rejected")
        };
        let (topic, weight) = reply.top[0];
        let words: Vec<&str> =
            tops[topic as usize].iter().map(|&(w, _)| vocab.word(w).unwrap_or("?")).collect();
        println!(
            "  {q:?}\n    -> topic {topic} (θ = {weight:.2}, {} OOV dropped): {}",
            reply.oov_dropped,
            words.join(" ")
        );
    }

    // 5. Hot swap: re-freeze the (further trained) sampler and promote it
    //    without restarting the server or dropping the open connection.
    for _ in 0..10 {
        sampler.run_iteration();
    }
    handle.swap_model(Arc::new(TopicModel::freeze_sampler(&sampler, &corpus)));
    let Response::Ok(reply) = client.query_text(QUERIES[0], 7, 1).expect("query") else {
        panic!("query rejected after swap")
    };
    println!("hot-swapped model; same connection now serves epoch {}", reply.model_epoch);
    assert_eq!(reply.model_epoch, 1, "swap must be visible");

    // 6. The server's own view of the latencies it delivered.
    let stats = handle.latency();
    println!(
        "latency over {} requests: mean {:.0}µs, p50 {}µs, p95 {}µs, p99 {}µs, max {}µs",
        stats.count, stats.mean_us, stats.p50_us, stats.p95_us, stats.p99_us, stats.max_us
    );
    handle.shutdown();
}
