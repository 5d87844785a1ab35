//! Topic discovery on a small hand-written "news wire": documents from three
//! desks (sports, technology, finance) are mixed together and WarpLDA has to
//! pull the desks apart without being told which is which.
//!
//! This mirrors the motivating use of LDA in the paper's introduction
//! (text analysis / document organization) on data small enough to read.
//! After training (through the unified [`Trainer`]), the learned model is
//! frozen into a [`TopicModel`] — counts plus vocabulary — saved and read
//! back, demonstrating the model exchange format.
//!
//! ```bash
//! cargo run --release --example news_topics
//! ```

use warplda::corpus::io::{tokenize_text, DEFAULT_STOP_WORDS};
use warplda::prelude::*;

/// Three desks, a handful of headline-like documents each. Every document is
/// repeated a few times so the counts are strong enough for a clean split.
const SPORTS: &[&str] = &[
    "The home team scored a late goal to win the championship match",
    "Star striker injured ahead of the cup final against the rival team",
    "Coach praises goalkeeper after penalty shootout victory in the league",
    "Marathon record broken as runner sprints the final kilometre",
];
const TECH: &[&str] = &[
    "New smartphone chip promises faster neural network inference on device",
    "Open source database release improves cache efficiency and query latency",
    "Cloud provider launches GPU cluster for training large language models",
    "Researchers publish cache efficient sampling algorithm for topic models",
];
const FINANCE: &[&str] = &[
    "Central bank raises interest rates as inflation pressures the market",
    "Stock index falls while bond yields climb after the earnings report",
    "Investors rotate into value shares as the currency weakens against the dollar",
    "Quarterly earnings beat forecasts sending the share price higher",
];

fn main() {
    // Build the corpus: tokenize, lower-case, drop stop words.
    let mut builder = CorpusBuilder::new();
    let mut desk_of_doc = Vec::new();
    for _repeat in 0..8 {
        for (desk, docs) in [(0usize, SPORTS), (1, TECH), (2, FINANCE)] {
            for text in docs {
                let tokens = tokenize_text(text, DEFAULT_STOP_WORDS);
                builder.push_text_doc(tokens.iter().map(String::as_str));
                desk_of_doc.push(desk);
            }
        }
    }
    let corpus = builder.build().expect("corpus builds");
    println!("corpus: {}", corpus.stats().table_row("news-wire"));

    // Train a 3-topic model through the unified pipeline (no evaluation
    // needed — the corpus is tiny and we only want the final model).
    let params = ModelParams::new(3, 0.5, 0.05);
    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(4), 2024);
    let trainer = Trainer::new(&corpus);
    trainer.train(&TrainerConfig::sampling_only(120), "news", &mut sampler);

    // Freeze the trained model (counts + vocabulary), save it and read it
    // back — the artifact downstream consumers and the query server load.
    let path = std::env::temp_dir().join(format!("warplda-news-{}.model", std::process::id()));
    TopicModel::freeze_sampler(&sampler, &corpus).save(&path).expect("model saves");
    let model = TopicModel::load(&path).expect("model loads back");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    let vocab = model.vocab().expect("vocab was embedded");
    println!("model file: {bytes} bytes on disk, vocabulary of {} words embedded", vocab.len());

    // Show the topics from the reloaded model.
    println!("\ndiscovered topics:");
    for (topic, words) in model.top_words(6).iter().enumerate() {
        let line: Vec<String> =
            words.iter().map(|&(w, c)| format!("{}({c})", vocab.word(w).unwrap_or("?"))).collect();
        println!("topic {topic:>4}: {}", line.join(" "));
    }

    // Check how well topics align with desks: majority topic per desk.
    let z = sampler.assignments();
    let mut votes = [[0u32; 3]; 3];
    for (d, &desk) in desk_of_doc.iter().enumerate() {
        for i in trainer.doc_view().doc_range(d as u32) {
            votes[desk][z[i] as usize] += 1;
        }
    }
    println!("\ndesk → topic vote matrix (rows: sports, tech, finance):");
    for (desk, row) in votes.iter().enumerate() {
        let total: u32 = row.iter().sum();
        let best = row.iter().enumerate().max_by_key(|&(_, &v)| v).map(|(t, _)| t).unwrap();
        println!(
            "  desk {desk}: {row:?}  → dominant topic {best} ({}%)",
            100 * row[best] / total.max(1)
        );
    }
}
