//! End-to-end integration test: WarpLDA recovers planted topic structure from
//! a corpus generated by the LDA generative model, and the whole public API
//! (corpus generation → training → evaluation → topic inspection) works
//! through the facade crate alone.

use warplda::prelude::*;

/// Generates a corpus with clearly separated planted topics: each topic owns a
/// disjoint slice of the vocabulary.
fn planted_corpus(num_topics: usize, docs: usize, words_per_topic: usize, seed: u64) -> Corpus {
    use warplda::sampling::{new_rng, Dice};
    let mut rng = new_rng(seed);
    let mut token_docs = Vec::with_capacity(docs);
    for d in 0..docs {
        // Each document mixes two adjacent topics so the problem is not trivial.
        let main_topic = d % num_topics;
        let other_topic = (d + 1) % num_topics;
        let len = 60;
        let mut tokens = Vec::with_capacity(len);
        for _ in 0..len {
            let topic = if rng.flip(0.8) { main_topic } else { other_topic };
            let word = topic * words_per_topic + rng.dice(words_per_topic);
            tokens.push(word as u32);
        }
        token_docs.push(tokens);
    }
    Corpus::from_token_docs(token_docs)
}

#[test]
fn warplda_recovers_planted_topics() {
    let num_topics = 4;
    let words_per_topic = 25;
    let corpus = planted_corpus(num_topics, 120, words_per_topic, 99);
    let params = ModelParams::new(num_topics, 0.5, 0.05);
    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(4), 7);

    let trainer = Trainer::new(&corpus);
    let (doc_view, word_view) = (trainer.doc_view(), trainer.word_view());
    let ll_start = sampler.log_likelihood(&corpus, doc_view, word_view);
    let log = trainer.train(&TrainerConfig::new(80).eval_every(0), &mut sampler);
    let ll_end = log.final_ll();
    assert!(ll_end > ll_start, "training must improve the likelihood: {ll_start} -> {ll_end}");

    // Topic purity: for each learned topic, the planted topic of its top words
    // should be overwhelmingly a single one.
    let state = sampler.snapshot_state(&corpus, doc_view, word_view);
    let tops = top_words(&state, 10);
    let mut used_planted = std::collections::HashSet::new();
    let mut pure_topics = 0;
    for list in &tops {
        if list.is_empty() {
            continue;
        }
        let planted: Vec<usize> = list.iter().map(|&(w, _)| w as usize / words_per_topic).collect();
        let first = planted[0];
        let agree = planted.iter().filter(|&&p| p == first).count();
        if agree * 10 >= planted.len() * 8 {
            pure_topics += 1;
            used_planted.insert(first);
        }
    }
    assert!(
        pure_topics >= num_topics - 1,
        "at least {} of {num_topics} learned topics should be pure, got {pure_topics}",
        num_topics - 1
    );
    assert!(
        used_planted.len() >= num_topics - 1,
        "learned topics should cover distinct planted topics, covered {used_planted:?}"
    );
}

#[test]
fn perplexity_decreases_during_training() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 3);
    let trainer = Trainer::new(&corpus);

    let log = trainer.train(&TrainerConfig::new(40).eval_every(10), &mut sampler);
    let perplexities: Vec<f64> = log
        .eval_points()
        .map(|p| {
            perplexity_per_token(p.log_likelihood.unwrap(), corpus.num_tokens())
                .expect("corpus is not empty")
        })
        .collect();
    assert_eq!(perplexities.len(), 4);
    assert!(
        perplexities.last().unwrap() < perplexities.first().unwrap(),
        "perplexity should decrease: {perplexities:?}"
    );
}

#[test]
fn parallel_sampler_under_the_trainer_is_the_serial_sampler() {
    let corpus = DatasetPreset::Tiny.generate_scaled(2);
    let params = ModelParams::paper_defaults(10);
    let trainer = Trainer::new(&corpus);
    let schedule = TrainerConfig::new(30).eval_every(0);

    let mut serial = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5);
    let mut parallel = ParallelWarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 5, 4);
    let ll_s = trainer.train(&schedule, &mut serial).final_ll();
    let ll_p = trainer.train(&schedule, &mut parallel).final_ll();
    assert_eq!(serial.assignments(), parallel.assignments());
    assert_eq!(ll_s.to_bits(), ll_p.to_bits(), "parallel ({ll_p}) vs serial ({ll_s})");
}

#[test]
fn uci_round_trip_preserves_training_behaviour() {
    // Write the corpus in the UCI format, read it back, and verify training on
    // the round-tripped corpus is identical (same seed → same assignments).
    use warplda::corpus::io::{read_uci_bag_of_words, write_uci_bag_of_words};
    let corpus = DatasetPreset::Tiny.generate_scaled(8);
    let mut buf = Vec::new();
    write_uci_bag_of_words(&corpus, &mut buf).expect("write succeeds");
    let reread = read_uci_bag_of_words(buf.as_slice(), None).expect("read succeeds");
    assert_eq!(reread.num_tokens(), corpus.num_tokens());
    assert_eq!(reread.num_docs(), corpus.num_docs());

    let params = ModelParams::paper_defaults(8);
    // Note: the round-tripped corpus stores tokens in sorted-word order inside
    // each document, so per-token assignments are not comparable; the learned
    // counts must still be of the same quality.
    let schedule = TrainerConfig::new(20).eval_every(0);
    let mut a = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 11);
    let mut b = WarpLda::new(&reread, params, WarpLdaConfig::default(), 11);
    let ll_a = Trainer::new(&corpus).train(&schedule, &mut a).final_ll();
    let ll_b = Trainer::new(&reread).train(&schedule, &mut b).final_ll();
    assert!((ll_a - ll_b).abs() < 0.05 * ll_a.abs(), "{ll_a} vs {ll_b}");
}
