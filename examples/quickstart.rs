//! Quickstart: train WarpLDA on a small synthetic corpus through the unified
//! [`Trainer`] pipeline, checkpoint the run, resume it, and print the topics.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use warplda::prelude::*;

fn main() {
    // 1. Get a corpus. Here we generate one from the LDA generative model so
    //    there are planted topics to recover; swap in
    //    `warplda::corpus::io::read_uci_bag_of_words` to train on the real
    //    NYTimes/PubMed files if you have them.
    let corpus = DatasetPreset::Tiny.generate();
    let stats = corpus.stats();
    println!("corpus: {}", stats.table_row("tiny-synthetic"));

    // 2. Configure the model. The paper uses alpha = 50/K and beta = 0.01.
    let num_topics = 10;
    let params = ModelParams::paper_defaults(num_topics);
    let config = WarpLdaConfig::with_mh_steps(2);

    // 3. Train through the Trainer: 50 iterations, likelihood every 10
    //    (computed on a background worker, overlapped with sampling), and a
    //    checkpoint every 25 iterations.
    let ckpt_dir = std::path::PathBuf::from("target/quickstart-checkpoints");
    let trainer = Trainer::new(&corpus);
    let schedule = TrainerConfig::new(50).eval_every(10).checkpoint_into(&ckpt_dir, 25);
    let mut sampler = WarpLda::new(&corpus, params, config, 42);
    let outcome = trainer
        .train_checkpointed(&schedule, "quickstart", &mut sampler, Some(corpus.vocab()))
        .expect("training with checkpoints succeeds");
    for p in outcome.log.eval_points() {
        let ppl = perplexity_per_token(p.log_likelihood.unwrap(), corpus.num_tokens())
            .expect("corpus is not empty");
        println!(
            "iteration {:>3}: log-likelihood {:.1}, perplexity/token {ppl:.1}",
            p.iteration,
            p.log_likelihood.unwrap()
        );
    }
    println!(
        "mean sampling throughput: {:.2} Mtoken/s; checkpoints: {:?}",
        outcome.log.mean_tokens_per_sec() / 1e6,
        outcome.checkpoints
    );
    // One row pointer plus a record of M + 1 topic ids per token, one byte
    // per id up to 256 topics; the rest is O(D + V + K).
    println!(
        "resident bytes/token: {:.2} ({} bytes held for {} tokens)",
        sampler.heap_bytes() as f64 / corpus.num_tokens() as f64,
        sampler.heap_bytes(),
        corpus.num_tokens()
    );

    // 4. Resume from the mid-run checkpoint: load it into a *fresh* sampler
    //    and continue the remaining 25 iterations. The result is
    //    bit-identical to the uninterrupted 50-iteration run above.
    let midpoint = &outcome.checkpoints[0];
    let mut resumed = WarpLda::new(&corpus, params, config, 42);
    trainer
        .resume(
            &TrainerConfig::new(25).eval_every(25),
            "quickstart-resume",
            &mut resumed,
            midpoint,
            None, // checkpoints of the resumed run reuse the embedded vocabulary
        )
        .expect("resume succeeds");
    assert_eq!(resumed.assignments(), sampler.assignments(), "resume is bit-identical");
    println!("\nresumed from {} and reproduced the run bit-for-bit", midpoint.display());

    // 5. Inspect the learned topics.
    let state = sampler.snapshot_state(&corpus, trainer.doc_view(), trainer.word_view());
    println!("\ntop words per topic:");
    print!("{}", format_topics(&corpus, &state, 8));
}
