//! Table 3: statistics of the evaluation datasets. Prints the original
//! statistics quoted in the paper next to the scaled synthetic presets this
//! reproduction trains on (`warplda_corpus::synth` gives the substitution
//! rationale).

use warplda::prelude::*;
use warplda_bench::full_scale;

fn main() {
    println!("Table 3: dataset statistics (paper originals vs scaled synthetic presets)\n");
    println!("{:<24} {:>14} {:>16} {:>10} {:>8}   source", "dataset", "D", "T", "V", "T/D");
    for preset in
        [DatasetPreset::NyTimesLike, DatasetPreset::PubMedLike, DatasetPreset::ClueWebSubsetLike]
    {
        if let Some((d, t, v, td)) = preset.paper_stats() {
            println!(
                "{:<24} {:>14} {:>16} {:>10} {:>8.0}   paper (original)",
                preset.name(),
                d,
                t,
                v,
                td
            );
        }
        let corpus = if full_scale() { preset.generate() } else { preset.generate_scaled(4) };
        let s = corpus.stats();
        println!(
            "{:<24} {:>14} {:>16} {:>10} {:>8.1}   synthetic preset{}",
            format!("  └ {}", preset.name()),
            s.num_docs,
            s.num_tokens,
            s.vocab_size,
            s.mean_doc_len,
            if full_scale() { "" } else { " (quick, --full for preset size)" }
        );
        println!(
            "{:<24} {:>14} {:>16} {:>10} {:>8}   top word {:.3}% of tokens, max doc {} tokens",
            "",
            "",
            "",
            "",
            "",
            s.top_word_fraction * 100.0,
            s.max_doc_len
        );
    }
    println!("\nThe presets preserve the mean document length T/D and the Zipfian skew of the");
    println!("originals while scaling D and V down to laptop size.");
}
