//! Distributed-layout consistency: the P×P grid partition that the
//! multi-process backend shards the corpus by must cover every token and
//! keep both phases balanced.

use warplda::prelude::*;

fn corpus() -> Corpus {
    DatasetPreset::Tiny.generate_scaled(2)
}

#[test]
fn grid_partition_is_balanced_and_complete() {
    let corpus = corpus();
    for workers in [2usize, 4, 8] {
        let grid = GridPartition::build(&corpus, workers);
        assert_eq!(grid.total_tokens(), corpus.num_tokens());
        assert!(
            grid.doc_phase_imbalance() < 0.1,
            "doc-phase imbalance too high for {workers} workers: {}",
            grid.doc_phase_imbalance()
        );
        assert!(
            grid.word_phase_imbalance() < 0.2,
            "word-phase imbalance too high for {workers} workers: {}",
            grid.word_phase_imbalance()
        );
    }
}
