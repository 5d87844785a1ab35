//! The P×P grid partition of the token matrix (Section 5.3.2).
//!
//! Distributed WarpLDA gives each of the `P` machines one *document shard*
//! (used during document phases) and one *word shard* (used during word
//! phases). Conceptually this cuts the D×V token matrix into a P×P grid:
//! cell `(i, j)` holds the tokens whose document belongs to machine `i` and
//! whose word belongs to machine `j`. Tokens on the diagonal never move;
//! every off-diagonal token must be shipped to the other owner at each phase
//! switch, which is exactly the all-to-all volume the paper's communication
//! model charges.

use warplda_corpus::{Corpus, DocId, WordId};
use warplda_sparse::{imbalance_index, partition_by_size, partition_loads, PartitionStrategy};

/// A P×P grid partition of the corpus's documents and words.
#[derive(Debug, Clone)]
pub struct GridPartition {
    workers: usize,
    /// `doc_owner[d]` = machine owning document `d` in doc phases.
    doc_owner: Vec<u32>,
    /// `word_owner[w]` = machine owning word `w` in word phases.
    word_owner: Vec<u32>,
    /// Token count of each grid cell, `cells[i * workers + j]` for documents
    /// of machine `i` and words of machine `j`.
    cells: Vec<u64>,
    /// Per-machine token loads in doc phases (row sums of `cells`).
    doc_loads: Vec<u64>,
    /// Per-machine token loads in word phases (column sums of `cells`).
    word_loads: Vec<u64>,
    total_tokens: u64,
}

impl GridPartition {
    /// Builds the grid for `workers` machines, sharding documents and words
    /// independently by the greedy strategy (the paper's, Figure 4).
    /// Document sizes and the cells come from the corpus's own token arrays,
    /// word sizes from one counting pass over them. This is the grid a
    /// [`ProcessCluster`](crate::ProcessCluster) runs on: the coordinator and
    /// every worker rebuild it on their own and must arrive at the same one,
    /// so the strategy is spelled here and nowhere else.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn build(corpus: &Corpus, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let docs = corpus.docs();
        let doc_sizes: Vec<u64> = docs.iter().map(|doc| doc.len() as u64).collect();
        let word_sizes = corpus.term_frequencies();
        let shard = |sizes: &[u64]| partition_by_size(sizes, workers, PartitionStrategy::Greedy);
        let (doc_owner, word_owner) = (shard(&doc_sizes), shard(&word_sizes));

        let mut cells = vec![0u64; workers * workers];
        for (doc, &owner) in docs.iter().zip(&doc_owner) {
            let row = &mut cells[owner as usize * workers..][..workers];
            for &w in doc.tokens() {
                row[word_owner[w as usize] as usize] += 1;
            }
        }

        let doc_loads = partition_loads(&doc_sizes, &doc_owner, workers);
        let word_loads = partition_loads(&word_sizes, &word_owner, workers);
        debug_assert_eq!(doc_loads.iter().sum::<u64>(), corpus.num_tokens());
        debug_assert_eq!(word_loads.iter().sum::<u64>(), corpus.num_tokens());

        Self {
            workers,
            doc_owner,
            word_owner,
            cells,
            doc_loads,
            word_loads,
            total_tokens: corpus.num_tokens(),
        }
    }

    /// Number of machines `P`.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Machine owning document `d` during doc phases.
    pub fn doc_owner(&self, d: DocId) -> u32 {
        self.doc_owner[d as usize]
    }

    /// Machine owning word `w` during word phases.
    pub fn word_owner(&self, w: WordId) -> u32 {
        self.word_owner[w as usize]
    }

    /// Token count of grid cell `(doc_machine, word_machine)`.
    pub(crate) fn cell_tokens(&self, doc_machine: usize, word_machine: usize) -> u64 {
        self.cells[doc_machine * self.workers + word_machine]
    }

    /// Total tokens across all cells (= the corpus token count).
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Per-machine token loads during doc phases.
    pub fn doc_phase_loads(&self) -> &[u64] {
        &self.doc_loads
    }

    /// Per-machine token loads during word phases.
    pub fn word_phase_loads(&self) -> &[u64] {
        &self.word_loads
    }

    /// Imbalance index `max/mean - 1` of the doc-phase loads (0 = perfect).
    pub fn doc_phase_imbalance(&self) -> f64 {
        imbalance_index(&self.doc_loads)
    }

    /// Imbalance index `max/mean - 1` of the word-phase loads (0 = perfect).
    pub fn word_phase_imbalance(&self) -> f64 {
        imbalance_index(&self.word_loads)
    }

    /// Number of tokens that must cross the network at one phase switch: the
    /// tokens in off-diagonal cells, whose doc-phase and word-phase owners
    /// differ. Each WarpLDA iteration switches phases twice (doc → word and
    /// word → doc), so an iteration ships twice this many tokens.
    pub fn tokens_exchanged_per_phase_switch(&self) -> u64 {
        let mut off_diagonal = 0u64;
        for i in 0..self.workers {
            for j in 0..self.workers {
                if i != j {
                    off_diagonal += self.cells[i * self.workers + j];
                }
            }
        }
        off_diagonal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_corpus::DatasetPreset;

    #[test]
    fn cells_partition_every_token_exactly_once() {
        let corpus = DatasetPreset::Tiny.generate_scaled(2);
        for workers in [1usize, 2, 3, 4, 8, 16] {
            let grid = GridPartition::build(&corpus, workers);
            let cell_sum: u64 = (0..workers)
                .flat_map(|i| (0..workers).map(move |j| (i, j)))
                .map(|(i, j)| grid.cell_tokens(i, j))
                .sum();
            assert_eq!(cell_sum, corpus.num_tokens(), "workers = {workers}");
            assert_eq!(grid.total_tokens(), corpus.num_tokens());
            assert_eq!(grid.doc_phase_loads().iter().sum::<u64>(), corpus.num_tokens());
            assert_eq!(grid.word_phase_loads().iter().sum::<u64>(), corpus.num_tokens());
        }
    }

    #[test]
    fn loads_are_row_and_column_sums_of_the_grid() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let workers = 4;
        let grid = GridPartition::build(&corpus, workers);
        for m in 0..workers {
            let row: u64 = (0..workers).map(|j| grid.cell_tokens(m, j)).sum();
            let col: u64 = (0..workers).map(|i| grid.cell_tokens(i, m)).sum();
            assert_eq!(row, grid.doc_phase_loads()[m]);
            assert_eq!(col, grid.word_phase_loads()[m]);
        }
    }

    #[test]
    fn owners_agree_with_cells() {
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let grid = GridPartition::build(&corpus, 3);
        // Recount cells straight from the owner maps.
        let mut recount = [0u64; 9];
        for (d, doc) in corpus.iter() {
            for &w in doc.tokens() {
                let i = grid.doc_owner(d) as usize;
                let j = grid.word_owner(w) as usize;
                recount[i * 3 + j] += 1;
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(grid.cell_tokens(i, j), recount[i * 3 + j]);
            }
        }
    }

    #[test]
    fn single_machine_exchanges_nothing() {
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let grid = GridPartition::build(&corpus, 1);
        assert_eq!(grid.tokens_exchanged_per_phase_switch(), 0);
        assert_eq!(grid.doc_phase_imbalance(), 0.0);
        assert_eq!(grid.word_phase_imbalance(), 0.0);
    }

    #[test]
    fn greedy_keeps_phases_balanced() {
        let corpus = DatasetPreset::Tiny.generate_scaled(2);
        for workers in [2usize, 4, 8] {
            let grid = GridPartition::build(&corpus, workers);
            assert!(
                grid.doc_phase_imbalance() < 0.1,
                "doc imbalance at {workers} workers: {}",
                grid.doc_phase_imbalance()
            );
            assert!(
                grid.word_phase_imbalance() < 0.2,
                "word imbalance at {workers} workers: {}",
                grid.word_phase_imbalance()
            );
        }
    }

    #[test]
    fn the_cluster_grid_balances_words_like_documents() {
        let corpus = DatasetPreset::Tiny.generate();
        for workers in [2usize, 3, 4] {
            let grid = GridPartition::build(&corpus, workers);
            assert!(
                grid.word_phase_imbalance() < 0.01,
                "word imbalance at {workers} workers: {}",
                grid.word_phase_imbalance()
            );
        }
    }

    #[test]
    fn off_diagonal_volume_is_bounded_by_total() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [2usize, 5, 8] {
            let grid = GridPartition::build(&corpus, workers);
            let crossing = grid.tokens_exchanged_per_phase_switch();
            assert!(crossing <= grid.total_tokens());
            // With more than one machine some token crosses in practice: the
            // diagonal holds ~1/P of the mass for independent assignments.
            assert!(crossing > 0, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let corpus = DatasetPreset::Tiny.generate_scaled(16);
        let _ = GridPartition::build(&corpus, 0);
    }
}
