//! The deterministic per-worker exchange plan of multi-process training.
//!
//! The coordinator and every worker build the *same* [`ShardPlan`] from the
//! same inputs (the replica's token-matrix structure plus the
//! [`GridPartition`]), so entry lists never cross the wire: a delta or sync
//! frame carries only packed records, and both ends already agree — in order
//! — on which entries those records belong to.
//!
//! Per worker `i` the plan holds:
//!
//! * `owned_words[i]` / `owned_docs[i]` — the columns/rows worker `i`
//!   advances in the word/doc phase.
//! * `word_delta_entries[i]` / `doc_delta_entries[i]` — the entries whose
//!   records worker `i` *reports* after each phase (all entries of its owned
//!   columns/rows).
//! * `word_sync_entries[i]` — the entries worker `i` must *receive* after
//!   the word phase: entries of its owned rows whose word lives on another
//!   worker (it needs their fresh word-phase output before its doc phase).
//! * `doc_sync_entries[i]` — the mirror image after the doc phase: entries
//!   of its owned columns whose document lives elsewhere.
//!
//! All lists are in ascending entity order (entities ascending, entries in
//! matrix order within an entity), which is what makes the plan identical on
//! every process without coordination.

use warplda_core::WarpLda;

use crate::grid::GridPartition;

/// Per-worker ownership and exchange entry lists (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    workers: usize,
    /// Columns worker `i` advances in word phases.
    pub owned_words: Vec<Vec<u32>>,
    /// Rows worker `i` advances in doc phases.
    pub owned_docs: Vec<Vec<u32>>,
    /// Entries worker `i` reports after a word phase.
    pub word_delta_entries: Vec<Vec<u32>>,
    /// Entries worker `i` reports after a doc phase.
    pub doc_delta_entries: Vec<Vec<u32>>,
    /// Entries worker `i` receives at the word→doc boundary.
    pub word_sync_entries: Vec<Vec<u32>>,
    /// Entries worker `i` receives at the doc→word boundary.
    pub doc_sync_entries: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Builds the plan for `grid.workers()` workers over `sampler`'s matrix.
    /// Deterministic: every process building from the same corpus and worker
    /// count gets the identical plan.
    pub fn build(sampler: &WarpLda, grid: &GridPartition) -> Self {
        let p = grid.workers();
        let mut owned_words: Vec<Vec<u32>> = vec![Vec::new(); p];
        for w in 0..sampler.num_words() as u32 {
            owned_words[grid.word_owner(w) as usize].push(w);
        }
        let mut owned_docs: Vec<Vec<u32>> = vec![Vec::new(); p];
        for d in 0..sampler.num_docs() as u32 {
            owned_docs[grid.doc_owner(d) as usize].push(d);
        }

        let mut word_delta_entries: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut doc_sync_entries: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (i, words) in owned_words.iter().enumerate() {
            for &w in words {
                let range = sampler.col_entry_range(w);
                word_delta_entries[i].extend(range.clone().map(|e| e as u32));
                for (e, &d) in range.zip(sampler.col_entry_rows(w)) {
                    if grid.doc_owner(d) as usize != i {
                        doc_sync_entries[i].push(e as u32);
                    }
                }
            }
        }

        let mut doc_delta_entries: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut word_sync_entries: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (i, docs) in owned_docs.iter().enumerate() {
            for &d in docs {
                let entries = sampler.row_entry_ids(d);
                doc_delta_entries[i].extend_from_slice(entries);
                for (&e, &w) in entries.iter().zip(sampler.row_entry_cols(d)) {
                    if grid.word_owner(w) as usize != i {
                        word_sync_entries[i].push(e);
                    }
                }
            }
        }

        Self {
            workers: p,
            owned_words,
            owned_docs,
            word_delta_entries,
            doc_delta_entries,
            word_sync_entries,
            doc_sync_entries,
        }
    }

    /// Cluster size `P`.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warplda_core::{ModelParams, WarpLdaConfig};
    use warplda_corpus::{Corpus, DatasetPreset, DocMajorView, WordMajorView};
    use warplda_sparse::PartitionStrategy;

    fn build_all(corpus: &Corpus, workers: usize) -> (WarpLda, GridPartition, ShardPlan) {
        let dv = DocMajorView::build(corpus);
        let wv = WordMajorView::build(corpus, &dv);
        let grid = GridPartition::build_with(
            corpus,
            &dv,
            &wv,
            workers,
            PartitionStrategy::Greedy,
            PartitionStrategy::Dynamic,
        );
        let sampler =
            WarpLda::new(corpus, ModelParams::new(5, 0.5, 0.1), WarpLdaConfig::with_mh_steps(2), 7);
        let plan = ShardPlan::build(&sampler, &grid);
        (sampler, grid, plan)
    }

    #[test]
    fn delta_entries_partition_the_matrix_exactly_once() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        for workers in [1usize, 2, 3, 4] {
            let (sampler, _, plan) = build_all(&corpus, workers);
            for lists in [&plan.word_delta_entries, &plan.doc_delta_entries] {
                let mut seen = vec![false; sampler.num_entries()];
                for list in lists {
                    for &e in list {
                        assert!(!seen[e as usize], "entry {e} owned twice ({workers} workers)");
                        seen[e as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "some entry unowned ({workers} workers)");
            }
        }
    }

    #[test]
    fn sync_entries_are_exactly_the_cross_owner_entries() {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let (sampler, grid, plan) = build_all(&corpus, 3);
        // Word→doc boundary: worker i receives exactly the entries of its
        // rows whose column it does not own; summed over workers that is the
        // grid's off-diagonal token count.
        let total: usize = plan.word_sync_entries.iter().map(|l| l.len()).sum();
        assert_eq!(total as u64, grid.tokens_exchanged_per_phase_switch());
        let total: usize = plan.doc_sync_entries.iter().map(|l| l.len()).sum();
        assert_eq!(total as u64, grid.tokens_exchanged_per_phase_switch());
        for (i, list) in plan.word_sync_entries.iter().enumerate() {
            for &e in list {
                assert!(plan.word_delta_entries[i].binary_search(&e).is_err());
            }
        }
        // One worker owns everything → nothing to sync.
        let (_, _, solo) = build_all(&corpus, 1);
        assert!(solo.word_sync_entries[0].is_empty());
        assert!(solo.doc_sync_entries[0].is_empty());
        let _ = sampler;
    }
}
