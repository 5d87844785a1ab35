//! The analytical memory-access model behind Table 2 of the paper.
//!
//! Table 2 is not a measurement — it summarizes, per algorithm, the amount of
//! sequential accesses per token, the number of random accesses per token, the
//! size of the randomly accessed memory region per document (or word), and the
//! visiting order. The first two columns are expressed in terms of `K`, `K_d`
//! (mean distinct topics per document) and `K_w` (mean distinct topics per
//! word); the third in terms of `K`, `KV` and `DK`.
//!
//! This module evaluates those expressions for a *concrete* corpus and model
//! state: the same rows as the paper, but with the symbolic quantities
//! instantiated (e.g. `K_d = 38.2`) so the asymptotic claims can be checked
//! numerically. The `reproduce` ledger's `table2` row re-evaluates each row's
//! symbolic region at the paper's dataset shapes. The SparseLDA and AliasLDA
//! rows are symbolic only: the workspace has no such sampler, and the rows
//! need none, since they read only `K_d`, `K_w` and the corpus shape.

use warplda_corpus::Corpus;

use crate::counts::TopicCounts;
use crate::state::SamplerState;

/// One row of Table 2, instantiated for a concrete corpus/model state.
#[derive(Debug, Clone)]
pub struct AccessProfile {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Algorithm class ("SA" sparsity-aware, "MH", or "exact").
    pub class: &'static str,
    /// Mean number of sequential accesses per token.
    pub sequential_per_token: f64,
    /// Mean number of random accesses per token.
    pub random_per_token: f64,
    /// Size of the randomly accessed memory per document (or word), in bytes,
    /// assuming 4-byte counts.
    pub random_region_bytes: u64,
    /// Human-readable symbolic size ("K", "KV", "DK"), as printed in Table 2.
    pub random_region_symbolic: &'static str,
    /// Visiting order ("doc", "word", or "doc&word").
    pub order: &'static str,
}

/// Mean number of distinct topics per document (`K_d`) and per word (`K_w`)
/// for a given state; `K_w` averages over the words that occur.
fn mean_distinct_topics(state: &SamplerState) -> (f64, f64) {
    let num_docs = state.num_docs().max(1);
    let kd: f64 =
        (0..num_docs).map(|d| state.doc_counts(d as u32).num_nonzero() as f64).sum::<f64>()
            / num_docs as f64;
    let words_with_tokens: Vec<usize> =
        (0..state.num_words()).filter(|&w| state.word_counts(w as u32).total() > 0).collect();
    let kw: f64 = if words_with_tokens.is_empty() {
        0.0
    } else {
        words_with_tokens
            .iter()
            .map(|&w| state.word_counts(w as u32).num_nonzero() as f64)
            .sum::<f64>()
            / words_with_tokens.len() as f64
    };
    (kd, kw)
}

/// Builds all rows of Table 2 for a concrete corpus and sampler state,
/// using `mh_steps` as the per-token number of MH proposals for the MH-based
/// algorithms.
pub fn table2_profiles(
    corpus: &Corpus,
    state: &SamplerState,
    mh_steps: usize,
) -> Vec<AccessProfile> {
    let k = state.params().num_topics as f64;
    let v = corpus.vocab_size() as u64;
    let d = corpus.num_docs() as u64;
    let k_u64 = state.params().num_topics as u64;
    let (kd, kw) = mean_distinct_topics(state);
    let count_bytes = 4u64;
    let m = mh_steps.max(1) as f64;

    vec![
        AccessProfile {
            algorithm: "CGS",
            class: "exact",
            sequential_per_token: k,
            random_per_token: 0.0,
            random_region_bytes: k_u64 * v * count_bytes,
            random_region_symbolic: "KV",
            order: "doc",
        },
        AccessProfile {
            algorithm: "SparseLDA",
            class: "SA",
            sequential_per_token: kd + kw,
            random_per_token: kd + kw,
            random_region_bytes: k_u64 * v * count_bytes,
            random_region_symbolic: "KV",
            order: "doc",
        },
        AccessProfile {
            algorithm: "AliasLDA",
            class: "SA&MH",
            sequential_per_token: kd,
            random_per_token: kd,
            random_region_bytes: k_u64 * v * count_bytes,
            random_region_symbolic: "KV",
            order: "doc",
        },
        AccessProfile {
            algorithm: "F+LDA",
            class: "SA",
            sequential_per_token: kd,
            random_per_token: kd,
            random_region_bytes: d * k_u64 * count_bytes,
            random_region_symbolic: "DK",
            order: "word",
        },
        AccessProfile {
            algorithm: "LightLDA",
            class: "MH",
            sequential_per_token: 0.0,
            random_per_token: m,
            random_region_bytes: k_u64 * v * count_bytes,
            random_region_symbolic: "KV",
            order: "doc",
        },
        AccessProfile {
            algorithm: "WarpLDA",
            class: "MH",
            sequential_per_token: 0.0,
            random_per_token: m,
            random_region_bytes: k_u64 * count_bytes,
            random_region_symbolic: "K",
            order: "doc&word",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use warplda_corpus::DatasetPreset;
    use warplda_sampling::new_rng;

    fn setup() -> (Corpus, SamplerState) {
        let corpus = DatasetPreset::Tiny.generate_scaled(4);
        let mut rng = new_rng(1);
        let state = SamplerState::init_random(&corpus, ModelParams::new(64, 0.5, 0.1), &mut rng);
        (corpus, state)
    }

    #[test]
    fn kd_and_kw_are_bounded_by_lengths_and_k() {
        let (corpus, state) = setup();
        let (kd, kw) = mean_distinct_topics(&state);
        assert!(kd > 0.0 && kw > 0.0);
        assert!(kd <= 64.0 && kw <= 64.0, "distinct topics cannot exceed K");
        let mean_len = corpus.num_tokens() as f64 / corpus.num_docs() as f64;
        assert!(kd <= mean_len + 1e-9, "distinct topics cannot exceed document length");
    }

    #[test]
    fn only_warplda_fits_the_l3_cache() {
        // The central claim of the paper's analysis, instantiated on a corpus
        // whose K·V matrix exceeds the 30 MB L3.
        let corpus = DatasetPreset::NyTimesLike.generate_scaled(2);
        let mut rng = new_rng(2);
        let params = ModelParams::paper_defaults(10_000);
        let state = SamplerState::init_random(&corpus, params, &mut rng);
        let rows = table2_profiles(&corpus, &state, 1);
        let l3 = 30 * 1024 * 1024;
        for row in &rows {
            let fits = row.random_region_bytes <= l3;
            assert_eq!(fits, row.algorithm == "WarpLDA", "only WarpLDA's region fits L3: {row:?}");
        }
    }

    #[test]
    fn table_has_all_six_algorithms_in_paper_order() {
        let (corpus, state) = setup();
        let rows = table2_profiles(&corpus, &state, 2);
        let names: Vec<_> = rows.iter().map(|r| r.algorithm).collect();
        assert_eq!(names, vec!["CGS", "SparseLDA", "AliasLDA", "F+LDA", "LightLDA", "WarpLDA"]);
        // Orders match Table 2.
        assert_eq!(rows[3].order, "word");
        assert_eq!(rows[5].order, "doc&word");
        assert_eq!(rows[5].random_region_symbolic, "K");
    }

    #[test]
    fn mh_algorithms_have_constant_access_counts() {
        let (corpus, state) = setup();
        let rows = table2_profiles(&corpus, &state, 4);
        let light = rows.iter().find(|r| r.algorithm == "LightLDA").unwrap();
        let warp = rows.iter().find(|r| r.algorithm == "WarpLDA").unwrap();
        assert_eq!(light.random_per_token, 4.0);
        assert_eq!(warp.random_per_token, 4.0);
        let cgs = rows.iter().find(|r| r.algorithm == "CGS").unwrap();
        assert_eq!(cgs.sequential_per_token, 64.0);
    }
}
