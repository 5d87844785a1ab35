//! Dataset presets mirroring Table 3 of the paper at laptop scale.
//!
//! Each preset preserves the *shape* of the original dataset — the mean
//! document length `T/D`, the ratio of vocabulary size to document count and
//! the Zipfian skew — while scaling the absolute size down so the experiments
//! run on a single machine in seconds to minutes. [`DatasetPreset::paper_stats`]
//! keeps the original's statistics, so the `reproduce` ledger can judge
//! Table 2 at the paper's shapes.

use crate::synth::{LdaGenerator, SyntheticConfig};
use crate::Corpus;

/// A named dataset preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetPreset {
    /// NYTimes-like: 300K docs, 100M tokens, 102K vocab, T/D ≈ 332 in the
    /// paper; scaled to 3K docs here.
    NyTimesLike,
    /// PubMed-like: 8.2M docs, 738M tokens, 141K vocab, T/D ≈ 90 in the paper;
    /// scaled to 20K docs here.
    PubMedLike,
    /// ClueWeb12-subset-like: 38M docs, 14B tokens, 1M vocab, T/D ≈ 367 in the
    /// paper; scaled to 10K docs here.
    ClueWebSubsetLike,
    /// A tiny smoke-test corpus for unit/integration tests and examples.
    Tiny,
}

impl DatasetPreset {
    /// All presets, in Table 3 order.
    pub const ALL: [DatasetPreset; 4] = [
        DatasetPreset::NyTimesLike,
        DatasetPreset::PubMedLike,
        DatasetPreset::ClueWebSubsetLike,
        DatasetPreset::Tiny,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::NyTimesLike => "NYTimes-like",
            DatasetPreset::PubMedLike => "PubMed-like",
            DatasetPreset::ClueWebSubsetLike => "ClueWeb12-subset-like",
            DatasetPreset::Tiny => "Tiny",
        }
    }

    /// The statistics of the original dataset from Table 3 of the paper:
    /// `(D, T, V, T/D)`. `Tiny` has no original.
    pub fn paper_stats(&self) -> Option<(u64, u64, u64, f64)> {
        match self {
            DatasetPreset::NyTimesLike => Some((300_000, 100_000_000, 102_000, 332.0)),
            DatasetPreset::PubMedLike => Some((8_200_000, 738_000_000, 141_000, 90.0)),
            DatasetPreset::ClueWebSubsetLike => {
                Some((38_000_000, 14_000_000_000, 1_000_000, 367.0))
            }
            DatasetPreset::Tiny => None,
        }
    }

    /// The synthetic configuration of the scaled preset.
    pub fn config(&self) -> SyntheticConfig {
        match self {
            DatasetPreset::NyTimesLike => SyntheticConfig {
                num_docs: 3_000,
                vocab_size: 8_000,
                mean_doc_len: 332,
                num_topics: 50,
                alpha: 0.5,
                beta: 0.05,
                zipf_exponent: 1.05,
                seed: 1001,
            },
            DatasetPreset::PubMedLike => SyntheticConfig {
                num_docs: 20_000,
                vocab_size: 12_000,
                mean_doc_len: 90,
                num_topics: 80,
                alpha: 0.5,
                beta: 0.05,
                zipf_exponent: 1.05,
                seed: 1002,
            },
            DatasetPreset::ClueWebSubsetLike => SyntheticConfig {
                num_docs: 10_000,
                vocab_size: 30_000,
                mean_doc_len: 367,
                num_topics: 100,
                alpha: 0.5,
                beta: 0.05,
                zipf_exponent: 1.1,
                seed: 1003,
            },
            DatasetPreset::Tiny => SyntheticConfig {
                num_docs: 200,
                vocab_size: 500,
                mean_doc_len: 40,
                num_topics: 10,
                alpha: 0.5,
                beta: 0.1,
                zipf_exponent: 1.0,
                seed: 1004,
            },
        }
    }

    /// Generates the preset corpus (deterministic).
    pub fn generate(&self) -> Corpus {
        LdaGenerator::new(self.config()).generate()
    }

    /// Generates a reduced-size variant of the preset (e.g. for quick smoke
    /// runs): document count divided by `factor`, vocabulary kept.
    pub fn generate_scaled(&self, factor: usize) -> Corpus {
        let mut cfg = self.config();
        cfg.num_docs = (cfg.num_docs / factor.max(1)).max(10);
        LdaGenerator::new(cfg).generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            DatasetPreset::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), DatasetPreset::ALL.len());
    }

    #[test]
    fn tiny_preset_generates_quickly_with_right_shape() {
        let c = DatasetPreset::Tiny.generate();
        let s = c.stats();
        assert_eq!(s.num_docs, 200);
        assert_eq!(s.vocab_size, 500);
        assert!((s.mean_doc_len - 40.0).abs() < 12.0);
    }

    #[test]
    fn paper_stats_match_table3() {
        let (d, t, v, td) = DatasetPreset::NyTimesLike.paper_stats().unwrap();
        assert_eq!(d, 300_000);
        assert_eq!(t, 100_000_000);
        assert_eq!(v, 102_000);
        assert!((td - 332.0).abs() < 1.0);
        assert!(DatasetPreset::Tiny.paper_stats().is_none());
    }

    #[test]
    fn scaled_generation_reduces_docs() {
        let c = DatasetPreset::Tiny.generate_scaled(10);
        assert_eq!(c.num_docs(), 20);
    }

    #[test]
    fn preserved_mean_doc_len_ratio() {
        // The preset keeps T/D close to the paper's value even though D shrinks.
        let cfg = DatasetPreset::PubMedLike.config();
        let (_, _, _, td) = DatasetPreset::PubMedLike.paper_stats().unwrap();
        assert!((cfg.mean_doc_len as f64 - td).abs() / td < 0.05);
    }
}
