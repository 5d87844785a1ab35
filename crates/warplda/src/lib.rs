//! # WarpLDA in Rust
//!
//! A from-scratch reproduction of *"WarpLDA: a Cache Efficient O(1) Algorithm
//! for Latent Dirichlet Allocation"* (Chen, Li, Zhu & Chen, VLDB 2016).
//!
//! This facade crate re-exports the full public API of the workspace so that
//! applications only need a single dependency:
//!
//! * [`corpus`] — corpora, vocabularies, bag-of-words I/O, synthetic
//!   generators and the Table 3 dataset presets;
//! * [`sampling`] — alias tables, F+ trees and seeded RNG streams;
//! * [`sparse`] — the token-matrix structure, packed per-token records and
//!   balanced partitioning;
//! * [`cachesim`] — the Ivy Bridge cache simulator and memory probes used by
//!   the memory-efficiency experiments;
//! * [`lda`] — WarpLDA itself plus the CGS / F+LDA / LightLDA baselines and
//!   the evaluation utilities;
//! * [`dist`] — the distributed runtime: the P×P grid partition and the
//!   multi-process coordinator/worker backend;
//! * [`net`] — the shared length-prefixed framing and connection layer used
//!   by both the query server and the distributed backend;
//! * [`serve`] — online serving: frozen [`TopicModel`](serve::TopicModel)
//!   artifacts, the fold-in inference engine and the TCP query server.
//!
//! ## Quick start
//!
//! ```
//! use warplda::prelude::*;
//!
//! // A small synthetic corpus with planted topics.
//! let corpus = DatasetPreset::Tiny.generate_scaled(4);
//!
//! // Train WarpLDA for a few iterations.
//! let params = ModelParams::paper_defaults(16);
//! let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::with_mh_steps(2), 42);
//! for _ in 0..5 {
//!     sampler.run_iteration();
//! }
//!
//! // Evaluate the model.
//! let doc_view = DocMajorView::build(&corpus);
//! let word_view = WordMajorView::build(&corpus, &doc_view);
//! let ll = sampler.log_likelihood(&corpus, &doc_view, &word_view);
//! assert!(ll.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use warplda_cachesim as cachesim;
pub use warplda_core as lda;
pub use warplda_corpus as corpus;
pub use warplda_dist as dist;
pub use warplda_net as net;
pub use warplda_sampling as sampling;
pub use warplda_serve as serve;
pub use warplda_sparse as sparse;

/// The most commonly used items, re-exported flat for `use warplda::prelude::*`.
pub mod prelude {
    pub use warplda_cachesim::{CacheProbe, CountingProbe, HierarchyConfig, MemoryProbe, NoProbe};
    pub use warplda_core::eval::{
        format_topics, log_joint_likelihood, perplexity_per_token, top_words,
    };
    pub use warplda_core::{
        load_checkpoint, save_checkpoint, Checkpointable, CollapsedGibbs, FPlusLda, IterationLog,
        IterationRecord, LightLda, LightLdaVariant, ModelParams, ParallelWarpLda, Sampler,
        SamplerState, StepExtras, TrainDriver, TrainOutcome, Trainer, TrainerConfig, WarpLda,
        WarpLdaConfig,
    };
    pub use warplda_corpus::{
        Corpus, CorpusBuilder, CorpusStats, DatasetPreset, DocMajorView, Document, LdaGenerator,
        OovPolicy, SyntheticConfig, Vocabulary, WordMajorView, ZipfGenerator,
    };
    pub use warplda_dist::{
        DistError, FaultAction, FaultEvent, FaultPhase, FaultPlan, GridPartition, ProcessCluster,
        ProcessClusterConfig, ShardPlan,
    };
    pub use warplda_serve::{
        Client, InferConfig, InferScratch, InferenceEngine, LatencyStats, ServeCounters, Server,
        ServerConfig, ServerHandle, TopicModel,
    };
    pub use warplda_sparse::PartitionStrategy;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let corpus = DatasetPreset::Tiny.generate_scaled(8);
        let params = ModelParams::paper_defaults(8);
        let mut sampler = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 1);
        sampler.run_iteration();
        assert_eq!(sampler.assignments().len() as u64, corpus.num_tokens());
    }
}
