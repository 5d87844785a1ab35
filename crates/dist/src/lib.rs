//! Simulated multi-machine runtime for WarpLDA (Sections 5.3.2 and 6.5 of the
//! paper).
//!
//! The paper's headline numbers are distributed: near-linear speedup on up to
//! 16 machines of a Tianhe-2-like cluster (Figure 9b), convergence on the
//! ClueWeb12 subset (Figure 6) and the 256-machine capacity run (Figure 9c/d).
//! Reproducing them bit-for-bit needs a cluster; reproducing their *structure*
//! does not. WarpLDA's assignments do not depend on who visits which document
//! or word (every visit draws from its entity's own RNG stream), so a run on
//! `P` simulated machines is the ordinary [`warplda_core::ParallelWarpLda`]
//! run plus the paper's distributed cost model:
//!
//! * [`GridPartition`] — the P×P grid over the document-major and word-major
//!   views. Machine `i` owns document shard `i` during doc phases and word
//!   shard `i` during word phases; a token whose document and word live on
//!   different machines (an *off-diagonal* grid cell) must cross the network
//!   at every phase switch.
//! * [`ClusterConfig`] — the network model: worker count, per-link bandwidth
//!   and latency. The per-token message size is not configured: it is
//!   [`protocol::record_wire_bytes`]`(K, M)`, the topic assignment plus `M`
//!   proposals at the 1, 2 or 4 bytes per topic the real protocol ships.
//! * [`runner`] — the cost model applied: [`runner::price_iteration_log`]
//!   turns the [`warplda_core::IterationLog`] of a measured run into the
//!   simulated cluster's (measured compute plus modeled exchange time per
//!   iteration), and [`runner::scaling_sweep`] is the modeled sweep behind
//!   the Figure 9b style machine-count curves.
//!
//! On top of the simulation sits a **real multi-process backend**:
//!
//! * [`protocol`] — the framed wire protocol (over [`warplda_net`]) the
//!   coordinator and workers speak: corpus/hyperparameter setup, per-phase
//!   record deltas with partial `c_k`, merged boundary syncs, clean shutdown;
//! * [`ShardPlan`] — the deterministic per-worker ownership and the
//!   per-destination record segments both sides derive independently from
//!   the [`GridPartition`];
//! * [`ProcessCluster`] — the coordinator: spawns N `warplda-dist-worker`
//!   OS processes, drives iterations over loopback TCP by routing those
//!   segments between workers as bytes, and keeps a replica
//!   whose merged state is bit-identical to the serial
//!   [`warplda_core::WarpLda`] (and hence to
//!   [`warplda_core::ParallelWarpLda`]) after every iteration.
//!
//! ```
//! use warplda_core::{ModelParams, ParallelWarpLda, Trainer, TrainerConfig, WarpLdaConfig};
//! use warplda_corpus::DatasetPreset;
//! use warplda_dist::runner::price_iteration_log;
//! use warplda_dist::{ClusterConfig, GridPartition};
//! use warplda_sparse::PartitionStrategy;
//!
//! let corpus = DatasetPreset::Tiny.generate_scaled(10);
//! let params = ModelParams::paper_defaults(8);
//! let config = WarpLdaConfig::with_mh_steps(2);
//! let cluster = ClusterConfig::tianhe2_like(4);
//!
//! let trainer = Trainer::new(&corpus);
//! let mut sampler = ParallelWarpLda::new(&corpus, params, config, 42, cluster.workers);
//! let measured = trainer.train(&TrainerConfig::new(2).eval_every(0), "WarpLDA", &mut sampler);
//!
//! let (dv, wv) = (trainer.doc_view(), trainer.word_view());
//! let grid = GridPartition::build(&corpus, dv, wv, cluster.workers, PartitionStrategy::Greedy);
//! let log = price_iteration_log(&measured, &grid, &cluster, &params, &config);
//! assert_eq!(log.tokens_per_iteration(), corpus.num_tokens() * 2);
//! assert!(log.total_seconds() > measured.total_seconds());
//! assert!(log.final_ll().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod fault;
pub mod grid;
pub mod plan;
pub mod process;
pub mod protocol;
pub mod runner;

pub use cluster::{exchange_bytes_per_iteration, ClusterConfig};
pub use fault::{FaultAction, FaultEvent, FaultPhase, FaultPlan};
pub use grid::GridPartition;
pub use plan::ShardPlan;
pub use process::{DistError, ProcessCluster, ProcessClusterConfig, ProcessIterationReport};
