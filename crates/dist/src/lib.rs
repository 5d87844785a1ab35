//! Multi-process runtime for WarpLDA (Sections 5.3.2 and 6.5 of the paper).
//!
//! WarpLDA's assignments do not depend on who visits which document or word
//! (every visit draws from its entity's own RNG stream), so training across
//! processes is the serial [`warplda_core::WarpLda`] chain split by
//! ownership:
//!
//! * [`GridPartition`] — the P×P grid over the corpus's documents and words,
//!   both greedy-sharded. Machine `i` owns document shard `i` during doc phases and word
//!   shard `i` during word phases; a token whose document and word live on
//!   different machines (an *off-diagonal* grid cell) must cross the network
//!   at every phase switch. Its phase loads are what the ledger's `fig9b` row
//!   reads as the grid's balance-limited speedup.
//! * [`protocol`] — the framed wire protocol (over [`warplda_net`]) the
//!   coordinator and workers speak: corpus/hyperparameter setup, per-phase
//!   record deltas with partial `c_k`, merged boundary syncs, clean shutdown;
//! * [`ShardPlan`] — the deterministic per-worker ownership and the
//!   per-destination record segments, each in ascending entry id, both sides
//!   derive independently from the [`GridPartition`] and the replica's
//!   token matrix;
//! * [`ProcessCluster`] — the coordinator: spawns N `warplda-dist-worker`
//!   OS processes, drives iterations over loopback TCP by routing those
//!   segments between workers as bytes, and keeps a replica
//!   whose merged state is bit-identical to the serial
//!   [`warplda_core::WarpLda`] (and hence to
//!   [`warplda_core::ParallelWarpLda`]) after every iteration.
//!
//! ```
//! use warplda_corpus::DatasetPreset;
//! use warplda_dist::GridPartition;
//! use warplda_sparse::PartitionStrategy;
//!
//! let corpus = DatasetPreset::Tiny.generate_scaled(4);
//! let grid = GridPartition::build(&corpus, 4, PartitionStrategy::Greedy);
//! // Every token is visited in both phases, and each phase waits for its
//! // largest shard: that bounds the speedup of 4 machines.
//! let largest = |loads: &[u64]| *loads.iter().max().unwrap();
//! let slowest = largest(grid.doc_phase_loads()) + largest(grid.word_phase_loads());
//! let speedup = 2.0 * grid.total_tokens() as f64 / slowest as f64;
//! assert!(speedup > 3.0 && speedup <= 4.0, "{speedup}");
//! assert!(grid.tokens_exchanged_per_phase_switch() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod grid;
pub mod plan;
pub mod process;
pub mod protocol;

pub use fault::{FaultAction, FaultEvent, FaultPhase, FaultPlan};
pub use grid::GridPartition;
pub use plan::ShardPlan;
pub use process::{DistError, ProcessCluster, ProcessClusterConfig, ProcessIterationReport};
