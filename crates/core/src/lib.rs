//! WarpLDA and its baselines: the core library of the reproduction.
//!
//! The crate implements four samplers for Latent Dirichlet Allocation, all
//! operating on the corpus structures of [`warplda_corpus`]:
//!
//! | Sampler | Type | Per-token cost | Visiting order | Paper section |
//! |---------|------|----------------|----------------|---------------|
//! | [`cgs::CollapsedGibbs`] | exact CGS | O(K) | doc | §2.1 |
//! | [`fpluslda::FPlusLda`] | sparsity-aware | O(Kd · log K) | word | §3.2 |
//! | [`lightlda::LightLda`] | MH | O(1) | doc | §3.2 |
//! | [`warp::WarpLda`] | MH + MCEM | O(1) | doc & word | §4 |
//!
//! WarpLDA is the paper's contribution: a Monte-Carlo EM algorithm whose
//! delayed count updates let the document and word phases be *reordered* so
//! that each phase randomly accesses only one O(K) count vector at a time
//! (Section 4.4), instead of an O(DK)/O(KV) count matrix.
//!
//! Besides the samplers the crate provides:
//! * [`trainer`] — the unified train/evaluate/checkpoint pipeline: one loop
//!   with overlapped (background-thread) evaluation and checkpoint cadence,
//!   shared by the bench harness, the distributed runner, the examples and
//!   the tests;
//! * [`checkpoint`] — binary persistence of a resumable WarpLDA run
//!   (bit-identical save/load/continue under every driver) over the framed
//!   codec of [`warplda_corpus::io::codec`];
//! * [`eval`] — the log joint likelihood `log p(W, Z | α, β)` used in every
//!   convergence figure, plus perplexity and top-word extraction;
//! * [`counts`] — the open-addressing topic-count tables of Section 5.4;
//! * [`access`] — the analytical memory-access model behind Table 2;
//! * instrumented variants of the Table 4 samplers via
//!   [`warplda_cachesim::MemoryProbe`].

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod cgs;
pub mod checkpoint;
pub mod counts;
pub mod eval;
pub mod fpluslda;
pub mod lightlda;
pub mod math;
pub mod params;
pub mod sampler;
pub mod state;
pub mod trainer;
pub mod warp;

pub use cgs::CollapsedGibbs;
pub use checkpoint::{load_checkpoint, save_checkpoint, Checkpointable};
pub use eval::{log_joint_likelihood, perplexity_per_token, top_words};
pub use fpluslda::FPlusLda;
pub use lightlda::{LightLda, LightLdaVariant};
pub use params::ModelParams;
pub use sampler::Sampler;
pub use state::SamplerState;
pub use trainer::{IterationLog, IterationRecord, TrainOutcome, Trainer, TrainerConfig};
pub use warp::parallel::ParallelWarpLda;
pub use warp::{topic_wire_width, ShardedWarpLda, WarpLda, WarpLdaConfig};
