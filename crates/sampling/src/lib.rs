//! Sampling primitives used by every LDA algorithm in the workspace.
//!
//! * [`AliasTable`] — Walker's alias method (Section 2.2 of the paper):
//!   O(K) construction, O(1) draws. Used by LightLDA's word proposals;
//!   WarpLDA's draw from [`SparseAliasTable`], the same construction over
//!   labelled 16-byte bins, and the serving model's from
//!   [`SparseAliasStore`], every word's bins in one buffer.
//! * [`FTree`] — the "F+ tree" used by F+LDA: a flat complete binary tree over
//!   the topic weights supporting O(log K) point updates and O(log K) exact
//!   draws from the current distribution.
//! * [`discrete`] — the straightforward O(K) linear-scan sampler plain CGS
//!   draws with.
//! * [`rng`] — deterministic RNG construction helpers shared by the samplers
//!   and experiments, and the exact one-word draws ([`index_from_word`],
//!   [`Mixture`]) WarpLDA's proposals take.
//!
//! There is no shared Metropolis–Hastings kernel here: each sampler inlines
//! its own accept test, because the ratios differ in what they exclude and
//! look up (see the kernels in `warplda_core::warp` and
//! `warplda_serve::infer`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alias;
pub mod discrete;
pub mod ftree;
pub mod rng;

pub use alias::{AliasBuildScratch, AliasTable, SparseAliasStore, SparseAliasTable};
pub use discrete::sample_unnormalized;
pub use ftree::FTree;
pub use rng::{index_from_word, new_rng, split_seed, Dice, Mixture};
