//! Online inference and serving for trained WarpLDA models.
//!
//! Training (the rest of the workspace) answers "what topics exist in this
//! corpus?". This crate closes the loop to the production question: **"what
//! topics is this *unseen* document about?"** — the core query of every
//! deployed LDA system. It separates the read path from the write/train path
//! the way a serving system must:
//!
//! * [`model`] — [`TopicModel`]: a **frozen**, read-optimized artifact. A
//!   trained sampler's counts are converted once into smoothed word–topic
//!   distributions φ plus pre-built sparse alias bins for every word, held
//!   in one [`SparseAliasStore`] addressed by the model's CSR offsets, so
//!   query-time sampling reuses the paper's O(1) MH machinery with zero
//!   rebuild cost. Models persist as `WLDAMODL` framed sections of the
//!   workspace's binary codec (magic, version, checksum).
//! * [`infer`] — [`InferenceEngine`]: **fold-in** inference. A few MH sweeps
//!   alternate word-proposals (from the frozen alias tables) and
//!   doc-proposals (random positioning over the partial θ_d) over the unseen
//!   document, exactly the proposal/acceptance structure of WarpLDA training
//!   but with φ held fixed, sampling the exact fold-in posterior. The word
//!   step accepts on `c_d` (token i excluded) and `c_k`; the doc step on the
//!   φ ratio and `c_k` alone, since its positions include token i and the
//!   `c_d` factors cancel. Each proposal takes one 64-bit draw and each step
//!   one uniform, drawn unconditionally, and accepts by multiply-and-select,
//!   as training's kernels do. Per-request scratch comes from a reusable
//!   [`InferScratch`], so steady-state inference is allocation-free, and each
//!   request derives its own RNG stream from its seed — results are
//!   bit-identical for a fixed request seed regardless of how many server
//!   workers run.
//! * [`server`] — [`Server`]: an event-loop TCP query server. One
//!   readiness-loop thread (a vendored `poll(2)` shim) owns the listener and
//!   every connection and dispatches only ready, complete frames to a fixed
//!   worker pool — thousands of idle keep-alive connections cost zero
//!   workers. Admission control sheds typed overload errors past a bounded
//!   queue, per-request deadlines bound stale work, partial writes keep slow
//!   readers from blocking anything, the live model is an atomically
//!   hot-swappable `Arc` (promote a freshly trained checkpoint without
//!   dropping a request), and per-server latency percentiles (p50/p95/p99)
//!   accumulate in a lock-free log-scale histogram.
//! * [`wire`] — the length-prefixed binary wire protocol shared by server
//!   and client.
//!
//! [`SparseAliasStore`]: warplda_sampling::SparseAliasStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod infer;
pub mod model;
pub mod server;
pub mod wire;

pub use infer::{InferConfig, InferScratch, InferenceEngine, InferenceResult};
pub use model::{ModelHandle, TopicModel};
pub use server::{Client, LatencyStats, ServeCounters, Server, ServerConfig, ServerHandle};
pub use wire::{Request, Response};
