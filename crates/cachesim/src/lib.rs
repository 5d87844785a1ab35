//! A trace-driven memory-hierarchy simulator.
//!
//! The paper's central argument (Sections 1 and 3) is about the *size of the
//! randomly accessed memory region*: if the region a sampler touches while
//! processing one document (or one word) fits in the 30 MB L3 cache, random
//! accesses are ~6× cheaper than if they spread over a multi-gigabyte count
//! matrix. Table 4 backs this with hardware cache-miss counters (PAPI).
//!
//! We do not have the paper's hardware counters, so this crate provides the
//! substitute: a set-associative, LRU, inclusive three-level cache simulator
//! configured with the Ivy Bridge geometry of Table 1. The LDA samplers
//! expose an optional [`MemoryProbe`] hook; when instrumented with a
//! [`CacheProbe`] every logical access to the count matrices/vectors is
//! replayed through the simulator, producing the L3 miss rates of Table 4 and
//! the estimated memory-stall cycles used in the analysis benchmarks.
//!
//! The working-set sizes of Table 2 are not measured here: they follow from
//! the corpus shape and `K`, and `warplda_core::access` tabulates them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
pub mod hierarchy;
pub mod probe;

pub use hierarchy::{CacheLevelConfig, HierarchyConfig, HierarchyStats};
pub use probe::{CacheProbe, CountingProbe, MemoryProbe, NoProbe, RegionId};
