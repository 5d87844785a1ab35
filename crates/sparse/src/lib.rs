//! The distributed-sparse-matrix data layout of Section 5 of the paper.
//!
//! WarpLDA's only data structure is a `D × V` sparse matrix with one entry per
//! token occurrence, visited alternately by row and by column (Figure 2 of the
//! paper). The sampler runs its own two kernels over it; this crate provides
//! what they run on:
//!
//! * [`TokenMatrix`] — the matrix structure, stored exactly as Section 5.2
//!   prescribes: entry ids in a single CSC order (column = word, entries
//!   within a column sorted by row id) plus an array of row pointers
//!   (`PCSR`) so rows can be visited through indirect, cache-line-friendly
//!   accesses without a transpose pass. Per entry it holds that one pointer
//!   and nothing else. The layout the paper rejects (explicit CSR **and**
//!   CSC copies synchronized by a transpose) is not implemented.
//! * [`records`] — fixed-stride packed per-entry records
//!   ([`PackedRecords`]): the assignment-plus-proposals state WarpLDA keeps
//!   per token, indexed by entry id and interleaved so each token touch is
//!   one sequential stream, at 1, 2 or 4 bytes per topic id.
//! * [`partition`] — the balanced column/row partitioning strategies of
//!   Section 5.3.2 (static, dynamic, greedy), the imbalance index used in
//!   Figure 4, and the [`ChunkCursor`] atomic work queue (chunks of equal
//!   mass) that removes the tail imbalance static partitions leave behind.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod matrix;
pub mod partition;
pub mod records;

pub use matrix::TokenMatrix;
pub use partition::{
    imbalance_index, partition_by_size, partition_loads, ChunkCursor, PartitionStrategy,
};
pub use records::{PackedRecords, Topic};
