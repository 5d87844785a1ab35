//! The distributed-sparse-matrix programming model of Section 5 of the paper.
//!
//! WarpLDA's only data structure is a `D × V` sparse matrix with one entry per
//! token occurrence; the algorithm is expressed as alternating
//! `VisitByRow` / `VisitByColumn` passes over it (Figure 2 of the paper).
//! This crate provides:
//!
//! * [`TokenMatrix`] — the matrix itself, stored exactly as Section 5.2
//!   prescribes: a single CSC copy of the entry data (column = word, entries
//!   within a column sorted by row id) plus an array of row pointers
//!   (`PCSR`) so rows can be visited through indirect, cache-line-friendly
//!   accesses without a transpose pass. Per entry it holds that one pointer
//!   and nothing else.
//! * [`DualLayoutMatrix`] — the alternative layout the paper rejects (explicit
//!   CSR **and** CSC copies synchronized by a transpose after every pass),
//!   kept for the ablation benchmark.
//! * [`records`] — fixed-stride packed per-entry records
//!   ([`PackedRecords`]): the assignment-plus-proposals state WarpLDA keeps
//!   per token, interleaved so each token touch is one sequential stream, at
//!   1, 2 or 4 bytes per topic id.
//! * [`partition`] — the balanced column/row partitioning strategies of
//!   Section 5.3.2 (static, dynamic, greedy), the imbalance index used in
//!   Figure 4, and the [`ChunkCursor`] atomic work queue (chunks of equal
//!   count or of equal mass) that removes the tail imbalance static
//!   partitions leave behind.
//! * [`parallel`] — multi-threaded `VisitByRow` / `VisitByColumn` built on
//!   scoped threads over the chunked work queue, mirroring the paper's
//!   shared-memory parallelization (Section 5.3.1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod layout;
pub mod matrix;
pub mod parallel;
pub mod partition;
pub mod records;

pub use layout::DualLayoutMatrix;
pub use matrix::{ColumnEntriesMut, RowEntriesMut, TokenMatrix};
pub use parallel::{parallel_visit_by_column, parallel_visit_by_row, SendPtr};
pub use partition::{
    imbalance_index, partition_by_size, partition_loads, ChunkCursor, PartitionStrategy,
};
pub use records::{PackedRecords, Topic};
