//! Multi-threaded `VisitByRow` / `VisitByColumn` (Section 5.3.1).
//!
//! The paper calls WarpLDA "embarrassingly parallel because the workers
//! operate on disjoint sets of data": a row (document) belongs to exactly one
//! worker, and so does a column (word). We reproduce that here with scoped
//! threads pulling contiguous row/column chunks from a [`ChunkCursor`] work
//! queue — an up-front static partition would leave a tail imbalance whenever
//! the size estimate is off (power-law column sizes), while the queue lets
//! early finishers keep claiming work.
//!
//! Disjointness is what makes the shared mutation sound:
//!
//! * **Columns** own contiguous ranges of the CSC data; every column is
//!   claimed by exactly one worker, so the per-column slices created from
//!   the shared base pointer never overlap.
//! * **Rows** reach their entries through the pointer indirection, so the
//!   entries of different rows interleave in memory. Workers share a raw
//!   pointer to the data array; safety rests on the structural invariant
//!   that every entry id belongs to exactly one row, and each row is claimed
//!   by exactly one worker. This is the same argument the paper's C++
//!   implementation relies on.

use crate::matrix::TokenMatrix;
use crate::partition::ChunkCursor;

/// A view of one row's entries handed to parallel row visitors.
///
/// Functionally identical to [`crate::matrix::RowEntriesMut`] but reads and
/// writes go through a shared raw pointer (see the module docs for the safety
/// argument).
pub struct ParRowEntries<'a, T> {
    entry_ids: &'a [u32],
    data: *mut T,
}

// SAFETY: a `ParRowEntries` only ever dereferences `data` at the entry ids of
// its own row, and the parallel driver hands each row to exactly one thread.
unsafe impl<'a, T: Send> Send for ParRowEntries<'a, T> {}

impl<'a, T> ParRowEntries<'a, T> {
    /// Number of entries in the row.
    pub fn len(&self) -> usize {
        self.entry_ids.len()
    }

    /// Returns `true` when the row has no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_ids.is_empty()
    }

    /// Stable entry id of the `i`-th entry.
    pub fn entry_id(&self, i: usize) -> u32 {
        self.entry_ids[i]
    }

    /// Reads the data of the `i`-th entry.
    pub fn get(&self, i: usize) -> &T {
        // SAFETY: see module docs — this row's entry ids are not touched by any
        // other thread during the visit.
        unsafe { &*self.data.add(self.entry_ids[i] as usize) }
    }

    /// Mutates the data of the `i`-th entry.
    #[allow(clippy::mut_from_ref)]
    pub fn get_mut(&self, i: usize) -> &mut T {
        // SAFETY: as above; additionally no two `i` map to the same entry id
        // within a row because entry ids are unique matrix-wide.
        unsafe { &mut *self.data.add(self.entry_ids[i] as usize) }
    }
}

/// Visits all rows with `num_threads` workers pulling row chunks from a
/// [`ChunkCursor`], so a handful of very long documents cannot serialize the
/// pass and no worker idles while rows remain.
///
/// `op` receives `(row_id, entries)` and must be safe to call concurrently
/// for *different* rows.
pub fn parallel_visit_by_row<T, F>(matrix: &mut TokenMatrix<T>, num_threads: usize, op: F)
where
    T: Send + Sync,
    F: Fn(u32, ParRowEntries<'_, T>) + Sync,
{
    let num_threads = num_threads.max(1);
    if num_threads == 1 || matrix.num_rows() <= 1 {
        serial_visit_by_row_shim(matrix, op);
        return;
    }

    let cursor = ChunkCursor::for_workers(matrix.num_rows(), num_threads);
    let parts = matrix.raw_parts_mut();
    let data_ptr = SendPtr(parts.data.as_mut_ptr());
    let row_offsets = parts.row_offsets;
    let row_ptr = parts.row_ptr;

    std::thread::scope(|scope| {
        for _ in 0..num_threads {
            let cursor = &cursor;
            let op = &op;
            scope.spawn(move || {
                // Capture the whole wrapper (edition-2021 closures would otherwise
                // capture only the raw-pointer field, which is not `Send`).
                let data_ptr = data_ptr;
                while let Some(chunk) = cursor.claim() {
                    for d in chunk {
                        let range = row_offsets[d] as usize..row_offsets[d + 1] as usize;
                        let view = ParRowEntries { entry_ids: &row_ptr[range], data: data_ptr.0 };
                        op(d as u32, view);
                    }
                }
            });
        }
    });
}

/// Serial fallback with the same closure signature as
/// [`parallel_visit_by_row`]; used internally and by callers that want a
/// uniform code path for one thread.
pub fn serial_visit_by_row_shim<T, F>(matrix: &mut TokenMatrix<T>, op: F)
where
    F: Fn(u32, ParRowEntries<'_, T>),
{
    let parts = matrix.raw_parts_mut();
    let data_ptr = parts.data.as_mut_ptr();
    for d in 0..parts.num_rows {
        let range = parts.row_offsets[d] as usize..parts.row_offsets[d + 1] as usize;
        let view = ParRowEntries { entry_ids: &parts.row_ptr[range], data: data_ptr };
        op(d as u32, view);
    }
}

/// A view of one column's entries handed to parallel column visitors.
pub struct ParColumnEntries<'a, T> {
    first_entry_id: u32,
    data: &'a mut [T],
}

impl<'a, T> ParColumnEntries<'a, T> {
    /// Number of entries in the column.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stable entry id of the `i`-th entry.
    pub fn entry_id(&self, i: usize) -> u32 {
        self.first_entry_id + i as u32
    }

    /// Reads the data of the `i`-th entry.
    pub fn get(&self, i: usize) -> &T {
        &self.data[i]
    }

    /// Mutates the data of the `i`-th entry.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }

    /// The column's data as a contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        self.data
    }
}

/// Visits all columns with `num_threads` workers pulling contiguous column
/// chunks from a [`ChunkCursor`]. The paper's dynamic slicing balances
/// columns once, up front, by token count; the work queue achieves the same
/// contiguous-claim locality while also absorbing the tail imbalance a
/// power-law head word leaves in any static split.
pub fn parallel_visit_by_column<T, F>(matrix: &mut TokenMatrix<T>, num_threads: usize, op: F)
where
    T: Send,
    F: Fn(u32, ParColumnEntries<'_, T>) + Sync,
{
    let num_threads = num_threads.max(1);
    let cursor = ChunkCursor::for_workers(matrix.num_cols(), num_threads);
    let parts = matrix.raw_parts_mut();
    let data_ptr = SendPtr(parts.data.as_mut_ptr());
    let col_offsets = parts.col_offsets;

    std::thread::scope(|scope| {
        for _ in 0..num_threads {
            let cursor = &cursor;
            let op = &op;
            scope.spawn(move || {
                let data_ptr = data_ptr;
                while let Some(chunk) = cursor.claim() {
                    for w in chunk {
                        let lo = col_offsets[w] as usize;
                        let len = col_offsets[w + 1] as usize - lo;
                        // SAFETY: a column's entries are the contiguous CSC
                        // range `lo..lo + len`, and every column is claimed by
                        // exactly one worker, so these slices never overlap.
                        let data =
                            unsafe { std::slice::from_raw_parts_mut(data_ptr.0.add(lo), len) };
                        let view = ParColumnEntries { first_entry_id: col_offsets[w], data };
                        op(w as u32, view);
                    }
                }
            });
        }
    });
}

/// Copyable wrapper making a raw pointer `Send`/`Sync` for the scoped threads.
/// A copyable raw-pointer wrapper for sharing a base pointer across scoped
/// worker threads. The single home of the idiom used by every parallel
/// driver in the workspace (sparse visitors, parallel WarpLDA, batch
/// inference): each copy must only be dereferenced at indices the holding
/// thread exclusively owns — disjoint rows/columns/chunks — which is what
/// the `Send`/`Sync` impls rely on. A soundness argument accompanies every
/// use site.
pub struct SendPtr<T>(pub *mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced at indices owned by a single
// thread; see the struct and module documentation.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn random_entries(rows: usize, cols: usize, n: usize, seed: u64) -> Vec<(u32, u32)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n).map(|_| (rng.gen_range(0..rows) as u32, rng.gen_range(0..cols) as u32)).collect()
    }

    #[test]
    fn parallel_column_visit_touches_every_entry_once() {
        let entries = random_entries(50, 40, 3000, 1);
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(50, 40, &entries);
        parallel_visit_by_column(&mut m, 4, |_, mut col| {
            for i in 0..col.len() {
                *col.get_mut(i) += 1;
            }
        });
        assert!(m.data().iter().all(|&v| v == 1), "every entry incremented exactly once");
    }

    #[test]
    fn parallel_row_visit_touches_every_entry_once() {
        let entries = random_entries(60, 30, 2500, 2);
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(60, 30, &entries);
        parallel_visit_by_row(&mut m, 4, |_, row| {
            for i in 0..row.len() {
                *row.get_mut(i) += 1;
            }
        });
        assert!(m.data().iter().all(|&v| v == 1));
    }

    #[test]
    fn parallel_and_serial_column_visits_agree() {
        let entries = random_entries(30, 25, 1000, 3);
        let mut a: TokenMatrix<u64> = TokenMatrix::from_entries(30, 25, &entries);
        let mut b: TokenMatrix<u64> = TokenMatrix::from_entries(30, 25, &entries);
        a.visit_by_column(|w, mut col| {
            for i in 0..col.len() {
                *col.get_mut(i) = (w as u64) * 1000 + col.entry_id(i) as u64;
            }
        });
        parallel_visit_by_column(&mut b, 3, |w, mut col| {
            for i in 0..col.len() {
                *col.get_mut(i) = (w as u64) * 1000 + col.entry_id(i) as u64;
            }
        });
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn parallel_and_serial_row_visits_agree() {
        let entries = random_entries(40, 20, 1500, 4);
        let mut a: TokenMatrix<u64> = TokenMatrix::from_entries(40, 20, &entries);
        let mut b: TokenMatrix<u64> = TokenMatrix::from_entries(40, 20, &entries);
        a.visit_by_row(|d, mut row| {
            for i in 0..row.len() {
                *row.get_mut(i) = (d as u64) * 1000 + row.entry_id(i) as u64;
            }
        });
        parallel_visit_by_row(&mut b, 5, |d, row| {
            for i in 0..row.len() {
                *row.get_mut(i) = (d as u64) * 1000 + row.entry_id(i) as u64;
            }
        });
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn each_row_is_visited_by_exactly_one_worker() {
        let entries = random_entries(100, 10, 2000, 5);
        let mut m: TokenMatrix<u8> = TokenMatrix::from_entries(100, 10, &entries);
        let visits = Mutex::new(vec![0u32; 100]);
        parallel_visit_by_row(&mut m, 6, |d, _| {
            visits.lock().unwrap()[d as usize] += 1;
        });
        assert!(visits.lock().unwrap().iter().all(|&v| v == 1));
    }

    #[test]
    fn serial_shim_matches_parallel() {
        let entries = random_entries(20, 20, 400, 6);
        let mut a: TokenMatrix<u32> = TokenMatrix::from_entries(20, 20, &entries);
        let mut b: TokenMatrix<u32> = TokenMatrix::from_entries(20, 20, &entries);
        serial_visit_by_row_shim(&mut a, |d, row| {
            for i in 0..row.len() {
                *row.get_mut(i) = d + row.entry_id(i);
            }
        });
        parallel_visit_by_row(&mut b, 3, |d, row| {
            for i in 0..row.len() {
                *row.get_mut(i) = d + row.entry_id(i);
            }
        });
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn more_threads_than_columns_still_works() {
        let entries = vec![(0u32, 0u32), (1, 1), (2, 1)];
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(3, 2, &entries);
        parallel_visit_by_column(&mut m, 16, |_, mut col| {
            for i in 0..col.len() {
                *col.get_mut(i) += 7;
            }
        });
        assert!(m.data().iter().all(|&v| v == 7));
    }
}
