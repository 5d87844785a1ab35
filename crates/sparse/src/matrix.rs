//! The [`TokenMatrix`]: CSC storage with row pointers (Section 5.2).
//!
//! The matrix structure (which cells contain entries) is fixed at
//! construction; only the per-entry data is mutated by visits. Each entry has
//! a stable **entry id** — its position in the CSC data array — which callers
//! can use to maintain auxiliary per-token arrays (WarpLDA keeps its packed
//! records this way).
//!
//! The structure is **pointer-only**: per entry it keeps the row pointer
//! (4 bytes) and nothing else. Which row a CSC position belongs to, or which
//! column a row slot lands in, is not stored — no visit needs it, and a
//! caller that does (the exchange plan of the multi-process runtime) reads
//! it off the corpus views it already holds.

/// A sparse `rows × cols` matrix with one data item of type `T` per entry.
///
/// * Column-major (CSC) storage of the data: the entries of column `w` are
///   contiguous and sorted by row id, so `VisitByColumn` makes purely
///   sequential accesses.
/// * Row access goes through a pointer array (`PCSR`): for each row, the list
///   of CSC positions of its entries, in input order. `VisitByRow` therefore
///   performs indirect accesses into the CSC data — but, because every
///   column's entries are sorted by row, those indirect accesses sweep each
///   column's region monotonically, which is the cache-line reuse argument of
///   Section 5.2.
#[derive(Debug, Clone)]
pub struct TokenMatrix<T> {
    num_rows: usize,
    num_cols: usize,
    /// `col_offsets[w]..col_offsets[w+1]` is the CSC range of column `w`.
    col_offsets: Vec<u32>,
    /// Per-entry data, in CSC order.
    data: Vec<T>,
    /// `row_offsets[d]..row_offsets[d+1]` is the range of `row_ptr` for row `d`.
    row_offsets: Vec<u32>,
    /// CSC positions of each row's entries, grouped by row, in input order.
    row_ptr: Vec<u32>,
}

impl<T: Default + Clone> TokenMatrix<T> {
    /// Builds the matrix from `(row, col)` pairs (one per entry, duplicates
    /// allowed — a word occurring twice in a document is two entries), with
    /// default-initialized data.
    pub fn from_entries(num_rows: usize, num_cols: usize, entries: &[(u32, u32)]) -> Self {
        for &(r, _) in entries {
            assert!((r as usize) < num_rows, "row {r} out of range ({num_rows} rows)");
        }
        // Group the column ids by row (stable within a row = input order).
        let mut row_offsets = vec![0u32; num_rows + 1];
        for &(r, _) in entries {
            row_offsets[r as usize + 1] += 1;
        }
        for d in 0..num_rows {
            row_offsets[d + 1] += row_offsets[d];
        }
        let mut cols_by_row = vec![0u32; entries.len()];
        let mut cursor = row_offsets.clone();
        for &(r, c) in entries {
            cols_by_row[cursor[r as usize] as usize] = c;
            cursor[r as usize] += 1;
        }
        let rows = row_offsets.windows(2).map(|w| &cols_by_row[w[0] as usize..w[1] as usize]);
        Self::from_rows(num_cols, rows)
    }

    /// Builds the matrix from its rows, each given as the column ids of its
    /// entries in order (a document's tokens, in WarpLDA's use). One counting
    /// sort over the column ids: besides the matrix itself nothing per entry
    /// is allocated, so construction costs no more memory than the result.
    pub fn from_rows<'a>(num_cols: usize, rows: impl Iterator<Item = &'a [u32]> + Clone) -> Self {
        let mut col_offsets = vec![0u32; num_cols + 1];
        let mut row_offsets = Vec::with_capacity(rows.size_hint().0 + 1);
        row_offsets.push(0u32);
        let mut nnz = 0usize;
        for row in rows.clone() {
            for &c in row {
                assert!((c as usize) < num_cols, "col {c} out of range ({num_cols} cols)");
                col_offsets[c as usize + 1] += 1;
            }
            nnz += row.len();
            row_offsets.push(u32::try_from(nnz).expect("entry ids are 32-bit"));
        }
        for w in 0..num_cols {
            col_offsets[w + 1] += col_offsets[w];
        }
        // Visiting rows in ascending order hands each column its positions in
        // ascending row order (the property Section 5.2 relies on).
        let mut col_cursor = col_offsets[..num_cols].to_vec();
        let mut row_ptr = Vec::with_capacity(nnz);
        for row in rows {
            for &c in row {
                row_ptr.push(col_cursor[c as usize]);
                col_cursor[c as usize] += 1;
            }
        }
        Self {
            num_rows: row_offsets.len() - 1,
            num_cols,
            col_offsets,
            data: vec![T::default(); nnz],
            row_offsets,
            row_ptr,
        }
    }
}

impl<T> TokenMatrix<T> {
    /// Number of rows (documents).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (words).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of entries (tokens).
    pub fn num_entries(&self) -> usize {
        self.row_ptr.len()
    }

    /// Number of entries in row `d` (`L_d`).
    pub fn row_len(&self, row: u32) -> usize {
        let r = row as usize;
        (self.row_offsets[r + 1] - self.row_offsets[r]) as usize
    }

    /// Number of entries in column `w` (`L_w`, the term frequency).
    pub fn col_len(&self, col: u32) -> usize {
        let c = col as usize;
        (self.col_offsets[c + 1] - self.col_offsets[c]) as usize
    }

    /// `col_offsets[w]..col_offsets[w + 1]` is the entry-id range of column
    /// `w`: the prefix sums of the column lengths.
    pub fn col_offsets(&self) -> &[u32] {
        &self.col_offsets
    }

    /// The prefix sums of the row lengths; `row_offsets[d]` is also the
    /// position of row `d`'s first entry in input (row-major) order.
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Entry id of every entry in input order: rows ascending, entries of a
    /// row in the order they were given.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The per-entry data, indexed by entry id (CSC position).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the per-entry data.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Entry ids of row `d`, in input order.
    pub fn row_entry_ids(&self, row: u32) -> &[u32] {
        let r = row as usize;
        &self.row_ptr[self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize]
    }

    /// Entry-id range of column `w` (entry ids of a column are contiguous).
    pub fn col_entry_range(&self, col: u32) -> std::ops::Range<usize> {
        let c = col as usize;
        self.col_offsets[c] as usize..self.col_offsets[c + 1] as usize
    }

    /// Bytes of heap the structure holds (capacities, not lengths).
    pub fn heap_bytes(&self) -> usize {
        4 * (self.col_offsets.capacity() + self.row_offsets.capacity() + self.row_ptr.capacity())
            + std::mem::size_of::<T>() * self.data.capacity()
    }

    /// Visits every row in order, giving the closure mutable access to the
    /// row's entries (`VisitByRow` of Figure 2).
    pub fn visit_by_row<F>(&mut self, mut op: F)
    where
        F: FnMut(u32, RowEntriesMut<'_, T>),
    {
        for d in 0..self.num_rows as u32 {
            let r = d as usize;
            let range = self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize;
            let view = RowEntriesMut { entry_ids: &self.row_ptr[range], data: &mut self.data };
            op(d, view);
        }
    }

    /// Visits every column in order, giving the closure mutable access to the
    /// column's entries (`VisitByColumn` of Figure 2).
    pub fn visit_by_column<F>(&mut self, mut op: F)
    where
        F: FnMut(u32, ColumnEntriesMut<'_, T>),
    {
        for w in 0..self.num_cols as u32 {
            let range = self.col_entry_range(w);
            let view = ColumnEntriesMut {
                first_entry_id: range.start as u32,
                data: &mut self.data[range],
            };
            op(w, view);
        }
    }

    /// Splits the matrix into per-column raw parts for the parallel visitor.
    /// Internal to the crate.
    pub(crate) fn raw_parts_mut(&mut self) -> RawParts<'_, T> {
        RawParts {
            num_rows: self.num_rows,
            col_offsets: &self.col_offsets,
            row_offsets: &self.row_offsets,
            row_ptr: &self.row_ptr,
            data: &mut self.data,
        }
    }
}

/// Borrowed raw parts used by the parallel visitors.
pub(crate) struct RawParts<'a, T> {
    pub num_rows: usize,
    pub col_offsets: &'a [u32],
    pub row_offsets: &'a [u32],
    pub row_ptr: &'a [u32],
    pub data: &'a mut [T],
}

/// Mutable view of one row's entries during `VisitByRow`.
///
/// Accesses go through the row-pointer indirection, exactly like the real
/// layout: `get`/`get_mut` cost one extra index load compared to the column
/// view.
pub struct RowEntriesMut<'a, T> {
    entry_ids: &'a [u32],
    data: &'a mut [T],
}

impl<'a, T> RowEntriesMut<'a, T> {
    /// Number of entries in the row.
    pub fn len(&self) -> usize {
        self.entry_ids.len()
    }

    /// Returns `true` when the row has no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_ids.is_empty()
    }

    /// Stable entry id of the `i`-th entry of the row.
    pub fn entry_id(&self, i: usize) -> u32 {
        self.entry_ids[i]
    }

    /// Data of the `i`-th entry.
    pub fn get(&self, i: usize) -> &T {
        &self.data[self.entry_ids[i] as usize]
    }

    /// Mutable data of the `i`-th entry.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[self.entry_ids[i] as usize]
    }
}

/// Mutable view of one column's entries during `VisitByColumn`.
///
/// The column's data is a contiguous slice, so this view also exposes it
/// directly for vectorizable scans.
pub struct ColumnEntriesMut<'a, T> {
    first_entry_id: u32,
    data: &'a mut [T],
}

impl<'a, T> ColumnEntriesMut<'a, T> {
    /// Number of entries in the column.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stable entry id of the `i`-th entry of the column.
    pub fn entry_id(&self, i: usize) -> u32 {
        self.first_entry_id + i as u32
    }

    /// Data of the `i`-th entry.
    pub fn get(&self, i: usize) -> &T {
        &self.data[i]
    }

    /// Mutable data of the `i`-th entry.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }

    /// The whole column's data as a contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        self.data
    }

    /// The whole column's data as a contiguous mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 matrix: 3 docs × 5 words, 8 tokens.
    fn fig1_entries() -> Vec<(u32, u32)> {
        // doc 0: ios(0) android(1)
        // doc 1: apple(2) iphone(3) apple(2) ios(0)
        // doc 2: apple(2) orange(4)
        vec![(0, 0), (0, 1), (1, 2), (1, 3), (1, 2), (1, 0), (2, 2), (2, 4)]
    }

    #[test]
    fn construction_counts_rows_and_cols() {
        let m: TokenMatrix<u32> = TokenMatrix::from_entries(3, 5, &fig1_entries());
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 5);
        assert_eq!(m.num_entries(), 8);
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(1), 4);
        assert_eq!(m.row_len(2), 2);
        assert_eq!(m.col_len(0), 2); // ios
        assert_eq!(m.col_len(2), 3); // apple
        assert_eq!(m.col_len(4), 1); // orange
    }

    #[test]
    fn columns_are_sorted_by_row() {
        // Stamp every entry with its row through the row views; each column's
        // contiguous data must then read ascending.
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(3, 5, &fig1_entries());
        m.visit_by_row(|d, mut row| {
            for i in 0..row.len() {
                *row.get_mut(i) = d;
            }
        });
        m.visit_by_column(|w, col| {
            let rows = col.as_slice();
            assert!(rows.windows(2).all(|p| p[0] <= p[1]), "column {w}: {rows:?}");
        });
    }

    #[test]
    fn from_rows_equals_from_entries_on_row_grouped_input() {
        let rows: [&[u32]; 3] = [&[0, 1], &[2, 3, 2, 0], &[2, 4]];
        let a: TokenMatrix<()> = TokenMatrix::from_rows(5, rows.iter().copied());
        let b: TokenMatrix<()> = TokenMatrix::from_entries(3, 5, &fig1_entries());
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_offsets(), b.col_offsets());
        assert_eq!(a.row_offsets(), b.row_offsets());
        // Row slots keep input order: doc 1 = apple iphone apple ios.
        assert_eq!(a.row_entry_ids(1), &[3, 6, 4, 1]);
        // Per entry the structure holds the row pointer and nothing else.
        assert_eq!(a.heap_bytes(), 4 * (8 + 6 + 4));
    }

    #[test]
    fn row_and_column_views_see_the_same_entries() {
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(3, 5, &fig1_entries());
        // Stamp each entry with a unique value via column visits…
        let mut counter = 0u32;
        m.visit_by_column(|_, mut col| {
            for i in 0..col.len() {
                *col.get_mut(i) = counter;
                counter += 1;
            }
        });
        // …and verify row visits observe a permutation of exactly those values.
        let mut seen = [false; 8];
        m.visit_by_row(|_, row| {
            for i in 0..row.len() {
                let v = *row.get(i) as usize;
                assert!(!seen[v], "value {v} seen twice");
                seen[v] = true;
            }
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn row_entries_land_in_the_columns_they_were_given() {
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(3, 5, &fig1_entries());
        // The column of an entry is the one whose id range holds it.
        let col_of = |offsets: &[u32], e: u32| offsets.partition_point(|&o| o <= e) as u32 - 1;
        let offsets = m.col_offsets().to_vec();
        let mut per_row_cols: Vec<Vec<u32>> = vec![Vec::new(); 3];
        m.visit_by_row(|d, row| {
            for i in 0..row.len() {
                per_row_cols[d as usize].push(col_of(&offsets, row.entry_id(i)));
            }
        });
        let mut row1 = per_row_cols[1].clone();
        row1.sort_unstable();
        assert_eq!(row1, vec![0, 2, 2, 3]);
        let mut row2 = per_row_cols[2].clone();
        row2.sort_unstable();
        assert_eq!(row2, vec![2, 4]);
    }

    #[test]
    fn entry_ids_are_stable_across_view_kinds() {
        let mut m: TokenMatrix<u64> = TokenMatrix::from_entries(3, 5, &fig1_entries());
        // Write entry_id into each entry via row visits.
        m.visit_by_row(|_, mut row| {
            for i in 0..row.len() {
                *row.get_mut(i) = row.entry_id(i) as u64;
            }
        });
        // Column visits must see data[i] == entry_id(i).
        m.visit_by_column(|_, col| {
            for i in 0..col.len() {
                assert_eq!(*col.get(i), col.entry_id(i) as u64);
            }
        });
        // And the flat data array is the identity permutation.
        for (i, &v) in m.data().iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn writes_from_one_view_are_visible_in_the_other() {
        let mut m: TokenMatrix<u32> = TokenMatrix::from_entries(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        m.visit_by_row(|d, mut row| {
            for i in 0..row.len() {
                *row.get_mut(i) = d + 10;
            }
        });
        let mut seen = Vec::new();
        m.visit_by_column(|w, col| {
            for i in 0..col.len() {
                seen.push((w, *col.get(i)));
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 10), (1, 10), (1, 11)]);
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let mut m: TokenMatrix<u8> = TokenMatrix::from_entries(3, 3, &[]);
        assert_eq!(m.num_entries(), 0);
        let mut rows_visited = 0;
        m.visit_by_row(|_, row| {
            assert!(row.is_empty());
            rows_visited += 1;
        });
        assert_eq!(rows_visited, 3);
        let mut cols_visited = 0;
        m.visit_by_column(|_, col| {
            assert!(col.is_empty());
            cols_visited += 1;
        });
        assert_eq!(cols_visited, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        let _: TokenMatrix<u8> = TokenMatrix::from_entries(2, 2, &[(2, 0)]);
    }

    #[test]
    fn duplicate_cells_are_distinct_entries() {
        let m: TokenMatrix<u8> = TokenMatrix::from_entries(1, 1, &[(0, 0), (0, 0), (0, 0)]);
        assert_eq!(m.num_entries(), 3);
        assert_eq!(m.row_len(0), 3);
        assert_eq!(m.col_len(0), 3);
    }
}
