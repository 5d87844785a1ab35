//! The [`TokenMatrix`]: CSC entry ids with row pointers (Section 5.2).
//!
//! The matrix holds structure only — which cells contain entries — and it is
//! fixed at construction. Each entry has a stable **entry id**, its position
//! in CSC order, which callers use to index the per-entry state they keep
//! beside the matrix (WarpLDA keeps its
//! [`PackedRecords`](crate::PackedRecords) this way).
//!
//! The structure is **pointer-only**: per entry it keeps the row pointer
//! (4 bytes) and nothing else. Which row a CSC position belongs to, or which
//! column a row slot lands in, is not stored — no visit needs it, and a
//! caller that does (the exchange plan of the multi-process runtime) reads
//! it off the corpus views it already holds.

/// The structure of a sparse `rows × cols` matrix with one entry per token.
///
/// * Column-major (CSC) entry ids: the entries of column `w` are the
///   contiguous id range [`col_entry_range`](Self::col_entry_range), sorted
///   by row id, so a column visit streams per-entry state sequentially.
/// * Row access goes through a pointer array (`PCSR`): for each row, the
///   entry ids of its entries, in input order
///   ([`row_entry_ids`](Self::row_entry_ids)). A row visit therefore makes
///   indirect accesses into the per-entry state — but, because every
///   column's entries are sorted by row, those indirect accesses sweep each
///   column's region monotonically, which is the cache-line reuse argument of
///   Section 5.2.
#[derive(Debug, Clone)]
pub struct TokenMatrix {
    num_rows: usize,
    num_cols: usize,
    /// `col_offsets[w]..col_offsets[w+1]` is the entry-id range of column `w`.
    col_offsets: Vec<u32>,
    /// `row_offsets[d]..row_offsets[d+1]` is the range of `row_ptr` for row `d`.
    row_offsets: Vec<u32>,
    /// Entry ids of each row's entries, grouped by row, in input order.
    row_ptr: Vec<u32>,
}

impl TokenMatrix {
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
        Self { num_rows: row_offsets.len() - 1, num_cols, col_offsets, row_offsets, row_ptr }
    }

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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 matrix: 3 docs × 5 words, 8 tokens.
    /// doc 0: ios(0) android(1); doc 1: apple(2) iphone(3) apple(2) ios(0);
    /// doc 2: apple(2) orange(4).
    const FIG1: [&[u32]; 3] = [&[0, 1], &[2, 3, 2, 0], &[2, 4]];

    fn fig1() -> TokenMatrix {
        TokenMatrix::from_rows(5, FIG1.iter().copied())
    }

    /// An entry-id-indexed side array holding each entry's row, filled through
    /// the row pointers (how WarpLDA addresses its records from a document).
    fn row_of_entry(m: &TokenMatrix) -> Vec<u32> {
        let mut rows = vec![u32::MAX; m.num_entries()];
        for d in 0..m.num_rows() as u32 {
            for &e in m.row_entry_ids(d) {
                assert_eq!(rows[e as usize], u32::MAX, "entry {e} is in two rows");
                rows[e as usize] = d;
            }
        }
        rows
    }

    #[test]
    fn construction_counts_rows_and_cols() {
        let m = fig1();
        assert_eq!((m.num_rows(), m.num_cols(), m.num_entries()), (3, 5, 8));
        assert_eq!([m.row_len(0), m.row_len(1), m.row_len(2)], [2, 4, 2]);
        assert_eq!([m.col_len(0), m.col_len(2), m.col_len(4)], [2, 3, 1]); // ios, apple, orange
        assert_eq!(m.row_offsets(), &[0, 2, 6, 8]);
        assert_eq!(m.col_offsets(), &[0, 2, 3, 6, 7, 8]);
        // Per entry the structure holds the row pointer and nothing else.
        assert_eq!(m.heap_bytes(), 4 * (8 + 6 + 4));
    }

    #[test]
    fn row_and_column_views_see_the_same_entries() {
        let m = fig1();
        // Every entry id is in exactly one row (`row_of_entry` asserts "at
        // most", this "at least") and the column ranges tile the entry ids.
        assert!(row_of_entry(&m).iter().all(|&d| d != u32::MAX));
        let mut next = 0;
        for w in 0..m.num_cols() as u32 {
            let range = m.col_entry_range(w);
            assert_eq!((range.start, range.len()), (next, m.col_len(w)));
            next = range.end;
        }
        assert_eq!(next, m.num_entries());
    }

    #[test]
    fn columns_are_sorted_by_row() {
        let m = fig1();
        let rows = row_of_entry(&m);
        for w in 0..m.num_cols() as u32 {
            let col = &rows[m.col_entry_range(w)];
            assert!(col.windows(2).all(|p| p[0] <= p[1]), "column {w}: {col:?}");
        }
    }

    #[test]
    fn row_slots_keep_input_order() {
        let m = fig1();
        // doc 1 = apple iphone apple ios: the two apples in input order.
        assert_eq!(m.row_entry_ids(1), &[3, 6, 4, 1]);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 6, 4, 1, 5, 7]);
    }

    #[test]
    fn row_entries_land_in_the_columns_they_were_given() {
        let m = fig1();
        for (d, cols) in FIG1.iter().enumerate() {
            for (&e, &c) in m.row_entry_ids(d as u32).iter().zip(*cols) {
                assert!(
                    m.col_entry_range(c).contains(&(e as usize)),
                    "entry {e} not in column {c}"
                );
            }
        }
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let rows: [&[u32]; 3] = [&[], &[], &[]];
        let m = TokenMatrix::from_rows(3, rows.iter().copied());
        assert_eq!((m.num_rows(), m.num_cols(), m.num_entries()), (3, 3, 0));
        assert!((0..3).all(|i| m.row_entry_ids(i).is_empty() && m.col_entry_range(i).is_empty()));
        let none = TokenMatrix::from_rows(0, std::iter::empty());
        assert_eq!((none.num_rows(), none.num_entries()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        let rows: [&[u32]; 1] = [&[0, 2]];
        let _ = TokenMatrix::from_rows(2, rows.iter().copied());
    }

    #[test]
    fn duplicate_cells_are_distinct_entries() {
        let rows: [&[u32]; 1] = [&[0, 0, 0]];
        let m = TokenMatrix::from_rows(1, rows.iter().copied());
        assert_eq!((m.num_entries(), m.row_len(0), m.col_len(0)), (3, 3, 3));
        assert_eq!(m.row_entry_ids(0), &[0, 1, 2]);
    }
}
