//! List-of-lists (LIL) format (paper Sec. IV-D).
//!
//! The paper streams sparse matrices to FAFNIR in LIL: the non-zeros are
//! compressed along one dimension and carry explicit indices in the other,
//! which makes it trivial to split a large matrix into chunks along the
//! *non-compressed* dimension for parallel streaming. We compress along
//! columns — one sorted `(row, value)` list per column — so a column chunk
//! is exactly the slice of the operand vector it needs, and each leaf PE
//! can stream `value × x[col]` products in row order.
//!
//! The lists are stored flat, column-compressed: one `(row, value)` array
//! holding every column back to back, and `cols + 1` offsets into it.

use crate::coo::CooMatrix;

/// A LIL sparse matrix: one row-sorted `(row, value)` list per column.
///
/// The lists live back to back in one array, column `c` at
/// `offsets[c]..offsets[c + 1]`, built by a stable counting sort by column:
/// a list keeps its entries in the order the COO holds them, then (only if
/// that order is not row-sorted) a stable sort by row, so duplicate
/// coordinates stay as separate entries in insertion order.
///
/// # Examples
///
/// ```
/// use fafnir_sparse::{CooMatrix, LilMatrix};
///
/// let coo = CooMatrix::from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 2.0)]);
/// let lil = LilMatrix::from(&coo);
/// assert_eq!(lil.multiply(&[3.0, 4.0]), vec![3.0, 8.0]);
/// assert_eq!(lil.column_chunks(1).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LilMatrix {
    rows: usize,
    /// `cols + 1` offsets into `entries`; column `c` is
    /// `entries[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl LilMatrix {
    /// A 0 × 0 matrix, the starting point of [`LilMatrix::refill`].
    pub(crate) fn empty() -> Self {
        Self { rows: 0, offsets: vec![0], entries: Vec::new() }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// One column's `(row, value)` list, sorted by row.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn column(&self, col: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[col]..self.offsets[col + 1]]
    }

    /// Iterates over column chunks of `chunk_cols` columns each — the
    /// paper's splitting through the non-compressed dimension (Fig. 8's
    /// rounds).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cols` is zero.
    pub fn column_chunks(&self, chunk_cols: usize) -> impl Iterator<Item = LilChunk<'_>> {
        assert!(chunk_cols > 0, "chunk size must be non-zero");
        let total = self.cols();
        (0..total.div_ceil(chunk_cols)).map(move |chunk| {
            let start = chunk * chunk_cols;
            let end = (start + chunk_cols).min(total);
            LilChunk { matrix: self, start, end }
        })
    }

    /// Iterates every column's list in column order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = &[(usize, f64)]> + '_ {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// Sparse matrix–vector product (reference path through LIL).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "operand length mismatch");
        let mut y = vec![0.0; self.rows];
        for (list, &scale) in self.columns().zip(x) {
            for &(row, value) in list {
                y[row] += value * scale;
            }
        }
        y
    }

    /// Rebuilds this matrix in place from `(row, col, value)` triplets of a
    /// `rows × cols` matrix, reusing its buffers — the partitioned driver
    /// refills one `LilMatrix` for every rank.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of bounds.
    pub(crate) fn refill(&mut self, rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) {
        self.rows = rows;
        // Counting sort by column: count into `offsets[col + 1]`, prefix-sum
        // to column starts, place while bumping each start to its column's
        // end, then shift the ends right by one to get the starts back.
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(cols + 1, 0);
        for &(_, col, _) in triplets {
            offsets[col + 1] += 1;
        }
        for col in 0..cols {
            offsets[col + 1] += offsets[col];
        }
        self.entries.clear();
        self.entries.resize(triplets.len(), (0, 0.0));
        for &(row, col, value) in triplets {
            self.entries[offsets[col]] = (row, value);
            offsets[col] += 1;
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        // Row-major input leaves every column row-sorted already.
        if !triplets.is_sorted_by_key(|&(row, _, _)| row) {
            for col in 0..cols {
                self.entries[offsets[col]..offsets[col + 1]].sort_by_key(|&(row, _)| row);
            }
        }
    }
}

impl From<&CooMatrix> for LilMatrix {
    fn from(coo: &CooMatrix) -> Self {
        let mut lil = Self::empty();
        lil.refill(coo.rows(), coo.cols(), coo.entries());
        lil
    }
}

/// A view of a consecutive column range of a [`LilMatrix`].
#[derive(Debug, Clone, Copy)]
pub struct LilChunk<'a> {
    matrix: &'a LilMatrix,
    start: usize,
    end: usize,
}

impl<'a> LilChunk<'a> {
    /// First column (inclusive).
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Last column (exclusive).
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Columns in the chunk.
    #[must_use]
    pub fn width(&self) -> usize {
        self.end - self.start
    }

    /// Non-zeros in the chunk.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.matrix.offsets[self.end] - self.matrix.offsets[self.start]
    }

    /// Iterates the chunk's columns as `(col, list)` pairs.
    pub fn columns(&self) -> impl Iterator<Item = (usize, &'a [(usize, f64)])> + '_ {
        (self.start..self.end).map(move |col| (col, self.matrix.column(col)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (CooMatrix, LilMatrix) {
        let coo = CooMatrix::from_triplets(
            3,
            4,
            [(0, 0, 1.0), (2, 0, 4.0), (0, 2, 2.0), (1, 2, 3.0), (2, 3, 5.0)],
        );
        let lil = LilMatrix::from(&coo);
        (coo, lil)
    }

    #[test]
    fn columns_are_row_sorted() {
        let (_, lil) = sample();
        assert_eq!(lil.column(0), &[(0, 1.0), (2, 4.0)]);
        assert_eq!(lil.column(1), &[]);
        assert_eq!(lil.column(2), &[(0, 2.0), (1, 3.0)]);
        assert_eq!(lil.nnz(), 5);
    }

    #[test]
    fn multiply_matches_dense_reference() {
        let (coo, lil) = sample();
        let x = [1.0, 9.0, 2.0, 0.5];
        assert_eq!(lil.multiply(&x), coo.multiply_dense(&x));
    }

    #[test]
    fn chunks_cover_all_columns_without_overlap() {
        let (_, lil) = sample();
        let chunks: Vec<_> = lil.column_chunks(3).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!((chunks[0].start(), chunks[0].end()), (0, 3));
        assert_eq!((chunks[1].start(), chunks[1].end()), (3, 4));
        assert_eq!(chunks.iter().map(LilChunk::nnz).sum::<usize>(), lil.nnz());
        assert_eq!(chunks[1].width(), 1);
    }

    #[test]
    fn chunk_columns_expose_offsets() {
        let (_, lil) = sample();
        let chunk = lil.column_chunks(2).nth(1).unwrap();
        let cols: Vec<usize> = chunk.columns().map(|(col, _)| col).collect();
        assert_eq!(cols, vec![2, 3]);
    }
}
