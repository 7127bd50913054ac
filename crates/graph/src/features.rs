//! Sparse node-feature matrices.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::node::NodeId;

/// A sparse node-feature matrix in row-CSR form.
///
/// Real GCN inputs (bag-of-words document features, one-hot entity
/// features) are extremely sparse — Cora's feature matrix is ~1.3% dense,
/// NELL's ~0.01%. Accelerators such as AWB-GCN and I-GCN exploit this in
/// the first-layer combination `X·W`, so the reproduction must track
/// feature sparsity faithfully: operation counts, off-chip traffic and the
/// aggregation/combination ratio of Figure 10 all depend on `nnz(X)`.
///
/// # Example
///
/// ```
/// use igcn_graph::SparseFeatures;
///
/// let x = SparseFeatures::random(100, 32, 0.1, 42);
/// assert_eq!(x.num_rows(), 100);
/// assert_eq!(x.num_cols(), 32);
/// let density = x.density();
/// assert!(density > 0.02 && density < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseFeatures {
    num_rows: usize,
    num_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseFeatures {
    /// Builds a feature matrix from per-row `(column, value)` entries.
    ///
    /// Entries within a row are sorted by column; duplicate columns keep the
    /// last value.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != num_rows` or any column is out of range.
    pub fn from_rows(num_rows: usize, num_cols: usize, rows: Vec<Vec<(u32, f32)>>) -> Self {
        assert_eq!(rows.len(), num_rows, "row count mismatch");
        let mut row_ptr = Vec::with_capacity(num_rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for mut row in rows {
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            for (c, v) in row {
                assert!((c as usize) < num_cols, "feature column {c} out of range");
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        SparseFeatures { num_rows, num_cols, row_ptr, col_idx, values }
    }

    /// Rebuilds a feature matrix from raw CSR arrays — the
    /// deserialisation twin of the raw accessors
    /// ([`SparseFeatures::row_ptr`] and friends), validating instead of
    /// panicking so corrupt stored bytes surface as typed errors.
    ///
    /// # Errors
    ///
    /// [`GraphError::MalformedRowPtr`] if `row_ptr` has the wrong
    /// length, is non-monotone, or does not end at `col_idx.len()`;
    /// [`GraphError::NodeOutOfBounds`] if a column index is `>=
    /// num_cols` (the node field carries the offending column).
    pub fn from_raw_parts(
        num_rows: usize,
        num_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, crate::error::GraphError> {
        use crate::error::GraphError;
        if row_ptr.len() != num_rows + 1 {
            return Err(GraphError::MalformedRowPtr {
                detail: format!("expected {} entries, got {}", num_rows + 1, row_ptr.len()),
            });
        }
        if row_ptr.first() != Some(&0) || *row_ptr.last().unwrap() != col_idx.len() {
            return Err(GraphError::MalformedRowPtr {
                detail: "row_ptr must start at 0 and end at col_idx.len()".to_string(),
            });
        }
        if values.len() != col_idx.len() {
            return Err(GraphError::MalformedRowPtr {
                detail: format!(
                    "values length {} does not match col_idx length {}",
                    values.len(),
                    col_idx.len()
                ),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(GraphError::MalformedRowPtr {
                    detail: "row_ptr must be non-decreasing".to_string(),
                });
            }
        }
        for &c in &col_idx {
            if c as usize >= num_cols {
                return Err(GraphError::NodeOutOfBounds { node: c, num_nodes: num_cols });
            }
        }
        Ok(SparseFeatures { num_rows, num_cols, row_ptr, col_idx, values })
    }

    /// Generates a random sparse feature matrix with approximately the given
    /// density. Each row receives `round(density * num_cols)` distinct
    /// non-zero columns (at least one), with values uniform in `[0, 1)` —
    /// matching the bag-of-words-after-normalisation shape of the citation
    /// datasets.
    pub fn random(num_rows: usize, num_cols: usize, density: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_row = ((density * num_cols as f64).round() as usize).clamp(1, num_cols);
        let mut rows = Vec::with_capacity(num_rows);
        for _ in 0..num_rows {
            let mut cols = std::collections::BTreeSet::new();
            while cols.len() < per_row {
                cols.insert(rng.gen_range(0..num_cols as u32));
            }
            let row: Vec<(u32, f32)> = cols.into_iter().map(|c| (c, rng.gen::<f32>())).collect();
            rows.push(row);
        }
        Self::from_rows(num_rows, num_cols, rows)
    }

    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (feature channels).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of entries stored.
    pub fn density(&self) -> f64 {
        if self.num_rows == 0 || self.num_cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.num_rows as f64 * self.num_cols as f64)
        }
    }

    /// The non-zeros of one row, as parallel `(columns, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn row(&self, node: NodeId) -> (&[u32], &[f32]) {
        let r = node.index();
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Number of non-zeros in one row.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn row_nnz(&self, node: NodeId) -> usize {
        let r = node.index();
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Expands to a dense row-major buffer (`num_rows * num_cols`).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.num_rows * self.num_cols];
        for r in 0..self.num_rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out[r * self.num_cols + self.col_idx[i] as usize] = self.values[i];
            }
        }
        out
    }

    /// Builds a new matrix whose row `i` is this matrix's row
    /// `order[i]` — the row-permutation primitive behind schedule-order
    /// physical layouts (`order` lists source rows in their new
    /// positions, e.g. a [`Permutation`]'s inverse forward map).
    ///
    /// # Panics
    ///
    /// Panics if any entry of `order` is out of range.
    ///
    /// [`Permutation`]: crate::Permutation
    pub fn gather_rows(&self, order: &[u32]) -> SparseFeatures {
        let mut out = SparseFeatures {
            num_rows: 0,
            num_cols: self.num_cols,
            row_ptr: Vec::new(),
            col_idx: Vec::new(),
            values: Vec::new(),
        };
        self.gather_rows_into(order, &mut out);
        out
    }

    /// In-place variant of [`SparseFeatures::gather_rows`]: rebuilds
    /// `out` as the gathered matrix, reusing its buffers (no allocation
    /// once the buffers have grown to the steady-state size — the
    /// requirement of the zero-allocation serving hot path).
    ///
    /// # Panics
    ///
    /// Panics if any entry of `order` is out of range.
    pub fn gather_rows_into(&self, order: &[u32], out: &mut SparseFeatures) {
        out.num_rows = order.len();
        out.num_cols = self.num_cols;
        out.row_ptr.clear();
        out.col_idx.clear();
        out.values.clear();
        let nnz: usize = order
            .iter()
            .map(|&src| {
                let r = src as usize;
                assert!(r < self.num_rows, "row {src} out of range for {} rows", self.num_rows);
                self.row_ptr[r + 1] - self.row_ptr[r]
            })
            .sum();
        out.row_ptr.reserve(order.len() + 1);
        out.col_idx.reserve(nnz);
        out.values.reserve(nnz);
        out.row_ptr.push(0);
        for &src in order {
            let r = src as usize;
            let range = self.row_ptr[r]..self.row_ptr[r + 1];
            out.col_idx.extend_from_slice(&self.col_idx[range.clone()]);
            out.values.extend_from_slice(&self.values[range]);
            out.row_ptr.push(out.col_idx.len());
        }
    }

    /// Clears this matrix and returns a writer that rebuilds it row by
    /// row **in place**, reusing the existing buffers (no allocation
    /// once they have grown to their steady-state size — the same
    /// contract as [`SparseFeatures::gather_rows_into`]). Producers
    /// that transform another CSR matrix row-wise (e.g. the int8
    /// dequantizing gather in `igcn-linalg`) stream entries through
    /// [`CsrRowWriter::push_entry`] / [`CsrRowWriter::finish_row`].
    ///
    /// Rows not finished before the writer is dropped are simply absent;
    /// the matrix is valid at every point (`num_rows` tracks finished
    /// rows only).
    pub fn begin_rebuild(&mut self, num_cols: usize) -> CsrRowWriter<'_> {
        self.num_rows = 0;
        self.num_cols = num_cols;
        self.row_ptr.clear();
        self.col_idx.clear();
        self.values.clear();
        self.row_ptr.push(0);
        CsrRowWriter { target: self }
    }

    /// Heap bytes currently reserved by the CSR arrays (the observable
    /// of scratch-reuse tests: a reused buffer must stop growing).
    pub fn reserved_bytes(&self) -> usize {
        self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.col_idx.capacity() * 4
            + self.values.capacity() * 4
    }

    /// Raw row-pointer array (length `num_rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array, parallel to [`SparseFeatures::col_idx`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }
}

/// Streams rows into a [`SparseFeatures`] being rebuilt in place; see
/// [`SparseFeatures::begin_rebuild`].
#[derive(Debug)]
pub struct CsrRowWriter<'a> {
    target: &'a mut SparseFeatures,
}

impl CsrRowWriter<'_> {
    /// Reserves capacity for `rows` further rows and `nnz` further
    /// entries (a hint — the buffers grow on demand regardless).
    pub fn reserve(&mut self, rows: usize, nnz: usize) {
        self.target.row_ptr.reserve(rows);
        self.target.col_idx.reserve(nnz);
        self.target.values.reserve(nnz);
    }

    /// Appends one `(column, value)` entry to the row under
    /// construction. Columns must be pushed in strictly ascending order
    /// within a row (the CSR invariant every producer in this workspace
    /// already has).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or not strictly ascending within
    /// the current row.
    pub fn push_entry(&mut self, col: u32, v: f32) {
        let t = &mut *self.target;
        assert!((col as usize) < t.num_cols, "feature column {col} out of range");
        let row_start = *t.row_ptr.last().expect("row_ptr is never empty");
        if let Some(&prev) = t.col_idx.get(row_start..).and_then(<[u32]>::last) {
            assert!(
                prev < col,
                "columns must be strictly ascending within a row ({prev} >= {col})"
            );
        }
        t.col_idx.push(col);
        t.values.push(v);
    }

    /// Seals the row under construction (possibly empty) and starts the
    /// next one.
    pub fn finish_row(&mut self) {
        self.target.num_rows += 1;
        self.target.row_ptr.push(self.target.col_idx.len());
    }

    /// Finished rows so far.
    pub fn rows_written(&self) -> usize {
        self.target.num_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_sorts_and_dedups() {
        let x = SparseFeatures::from_rows(2, 4, vec![vec![(3, 1.0), (1, 2.0), (3, 5.0)], vec![]]);
        let (cols, vals) = x.row(NodeId::new(0));
        assert_eq!(cols, &[1, 3]);
        assert_eq!(vals.len(), 2);
        assert_eq!(x.row_nnz(NodeId::new(1)), 0);
    }

    #[test]
    fn random_has_requested_density() {
        let x = SparseFeatures::random(50, 100, 0.1, 1);
        assert_eq!(x.nnz(), 50 * 10);
        assert!((x.density() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn random_minimum_one_per_row() {
        let x = SparseFeatures::random(10, 1000, 0.00001, 2);
        for r in 0..10 {
            assert_eq!(x.row_nnz(NodeId::new(r)), 1);
        }
    }

    #[test]
    fn random_is_deterministic() {
        let a = SparseFeatures::random(20, 30, 0.2, 9);
        let b = SparseFeatures::random(20, 30, 0.2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn to_dense_places_values() {
        let x = SparseFeatures::from_rows(2, 3, vec![vec![(2, 7.0)], vec![(0, 1.0)]]);
        let d = x.to_dense();
        assert_eq!(d, vec![0.0, 0.0, 7.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let _ = SparseFeatures::from_rows(1, 2, vec![vec![(5, 1.0)]]);
    }

    #[test]
    fn gather_rows_reorders_and_duplicates() {
        let x = SparseFeatures::from_rows(
            3,
            4,
            vec![vec![(0, 1.0)], vec![(1, 2.0), (3, 3.0)], vec![(2, 4.0)]],
        );
        let g = x.gather_rows(&[2, 0, 1, 0]);
        assert_eq!(g.num_rows(), 4);
        assert_eq!(g.num_cols(), 4);
        assert_eq!(g.row(NodeId::new(0)), x.row(NodeId::new(2)));
        assert_eq!(g.row(NodeId::new(1)), x.row(NodeId::new(0)));
        assert_eq!(g.row(NodeId::new(2)), x.row(NodeId::new(1)));
        assert_eq!(g.row(NodeId::new(3)), x.row(NodeId::new(0)));
    }

    #[test]
    fn gather_rows_roundtrips_through_permutation() {
        let x = SparseFeatures::random(40, 16, 0.2, 5);
        let perm = crate::Permutation::from_order(&(0..40u32).rev().collect::<Vec<_>>()).unwrap();
        // order[new] = old: the inverse forward map.
        let order = perm.inverse();
        let permuted = x.gather_rows(order.as_forward());
        for old in 0..40u32 {
            let new = perm.map(NodeId::new(old));
            assert_eq!(permuted.row(new), x.row(NodeId::new(old)));
        }
        // Gathering back with the forward map restores the original.
        let back = permuted.gather_rows(perm.as_forward());
        assert_eq!(back, x);
    }

    #[test]
    fn gather_rows_into_reuses_buffers() {
        let x = SparseFeatures::random(30, 8, 0.3, 7);
        let order: Vec<u32> = (0..30u32).rev().collect();
        let mut out = x.gather_rows(&order);
        let cap = (out.row_ptr.capacity(), out.col_idx.capacity(), out.values.capacity());
        x.gather_rows_into(&order, &mut out);
        assert_eq!(
            (out.row_ptr.capacity(), out.col_idx.capacity(), out.values.capacity()),
            cap,
            "steady-state gather must not reallocate"
        );
        assert_eq!(out, x.gather_rows(&order));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_rejects_bad_index() {
        let x = SparseFeatures::random(3, 4, 0.5, 1);
        let _ = x.gather_rows(&[0, 9]);
    }

    #[test]
    fn begin_rebuild_streams_rows_in_place() {
        let mut m = SparseFeatures::random(10, 6, 0.4, 3);
        let mut w = m.begin_rebuild(4);
        w.push_entry(1, 2.0);
        w.push_entry(3, -1.0);
        w.finish_row();
        w.finish_row(); // empty row
        w.push_entry(0, 5.0);
        w.finish_row();
        assert_eq!(w.rows_written(), 3);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(
            m,
            SparseFeatures::from_rows(
                3,
                4,
                vec![vec![(1, 2.0), (3, -1.0)], vec![], vec![(0, 5.0)]]
            )
        );
    }

    #[test]
    fn begin_rebuild_reuses_buffers_at_steady_state() {
        let x = SparseFeatures::random(30, 8, 0.3, 11);
        let mut out = x.clone();
        let cap = (out.row_ptr.capacity(), out.col_idx.capacity(), out.values.capacity());
        let mut w = out.begin_rebuild(8);
        for r in 0..30 {
            let (cols, vals) = x.row(NodeId::new(r));
            for (&c, &v) in cols.iter().zip(vals) {
                w.push_entry(c, v * 2.0);
            }
            w.finish_row();
        }
        assert_eq!(
            (out.row_ptr.capacity(), out.col_idx.capacity(), out.values.capacity()),
            cap,
            "steady-state rebuild must not reallocate"
        );
        assert_eq!(out.nnz(), x.nnz());
        assert_eq!(out.row_ptr(), x.row_ptr());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn begin_rebuild_rejects_unsorted_columns() {
        let mut m = SparseFeatures::from_rows(0, 0, vec![]);
        let mut w = m.begin_rebuild(4);
        w.push_entry(2, 1.0);
        w.push_entry(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn begin_rebuild_rejects_bad_column() {
        let mut m = SparseFeatures::from_rows(0, 0, vec![]);
        let mut w = m.begin_rebuild(4);
        w.push_entry(4, 1.0);
    }
}
