//! The TACO stand-in: [`spmspv_two_finger`], the iterator-over-nonzeros
//! merge a performance engineer would write for Figure 7's SpMSpV, whose
//! work `examples/spmspv.rs` prints beside the compiled strategies'.

/// A sparse vector as parallel coordinate/value arrays (sorted by
/// coordinate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    /// Sorted coordinates of the nonzeros.
    pub idx: Vec<usize>,
    /// The corresponding values.
    pub val: Vec<f64>,
    /// The dimension.
    pub len: usize,
}

impl SparseVec {
    /// Compress a dense vector.
    pub fn from_dense(data: &[f64]) -> Self {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            if v != 0.0 {
                idx.push(i);
                val.push(v);
            }
        }
        SparseVec { idx, val, len: data.len() }
    }
}

/// A CSR matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row boundaries, length `nrows + 1`.
    pub pos: Vec<usize>,
    /// Column coordinates of the nonzeros.
    pub idx: Vec<usize>,
    /// The nonzero values.
    pub val: Vec<f64>,
}

impl CsrMatrix {
    /// Compress a dense row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != nrows * ncols`.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let mut pos = vec![0usize];
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for r in 0..nrows {
            for c in 0..ncols {
                let v = data[r * ncols + c];
                if v != 0.0 {
                    idx.push(c);
                    val.push(v);
                }
            }
            pos.push(idx.len());
        }
        CsrMatrix { nrows, ncols, pos, idx, val }
    }

    /// The column coordinates of row `r`.
    pub fn row_idx(&self, r: usize) -> &[usize] {
        &self.idx[self.pos[r]..self.pos[r + 1]]
    }

    /// The values of row `r`.
    pub fn row_val(&self, r: usize) -> &[f64] {
        &self.val[self.pos[r]..self.pos[r + 1]]
    }
}

/// Sparse-matrix sparse-vector multiply, merging `x` against every row of
/// `a` with a two-finger merge (the TACO comparison point of Figure 7).
pub fn spmspv_two_finger(a: &CsrMatrix, x: &SparseVec) -> (Vec<f64>, u64) {
    let mut y = vec![0.0; a.nrows];
    let mut work = 0u64;
    for (r, yr) in y.iter_mut().enumerate() {
        let (idx, val) = (a.row_idx(r), a.row_val(r));
        let (mut p, mut q) = (0usize, 0usize);
        while p < idx.len() && q < x.idx.len() {
            work += 1;
            if idx[p] == x.idx[q] {
                *yr += val[p] * x.val[q];
                p += 1;
                q += 1;
            } else if idx[p] < x.idx[q] {
                p += 1;
            } else {
                q += 1;
            }
        }
    }
    (y, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::eval;
    use finch_cin::build::*;
    use finch_formats::Tensor;

    /// The merge computes `y[i] += A[i, j] * x[j]`'s dense meaning, and its
    /// work is one step per finger advance.
    #[test]
    fn the_two_finger_merge_computes_the_spmv_meaning() {
        let (nrows, ncols) = (6, 11);
        let row = [0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
        let xv = [0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
        let dense: Vec<f64> =
            (0..nrows).flat_map(|r| row.iter().map(move |&v| v * (r as f64 + 1.0))).collect();
        let (i, j) = (idx("i"), idx("j"));
        let spmv = forall(
            i.clone(),
            forall(
                j.clone(),
                add_assign(
                    access("y", [i.clone()]),
                    mul(access("A", [i, j.clone()]), access("x", [j])),
                ),
            ),
        );
        let a = Tensor::dense_matrix("A", nrows, ncols, &dense);
        let x = Tensor::dense_vector("x", &xv);
        let meaning = eval(&spmv, &[&a, &x], &[("y", &[nrows], 0.0)]).unwrap().remove(0);
        let (y, work) = spmspv_two_finger(
            &CsrMatrix::from_dense(nrows, ncols, &dense),
            &SparseVec::from_dense(&xv),
        );
        assert_eq!(y, meaning);
        assert_eq!(work, 6 * 6);
    }
}
