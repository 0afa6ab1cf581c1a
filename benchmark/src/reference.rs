//! Plain-Rust reference loops over dense data, and the comparison of a
//! kernel's output against them.  Nothing here calls into `finch` except to
//! read a returned `Tensor`'s arrays: the reference is independent of the
//! compiler under test.

use finch::{Level, Tensor};

/// The reference result of one case's checked output.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// A reduction into a scalar: compared to 1e-9 relative.
    Scalar(f64),
    /// A dense output.  `exact` outputs (elementwise maps) must be equal
    /// element for element; reductions are compared to 1e-9 of the larger
    /// of the two values and the output's largest magnitude.
    Dense { values: Vec<f64>, exact: bool },
    /// An append-assembled sparse list: `pos`, `idx` and values must all be
    /// exactly equal.
    Sparse { pos: Vec<i64>, idx: Vec<i64>, values: Vec<f64> },
}

const REL_TOL: f64 = 1e-9;

fn close(got: f64, want: f64, scale: f64) -> bool {
    (got - want).abs() <= REL_TOL * got.abs().max(want.abs()).max(scale)
}

impl Expected {
    /// Whether a scalar read-back matches.
    pub fn matches_scalar(&self, got: f64) -> bool {
        matches!(self, Expected::Scalar(want) if close(got, *want, 0.0))
    }

    /// Whether a dense read-back matches.
    pub fn matches_dense(&self, got: &[f64]) -> bool {
        match self {
            Expected::Dense { values, exact: true } => got == values.as_slice(),
            Expected::Dense { values, exact: false } => {
                let scale = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                got.len() == values.len()
                    && got.iter().zip(values).all(|(g, w)| close(*g, *w, scale))
            }
            _ => false,
        }
    }

    /// Whether a finalized output tensor matches (dense: by values; sparse:
    /// by the assembled `pos` / `idx` / values).
    pub fn matches_tensor(&self, got: &Tensor) -> bool {
        match self {
            Expected::Scalar(_) => false,
            Expected::Dense { .. } => {
                got.levels().iter().all(|l| matches!(l, Level::Dense { .. }))
                    && self.matches_dense(got.values())
            }
            Expected::Sparse { pos, idx, values } => match got.levels() {
                [Level::SparseList { pos: gp, idx: gi, .. }] => {
                    gp == pos && gi == idx && got.values() == values.as_slice()
                }
                _ => false,
            },
        }
    }

    /// Test-only corruption (`--corrupt-reference`): shift the first value so
    /// every comparison against this reference must fail.
    pub fn corrupt(&mut self) {
        match self {
            Expected::Scalar(v) => *v += 1.0 + v.abs(),
            Expected::Dense { values, .. } | Expected::Sparse { values, .. } => {
                match values.first_mut() {
                    Some(v) => *v += 1.0 + v.abs(),
                    None => values.push(1.0),
                }
            }
        }
    }
}

/// `sum_i a[i] * b[i]`.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y[r] = sum_c a[r, c] * x[c]` over dense row-major `a`.
pub fn spmv(rows: usize, cols: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
    (0..rows).map(|r| dot(&a[r * cols..(r + 1) * cols], x)).collect()
}

/// [`spmv`] over CSR arrays (the large serve matrices have no dense form).
pub fn spmv_csr(pos: &[i64], idx: &[i64], val: &[f64], x: &[f64]) -> Vec<f64> {
    pos.windows(2)
        .map(|w| (w[0] as usize..w[1] as usize).map(|p| val[p] * x[idx[p] as usize]).sum())
        .collect()
}

/// `sum_{i,j,k} a[i,j] * a[j,k] * a[i,k]` — six times the triangle count of
/// a symmetric 0/1 adjacency matrix.  Rows of `a[i, ·]` that are zero at
/// `j` are skipped, which keeps the dense loop nest affordable.
pub fn triangles(n: usize, a: &[f64]) -> f64 {
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..n {
            let aij = a[i * n + j];
            if aij != 0.0 {
                for k in 0..n {
                    total += aij * a[j * n + k] * a[i * n + k];
                }
            }
        }
    }
    total
}

/// Zero-padded `ksize x ksize` convolution of a square grid; with `masked`
/// only positions where the grid itself is nonzero are computed (Fig. 9).
pub fn conv(size: usize, ksize: usize, grid: &[f64], filter: &[f64], masked: bool) -> Vec<f64> {
    let half = ksize / 2;
    let mut out = vec![0.0; size * size];
    for i in 0..size {
        for k in 0..size {
            if masked && grid[i * size + k] == 0.0 {
                continue;
            }
            let mut acc = 0.0;
            for j in 0..ksize {
                for l in 0..ksize {
                    let (r, c) = (i + j, k + l);
                    if r >= half && r - half < size && c >= half && c - half < size {
                        acc += grid[(r - half) * size + (c - half)] * filter[j * ksize + l];
                    }
                }
            }
            out[i * size + k] = acc;
        }
    }
    out
}

/// `round(alpha * b + beta * c)` clamped to `0..=255` (Fig. 10).
pub fn blend(b: &[f64], c: &[f64], alpha: f64, beta: f64) -> Vec<f64> {
    b.iter().zip(c).map(|(b, c)| (alpha * b + beta * c).round().clamp(0.0, 255.0)).collect()
}

/// All-pairs Euclidean distances between the `count` rows of `batch`
/// (Fig. 11): `o[k,l] = sqrt(r[k] + r[l] - 2 * <row k, row l>)`.
pub fn all_pairs(count: usize, m: usize, batch: &[f64]) -> Vec<f64> {
    let row = |k: usize| &batch[k * m..(k + 1) * m];
    let norms: Vec<f64> = (0..count).map(|k| dot(row(k), row(k))).collect();
    let mut out = vec![0.0; count * count];
    for k in 0..count {
        for l in 0..count {
            out[k * count + l] = (norms[k] + norms[l] + -2.0 * dot(row(k), row(l))).sqrt();
        }
    }
    out
}

/// The sparse list holding the entries of `dense` accepted by `keep`.
pub fn sparse_list(dense: &[f64], keep: impl Fn(f64) -> bool) -> Expected {
    let (mut idx, mut values) = (Vec::new(), Vec::new());
    for (i, &v) in dense.iter().enumerate() {
        if keep(v) {
            idx.push(i as i64);
            values.push(v);
        }
    }
    Expected::Sparse { pos: vec![0, idx.len() as i64], idx, values }
}

/// `a[i] * b[i]`, dense.
pub fn ewise_mul(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupting_a_reference_breaks_every_comparison() {
        let mut scalar = Expected::Scalar(3.0);
        assert!(scalar.matches_scalar(3.0 + 1e-12));
        scalar.corrupt();
        assert!(!scalar.matches_scalar(3.0));

        let mut dense = Expected::Dense { values: vec![0.0, 2.0], exact: true };
        assert!(dense.matches_dense(&[0.0, 2.0]));
        dense.corrupt();
        assert!(!dense.matches_dense(&[0.0, 2.0]));

        let mut empty = sparse_list(&[0.0, 0.0], |v| v != 0.0);
        let before = empty.clone();
        empty.corrupt();
        assert_ne!(empty, before);
    }

    #[test]
    fn triangle_reference_counts_each_triangle_six_times() {
        // A 4-clique has 4 triangles.
        let n = 4;
        let a: Vec<f64> = (0..n * n).map(|p| if p / n == p % n { 0.0 } else { 1.0 }).collect();
        assert_eq!(triangles(n, &a), 24.0);
    }

    #[test]
    fn masked_convolution_agrees_with_the_full_one_on_the_mask() {
        let size = 6;
        let mut grid = vec![0.0; size * size];
        grid[2 * size + 3] = 2.0;
        grid[4 * size + 1] = 1.0;
        let filter = [1.0; 9];
        let full = conv(size, 3, &grid, &filter, false);
        let masked = conv(size, 3, &grid, &filter, true);
        for p in 0..size * size {
            assert_eq!(masked[p], if grid[p] != 0.0 { full[p] } else { 0.0 });
        }
        assert_eq!(full[2 * size + 3], 2.0);
        assert_eq!(full[2 * size + 2], 2.0);
    }
}
