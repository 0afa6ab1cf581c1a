//! Seeded input generators.  Every generator draws a *fixed number* of
//! entries (never "each position with probability p"), so the amount of
//! work a kernel does barely depends on the seed and run-to-run spread
//! reflects the system, not the draw.
//!
//! All generators return dense row-major data; the structured formats are
//! built from it by the public `Tensor` constructors (see `cases`).

use crate::rng::Rng;

/// A vector of length `n` with exactly `nnz` nonzeros in `[0.5, 10)`.
pub fn sparse_vector(n: usize, nnz: usize, rng: &mut Rng) -> Vec<f64> {
    let mut v = vec![0.0; n];
    for i in rng.distinct_sorted(n, nnz) {
        v[i] = rng.range(0.5, 10.0);
    }
    v
}

/// A vector that is zero outside one contiguous band of `width` nonzeros
/// starting at `start`.
pub fn band_vector(n: usize, start: usize, width: usize, rng: &mut Rng) -> Vec<f64> {
    let mut v = vec![0.0; n];
    for x in &mut v[start..(start + width).min(n)] {
        *x = rng.range(1.0, 10.0);
    }
    v
}

/// A dense vector with every entry in `[0.5, 10)`.
pub fn dense_vector(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n).map(|_| rng.range(0.5, 10.0)).collect()
}

/// A `rows x cols` matrix whose rows each hold `blocks` contiguous blocks
/// of `block_len` nonzeros plus `scatter` isolated nonzeros — the
/// "clustered" structure (Fig. 3b) that VBL stores well and that gives a
/// two-finger merge something to skip.
pub fn clustered_matrix(
    rows: usize,
    cols: usize,
    blocks: usize,
    block_len: usize,
    scatter: usize,
    rng: &mut Rng,
) -> Vec<f64> {
    let mut m = vec![0.0; rows * cols];
    for r in 0..rows {
        let row = &mut m[r * cols..(r + 1) * cols];
        for _ in 0..blocks {
            let start = rng.below(cols - block_len + 1);
            for x in &mut row[start..start + block_len] {
                *x = rng.range(0.5, 10.0);
            }
        }
        for c in rng.distinct_sorted(cols, scatter) {
            row[c] = rng.range(0.5, 10.0);
        }
    }
    m
}

/// The 0/1 adjacency matrix of an undirected preferential-attachment graph:
/// each new vertex attaches to `m` distinct earlier vertices chosen in
/// proportion to their degree, which yields the skewed degrees that make
/// galloping pay on triangle counting (Fig. 8).
pub fn power_law_graph(n: usize, m: usize, rng: &mut Rng) -> Vec<f64> {
    let mut adj = vec![0.0; n * n];
    // Every edge contributes both endpoints, so a uniform draw from
    // `endpoints` is a degree-proportional draw of a vertex.
    let mut endpoints: Vec<usize> = (0..=m).collect();
    for v in 0..=m {
        for u in 0..v {
            adj[v * n + u] = 1.0;
            adj[u * n + v] = 1.0;
            endpoints.extend([u, v]);
        }
    }
    for v in m + 1..n {
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let u = endpoints[rng.below(endpoints.len())];
            if !targets.contains(&u) {
                targets.push(u);
            }
        }
        for u in targets {
            adj[v * n + u] = 1.0;
            adj[u * n + v] = 1.0;
            endpoints.extend([u, v]);
        }
    }
    adj
}

/// A `size x size` image of `strokes` axis-aligned bars of constant
/// intensity on a zero background: long runs of equal values, the structure
/// run-length encoding exploits (Figs. 10, 11).
pub fn stroke_image(size: usize, strokes: usize, rng: &mut Rng) -> Vec<f64> {
    let mut img = vec![0.0; size * size];
    for _ in 0..strokes {
        let intensity = (32 * (1 + rng.below(7))) as f64;
        let thick = 2 + rng.below(3);
        let len = size / 3 + rng.below(size / 2);
        let horizontal = rng.below(2) == 0;
        let (h, w) = if horizontal { (thick, len) } else { (len, thick) };
        let (r0, c0) = (rng.below(size - h.min(size - 1)), rng.below(size - w.min(size - 1)));
        for r in r0..(r0 + h).min(size) {
            for c in c0..(c0 + w).min(size) {
                img[r * size + c] = intensity;
            }
        }
    }
    img
}

/// `count` stroke images, one linearised image per row (`count x size²`).
pub fn image_batch(count: usize, size: usize, strokes: usize, rng: &mut Rng) -> Vec<f64> {
    (0..count).flat_map(|_| stroke_image(size, strokes, rng)).collect()
}

/// A lower-triangular `n x n` matrix with every stored entry nonzero.
pub fn lower_triangle(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..=r {
            m[r * n + c] = rng.range(0.5, 10.0);
        }
    }
    m
}

/// The symmetric completion of [`lower_triangle`].
pub fn symmetric(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut m = lower_triangle(n, rng);
    for r in 0..n {
        for c in 0..r {
            m[c * n + r] = m[r * n + c];
        }
    }
    m
}

/// A matrix whose row `r` stores a dense prefix of random length and zeros
/// after it (the ragged format of Fig. 3e).
pub fn ragged(rows: usize, cols: usize, rng: &mut Rng) -> Vec<f64> {
    let mut m = vec![0.0; rows * cols];
    for r in 0..rows {
        let len = 1 + rng.below(cols);
        for x in &mut m[r * cols..r * cols + len] {
            *x = rng.range(0.5, 10.0);
        }
    }
    m
}

/// CSR arrays (`pos`, `idx`, `val`) of a `rows x cols` matrix with exactly
/// `per_row` nonzeros in every row, built without a dense intermediate so
/// the large serve sizes stay cheap to set up.
pub fn csr_rows(
    rows: usize,
    cols: usize,
    per_row: usize,
    rng: &mut Rng,
) -> (Vec<i64>, Vec<i64>, Vec<f64>) {
    let mut pos = Vec::with_capacity(rows + 1);
    let mut idx = Vec::with_capacity(rows * per_row);
    let mut val = Vec::with_capacity(rows * per_row);
    pos.push(0);
    for _ in 0..rows {
        for c in rng.distinct_sorted(cols, per_row) {
            idx.push(c as i64);
            val.push(rng.range(0.5, 10.0));
        }
        pos.push(idx.len() as i64);
    }
    (pos, idx, val)
}
