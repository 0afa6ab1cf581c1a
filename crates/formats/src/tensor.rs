//! The [`Tensor`] container: a stack of levels plus a values array.

use std::error::Error;
use std::fmt;

use crate::level::Level;

/// Errors reported when constructing a malformed tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// A `pos` array is not monotonically non-decreasing or has the wrong
    /// length.
    BadPositions {
        /// Which level.
        level: usize,
        /// Details.
        detail: String,
    },
    /// Coordinates are out of range or unsorted.
    BadCoordinates {
        /// Which level.
        level: usize,
        /// Details.
        detail: String,
    },
    /// The values array does not match the number of stored positions.
    BadValues {
        /// Expected number of values.
        expected: usize,
        /// Actual number of values.
        actual: usize,
    },
    /// Dense input data did not match the requested shape.
    ShapeMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Provided number of elements.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::BadPositions { level, detail } => {
                write!(f, "invalid position array at level {level}: {detail}")
            }
            TensorError::BadCoordinates { level, detail } => {
                write!(f, "invalid coordinates at level {level}: {detail}")
            }
            TensorError::BadValues { expected, actual } => {
                write!(f, "values array has {actual} entries, expected {expected}")
            }
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "dense data has {actual} elements, expected {expected}")
            }
        }
    }
}

impl Error for TensorError {}

/// A structured tensor: a fiber tree of [`Level`]s with a flat values array
/// and a fill (background) value.
///
/// Levels are ordered outermost first; the values array is indexed by the
/// child positions of the innermost level.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    name: String,
    levels: Vec<Level>,
    values: Vec<f64>,
    fill: f64,
}

impl Tensor {
    /// Construct a tensor from its parts, validating the level arrays.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] when positions are non-monotonic,
    /// coordinates are out of range, or the values array has the wrong
    /// length.
    pub fn new(
        name: impl Into<String>,
        levels: Vec<Level>,
        values: Vec<f64>,
        fill: f64,
    ) -> Result<Self, TensorError> {
        let t = Tensor { name: name.into(), levels, values, fill };
        t.validate()?;
        Ok(t)
    }

    /// Construct a tensor from its parts **without validating** them — the
    /// untrusted-boundary constructor.  Use it to carry possibly-corrupt
    /// wire data up to a service boundary that calls [`Tensor::validate`]
    /// itself and surfaces failures as typed errors; [`Tensor::new`] is the
    /// eager-validating constructor for trusted callers.
    pub fn from_raw_parts(
        name: impl Into<String>,
        levels: Vec<Level>,
        values: Vec<f64>,
        fill: f64,
    ) -> Self {
        Tensor { name: name.into(), levels, values, fill }
    }

    /// A zero-dimensional tensor holding a single value.
    pub fn scalar(name: impl Into<String>, value: f64) -> Self {
        Tensor { name: name.into(), levels: Vec::new(), values: vec![value], fill: 0.0 }
    }

    /// A dense vector.
    pub fn dense_vector(name: impl Into<String>, data: &[f64]) -> Self {
        Tensor {
            name: name.into(),
            levels: vec![Level::Dense { size: data.len() }],
            values: data.to_vec(),
            fill: 0.0,
        }
    }

    /// A dense row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != nrows * ncols`.
    pub fn dense_matrix(name: impl Into<String>, nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense matrix data must match its shape");
        Tensor {
            name: name.into(),
            levels: vec![Level::Dense { size: nrows }, Level::Dense { size: ncols }],
            values: data.to_vec(),
            fill: 0.0,
        }
    }

    /// The tensor's name (used to name interpreter buffers).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the tensor (useful when the same data is bound under several
    /// roles in one kernel, e.g. `A` and its transpose).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replace the fill (background) value.
    pub fn with_fill(mut self, fill: f64) -> Self {
        self.fill = fill;
        self
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.levels.len()
    }

    /// The dimension sizes, outermost first.
    pub fn shape(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.size()).collect()
    }

    /// The levels, outermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The flat values array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The fill (background) value.
    pub fn fill(&self) -> f64 {
        self.fill
    }

    /// The element at the given coordinates, using the slow reference
    /// traversal (the oracle the compiler-generated code is tested against).
    ///
    /// # Panics
    ///
    /// Panics when the number of coordinates does not match [`Tensor::ndim`].
    pub fn value_at(&self, coords: &[usize]) -> f64 {
        assert_eq!(coords.len(), self.ndim(), "coordinate rank mismatch");
        let mut p = 0usize;
        for (level, &i) in self.levels.iter().zip(coords) {
            match level.locate(p, i) {
                Some(q) => p = q,
                None => return self.fill,
            }
        }
        self.values[p]
    }

    /// Materialise the tensor as a row-major dense array.
    pub fn to_dense(&self) -> Vec<f64> {
        let shape = self.shape();
        let total: usize = shape.iter().product();
        if self.ndim() == 0 {
            return self.values.clone();
        }
        let mut out = Vec::with_capacity(total);
        let mut coords = vec![0usize; self.ndim()];
        for flat in 0..total {
            let mut rest = flat;
            for (k, &dim) in shape.iter().enumerate().rev() {
                coords[k] = rest % dim;
                rest /= dim;
            }
            out.push(self.value_at(&coords));
        }
        out
    }

    /// Number of elements different from the fill value.
    pub fn nnz(&self) -> usize {
        self.to_dense().iter().filter(|&&v| v != self.fill).count()
    }

    /// Number of explicitly stored values.
    pub fn stored(&self) -> usize {
        self.values.len()
    }

    /// Check the level arrays for structural soundness: monotone `pos`
    /// arrays starting at 0 that never point past their data, sorted
    /// in-range coordinates per fiber, and a values array matching the
    /// innermost level's span.  [`Tensor::new`] runs this eagerly; callers
    /// holding a [`Tensor::from_raw_parts`] tensor (untrusted wire data)
    /// should run it at their trust boundary.
    ///
    /// # Errors
    ///
    /// Returns the first [`TensorError`] found, outermost level first.
    pub fn validate(&self) -> Result<(), TensorError> {
        let mut nfibers = 1usize;
        for (k, level) in self.levels.iter().enumerate() {
            match level {
                Level::Dense { .. } | Level::Triangular { .. } | Level::Symmetric { .. } => {}
                Level::Bitmap { size, tbl } => {
                    if tbl.len() != nfibers * size {
                        return Err(TensorError::BadPositions {
                            level: k,
                            detail: format!(
                                "bytemap has {} entries, expected {}",
                                tbl.len(),
                                nfibers * size
                            ),
                        });
                    }
                }
                Level::SparseList { size, pos, idx } => {
                    check_pos(k, pos, nfibers)?;
                    check_sorted_coords(k, pos, idx, *size)?;
                }
                Level::RunLength { size, pos, idx } | Level::PackBits { size, pos, idx, .. } => {
                    check_pos(k, pos, nfibers)?;
                    check_pos_bound(k, pos, idx.len())?;
                    for p in 0..nfibers {
                        let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
                        let mut prev = -1i64;
                        for &raw in &idx[lo..hi] {
                            let end = if matches!(level, Level::PackBits { .. }) {
                                raw.abs() - 1
                            } else {
                                raw
                            };
                            if end <= prev || end >= *size as i64 {
                                return Err(TensorError::BadCoordinates {
                                    level: k,
                                    detail: format!("segment end {end} out of order in fiber {p}"),
                                });
                            }
                            prev = end;
                        }
                        if hi > lo && prev != *size as i64 - 1 {
                            return Err(TensorError::BadCoordinates {
                                level: k,
                                detail: format!("fiber {p} does not cover the dimension"),
                            });
                        }
                    }
                }
                Level::SparseBand { pos, start, size } => {
                    check_pos(k, pos, nfibers)?;
                    for p in 0..nfibers {
                        let width = (pos[p + 1] - pos[p]) as usize;
                        if width > 0 && start[p] as usize + width > *size {
                            return Err(TensorError::BadCoordinates {
                                level: k,
                                detail: format!("band of fiber {p} exceeds the dimension"),
                            });
                        }
                    }
                }
                Level::SparseVbl { pos, idx, ofs, size } => {
                    check_pos(k, pos, nfibers)?;
                    for p in 0..nfibers {
                        let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
                        let mut prev_end = -1i64;
                        for q in lo..hi {
                            let width = ofs[q + 1] - ofs[q];
                            let begin = idx[q] + 1 - width;
                            if begin <= prev_end || idx[q] >= *size as i64 || width <= 0 {
                                return Err(TensorError::BadCoordinates {
                                    level: k,
                                    detail: format!("block {q} of fiber {p} is malformed"),
                                });
                            }
                            prev_end = idx[q];
                        }
                    }
                }
                Level::Ragged { pos, size } => {
                    check_pos(k, pos, nfibers)?;
                    for p in 0..nfibers {
                        if (pos[p + 1] - pos[p]) as usize > *size {
                            return Err(TensorError::BadCoordinates {
                                level: k,
                                detail: format!("row {p} longer than the dimension"),
                            });
                        }
                    }
                }
            }
            nfibers = level.child_span(nfibers);
        }
        if self.values.len() != nfibers {
            return Err(TensorError::BadValues { expected: nfibers, actual: self.values.len() });
        }
        Ok(())
    }
}

fn check_pos(level: usize, pos: &[i64], nfibers: usize) -> Result<(), TensorError> {
    if pos.len() != nfibers + 1 {
        return Err(TensorError::BadPositions {
            level,
            detail: format!("pos has {} entries, expected {}", pos.len(), nfibers + 1),
        });
    }
    if pos.windows(2).any(|w| w[1] < w[0]) || pos[0] != 0 {
        return Err(TensorError::BadPositions {
            level,
            detail: "pos is not monotonic from 0".into(),
        });
    }
    Ok(())
}

/// A monotonic `pos` array must not point past the end of the array it
/// indexes, or the per-fiber validation loops would go out of bounds.
fn check_pos_bound(level: usize, pos: &[i64], len: usize) -> Result<(), TensorError> {
    match pos.last() {
        Some(&last) if last as usize > len => Err(TensorError::BadPositions {
            level,
            detail: format!("pos points past the end of the data ({last} > {len})"),
        }),
        _ => Ok(()),
    }
}

fn check_sorted_coords(
    level: usize,
    pos: &[i64],
    idx: &[i64],
    size: usize,
) -> Result<(), TensorError> {
    check_pos_bound(level, pos, idx.len())?;
    for p in 0..pos.len() - 1 {
        let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
        let mut prev = -1i64;
        for &c in &idx[lo..hi] {
            if c <= prev || c >= size as i64 {
                return Err(TensorError::BadCoordinates {
                    level,
                    detail: format!("coordinate {c} out of order in fiber {p}"),
                });
            }
            prev = c;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_vector_roundtrip() {
        let data = vec![1.0, 0.0, 2.5, -3.0];
        let t = Tensor::dense_vector("x", &data);
        assert_eq!(t.to_dense(), data);
        assert_eq!(t.ndim(), 1);
        assert_eq!(t.shape(), vec![4]);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.value_at(&[2]), 2.5);
    }

    #[test]
    fn dense_matrix_roundtrip() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let t = Tensor::dense_matrix("A", 3, 4, &data);
        assert_eq!(t.to_dense(), data);
        assert_eq!(t.value_at(&[2, 3]), 11.0);
        assert_eq!(t.shape(), vec![3, 4]);
    }

    #[test]
    fn scalar_tensors_hold_one_value() {
        let t = Tensor::scalar("C", 7.5);
        assert_eq!(t.ndim(), 0);
        assert_eq!(t.to_dense(), vec![7.5]);
    }

    #[test]
    fn csr_like_tensor_via_new() {
        // 2x5 matrix with rows {1: 2.0 at col 1} and {4.0 at col 0, 5.0 at col 4}
        let t = Tensor::new(
            "A",
            vec![
                Level::Dense { size: 2 },
                Level::SparseList { size: 5, pos: vec![0, 1, 3], idx: vec![1, 0, 4] },
            ],
            vec![2.0, 4.0, 5.0],
            0.0,
        )
        .unwrap();
        assert_eq!(t.to_dense(), vec![0.0, 2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 5.0]);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.stored(), 3);
    }

    #[test]
    fn validation_rejects_bad_pos() {
        let err = Tensor::new(
            "A",
            vec![Level::SparseList { size: 5, pos: vec![0, 2, 1], idx: vec![0, 1] }],
            vec![1.0, 2.0],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::BadPositions { .. }));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn validation_rejects_unsorted_coordinates() {
        let err = Tensor::new(
            "A",
            vec![
                Level::Dense { size: 1 },
                Level::SparseList { size: 5, pos: vec![0, 2], idx: vec![3, 1] },
            ],
            vec![1.0, 2.0],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::BadCoordinates { .. }));
    }

    #[test]
    fn validation_rejects_pos_past_end_of_idx() {
        // pos claims 5 stored entries but idx only has 2; must be an Err,
        // not an out-of-bounds panic, even when an early coordinate is
        // also invalid.
        let err = Tensor::new(
            "x",
            vec![
                Level::Dense { size: 1 },
                Level::SparseList { size: 4, pos: vec![0, 5], idx: vec![5, 1] },
            ],
            vec![1.0, 2.0],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, TensorError::BadPositions { .. }));
    }

    #[test]
    fn validation_rejects_wrong_value_count() {
        let err = Tensor::new("x", vec![Level::Dense { size: 3 }], vec![1.0], 0.0).unwrap_err();
        assert!(matches!(err, TensorError::BadValues { expected: 3, actual: 1 }));
    }

    #[test]
    fn from_raw_parts_defers_validation() {
        // A corrupted CSR: pos is not monotonic.  Construction succeeds
        // (no panic, no eager check); validate() reports the corruption.
        let t = Tensor::from_raw_parts(
            "A",
            vec![
                Level::Dense { size: 2 },
                Level::SparseList { size: 5, pos: vec![0, 3, 1], idx: vec![1, 2, 4] },
            ],
            vec![1.0, 2.0, 3.0],
            0.0,
        );
        assert!(matches!(t.validate(), Err(TensorError::BadPositions { .. })));

        // Well-formed raw parts validate cleanly and behave like new().
        let ok = Tensor::from_raw_parts(
            "B",
            vec![Level::SparseList { size: 4, pos: vec![0, 2], idx: vec![0, 3] }],
            vec![7.0, 8.0],
            0.0,
        );
        ok.validate().unwrap();
        assert_eq!(ok.to_dense(), vec![7.0, 0.0, 0.0, 8.0]);
    }

    #[test]
    fn nonzero_fill_changes_background_reads() {
        let t = Tensor::new(
            "A",
            vec![Level::SparseList { size: 4, pos: vec![0, 1], idx: vec![2] }],
            vec![9.0],
            0.0,
        )
        .unwrap()
        .with_fill(1.0);
        assert_eq!(t.to_dense(), vec![1.0, 1.0, 9.0, 1.0]);
    }
}
