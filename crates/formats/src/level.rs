//! Level formats: the per-dimension storage schemes of Figure 3.
//!
//! A level describes how the fibers of one dimension are stored.  Positions
//! are 0-based everywhere; a level maps a *parent position* `p` (which fiber
//! of this level) and a coordinate `i` to a *child position* (an entry in
//! the next level, or in the values array for the innermost level), or to
//! the fill value when the coordinate is not stored.

use finch_ir::Buffer;

/// The storage scheme of one dimension, generic over its arrays: `I` is an
/// `i64` array and `B` a bitmap's table.  [`Level`] holds the arrays
/// themselves; [`BoundLevel`](crate::BoundLevel) the ids of the buffers they
/// are bound to.  The variants, and [`LevelOf::map`]'s arms, are the one
/// statement of each format's arrays.
///
/// Array fields follow the paper's naming: `pos` delimits the entries of
/// each fiber, `idx` stores coordinates (or block/run end coordinates),
/// `ofs` stores value offsets, `start` stores band starts, `tbl` is a
/// bytemap.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelOf<I, B> {
    /// Every coordinate `0..size` is stored: child position `p * size + i`.
    Dense {
        /// The dimension size.
        size: usize,
    },
    /// Sorted coordinate list ("compressed"): fiber `p` owns entries
    /// `pos[p]..pos[p+1]`, entry `q` has coordinate `idx[q]` and child
    /// position `q`.
    SparseList {
        /// The dimension size.
        size: usize,
        /// Fiber boundaries, length `nfibers + 1`.
        pos: I,
        /// Sorted coordinates of stored entries.
        idx: I,
    },
    /// A single variably-wide dense block per fiber: fiber `p` stores
    /// coordinates `start[p] .. start[p] + (pos[p+1]-pos[p]) - 1`, child
    /// positions `pos[p]..pos[p+1]`.
    SparseBand {
        /// The dimension size.
        size: usize,
        /// Value boundaries per fiber, length `nfibers + 1`.
        pos: I,
        /// First stored coordinate per fiber, length `nfibers`.
        start: I,
    },
    /// Variable block list: fiber `p` owns blocks `pos[p]..pos[p+1]`; block
    /// `q` ends at coordinate `idx[q]` and stores `ofs[q+1]-ofs[q]`
    /// contiguous values ending at child position `ofs[q+1]-1`.
    SparseVbl {
        /// The dimension size.
        size: usize,
        /// Block boundaries per fiber, length `nfibers + 1`.
        pos: I,
        /// Inclusive end coordinate of each block.
        idx: I,
        /// Value offsets, length `nblocks + 1`.
        ofs: I,
    },
    /// Run-length encoding: fiber `p` owns runs `pos[p]..pos[p+1]`; run `q`
    /// ends at coordinate `idx[q]` (inclusive) and repeats the value at
    /// child position `q`.  The last run of a fiber ends at `size - 1`.
    RunLength {
        /// The dimension size.
        size: usize,
        /// Run boundaries per fiber, length `nfibers + 1`.
        pos: I,
        /// Inclusive end coordinate of each run.
        idx: I,
    },
    /// PackBits-style mix of runs and literal (dense) segments: fiber `p`
    /// owns segments `pos[p]..pos[p+1]`.  Segment `q` ends at coordinate
    /// `|idx[q]| - 1`; a positive `idx[q]` marks a run repeating the value
    /// at child position `ofs[q]`, a negative `idx[q]` marks a literal
    /// segment whose values are stored contiguously starting at child
    /// position `ofs[q]`.
    ///
    /// (The paper's Figure 3h overlays segment and value positions; this
    /// reproduction keeps an explicit `ofs` array so that coordinates can be
    /// 0-based, which is recorded as a deviation in DESIGN.md.)
    PackBits {
        /// The dimension size.
        size: usize,
        /// Segment boundaries per fiber, length `nfibers + 1`.
        pos: I,
        /// Signed segment end markers (`±(end + 1)`).
        idx: I,
        /// Value offset of each segment, length `nsegments + 1`.
        ofs: I,
    },
    /// A dense bytemap alongside dense values: coordinate `i` of fiber `p`
    /// is stored iff `tbl[p * size + i]`, at child position `p * size + i`.
    Bitmap {
        /// The dimension size.
        size: usize,
        /// The bytemap, length `nfibers * size`.
        tbl: B,
    },
    /// Packed lower-triangular storage: fiber `p` stores coordinates
    /// `0..=p` at child positions `p * (p + 1) / 2 + i`; coordinates above
    /// the diagonal read as the fill value.
    Triangular {
        /// The dimension size (the matrix is `size × size`).
        size: usize,
    },
    /// Packed symmetric storage: like [`LevelOf::Triangular`] below the
    /// diagonal, and mirrored (`A[i, j] = A[j, i]`) above it.
    Symmetric {
        /// The dimension size.
        size: usize,
    },
    /// Ragged rows: fiber `p` stores its first `pos[p+1]-pos[p]` coordinates
    /// contiguously (child positions `pos[p]..`), the rest read as fill.
    Ragged {
        /// The dimension size (maximum row length).
        size: usize,
        /// Row boundaries, length `nfibers + 1`.
        pos: I,
    },
}

/// The storage scheme of one dimension of a [`Tensor`](crate::Tensor),
/// holding its arrays.
pub type Level = LevelOf<Vec<i64>, Vec<bool>>;

/// One array of a level, as [`LevelOf::map`] hands it over: an `i64` array
/// (`pos`, `idx`, `start`, `ofs`) or a bitmap's table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Array<I, B> {
    /// An `i64` array.
    I64(I),
    /// A bitmap's table.
    Bool(B),
}

impl<T> Array<T, T> {
    /// The array, whichever kind it is.
    pub fn into_inner(self) -> T {
        match self {
            Array::I64(a) | Array::Bool(a) => a,
        }
    }
}

impl Array<&Vec<i64>, &Vec<bool>> {
    /// A copy of the array as an interpreter buffer of its element kind.
    pub fn to_buffer(self) -> Buffer {
        match self {
            Array::I64(a) => Buffer::I64(a.clone().into()),
            Array::Bool(t) => Buffer::Bool(t.clone()),
        }
    }
}

impl<I, B> LevelOf<I, B> {
    /// The dimension size this level represents.
    pub fn size(&self) -> usize {
        match self {
            LevelOf::Dense { size }
            | LevelOf::SparseList { size, .. }
            | LevelOf::SparseBand { size, .. }
            | LevelOf::SparseVbl { size, .. }
            | LevelOf::RunLength { size, .. }
            | LevelOf::PackBits { size, .. }
            | LevelOf::Bitmap { size, .. }
            | LevelOf::Triangular { size }
            | LevelOf::Symmetric { size }
            | LevelOf::Ragged { size, .. } => *size,
        }
    }

    /// A short name for the format (used in reports and benchmark labels).
    pub fn format_name(&self) -> &'static str {
        match self {
            LevelOf::Dense { .. } => "dense",
            LevelOf::SparseList { .. } => "sparse-list",
            LevelOf::SparseBand { .. } => "sparse-band",
            LevelOf::SparseVbl { .. } => "sparse-vbl",
            LevelOf::RunLength { .. } => "rle",
            LevelOf::PackBits { .. } => "packbits",
            LevelOf::Bitmap { .. } => "bitmap",
            LevelOf::Triangular { .. } => "triangular",
            LevelOf::Symmetric { .. } => "symmetric",
            LevelOf::Ragged { .. } => "ragged",
        }
    }

    /// The level's format and size, without its arrays: all a compiled
    /// kernel knows of a level.
    pub fn shape(&self) -> LevelOf<(), ()> {
        self.map(|_, _| ())
    }

    /// Whether `other` has this level's format and size, so that its data
    /// can be rebound into a kernel compiled for this level.
    pub fn same_shape<J, C>(&self, other: &LevelOf<J, C>) -> bool {
        self.shape() == other.shape()
    }

    /// This level with each array replaced by `f(name, array)`, called in
    /// the order the arrays are bound (`pos`, then `idx` or `start`, then
    /// `ofs`; or `tbl`).  The one list of each format's arrays.
    pub fn map<'a, T>(
        &'a self,
        mut f: impl FnMut(&'static str, Array<&'a I, &'a B>) -> T,
    ) -> LevelOf<T, T> {
        use Array::{Bool, I64};
        match self {
            LevelOf::Dense { size } => LevelOf::Dense { size: *size },
            LevelOf::SparseList { size, pos, idx } => LevelOf::SparseList {
                size: *size,
                pos: f("pos", I64(pos)),
                idx: f("idx", I64(idx)),
            },
            LevelOf::SparseBand { size, pos, start } => LevelOf::SparseBand {
                size: *size,
                pos: f("pos", I64(pos)),
                start: f("start", I64(start)),
            },
            LevelOf::SparseVbl { size, pos, idx, ofs } => LevelOf::SparseVbl {
                size: *size,
                pos: f("pos", I64(pos)),
                idx: f("idx", I64(idx)),
                ofs: f("ofs", I64(ofs)),
            },
            LevelOf::RunLength { size, pos, idx } => {
                LevelOf::RunLength { size: *size, pos: f("pos", I64(pos)), idx: f("idx", I64(idx)) }
            }
            LevelOf::PackBits { size, pos, idx, ofs } => LevelOf::PackBits {
                size: *size,
                pos: f("pos", I64(pos)),
                idx: f("idx", I64(idx)),
                ofs: f("ofs", I64(ofs)),
            },
            LevelOf::Bitmap { size, tbl } => {
                LevelOf::Bitmap { size: *size, tbl: f("tbl", Bool(tbl)) }
            }
            LevelOf::Triangular { size } => LevelOf::Triangular { size: *size },
            LevelOf::Symmetric { size } => LevelOf::Symmetric { size: *size },
            LevelOf::Ragged { size, pos } => {
                LevelOf::Ragged { size: *size, pos: f("pos", I64(pos)) }
            }
        }
    }

    /// This level's arrays, in [`LevelOf::map`]'s order (a level has at
    /// most three).
    pub fn arrays(&self) -> impl Iterator<Item = Array<&I, &B>> {
        let (mut arrays, mut n) = ([None, None, None], 0);
        self.map(|_, array| {
            arrays[n] = Some(array);
            n += 1;
        });
        arrays.into_iter().flatten()
    }
}

impl Level {
    /// The number of child positions (entries in the next level / values
    /// array) used by the first `nfibers` fibers of this level.
    pub fn child_span(&self, nfibers: usize) -> usize {
        match self {
            Level::Dense { size } | Level::Bitmap { size, .. } => nfibers * size,
            Level::SparseList { pos, .. }
            | Level::SparseBand { pos, .. }
            | Level::RunLength { pos, .. }
            | Level::Ragged { pos, .. } => pos[nfibers] as usize,
            Level::SparseVbl { pos, ofs, .. } => ofs[pos[nfibers] as usize] as usize,
            Level::PackBits { pos, ofs, .. } => ofs[pos[nfibers] as usize] as usize,
            Level::Triangular { .. } | Level::Symmetric { .. } => {
                // Fiber p stores p + 1 entries; the whole triangle is packed
                // once and shared across the (single) parent fiber.
                nfibers * (nfibers + 1) / 2
            }
        }
    }

    /// Reference semantics of the level: the child position of coordinate
    /// `i` in fiber `p`, or `None` when the coordinate is not stored.
    ///
    /// This is the slow-path oracle used by [`Tensor::value_at`](crate::Tensor::value_at)
    /// and by the test suite; the compiler never calls it.
    pub fn locate(&self, p: usize, i: usize) -> Option<usize> {
        if i >= self.size() {
            return None;
        }
        match self {
            Level::Dense { size } => Some(p * size + i),
            Level::SparseList { pos, idx, .. } => {
                let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
                idx[lo..hi].binary_search(&(i as i64)).ok().map(|k| lo + k)
            }
            Level::SparseBand { pos, start, .. } => {
                let width = (pos[p + 1] - pos[p]) as usize;
                let s = start[p] as usize;
                if width > 0 && i >= s && i < s + width {
                    Some(pos[p] as usize + (i - s))
                } else {
                    None
                }
            }
            Level::SparseVbl { pos, idx, ofs, .. } => {
                let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
                for q in lo..hi {
                    let end = idx[q] as usize;
                    let width = (ofs[q + 1] - ofs[q]) as usize;
                    let begin = end + 1 - width;
                    if i >= begin && i <= end {
                        return Some(ofs[q] as usize + (i - begin));
                    }
                }
                None
            }
            Level::RunLength { pos, idx, .. } => {
                let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
                (lo..hi).find(|&q| i as i64 <= idx[q])
            }
            Level::PackBits { pos, idx, ofs, .. } => {
                let (lo, hi) = (pos[p] as usize, pos[p + 1] as usize);
                let mut begin = 0usize;
                for q in lo..hi {
                    let end = (idx[q].unsigned_abs() as usize) - 1;
                    if i <= end {
                        return if idx[q] > 0 {
                            Some(ofs[q] as usize)
                        } else {
                            Some(ofs[q] as usize + (i - begin))
                        };
                    }
                    begin = end + 1;
                }
                None
            }
            Level::Bitmap { size, tbl } => {
                if tbl[p * size + i] {
                    Some(p * size + i)
                } else {
                    None
                }
            }
            Level::Triangular { .. } => {
                if i <= p {
                    Some(p * (p + 1) / 2 + i)
                } else {
                    None
                }
            }
            Level::Symmetric { .. } => {
                if i <= p {
                    Some(p * (p + 1) / 2 + i)
                } else {
                    Some(i * (i + 1) / 2 + p)
                }
            }
            Level::Ragged { pos, .. } => {
                let len = (pos[p + 1] - pos[p]) as usize;
                if i < len {
                    Some(pos[p] as usize + i)
                } else {
                    None
                }
            }
        }
    }

    /// The number of explicitly stored entries in fiber `p` (used for
    /// statistics and tests).
    pub fn stored_in_fiber(&self, p: usize) -> usize {
        match self {
            Level::Dense { size } => *size,
            Level::Bitmap { size, tbl } => {
                tbl[p * size..(p + 1) * size].iter().filter(|&&b| b).count()
            }
            Level::SparseList { pos, .. }
            | Level::SparseBand { pos, .. }
            | Level::Ragged { pos, .. } => (pos[p + 1] - pos[p]) as usize,
            Level::SparseVbl { pos, ofs, .. } => {
                (ofs[pos[p + 1] as usize] - ofs[pos[p] as usize]) as usize
            }
            Level::RunLength { pos, .. } => (pos[p + 1] - pos[p]) as usize,
            Level::PackBits { pos, .. } => (pos[p + 1] - pos[p]) as usize,
            Level::Triangular { .. } | Level::Symmetric { .. } => p + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_locate_is_row_major() {
        let l = Level::Dense { size: 4 };
        assert_eq!(l.locate(2, 3), Some(11));
        assert_eq!(l.locate(0, 4), None);
        assert_eq!(l.child_span(3), 12);
    }

    #[test]
    fn sparse_list_locate_finds_stored_coordinates_only() {
        let l = Level::SparseList { size: 10, pos: vec![0, 2, 5], idx: vec![1, 7, 0, 3, 9] };
        assert_eq!(l.locate(0, 1), Some(0));
        assert_eq!(l.locate(0, 7), Some(1));
        assert_eq!(l.locate(0, 3), None);
        assert_eq!(l.locate(1, 3), Some(3));
        assert_eq!(l.locate(1, 9), Some(4));
        assert_eq!(l.stored_in_fiber(1), 3);
        assert_eq!(l.child_span(2), 5);
    }

    #[test]
    fn band_locate_covers_exactly_the_band() {
        let l = Level::SparseBand { size: 11, pos: vec![0, 5], start: vec![3] };
        assert_eq!(l.locate(0, 2), None);
        assert_eq!(l.locate(0, 3), Some(0));
        assert_eq!(l.locate(0, 7), Some(4));
        assert_eq!(l.locate(0, 8), None);
    }

    #[test]
    fn vbl_locate_handles_multiple_blocks() {
        // Fiber 0: block ending at 4 of width 3 (coords 2,3,4 -> vals 0,1,2),
        //          block ending at 8 of width 2 (coords 7,8   -> vals 3,4).
        let l = Level::SparseVbl { size: 11, pos: vec![0, 2], idx: vec![4, 8], ofs: vec![0, 3, 5] };
        assert_eq!(l.locate(0, 2), Some(0));
        assert_eq!(l.locate(0, 4), Some(2));
        assert_eq!(l.locate(0, 5), None);
        assert_eq!(l.locate(0, 7), Some(3));
        assert_eq!(l.locate(0, 8), Some(4));
        assert_eq!(l.stored_in_fiber(0), 5);
    }

    #[test]
    fn rle_locate_returns_the_covering_run() {
        let l = Level::RunLength { size: 11, pos: vec![0, 3], idx: vec![2, 5, 10] };
        assert_eq!(l.locate(0, 0), Some(0));
        assert_eq!(l.locate(0, 2), Some(0));
        assert_eq!(l.locate(0, 3), Some(1));
        assert_eq!(l.locate(0, 10), Some(2));
    }

    #[test]
    fn packbits_locate_distinguishes_runs_and_literals() {
        // Fiber 0: run over coords 0..=2 (value at ofs 0), literal over 3..=5
        // (values at ofs 1..=3), run over 6..=10 (value at ofs 4).
        let l = Level::PackBits {
            size: 11,
            pos: vec![0, 3],
            idx: vec![3, -6, 11],
            ofs: vec![0, 1, 4, 5],
        };
        assert_eq!(l.locate(0, 1), Some(0));
        assert_eq!(l.locate(0, 3), Some(1));
        assert_eq!(l.locate(0, 5), Some(3));
        assert_eq!(l.locate(0, 9), Some(4));
    }

    #[test]
    fn triangular_and_symmetric_locate() {
        let t = Level::Triangular { size: 4 };
        assert_eq!(t.locate(2, 1), Some(4));
        assert_eq!(t.locate(1, 2), None);
        let s = Level::Symmetric { size: 4 };
        assert_eq!(s.locate(2, 1), Some(4));
        assert_eq!(s.locate(1, 2), Some(4));
        assert_eq!(s.locate(3, 3), Some(9));
    }

    #[test]
    fn ragged_locate_respects_row_lengths() {
        let l = Level::Ragged { size: 6, pos: vec![0, 3, 3, 5] };
        assert_eq!(l.locate(0, 2), Some(2));
        assert_eq!(l.locate(0, 3), None);
        assert_eq!(l.locate(1, 0), None);
        assert_eq!(l.locate(2, 1), Some(4));
    }

    #[test]
    fn bitmap_locate_checks_the_table() {
        let l = Level::Bitmap { size: 3, tbl: vec![true, false, true, false, true, false] };
        assert_eq!(l.locate(0, 0), Some(0));
        assert_eq!(l.locate(0, 1), None);
        assert_eq!(l.locate(1, 1), Some(4));
        assert_eq!(l.stored_in_fiber(1), 1);
    }

    /// One level of each format.
    fn every_format() -> Vec<Level> {
        vec![
            Level::Dense { size: 1 },
            Level::SparseList { size: 1, pos: vec![0, 0], idx: vec![] },
            Level::SparseBand { size: 1, pos: vec![0, 0], start: vec![0] },
            Level::SparseVbl { size: 1, pos: vec![0, 0], idx: vec![], ofs: vec![0] },
            Level::RunLength { size: 1, pos: vec![0, 1], idx: vec![0] },
            Level::PackBits { size: 1, pos: vec![0, 1], idx: vec![1], ofs: vec![0, 1] },
            Level::Bitmap { size: 1, tbl: vec![false] },
            Level::Triangular { size: 1 },
            Level::Symmetric { size: 1 },
            Level::Ragged { size: 1, pos: vec![0, 0] },
        ]
    }

    #[test]
    fn format_names_are_distinct() {
        use std::collections::HashSet;
        let levels = every_format();
        let names: HashSet<_> = levels.iter().map(|l| l.format_name()).collect();
        assert_eq!(names.len(), levels.len());
    }

    #[test]
    fn map_names_the_arrays_in_binding_order() {
        let want: [&[&str]; 10] = [
            &[],
            &["pos", "idx"],
            &["pos", "start"],
            &["pos", "idx", "ofs"],
            &["pos", "idx"],
            &["pos", "idx", "ofs"],
            &["tbl"],
            &[],
            &[],
            &["pos"],
        ];
        for (level, want) in every_format().iter().zip(want) {
            let mut names = Vec::new();
            let ids = level.map(|name, _| {
                names.push(name);
                names.len()
            });
            assert_eq!(names, want, "{}", level.format_name());
            assert!(ids.same_shape(level), "{}", level.format_name());
            let ids: Vec<usize> = ids.arrays().map(|id| *id.into_inner()).collect();
            assert_eq!(ids, (1..=want.len()).collect::<Vec<_>>(), "{}", level.format_name());
            let kinds: Vec<bool> = level.arrays().map(|a| matches!(a, Array::Bool(_))).collect();
            assert_eq!(kinds, want.iter().map(|&n| n == "tbl").collect::<Vec<_>>());
        }
    }

    #[test]
    fn same_shape_is_format_and_size() {
        let list =
            |size, idx: Vec<i64>| Level::SparseList { size, pos: vec![0, idx.len() as i64], idx };
        assert!(list(5, vec![1]).same_shape(&list(5, vec![0, 2, 4])));
        assert!(!list(5, vec![1]).same_shape(&list(6, vec![1])));
        assert!(!list(5, vec![1]).same_shape(&Level::Dense { size: 5 }));
        assert!(
            Level::Triangular { size: 3 }.same_shape(&LevelOf::<(), ()>::Triangular { size: 3 })
        );
        assert!(!Level::Triangular { size: 3 }.same_shape(&Level::Symmetric { size: 3 }));
    }
}
