//! Typed flat buffers: the runtime storage the generated code reads and
//! writes.
//!
//! Every array mentioned by a level format (`pos`, `idx`, `ofs`, `val`, ...)
//! and every output tensor becomes one [`Buffer`] registered in a
//! [`BufferSet`].  Buffers are monomorphically typed so the interpreter's
//! inner loop avoids boxing every element.

use std::fmt;
use std::sync::Arc;

use crate::error::RuntimeError;
use crate::expr::BinOp;
use crate::value::{same_f64, Value};

/// Identifier of a buffer within a [`BufferSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub(crate) u32);

impl BufId {
    /// The dense index of this buffer in its [`BufferSet`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// The byte alignment guaranteed for the first element of every
/// [`AlignedVec`] (and therefore of every `i64`/`f64` buffer lane):
/// one full cache line / AVX-512 vector.
pub const LANE_ALIGN: usize = 64;

/// Meters growable-output appends against an optional element budget — the
/// allocation-side companion of the step budget.  Both engines charge one
/// unit per appended element (coordinate, value, or fiber boundary) at the
/// append itself, so a budget overrun faults at the same logical element on
/// the tree-walker, the scalar VM and the vectorized tier (which declines a
/// bulk that might not fit and lets the scalar loop fault exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocMeter {
    budget: Option<u64>,
    used: u64,
}

impl AllocMeter {
    /// Set or clear the element budget (`None` = unlimited).
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// The configured element budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Elements charged since the last [`AllocMeter::reset`].
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Zero the usage counter (run-to-run reset; the budget persists).
    pub fn reset(&mut self) {
        self.used = 0;
    }

    /// Charge `n` appended elements, failing once the budget is exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::AllocBudgetExceeded`] when the running total
    /// passes the configured budget.
    #[inline]
    pub fn charge(&mut self, n: u64) -> Result<(), RuntimeError> {
        self.used += n;
        match self.budget {
            Some(budget) if self.used > budget => Err(RuntimeError::AllocBudgetExceeded { budget }),
            _ => Ok(()),
        }
    }

    /// Whether a worst-case bulk of `n` elements provably fits under the
    /// budget (the vectorized tier's decline check).
    #[inline]
    pub fn fits(&self, n: u64) -> bool {
        match self.budget {
            None => true,
            Some(budget) => self.used.checked_add(n).is_some_and(|total| total <= budget),
        }
    }

    /// Add already-validated usage without a budget check (bulk paths that
    /// pre-checked with [`AllocMeter::fits`]).
    #[inline]
    pub fn add_used(&mut self, n: u64) {
        self.used += n;
    }
}

/// A growable array whose live elements always start on a
/// [`LANE_ALIGN`]-byte boundary, so the vectorized kernel ops (and any
/// SIMD the compiler emits for them) operate on aligned, contiguous
/// slices.
///
/// Implemented without `unsafe`: the backing `Vec<T>` is over-allocated
/// by up to one cache line and the live range `offset..` starts at the
/// first aligned element.  Every operation that can move the allocation
/// re-anchors the live range, so the alignment guarantee holds across
/// pushes, reserves, and conversions.  `T` must be sized such that
/// `size_of::<T>()` divides [`LANE_ALIGN`] (both lane types, `i64` and
/// `f64`, are 8 bytes).
pub struct AlignedVec<T> {
    /// Backing storage; `data[offset..]` is live, `data[..offset]` is
    /// alignment padding.
    data: Vec<T>,
    /// Index of the first live element.
    offset: usize,
}

impl<T: Copy + Default> AlignedVec<T> {
    /// The worst-case padding in elements.
    fn pad_max() -> usize {
        LANE_ALIGN / std::mem::size_of::<T>()
    }

    /// Create an empty aligned vector (no allocation yet).
    pub fn new() -> Self {
        Self { data: Vec::new(), offset: 0 }
    }

    /// Create an empty aligned vector with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.grow_for(cap);
        v
    }

    /// The padding the current allocation needs in front of the live
    /// range for it to start on a [`LANE_ALIGN`] boundary.
    fn want_offset(&self) -> usize {
        if self.data.capacity() == 0 {
            return 0;
        }
        let mis = self.data.as_ptr() as usize % LANE_ALIGN;
        if mis == 0 {
            0
        } else {
            debug_assert_eq!((LANE_ALIGN - mis) % std::mem::size_of::<T>(), 0);
            (LANE_ALIGN - mis) / std::mem::size_of::<T>()
        }
    }

    /// Make room for `additional` more live elements and restore the
    /// alignment invariant.  Afterwards the backing capacity always has
    /// worst-case-padding slack, so the in-place append the caller does
    /// next cannot reallocate (which would move the anchor again).
    fn grow_for(&mut self, additional: usize) {
        let need = self.data.len() + additional + Self::pad_max();
        if need > self.data.capacity() {
            self.data.reserve(need - self.data.len());
        }
        let want = self.want_offset();
        if want != self.offset {
            let old = self.offset;
            let n = self.data.len() - old;
            if want > old {
                self.data.resize(want + n, T::default());
                self.data.copy_within(old..old + n, want);
            } else {
                self.data.copy_within(old..old + n, want);
                self.data.truncate(want + n);
            }
            self.offset = want;
        }
    }

    /// Append one element, keeping the live range aligned.
    pub fn push(&mut self, x: T) {
        self.grow_for(1);
        self.data.push(x);
    }

    /// Append every element of `xs`, keeping the live range aligned.
    pub fn extend_from_slice(&mut self, xs: &[T]) {
        self.grow_for(xs.len());
        self.data.extend_from_slice(xs);
    }

    /// Reserve room for at least `additional` more elements.
    pub fn reserve(&mut self, additional: usize) {
        self.grow_for(additional);
    }

    /// Remove every element while keeping the allocated capacity (and
    /// its alignment anchor).
    pub fn clear(&mut self) {
        self.data.truncate(self.offset);
    }

    /// Shorten to `len` elements (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        let keep = self.offset.saturating_add(len);
        if keep < self.data.len() {
            self.data.truncate(keep);
        }
    }

    /// Resize to `len` elements, filling new space with `value`.
    pub fn resize(&mut self, len: usize, value: T) {
        if len > self.len() {
            self.grow_for(len - self.len());
        }
        let target = self.offset + len;
        self.data.resize(target, value);
    }
}

impl<T> AlignedVec<T> {
    /// The live elements as a contiguous slice (64-byte-aligned when
    /// non-empty).
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..]
    }

    /// The live elements as a contiguous mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data[self.offset..]
    }
}

impl<T> std::ops::Deref for AlignedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> std::ops::DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default> From<Vec<T>> for AlignedVec<T> {
    fn from(data: Vec<T>) -> Self {
        let mut v = Self { data, offset: 0 };
        v.grow_for(0);
        v
    }
}

impl<T: Copy + Default> FromIterator<T> for AlignedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<'a, T> IntoIterator for &'a AlignedVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        // Re-anchor rather than copying the padding: the clone's
        // allocation lands at its own address.
        Self::from(self.as_slice().to_vec())
    }
}

impl<T: PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A typed, flat runtime array.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// Signed 64-bit integers (positions, coordinates, run boundaries);
    /// the lane is 64-byte-aligned and contiguous.
    I64(AlignedVec<i64>),
    /// 64-bit floats (most values arrays); the lane is 64-byte-aligned
    /// and contiguous.
    F64(AlignedVec<f64>),
    /// Booleans (bitmaps / bytemaps).
    Bool(Vec<bool>),
}

impl Buffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Buffer::I64(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::Bool(v) => v.len(),
        }
    }

    /// Whether the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the two buffers hold the same values: of one kind and length,
    /// floats compared by [`crate::value::same_f64`].
    pub fn same_as(&self, other: &Buffer) -> bool {
        match (self, other) {
            (Buffer::F64(x), Buffer::F64(y)) => {
                x.len() == y.len() && x.iter().zip(y.iter()).all(|(&a, &b)| same_f64(a, b))
            }
            _ => self == other,
        }
    }

    /// Load element `i` as a [`Value`].
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds; the interpreter performs its own
    /// bounds check first in order to report a friendlier error.
    pub fn load(&self, i: usize) -> Value {
        match self {
            Buffer::I64(v) => Value::Int(v[i]),
            Buffer::F64(v) => Value::Float(v[i]),
            Buffer::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Store `value` into element `i`, optionally combining with the current
    /// element through `reduce` (e.g. `Some(BinOp::Add)` for `+=`).
    ///
    /// # Errors
    ///
    /// Returns an error when the value cannot be represented in the buffer's
    /// element type (including storing `Missing`).
    pub fn store(
        &mut self,
        i: usize,
        value: Value,
        reduce: Option<BinOp>,
    ) -> Result<(), RuntimeError> {
        let value = match reduce {
            Some(op) => Value::binop(op, self.load(i), value)?,
            None => value,
        };
        if value.is_missing() {
            return Err(RuntimeError::UnexpectedMissing { context: "a buffer store".into() });
        }
        match self {
            Buffer::I64(v) => v[i] = value.as_int()?,
            Buffer::F64(v) => v[i] = value.as_float()?,
            Buffer::Bool(v) => v[i] = value.as_bool()?,
        }
        Ok(())
    }

    /// Append `value` at the end of the buffer, growing it by one element.
    ///
    /// This is the runtime primitive behind the IR's `Append` statement:
    /// sparse output assembly builds its `pos`/`idx`/`val` arrays by
    /// appending, so the buffer length is the number of entries assembled
    /// so far.
    ///
    /// # Errors
    ///
    /// Returns an error when the value cannot be represented in the buffer's
    /// element type (including appending `Missing`).
    pub fn push(&mut self, value: Value) -> Result<(), RuntimeError> {
        if value.is_missing() {
            return Err(RuntimeError::UnexpectedMissing { context: "a buffer append".into() });
        }
        match self {
            Buffer::I64(v) => v.push(value.as_int()?),
            Buffer::F64(v) => v.push(value.as_float()?),
            Buffer::Bool(v) => v.push(value.as_bool()?),
        }
        Ok(())
    }

    /// Remove every element while keeping the allocated capacity.
    ///
    /// This is the zero-allocation reset for growable (sparse-output)
    /// buffers: re-running a kernel truncates and refills the same
    /// allocation instead of replacing it with a fresh `Vec`.
    pub fn clear(&mut self) {
        match self {
            Buffer::I64(v) => v.clear(),
            Buffer::F64(v) => v.clear(),
            Buffer::Bool(v) => v.clear(),
        }
    }

    /// View the buffer as a slice of floats, converting lazily.
    ///
    /// This is a convenience for tests and benchmark harnesses that want to
    /// compare outputs regardless of element type.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            Buffer::I64(v) => v.iter().map(|&x| x as f64).collect(),
            Buffer::F64(v) => v.to_vec(),
            Buffer::Bool(v) => v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect(),
        }
    }

    /// Borrow the underlying `i64` data as a contiguous (64-byte-aligned)
    /// slice, if this is an integer buffer.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Buffer::I64(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Borrow the underlying `f64` data as a contiguous (64-byte-aligned)
    /// slice, if this is a float buffer.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Buffer::F64(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Mutably borrow the underlying `i64` data as a contiguous slice,
    /// if this is an integer buffer.
    pub fn as_i64_mut(&mut self) -> Option<&mut [i64]> {
        match self {
            Buffer::I64(v) => Some(v.as_mut_slice()),
            _ => None,
        }
    }

    /// Mutably borrow the underlying `f64` data as a contiguous slice,
    /// if this is a float buffer.
    pub fn as_f64_mut(&mut self) -> Option<&mut [f64]> {
        match self {
            Buffer::F64(v) => Some(v.as_mut_slice()),
            _ => None,
        }
    }
}

/// The set of all buffers a compiled kernel reads and writes.
#[derive(Debug, Clone, Default)]
pub struct BufferSet {
    bufs: Vec<Buffer>,
    /// Shared between clones: the names are fixed once binding is over, and
    /// a kernel's run states are cloned far more often than they are named.
    names: Arc<Vec<String>>,
}

impl BufferSet {
    /// Create an empty buffer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a buffer under `name`, returning its id.
    pub fn add(&mut self, name: &str, buf: Buffer) -> BufId {
        let id = BufId(self.bufs.len() as u32);
        self.bufs.push(buf);
        Arc::make_mut(&mut self.names).push(name.to_string());
        id
    }

    /// The same buffers under the same names and ids, each of its own
    /// element kind and with no elements: the set's schema without its
    /// data.
    pub fn blank(&self) -> BufferSet {
        let bufs = self
            .bufs
            .iter()
            .map(|buf| match buf {
                Buffer::I64(_) => Buffer::I64(AlignedVec::new()),
                Buffer::F64(_) => Buffer::F64(AlignedVec::new()),
                Buffer::Bool(_) => Buffer::Bool(Vec::new()),
            })
            .collect();
        BufferSet { bufs, names: Arc::clone(&self.names) }
    }

    /// Number of registered buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether no buffers are registered.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Borrow a buffer.
    pub fn get(&self, id: BufId) -> &Buffer {
        &self.bufs[id.index()]
    }

    /// Mutably borrow a buffer.
    pub fn get_mut(&mut self, id: BufId) -> &mut Buffer {
        &mut self.bufs[id.index()]
    }

    /// Replace the contents of a buffer (used to rebind inputs between
    /// benchmark repetitions without recompiling).
    pub fn replace(&mut self, id: BufId, buf: Buffer) {
        self.bufs[id.index()] = buf;
    }

    /// The registered name of a buffer.
    pub fn name(&self, id: BufId) -> &str {
        &self.names[id.index()]
    }

    /// Find a buffer id by its registered name, if present.
    pub fn lookup(&self, name: &str) -> Option<BufId> {
        self.names.iter().position(|n| n == name).map(|i| BufId(i as u32))
    }

    /// Iterate over `(id, name, buffer)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (BufId, &str, &Buffer)> + '_ {
        self.bufs
            .iter()
            .zip(self.names.iter())
            .enumerate()
            .map(|(i, (b, n))| (BufId(i as u32), n.as_str(), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip_all_types() {
        let mut bufs = BufferSet::new();
        let a = bufs.add("a", Buffer::I64(vec![0; 3].into()));
        let b = bufs.add("b", Buffer::F64(vec![0.0; 3].into()));
        let d = bufs.add("d", Buffer::Bool(vec![false; 3]));

        bufs.get_mut(a).store(1, Value::Int(7), None).unwrap();
        bufs.get_mut(b).store(2, Value::Float(2.5), None).unwrap();
        bufs.get_mut(d).store(1, Value::Bool(true), None).unwrap();

        assert_eq!(bufs.get(a).load(1), Value::Int(7));
        assert_eq!(bufs.get(b).load(2), Value::Float(2.5));
        assert_eq!(bufs.get(d).load(1), Value::Bool(true));
    }

    #[test]
    fn reducing_store_accumulates() {
        let mut buf = Buffer::F64(vec![1.0].into());
        buf.store(0, Value::Float(2.0), Some(BinOp::Add)).unwrap();
        buf.store(0, Value::Float(4.0), Some(BinOp::Max)).unwrap();
        assert_eq!(buf.load(0), Value::Float(4.0));
    }

    #[test]
    fn storing_missing_is_an_error() {
        let mut buf = Buffer::F64(vec![0.0].into());
        let err = buf.store(0, Value::Missing, None).unwrap_err();
        assert!(matches!(err, RuntimeError::UnexpectedMissing { .. }));
    }

    #[test]
    fn push_grows_every_buffer_type() {
        let mut i = Buffer::I64(vec![0].into());
        i.push(Value::Int(7)).unwrap();
        assert_eq!(i.as_i64(), Some(&[0, 7][..]));
        let mut f = Buffer::F64(vec![].into());
        f.push(Value::Float(2.5)).unwrap();
        assert_eq!(f.as_f64(), Some(&[2.5][..]));
        let mut b = Buffer::Bool(vec![]);
        b.push(Value::Bool(true)).unwrap();
        assert_eq!(b.load(0), Value::Bool(true));
    }

    #[test]
    fn pushing_missing_is_an_error() {
        let mut buf = Buffer::F64(vec![].into());
        let err = buf.push(Value::Missing).unwrap_err();
        assert!(matches!(err, RuntimeError::UnexpectedMissing { .. }));
        assert!(buf.is_empty(), "a failed push must not grow the buffer");
    }

    #[test]
    fn lookup_by_name() {
        let mut bufs = BufferSet::new();
        let a = bufs.add("A_pos", Buffer::I64(vec![].into()));
        assert_eq!(bufs.lookup("A_pos"), Some(a));
        assert_eq!(bufs.lookup("nope"), None);
        assert_eq!(bufs.name(a), "A_pos");
    }

    #[test]
    fn to_f64_vec_converts_all_types() {
        assert_eq!(Buffer::I64(vec![1, 2].into()).to_f64_vec(), vec![1.0, 2.0]);
        assert_eq!(Buffer::Bool(vec![true, false]).to_f64_vec(), vec![1.0, 0.0]);
    }

    fn assert_aligned<T>(v: &AlignedVec<T>) {
        if !v.is_empty() {
            assert_eq!(
                v.as_slice().as_ptr() as usize % LANE_ALIGN,
                0,
                "live range must start on a {LANE_ALIGN}-byte boundary"
            );
        }
    }

    #[test]
    fn aligned_vec_from_vec_is_lane_aligned() {
        let v: AlignedVec<f64> = vec![1.0, 2.0, 3.0].into();
        assert_aligned(&v);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
        let w: AlignedVec<i64> = (0..17).collect();
        assert_aligned(&w);
        assert_eq!(w.len(), 17);
    }

    #[test]
    fn aligned_vec_stays_aligned_across_growth() {
        let mut v: AlignedVec<f64> = AlignedVec::new();
        for i in 0..1000 {
            v.push(i as f64);
            assert_aligned(&v);
        }
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64));

        v.clear();
        assert!(v.is_empty());
        v.extend_from_slice(&[7.0; 100]);
        assert_aligned(&v);
        assert_eq!(v.len(), 100);

        v.reserve(4096);
        assert_aligned(&v);
        v.resize(513, 0.5);
        assert_aligned(&v);
        assert_eq!(v[512], 0.5);
        assert_eq!(v[99], 7.0);
        v.truncate(3);
        assert_eq!(v.as_slice(), &[7.0, 7.0, 7.0]);
        assert_aligned(&v);
    }

    #[test]
    fn aligned_vec_clone_reanchors() {
        let mut v: AlignedVec<i64> = AlignedVec::new();
        for i in 0..100 {
            v.push(i);
        }
        let c = v.clone();
        assert_aligned(&c);
        assert_eq!(c, v);
    }

    #[test]
    fn buffer_lanes_are_aligned_and_mutable() {
        let mut f = Buffer::F64(vec![1.0, 2.0].into());
        let lanes = f.as_f64_mut().expect("f64 lanes");
        assert_eq!(lanes.as_ptr() as usize % LANE_ALIGN, 0);
        lanes[0] = 9.0;
        assert_eq!(f.as_f64(), Some(&[9.0, 2.0][..]));

        let mut i = Buffer::I64(vec![3, 4].into());
        let lanes = i.as_i64_mut().expect("i64 lanes");
        assert_eq!(lanes.as_ptr() as usize % LANE_ALIGN, 0);
        lanes[1] = -1;
        assert_eq!(i.as_i64(), Some(&[3, -1][..]));

        assert!(Buffer::I64(vec![0].into()).as_f64_mut().is_none());
        assert!(Buffer::Bool(vec![true]).clone().as_i64_mut().is_none());
    }

    #[test]
    fn iter_yields_all_buffers() {
        let mut bufs = BufferSet::new();
        bufs.add("x", Buffer::I64(vec![1].into()));
        bufs.add("y", Buffer::F64(vec![2.0].into()));
        let names: Vec<_> = bufs.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["x", "y"]);
        assert_eq!(bufs.len(), 2);
    }
}
