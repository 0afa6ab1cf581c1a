//! The shared lower-bound `seek` used by both execution engines.
//!
//! The looplet `seek` finds the first position `p` in a sorted coordinate
//! buffer with `buf[p] >= key` (or `hi + 1` when every candidate is
//! smaller).  Coiteration issues many *short* seeks — the next coordinate
//! is usually a handful of positions ahead of the current one — so instead
//! of bisecting the whole window immediately, the search first **gallops**
//! from `lo` (probing `lo`, `lo+1`, `lo+3`, `lo+7`, ...) until a probe
//! meets the key, then finishes with a plain binary search inside the
//! bracketed window.  Near misses cost O(log distance) cache-local probes
//! instead of O(log window) scattered ones.
//!
//! Both the tree-walking interpreter and the bytecode VM call this one
//! function, so the two engines perform the *same probe sequence* — each
//! probe is counted as one load, keeping `ExecStats` bit-identical across
//! engines (and across typed/generic dispatch).  The `searches` counter
//! semantics are unchanged: callers count one search per seek, as before.
//!
//! The probe sequence itself (`gallop_bisect`) is written once, over an
//! abstract `probe`.  Coordinate buffers are `i64` lanes, so the common
//! case runs it directly over the `&[i64]` window (`lower_bound_i64`: no
//! per-probe buffer lookup, kind match or boxed [`crate::value::Value`]);
//! a window that leaves the buffer, or a buffer of another kind, takes the
//! boxed per-probe path, which raises the errors.

use std::convert::Infallible;

use crate::buffer::{BufId, Buffer, BufferSet};
use crate::error::RuntimeError;

/// The gallop-then-bisect lower bound over the inclusive window
/// `[lo, hi]`: returns the first position whose probed value is `>= key`
/// (or `hi + 1`) together with the number of probes made.  Every probed
/// position lies inside the window.
#[inline]
fn gallop_bisect<E>(
    lo: i64,
    hi: i64,
    key: i64,
    mut probe: impl FnMut(i64) -> Result<i64, E>,
) -> Result<(i64, u64), E> {
    let mut probes = 0u64;
    let start = lo;
    let mut lo = lo;
    // From here on `hi` is exclusive.
    let mut hi = hi + 1;
    // Gallop: probe start, start+1, start+3, start+7, ... (clamped to the
    // window) until one meets the key or the window is exhausted.
    let mut step = 1i64;
    while lo < hi {
        let p = start.checked_add(step - 1).map_or(hi - 1, |x| x.min(hi - 1));
        probes += 1;
        if probe(p)? < key {
            lo = p + 1;
            if p == hi - 1 {
                break;
            }
            step = step.saturating_mul(2);
        } else {
            hi = p;
            break;
        }
    }
    // Plain binary search inside the bracketed window.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if probe(mid)? < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok((lo, probes))
}

/// [`lower_bound`] over a raw `i64` lane, or `None` when the non-empty
/// window `[lo, hi]` is not wholly inside `data` (the caller then takes
/// the bounds-checked path, which reports the out-of-bounds probe).
#[inline]
pub(crate) fn lower_bound_i64(
    data: &[i64],
    lo: i64,
    hi: i64,
    key: i64,
    on_abs: bool,
) -> Option<(i64, u64)> {
    if lo > hi {
        return Some((lo, 0));
    }
    if lo < 0 || hi as u64 >= data.len() as u64 {
        return None;
    }
    let found = if on_abs {
        gallop_bisect(lo, hi, key, |p| Ok::<_, Infallible>(data[p as usize].abs()))
    } else {
        gallop_bisect(lo, hi, key, |p| Ok::<_, Infallible>(data[p as usize]))
    };
    match found {
        Ok(found) => Some(found),
        Err(never) => match never {},
    }
}

/// Lower-bound search over `buf[lo..=hi]` for `key`: the first position
/// `p` with `buf[p] >= key` (comparing `abs(buf[p])` when `on_abs` is
/// set), or `hi + 1` when every element is smaller.  Returns the found
/// position together with the number of probes performed (each probe is
/// one bounds-checked, counted load).
///
/// # Errors
///
/// Returns [`RuntimeError::OutOfBounds`] when a probe position lies
/// outside the buffer, and a type error when a probed element is not an
/// integer — the same faults, in the same order, as the historical plain
/// binary search probing the same positions.
pub(crate) fn lower_bound(
    bufs: &BufferSet,
    buf: BufId,
    lo: i64,
    hi: i64,
    key: i64,
    on_abs: bool,
) -> Result<(i64, u64), RuntimeError> {
    if let Buffer::I64(data) = bufs.get(buf) {
        if let Some(found) = lower_bound_i64(data, lo, hi, key, on_abs) {
            return Ok(found);
        }
    }
    lower_bound_boxed(bufs, buf, lo, hi, key, on_abs)
}

/// [`lower_bound`] with every probe bounds-checked and loaded through the
/// boxed [`Buffer::load`] — any buffer kind, any window.
fn lower_bound_boxed(
    bufs: &BufferSet,
    buf: BufId,
    lo: i64,
    hi: i64,
    key: i64,
    on_abs: bool,
) -> Result<(i64, u64), RuntimeError> {
    gallop_bisect(lo, hi, key, |p| {
        let len = bufs.get(buf).len();
        if p < 0 || p as usize >= len {
            return Err(RuntimeError::OutOfBounds {
                buffer: bufs.name(buf).to_string(),
                index: p,
                len,
            });
        }
        let v = bufs.get(buf).load(p as usize).as_int()?;
        Ok(if on_abs { v.abs() } else { v })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};

    /// The pre-gallop implementation, kept as the oracle: plain
    /// lower-bound bisection over the whole window.
    fn plain_binary_search(data: &[i64], lo: i64, hi: i64, key: i64, on_abs: bool) -> i64 {
        let mut lo = lo;
        let mut hi = hi + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut v = data[mid as usize];
            if on_abs {
                v = v.abs();
            }
            if v < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The raw-lane search and the boxed per-probe search agree on the
    /// position *and* the probe count (each probe is a counted load).
    fn assert_slice_matches_boxed(
        bufs: &BufferSet,
        id: BufId,
        lo: i64,
        hi: i64,
        key: i64,
        on_abs: bool,
    ) {
        let Buffer::I64(data) = bufs.get(id) else { panic!("an i64 lane") };
        let slice = lower_bound_i64(data, lo, hi, key, on_abs).expect("the window is in bounds");
        let boxed = lower_bound_boxed(bufs, id, lo, hi, key, on_abs).unwrap();
        assert_eq!(slice, boxed, "seek({lo}, {hi}, {key}, abs {on_abs}) over {data:?}");
    }

    /// A tiny deterministic LCG so the test needs no external crates.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn gallop_matches_plain_binary_search_on_random_inputs() {
        let mut rng = Lcg(0x5eed);
        for case in 0..200 {
            let n = 1 + (rng.next() % 64) as usize;
            let mut data: Vec<i64> = (0..n).map(|_| (rng.next() % 100) as i64).collect();
            data.sort_unstable();
            let mut bufs = BufferSet::new();
            let id = bufs.add("idx", Buffer::I64(data.clone().into()));
            for _ in 0..16 {
                let lo = (rng.next() % n as u64) as i64;
                let hi = lo + (rng.next() % (n as u64 - lo as u64)) as i64;
                let key = (rng.next() % 110) as i64;
                let expect = plain_binary_search(&data, lo, hi, key, false);
                let (got, probes) = lower_bound(&bufs, id, lo, hi, key, false).unwrap();
                assert_eq!(got, expect, "case {case}: seek({lo}, {hi}, {key}) over {data:?}");
                assert!(probes <= (hi - lo + 2) as u64 * 2, "probe count stays bounded");
                assert_slice_matches_boxed(&bufs, id, lo, hi, key, false);
            }
        }
    }

    #[test]
    fn gallop_matches_plain_binary_search_on_abs_markers() {
        let mut rng = Lcg(0xabcd);
        for _ in 0..100 {
            let n = 1 + (rng.next() % 32) as usize;
            let mut mags: Vec<i64> = (0..n).map(|_| (rng.next() % 50) as i64).collect();
            mags.sort_unstable();
            // Negate a scatter of entries: PackBits-style markers whose
            // magnitude stays sorted.
            let data: Vec<i64> =
                mags.iter().map(|&v| if rng.next().is_multiple_of(3) { -v } else { v }).collect();
            let mut bufs = BufferSet::new();
            let id = bufs.add("idx", Buffer::I64(data.clone().into()));
            let key = (rng.next() % 55) as i64;
            let expect = plain_binary_search(&data, 0, n as i64 - 1, key, true);
            let (got, _) = lower_bound(&bufs, id, 0, n as i64 - 1, key, true).unwrap();
            assert_eq!(got, expect, "seek_abs({key}) over {data:?}");
            assert_slice_matches_boxed(&bufs, id, 0, n as i64 - 1, key, true);
        }
    }

    #[test]
    fn empty_window_returns_lo_with_zero_probes() {
        let mut bufs = BufferSet::new();
        let id = bufs.add("idx", Buffer::I64(vec![1, 2, 3].into()));
        let (pos, probes) = lower_bound(&bufs, id, 2, 1, 5, false).unwrap();
        assert_eq!((pos, probes), (2, 0));
    }

    #[test]
    fn short_seeks_probe_locally() {
        // The answer sits 2 positions ahead of lo in a 1000-element
        // window: galloping must find it in a handful of probes where the
        // plain bisection would pay ~log2(1000).
        let data: Vec<i64> = (0..1000).collect();
        let mut bufs = BufferSet::new();
        let id = bufs.add("idx", Buffer::I64(data.into()));
        let (pos, probes) = lower_bound(&bufs, id, 100, 999, 102, false).unwrap();
        assert_eq!(pos, 102);
        assert!(probes <= 4, "short seek probed {probes} times");
    }

    #[test]
    fn a_window_past_the_buffer_takes_the_boxed_path_and_its_error() {
        let mut bufs = BufferSet::new();
        let id = bufs.add("coords", Buffer::I64(vec![1, 2, 5].into()));
        let Buffer::I64(data) = bufs.get(id) else { panic!("an i64 lane") };
        // Past the end, and before the start: the raw lane declines.
        for (lo, hi, key) in [(0, 7, 9), (1, 3, 9), (-2, 1, 0)] {
            assert_eq!(lower_bound_i64(data, lo, hi, key, false), None);
            let entry = lower_bound(&bufs, id, lo, hi, key, false);
            let boxed = lower_bound_boxed(&bufs, id, lo, hi, key, false);
            assert!(matches!(entry, Err(RuntimeError::OutOfBounds { .. })), "{entry:?}");
            assert_eq!(entry, boxed, "seek({lo}, {hi}, {key})");
        }
        // A window that only *reaches* past the end still succeeds when no
        // probe lands there, exactly as the boxed search does.
        let entry = lower_bound(&bufs, id, 0, 7, 1, false);
        assert_eq!(entry, Ok((0, 1)));
        assert_eq!(entry, lower_bound_boxed(&bufs, id, 0, 7, 1, false));
        // An empty window probes nothing, wherever it lies.
        assert_eq!(lower_bound_i64(data, 9, 8, 0, false), Some((9, 0)));
        assert_eq!(lower_bound_boxed(&bufs, id, 9, 8, 0, false), Ok((9, 0)));
    }

    #[test]
    fn out_of_bounds_probe_reports_the_buffer_name() {
        let mut bufs = BufferSet::new();
        let id = bufs.add("coords", Buffer::I64(vec![1, 2].into()));
        let err = lower_bound(&bufs, id, 0, 7, 9, false).unwrap_err();
        match err {
            RuntimeError::OutOfBounds { buffer, .. } => assert_eq!(buffer, "coords"),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
