//! # finch-baseline — the dense meaning, a merge baseline and synthetic workloads
//!
//! The paper's evaluation compares Finch against TACO (iterator-over-
//! nonzeros / two-finger merges) and OpenCV (dense vectorised kernels) on
//! matrices from Harwell-Boeing, graphs from SNAP, and several image
//! datasets.  None of those systems or datasets are vendored here; instead
//! this crate provides
//!
//! * [`reference`](mod@reference) — [`reference::eval`], the dense meaning
//!   of a CIN program and the one oracle every compiled kernel is checked
//!   against; it depends on `finch-cin`, `finch-formats` and `finch-ir`,
//!   never on the compiler,
//! * [`kernels`] — the TACO stand-in, a native two-finger SpMSpV merge, and
//! * [`datagen`] — synthetic workload generators that reproduce the
//!   *structural* properties the paper's datasets are used for: clustered
//!   and banded scientific matrices, power-law graphs, stroke-like sparse
//!   images and noisy sketches.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datagen;
pub mod kernels;
pub mod reference;
