//! # finch-baseline — reference kernels and synthetic workloads
//!
//! The paper's evaluation compares Finch against TACO (iterator-over-
//! nonzeros / two-finger merges) and OpenCV (dense vectorised kernels) on
//! matrices from Harwell-Boeing, graphs from SNAP, and several image
//! datasets.  None of those systems or datasets are vendored here; instead
//! this crate provides
//!
//! * [`kernels`] — straightforward native Rust implementations of every
//!   kernel in the evaluation (dense and two-finger-merge variants).  They
//!   play the role of the TACO/OpenCV comparison points *and* serve as
//!   correctness oracles for the compiler-generated code, and
//! * [`datagen`] — synthetic workload generators that reproduce the
//!   *structural* properties the paper's datasets are used for: clustered
//!   and banded scientific matrices, power-law graphs, stroke-like sparse
//!   images and noisy sketches.
//!
//! The substitutions are documented in `DESIGN.md` at the repository root.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datagen;
pub mod kernels;
