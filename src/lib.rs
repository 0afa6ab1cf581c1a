//! Workspace root library: re-exports the public facade of the Finch
//! reproduction so the top-level examples and integration tests have a
//! single import path (`looplets_repro::finch` and
//! `looplets_repro::baseline`).

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

/// The Finch compiler facade (re-export of the `finch-core` crate).
pub extern crate finch;
/// Reference kernels and synthetic workload generators.
pub extern crate finch_baseline as baseline;
