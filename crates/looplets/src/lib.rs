//! # finch-looplets — the Looplet intermediate representation
//!
//! This crate implements the central contribution of *"Looplets: A Language
//! for Structured Coiteration"* (CGO 2023, §3): an IR of **hierarchical
//! descriptions of structured sequences**.  A looplet nest describes the
//! values of one dimension of an array — where the zero runs are, where the
//! dense regions are, how to step from one nonzero to the next — in a way a
//! compiler can merge with the nests of *other* arrays to produce an
//! efficient coiterating loop.
//!
//! The looplet kinds of the paper's Figure 2 are all here:
//!
//! | Looplet | Meaning |
//! |---|---|
//! | [`Looplet::Leaf`] | a terminal scalar value (or, in the compiler, an unresolved subfiber) |
//! | [`Looplet::Run`] | the same value repeated over the whole target region |
//! | [`Looplet::Spike`] | a repeated value followed by a single scalar at the end of the region |
//! | [`Looplet::Lookup`] | an arbitrary sequence computed from the index |
//! | [`Looplet::Pipeline`] | the concatenation of a few child looplets, each ending at a `stride` |
//! | [`Looplet::Stepper`] | an unbounded sequence of identical child looplets visited in order |
//! | [`Looplet::Jumper`] | like a stepper, but allowed to lead coiteration (galloping) |
//! | [`Looplet::Switch`] | a runtime choice between child looplets |
//! | [`Looplet::Shift`] | a wrapper shifting all declared extents of its body |
//!
//! Two implementation-level nodes used by Finch.jl are also provided, because
//! the unfurling code of the paper's Figure 3 needs them: [`Looplet::Thunk`]
//! (preamble statements such as `p = pos[i]` hoisted before a nest) and
//! [`Looplet::BindExtent`] (binds the bounds of the current target region to
//! IR variables, needed by the galloping protocol's `idx[p] == j` case).
//!
//! The crate also provides [`Style`] resolution (which looplet pass runs
//! first, paper §6.2) and region [`truncation`](Looplet::truncate) (paper
//! §6.1), both of which the `finch-core` lowering compiler is built on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod display;
mod leaf;
mod looplet;
mod style;
mod truncate;

pub use leaf::Leaf;
pub use looplet::{Case, Looplet, Phase, Seek, Stepped};
pub use style::Style;
