//! # finch-formats — fiber-tree tensor storage and looplet unfurling
//!
//! The paper (§4) views a multidimensional array as a tree of *fibers*: each
//! **level** stores, for every fiber of one dimension, how that fiber's
//! stored entries map to coordinates and to positions in the next level (or
//! in the values array, for the innermost level).  Looplets then "further
//! decompose the remaining unidimensional structure": each level knows how
//! to **unfurl** one of its fibers into a looplet nest, and the compiler
//! merges the nests of all accessed tensors into one coiterating loop.
//!
//! This crate provides:
//!
//! * the level formats of the paper's Figure 3 — dense, sparse list
//!   (compressed), sparse band, sparse VBL (variable block list), run-length,
//!   PackBits, bitmap, lower-triangular, symmetric and ragged — stated once,
//!   as [`LevelOf`], generic over its arrays: a tensor's [`Level`] holds
//!   them, a bound tensor's [`BoundLevel`] the ids of their buffers, and
//!   [`LevelOf::map`] is the one list of each format's arrays, which
//!   binding, rebinding and the service's hit check all go through;
//! * the [`Tensor`] container (levels + values + fill value), with
//!   conversions to and from dense data that serve as correctness oracles;
//! * [`BoundTensor`], which registers a tensor's arrays as interpreter
//!   buffers and **unfurls** any fiber into a [`Looplet`](finch_looplets::Looplet)
//!   nest under a chosen access [`Protocol`](finch_cin::Protocol) (walk,
//!   gallop, locate — paper §7).
//!
//! ```
//! use finch_formats::Tensor;
//!
//! let dense = vec![0.0, 1.5, 0.0, 0.0, 2.5, 0.0];
//! let t = Tensor::sparse_list_vector("x", &dense);
//! assert_eq!(t.to_dense(), dense);
//! assert_eq!(t.nnz(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod bound;
mod convert;
mod level;
mod output;
mod tensor;
mod unfurl;

pub use bound::{BoundLevel, BoundTensor, UnfurlLeaf};
pub use level::{Array, Level, LevelOf};
pub use output::{LevelSpec, OutputBuilder};
pub use tensor::{Tensor, TensorError};
