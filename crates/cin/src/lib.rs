//! # finch-cin — extended concrete index notation
//!
//! Concrete index notation (CIN) is the surface language the Finch compiler
//! lowers (paper §5).  A CIN program is a tree of statements — assignments
//! with optional reduction operators, `forall` loops over index variables,
//! `where` (producer/consumer) statements, `multi` statements, `sieve`
//! statements and `pass` no-ops — whose expressions are pointwise functions
//! over *accesses* into named tensors.
//!
//! This reproduction implements the paper's *extended* CIN: accesses may
//! carry **protocol annotations** (walk / gallop / locate, §7) and **index
//! modifiers** (`window`, `offset`, `permit`, §8), which is what lets the
//! same source expression describe concatenation, slicing, padding and
//! convolution over structured inputs.
//!
//! The crate is deliberately independent of any particular tensor storage:
//! tensors are referred to by name ([`TensorRef`]) and bound to concrete
//! formats by the compiler in `finch-core`.
//!
//! ```
//! use finch_cin::build::*;
//!
//! // C[] += A[i] * B[i]       (a dot product)
//! let i = idx("i");
//! let stmt = forall(
//!     i.clone(),
//!     add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))),
//! );
//! assert_eq!(format!("{stmt}"), "@forall i C[] += (A[i] * B[i])");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
mod display;
mod expr;
mod index;
mod stmt;

pub use expr::{CinExpr, CinOp};
pub use index::{Access, IndexExpr, IndexVar, Protocol, TensorRef};
pub use stmt::{CinStmt, Reduction};
