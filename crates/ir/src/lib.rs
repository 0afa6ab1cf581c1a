//! # finch-ir — the target imperative IR of the Looplets/Finch reproduction
//!
//! The Finch compiler described in *"Looplets: A Language for Structured
//! Coiteration"* (CGO 2023) progressively lowers concrete index notation into
//! imperative loop code.  The original implementation emits Julia source and
//! relies on Julia's `eval`; this reproduction instead emits the small typed
//! imperative IR defined in this crate, which can be
//!
//! * pretty-printed as readable pseudo-Rust (see [`pretty`]), reproducing the
//!   code listings of the paper's Figures 1 and 6,
//! * executed directly by the interpreter in [`interp`], which also counts
//!   the work performed (loop iterations, loads, stores, binary searches) so
//!   that the paper's *asymptotic* claims can be checked in tests, and
//! * compiled once to a flat register [`bytecode`] and executed by the
//!   register VM in [`vm`] — the default execution engine, which maintains
//!   the same work counters in a tight dispatch loop over unboxed typed
//!   registers.  The tree-walker is retained as the semantics oracle the
//!   bytecode engine is differential-tested against.
//!
//! The IR is deliberately tiny: scalar [`Value`]s, named [`Var`]iables,
//! expressions ([`Expr`]) over typed flat [`Buffer`]s, and structured
//! statements ([`Stmt`]) — `let`, assignment, buffer stores with an optional
//! reduction operator, `if`/`while`/`for`, and blocks.  Everything a looplet
//! lowerer needs and nothing more.
//!
//! ```
//! use finch_ir::{Names, BufferSet, Buffer, Expr, Stmt, BinOp, Value, Interpreter};
//!
//! # fn main() -> Result<(), finch_ir::RuntimeError> {
//! let mut names = Names::new();
//! let mut bufs = BufferSet::new();
//! let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0].into()));
//! let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
//! let i = names.fresh("i");
//!
//! // for i in 0..=2 { out[0] += x[i] }
//! let prog = vec![Stmt::For {
//!     var: i,
//!     lo: Expr::int(0),
//!     hi: Expr::int(2),
//!     body: vec![Stmt::Store {
//!         buf: out,
//!         index: Expr::int(0),
//!         value: Expr::load(x, Expr::Var(i)),
//!         reduce: Some(BinOp::Add),
//!     }],
//! }];
//!
//! let mut interp = Interpreter::new(&names);
//! interp.run(&prog, &mut bufs)?;
//! assert_eq!(bufs.get(out).load(0), Value::Float(6.0));
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod bytecode;
pub mod config;
pub mod error;
pub mod expr;
pub mod interp;
mod isa;
pub mod opt;
pub mod pretty;
pub mod seek;
pub mod stmt;
pub mod value;
pub mod var;
pub mod vm;

pub use buffer::{AllocMeter, BufId, Buffer, BufferSet};
pub use bytecode::{Instr, LaneTag, MergeForm, Program, Reg};
pub use config::{Engine, ExecConfig};
pub use error::RuntimeError;
pub use expr::{BinOp, Expr, UnOp};
pub use interp::{ExecStats, Interpreter};
pub use opt::{OptLevel, OptStats};
pub use stmt::{Extent, Stmt};
pub use value::{Value, ValueKind};
pub use var::{Names, Var};
pub use vm::{Vm, Watch};
