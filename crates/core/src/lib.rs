//! # finch — a Rust reproduction of the Looplets/Finch structured-array compiler
//!
//! This crate is the top of the reproduction of *"Looplets: A Language for
//! Structured Coiteration"* (CGO 2023).  It compiles **extended concrete
//! index notation** (`finch-cin`) over **structured tensors**
//! (`finch-formats`) by unfurling each access into a **looplet nest**
//! (`finch-looplets`), progressively lowering the nests with
//! style-resolved looplet lowerers, simplifying with **rewrite rules**
//! (`finch-rewrite`), and emitting an imperative **target IR** (`finch-ir`)
//! that is pretty-printed, compiled to a flat register **bytecode**, and
//! executed by an instrumented register VM (the tree-walking interpreter is
//! retained as a semantics oracle — see [`Engine`]).
//!
//! The workflow mirrors the paper's Figure 1:
//!
//! ```
//! use finch::build::*;
//! use finch::{Kernel, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The motivating example: a sparse list dotted with a sparse band.
//! let a = Tensor::sparse_list_vector("A", &[0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0]);
//! let b = Tensor::band_vector("B", &[0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0]);
//!
//! let mut kernel = Kernel::new();
//! kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
//!
//! let i = idx("i");
//! let program = forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
//!
//! let mut compiled = kernel.compile(&program)?;
//! println!("{}", compiled.code());     // the generated coiteration loop
//! let stats = compiled.run()?;          // executes it and counts the work
//! assert!((compiled.output_scalar("C").unwrap() - (3.0 * 3.7 + 2.7 * 1.5)).abs() < 1e-9);
//! assert!(stats.loop_iters < 64);       // the band was skipped to, not scanned
//! # Ok(()) }
//! ```
//!
//! The sibling crates are re-exported so downstream users (the examples,
//! the benchmark harness, and the integration tests in this repository)
//! only need to depend on `finch`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod breaker;
mod error;
mod kernel;
mod lower;
mod queue;
mod service;

pub use breaker::BreakerState;
pub use error::{CompileError, ServiceError};
pub use kernel::{CompiledKernel, Kernel};
pub use queue::ServiceState;
pub use service::{
    DrainReport, FaultKind, FaultPlan, FaultRule, HealthSnapshot, InjectPoint, KernelService,
    ReadBack, Request, Response, ServiceConfig, ServiceStats, Tier,
};

// Re-export the surface language, formats and runtime types.
pub use finch_cin::build;
pub use finch_cin::{
    Access, CinExpr, CinOp, CinStmt, IndexExpr, IndexVar, Protocol, Reduction, TensorRef,
};
pub use finch_formats::{BoundTensor, Level, LevelSpec, OutputBuilder, Tensor, TensorError};
pub use finch_ir::opt::{MergeDecline, PassReport, ValidationLevel, VectorDecline};
pub use finch_ir::value::same_f64;
pub use finch_ir::{Engine, ExecConfig, ExecStats, OptLevel, OptStats, RuntimeError, Value, Watch};
pub use finch_looplets as looplets;
pub use finch_rewrite::Rewriter;
