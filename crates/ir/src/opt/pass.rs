//! The translation-validated pass manager.
//!
//! Every transform of the optimisation pipeline — the three IR passes,
//! the IR-to-bytecode lowering, and the two bytecode passes — runs as a
//! named [`Pass`] under a [`PassManager`].  At [`ValidationLevel::Full`]
//! the manager applies two independent safety layers after each pass:
//!
//! 1. **Static verification**: the representation-appropriate verifier
//!    from [`super::verify`] re-checks structural invariants
//!    (def-before-use, effect ordering, jump alignment, buffer schemas)
//!    that a buggy transform could silently break.
//! 2. **Translation validation**, where the pass context carries the
//!    kernel's buffer set: the manager executes the pre- and post-pass
//!    programs on synthesized witness inputs — the kernel's own
//!    compile-time buffers plus a deterministically value-perturbed
//!    variant — and asserts bit-identical
//!    buffer contents together with a semantics-preserving per-pass
//!    [`ExecStats`] contract (see [`StatsContract`]: work-removing IR
//!    passes keep the effectful `stores` counter exactly and may only
//!    shrink the rest, hoisting may move statements across a loop
//!    boundary, bytecode passes keep every counter exactly).  In the
//!    spirit of verification-condition
//!    generation, the check is derived from the transform's *output*, so
//!    no pass is trusted — a miscompile surfaces as a [`PassError`] naming
//!    the offending pass.
//!
//! Witness runs are cached: the post-state of pass *N* is the pre-state of
//! pass *N+1*, so a pipeline of *k* passes costs *k + 1* witness
//! executions per witness input, not *2k*.

use std::time::Instant;

use crate::buffer::{Buffer, BufferSet};
use crate::bytecode::Program;
use crate::interp::{ExecStats, Interpreter};
use crate::stmt::Stmt;
use crate::var::Names;
use crate::vm::Vm;

use super::verify::{verify_bytecode, verify_ir};
use super::OptStats;

/// Step budget for each witness execution: generous enough for any kernel
/// the test and benchmark suites compile, small enough to flag a pass that
/// introduces non-termination.
const WITNESS_STEP_BUDGET: u64 = 50_000_000;

/// How much checking the pass manager performs after every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationLevel {
    /// No post-pass checking (the release-mode default; the kernel fuzzer
    /// opts back in with `fuzz-kernels --validate`).
    Off,
    /// Run the static IR/bytecode verifier after every pass, and, given
    /// the kernel's buffer set, per-pass translation validation: execute
    /// the pre- and post-pass programs on synthesized witness inputs and
    /// compare outputs bit-for-bit (the debug/test default).
    Full,
}

impl Default for ValidationLevel {
    /// Always-on in debug and test builds, off in release (where the
    /// benchmark harness opts in explicitly).
    fn default() -> Self {
        if cfg!(debug_assertions) {
            ValidationLevel::Full
        } else {
            ValidationLevel::Off
        }
    }
}

impl ValidationLevel {
    /// A short stable label (`off` / `full`), used by CLI flags
    /// and the benchmark JSON report.
    pub fn label(self) -> &'static str {
        match self {
            ValidationLevel::Off => "off",
            ValidationLevel::Full => "full",
        }
    }
}

impl std::fmt::Display for ValidationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The program representation a [`Pass`] produces.
#[derive(Debug, Clone)]
pub enum Repr {
    /// The statement-tree target IR.
    Ir(Vec<Stmt>),
    /// The flat register bytecode.
    Bytecode(Program),
}

impl Repr {
    /// A borrowed view of the representation.
    pub fn as_ref(&self) -> ReprRef<'_> {
        match self {
            Repr::Ir(stmts) => ReprRef::Ir(stmts),
            Repr::Bytecode(program) => ReprRef::Bytecode(program),
        }
    }

    /// The contained IR statements.
    ///
    /// # Panics
    ///
    /// Panics when the representation is bytecode.
    pub fn into_ir(self) -> Vec<Stmt> {
        match self {
            Repr::Ir(stmts) => stmts,
            Repr::Bytecode(_) => panic!("expected an IR representation"),
        }
    }

    /// The contained bytecode program.
    ///
    /// # Panics
    ///
    /// Panics when the representation is IR.
    pub fn into_bytecode(self) -> Program {
        match self {
            Repr::Ir(_) => panic!("expected a bytecode representation"),
            Repr::Bytecode(p) => p,
        }
    }
}

/// The program representation a [`Pass`] reads: a borrowed view of a
/// [`Repr`].  Every pass builds its output from scratch, so none needs to
/// own its input — and the caller keeps it without a copy.
#[derive(Debug, Clone, Copy)]
pub enum ReprRef<'a> {
    /// The statement-tree target IR.
    Ir(&'a [Stmt]),
    /// The flat register bytecode.
    Bytecode(&'a Program),
}

impl<'a> ReprRef<'a> {
    /// The viewed IR statements.
    ///
    /// # Panics
    ///
    /// Panics when the representation is bytecode.
    pub fn ir(self) -> &'a [Stmt] {
        match self {
            ReprRef::Ir(stmts) => stmts,
            ReprRef::Bytecode(_) => panic!("expected an IR representation"),
        }
    }

    /// The viewed bytecode program.
    ///
    /// # Panics
    ///
    /// Panics when the representation is IR.
    pub fn bytecode(self) -> &'a Program {
        match self {
            ReprRef::Ir(_) => panic!("expected a bytecode representation"),
            ReprRef::Bytecode(p) => p,
        }
    }
}

/// Shared state a [`Pass`] runs against: the kernel's name table (LICM
/// creates fresh variables), its buffer set when available (the typing
/// pass seeds inference from buffer schemas; translation validation
/// synthesizes witnesses from it), and the accumulated [`OptStats`].
pub struct PassCtx<'a> {
    /// The name table of the program's variables.
    pub names: &'a mut Names,
    /// The kernel's buffers, when compiling a real kernel.  `None` when
    /// IR passes run on their own, which skips the passes and checks that
    /// need buffers.
    pub bufs: Option<&'a BufferSet>,
    /// Per-pass counters, accumulated across the whole pipeline.
    pub stats: &'a mut OptStats,
}

/// The [`ExecStats`] preservation contract a pass's output must satisfy
/// relative to its input when both complete on a witness.
///
/// Buffer contents must be bit-identical under every contract, but for the
/// bits of a NaN ([`crate::value::same_f64`]); the contract only governs the
/// work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsContract {
    /// Every counter is preserved exactly.  The contract of the bytecode
    /// passes, and of lowering itself (the interpreter and the VM count
    /// work identically by design).
    Exact,
    /// `stores` is preserved exactly; every other counter may shrink but
    /// never grow.  The contract of work-removing IR passes (folding,
    /// dead-code elimination).
    Shrinks,
    /// `stores` is preserved exactly and `loop_iters`/`searches` may
    /// shrink but never grow, while `stmts` and `loads` are
    /// unconstrained: hoisting moves statements across a loop boundary,
    /// so a zero-trip loop *increases* the executed-statement and load
    /// counts (the hoisted code now runs once instead of never).
    Hoisting,
}

/// One named transform over a program representation.
///
/// A pass must be *value-exact* for completing programs: the transformed
/// program stores bit-identical results into every buffer.  The pass
/// manager enforces this (per [`ValidationLevel`]) rather than trusting
/// it.
pub trait Pass {
    /// Stable pass name, used for error attribution and the per-pass
    /// timing report.
    fn name(&self) -> &'static str;
    /// Transform the representation.
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr;
    /// The [`ExecStats`] contract enforced on this pass's witness runs.
    /// Defaults to the strictest level, [`StatsContract::Exact`].
    fn stats_contract(&self) -> StatsContract {
        StatsContract::Exact
    }
}

/// A verification or translation-validation failure, attributed to the
/// pass whose output broke the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// The name of the offending pass.
    pub pass: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass `{}` failed validation: {}", self.pass, self.detail)
    }
}

impl std::error::Error for PassError {}

/// Wall-clock accounting for one executed pass: the transform itself, the
/// static verifier, and the witness-based translation validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassReport {
    /// The pass's stable name.
    pub name: &'static str,
    /// Nanoseconds spent in the transform.
    pub transform_nanos: u64,
    /// Nanoseconds spent in the static verifier (0 at
    /// [`ValidationLevel::Off`]).
    pub verify_nanos: u64,
    /// Nanoseconds spent executing and comparing witnesses (0 below
    /// [`ValidationLevel::Full`]).
    pub validate_nanos: u64,
}

/// The outcome of executing one witness input against the current
/// representation: the final buffer contents and work counters, or a
/// marker that the program faulted (in which case later comparisons are
/// skipped — the optimiser is allowed to remove a fault, never to add
/// one).
#[derive(Debug, Clone)]
enum WitnessOutcome {
    Ran(BufferSet, ExecStats),
    Faulted,
}

/// Runs passes in order, applying post-pass verification and translation
/// validation, and collecting one [`PassReport`] per executed pass.
pub struct PassManager {
    validation: ValidationLevel,
    reports: Vec<PassReport>,
    /// Per-witness cached outcome of the *current* representation; the
    /// post-state of the last validated pass.  `None` until the first
    /// pass runs under [`ValidationLevel::Full`] with buffers available.
    witness_state: Option<Vec<(BufferSet, WitnessOutcome)>>,
}

impl PassManager {
    /// A manager checking at the given level.
    pub fn new(validation: ValidationLevel) -> Self {
        PassManager { validation, reports: Vec::new(), witness_state: None }
    }

    /// The per-pass timing reports accumulated so far, in execution order.
    pub fn reports(&self) -> &[PassReport] {
        &self.reports
    }

    /// Consume the manager, yielding the per-pass timing reports.
    pub fn into_reports(self) -> Vec<PassReport> {
        self.reports
    }

    /// Run one pass over the representation, then verify and (at
    /// [`ValidationLevel::Full`]) differentially validate its output.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] naming `pass` when its output fails the
    /// static verifier, diverges from the pre-pass program on a witness
    /// input, or breaks the [`ExecStats`] preservation contract.
    pub fn run_pass(
        &mut self,
        pass: &dyn Pass,
        repr: ReprRef<'_>,
        ctx: &mut PassCtx<'_>,
    ) -> Result<Repr, PassError> {
        // Establish the pre-pass witness baseline lazily, before the
        // first transform runs.
        let mut validate_nanos = 0u64;
        if self.validation == ValidationLevel::Full && self.witness_state.is_none() {
            if let Some(bufs) = ctx.bufs {
                let t = Instant::now();
                let witnesses = synthesize_witnesses(bufs);
                self.witness_state = Some(
                    witnesses
                        .into_iter()
                        .map(|w| {
                            let outcome = execute_witness(repr, ctx.names, &w);
                            (w, outcome)
                        })
                        .collect(),
                );
                validate_nanos += t.elapsed().as_nanos() as u64;
            }
        }

        let t = Instant::now();
        let post = pass.run(repr, ctx);
        let transform_nanos = t.elapsed().as_nanos() as u64;

        let mut verify_nanos = 0u64;
        if self.validation != ValidationLevel::Off {
            let t = Instant::now();
            let checked = match &post {
                Repr::Ir(stmts) => verify_ir(stmts, ctx.names, ctx.bufs),
                Repr::Bytecode(program) => match ctx.bufs {
                    Some(bufs) => verify_bytecode(program, bufs),
                    None => program.validate(),
                },
            };
            verify_nanos = t.elapsed().as_nanos() as u64;
            checked.map_err(|detail| PassError { pass: pass.name(), detail })?;
        }

        if let Some(state) = self.witness_state.as_mut() {
            let t = Instant::now();
            let contract = pass.stats_contract();
            for (witness, cached) in state.iter_mut() {
                let outcome = execute_witness(post.as_ref(), ctx.names, witness);
                compare_outcomes(cached, &outcome, contract)
                    .map_err(|detail| PassError { pass: pass.name(), detail })?;
                *cached = outcome;
            }
            validate_nanos += t.elapsed().as_nanos() as u64;
        }

        self.reports.push(PassReport {
            name: pass.name(),
            transform_nanos,
            verify_nanos,
            validate_nanos,
        });
        Ok(post)
    }
}

/// Witness inputs for translation validation: the kernel's compile-time
/// buffers verbatim (a structurally-valid state: dense outputs are
/// initialised by the generated code, sparse outputs start empty), plus a
/// variant whose float *value* arrays are deterministically perturbed —
/// structure buffers (positions, coordinates, masks) are kept intact so
/// every format invariant still holds, while value-path miscompiles that
/// happen to be invisible on the original data get a second chance to
/// surface.
pub(super) fn synthesize_witnesses(bufs: &BufferSet) -> Vec<BufferSet> {
    let original = bufs.clone();
    let mut perturbed = bufs.clone();
    // Deterministic splitmix64 stream; no external RNG dependency.
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let ids: Vec<_> = perturbed.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        if let Buffer::F64(values) = perturbed.get_mut(id) {
            for v in values.iter_mut() {
                // Map to a small, exactly-representable grid so value
                // comparisons in the kernel stay deterministic.
                *v = ((next() % 64) as f64 - 16.0) * 0.25;
            }
        }
    }
    vec![original, perturbed]
}

/// Execute the representation against a copy of the witness buffers.
fn execute_witness(repr: ReprRef<'_>, names: &Names, witness: &BufferSet) -> WitnessOutcome {
    let mut bufs = witness.clone();
    match repr {
        ReprRef::Ir(stmts) => {
            let mut interp = Interpreter::new(names).with_step_budget(WITNESS_STEP_BUDGET);
            match interp.run(stmts, &mut bufs) {
                Ok(()) => WitnessOutcome::Ran(bufs, interp.stats()),
                Err(_) => WitnessOutcome::Faulted,
            }
        }
        ReprRef::Bytecode(program) => {
            let mut vm = Vm::new(program).with_step_budget(WITNESS_STEP_BUDGET);
            match vm.run(program, &mut bufs) {
                Ok(()) => WitnessOutcome::Ran(bufs, vm.stats()),
                Err(_) => WitnessOutcome::Faulted,
            }
        }
    }
}

/// Compare the cached pre-pass outcome against the post-pass outcome.
///
/// Buffer contents must be the same values ([`Buffer::same_as`]: bit for
/// bit, but any NaN equals any NaN).  The [`ExecStats`] check is governed by
/// the pass's declared [`StatsContract`].
fn compare_outcomes(
    pre: &WitnessOutcome,
    post: &WitnessOutcome,
    contract: StatsContract,
) -> Result<(), String> {
    let (pre_bufs, pre_stats) = match pre {
        WitnessOutcome::Ran(b, s) => (b, s),
        // The pre-pass program faulted on this witness: the optimiser may
        // legally remove the fault, so there is nothing to compare.
        WitnessOutcome::Faulted => return Ok(()),
    };
    let (post_bufs, post_stats) = match post {
        WitnessOutcome::Ran(b, s) => (b, s),
        WitnessOutcome::Faulted => {
            return Err("witness run faults after the pass but completed before it".into())
        }
    };
    for (id, name, pre_buf) in pre_bufs.iter() {
        let post_buf = post_bufs.get(id);
        if !pre_buf.same_as(post_buf) {
            return Err(format!(
                "witness outputs diverge in buffer `{name}`: {pre_buf:?} vs {post_buf:?}"
            ));
        }
    }
    match contract {
        StatsContract::Exact => {
            if post_stats != pre_stats {
                return Err(format!(
                    "pass must preserve ExecStats exactly: {pre_stats:?} vs {post_stats:?}"
                ));
            }
        }
        StatsContract::Shrinks | StatsContract::Hoisting => {
            if post_stats.stores != pre_stats.stores {
                return Err(format!(
                    "effectful store count changed: {} before, {} after",
                    pre_stats.stores, post_stats.stores
                ));
            }
            let shrank = |name: &str, pre: u64, post: u64| -> Result<(), String> {
                if post > pre {
                    return Err(format!("{name} counter grew: {pre} before, {post} after"));
                }
                Ok(())
            };
            if contract == StatsContract::Shrinks {
                shrank("stmts", pre_stats.stmts, post_stats.stmts)?;
                shrank("loads", pre_stats.loads, post_stats.loads)?;
            }
            shrank("loop_iters", pre_stats.loop_iters, post_stats.loop_iters)?;
            shrank("searches", pre_stats.searches, post_stats.searches)?;
        }
    }
    Ok(())
}
