//! The staged optimisation pipeline over the target IR and its bytecode.
//!
//! The original Finch implementation emits Julia source and leans on the
//! host compiler to clean up the straight-line code its lowering produces:
//! constant folding, copy propagation, dead-branch pruning and
//! loop-invariant code motion all come for free there.  Our pipeline
//! executes the IR as lowered, so this module performs the same clean-up
//! explicitly, staged behind an [`OptLevel`]:
//!
//! * `fold` — constant folding, constant/copy propagation, and pruning of
//!   statically-decidable `if`/`while`/`for` statements,
//! * `licm` — loop-invariant code motion over expressions: every maximal
//!   invariant subexpression is evaluated once in the pre-header of the
//!   outermost loop it is invariant in (exported as [`hoist_invariants`]),
//! * `dce` — dead-code and dead-store elimination for variables that are
//!   never read, plus removal of emptied control flow,
//! * [`peephole`] — a pass over compiled [`crate::bytecode::Program`]s that
//!   fuses hot instruction pairs into superinstructions and coalesces the
//!   temp registers; every fused instruction maintains
//!   [`crate::interp::ExecStats`] exactly like its unfused expansion, so
//!   tree-walk vs bytecode parity stays bit-for-bit at every opt level,
//! * [`typing`] — static register-type inference over the fused bytecode
//!   (seeded from the buffer schema and the constant pool) followed by a
//!   1:1 rewrite of proven-monomorphic instructions into typed forms the
//!   VM dispatches without any tag reads or writes,
//! * [`mod@vectorize`] — kernel-op selection over the typed bytecode: each
//!   innermost typed counted loop whose body matches a canonical dense
//!   shape gains one vectorized superinstruction executing all but the
//!   final iteration over whole buffer slices, with the untouched scalar
//!   loop as both remainder handler and runtime fallback,
//! * [`mod@forward`] — the back end of loops, over typed bytecode: reads
//!   of a temp that holds a typed copy or literal read the source (or one
//!   pinned register per literal) and the definitions left dead are
//!   dropped, the stepper's guarded increment becomes one branch-free
//!   [`crate::bytecode::Instr::IAdvance`], and a typed loop's back edge
//!   re-tests its condition itself,
//! * [`mod@merge_skip`] — the kernel-op tier's second selection, behind
//!   `forward`: the loop of two coiterating steppers under a conjunctive
//!   body — both fingers ending the step, or one ending it inside the
//!   other's VBL block — gains one run-ahead op as its body's first
//!   instruction, which performs natively the iterations that match
//!   nothing, with the untouched scalar loop running every iteration that
//!   stores, faults or exits; the loop of one stepper whose body is a
//!   gather reduction gains one that performs every iteration but the last,
//! * [`mod@finalize`] — the last rewrite, at every level above
//!   [`OptLevel::None`]: statement accounting moves from one dispatched
//!   `BumpStmt` per statement into a per-pc side table, no-ops are
//!   deleted and jump chains threaded, so the VM dispatches only
//!   instructions that compute something.
//!
//! All IR-level passes are *value-exact* for programs that complete: an
//! optimised program stores bit-identical results into every buffer.  The
//! machine-independent work counters ([`crate::interp::ExecStats`]) may
//! shrink across opt levels — that is the point — but remain identical
//! between the two engines at any given level, because both execute the
//! same optimised program.
//!
//! One standard compiler caveat applies to *faulting* programs:
//! expressions are pure but can raise runtime errors (an out-of-bounds
//! load, a division by zero), and removing a dead statement or a pruned
//! branch also removes any error its expressions would have raised.  A
//! program that faults at [`OptLevel::None`] can therefore complete at
//! [`OptLevel::Default`] — exactly as a native compiler deletes a faulting
//! dead load.  The compiler never emits such code (generated loads are
//! guarded), so this is only observable on hand-built IR.

mod dce;
pub mod finalize;
mod fold;
pub mod forward;
#[cfg(test)]
mod irgen;
mod licm;
pub mod merge_skip;
#[cfg(test)]
mod mutation_tests;
mod pass;
mod peephole;
pub mod typing;
pub mod vectorize;
pub mod verify;

pub use finalize::finalize;
pub use forward::forward;
pub use licm::hoist_invariants;
pub use merge_skip::{merge_skip, MergeDecline};
pub use pass::{
    Pass, PassCtx, PassError, PassManager, PassReport, Repr, ReprRef, StatsContract,
    ValidationLevel,
};
pub use peephole::peephole;
pub use typing::specialize;
pub use vectorize::{vectorize, VectorDecline};
pub use verify::{verify_bytecode, verify_ir};

use crate::buffer::BufferSet;
use crate::bytecode::Program;
use crate::config::ExecConfig;
use crate::stmt::Stmt;
use crate::var::Names;

/// How aggressively the compiler optimises lowered code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Execute the IR exactly as lowered: no IR passes, no bytecode
    /// peephole.  The baseline the benchmark harness measures speedups
    /// against.
    None,
    /// The standard pipeline: constant folding/propagation, loop-invariant
    /// code motion (index arithmetic and run values leave the inner loops),
    /// dead-code elimination, and the bytecode peephole.
    #[default]
    Default,
}

impl OptLevel {
    /// A short stable label, used by the benchmark harness and its JSON
    /// report (`none` / `default`).
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Default => "default",
        }
    }

    /// Both levels, unoptimised first.
    pub fn all() -> [OptLevel; 2] {
        [OptLevel::None, OptLevel::Default]
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-pass counters accumulated by one run of the optimisation pipeline,
/// surfaced on compiled kernels and in the benchmark JSON report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constant (sub)expressions folded to literals.
    pub folds: u64,
    /// Variable reads replaced by a propagated constant or copied variable.
    pub copies_propagated: u64,
    /// `if` statements whose condition was statically decided.
    pub branches_pruned: u64,
    /// `while`/`for` loops removed because they statically never run.
    pub loops_removed: u64,
    /// Dead statements removed by DCE (never-read `let`/`assign` targets
    /// and emptied control flow).
    pub stmts_removed: u64,
    /// Temporaries LICM created for loop-invariant expressions that read a
    /// buffer (`let hoisted = 0.6 * B_val[p]`), each evaluated under its
    /// loop's entry test.
    pub loads_hoisted: u64,
    /// Temporaries LICM created for loop-invariant pure arithmetic
    /// (`let inv = i * 48`), evaluated in the pre-header of the outermost
    /// loop they are invariant in.
    pub exprs_hoisted: u64,
    /// Bytecode instruction pairs fused into superinstructions.
    pub instrs_fused: u64,
    /// Register-to-register moves eliminated by operand forwarding.
    pub movs_eliminated: u64,
    /// Registers trimmed from the register file by temp coalescing.
    pub regs_saved: u64,
    /// Bytecode instructions rewritten into monomorphic typed forms by
    /// the register-type inference pass ([`typing`]).
    pub instrs_typed: u64,
    /// Registers whose runtime tag the typing pass proved static and
    /// pinned ([`crate::bytecode::Program::pretags`]).
    pub regs_pretagged: u64,
    /// Basic blocks of the programs the typing pass inferred.  It infers
    /// each program once, so this is their plain block count.
    pub typing_blocks: u64,
    /// Block visits the typing pass's dataflow solver made to reach its
    /// fixpoint: about two per block on structured code.
    pub typing_block_visits: u64,
    /// Scalar body instructions of innermost typed counted loops that the
    /// vectorize pass replaced with kernel ops ([`vectorize()`]).
    pub instrs_vectorized: u64,
    /// Scalar body instructions of all innermost typed counted loops the
    /// vectorize pass examined (the denominator of the vectorized
    /// fraction).
    pub instrs_vectorizable: u64,
    /// Innermost typed counted loops [`vectorize()`] looked at and gave no
    /// kernel op, by reason: indexed like [`VectorDecline::ALL`].
    pub vector_declined: [u64; VectorDecline::ALL.len()],
    /// Operand reads the `forward` pass pointed past a typed copy, at the
    /// register the copy was made from ([`forward()`]).
    pub copies_forwarded: u64,
    /// Distinct literals the `forward` pass keeps in a pinned register,
    /// written once by the program's prologue.
    pub literals_pinned: u64,
    /// Typed loops whose back edge the `forward` pass made their bottom
    /// test ([`crate::bytecode::Instr::IWhileNext`] /
    /// [`crate::bytecode::Instr::IForNext`]).
    pub loops_rotated: u64,
    /// Guarded increments the `forward` pass fused into one branch-free
    /// [`crate::bytecode::Instr::IAdvance`].
    pub advances_predicated: u64,
    /// Step loops given a run-ahead op by [`merge_skip()`]: two-finger
    /// merges ([`crate::bytecode::Instr::IMergeSkip`]) and lone steppers
    /// ([`crate::bytecode::Instr::IGatherReduce`]).
    pub merge_skips: u64,
    /// Typed `while` loops [`merge_skip()`] looked at and gave no op, by
    /// reason: indexed like [`MergeDecline::ALL`].
    pub merge_declined: [u64; MergeDecline::ALL.len()],
    /// IR statement count before the pipeline ran.
    pub ir_stmts_before: u64,
    /// IR statement count after the pipeline ran.
    pub ir_stmts_after: u64,
}

fn count_stmts(stmts: &[Stmt]) -> u64 {
    Stmt::count_matching(stmts, &|_| true) as u64
}

/// Constant folding, constant/copy propagation, and static control-flow
/// pruning (`fold`) as a [`Pass`].
pub struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Ir(fold::fold_stmts(repr.ir(), ctx.stats))
    }
    fn stats_contract(&self) -> StatsContract {
        StatsContract::Shrinks
    }
}

/// Loop-invariant code motion over expressions (`licm`) as a [`Pass`].
/// Creates fresh variables in [`PassCtx::names`].
pub struct LicmPass;

impl Pass for LicmPass {
    fn name(&self) -> &'static str {
        "licm"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Ir(licm::hoist_with_stats(repr.ir(), ctx.names, ctx.stats))
    }
    fn stats_contract(&self) -> StatsContract {
        StatsContract::Hoisting
    }
}

/// Dead-code and dead-store elimination (`dce`) as a [`Pass`].
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Ir(dce::eliminate_dead(repr.ir(), ctx.stats))
    }
    fn stats_contract(&self) -> StatsContract {
        StatsContract::Shrinks
    }
}

/// IR-to-bytecode lowering ([`Program::compile`]) as a [`Pass`]: under
/// translation validation, this is the cross-engine differential check —
/// the pre-pass witness runs on the tree-walking interpreter and the
/// post-pass witness on the register VM.
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Bytecode(Program::compile(repr.ir(), ctx.names))
    }
}

/// Bytecode superinstruction fusion and register coalescing
/// ([`peephole`]) as a [`Pass`].
pub struct PeepholePass;

impl Pass for PeepholePass {
    fn name(&self) -> &'static str {
        "peephole"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Bytecode(peephole::peephole(repr.bytecode(), ctx.stats))
    }
}

/// Static register-type inference and monomorphic rewriting
/// ([`typing`]) as a [`Pass`].  Requires [`PassCtx::bufs`]: the buffer
/// schema seeds the inference.
pub struct TypingPass;

impl Pass for TypingPass {
    fn name(&self) -> &'static str {
        "typing"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        let bufs = ctx.bufs.expect("the typing pass needs the kernel's buffer set");
        let program = repr.bytecode();
        // Every pipeline run of this crate's unit tests doubles as a
        // differential check against the reference inference.
        #[cfg(test)]
        typing::specialize_checked(program, bufs);
        Repr::Bytecode(typing::specialize(program, bufs, ctx.stats))
    }
}

/// Vectorized kernel-op selection over typed bytecode ([`vectorize()`])
/// as a [`Pass`].  Runs after [`TypingPass`] — only typed counted loops
/// match — and keeps [`crate::interp::ExecStats`] bit-identical (each
/// kernel op carries its scalar-equivalent per-iteration cost), so the
/// default [`StatsContract::Exact`] applies.
pub struct VectorizePass;

impl Pass for VectorizePass {
    fn name(&self) -> &'static str {
        "vectorize"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Bytecode(vectorize::vectorize(repr.bytecode(), ctx.stats))
    }
}

/// Operand forwarding, predicated finger advances and loop rotation over
/// typed bytecode ([`forward()`]) as a [`Pass`].  Runs after
/// [`VectorizePass`], which recognises a counted loop by its `ForStep`, and
/// before [`FinalizePass`], which deletes the `Nop`s it leaves.
pub struct ForwardPass;

impl Pass for ForwardPass {
    fn name(&self) -> &'static str {
        "forward"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Bytecode(forward::forward(repr.bytecode(), ctx.stats))
    }
}

/// Run-ahead selection for step loops ([`merge_skip()`]) as a [`Pass`]:
/// part of the kernel-op tier, like [`VectorizePass`], but behind
/// [`ForwardPass`], whose predicated advances and bottom tests it
/// recognises the loop by.  The ops account what the iterations they
/// perform count, so the default [`StatsContract::Exact`] applies.
pub struct MergeSkipPass;

impl Pass for MergeSkipPass {
    fn name(&self) -> &'static str {
        "merge_skip"
    }
    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Bytecode(merge_skip::merge_skip(repr.bytecode(), ctx.stats))
    }
}

/// Dispatch-stream clean-up ([`finalize()`]) as a [`Pass`]: statement
/// accounting folded into the per-pc side table, no-ops deleted, jump
/// chains threaded.  Work counters and faults are untouched, so the
/// default [`StatsContract::Exact`] applies.
pub struct FinalizePass;

impl Pass for FinalizePass {
    fn name(&self) -> &'static str {
        "finalize"
    }
    fn run(&self, repr: ReprRef<'_>, _ctx: &mut PassCtx<'_>) -> Repr {
        Repr::Bytecode(finalize::finalize(repr.bytecode()))
    }
}

/// The artifacts of one full [`optimize_and_lower`] pipeline run.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The optimised IR — what the tree-walking engine executes — or `None`
    /// at [`OptLevel::None`], where no IR pass runs and the input executes
    /// as it is (the caller holds it; no copy is made).
    pub code: Option<Vec<Stmt>>,
    /// The compiled (fused and, when enabled, typed) bytecode — what the
    /// register VM executes.
    pub program: Program,
    /// Accumulated per-pass counters.
    pub stats: OptStats,
    /// Per-pass wall-clock and validation timing, in execution order.
    pub reports: Vec<PassReport>,
}

/// Run the complete optimise-and-lower pipeline — the IR passes, the
/// bytecode lowering, and the bytecode passes [`ExecConfig::effective`]
/// leaves switched on — under a translation-validated [`PassManager`].
/// Only the compile-side fields of `config` are read.
///
/// `names` must be the table the program's variables were created from
/// (LICM creates fresh variables); `bufs` are the kernel's buffers, used
/// to seed the typing pass, check buffer schemas, and synthesize witness
/// inputs at [`ValidationLevel::Full`].
///
/// # Errors
///
/// Returns a [`PassError`] naming the offending pass when any pass's
/// output fails post-pass verification or diverges from its input program
/// on a witness run.
pub fn optimize_and_lower(
    stmts: &[Stmt],
    names: &mut Names,
    bufs: &BufferSet,
    config: &ExecConfig,
) -> Result<Lowered, PassError> {
    let config = config.effective();
    let mut stats = OptStats { ir_stmts_before: count_stmts(stmts), ..OptStats::default() };
    let mut manager = PassManager::new(config.validation);
    let mut ctx = PassCtx { names, bufs: Some(bufs), stats: &mut stats };
    let optimized = match config.opt {
        OptLevel::None => None,
        OptLevel::Default => Some(run_ir_round(&mut manager, stmts, &mut ctx)?),
    };
    let code = optimized.as_deref().unwrap_or(stmts);
    ctx.stats.ir_stmts_after = count_stmts(code);
    let mut program = manager.run_pass(&LowerPass, ReprRef::Ir(code), &mut ctx)?.into_bytecode();
    if config.opt != OptLevel::None {
        let mut bytecode_pass = |pass: &dyn Pass, program: &Program| {
            manager.run_pass(pass, ReprRef::Bytecode(program), &mut ctx).map(Repr::into_bytecode)
        };
        program = bytecode_pass(&PeepholePass, &program)?;
        if config.typed {
            program = bytecode_pass(&TypingPass, &program)?;
            if config.simd {
                program = bytecode_pass(&VectorizePass, &program)?;
            }
            program = bytecode_pass(&ForwardPass, &program)?;
            if config.simd {
                program = bytecode_pass(&MergeSkipPass, &program)?;
            }
        }
        program = bytecode_pass(&FinalizePass, &program)?;
    }
    Ok(Lowered { code: optimized, program, stats, reports: manager.into_reports() })
}

/// One fold → licm → dce round through the pass manager.
fn run_ir_round(
    manager: &mut PassManager,
    code: &[Stmt],
    ctx: &mut PassCtx<'_>,
) -> Result<Vec<Stmt>, PassError> {
    let code = manager.run_pass(&FoldPass, ReprRef::Ir(code), ctx)?.into_ir();
    let code = manager.run_pass(&LicmPass, ReprRef::Ir(&code), ctx)?.into_ir();
    Ok(manager.run_pass(&DcePass, ReprRef::Ir(&code), ctx)?.into_ir())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::expr::Expr;
    use crate::interp::Interpreter;
    use crate::value::Value;

    /// The IR passes alone at `level`, statically verified: these tests run
    /// them without a kernel's buffer set, so there are no witness runs.
    fn optimize(stmts: &[Stmt], names: &mut Names, level: OptLevel) -> (Vec<Stmt>, OptStats) {
        let mut stats = OptStats { ir_stmts_before: count_stmts(stmts), ..OptStats::default() };
        let mut manager = PassManager::new(ValidationLevel::Static);
        let mut ctx = PassCtx { names, bufs: None, stats: &mut stats };
        let code = match level {
            OptLevel::None => stmts.to_vec(),
            OptLevel::Default => {
                run_ir_round(&mut manager, stmts, &mut ctx).expect("the IR passes verify")
            }
        };
        stats.ir_stmts_after = count_stmts(&code);
        (code, stats)
    }

    /// Optimising at every level must leave buffer contents bit-identical.
    fn assert_value_exact(prog: &[Stmt], names: &Names, bufs: &BufferSet) {
        let mut reference: Option<BufferSet> = None;
        for level in OptLevel::all() {
            let mut names = names.clone();
            let (code, _) = optimize(prog, &mut names, level);
            let mut bufs = bufs.clone();
            let mut interp = Interpreter::new(&names);
            interp.run(&code, &mut bufs).expect("optimised program runs");
            match &reference {
                Option::None => reference = Some(bufs),
                Some(r) => {
                    for (id, name, buf) in r.iter() {
                        assert_eq!(buf, bufs.get(id), "buffer {name} diverges at {level}");
                    }
                }
            }
        }
    }

    #[test]
    fn pipeline_folds_propagates_and_removes_dead_code() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let a = names.fresh("a");
        let b = names.fresh("b");
        let dead = names.fresh("dead");
        let prog = vec![
            // a = 2 + 3 folds to 5; b = a propagates; dead is never read.
            Stmt::Let { var: a, init: Expr::add(Expr::int(2), Expr::int(3)) },
            Stmt::Let { var: b, init: Expr::Var(a) },
            Stmt::Let { var: dead, init: Expr::mul(Expr::Var(b), Expr::int(7)) },
            Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::add(Expr::Var(b), Expr::int(1)),
                reduce: Option::None,
            },
        ];
        let (code, stats) = optimize(&prog, &mut names.clone(), OptLevel::Default);
        assert!(stats.folds > 0, "constant folding ran: {stats:?}");
        assert!(stats.copies_propagated > 0, "propagation ran: {stats:?}");
        assert!(stats.stmts_removed > 0, "dead lets removed: {stats:?}");
        assert!(stats.ir_stmts_after < stats.ir_stmts_before, "{stats:?}");
        // The store's value folded all the way to the literal 6.
        let folded = Stmt::count_matching(&code, &|s| {
            matches!(s, Stmt::Store { value: Expr::Lit(Value::Int(6)), .. })
        });
        assert_eq!(folded, 1, "store value fully folded:\n{code:?}");
        assert_value_exact(&prog, &names, &bufs);
    }

    #[test]
    fn statically_false_branches_and_loops_are_pruned() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let i = names.fresh("i");
        let prog = vec![
            Stmt::If {
                cond: Expr::bool(false),
                then_branch: vec![Stmt::Store {
                    buf: out,
                    index: Expr::int(0),
                    value: Expr::int(1),
                    reduce: Option::None,
                }],
                else_branch: vec![Stmt::Store {
                    buf: out,
                    index: Expr::int(0),
                    value: Expr::int(2),
                    reduce: Option::None,
                }],
            },
            Stmt::While { cond: Expr::bool(false), body: vec![Stmt::Comment("never".into())] },
            Stmt::For {
                var: i,
                lo: Expr::int(5),
                hi: Expr::int(2),
                body: vec![Stmt::Comment("empty range".into())],
            },
        ];
        let (code, stats) = optimize(&prog, &mut names.clone(), OptLevel::Default);
        assert!(stats.branches_pruned >= 1, "{stats:?}");
        assert!(stats.loops_removed >= 2, "{stats:?}");
        assert_eq!(Stmt::count_matching(&code, &|s| matches!(s, Stmt::While { .. })), 0);
        assert_eq!(Stmt::count_matching(&code, &|s| matches!(s, Stmt::For { .. })), 0);
        assert_value_exact(&prog, &names, &bufs);
    }

    #[test]
    fn opt_level_none_is_the_identity() {
        let mut names = Names::new();
        let a = names.fresh("a");
        let prog = vec![Stmt::Let { var: a, init: Expr::add(Expr::int(1), Expr::int(2)) }];
        let (code, stats) = optimize(&prog, &mut names, OptLevel::None);
        assert_eq!(code, prog);
        assert_eq!(stats.folds, 0);
        assert_eq!(stats.ir_stmts_before, stats.ir_stmts_after);
    }

    #[test]
    fn labels_are_the_display_form() {
        for level in OptLevel::all() {
            assert_eq!(format!("{level}"), level.label());
        }
        assert_eq!(OptLevel::default(), OptLevel::Default);
    }
}
