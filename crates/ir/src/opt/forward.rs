//! The back end of loops: operand forwarding, a branch-free finger advance
//! and bottom-tested loops.
//!
//! What the typed bytecode of a coiterating merge loop still dispatches
//! that computes nothing is what the reference implementation leaves to its
//! host compiler: copies of a variable or a literal into an operand
//! temporary that the adjacent-pair peephole cannot reach, the loop's own
//! `jump -> head`, and — per finger — a data-dependent branch around one
//! increment.  This pass runs over typed bytecode (after `vectorize`,
//! before `finalize`) and removes the three, in place: it replaces
//! instructions one for one, turns what it deletes into [`Instr::Nop`]s for
//! `finalize` to drop, and only *prepends* a prologue, so no jump is
//! retargeted beyond a uniform shift.
//!
//! * **Forwarding.**  Within a region entered only at its top (facts die at
//!   every jump target), a read of a temp that holds a typed copy
//!   ([`Instr::IMov`]) reads the copy's source instead,
//!   and a read of a temp that holds a typed literal ([`Instr::ConstI`] /
//!   [`Instr::ConstF`]) reads a *pinned* register: one per distinct literal
//!   (compared bit for bit, like the constant pool), pre-tagged, written
//!   once by a prologue at pc 0 and never again.  Only typed definitions
//!   are forwarded — typing proved their source set, so no unbound-variable
//!   error moves — and nothing is forwarded into a vectorized kernel op,
//!   whose loop registers the verifier ties to the loop head's.  A
//!   backward liveness over the temps then drops the copies and literals
//!   nothing reads any more.
//! * **Predicated advance.**  `if_false a op b -> L ; p = p + k ; L:` — what
//!   the looplet stepper's `if idx[p] == step_stop { p += 1 }` compiles to —
//!   becomes one [`Instr::IAdvance`], `p += k · (a op b)`, which accounts
//!   the guarded statement only when the comparison holds.
//! * **Rotation.**  The back edge of a typed loop re-tests the loop's
//!   condition itself: the `Jump` to an [`Instr::IWhileCmp`] /
//!   [`Instr::IWhileCmpImm`] head becomes an [`Instr::IWhileNext`], the
//!   [`Instr::ForStep`] of an [`Instr::IForTest`] head an
//!   [`Instr::IForNext`]; both jump to the instruction after the head and
//!   fall through to the loop's exit.  The head stays as the entry test
//!   (and as what `verify_bytecode`'s placement rules read the loop off).  A
//!   loop whose condition takes more than its head to evaluate, or is not
//!   an integer comparison, keeps its `Jump`.
//!
//! Before any of it, instructions no path reaches become `Nop`s, and so
//! does a `Jump` over nothing else: typing turns a missing-test on a
//! register that is never missing into a `Jump`, and the fill value behind
//! it is dead.  With them gone the code on either side is one region again.
//!
//! Values, faults and [`crate::interp::ExecStats`] are those of the input
//! program, statement by statement: the pass runs under
//! [`super::StatsContract::Exact`].

use crate::bytecode::{Instr, LaneTag, Operand, Program, Reg, Role, NO_EDGE};
use crate::expr::BinOp;

use super::OptStats;

/// What a temp is known to hold until it, or what it copies, is written.
#[derive(Clone, Copy)]
enum Held {
    /// The value of another register.
    Copy(Reg),
    /// A literal: whether it is a float, and its bits.
    Lit(bool, u64),
}

/// The pinned literal registers allocated so far, above the program's own.
struct Pins {
    first: u32,
    lits: Vec<(bool, u64)>,
}

impl Pins {
    /// The register pinned to the literal, allocated on first use.
    fn reg(&mut self, float: bool, bits: u64) -> Reg {
        let at = self.lits.iter().position(|&lit| lit == (float, bits)).unwrap_or_else(|| {
            self.lits.push((float, bits));
            self.lits.len() - 1
        });
        Reg(self.first + at as u32)
    }
}

/// What the pass keeps per pc (one entry past the end, which a loop may
/// exit to): read off the ISA table in one walk per instruction.
#[derive(Clone, Copy)]
struct At {
    /// The instruction's jump target, or [`NO_EDGE`].
    edge: u32,
    /// Whether some instruction jumps here.
    target: bool,
    /// Whether some instruction at or behind this pc jumps here.
    back_edge_target: bool,
    /// The temps the instruction reads and writes, as [`temp_bit`]s.
    reads: u64,
    writes: u64,
    /// The temps live on entry to the instruction.
    live_in: u64,
}

/// Forward copies and literals, drop what that leaves dead, fuse the
/// finger advances and rotate the typed loops of `p`.
pub fn forward(p: &Program, stats: &mut OptStats) -> Program {
    debug_assert!(p.stmt_bump.iter().all(|&n| n == 0), "rewriting a finalized program");
    // Room for the prologue, so that prepending it does not reallocate.
    let mut code = Vec::with_capacity(p.code.len() + 8);
    code.extend_from_slice(&p.code);
    let blank = At {
        edge: NO_EDGE,
        target: false,
        back_edge_target: false,
        reads: 0,
        writes: 0,
        live_in: 0,
    };
    let mut at = vec![blank; code.len() + 1];
    for (pc, instr) in code.iter().enumerate() {
        at[pc].edge = instr.target().unwrap_or(NO_EDGE);
    }
    mark_targets(&mut at);
    if sweep_unreachable(&mut code, &mut at) {
        mark_targets(&mut at);
    }
    let mut pins = Pins { first: p.num_regs as u32, lits: Vec::new() };
    forward_operands(&mut code, &mut at, p.num_vars(), &mut pins, stats);
    drop_dead_definitions(&mut code, &mut at);
    for pc in 0..code.len() {
        fuse_advance(&mut code, &at, pc, stats);
        rotate(&mut code, pc, &mut pins, stats);
    }

    // The prologue writes each pinned literal once; every jump moves with
    // the code behind it.
    stats.literals_pinned += pins.lits.len() as u64;
    let shift = pins.lits.len();
    for (pc, _) in at.iter().enumerate().filter(|(_, at)| at.edge != NO_EDGE) {
        // A fused advance no longer branches.
        if let Some(target) = code[pc].target_mut() {
            *target += shift as u32;
        }
    }
    let pinned = || pins.lits.iter().zip(pins.first..).map(|(&lit, r)| (lit, Reg(r)));
    code.splice(
        0..0,
        pinned().map(|((float, bits), dst)| match float {
            true => Instr::ConstF { dst, imm: f64::from_bits(bits) },
            false => Instr::ConstI { dst, imm: bits as i64 },
        }),
    );
    let mut forwarded = p.with_code(code);
    forwarded.num_regs += shift;
    forwarded.pretags.extend(
        pinned().map(|((float, _), dst)| (dst, if float { LaneTag::Float } else { LaneTag::Int })),
    );
    forwarded
}

/// Set [`At::target`] and [`At::back_edge_target`] from the edges.
fn mark_targets(at: &mut [At]) {
    for here in at.iter_mut() {
        (here.target, here.back_edge_target) = (false, false);
    }
    for pc in 0..at.len() {
        let edge = at[pc].edge as usize;
        if let Some(target) = at.get_mut(edge) {
            target.target = true;
            target.back_edge_target |= edge <= pc;
        }
    }
}

/// Turn into `Nop`s the instructions no path from pc 0 reaches, then the
/// `Jump`s that only skip `Nop`s (and forget their edges); whether any was.
/// Only typing's decided missing-tests leave such code behind: most
/// programs stop at the first check.
fn sweep_unreachable(code: &mut [Instr], at: &mut [At]) -> bool {
    // Nothing is unreachable unless some instruction is neither fallen
    // into nor jumped to.
    if !(1..code.len()).any(|pc| !code[pc - 1].falls_through() && !at[pc].target) {
        return false;
    }
    let mut reached = vec![false; code.len() + 1];
    reached[0] = true;
    // Forward edges are followed within one sweep; only a back edge into
    // code no sweep has reached yet (never generated) asks for another.
    let mut again = true;
    while std::mem::take(&mut again) {
        for pc in 0..code.len() {
            if !reached[pc] {
                continue;
            }
            reached[pc + 1] |= code[pc].falls_through();
            if let Some(reached_target) = reached.get_mut(at[pc].edge as usize) {
                again |= at[pc].edge as usize <= pc && !*reached_target;
                *reached_target = true;
            }
        }
    }
    for pc in 0..code.len() {
        let skips_nothing = match code[pc] {
            Instr::Jump { target } if target as usize > pc => {
                (pc + 1..target as usize).all(|k| !reached[k] || code[k] == Instr::Nop)
            }
            _ => false,
        };
        if !reached[pc] || skips_nothing {
            code[pc] = Instr::Nop;
            at[pc].edge = NO_EDGE;
        }
    }
    true
}

/// The liveness bit of a register: one of the first 64 temps, or none (a
/// variable, or a temp beyond the word, is never dropped).
fn temp_bit(r: Reg, num_vars: usize) -> u64 {
    match r.index().checked_sub(num_vars) {
        Some(t) if t < 64 => 1 << t,
        _ => 0,
    }
}

/// Rewrite every read of a temp that holds a typed copy or literal to the
/// register that holds it first, in one walk of each instruction's
/// operands, and record the temps the instruction then reads and the temps
/// it writes.
fn forward_operands(
    code: &mut [Instr],
    at: &mut [At],
    num_vars: usize,
    pins: &mut Pins,
    stats: &mut OptStats,
) {
    let mut held: Vec<(Reg, Held)> = Vec::new();
    for (instr, at) in code.iter_mut().zip(at) {
        // A fact holds on every path to here only if there is one path.
        if at.target {
            held.clear();
        }
        if matches!(instr, Instr::BumpStmt | Instr::Nop) {
            continue;
        }
        // The verifier ties a kernel op's loop registers to its loop head's.
        let frozen = !held.is_empty() && instr.vop_loop_regs().is_some();
        // An instruction reads before it writes, whatever its field order:
        // the registers it writes end their facts once the walk is over.
        let (mut written, mut writes_seen) = ([Reg(0); 2], 0);
        instr.operands_mut(|operand| {
            let Operand::Reg(r, role) = operand else { return };
            if role == Role::Read && !frozen {
                if let Some(&(_, what)) = held.iter().find(|(t, _)| *t == *r) {
                    *r = match what {
                        Held::Copy(src) => {
                            stats.copies_forwarded += 1;
                            src
                        }
                        Held::Lit(float, bits) => pins.reg(float, bits),
                    };
                }
            }
            let bit = temp_bit(*r, num_vars);
            if role != Role::Write {
                at.reads |= bit;
            }
            if role != Role::Read {
                at.writes |= bit;
                written[writes_seen] = *r;
                writes_seen += 1;
            }
        });
        for w in &written[..writes_seen] {
            held.retain(|(t, what)| t != w && !matches!(what, Held::Copy(src) if src == w));
        }
        let fact = match *instr {
            Instr::IMov { dst, src } if dst != src => Some((dst, Held::Copy(src))),
            Instr::ConstI { dst, imm } => Some((dst, Held::Lit(false, imm as u64))),
            Instr::ConstF { dst, imm } => Some((dst, Held::Lit(true, imm.to_bits()))),
            _ => None,
        };
        held.extend(fact.filter(|(dst, _)| dst.index() >= num_vars));
    }
}

/// Drop (as `Nop`s) the typed copies and literals whose temp no path reads
/// before writing it again: a backward liveness, one word of temps per
/// instruction, swept until a sweep finds every entry it read already
/// final (a temp carried around a loop takes a second one).
fn drop_dead_definitions(code: &mut [Instr], at: &mut [At]) {
    let mut dead = Vec::new();
    // A backward sweep has every forward edge's target behind it already;
    // only a back edge can have read an entry the sweep then changed, and
    // what a sweep without such a change found dead is dead.
    let mut stale = true;
    while std::mem::take(&mut stale) {
        dead.clear();
        for pc in (0..code.len()).rev() {
            let next = if code[pc].falls_through() { at[pc + 1].live_in } else { 0 };
            let after = next | at.get(at[pc].edge as usize).map_or(0, |target| target.live_in);
            let At { reads, writes, .. } = at[pc];
            let droppable = matches!(
                code[pc],
                Instr::IMov { .. } | Instr::ConstI { .. } | Instr::ConstF { .. }
            );
            if droppable && writes != 0 && after & writes == 0 {
                dead.push(pc);
            }
            let live = (after & !writes) | reads;
            stale |= live != at[pc].live_in && at[pc].back_edge_target;
            at[pc].live_in = live;
        }
    }
    for pc in dead {
        code[pc] = Instr::Nop;
    }
}

/// `if_false a op b -> L ; [stmt] ; p = p + k ; L:` at `pc` becomes one
/// [`Instr::IAdvance`] (and `Nop`s), provided nothing else enters between
/// the branch and `L`.
fn fuse_advance(code: &mut [Instr], at: &[At], pc: usize, stats: &mut OptStats) {
    let Instr::ICmpBranch { op, lhs, rhs, target } = code[pc] else { return };
    let Some(guarded) = code.get(pc + 1..target as usize) else { return };
    if at[pc + 1..target as usize].iter().any(|at| at.target) {
        return;
    }
    let (mut stmts, mut advance) = (0u32, None);
    for instr in guarded {
        match *instr {
            Instr::Nop => {}
            Instr::BumpStmt if advance.is_none() => stmts += 1,
            Instr::IArithImm { op: BinOp::Add, dst, lhs, imm }
                if dst == lhs && advance.is_none() =>
            {
                advance = Some((dst, imm))
            }
            _ => return,
        }
    }
    let Some((reg, by)) = advance else { return };
    code[pc] = Instr::IAdvance { op, lhs, rhs, reg, by, stmts };
    code[pc + 1..target as usize].fill(Instr::Nop);
    stats.advances_predicated += 1;
}

/// If `pc` is the head of a typed loop whose back edge returns straight to
/// it, make the back edge the loop's bottom test.
fn rotate(code: &mut [Instr], pc: usize, pins: &mut Pins, stats: &mut OptStats) {
    let head = code[pc];
    let (Instr::IWhileCmp { end, .. }
    | Instr::IWhileCmpImm { end, .. }
    | Instr::IForTest { end, .. }) = head
    else {
        return;
    };
    let Some(back_edge) = (end as usize).checked_sub(1).and_then(|at| code.get_mut(at)) else {
        return;
    };
    let body = pc as u32 + 1;
    *back_edge = match (head, *back_edge) {
        (Instr::IWhileCmp { op, lhs, rhs, .. }, Instr::Jump { target })
            if target as usize == pc =>
        {
            Instr::IWhileNext { op, lhs, rhs, body }
        }
        (Instr::IWhileCmpImm { op, lhs, imm, .. }, Instr::Jump { target })
            if target as usize == pc =>
        {
            Instr::IWhileNext { op, lhs, rhs: pins.reg(false, imm as u64), body }
        }
        (Instr::IForTest { counter, hi, var, .. }, Instr::ForStep { counter: stepped, test })
            if test as usize == pc && stepped == counter =>
        {
            Instr::IForNext { counter, hi, var, body }
        }
        _ => return,
    };
    stats.loops_rotated += 1;
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::config::ExecConfig;
    use crate::error::RuntimeError;
    use crate::expr::Expr;
    use crate::interp::Interpreter;
    use crate::opt::irgen::{run_bounded, IrGen};
    use crate::opt::{
        finalize, optimize_and_lower, peephole, typing, vectorize, verify_bytecode, ForwardPass,
        OptLevel, PassCtx, PassManager, ReprRef, ValidationLevel,
    };
    use crate::stmt::Stmt;
    use crate::var::{Names, Var};
    use crate::vm::{Vm, Watch};

    type Kernel = (Vec<Stmt>, Names, BufferSet);

    /// The pipeline up to this pass: fused, typed, vectorized.
    fn typed(stmts: &[Stmt], names: &Names, bufs: &BufferSet) -> Program {
        let raw = Program::compile(stmts, names);
        let fused = peephole(&raw, &mut OptStats::default());
        let typed = typing::specialize_checked(&fused, bufs).0;
        vectorize(&typed, &mut OptStats::default())
    }

    /// The two-finger merge of §6.1 over one `while` whose condition is a
    /// single comparison (so the loop rotates), each finger advanced by the
    /// stepper's `if idx[p] == step_stop { p += 1 }`, inside a counted loop
    /// that repeats it.  Both lists end in a sentinel past `stop`.
    fn stepper_merge() -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let a_idx = bufs.add("a_idx", Buffer::I64(vec![1, 4, 5, 9, 12, 13, 99].into()));
        let a_val = bufs.add("a_val", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0].into()));
        let b_idx = bufs.add("b_idx", Buffer::I64(vec![0, 4, 9, 10, 13, 99].into()));
        let b_val = bufs.add("b_val", Buffer::F64(vec![0.5, 0.25, 2.0, 8.0, 4.0, 0.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0, 0.0].into()));
        let [r, p, q, start, stride, stride_2, stop] =
            ["r", "p", "q", "step_start", "stride", "stride_2", "step_stop"]
                .map(|name| names.fresh(name));
        let v = Expr::Var;
        let advance = |finger: Var, at: Var| {
            Stmt::if_then(
                Expr::eq(v(at), v(stop)),
                vec![Stmt::Assign { var: finger, value: Expr::add(v(finger), Expr::int(1)) }],
            )
        };
        let merge = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: q, init: Expr::int(0) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::le(v(start), Expr::int(13)),
                body: vec![
                    Stmt::Let { var: stride, init: Expr::load(a_idx, v(p)) },
                    Stmt::Let { var: stride_2, init: Expr::load(b_idx, v(q)) },
                    Stmt::Let { var: stop, init: Expr::binary(BinOp::Min, v(stride), v(stride_2)) },
                    Stmt::if_then(
                        Expr::eq(v(stride), v(stride_2)),
                        vec![Stmt::Store {
                            buf: out,
                            index: v(r),
                            value: Expr::mul(Expr::load(a_val, v(p)), Expr::load(b_val, v(q))),
                            reduce: Some(BinOp::Add),
                        }],
                    ),
                    advance(p, stride),
                    advance(q, stride_2),
                    Stmt::Assign { var: start, value: Expr::add(v(stop), Expr::int(1)) },
                ],
            },
        ];
        (vec![Stmt::For { var: r, lo: Expr::int(0), hi: Expr::int(1), body: merge }], names, bufs)
    }

    fn outcome(r: &Result<(), RuntimeError>) -> String {
        format!("{r:?}")
    }

    /// `level` under full validation, everything else at its default.
    fn full(opt: OptLevel) -> ExecConfig {
        ExecConfig { opt, validation: ValidationLevel::Full, ..ExecConfig::default() }
    }

    /// The kernel at `level`: the IR the tree-walker runs and the bytecode
    /// the VM runs, compiled under full validation.
    fn lowered(kernel: &Kernel, level: OptLevel) -> (Vec<Stmt>, Names, Program) {
        let (stmts, names, bufs) = kernel;
        let mut names = names.clone();
        let out = optimize_and_lower(stmts, &mut names, bufs, &full(level))
            .expect("the kernel compiles under full validation");
        (out.code.unwrap_or_else(|| stmts.clone()), names, out.program)
    }

    #[test]
    fn the_stepper_merge_loop_rotates_and_advances_without_a_branch() {
        let (_, _, program) = lowered(&stepper_merge(), OptLevel::Default);
        let count = |pred: fn(&Instr) -> bool| program.code().iter().filter(|i| pred(i)).count();
        assert_eq!(count(|i| matches!(i, Instr::IAdvance { .. })), 2, "{}", program.disasm());
        assert_eq!(count(|i| matches!(i, Instr::IWhileNext { .. })), 1, "{}", program.disasm());
        assert_eq!(count(|i| matches!(i, Instr::IForNext { .. })), 1, "{}", program.disasm());
        let leftovers = |i: &Instr| {
            matches!(i, Instr::Jump { .. } | Instr::ForStep { .. } | Instr::IMov { .. })
        };
        assert_eq!(count(leftovers), 0, "{}", program.disasm());
        // Untyped, the pass does not run and the loops keep their back edges.
        let (stmts, names, bufs) = stepper_merge();
        let untyped = ExecConfig { typed: false, ..full(OptLevel::Default) };
        let untyped = optimize_and_lower(&stmts, &mut names.clone(), &bufs, &untyped)
            .expect("compiles")
            .program;
        assert!(untyped.code().iter().all(|i| i.is_loop_edge() || !leftovers_of_forward(i)));
        assert!(untyped.code().iter().any(|i| matches!(i, Instr::ForStep { .. })));
    }

    fn leftovers_of_forward(i: &Instr) -> bool {
        matches!(i, Instr::IAdvance { .. } | Instr::IWhileNext { .. } | Instr::IForNext { .. })
    }

    /// Every step budget from 0 to the full run, at every level: the VM
    /// stops where the tree-walker stops, on the same statement — inside a
    /// predicated advance and on a rotated back edge included.
    #[test]
    fn every_step_budget_trips_on_the_tree_walkers_statement_at_every_level() {
        let kernel = stepper_merge();
        for level in OptLevel::all() {
            let (code, names, program) = lowered(&kernel, level);
            let mut full = Interpreter::new(&names);
            full.run(&code, &mut kernel.2.clone()).expect("the kernel runs");
            let total = full.stats().stmts;
            assert!(total > 100, "{level}: {total} statements");
            for budget in 0..=total {
                let mut interp = Interpreter::new(&names).with_step_budget(budget);
                let (mut tree_bufs, mut vm_bufs) = (kernel.2.clone(), kernel.2.clone());
                let expect = interp.run(&code, &mut tree_bufs);
                assert_eq!(expect.is_ok(), budget == total, "{level} at budget {budget}");
                let mut vm = Vm::new(&program).with_step_budget(budget);
                let got = vm.run(&program, &mut vm_bufs);
                assert_eq!(outcome(&got), outcome(&expect), "{level} at budget {budget}");
                assert_eq!(vm.stats(), interp.stats(), "{level} at budget {budget}");
                assert_eq!(
                    vm_bufs.get(crate::buffer::BufId(4)),
                    tree_bufs.get(crate::buffer::BufId(4))
                );
            }
        }
    }

    /// An injected fault at every statement of the run, at every level: both
    /// engines panic with the same message having counted the same
    /// statements and done the same work.
    #[test]
    fn an_injected_fault_trips_on_the_same_statement_on_both_engines_at_every_level() {
        let kernel = stepper_merge();
        for level in OptLevel::all() {
            let (code, names, program) = lowered(&kernel, level);
            let mut full = Interpreter::new(&names);
            full.run(&code, &mut kernel.2.clone()).expect("the kernel runs");
            for at in 1..=full.stats().stmts {
                let watch = Watch::default().with_fault_at_stmt(at);
                let mut interp = Interpreter::new(&names);
                interp.set_watch(Some(watch.clone()));
                let panic = catch_unwind(AssertUnwindSafe(|| {
                    let _ = interp.run(&code, &mut kernel.2.clone());
                }))
                .expect_err("the tree-walker reaches the injected fault");
                let message = panic.downcast_ref::<String>().expect("a formatted panic").clone();
                let mut vm = Vm::new(&program);
                vm.set_watch(Some(watch));
                let panic = catch_unwind(AssertUnwindSafe(|| {
                    let _ = vm.run(&program, &mut kernel.2.clone());
                }))
                .expect_err("the VM reaches the injected fault");
                assert_eq!(panic.downcast_ref::<String>(), Some(&message), "{level}");
                assert_eq!(vm.stats(), interp.stats(), "{level}: fault at statement {at}");
            }
        }
    }

    /// A rotated `for` leaves its variable and its hidden counter exactly
    /// as the step-and-head-test pair does, on zero, one and many trips.
    #[test]
    fn a_rotated_for_leaves_its_variable_and_counter_as_the_unrotated_loop_does() {
        for (lo, hi) in [(3, 2), (2, 2), (0, 5), (-2, 0)] {
            let mut names = Names::new();
            let mut bufs = BufferSet::new();
            let out = bufs.add("out", Buffer::I64(vec![].into()));
            let i = names.fresh("i");
            let stmts = vec![Stmt::For {
                var: i,
                lo: Expr::int(lo),
                hi: Expr::int(hi),
                body: vec![Stmt::Append { buf: out, value: Expr::Var(i) }],
            }];
            let unrotated = typed(&stmts, &names, &bufs);
            let rotated = forward(&unrotated, &mut OptStats::default());
            verify_bytecode(&rotated, &bufs).expect("the rotated program verifies");
            let head = |p: &Program| {
                p.code()
                    .iter()
                    .find_map(|instr| match *instr {
                        Instr::IForTest { counter, .. } => Some(counter),
                        _ => None,
                    })
                    .expect("a typed counted loop")
            };
            assert!(rotated.code().iter().any(|i| matches!(i, Instr::IForNext { .. })));
            assert!(unrotated.code().iter().any(|i| matches!(i, Instr::ForStep { .. })));
            let run = |p: &Program| {
                let mut bufs = bufs.clone();
                let mut vm = Vm::new(p);
                vm.run(p, &mut bufs).expect("runs");
                (vm.var_value(i), vm.ints[head(p).index()], vm.stats(), bufs)
            };
            let (var, counter, stats, appended) = run(&unrotated);
            let (rotated_var, rotated_counter, rotated_stats, rotated_appended) = run(&rotated);
            assert_eq!(rotated_var, var, "for {lo}..={hi}");
            assert_eq!(rotated_counter, counter, "for {lo}..={hi}");
            assert_eq!(counter, hi.max(lo - 1) + 1, "one past the last iteration");
            assert_eq!(rotated_stats, stats, "for {lo}..={hi}");
            assert_eq!(rotated_appended.get(out), appended.get(out), "for {lo}..={hi}");
        }
    }

    /// A literal is pinned by its bits: `-0.0` and `0.0` get a register each.
    #[test]
    fn pinned_literals_are_told_apart_bit_for_bit() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::F64(vec![1.0; 3].into()));
        let i = names.fresh("i");
        let store = |at: i64, value: f64| Stmt::Store {
            buf: out,
            index: Expr::int(at),
            value: Expr::float(value),
            reduce: None,
        };
        // Inside a loop over a variable index, so that the stores are not
        // folded into a fill.
        let stmts = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(0),
            body: vec![store(0, 0.0), store(1, -0.0), store(2, 0.0)],
        }];
        let mut stats = OptStats::default();
        let program = finalize(&forward(&typed(&stmts, &names, &bufs), &mut stats));
        verify_bytecode(&program, &bufs).expect("verifies");
        // 0.0, -0.0, and the indices 0 (shared with the bounds), 1, 2.
        assert_eq!(stats.literals_pinned, 5, "{}", program.disasm());
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).expect("runs");
        let Buffer::F64(stored) = bufs.get(out) else { panic!("an f64 buffer") };
        let bits: Vec<u64> = stored.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [0.0f64.to_bits(), (-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    /// A missing-test typing decided leaves no jump and no dead fill value
    /// behind, and the copies on either side of it forward across.
    #[test]
    fn a_decided_missing_test_and_its_fill_value_are_gone() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let (i, at) = (names.fresh("i"), names.fresh("at"));
        let stmts = vec![
            Stmt::Let { var: at, init: Expr::int(0) },
            Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(2),
                body: vec![Stmt::Store {
                    buf: out,
                    index: Expr::Var(at),
                    value: Expr::coalesce(vec![Expr::load(x, Expr::Var(i)), Expr::float(0.0)]),
                    reduce: Some(BinOp::Add),
                }],
            },
        ];
        let before = typed(&stmts, &names, &bufs);
        assert!(
            before.code().iter().any(|i| matches!(i, Instr::Jump { .. })),
            "{}",
            before.disasm()
        );
        let program = finalize(&forward(&before, &mut OptStats::default()));
        verify_bytecode(&program, &bufs).expect("verifies");
        let body: Vec<&Instr> = program
            .code()
            .iter()
            .skip_while(|i| !matches!(i, Instr::IForTest { .. }))
            .skip(1)
            .collect();
        // Load, accumulate (at `at`, read in place), bottom test.
        assert_eq!(body.len(), 3, "{}", program.disasm());
        assert!(
            matches!(body[1], Instr::StoreF64 { idx, .. } if idx.index() == at.index()),
            "{}",
            program.disasm()
        );
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).expect("runs");
        assert_eq!(bufs.get(out), &Buffer::F64(vec![6.0].into()));
    }

    /// The pass alone over seeded structured IR (nested `for` / `while` /
    /// `if`, zero-trip and one-trip loops, `missing` paths, unbound reads):
    /// its output verifies, runs like its input on the VM — value or error,
    /// buffers, counters — before and after `finalize`, and like the IR on
    /// the tree-walker; where the program terminates, the pass manager's
    /// full validation accepts the pass.
    #[test]
    fn random_structured_ir_forwards_to_a_program_that_runs_like_its_input_on_both_engines() {
        let mut totals = OptStats::default();
        let mut validated = 0;
        for seed in 0..400u64 {
            let (mut gen, names, bufs) = IrGen::new(seed);
            let prog = gen.program();
            let input = typed(&prog, &names, &bufs);
            let forwarded = forward(&input, &mut totals);
            let finalized = finalize(&forwarded);
            let context =
                || format!("seed {seed}\n{}\nforwarded:\n{}", input.disasm(), forwarded.disasm());
            // (A wild program may append a float to a `u8` buffer, which
            // typing selects `FAppend` for and the verifier refuses.)
            let verifies = verify_bytecode(&input, &bufs).is_ok();
            if verifies {
                for p in [&forwarded, &finalized] {
                    verify_bytecode(p, &bufs).unwrap_or_else(|e| panic!("{e}\n{}", context()));
                }
            }
            let (expected, expected_bufs, expected_stats) = run_bounded(&input, &bufs);
            let mut tree_bufs = bufs.clone();
            let mut interp = Interpreter::new(&names).with_step_budget(300);
            let tree = format!("{:?}", interp.run(&prog, &mut tree_bufs));
            assert_eq!(tree, expected, "{}", context());
            // (The engines agree on the work of a run that completes; a
            // faulting store is counted by the VM alone.)
            assert_eq!(interp.stats().stmts, expected_stats.stmts, "{}", context());
            if tree == "Ok(())" {
                assert_eq!(interp.stats(), expected_stats, "{}", context());
            }
            for p in [&forwarded, &finalized] {
                let (outcome, got_bufs, stats) = run_bounded(p, &bufs);
                assert_eq!(outcome, expected, "{}", context());
                assert_eq!(stats, expected_stats, "{}", context());
                for (id, name, buf) in expected_bufs.iter() {
                    // By rendering: a NaN must compare equal to itself.
                    let (want, got) = (format!("{buf:?}"), format!("{:?}", got_bufs.get(id)));
                    assert_eq!(got, want, "buffer {name}: {}", context());
                    if tree == "Ok(())" {
                        assert_eq!(format!("{:?}", tree_bufs.get(id)), want, "buffer {name}");
                    }
                }
            }
            // Witness runs have a budget of their own, far beyond a loop
            // that does not terminate.
            let terminates = crate::opt::pass::synthesize_witnesses(&bufs).iter().all(|w| {
                let mut vm = Vm::new(&input).with_step_budget(20_000);
                !matches!(
                    vm.run(&input, &mut w.clone()),
                    Err(RuntimeError::StepBudgetExceeded { .. })
                )
            });
            if terminates && verifies {
                let (mut names, mut stats) = (names.clone(), OptStats::default());
                let mut ctx = PassCtx { names: &mut names, bufs: Some(&bufs), stats: &mut stats };
                let mut manager = PassManager::new(ValidationLevel::Full);
                if let Err(e) = manager.run_pass(&ForwardPass, ReprRef::Bytecode(&input), &mut ctx)
                {
                    panic!("{e}\n{}", context());
                }
                validated += 1;
            }
        }
        // The generator must exercise what the test is there to check.
        assert!(totals.copies_forwarded > 300, "{totals:?}");
        assert!(totals.literals_pinned > 800, "{totals:?}");
        assert!(totals.loops_rotated > 300, "{totals:?}");
        assert!(totals.advances_predicated > 0, "{totals:?}");
        assert!(validated > 200, "only {validated} programs went through the pass manager");
    }
}
