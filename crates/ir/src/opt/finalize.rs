//! The last rewrite before execution: take bookkeeping off the dispatch
//! stream.
//!
//! After fusion and typing, a third to a half of what the VM dispatches
//! in a merge loop computes nothing: one [`Instr::BumpStmt`] per IR
//! statement, the [`Instr::Nop`]s the 1:1 typing rewrite leaves behind,
//! and `jump → jump` hops where one structured construct ends at the end
//! of another.  This pass removes all three in one linear scan:
//!
//! * each `BumpStmt` is folded into [`Program::stmt_bump`] for the next
//!   surviving instruction, which the VM accounts before executing it —
//!   same counter, same step-budget and [`crate::vm::Watch`] checks, no
//!   dispatch.  A count never crosses a join point: when the next
//!   instruction is a jump target (in practice a loop head, re-entered
//!   by its back edge) the pending statements stay one explicit
//!   `BumpStmt` in front of it, so only the fall-through edge accounts
//!   them.  The same holds in front of a vectorized kernel op, whose line
//!   in `disasm` and per-pc `profile` count stay the bulk alone
//!   ([`Program::validate`] rejects a count on one).  A `BumpStmt` that
//!   *is* a jump target (the statement after an `if`, a loop exit) folds
//!   forward like any other and every edge that reached it now reaches
//!   its carrier;
//! * `Nop`s are deleted;
//! * every jump or conditional branch whose target is an unconditional
//!   [`Instr::Jump`] is pointed at that jump's own destination (loop
//!   heads and back edges keep theirs, which delimit the loop for
//!   `verify_bytecode`'s kernel-op placement rules).  A jump
//!   that carries a folded count is never bypassed: the statements on it
//!   belong to every edge that reaches it.
//!
//! Every target is remapped once, through the old-pc → new-pc map of the
//! scan.  [`crate::interp::ExecStats`] and every fault are exactly those
//! of the input program, so the pass runs under
//! [`super::StatsContract::Exact`].

use crate::bytecode::{edge_table, jump_targets_of, Instr, Program, NO_EDGE};

/// Fold statement accounting into the side table, delete no-ops and
/// thread jump chains.  `p` must not have been finalized already.
pub fn finalize(p: &Program) -> Program {
    debug_assert!(p.stmt_bump.iter().all(|&n| n == 0), "finalizing a finalized program");
    let edges = edge_table(&p.code);
    let targets = jump_targets_of(&edges);
    let mut out = Emitted::with_capacity(p.code.len());
    // `map[old_pc]` = new pc of the instruction control reaches when it
    // arrives at `old_pc`: a deleted instruction maps to whatever is
    // emitted next.
    let mut map: Vec<u32> = Vec::with_capacity(p.code.len() + 1);
    // Statements of deleted `BumpStmt`s not yet attached to anything.
    let mut pending = 0u32;
    for (pc, instr) in p.code.iter().enumerate() {
        // Keep `pending` as one explicit `BumpStmt` carrying the rest.
        if pending > 0 && (targets[pc] || instr.vop_loop_regs().is_some()) {
            out.push(Instr::BumpStmt, std::mem::take(&mut pending) - 1, NO_EDGE);
        }
        map.push(out.code.len() as u32);
        match instr {
            Instr::BumpStmt => pending += 1,
            Instr::Nop => {}
            _ => out.push(*instr, std::mem::take(&mut pending), edges[pc]),
        }
    }
    if pending > 0 {
        out.push(Instr::BumpStmt, pending - 1, NO_EDGE);
    }
    let Emitted { mut code, stmt_bump, edges: emitted_edges } = out;
    // A target may be one past the last instruction (loop ends).
    map.push(code.len() as u32);

    // Point every jump at the new pc of its target, and thread branches
    // through unconditional jumps.  A loop head's exit and a back edge stay
    // as they are: they delimit the loop's extent, which `verify_bytecode`
    // reads off them (a kernel op's body is `head + 1 .. exit`, a merge
    // run-ahead's bottom test is `exit - 1`).  So does a branch into a jump
    // that carries statements (a `BumpStmt` that was a branch target,
    // folded onto the jump behind it): going around it would lose them on
    // that path.
    for pc in (0..code.len()).filter(|&pc| emitted_edges[pc] != NO_EDGE) {
        let mut target = map[emitted_edges[pc] as usize];
        if !code[pc].is_loop_edge() {
            // The hop bound only matters for a (never generated) jump cycle.
            for _ in 0..code.len() {
                match code.get(target as usize) {
                    Some(Instr::Jump { .. }) if stmt_bump[target as usize] == 0 => {
                        target = map[emitted_edges[target as usize] as usize]
                    }
                    _ => break,
                }
            }
        }
        *code[pc].target_mut().expect("an edge is a target") = target;
    }

    Program {
        code,
        stmt_bump,
        consts: p.consts.clone(),
        steps: p.steps.clone(),
        var_names: p.var_names.clone(),
        num_regs: p.num_regs,
        pretags: p.pretags.clone(),
    }
}

/// The instructions emitted so far, each with its folded statement count
/// and its (old) jump target.
struct Emitted {
    code: Vec<Instr>,
    stmt_bump: Vec<u32>,
    edges: Vec<u32>,
}

impl Emitted {
    fn with_capacity(n: usize) -> Emitted {
        Emitted {
            code: Vec::with_capacity(n),
            stmt_bump: Vec::with_capacity(n),
            edges: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, instr: Instr, stmts: u32, edge: u32) {
        self.code.push(instr);
        self.stmt_bump.push(stmts);
        self.edges.push(edge);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use super::*;
    use crate::buffer::{BufId, Buffer, BufferSet};
    use crate::config::ExecConfig;
    use crate::error::RuntimeError;
    use crate::expr::{BinOp, Expr};
    use crate::interp::Interpreter;
    use crate::opt::{optimize_and_lower, peephole, typing, OptStats, ValidationLevel};
    use crate::stmt::Stmt;
    use crate::var::Names;
    use crate::vm::{Vm, Watch};

    type Kernel = (Vec<Stmt>, Names, BufferSet);

    /// Two sorted coordinate lists with values, and a scalar accumulator.
    fn merge_inputs(bufs: &mut BufferSet) -> [BufId; 5] {
        [
            bufs.add("a_idx", Buffer::I64(vec![1, 4, 5, 9, 12, 13].into())),
            bufs.add("a_val", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0].into())),
            bufs.add("b_idx", Buffer::I64(vec![0, 4, 9, 10, 13].into())),
            bufs.add("b_val", Buffer::F64(vec![0.5, 0.25, 2.0, 8.0, 4.0].into())),
            bufs.add("out", Buffer::F64(vec![0.0].into())),
        ]
    }

    /// `out[0] += a_val[p] * b_val[q]` wherever the coordinates meet.
    fn accumulate(p: crate::var::Var, q: crate::var::Var, b: &[BufId; 5]) -> Stmt {
        Stmt::Store {
            buf: b[4],
            index: Expr::int(0),
            value: Expr::mul(Expr::load(b[1], Expr::Var(p)), Expr::load(b[3], Expr::Var(q))),
            reduce: Some(BinOp::Add),
        }
    }

    /// The two-finger merge of Fig. 1: both lists advance one step at a time.
    fn walk_merge() -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let b = merge_inputs(&mut bufs);
        let (p, q) = (names.fresh("p"), names.fresh("q"));
        let (ia, ib) = (names.fresh("ia"), names.fresh("ib"));
        let bump = |v| Stmt::Assign { var: v, value: Expr::add(Expr::Var(v), Expr::int(1)) };
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: q, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::binary(
                    BinOp::And,
                    Expr::lt(Expr::Var(p), Expr::int(6)),
                    Expr::lt(Expr::Var(q), Expr::int(5)),
                ),
                body: vec![
                    Stmt::Let { var: ia, init: Expr::load(b[0], Expr::Var(p)) },
                    Stmt::Let { var: ib, init: Expr::load(b[2], Expr::Var(q)) },
                    Stmt::if_then(
                        Expr::eq(Expr::Var(ia), Expr::Var(ib)),
                        vec![accumulate(p, q, &b)],
                    ),
                    Stmt::if_then(Expr::le(Expr::Var(ia), Expr::Var(ib)), vec![bump(p)]),
                    Stmt::if_then(Expr::le(Expr::Var(ib), Expr::Var(ia)), vec![bump(q)]),
                ],
            },
        ];
        (stmts, names, bufs)
    }

    /// The leader/follower merge of Fig. 7: `a` leads, `b` seeks to it.
    fn gallop_merge() -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let b = merge_inputs(&mut bufs);
        let (p, q, ia) = (names.fresh("p"), names.fresh("q"), names.fresh("ia"));
        let last_b = Expr::sub(Expr::int(5), Expr::int(1));
        let stmts = vec![
            Stmt::Let { var: q, init: Expr::int(0) },
            Stmt::For {
                var: p,
                lo: Expr::int(0),
                hi: Expr::sub(Expr::int(6), Expr::int(1)),
                body: vec![
                    Stmt::Let { var: ia, init: Expr::load(b[0], Expr::Var(p)) },
                    Stmt::Assign {
                        var: q,
                        value: Expr::search(
                            b[2],
                            Expr::Var(q),
                            last_b.clone(),
                            Expr::Var(ia),
                            false,
                        ),
                    },
                    Stmt::If {
                        cond: Expr::lt(Expr::Var(q), Expr::int(5)),
                        then_branch: vec![Stmt::if_then(
                            Expr::eq(Expr::load(b[2], Expr::Var(q)), Expr::Var(ia)),
                            vec![accumulate(p, q, &b)],
                        )],
                        else_branch: vec![Stmt::Comment("b is exhausted".into())],
                    },
                ],
            },
        ];
        (stmts, names, bufs)
    }

    /// Statements that are branch targets and sit directly in front of an
    /// unconditional jump: a comment closing a `while` body after an `if`
    /// (the jump is the back edge), and one closing a then-branch after a
    /// nested `if` (the jump skips the else-branch).  Their counts fold
    /// onto the jump, so the branch into them must keep landing on it.
    fn tail_statements() -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let b = merge_inputs(&mut bufs);
        let p = names.fresh("p");
        let hit = |at| Expr::eq(Expr::Var(p), Expr::int(at));
        let mark = |v: f64| Stmt::Store {
            buf: b[4],
            index: Expr::int(0),
            value: Expr::float(v),
            reduce: Some(BinOp::Add),
        };
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(6)),
                body: vec![
                    Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) },
                    Stmt::If {
                        cond: Expr::le(Expr::Var(p), Expr::int(4)),
                        then_branch: vec![
                            Stmt::if_then(hit(2), vec![mark(1.0)]),
                            Stmt::Comment("end of the then-branch".into()),
                        ],
                        else_branch: vec![mark(0.5)],
                    },
                    Stmt::if_then(hit(3), vec![mark(2.0)]),
                    Stmt::Comment("end of the body".into()),
                ],
            },
        ];
        (stmts, names, bufs)
    }

    /// The kernels of the sweeps below; the third assembles a sparse
    /// output (appends and fiber ends).
    fn kernels() -> [(&'static str, Kernel); 4] {
        [
            ("walk merge", walk_merge()),
            ("gallop merge", gallop_merge()),
            ("sparse-output append", crate::opt::mutation_tests::known_good_kernel()),
            ("tail statements", tail_statements()),
        ]
    }

    /// The optimised IR (what the tree-walker runs) with the unfinalized
    /// and the finalized bytecode of the same kernel.
    fn lowered(kernel: &Kernel) -> (Vec<Stmt>, Names, Program, Program) {
        let (stmts, names, bufs) = kernel;
        let mut names = names.clone();
        let config = ExecConfig { validation: ValidationLevel::Full, ..ExecConfig::default() };
        let out = optimize_and_lower(stmts, &mut names, bufs, &config)
            .expect("the kernel compiles under full validation");
        assert_eq!(out.reports.last().map(|r| r.name), Some("finalize"), "{:?}", out.reports);
        let code = out.code.expect("the IR passes ran");
        let explicit = Program::compile(&code, &names);
        assert!(out.program.code().len() < explicit.code().len());
        assert!(out.program.stmt_bump().iter().any(|&n| n > 0), "{}", out.program.disasm());
        (code, names, explicit, out.program)
    }

    fn kind(r: &Result<(), RuntimeError>) -> String {
        match r {
            Ok(()) => "ok".into(),
            Err(e) => format!("{e:?}"),
        }
    }

    /// Every step budget from 0 to the full run: both bytecode encodings
    /// agree with the tree-walker on the outcome and on the statement
    /// count it stopped at.
    #[test]
    fn every_step_budget_trips_where_the_tree_walker_trips() {
        for (name, kernel) in kernels() {
            let (code, names, explicit, finalized) = lowered(&kernel);
            let mut full = Interpreter::new(&names);
            full.run(&code, &mut kernel.2.clone()).expect("the kernel runs");
            let total = full.stats().stmts;
            assert!(total > 10, "{name}: {total} statements");
            for budget in 0..=total {
                let mut interp = Interpreter::new(&names).with_step_budget(budget);
                let expect = interp.run(&code, &mut kernel.2.clone());
                assert_eq!(expect.is_ok(), budget == total, "{name} at budget {budget}");
                for program in [&explicit, &finalized] {
                    let mut vm = Vm::new(program).with_step_budget(budget);
                    let got = vm.run(program, &mut kernel.2.clone());
                    assert_eq!(kind(&got), kind(&expect), "{name} at budget {budget}");
                    assert_eq!(vm.stats().stmts, interp.stats().stmts, "{name} at budget {budget}");
                }
            }
        }
    }

    /// An injected fault panics at the same statement, and a cancellation
    /// flag raised before the run trips at the first one, whichever way
    /// the statements are encoded.
    #[test]
    fn injected_faults_and_cancellation_trip_at_the_same_statement() {
        for (name, kernel) in kernels() {
            let (code, names, explicit, finalized) = lowered(&kernel);
            for at in [1, 2, 7, 11] {
                let watch = Watch::default().with_fault_at_stmt(at);
                let mut interp = Interpreter::new(&names);
                interp.set_watch(Some(watch.clone()));
                let panic = catch_unwind(AssertUnwindSafe(|| {
                    let _ = interp.run(&code, &mut kernel.2.clone());
                }))
                .expect_err("the tree-walker reaches the injected fault");
                let message = panic.downcast_ref::<String>().expect("a formatted panic").clone();
                assert_eq!(interp.stats().stmts, at, "{name}");
                for program in [&explicit, &finalized] {
                    let mut vm = Vm::new(program);
                    vm.set_watch(Some(watch.clone()));
                    let panic = catch_unwind(AssertUnwindSafe(|| {
                        let _ = vm.run(program, &mut kernel.2.clone());
                    }))
                    .expect_err("the VM reaches the injected fault");
                    assert_eq!(panic.downcast_ref::<String>(), Some(&message), "{name}");
                    assert_eq!(vm.stats().stmts, at, "{name} fault at {at}");
                }
            }
            let raised = Watch::cancelled_by(Arc::new(AtomicBool::new(true)), 7);
            for program in [&explicit, &finalized] {
                let mut vm = Vm::new(program);
                vm.set_watch(Some(raised.clone()));
                let got = vm.run(program, &mut kernel.2.clone());
                assert_eq!(got, Err(RuntimeError::Deadline { ms: 7 }), "{name}");
                assert_eq!(vm.stats().stmts, 1, "{name}: cancellation is seen at statement 1");
            }
        }
    }

    /// The finalized form of the reducing `for` loop, pinned: the loop
    /// statement's count rides on the first bound, the body statement's on
    /// the load, the discharged coercions are gone, and the loop head
    /// carries nothing.
    #[test]
    fn golden_disasm_of_the_finalized_reducing_for_loop() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0].into()));
        let acc = bufs.add("acc", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let stmts = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::sub(Expr::int(4), Expr::int(1)),
            body: vec![Stmt::Store {
                buf: acc,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let raw = Program::compile(&stmts, &names);
        let fused = peephole(&raw, &mut OptStats::default());
        let typed = typing::specialize_checked(&fused, &bufs).0;
        let finalized = finalize(&typed);
        crate::opt::verify_bytecode(&finalized, &bufs).expect("the finalized program verifies");
        let expected = "   0: t0 = const.i 0  ; +1 stmt
   1: t2 = const.i 4
   2: t1 = t2 - 1 (i64)
   3: for i = t0 while <= t1 (i64) else -> 8
   4: t2 = const.i 0  ; +1 stmt
   5: t3 = b0[i] (f64)
   6: b1[t2] += t3 (f64)
   7: step t0 -> 3
";
        assert_eq!(finalized.disasm(), expected, "typed input was:\n{}", typed.disasm());
    }

    /// A statement in front of a `while` head stays an explicit
    /// instruction (the back edge must not account it again), trailing
    /// statements with nothing to ride on are kept, and a branch into a
    /// jump is pointed at the jump's destination unless the jump carries
    /// statements.
    #[test]
    fn loop_heads_keep_their_statement_and_jump_chains_are_threaded() {
        let (code, names, explicit, finalized) = lowered(&walk_merge());
        let _ = (code, names);
        let heads: Vec<usize> = finalized
            .code()
            .iter()
            .enumerate()
            .filter_map(|(pc, i)| match i.target() {
                Some(t) if t as usize <= pc => Some(t as usize),
                _ => None,
            })
            .collect();
        assert!(!heads.is_empty(), "{}", finalized.disasm());
        for head in heads {
            assert_eq!(finalized.stmt_bump()[head], 0, "{}", finalized.disasm());
            assert_eq!(finalized.code()[head - 1], Instr::BumpStmt, "{}", finalized.disasm());
        }
        assert!(!lands_on_a_jump(&finalized, false), "{}", finalized.disasm());
        assert!(!finalized.code().contains(&Instr::Nop));
        let explicit_stmts = explicit.code().iter().filter(|i| **i == Instr::BumpStmt).count();
        let folded: u32 = finalized.stmt_bump().iter().sum();
        // An explicit `stmt` counts one, a predicated advance what it guards.
        let kept: u32 = finalized
            .code()
            .iter()
            .map(|i| match *i {
                Instr::BumpStmt => 1,
                Instr::IAdvance { stmts, .. } => stmts,
                _ => 0,
            })
            .sum();
        assert_eq!((folded + kept) as usize, explicit_stmts, "every statement is still accounted");

        // The tail-statement kernel has both shapes that must not be threaded.
        let (_, _, _, finalized) = lowered(&tail_statements());
        assert!(lands_on_a_jump(&finalized, true), "{}", finalized.disasm());
        assert!(!lands_on_a_jump(&finalized, false), "{}", finalized.disasm());
    }

    /// Whether some branch other than a loop edge targets an unconditional
    /// jump that does (`carrying`) or does not carry folded statements.
    fn lands_on_a_jump(p: &Program, carrying: bool) -> bool {
        p.code().iter().filter(|i| !i.is_loop_edge()).filter_map(|i| i.target()).any(|t| {
            matches!(p.code().get(t as usize), Some(Instr::Jump { .. }))
                && (p.stmt_bump()[t as usize] > 0) == carrying
        })
    }
}
