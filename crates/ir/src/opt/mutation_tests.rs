//! Mutation tests for the translation-validated pass manager.
//!
//! Each test seeds one deliberate miscompile — as a fake [`Pass`] mutating
//! known-good IR or bytecode — and asserts the pass manager flags it with
//! the mutation's name attributed in the [`PassError`].  This is the
//! verifier's own test suite: a checker that cannot catch a planted bug
//! would silently pass every real pipeline too.

use super::*;
use crate::buffer::{Buffer, BufferSet};
use crate::bytecode::{
    Gather, Guard, Instr, MergeForm, Out, Product, Reg, Step, Term, VBase, VFill, VRhs, VScale,
};
use crate::expr::{BinOp, Expr};
use crate::value::Value;

/// A seeded miscompile: a named pass applying a fixed mutation.
struct SeededMutation {
    name: &'static str,
    mutate: fn(Repr) -> Repr,
}

impl Pass for SeededMutation {
    fn name(&self) -> &'static str {
        self.name
    }
    fn run(&self, repr: ReprRef<'_>, _ctx: &mut PassCtx<'_>) -> Repr {
        // A mutation edits a copy of the known-good input.
        (self.mutate)(match repr {
            ReprRef::Ir(stmts) => Repr::Ir(stmts.to_vec()),
            ReprRef::Bytecode(program) => Repr::Bytecode(program.clone()),
        })
    }
}

/// A known-good sparse-output kernel: walk a dense value array, append
/// coordinates and doubled values into a sparse fiber, accumulate a dense
/// sum, then close both fibers.  Exercises every effect the verifier and
/// the witness comparison reason about (Store, Append, FiberEnd).
pub(super) fn known_good_kernel() -> (Vec<Stmt>, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let x = bufs.add("x", Buffer::F64(vec![1.0, 0.5, 2.0, 0.25].into()));
    let acc = bufs.add("acc", Buffer::F64(vec![0.0].into()));
    let pos_idx = bufs.add("pos_idx", Buffer::I64(vec![0].into()));
    let pos_val = bufs.add("pos_val", Buffer::I64(vec![0].into()));
    let out_idx = bufs.add("out_idx", Buffer::I64(vec![].into()));
    let out_val = bufs.add("out_val", Buffer::F64(vec![].into()));
    let i = names.fresh("i");
    let v = names.fresh("v");
    let stmts = vec![
        Stmt::For {
            var: i,
            lo: Expr::int(0),
            // `For` bounds are inclusive.
            hi: Expr::sub(Expr::int(4), Expr::int(1)),
            body: vec![
                Stmt::Let { var: v, init: Expr::load(x, Expr::Var(i)) },
                Stmt::Append { buf: out_idx, value: Expr::Var(i) },
                Stmt::Append { buf: out_val, value: Expr::mul(Expr::Var(v), Expr::float(2.0)) },
                Stmt::Store {
                    buf: acc,
                    index: Expr::int(0),
                    value: Expr::Var(v),
                    reduce: Some(crate::expr::BinOp::Add),
                },
            ],
        },
        Stmt::FiberEnd { pos: pos_idx, data: out_idx },
        Stmt::FiberEnd { pos: pos_val, data: out_val },
    ];
    (stmts, names, bufs)
}

/// Run one seeded mutation over the known-good kernel IR at
/// [`ValidationLevel::Full`] and return the manager's verdict.
fn run_ir_mutation(mutation: &SeededMutation) -> Result<Repr, PassError> {
    run_ir_pass(known_good_kernel(), mutation)
}

/// Run one pass over a kernel's IR at [`ValidationLevel::Full`].
fn run_ir_pass(
    (stmts, mut names, bufs): (Vec<Stmt>, Names, BufferSet),
    pass: &dyn Pass,
) -> Result<Repr, PassError> {
    let mut stats = OptStats::default();
    let mut ctx = PassCtx { names: &mut names, bufs: Some(&bufs), stats: &mut stats };
    let mut manager = PassManager::new(ValidationLevel::Full);
    manager.run_pass(pass, ReprRef::Ir(&stmts), &mut ctx)
}

/// Run one seeded mutation over the known-good kernel's compiled bytecode.
fn run_bytecode_mutation(mutation: &SeededMutation) -> Result<Repr, PassError> {
    let (stmts, mut names, bufs) = known_good_kernel();
    let program = Program::compile(&stmts, &names);
    let mut stats = OptStats::default();
    let mut ctx = PassCtx { names: &mut names, bufs: Some(&bufs), stats: &mut stats };
    let mut manager = PassManager::new(ValidationLevel::Full);
    manager.run_pass(mutation, ReprRef::Bytecode(&program), &mut ctx)
}

/// A known-good *typed* dense kernel whose counted inner loop the real
/// vectorize pass fuses into a kernel op: `y[i] = x[i] * 2.0` over the
/// whole input.  Used by the bad-vectorization mutation tests below.
pub(super) fn known_good_typed_kernel() -> (Program, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    // Twelve elements so the kernel op's bulk path actually executes on
    // the validation witnesses (it declines trips under its runtime
    // minimum, falling back to the scalar loop).
    let data: Vec<f64> = (0..12).map(|k| 2.0_f64.powi(3 - k)).collect();
    let x = bufs.add("x", Buffer::F64(data.into()));
    let y = bufs.add("y", Buffer::F64(vec![0.0; 12].into()));
    let i = names.fresh("i");
    let stmts = vec![Stmt::For {
        var: i,
        lo: Expr::int(0),
        hi: Expr::int(11),
        body: vec![Stmt::Store {
            buf: y,
            index: Expr::Var(i),
            value: Expr::mul(Expr::load(x, Expr::Var(i)), Expr::float(2.0)),
            reduce: None,
        }],
    }];
    let raw = Program::compile(&stmts, &names);
    let fused = peephole(&raw, &mut OptStats::default());
    let typed = typing::specialize_checked(&fused, &bufs).0;
    (typed, names, bufs)
}

/// Run one seeded mutation over the typed dense kernel's bytecode.
fn run_typed_bytecode_mutation(mutation: &SeededMutation) -> Result<Repr, PassError> {
    run_typed_bytecode_pass(known_good_typed_kernel(), mutation)
}

/// Run one pass over a typed kernel's bytecode at [`ValidationLevel::Full`].
fn run_typed_bytecode_pass(
    (program, mut names, bufs): (Program, Names, BufferSet),
    pass: &dyn Pass,
) -> Result<Repr, PassError> {
    let mut stats = OptStats::default();
    let mut ctx = PassCtx { names: &mut names, bufs: Some(&bufs), stats: &mut stats };
    let mut manager = PassManager::new(ValidationLevel::Full);
    manager.run_pass(pass, ReprRef::Bytecode(&program), &mut ctx)
}

/// Assert that the mutation is caught and the error names it.
fn assert_caught(result: Result<Repr, PassError>, name: &'static str, detail_has: &str) {
    let err = result.expect_err("the seeded miscompile must be flagged");
    assert_eq!(err.pass, name, "the error must attribute the offending pass");
    assert!(err.detail.contains(detail_has), "`{}` should mention `{detail_has}`", err.detail);
}

#[test]
fn the_identity_pass_validates_cleanly() {
    let id = SeededMutation { name: "identity", mutate: |r| r };
    run_ir_mutation(&id).expect("the identity transform is value-exact");
    run_bytecode_mutation(&id).expect("the identity transform is value-exact");
}

#[test]
fn dropping_a_fiber_end_is_caught() {
    let m = SeededMutation {
        name: "drop-fiberend",
        mutate: |r| {
            let mut stmts = r.into_ir();
            stmts.retain(|s| !matches!(s, Stmt::FiberEnd { .. }));
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "drop-fiberend", "diverge");
}

#[test]
fn a_wrongly_folded_constant_is_caught() {
    // Simulates a constant-folding bug: `v * 2.0` "folds" to `v * 3.0`.
    let m = SeededMutation {
        name: "misfold-const",
        mutate: |r| {
            let stmts = r
                .into_ir()
                .iter()
                .map(|s| {
                    s.map_exprs(&mut |e| {
                        e.map(&mut |sub| match sub {
                            Expr::Lit(Value::Float(x)) if *x == 2.0 => Some(Expr::float(3.0)),
                            _ => None,
                        })
                    })
                })
                .collect();
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "misfold-const", "diverge");
}

#[test]
fn hoisting_a_loop_variant_load_is_caught() {
    // Simulates a LICM bug: `let v = x[i]` moves above the loop that
    // binds `i`, so the def-before-use analysis sees an undefined read.
    let m = SeededMutation {
        name: "bad-hoist",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                let hoisted = body.remove(0);
                stmts.insert(0, hoisted);
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "bad-hoist", "dominating definition");
}

/// `let p = 1; for i in 0..=3 { out[i] = p * 2; p = p + 1 }`, with a spare
/// variable for a temporary.
fn kernel_assigning_after_the_use() -> (Vec<Stmt>, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let out = bufs.add("out", Buffer::I64(vec![0; 4].into()));
    let (p, i, _spare) = (names.fresh("p"), names.fresh("i"), names.fresh("inv"));
    let stmts = vec![
        Stmt::Let { var: p, init: Expr::int(1) },
        Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![
                Stmt::Store {
                    buf: out,
                    index: Expr::Var(i),
                    value: Expr::mul(Expr::Var(p), Expr::int(2)),
                    reduce: None,
                },
                Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) },
            ],
        },
    ];
    (stmts, names, bufs)
}

#[test]
fn hoisting_what_the_loop_assigns_later_in_the_body_is_caught_and_attributed() {
    // Control: the real pass sees the assignment after the use and leaves
    // `p * 2` where it is.
    let kept = run_ir_pass(kernel_assigning_after_the_use(), &LicmPass).expect("validates");
    assert_eq!(kept.into_ir(), kernel_assigning_after_the_use().0);
    // Simulates a LICM that collects the loop's assignments only up to the
    // use: `p * 2` is evaluated once, in front of the loop.
    let m = SeededMutation {
        name: "licm",
        mutate: |r| {
            let mut stmts = r.into_ir();
            let inv = crate::var::Var(2);
            let Stmt::For { body, .. } = &mut stmts[1] else { panic!("the loop") };
            let Stmt::Store { value, .. } = &mut body[0] else { panic!("the store") };
            let init = std::mem::replace(value, Expr::Var(inv));
            stmts.insert(1, Stmt::Let { var: inv, init });
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_pass(kernel_assigning_after_the_use(), &m), "licm", "diverge");
}

#[test]
fn deleting_an_effectful_append_is_caught() {
    let m = SeededMutation {
        name: "drop-append",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                body.retain(|s| !matches!(s, Stmt::Append { .. }));
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "drop-append", "diverge");
}

#[test]
fn reordering_a_use_before_its_def_is_caught() {
    // Move the `let v = x[i]` below the append that reads `v`.
    let m = SeededMutation {
        name: "bad-schedule",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                body.swap(0, 2);
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "bad-schedule", "dominating definition");
}

#[test]
fn changing_a_reduction_operator_is_caught() {
    let m = SeededMutation {
        name: "swap-reduce",
        mutate: |r| {
            let mut stmts = r.into_ir();
            if let Stmt::For { body, .. } = &mut stmts[0] {
                for s in body.iter_mut() {
                    if let Stmt::Store { reduce, .. } = s {
                        *reduce = Some(crate::expr::BinOp::Mul);
                    }
                }
            }
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "swap-reduce", "diverge");
}

#[test]
fn appending_after_the_fiber_closed_is_caught() {
    let m = SeededMutation {
        name: "late-append",
        mutate: |r| {
            let mut stmts = r.into_ir();
            stmts.push(Stmt::Append { buf: crate::buffer::BufId(4), value: Expr::int(99) });
            Repr::Ir(stmts)
        },
    };
    assert_caught(run_ir_mutation(&m), "late-append", "after its fiber was closed");
}

#[test]
fn mistyping_a_register_load_is_caught() {
    // Simulates a typing-pass bug: an untyped Load of an F64 buffer is
    // rewritten into the i64-lane form.
    let m = SeededMutation {
        name: "mistype-load",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for instr in program.code.iter_mut() {
                if let Instr::Load { dst, buf, idx } = *instr {
                    if buf.index() == 0 {
                        *instr = Instr::LoadI64 { dst, buf, idx };
                        break;
                    }
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "mistype-load", "to be i64");
}

#[test]
fn a_misaligned_for_back_edge_is_caught() {
    let m = SeededMutation {
        name: "misalign-backedge",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for instr in program.code.iter_mut() {
                if let Instr::ForStep { test, .. } = instr {
                    *test = 0; // pc 0 is a BumpStmt, not a loop head
                    break;
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "misalign-backedge", "not a loop head");
}

#[test]
fn an_out_of_range_register_is_caught() {
    let m = SeededMutation {
        name: "oob-register",
        mutate: |r| {
            let mut program = r.into_bytecode();
            let oob = crate::bytecode::Reg(program.num_regs() as u32 + 5);
            for instr in program.code.iter_mut() {
                if let Instr::Const { dst, .. } = instr {
                    *dst = oob;
                    break;
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "oob-register", "outside the file");
}

#[test]
fn a_jump_past_the_end_is_caught() {
    let m = SeededMutation {
        name: "wild-jump",
        mutate: |r| {
            let mut program = r.into_bytecode();
            let past = program.code.len() as u32 + 7;
            for instr in program.code.iter_mut() {
                if let Instr::ForTest { end, .. } = instr {
                    *end = past;
                    break;
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "wild-jump", "past the end");
}

#[test]
fn the_real_vectorize_pass_validates_cleanly_on_a_fusable_loop() {
    // Control for the bad-vectorization case below: the actual pass
    // inserts a kernel op here and must survive full witness validation
    // (bit-identical buffers, exact work counters).
    let m = SeededMutation {
        name: "vectorize",
        mutate: |r| {
            let p = r.into_bytecode();
            Repr::Bytecode(vectorize(&p, &mut OptStats::default()))
        },
    };
    let out = run_typed_bytecode_mutation(&m).expect("the real pass is value- and stats-exact");
    let fused = out.into_bytecode();
    assert!(
        fused.code().iter().any(|i| matches!(i, Instr::VMapF64 { .. })),
        "the fusable loop must actually produce a kernel op:\n{}",
        fused.disasm()
    );
}

#[test]
fn a_bad_vectorization_is_caught_and_attributed() {
    // Simulates a vectorizer bug: the loop is fused correctly, but the
    // kernel op's inlined scale immediate is off — the kind of semantic
    // slip (wrong constant, wrong trip count, dropped remainder) only the
    // witness comparison can see, since the encoding stays well-formed.
    let m = SeededMutation {
        name: "vectorize",
        mutate: |r| {
            let mut p = vectorize(&r.into_bytecode(), &mut OptStats::default());
            for instr in p.code.iter_mut() {
                if let Instr::VMapF64 { a_pre, rhs, round, .. } = instr {
                    match (a_pre, rhs) {
                        (VScale::Left { imm, .. } | VScale::Right { imm, .. }, _)
                        | (_, VRhs::Imm { imm, .. }) => *imm += 0.5,
                        _ => *round = true,
                    }
                    break;
                }
            }
            Repr::Bytecode(p)
        },
    };
    assert_caught(run_typed_bytecode_mutation(&m), "vectorize", "diverge");
}

/// Simulates a matcher that does not see one of the body's writes: the
/// loop is matched with the first instruction `is_write` selects blanked
/// out, then runs as it was.
fn vectorize_blind_to(mut p: Program, is_write: fn(&Instr) -> bool) -> Program {
    let write = p.code.iter().position(is_write).expect("the body's write");
    let hidden = std::mem::replace(&mut p.code[write], Instr::Nop);
    let mut p = vectorize(&p, &mut OptStats::default());
    // One op was inserted, in front of the loop head.
    assert_eq!(p.code[write + 1], Instr::Nop);
    p.code[write + 1] = hidden;
    p
}

/// A typed run broadcast whose body also advances the value:
/// `let x = 1.5; for j in 0..=11 { out[j] = x; x = x + 0.25 }`.
fn typed_kernel_changing_what_it_fills_with() -> (Program, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let out = bufs.add("out", Buffer::F64(vec![0.0; 12].into()));
    let (x, j) = (names.fresh("x"), names.fresh("j"));
    let stmts = vec![
        Stmt::Let { var: x, init: Expr::float(1.5) },
        Stmt::For {
            var: j,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![
                Stmt::Store { buf: out, index: Expr::Var(j), value: Expr::Var(x), reduce: None },
                Stmt::Assign { var: x, value: Expr::add(Expr::Var(x), Expr::float(0.25)) },
            ],
        },
    ];
    let raw = Program::compile(&stmts, &names);
    let fused = peephole(&raw, &mut OptStats::default());
    let typed = typing::specialize_checked(&fused, &bufs).0;
    (typed, names, bufs)
}

#[test]
fn a_register_fill_whose_register_the_loop_writes_is_caught_and_attributed() {
    let is_fill = |i: &Instr| matches!(i, Instr::VFillStoreF64 { val: VFill::Reg(_), .. });
    // Control: the real pass sees the write and leaves the loop scalar.
    let real = SeededMutation {
        name: "vectorize",
        mutate: |r| Repr::Bytecode(vectorize(&r.into_bytecode(), &mut OptStats::default())),
    };
    let out = run_typed_bytecode_pass(typed_kernel_changing_what_it_fills_with(), &real)
        .expect("the real pass validates")
        .into_bytecode();
    assert!(!out.code().iter().any(is_fill), "{}", out.disasm());
    // The matcher does not see `x = x + 0.25`.
    let m = SeededMutation {
        name: "vectorize",
        mutate: |r| {
            let advance = |i: &Instr| matches!(i, Instr::FArithImm { .. });
            Repr::Bytecode(vectorize_blind_to(r.into_bytecode(), advance))
        },
    };
    let verdict = run_typed_bytecode_pass(typed_kernel_changing_what_it_fills_with(), &m);
    assert_caught(verdict, "vectorize", "its loop body writes");
}

/// A typed row-major map whose body also moves on to the next row:
/// `let k = 0; for j in 0..=11 { y[k*12 + j] = x[k*12 + j] * 2.0; k = k + 1 }`.
fn typed_kernel_changing_its_row_base() -> (Program, Names, BufferSet) {
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let x = bufs.add("x", Buffer::F64((0..144).map(|v| v as f64 * 0.5).collect::<Vec<_>>().into()));
    let y = bufs.add("y", Buffer::F64(vec![0.0; 144].into()));
    let (k, j) = (names.fresh("k"), names.fresh("j"));
    let at = || Expr::add(Expr::mul(Expr::Var(k), Expr::int(12)), Expr::Var(j));
    let stmts = vec![
        Stmt::Let { var: k, init: Expr::int(0) },
        Stmt::For {
            var: j,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![
                Stmt::Store {
                    buf: y,
                    index: at(),
                    value: Expr::mul(Expr::load(x, at()), Expr::float(2.0)),
                    reduce: None,
                },
                Stmt::Assign { var: k, value: Expr::add(Expr::Var(k), Expr::int(1)) },
            ],
        },
    ];
    let raw = Program::compile(&stmts, &names);
    let fused = peephole(&raw, &mut OptStats::default());
    let typed = typing::specialize_checked(&fused, &bufs).0;
    (typed, names, bufs)
}

#[test]
fn a_kernel_op_whose_row_base_the_loop_writes_is_caught_and_attributed() {
    let is_map = |i: &Instr| matches!(i, Instr::VMapF64 { .. });
    // Control: the real pass sees the write and leaves the loop scalar.
    let real = SeededMutation {
        name: "vectorize",
        mutate: |r| Repr::Bytecode(vectorize(&r.into_bytecode(), &mut OptStats::default())),
    };
    let out = run_typed_bytecode_pass(typed_kernel_changing_its_row_base(), &real)
        .expect("the real pass validates")
        .into_bytecode();
    assert!(!out.code().iter().any(is_map), "{}", out.disasm());
    // The matcher does not see `k = k + 1`, and fuses a map over row `k`.
    let m = SeededMutation {
        name: "vectorize",
        mutate: |r| {
            let advance = |i: &Instr| match i {
                Instr::IArithImm { op: BinOp::Add, dst, lhs, .. } => dst == lhs,
                _ => false,
            };
            let p = vectorize_blind_to(r.into_bytecode(), advance);
            let row_k = VBase::Scaled { reg: Reg(0), stride: 12 };
            let over_row_k = |i: &Instr| match i {
                Instr::VMapF64 { dst_base, a_base, .. } => (*dst_base, *a_base) == (row_k, row_k),
                _ => false,
            };
            assert!(p.code.iter().any(over_row_k), "{}", p.disasm());
            Repr::Bytecode(p)
        },
    };
    let verdict = run_typed_bytecode_pass(typed_kernel_changing_its_row_base(), &m);
    assert_caught(verdict, "vectorize", "its loop body writes");
}

#[test]
fn a_count_folded_across_a_loop_head_is_caught_and_attributed() {
    // Control: the real pass folds the typed kernel's statements and
    // survives full witness validation.
    let real = SeededMutation {
        name: "finalize",
        mutate: |r| Repr::Bytecode(finalize(&r.into_bytecode())),
    };
    let out = run_typed_bytecode_mutation(&real).expect("the real pass is stats-exact");
    assert!(out.into_bytecode().stmt_bump().iter().any(|&n| n > 0));
    // Simulates a finalize bug: the `for` statement's count is carried
    // past the pre-header onto the loop head, a join point the back edge
    // re-enters, so every iteration would account the statement again.
    let m = SeededMutation {
        name: "finalize",
        mutate: |r| {
            let mut p = finalize(&r.into_bytecode());
            let head = p
                .code
                .iter()
                .position(|i| matches!(i, Instr::IForTest { .. }))
                .expect("the typed kernel has a counted loop");
            let carrier = p.stmt_bump[..head].iter().position(|&n| n > 0).expect("a folded count");
            p.stmt_bump[head] = std::mem::take(&mut p.stmt_bump[carrier]);
            Repr::Bytecode(p)
        },
    };
    assert_caught(run_typed_bytecode_mutation(&m), "finalize", "sits on a loop head");
}

#[test]
fn a_value_mutating_bytecode_rewrite_is_caught_by_witnesses() {
    // A structurally-valid but semantically-wrong rewrite: the constant
    // pool's 2.0 becomes 2.5, so every typed check passes and only the
    // witness comparison can see the miscompile.
    let m = SeededMutation {
        name: "poison-const",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for c in program.consts.iter_mut() {
                if let Value::Float(x) = c {
                    if *x == 2.0 {
                        *x = 2.5;
                    }
                }
            }
            Repr::Bytecode(program)
        },
    };
    assert_caught(run_bytecode_mutation(&m), "poison-const", "diverge");
}

/// Hand-written typed bytecode with the three things the `forward` pass
/// must get right, in one `while p < n` loop over `p = 0..4`:
///
/// ```text
/// u = n                      ; before the loop
/// while p < n {
///     out.push(u)            ; reads the copy the last iteration made
///     t = p                  ; a copy …
///     p = p + 1              ; … whose source is then written …
///     out.push(t)            ; … before the copy is read
///     if t == q { q = q + 2 }; the stepper's advance, taken every other time
///     u = p                  ; a copy read only across the back edge
/// }
/// out.push(q)
/// ```
fn kernel_with_copies_around_a_loop() -> (Program, Names, BufferSet) {
    use crate::bytecode::LaneTag;
    use Instr::*;
    let mut names = Names::new();
    let mut bufs = BufferSet::new();
    let out = bufs.add("out", Buffer::I64(vec![].into()));
    for name in ["p", "n", "q"] {
        names.fresh(name);
    }
    let [p, n, q, t, u] = [0, 1, 2, 3, 4].map(Reg);
    let code = vec![
        BumpStmt,
        ConstI { dst: p, imm: 0 },
        BumpStmt,
        ConstI { dst: n, imm: 4 },
        BumpStmt,
        ConstI { dst: q, imm: 0 },
        IMov { dst: u, src: n },
        BumpStmt,
        IWhileCmp { op: BinOp::Lt, lhs: p, rhs: n, end: 22 },
        BumpStmt,
        IAppend { buf: out, val: u },
        IMov { dst: t, src: p },
        BumpStmt,
        IArithImm { op: BinOp::Add, dst: p, lhs: p, imm: 1 },
        BumpStmt,
        IAppend { buf: out, val: t },
        BumpStmt,
        ICmpBranch { op: BinOp::Eq, lhs: t, rhs: q, target: 20 },
        BumpStmt,
        IArithImm { op: BinOp::Add, dst: q, lhs: q, imm: 2 },
        IMov { dst: u, src: p },
        Jump { target: 8 },
        BumpStmt,
        IAppend { buf: out, val: q },
    ];
    let program = Program {
        stmt_bump: vec![0; code.len()],
        code,
        consts: Vec::new(),
        steps: Vec::new(),
        var_names: vec!["p".into(), "n".into(), "q".into()].into(),
        num_regs: 5,
        pretags: [p, n, q, t, u].map(|r| (r, LaneTag::Int)).to_vec(),
    };
    (program, names, bufs)
}

#[test]
fn the_forward_pass_keeps_what_the_loop_needs_and_validates() {
    let out = run_typed_bytecode_pass(kernel_with_copies_around_a_loop(), &ForwardPass)
        .expect("the real pass is value- and count-exact")
        .into_bytecode();
    let count = |pred: fn(&Instr) -> bool| out.code().iter().filter(|i| pred(i)).count();
    // All three copies stay: `t` is read after its source moved on, `u`
    // around the back edge, and past the loop head no fact about the `u`
    // made in front of the loop holds.
    assert_eq!(count(|i| matches!(i, Instr::IMov { .. })), 3, "{}", out.disasm());
    assert_eq!(count(|i| matches!(i, Instr::IAdvance { stmts: 1, by: 2, .. })), 1);
    assert_eq!(count(|i| matches!(i, Instr::IWhileNext { .. })), 1, "{}", out.disasm());
    assert_eq!(count(|i| matches!(i, Instr::Jump { .. } | Instr::ICmpBranch { .. })), 0);
}

#[test]
fn forwarding_across_a_write_of_the_source_is_caught_and_attributed() {
    // Simulates a forwarding that does not end a fact when its source is
    // written: `out.push(t)` reads `p`, which has moved on.
    let m = SeededMutation {
        name: "forward",
        mutate: |r| {
            let mut program = r.into_bytecode();
            for instr in program.code.iter_mut() {
                if let Instr::IAppend { val, .. } = instr {
                    if *val == Reg(3) {
                        *val = Reg(0);
                    }
                }
            }
            Repr::Bytecode(program)
        },
    };
    let verdict = run_typed_bytecode_pass(kernel_with_copies_around_a_loop(), &m);
    assert_caught(verdict, "forward", "diverge");
}

#[test]
fn dropping_a_copy_that_is_live_across_a_back_edge_is_caught_and_attributed() {
    // Simulates a liveness that stops at the loop's back edge: nothing
    // behind `u = p` reads `u`, only the next iteration's first append.
    let m = SeededMutation {
        name: "forward",
        mutate: |r| {
            let mut program = r.into_bytecode();
            let at = program
                .code
                .iter()
                .position(|i| *i == Instr::IMov { dst: Reg(4), src: Reg(0) })
                .expect("the copy at the bottom of the loop");
            program.code[at] = Instr::Nop;
            Repr::Bytecode(program)
        },
    };
    let verdict = run_typed_bytecode_pass(kernel_with_copies_around_a_loop(), &m);
    assert_caught(verdict, "forward", "diverge");
}

#[test]
fn an_advance_that_counts_its_statement_when_not_taken_is_caught_and_attributed() {
    // Simulates a fusion that folds the guarded statement's count onto the
    // advance itself: the real pass's output, with the count moved from the
    // advance's payload back onto the stream, where every iteration pays it.
    let m = SeededMutation {
        name: "forward",
        mutate: |r| {
            let mut program = forward(&r.into_bytecode(), &mut OptStats::default());
            let at = program
                .code
                .iter()
                .position(|i| matches!(i, Instr::IAdvance { .. }))
                .expect("the fused advance");
            let Instr::IAdvance { stmts, .. } = &mut program.code[at] else { unreachable!() };
            *stmts = 0;
            assert_eq!(program.code[at + 1], Instr::Nop, "the guarded statement's slot");
            program.code[at + 1] = Instr::BumpStmt;
            Repr::Bytecode(program)
        },
    };
    let verdict = run_typed_bytecode_pass(kernel_with_copies_around_a_loop(), &m);
    assert_caught(verdict, "forward", "ExecStats");
}

// ---------------------------------------------------------------------
// Seeded miscompiles of the merge run-ahead selection: the real pass's
// output with one thing wrong, and the gate that notices.
// ---------------------------------------------------------------------

/// Whether `instr`, an instruction of `p`, is a step loop op that skips.
fn skips(p: &Program, instr: &Instr) -> bool {
    matches!(p.step_of(instr), Some(Step::Skip(_)))
}

/// Whether `instr` is a step loop op that performs a reduction on every
/// step.
fn reduces(p: &Program, instr: &Instr) -> bool {
    matches!(
        p.step_of(instr),
        Some(Step::Perform { guard: Guard::Every, out: Out::Fold { .. }, .. })
    )
}

/// The step-table entry of the step loop op at `at`.
fn step_at(program: &mut Program, at: usize) -> &mut Step {
    let Instr::IStepLoop { step, .. } = program.code[at] else { unreachable!() };
    &mut program.steps[step as usize]
}

/// The first op of `from` that `is_op` finds, naming a copy of its entry
/// appended to the step table of `into`.
fn transplant(from: &Program, is_op: fn(&Program, &Instr) -> bool, into: &mut Program) -> Instr {
    let mut op = *from.code.iter().find(|i| is_op(from, i)).expect("the op");
    let entry = *from.step_of(&op).expect("its entry");
    let Instr::IStepLoop { step, .. } = &mut op else { unreachable!() };
    *step = into.steps.len() as u32;
    into.steps.push(entry);
    op
}

/// A two-finger merge, typed and through `forward` — what `merge_skip`
/// runs on — whose witness skips iterations that advance the first finger,
/// iterations that advance the second, and matches in between.  (The
/// galloped merge's first finger also holds coordinates the second lacks,
/// 10 and 25: where it leads, its trailer's seek lands past them.)
fn forwarded_merge_kernel(shape: merge_skip::tests::Shape) -> (Program, Names, BufferSet) {
    let b: Vec<i64> = (0..41).filter(|k| k % 3 != 1).collect();
    let a: &[i64] = match shape {
        merge_skip::tests::Shape::Gallop => &[3, 4, 10, 17, 18, 25, 30, 99],
        _ => &[3, 4, 17, 18, 30, 99],
    };
    forwarded(merge_skip::tests::merge_kernel_with(a, &b, 39, shape))
}

/// `kernel` compiled, fused, typed and through `forward`.
fn forwarded((stmts, names, bufs): merge_skip::tests::Kernel) -> (Program, Names, BufferSet) {
    let fused = peephole(&Program::compile(&stmts, &names), &mut OptStats::default());
    let typed = typing::specialize_checked(&fused, &bufs).0;
    (forward(&typed, &mut OptStats::default()), names, bufs)
}

/// The real pass, then `mutate` on the op it placed: the skip of an
/// intersection scattered into a dense output.
fn run_merge_skip_mutation(mutate: fn(&mut Program, usize)) -> Result<Repr, PassError> {
    run_merge_skip_mutation_on(merge_skip::tests::Shape::Scatter, mutate)
}

/// [`run_merge_skip_mutation`] on the loop of another shape.
fn run_merge_skip_mutation_on(
    shape: merge_skip::tests::Shape,
    mutate: fn(&mut Program, usize),
) -> Result<Repr, PassError> {
    struct Mutated(fn(&mut Program, usize));
    impl Pass for Mutated {
        fn name(&self) -> &'static str {
            "merge_skip"
        }
        fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
            let mut program = merge_skip(repr.bytecode(), ctx.stats);
            let at = program.code.iter().position(|i| skips(&program, i));
            let at = at.expect("the merge loop gets its op");
            (self.0)(&mut program, at);
            Repr::Bytecode(program)
        }
    }
    run_typed_bytecode_pass(forwarded_merge_kernel(shape), &Mutated(mutate))
}

#[test]
fn the_merge_skip_pass_validates_and_its_witness_skips_with_both_fingers() {
    let out = run_merge_skip_mutation(|_, _| {}).expect("the real pass is exact").into_bytecode();
    let (_, _, bufs) = forwarded_merge_kernel(merge_skip::tests::Shape::Scatter);
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| skips(&out, i)).unwrap();
    // Four matches and the loop's last iteration are dispatched, of 28.
    assert_eq!((per_pc[at], per_pc[at + 1], vm.stats().loop_iters), (5, 5, 28), "{}", out.disasm());
}

#[test]
fn a_run_ahead_that_miscounts_its_statements_is_caught_by_the_exact_stats_witness() {
    // Each of the four counts, one too many and one too few.
    let mutants: [fn(&mut Program, usize); 8] = [
        |p, at| bump_counts(p, at, [1, 0, 0, 0]),
        |p, at| bump_counts(p, at, [-1, 0, 0, 0]),
        |p, at| bump_counts(p, at, [0, 1, 0, 0]),
        |p, at| bump_counts(p, at, [0, -1, 0, 0]),
        |p, at| bump_counts(p, at, [0, 0, 1, 0]),
        |p, at| bump_counts(p, at, [0, 0, -1, 0]),
        |p, at| bump_counts(p, at, [0, 0, 0, 1]),
        |p, at| bump_counts(p, at, [0, 0, 0, -1]),
    ];
    for mutate in mutants {
        assert_caught(run_merge_skip_mutation(mutate), "merge_skip", "ExecStats");
    }
}

/// Moves the statements and loads of a step `p` leads, then of one `q`
/// leads, of the op at `at` by `by`.
fn bump_counts(program: &mut Program, at: usize, by: [i32; 4]) {
    let Instr::IStepLoop { counts, .. } = &mut program.code[at] else { unreachable!() };
    let [_, stmts_a, stmts_b] = &mut counts.stmts;
    let [_, loads_a, loads_b] = &mut counts.loads;
    for (count, by) in [stmts_a, loads_a, stmts_b, loads_b].into_iter().zip(by) {
        *count = count.checked_add_signed(by).expect("a count of at least one");
    }
}

#[test]
fn a_run_ahead_with_its_fingers_on_each_others_lists_is_caught_by_the_witness() {
    // Simulates a recogniser that pairs the strides with the wrong fingers:
    // `p` walks `b`'s coordinates, `q` walks `a`'s.  The run-ahead leaves the
    // fingers where the scalar loop would not, and the merge goes wrong from
    // there: off the end of a list on the witness.
    let verdict = run_merge_skip_mutation(|program, at| {
        let Instr::IStepLoop { a, q: Some((b, _)), .. } = &mut program.code[at] else {
            unreachable!()
        };
        std::mem::swap(a, b);
    });
    assert_caught(verdict, "merge_skip", "faults after the pass");
}

#[test]
fn a_run_ahead_past_the_loops_own_bound_is_caught_by_the_verifier() {
    // Simulates a recogniser that drops the last-iteration rule: the op
    // runs to a bound that is not the loop's (here the start register, any
    // other would do), so it would perform the iteration that ends the loop.
    let verdict = run_merge_skip_mutation(|program, at| {
        let Instr::IStepLoop { p, stop, .. } = &mut program.code[at] else { unreachable!() };
        *stop = *p;
    });
    assert_caught(verdict, "merge_skip", "`while start <= stop` loop on its registers");
}

#[test]
fn a_run_ahead_the_bottom_test_does_not_land_on_is_caught_by_the_verifier() {
    // Simulates splicing the op in like a vectorized op, so that jumps go
    // around it: it sits behind the body's first instruction, where an
    // iteration has already begun.
    let verdict = run_merge_skip_mutation(|program, at| program.code.swap(at, at + 1));
    assert_caught(verdict, "merge_skip", "is not the first instruction");
}

#[test]
fn a_run_ahead_over_a_body_one_finger_guards_is_caught_by_output_parity() {
    // Simulates a recogniser whose match test is one equality: the body
    // runs wherever the first finger ends the step, and the op, which skips
    // every step the two fingers do not both end, skips that work.
    use merge_skip::tests::Shape;
    let verdict = forced_op(Shape::Scatter, Shape::GuardedByOneFinger);
    assert_caught(verdict, "merge_skip", "diverge");
}

/// The op the real pass gives a loop of shape `op`, forced onto the loop of
/// shape `over` — the same registers and buffers — which the pass declines.
fn forced_op(
    op: merge_skip::tests::Shape,
    over: merge_skip::tests::Shape,
) -> Result<Repr, PassError> {
    struct Forced(merge_skip::tests::Shape);
    impl Pass for Forced {
        fn name(&self) -> &'static str {
            "merge_skip"
        }
        fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
            let mut declined = merge_skip(repr.bytecode(), ctx.stats);
            assert_eq!(ctx.stats.merge_declined[MergeDecline::NotGuardedByBoth as usize], 1);
            let (good, ..) = forwarded_merge_kernel(self.0);
            let good = merge_skip(&good, &mut OptStats::default());
            let op = transplant(&good, skips, &mut declined);
            let head = declined
                .code
                .iter()
                .position(|i| matches!(i, Instr::IWhileCmp { .. }))
                .expect("the merge loop");
            let code = crate::bytecode::splice_before(&declined.code, &[(head + 1, op)], true);
            Repr::Bytecode(declined.with_code(code))
        }
    }
    run_typed_bytecode_pass(forwarded_merge_kernel(over), &Forced(op))
}

#[test]
fn a_run_ahead_pointed_at_another_loops_entry_is_caught_by_the_verifier() {
    // The galloped loop's op and its neither-finger-leads fall-back's each
    // name an entry of the step table; the first one named the second's
    // would perform the fall-back's steps on the outer loop.
    let verdict = run_merge_skip_mutation_on(merge_skip::tests::Shape::Gallop, |program, at| {
        let other = program.code.iter().rposition(|i| matches!(i, Instr::IStepLoop { .. }));
        let Instr::IStepLoop { step: theirs, .. } = program.code[other.unwrap()] else {
            unreachable!()
        };
        let Instr::IStepLoop { step: ours, .. } = &mut program.code[at] else { unreachable!() };
        assert_ne!(*ours, theirs, "two loops, two entries");
        *ours = theirs;
    });
    assert_caught(verdict, "merge_skip", "is the op's at pc");
}

#[test]
fn a_run_ahead_past_the_step_table_is_caught_by_the_verifier_and_declined_by_the_vm() {
    let past = |program: &mut Program, at: usize| {
        let Instr::IStepLoop { step, .. } = &mut program.code[at] else { unreachable!() };
        *step = 7;
    };
    assert_caught(run_merge_skip_mutation(past), "merge_skip", "outside the table");
    // Run anyway, the op does nothing: the scalar loop computes what the
    // program computes without it.
    let (forwarded, _, bufs) = forwarded_merge_kernel(merge_skip::tests::Shape::Scatter);
    let mut program = merge_skip(&forwarded, &mut OptStats::default());
    let at = program.code.iter().position(|i| skips(&program, i)).unwrap();
    past(&mut program, at);
    let run = |p: &Program| {
        let mut bufs = bufs.clone();
        let mut vm = crate::vm::Vm::new(p);
        vm.run(p, &mut bufs).expect("runs");
        (vm.stats(), format!("{:?}", bufs.get(merge_skip::tests::OUT)))
    };
    assert_eq!(run(&program), run(&forwarded));
}

#[test]
fn a_match_guarded_as_every_step_is_caught_by_the_witness() {
    // Simulates a recogniser that drops the match test: the op performs the
    // product of every step, where the loop performs only the steps both
    // fingers end.
    let verdict = run_lone_mutation(
        forwarded_merge_kernel(merge_skip::tests::Shape::Intersection),
        matches_steps,
        |program, at| {
            let Step::Perform { guard, .. } = step_at(program, at) else { unreachable!() };
            *guard = Guard::Every;
        },
    );
    assert_caught(verdict, "merge_skip", "diverge");
}

#[test]
fn the_block_form_validates_and_its_witness_skips_both_kinds_of_empty_step() {
    use merge_skip::tests::Shape;
    let out = run_merge_skip_mutation_on(Shape::Block, |_, _| {})
        .expect("the real pass is exact")
        .into_bytecode();
    let (_, _, bufs) = forwarded_merge_kernel(Shape::Block);
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| skips(&out, i)).unwrap();
    // Of 28 iterations, the seven whose `b` coordinate is inside a block
    // (0, 2, 3; 17; 18; 29, 30) and the loop's last are dispatched, each
    // behind one call of the op: the others find a block ending first, or
    // `b` in the gap in front of one.
    let counts = (per_pc[at], per_pc[at + 1], vm.stats().loop_iters);
    assert_eq!(counts, (8, 8, 28), "{}", out.disasm());
}

#[test]
fn a_block_run_ahead_whose_gap_test_is_off_by_one_is_caught_by_output_parity() {
    // The loop's block begins one coordinate before the op's: the op skips
    // `b` at the block's first coordinate (27 in front of the block ending
    // at 30), where the loop runs its body.
    use merge_skip::tests::Shape;
    let verdict = forced_op(Shape::Block, Shape::BlockGapOffByOne);
    assert_caught(verdict, "merge_skip", "diverge");
}

#[test]
fn a_block_run_ahead_reading_the_length_off_another_offset_is_caught_by_output_parity() {
    // The loop reads the block's length one offsets position further on
    // than the op: where the next block is longer, the op takes the loop's
    // first block coordinate for the gap.
    use merge_skip::tests::Shape;
    let verdict = forced_op(Shape::Block, Shape::BlockLenOneOn);
    assert_caught(verdict, "merge_skip", "diverge");
}

#[test]
fn a_block_run_ahead_one_gap_load_short_is_caught_by_the_exact_stats_witness() {
    let verdict = run_merge_skip_mutation_on(merge_skip::tests::Shape::Block, |program, at| {
        bump_counts(program, at, [0, 0, 0, -1])
    });
    assert_caught(verdict, "merge_skip", "ExecStats");
}

#[test]
fn a_block_run_ahead_whose_offsets_are_a_fingers_list_is_caught_by_the_verifier() {
    let verdict = run_merge_skip_mutation_on(merge_skip::tests::Shape::Block, |program, at| {
        let Instr::IStepLoop { a, .. } = program.code[at] else { unreachable!() };
        *step_at(program, at) = Step::Skip(MergeForm::Blocks { ofs: a });
    });
    assert_caught(verdict, "merge_skip", "block offsets from a finger's list");
}

#[test]
fn the_jumper_form_validates_and_its_witness_skips_with_either_finger_leading() {
    use merge_skip::tests::Shape;
    let out = run_merge_skip_mutation_on(Shape::Gallop, |_, _| {})
        .expect("the real pass is exact")
        .into_bytecode();
    let (_, _, bufs) = forwarded_merge_kernel(Shape::Gallop);
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| skips(&out, i)).unwrap();
    // The four matches (3, 17, 18, 30) and the last iteration, whose step
    // is clipped to the bound with neither finger on it, are dispatched; the
    // three steps whose seek lands past the leader (5, 10, 25; `b`, `a`,
    // `a` leading) are not.  Of 20 loop iterations, the stepper merges'
    // included.
    let counts = (per_pc[at], per_pc[at + 1], vm.stats().loop_iters);
    assert_eq!(counts, (5, 5, 20), "{}", out.disasm());
}

#[test]
fn a_jumper_run_ahead_whose_fall_back_miscounts_is_caught_by_the_exact_stats_witness() {
    // A fall-back's loads (the row end, the stepper's stride) or the
    // statements of a step one off, for either finger leading.
    let mutants: [fn(&mut Program, usize); 4] = [
        |p, at| bump_counts(p, at, [0, 1, 0, 0]),
        |p, at| bump_counts(p, at, [0, 0, 0, -1]),
        |p, at| bump_counts(p, at, [1, 0, 0, 0]),
        |p, at| bump_counts(p, at, [0, 0, 1, 0]),
    ];
    for mutate in mutants {
        let verdict = run_merge_skip_mutation_on(merge_skip::tests::Shape::Gallop, mutate);
        assert_caught(verdict, "merge_skip", "ExecStats");
    }
}

#[test]
fn a_jumper_run_ahead_taking_the_earlier_stride_as_its_leader_is_caught_by_the_verifier() {
    // Simulates a recogniser that reads the jumper loop as a stepper merge:
    // the op would end each step at the earlier stride and advance that
    // finger by one, where the loop seeks the trailer to the later one.
    let verdict = run_merge_skip_mutation_on(merge_skip::tests::Shape::Gallop, |program, at| {
        *step_at(program, at) = Step::Skip(MergeForm::Steps);
    });
    assert_caught(verdict, "merge_skip", "by one, in one place");
}

#[test]
fn a_jumper_run_ahead_whose_row_ends_are_a_fingers_list_is_caught_by_the_verifier() {
    let verdict = run_merge_skip_mutation_on(merge_skip::tests::Shape::Gallop, |program, at| {
        let Instr::IStepLoop { a, .. } = program.code[at] else { unreachable!() };
        let Step::Skip(MergeForm::Gallop { a_end, .. }) = step_at(program, at) else {
            unreachable!()
        };
        *a_end = a;
    });
    assert_caught(verdict, "merge_skip", "row ends from a finger's list");
}

// ---------------------------------------------------------------------
// Seeded miscompiles of the gather reduction: the real pass's output on
// Fig. 1's lone stepper with one thing wrong, and the gate that notices.
// ---------------------------------------------------------------------

/// A lone stepper over a band, typed and through `forward`: its last
/// coordinate is the loop's bound, so the op performs every iteration but
/// that one.
fn forwarded_gather_kernel() -> (Program, Names, BufferSet) {
    let crd = [1, 3, 4, 8, 13, 21, 34, 39];
    forwarded(merge_skip::tests::gather_kernel(&crd, 39, merge_skip::tests::Lone::Band))
}

/// The real pass on [`forwarded_gather_kernel`], then `mutate` on the op it
/// placed.
fn run_gather_mutation(mutate: fn(&mut Program, usize)) -> Result<Repr, PassError> {
    run_lone_mutation(forwarded_gather_kernel(), reduces, mutate)
}

/// The real pass on `kernel`, a lone stepper, then `mutate` on the op that
/// `is_op` finds.
fn run_lone_mutation(
    kernel: (Program, Names, BufferSet),
    is_op: fn(&Program, &Instr) -> bool,
    mutate: fn(&mut Program, usize),
) -> Result<Repr, PassError> {
    struct Mutated(fn(&Program, &Instr) -> bool, fn(&mut Program, usize));
    impl Pass for Mutated {
        fn name(&self) -> &'static str {
            "merge_skip"
        }
        fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
            let mut program = merge_skip(repr.bytecode(), ctx.stats);
            let at = program.code.iter().position(|i| (self.0)(&program, i));
            let at = at.expect("the lone stepper gets its op");
            (self.1)(&mut program, at);
            Repr::Bytecode(program)
        }
    }
    run_typed_bytecode_pass(kernel, &Mutated(is_op, mutate))
}

#[test]
fn the_gather_reduction_validates_and_its_witness_performs_all_but_the_last_iteration() {
    let out = run_gather_mutation(|_, _| {}).expect("the real pass is exact").into_bytecode();
    let (_, _, bufs) = forwarded_gather_kernel();
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| reduces(&out, i)).unwrap();
    // The op once, at the loop's entry, and the last of eight iterations.
    assert_eq!((per_pc[at], per_pc[at + 1], vm.stats().loop_iters), (1, 1, 8), "{}", out.disasm());
}

#[test]
fn a_gather_reduction_that_miscounts_is_caught_by_the_exact_stats_witness() {
    let mutants: [fn(&mut Program, usize); 4] = [
        |p, at| bump_gather_counts(p, at, [1, 0]),
        |p, at| bump_gather_counts(p, at, [-1, 0]),
        |p, at| bump_gather_counts(p, at, [0, 1]),
        |p, at| bump_gather_counts(p, at, [0, -1]),
    ];
    for mutate in mutants {
        assert_caught(run_gather_mutation(mutate), "merge_skip", "ExecStats");
    }
}

/// Moves the statements and loads of every step of the gather reduction at
/// `at` by `by`.
fn bump_gather_counts(program: &mut Program, at: usize, by: [i32; 2]) {
    let Instr::IStepLoop { counts, .. } = &mut program.code[at] else { unreachable!() };
    for (count, by) in [&mut counts.stmts[0], &mut counts.loads[0]].into_iter().zip(by) {
        *count = count.checked_add_signed(by).expect("a count of at least one");
    }
}

#[test]
fn a_gather_reduction_whose_offset_is_off_by_one_is_caught_by_output_parity() {
    // The band starts one position into `x`: without the term that says
    // so, the op gathers each value from the coordinate in front.
    let verdict = run_gather_mutation(|program, at| {
        let Step::Perform { product: Product { second: Gather::Load { ofs, .. }, .. }, .. } =
            step_at(program, at)
        else {
            unreachable!()
        };
        ofs.iter_mut().filter(|t| matches!(t, Term::Plus { .. })).for_each(|t| *t = Term::Zero);
    });
    assert_caught(verdict, "merge_skip", "diverge");
}

#[test]
fn a_gather_reduction_accumulating_into_a_source_is_caught_by_the_verifier() {
    let verdict = run_gather_mutation(|program, at| {
        let Step::Perform { product, out: Out::Fold { acc, .. }, .. } = step_at(program, at) else {
            unreachable!()
        };
        *acc = product.val;
    });
    assert_caught(verdict, "merge_skip", "puts its product into one of its sources");
}

// ---------------------------------------------------------------------
// A seeded miscompile of the append: the real pass's op with its pass count
// off by one, and the gate that notices.
// ---------------------------------------------------------------------

/// Fig. S's threshold filter as a lone stepper, typed and through `forward`:
/// values above and below its guard `> 2`, the last coordinate the loop's
/// bound.
fn forwarded_append_kernel() -> (Program, Names, BufferSet) {
    let crd = [1, 3, 4, 8, 13, 21, 34, 39];
    let values = [0.5, 3.0, 2.5, 1.0, 4.0, 2.0, 7.5, 3.5];
    let guard = Some((BinOp::Gt, 2.0));
    forwarded(merge_skip::tests::append_kernel(&crd, &values, 39, guard))
}

/// Whether `instr` is a step loop op that pushes a lone stepper's value.
fn appends(p: &Program, instr: &Instr) -> bool {
    matches!(
        p.step_of(instr),
        Some(Step::Perform { guard: Guard::Every | Guard::Cmp(..), out: Out::Push { .. }, .. })
    )
}

#[test]
fn the_append_validates_and_its_witness_performs_all_but_the_last_iteration() {
    let out = run_lone_mutation(forwarded_append_kernel(), appends, |_, _| {})
        .expect("the real pass is exact")
        .into_bytecode();
    let (_, _, bufs) = forwarded_append_kernel();
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| appends(&out, i)).unwrap();
    // The op once, at the loop's entry, and the last of eight iterations.
    assert_eq!((per_pc[at], per_pc[at + 1], vm.stats().loop_iters), (1, 1, 8), "{}", out.disasm());
}

#[test]
fn an_append_whose_pass_count_is_off_by_one_is_caught_by_the_exact_stats_witness() {
    let mutants: [fn(&mut Program, usize); 2] =
        [|p, at| bump_pass_count(p, at, 1), |p, at| bump_pass_count(p, at, -1)];
    for mutate in mutants {
        assert_caught(
            run_lone_mutation(forwarded_append_kernel(), appends, mutate),
            "merge_skip",
            "ExecStats",
        );
    }
}

#[test]
fn an_append_pushing_onto_its_own_values_is_caught_by_the_verifier() {
    let verdict = run_lone_mutation(forwarded_append_kernel(), appends, |program, at| {
        let Step::Perform { product, out: Out::Push { vals, .. }, .. } = step_at(program, at)
        else {
            unreachable!()
        };
        *vals = product.val;
    });
    assert_caught(verdict, "merge_skip", "puts its product into one of its sources");
}

/// Moves the statements of a step that passes the guard of the append at
/// `at` by `by`.
fn bump_pass_count(program: &mut Program, at: usize, by: i32) {
    let Step::Perform { pass, .. } = step_at(program, at) else { unreachable!() };
    pass[0] = pass[0].checked_add_signed(by).expect("a count of at least one");
}

// ---------------------------------------------------------------------
// Seeded miscompiles of the two-finger reduction: the real pass's op placed
// on a run × run loop one instruction off the loop it performs — what a
// recogniser that misread that instruction would emit — and the gate that
// notices.
// ---------------------------------------------------------------------

/// Fig. 11's run × run product, typed and through `forward`: runs that end
/// together, runs one coordinate long, and both lists' last run on the bound.
fn forwarded_run_kernel() -> (Program, Names, BufferSet) {
    let (a, b) = ([0, 3, 4, 9, 15, 20], [3, 4, 7, 15, 20]);
    forwarded(merge_skip::tests::run_kernel(&a, &b, 20, merge_skip::tests::Runs::Product))
}

/// [`forwarded_run_kernel`] with the instruction `misread` picks replaced by
/// the one it returns, given the op the real pass places on the original.
fn run_misread_reduction(misread: fn(&[Instr]) -> (usize, Instr)) -> Result<Repr, PassError> {
    run_misread(forwarded_run_kernel(), reduces, misread)
}

/// `kernel` with the instruction `misread` picks replaced by the one it
/// returns, given the op (which `is_op` finds) that the real pass places on
/// the original: what a recogniser that misread that instruction would emit.
fn run_misread(
    (mut program, names, bufs): (Program, Names, BufferSet),
    is_op: fn(&Program, &Instr) -> bool,
    misread: fn(&[Instr]) -> (usize, Instr),
) -> Result<Repr, PassError> {
    struct Misread {
        at: usize,
        read: Instr,
        is_op: fn(&Program, &Instr) -> bool,
    }
    impl Pass for Misread {
        fn name(&self) -> &'static str {
            "merge_skip"
        }
        fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
            let mut read = repr.bytecode().clone();
            let loop_has = std::mem::replace(&mut read.code[self.at], self.read);
            let mut program = merge_skip(&read, ctx.stats);
            let op = program.code.iter().position(|i| (self.is_op)(&program, i));
            assert!(op.is_some_and(|op| op <= self.at), "the loop gets its op in front");
            program.code[self.at + 1] = loop_has;
            Repr::Bytecode(program)
        }
    }
    let (at, loop_has) = misread(&program.code);
    let read = std::mem::replace(&mut program.code[at], loop_has);
    run_typed_bytecode_pass((program, names, bufs), &Misread { at, read, is_op })
}

#[test]
fn the_two_finger_reduction_validates_and_its_witness_performs_all_but_the_last_step() {
    let real = run_misread_reduction(|code| {
        let at = code.iter().position(|i| matches!(i, Instr::IAdvance { .. })).unwrap();
        (at, code[at])
    });
    let out = real.expect("the real pass is exact").into_bytecode();
    let (_, _, bufs) = forwarded_run_kernel();
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| reduces(&out, i)).unwrap();
    // The op once, at the loop's entry, and the last of eight steps (ends 0,
    // 3, 4, 7, 9, 15 and 20; 3, 4, 15 and 20 are ties).
    assert_eq!((per_pc[at], per_pc[at + 1], vm.stats().loop_iters), (1, 1, 7), "{}", out.disasm());
}

#[test]
fn a_two_finger_reduction_whose_extent_is_off_by_one_is_caught_by_output_parity() {
    // The loop's extent is `max(ss - start, 0)`; the op multiplies by one
    // more.
    let verdict = run_misread_reduction(|code| {
        let at = code
            .iter()
            .position(|i| matches!(i, Instr::IArithImm { op: BinOp::Add, imm: 1, .. }))
            .expect("the extent's `+ 1`");
        let Instr::IArithImm { op, dst, lhs, .. } = code[at] else { unreachable!() };
        (at, Instr::IArithImm { op, dst, lhs, imm: 0 })
    });
    assert_caught(verdict, "merge_skip", "diverge");
}

#[test]
fn a_two_finger_reduction_advancing_one_finger_on_a_tie_is_caught_by_the_exact_stats_witness() {
    // The loop advances `q` only where its stride is below `p`'s: on a tie
    // `p` alone moves on, where the op moves both.
    let verdict = run_misread_reduction(|code| {
        let advances: Vec<usize> =
            (0..code.len()).filter(|&pc| matches!(code[pc], Instr::IAdvance { .. })).collect();
        let Instr::IAdvance { lhs: stride, .. } = code[advances[0]] else { unreachable!() };
        let Instr::IAdvance { lhs, reg, by, stmts, .. } = code[advances[1]] else { unreachable!() };
        (advances[1], Instr::IAdvance { op: BinOp::Lt, lhs, rhs: stride, reg, by, stmts })
    });
    assert_caught(verdict, "merge_skip", "ExecStats");
}

// ---------------------------------------------------------------------
// Seeded miscompiles of the matched step: the real pass's op with its match
// count off by one, and its lead forced onto a loop that multiplies the lead
// last — and the gates that notice.
// ---------------------------------------------------------------------

/// Two steppers whose matched step is `out[0] += lead[inv] * a_val[p] *
/// b_val[q]` (or, `last`, `a_val[p] * b_val[q] * lead[inv]`), typed and
/// through `forward`: steps that `a` ends, that `b` ends and that both end.
/// The values make the order of the product matter: `lead * a_val`
/// overflows, and neither `a_val * b_val * lead` nor the sum of the four
/// matches does.
fn forwarded_led_kernel(last: bool) -> (Program, Names, BufferSet) {
    use merge_skip::tests::{match_kernel, Matched, M_LEAD};
    let (a, b) = ([2, 5, 9, 14, 20, 1000], [1, 2, 9, 11, 14, 18, 20, 1000]);
    let body = if last { Matched::LedLast } else { Matched::Led };
    let (stmts, names, mut bufs) = match_kernel((&a, &[2.0; 6]), (&b, &[0.125; 8]), 25, body);
    *bufs.get_mut(M_LEAD) = Buffer::F64(vec![1.0, 1e308].into());
    forwarded((stmts, names, bufs))
}

/// Whether `instr` is a step loop op that performs matched steps.
fn matches_steps(p: &Program, instr: &Instr) -> bool {
    matches!(p.step_of(instr), Some(Step::Perform { guard: Guard::Both, .. }))
}

#[test]
fn the_match_validates_and_its_witness_performs_all_but_the_last_step() {
    let out = run_lone_mutation(forwarded_led_kernel(false), matches_steps, |_, _| {})
        .expect("the real pass is exact")
        .into_bytecode();
    let (_, _, bufs) = forwarded_led_kernel(false);
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| matches_steps(&out, i)).unwrap();
    // The op once, at the loop's entry, and the last of nine steps (ends 1,
    // 2, 5, 9, 11, 14, 18, 20 and 25; 2, 9, 14 and 20 are matches).
    assert_eq!((per_pc[at], per_pc[at + 1], vm.stats().loop_iters), (1, 1, 9), "{}", out.disasm());
}

#[test]
fn a_match_whose_pass_count_is_off_by_one_is_caught_by_the_exact_stats_witness() {
    let mutants: [fn(&mut Program, usize); 2] =
        [|p, at| bump_match_count(p, at, 1), |p, at| bump_match_count(p, at, -1)];
    for mutate in mutants {
        assert_caught(
            run_lone_mutation(forwarded_led_kernel(false), matches_steps, mutate),
            "merge_skip",
            "ExecStats",
        );
    }
}

/// Moves the statements of a match of the op at `at` by `by`.
fn bump_match_count(program: &mut Program, at: usize, by: i32) {
    let Step::Perform { pass, .. } = step_at(program, at) else { unreachable!() };
    pass[0] = pass[0].checked_add_signed(by).expect("a count of at least one");
}

#[test]
fn a_match_multiplying_the_lead_first_where_the_loop_multiplies_it_last_is_caught_by_output_parity()
{
    // Simulates a recogniser that takes a lead wherever the product reads
    // one: the loop computes `(a_val[p] * b_val[q]) * lead`, the op `(lead *
    // a_val[p]) * b_val[q]`, which overflows on the witness.
    struct Forced;
    impl Pass for Forced {
        fn name(&self) -> &'static str {
            "merge_skip"
        }
        fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
            let mut program = merge_skip(repr.bytecode(), ctx.stats);
            let at = program.code.iter().position(|i| skips(&program, i));
            let at = at.expect("the lead-last loop skips");
            let (led, ..) = forwarded_led_kernel(false);
            let led = merge_skip(&led, &mut OptStats::default());
            let op = transplant(&led, matches_steps, &mut program);
            let Instr::IStepLoop { a, p, q, start, stop, .. } = program.code[at] else {
                unreachable!()
            };
            // The same loop, registers and all, but for the order of the
            // product.
            let store = program.code.iter().find_map(|i| match *i {
                Instr::StoreF64 { idx, reduce: Some(_), .. } => Some(idx),
                _ => None,
            });
            let Some(Step::Perform { out: Out::Fold { k, .. }, .. }) = program.step_of(&op) else {
                unreachable!()
            };
            assert_eq!(store, Some(*k), "{}", program.disasm());
            assert!(matches!(op, Instr::IStepLoop { a: a2, p: p2, q: q2, start: s2, stop: t2, .. }
                if (a2, p2, q2, s2, t2) == (a, p, q, start, stop)));
            program.code[at] = op;
            Repr::Bytecode(program)
        }
    }
    assert_caught(
        run_typed_bytecode_pass(forwarded_led_kernel(true), &Forced),
        "merge_skip",
        "diverge",
    );
}

// ---------------------------------------------------------------------
// Seeded miscompiles of the store into a dense output: the real pass's op
// placed on a loop one instruction off the loop it performs — the run one
// element short, the store one element early — and the gate that notices.
// ---------------------------------------------------------------------

/// A sparse list times a dense vector into a dense output, `C[i] = A[i] *
/// x[i]`, typed and through `forward`: runs of none, one and several
/// elements in front of the stored entries, none of them at 0 (a store one
/// element early stays inside the output), and the last on the bound.
fn forwarded_store_kernel() -> (Program, Names, BufferSet) {
    use merge_skip::tests::{store_kernel, Dense};
    let (vals, x): (Vec<f64>, Vec<f64>) = ((1..=6).map(f64::from).collect(), vec![0.5; 16]);
    forwarded(store_kernel(&[2, 3, 5, 7, 8, 15], (&vals, &x), 15, Dense::Assign))
}

/// Whether `instr` is a step loop op that stores into a dense output.
fn stores(p: &Program, instr: &Instr) -> bool {
    matches!(p.step_of(instr), Some(Step::Perform { out: Out::Store { .. }, .. }))
}

#[test]
fn the_store_validates_and_its_witness_performs_all_but_the_last_step() {
    let out = run_lone_mutation(forwarded_store_kernel(), stores, |_, _| {})
        .expect("the real pass is exact")
        .into_bytecode();
    let (_, _, bufs) = forwarded_store_kernel();
    let mut vm = crate::vm::Vm::new(&out);
    let per_pc = vm.run_profiled(&out, &mut bufs.clone()).expect("runs");
    let at = out.code.iter().position(|i| stores(&out, i)).unwrap();
    // The op once, at the loop's entry, and the last of six steps; the runs'
    // ten elements are loop iterations too.
    assert_eq!((per_pc[at], per_pc[at + 1], vm.stats().loop_iters), (1, 1, 16), "{}", out.disasm());
}

#[test]
fn a_store_into_a_source_or_an_integer_buffer_is_caught_by_the_verifier() {
    let into_a_source = run_lone_mutation(forwarded_store_kernel(), stores, |program, at| {
        let Step::Perform { product, out: Out::Store { dst, .. }, .. } = step_at(program, at)
        else {
            unreachable!()
        };
        *dst = product.val;
    });
    assert_caught(into_a_source, "merge_skip", "puts its product into one of its sources");
    // The bound, an I64 buffer the loop does not read through the op.
    let into_the_bound = run_lone_mutation(forwarded_store_kernel(), stores, |program, at| {
        let Step::Perform { out: Out::Store { dst, .. }, .. } = step_at(program, at) else {
            unreachable!()
        };
        *dst = crate::buffer::BufId(3);
    });
    assert_caught(into_the_bound, "merge_skip", "to be f64");
}

#[test]
fn a_store_whose_run_is_one_element_short_is_caught_by_output_parity() {
    // The loop's run ends two in front of the step, `for i in start..=ss -
    // 2`: the op fills the element the loop leaves as it was.
    let verdict = run_misread(forwarded_store_kernel(), stores, |code| {
        let at = code
            .iter()
            .position(|i| matches!(i, Instr::IForTest { .. }))
            .and_then(|head| {
                (0..head).rev().find(|&pc| matches!(code[pc], Instr::IArithImm { imm: 1, .. }))
            })
            .expect("the run's last element, `ss - 1`");
        let Instr::IArithImm { op, dst, lhs, .. } = code[at] else { unreachable!() };
        (at, Instr::IArithImm { op, dst, lhs, imm: 2 })
    });
    assert_caught(verdict, "merge_skip", "diverge");
}

#[test]
fn a_store_one_element_early_is_caught_by_output_parity() {
    // The loop stores at `ss - 1`, the register its run test reads; the op
    // at `ss`.
    let verdict = run_misread(forwarded_store_kernel(), stores, |code| {
        let before = code.iter().find_map(|i| match *i {
            Instr::ICmpBranch { op: BinOp::Le, rhs, .. } => Some(rhs),
            _ => None,
        });
        let run = code.iter().position(|i| matches!(i, Instr::IForNext { .. }));
        let at = (run.expect("the run's loop")..code.len())
            .find(|&pc| matches!(code[pc], Instr::StoreF64 { .. }))
            .expect("the store at the step's end");
        let Instr::StoreF64 { buf, val, reduce, .. } = code[at] else { unreachable!() };
        (at, Instr::StoreF64 { buf, idx: before.expect("the run test"), val, reduce })
    });
    assert_caught(verdict, "merge_skip", "diverge");
}
