//! Bytecode peephole fusion and register coalescing.
//!
//! The register compiler emits one instruction per IR node, which makes
//! the dispatch loop pay one round trip for every `Mov` of a variable into
//! an operand temp, every materialised constant, and every
//! compare-then-branch pair.  This pass rewrites a compiled
//! [`Program`] in place of those patterns:
//!
//! * `Mov t, v ; I(reads t)` → `I(reads v)` — operand forwarding, removing
//!   the copy entirely,
//! * `Const t ; Binary dst, lhs, t` → [`Instr::BinaryImm`],
//! * `Load t ; Binary dst, lhs, t` → [`Instr::LoadBinary`],
//! * `Binary(cmp) t ; JumpIfFalse t` → [`Instr::CmpBranch`] (and the
//!   immediate variant [`Instr::CmpBranchImm`]),
//! * `Binary(cmp) t ; WhileTest t` → [`Instr::WhileCmp`] (and
//!   [`Instr::WhileCmpImm`]),
//!
//! then compacts the surviving temp registers into a dense range so the
//! register file shrinks along with the instruction count.
//!
//! Every fused instruction maintains [`crate::interp::ExecStats`] exactly
//! as its unfused expansion (loads count loads, while heads count loop
//! iterations, nothing else counts anything), so engine parity stays
//! bit-for-bit at any opt level.
//!
//! Safety relies on two structural properties of the compiler's output,
//! both checked conservatively here:
//!
//! 1. A pair is never fused when its second instruction is a jump target —
//!    entering between the halves would observe different state.
//! 2. A temp is only forwarded/fused away when no later instruction reads
//!    it before writing it (a linear scan; sound because the compiler
//!    always writes an expression temp before reading it within any
//!    straight-line region, so a linearly-earlier read reached through a
//!    back edge is always re-dominated by its own write).

use crate::bytecode::{edge_table, for_each_reg_role, for_each_reg_role_mut, is_cmp_op};
use crate::bytecode::{jump_targets_of, Instr, Program, Reg, Role, NO_EDGE};

use super::OptStats;

/// Run peephole fusion (to a bounded fixpoint) and register coalescing
/// over a compiled program, returning the optimised copy.
pub fn peephole(program: &Program, stats: &mut OptStats) -> Program {
    debug_assert!(program.stmt_bump.iter().all(|&n| n == 0), "rewriting a finalized program");
    let mut p = program.clone();
    fuse(&mut p.code, program.num_vars(), stats);
    p.stmt_bump.truncate(p.code.len());
    compact_registers(&mut p, stats);
    p
}

/// Whether the instruction reads `r`.
fn reads_reg(instr: &Instr, r: Reg) -> bool {
    let mut reads = false;
    for_each_reg_role(instr, |x, role| reads |= x == r && role != Role::Write);
    reads
}

/// Whether `t` is dead after position `from`: no surviving instruction
/// reads it before it is next written (reads are checked first — an
/// instruction that both reads and writes `t` keeps it alive).
fn dead_after(code: &[Instr], deleted: &[bool], from: usize, t: Reg) -> bool {
    for (instr, _) in code[from..].iter().zip(&deleted[from..]).filter(|(_, &gone)| !gone) {
        let (mut read, mut written) = (false, false);
        for_each_reg_role(instr, |r, role| {
            read |= r == t && role != Role::Write;
            written |= r == t && role != Role::Read;
        });
        if read || written {
            return !read;
        }
    }
    true
}

/// Rewrite reads of `t` in `instr` to `src`, but only in operand positions
/// whose execution errors on an unset register — forwarding must not turn
/// an unbound-variable error into silent control flow.  Returns `None`
/// when the instruction does not read `t` in such a position.
fn forward_operand(instr: Instr, t: Reg, src: Reg) -> Option<Instr> {
    let sub = |r: Reg| if r == t { src } else { r };
    match instr {
        Instr::Mov { dst, src: s } if s == t => Some(Instr::Mov { dst, src }),
        Instr::Load { dst, buf, idx } if idx == t => Some(Instr::Load { dst, buf, idx: src }),
        Instr::Store { buf, idx, val, reduce } if val == t && idx != t => {
            Some(Instr::Store { buf, idx, val: src, reduce })
        }
        Instr::Unary { op, dst, src: s } if s == t => Some(Instr::Unary { op, dst, src }),
        Instr::Binary { op, dst, lhs, rhs } if lhs == t || rhs == t => {
            Some(Instr::Binary { op, dst, lhs: sub(lhs), rhs: sub(rhs) })
        }
        Instr::BinaryImm { op, dst, lhs, cidx } if lhs == t => {
            Some(Instr::BinaryImm { op, dst, lhs: src, cidx })
        }
        Instr::LoadBinary { op, dst, lhs, buf, idx } if lhs == t || idx == t => {
            Some(Instr::LoadBinary { op, dst, lhs: sub(lhs), buf, idx: sub(idx) })
        }
        Instr::Append { buf, val } if val == t => Some(Instr::Append { buf, val: src }),
        Instr::JumpIfFalse { src: s, target, strict } if s == t => {
            Some(Instr::JumpIfFalse { src, target, strict })
        }
        Instr::JumpIfTrue { src: s, target } if s == t => Some(Instr::JumpIfTrue { src, target }),
        Instr::WhileTest { cond, end } if cond == t => Some(Instr::WhileTest { cond: src, end }),
        Instr::CmpBranch { op, lhs, rhs, target, strict } if lhs == t || rhs == t => {
            Some(Instr::CmpBranch { op, lhs: sub(lhs), rhs: sub(rhs), target, strict })
        }
        Instr::CmpBranchImm { op, lhs, cidx, target, strict } if lhs == t => {
            Some(Instr::CmpBranchImm { op, lhs: src, cidx, target, strict })
        }
        Instr::WhileCmp { op, lhs, rhs, end } if lhs == t || rhs == t => {
            Some(Instr::WhileCmp { op, lhs: sub(lhs), rhs: sub(rhs), end })
        }
        Instr::WhileCmpImm { op, lhs, cidx, end } if lhs == t => {
            Some(Instr::WhileCmpImm { op, lhs: src, cidx, end })
        }
        // CoerceInt mutates its register in place; Seek/ForTest read raw
        // integer lanes; JumpIf(Not)Missing does not fault on unset.  None
        // of those may receive a forwarded operand.
        _ => None,
    }
}

/// What a fused pair replaces: the superinstruction plus bookkeeping.
enum Fused {
    /// `Mov` forwarding: the consumer with the temp replaced by the source.
    Forward(Instr),
    /// A genuine superinstruction.
    Super(Instr),
}

/// Rewrite the destination of a value-producing instruction.  Only
/// instructions that unconditionally write a fresh value to `dst` (and do
/// not also read it) qualify; the caller has already checked the original
/// destination is an otherwise-dead temp.
fn retarget_dst(instr: Instr, dst: Reg) -> Option<Instr> {
    Some(match instr {
        Instr::Const { cidx, .. } => Instr::Const { dst, cidx },
        Instr::Mov { src, .. } => Instr::Mov { dst, src },
        Instr::Load { buf, idx, .. } => Instr::Load { dst, buf, idx },
        Instr::Unary { op, src, .. } => Instr::Unary { op, dst, src },
        Instr::Binary { op, lhs, rhs, .. } => Instr::Binary { op, dst, lhs, rhs },
        Instr::BinaryImm { op, lhs, cidx, .. } => Instr::BinaryImm { op, dst, lhs, cidx },
        Instr::LoadBinary { op, lhs, buf, idx, .. } => Instr::LoadBinary { op, dst, lhs, buf, idx },
        Instr::Seek { buf, lo, hi, key, on_abs, .. } => {
            Instr::Seek { dst, buf, lo, hi, key, on_abs }
        }
        _ => return None,
    })
}

/// Try to fuse the adjacent pair `(a, b)`; `after` is the index just past
/// `b`, from which temp liveness is read off the surviving instructions.
fn try_fuse(
    a: &Instr,
    b: &Instr,
    code: &[Instr],
    deleted: &[bool],
    after: usize,
    num_vars: usize,
) -> Option<Fused> {
    let is_temp = |r: Reg| r.index() >= num_vars;
    // The forwarded/fused temp must not be observable afterwards, unless
    // the consumer itself redefines it.
    let consumed =
        |t: Reg| is_temp(t) && (b.written_reg() == Some(t) || dead_after(code, deleted, after, t));

    // Operand forwarding: `Mov t, src ; I(reads t)` → `I(reads src)`.
    if let Instr::Mov { dst: t, src } = *a {
        if src != t && consumed(t) {
            if let Some(instr) = forward_operand(*b, t, src) {
                return Some(Fused::Forward(instr));
            }
        }
    }
    // Destination forwarding: `I(writes t) ; Mov dst, t` → `I(writes dst)`
    // — collapses the temp chain every self-referential assignment emits.
    if let Instr::Mov { dst, src: t } = *b {
        if dst != t
            && a.written_reg() == Some(t)
            && is_temp(t)
            && !reads_reg(a, t)
            && dead_after(code, deleted, after, t)
        {
            if let Some(instr) = retarget_dst(*a, dst) {
                return Some(Fused::Forward(instr));
            }
        }
    }
    let fused = match (a, b) {
        (&Instr::Const { dst: t, cidx }, &Instr::Binary { op, dst, lhs, rhs })
            if rhs == t && lhs != t && consumed(t) =>
        {
            Instr::BinaryImm { op, dst, lhs, cidx }
        }
        (&Instr::Load { dst: t, buf, idx }, &Instr::Binary { op, dst, lhs, rhs })
            if rhs == t && lhs != t && idx != t && consumed(t) =>
        {
            Instr::LoadBinary { op, dst, lhs, buf, idx }
        }
        (&Instr::Binary { op, dst: t, lhs, rhs }, &Instr::JumpIfFalse { src, target, strict })
            if src == t && is_cmp_op(op) && is_temp(t) && dead_after(code, deleted, after, t) =>
        {
            Instr::CmpBranch { op, lhs, rhs, target, strict }
        }
        (
            &Instr::BinaryImm { op, dst: t, lhs, cidx },
            &Instr::JumpIfFalse { src, target, strict },
        ) if src == t && is_cmp_op(op) && is_temp(t) && dead_after(code, deleted, after, t) => {
            Instr::CmpBranchImm { op, lhs, cidx, target, strict }
        }
        (&Instr::Binary { op, dst: t, lhs, rhs }, &Instr::WhileTest { cond, end })
            if cond == t && is_cmp_op(op) && is_temp(t) && dead_after(code, deleted, after, t) =>
        {
            Instr::WhileCmp { op, lhs, rhs, end }
        }
        (&Instr::BinaryImm { op, dst: t, lhs, cidx }, &Instr::WhileTest { cond, end })
            if cond == t && is_cmp_op(op) && is_temp(t) && dead_after(code, deleted, after, t) =>
        {
            Instr::WhileCmpImm { op, lhs, cidx, end }
        }
        _ => return None,
    };
    Some(Fused::Super(fused))
}

/// Fuse `code` to a (bounded) fixpoint, in rounds: each round tries the
/// adjacent pairs left to right, and a pair that fuses is skipped over, so
/// a fused instruction meets its neighbours in the next round (`Mov`
/// forwarding makes a compare adjacent to its branch).  The rounds work in
/// place — a fused instruction takes its first half's slot, the second
/// half's is marked deleted, so jump targets (never a second half) stay put
/// until the one compaction at the end — and from the second round on only
/// pairs next to an instruction the previous round fused are tried: any
/// other pair failed then and would fail again, because a fusion removes a
/// temp's read only together with the write that feeds it, which leaves
/// every liveness answer as it was.
fn fuse(code: &mut Vec<Instr>, num_vars: usize, stats: &mut OptStats) {
    let mut edges = edge_table(code);
    let targets = jump_targets_of(&edges);
    let mut deleted = vec![false; code.len()];
    // Instructions the previous round fused (the first round tries all).
    let mut fresh = vec![true; code.len()];
    let mut fused_now = vec![false; code.len()];
    let next_live = |deleted: &[bool], i: usize| (i + 1..deleted.len()).find(|&j| !deleted[j]);
    // Kernels settle within a few rounds.
    for _ in 0..8 {
        let mut changed = false;
        let mut i = 0;
        while let Some(j) = next_live(&deleted, i) {
            // Never fuse into a jump target: entering between the halves
            // must stay possible.
            let pair = if (fresh[i] || fresh[j]) && !targets[j] {
                try_fuse(&code[i], &code[j], code, &deleted, j + 1, num_vars)
            } else {
                None
            };
            let Some(kind) = pair else {
                i = j;
                continue;
            };
            code[i] = match kind {
                Fused::Forward(instr) => {
                    stats.movs_eliminated += 1;
                    instr
                }
                Fused::Super(instr) => {
                    stats.instrs_fused += 1;
                    instr
                }
            };
            // At most one half of a pair jumps: the fused instruction does.
            debug_assert!(edges[i] == NO_EDGE || edges[j] == NO_EDGE);
            edges[i] = edges[i].min(edges[j]);
            deleted[j] = true;
            fused_now[i] = true;
            changed = true;
            let Some(after) = next_live(&deleted, j) else { break };
            i = after;
        }
        if !changed {
            break;
        }
        std::mem::swap(&mut fresh, &mut fused_now);
        fused_now.fill(false);
    }
    // `map[old_pc]` = new pc of the instruction that carries old_pc's
    // semantics (for a fused pair, both halves map to the fused position).
    let mut map = Vec::with_capacity(code.len() + 1);
    let mut kept = 0u32;
    for &gone in &deleted {
        map.push(if gone { kept - 1 } else { kept });
        kept += !gone as u32;
    }
    // A target may be one past the last instruction (loop ends).
    map.push(kept);
    let mut gone = deleted.iter();
    code.retain(|_| !gone.next().expect("one flag per instruction"));
    let jumps = edges.iter().zip(&deleted).filter(|(_, &gone)| !gone).map(|(&edge, _)| edge);
    for (instr, edge) in code.iter_mut().zip(jumps).filter(|&(_, edge)| edge != NO_EDGE) {
        *instr.target_mut().expect("an edge is a target") = map[edge as usize];
    }
}

/// Renumber surviving temp registers into a dense range just above the
/// variable registers (which keep their [`crate::var::Var`]-indexed slots).
fn compact_registers(p: &mut Program, stats: &mut OptStats) {
    const UNUSED: u32 = u32::MAX;
    let num_vars = p.num_vars();
    // Per register: its new index, `UNUSED` for a temp no instruction names.
    let mut remap: Vec<u32> = (0..p.num_regs as u32).collect();
    remap[num_vars..].fill(UNUSED);
    for instr in &p.code {
        for_each_reg_role(instr, |r, _| remap[r.index()] = r.0);
    }
    let mut next = num_vars as u32;
    for slot in remap[num_vars..].iter_mut().filter(|slot| **slot != UNUSED) {
        *slot = next;
        next += 1;
    }
    stats.regs_saved += (p.num_regs - next as usize) as u64;
    for instr in &mut p.code {
        for_each_reg_role_mut(instr, |r, _| *r = Reg(remap[r.index()]));
    }
    // Pretags (if the typing pass ever ran before compaction) follow the
    // same renumbering; pretags of dropped temps are dropped with them.
    p.pretags.retain_mut(|(r, _)| {
        *r = Reg(remap[r.index()]);
        r.0 != UNUSED
    });
    p.num_regs = next as usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::expr::{BinOp, Expr};
    use crate::interp::ExecStats;
    use crate::stmt::Stmt;
    use crate::var::Names;
    use crate::vm::Vm;

    fn optimize(program: &Program) -> (Program, OptStats) {
        let mut stats = OptStats::default();
        let p = peephole(program, &mut stats);
        p.validate().expect("peepholed program validates");
        (p, stats)
    }

    /// Run raw and peepholed programs and assert bit-identical buffers and
    /// work counters.
    fn assert_peephole_parity(prog: &[Stmt], names: &Names, bufs: &BufferSet) -> OptStats {
        let raw = Program::compile(prog, names);
        raw.validate().expect("raw program validates");
        let (opt, stats) = optimize(&raw);

        let run = |p: &Program| -> (BufferSet, ExecStats) {
            let mut bufs = bufs.clone();
            let mut vm = Vm::new(p);
            vm.run(p, &mut bufs).expect("program runs");
            (bufs, vm.stats())
        };
        let (raw_bufs, raw_stats) = run(&raw);
        let (opt_bufs, opt_stats) = run(&opt);
        assert_eq!(raw_stats, opt_stats, "work counters diverge");
        // Both shapes are what the typing pass sees: keep it honest on them.
        crate::opt::typing::specialize_checked(&raw, bufs);
        crate::opt::typing::specialize_checked(&opt, bufs);
        for (id, name, buf) in raw_bufs.iter() {
            assert_eq!(buf, opt_bufs.get(id), "buffer {name} diverges");
        }
        stats
    }

    /// `while p < n { out[0] += x[p]; p = p + 1 }`: the classic merge-loop
    /// shape.  Fusion must produce a `WhileCmp`, a `BinaryImm` (the `p + 1`
    /// increment) and eliminate the operand `Mov`s, with identical results.
    #[test]
    fn merge_loop_shape_fuses_and_stays_bit_identical() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let p = names.fresh("p");
        let n = names.fresh("n");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: n, init: Expr::int(4) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::Var(n)),
                body: vec![
                    Stmt::Store {
                        buf: out,
                        index: Expr::int(0),
                        value: Expr::load(x, Expr::Var(p)),
                        reduce: Some(BinOp::Add),
                    },
                    Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) },
                ],
            },
        ];
        let stats = assert_peephole_parity(&prog, &names, &bufs);
        assert!(stats.movs_eliminated > 0, "{stats:?}");
        assert!(stats.instrs_fused > 0, "{stats:?}");

        let raw = Program::compile(&prog, &names);
        let (opt, _) = optimize(&raw);
        assert!(opt.code().len() < raw.code().len(), "fewer dispatches");
        assert!(opt.num_regs() <= raw.num_regs(), "register file never grows");
        let has = |pred: &dyn Fn(&Instr) -> bool| opt.code().iter().any(pred);
        assert!(has(&|i| matches!(i, Instr::WhileCmp { .. })), "\n{}", opt.disasm());
        assert!(has(&|i| matches!(i, Instr::BinaryImm { .. })), "\n{}", opt.disasm());
    }

    /// `if x[i] != 0 { ... }` compiles to Load + Binary + JumpIfFalse; the
    /// pass must produce a LoadBinary or CmpBranch chain while counting the
    /// load exactly once.
    #[test]
    fn guarded_load_fuses_with_exact_load_counts() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![0.0, 1.5, 0.0, 2.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![Stmt::if_then(
                Expr::binary(BinOp::Ne, Expr::load(x, Expr::Var(i)), Expr::float(0.0)),
                vec![Stmt::Store {
                    buf: out,
                    index: Expr::int(0),
                    value: Expr::load(x, Expr::Var(i)),
                    reduce: Some(BinOp::Add),
                }],
            )],
        }];
        let stats = assert_peephole_parity(&prog, &names, &bufs);
        assert!(stats.instrs_fused > 0, "{stats:?}");
    }

    #[test]
    fn jump_targets_are_never_fused_over() {
        // select writes its destination on two paths that join at the
        // consumer; the consumer is a jump target and must not absorb the
        // else-path Mov.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let a = names.fresh("a");
        let b = names.fresh("b");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::int(7) },
            Stmt::Let { var: b, init: Expr::int(3) },
            Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::add(
                    Expr::Var(b),
                    Expr::select(
                        Expr::lt(Expr::Var(a), Expr::int(5)),
                        Expr::int(100),
                        Expr::Var(a),
                    ),
                ),
                reduce: None,
            },
        ];
        assert_peephole_parity(&prog, &names, &bufs);
    }

    #[test]
    fn seek_heavy_code_survives_fusion() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![1, 4, 4, 9, 12].into()));
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let v = names.fresh("v");
        let prog = vec![
            Stmt::Let {
                var: v,
                init: Expr::search(idx, Expr::int(0), Expr::int(4), Expr::int(10), false),
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(v), reduce: None },
        ];
        assert_peephole_parity(&prog, &names, &bufs);
    }

    #[test]
    fn short_circuit_and_coalesce_survive_fusion() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::I64(vec![3].into()));
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let q = names.fresh("q");
        let prog = vec![
            Stmt::Let { var: q, init: Expr::int(5) },
            Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::select(
                    Expr::binary(
                        BinOp::And,
                        Expr::lt(Expr::Var(q), Expr::int(1)),
                        Expr::eq(Expr::load(x, Expr::Var(q)), Expr::int(3)),
                    ),
                    Expr::int(1),
                    Expr::coalesce(vec![Expr::missing(), Expr::Var(q)]),
                ),
                reduce: None,
            },
        ];
        assert_peephole_parity(&prog, &names, &bufs);
    }

    #[test]
    fn register_compaction_shrinks_the_file() {
        let mut names = Names::new();
        let a = names.fresh("a");
        // Deeply nested constant expression: the raw compiler allocates a
        // LIFO tower of temps, most of which die after fusion.
        let deep = Expr::add(
            Expr::add(Expr::int(1), Expr::int(2)),
            Expr::add(Expr::int(3), Expr::add(Expr::int(4), Expr::int(5))),
        );
        let prog = vec![Stmt::Let { var: a, init: deep }];
        let raw = Program::compile(&prog, &names);
        let (opt, stats) = optimize(&raw);
        assert!(opt.num_regs() < raw.num_regs(), "{} -> {}", raw.num_regs(), opt.num_regs());
        assert!(stats.regs_saved > 0);
    }

    /// Golden disassembly of the fused merge-loop head: any change to the
    /// superinstruction encodings (operand order, fusion choices) shows up
    /// as a diff here.
    #[test]
    fn golden_disasm_of_fused_while_head() {
        let mut names = Names::new();
        let p = names.fresh("p");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(3)),
                body: vec![Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) }],
            },
        ];
        let raw = Program::compile(&prog, &names);
        let (opt, _) = optimize(&raw);
        let expected = "   0: stmt
   1: p = const 0
   2: stmt
   3: while p < const 3 else -> 7
   4: stmt
   5: p = p + const 1
   6: jump -> 3
";
        assert_eq!(opt.disasm(), expected, "\nraw was:\n{}", raw.disasm());
    }

    #[test]
    fn unbound_variable_errors_are_preserved() {
        // `let a = mystery + 1` with mystery unbound must still fail with
        // the unbound-variable error after Mov forwarding.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let a = names.fresh("a");
        let mystery = names.fresh("mystery");
        let prog = vec![Stmt::Let { var: a, init: Expr::add(Expr::Var(mystery), Expr::int(1)) }];
        let raw = Program::compile(&prog, &names);
        let (opt, _) = optimize(&raw);
        let mut vm = Vm::new(&opt);
        let err = vm.run(&opt, &mut bufs).unwrap_err();
        match err {
            crate::error::RuntimeError::UnboundVariable { name } => assert_eq!(name, "mystery"),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
