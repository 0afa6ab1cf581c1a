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

use std::collections::{BTreeSet, HashMap};

use crate::bytecode::{jump_targets, remap_targets, Instr, Program, Reg, VBase, VFill, VRhs};
use crate::expr::BinOp;

use super::OptStats;

/// Run peephole fusion (to a bounded fixpoint) and register coalescing
/// over a compiled program, returning the optimised copy.
pub fn peephole(program: &Program, stats: &mut OptStats) -> Program {
    let mut p = program.clone();
    // Each round can expose new pairs (e.g. `Mov` forwarding makes a
    // compare adjacent to its branch); kernels settle within a few rounds.
    for _ in 0..8 {
        let (next, changed) = fuse_round(&p, stats);
        p = next;
        if !changed {
            break;
        }
    }
    compact_registers(&mut p, stats);
    p
}

fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// Visit every register operand of an instruction — reads *and* writes —
/// mutably.  This is the single authoritative operand enumeration used by
/// register compaction: an operand missed here would keep a stale index
/// after renumbering, so there is deliberately exactly one such list.
fn for_each_reg(instr: &mut Instr, f: &mut dyn FnMut(&mut Reg)) {
    match instr {
        Instr::BumpStmt | Instr::Jump { .. } | Instr::FiberEnd { .. } => {}
        Instr::Const { dst, .. } | Instr::BufLen { dst, .. } => f(dst),
        Instr::Mov { dst, src } | Instr::Unary { dst, src, .. } => {
            f(dst);
            f(src);
        }
        Instr::Load { dst, idx, .. } => {
            f(dst);
            f(idx);
        }
        Instr::CoerceInt { reg } => f(reg),
        Instr::Store { idx, val, .. } => {
            f(idx);
            f(val);
        }
        Instr::Binary { dst, lhs, rhs, .. } => {
            f(dst);
            f(lhs);
            f(rhs);
        }
        Instr::JumpIfFalse { src, .. }
        | Instr::JumpIfTrue { src, .. }
        | Instr::JumpIfMissing { src, .. }
        | Instr::JumpIfNotMissing { src, .. } => f(src),
        Instr::WhileTest { cond, .. } => f(cond),
        Instr::ForTest { counter, hi, var, .. } => {
            f(counter);
            f(hi);
            f(var);
        }
        Instr::ForStep { counter, .. } => f(counter),
        Instr::Append { val, .. } => f(val),
        Instr::Seek { dst, lo, hi, key, .. } => {
            f(dst);
            f(lo);
            f(hi);
            f(key);
        }
        Instr::BinaryImm { dst, lhs, .. } => {
            f(dst);
            f(lhs);
        }
        Instr::LoadBinary { dst, lhs, idx, .. } => {
            f(dst);
            f(lhs);
            f(idx);
        }
        Instr::CmpBranch { lhs, rhs, .. } | Instr::WhileCmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Instr::CmpBranchImm { lhs, .. } | Instr::WhileCmpImm { lhs, .. } => f(lhs),
        Instr::Nop => {}
        Instr::ConstI { dst, .. } | Instr::ConstF { dst, .. } | Instr::ILen { dst, .. } => f(dst),
        Instr::IMov { dst, src } | Instr::FMov { dst, src } | Instr::FRound { dst, src } => {
            f(dst);
            f(src);
        }
        Instr::LoadI64 { dst, idx, .. }
        | Instr::LoadF64 { dst, idx, .. }
        | Instr::LoadU8 { dst, idx, .. } => {
            f(dst);
            f(idx);
        }
        Instr::FMulLoad { dst, lhs, idx, .. } => {
            f(dst);
            f(lhs);
            f(idx);
        }
        Instr::StoreF64 { idx, val, .. } | Instr::StoreU8 { idx, val, .. } => {
            f(idx);
            f(val);
        }
        Instr::IAppend { val, .. } | Instr::FAppend { val, .. } => f(val),
        Instr::IArith { dst, lhs, rhs, .. } | Instr::FArith { dst, lhs, rhs, .. } => {
            f(dst);
            f(lhs);
            f(rhs);
        }
        Instr::IArithImm { dst, lhs, .. } | Instr::FArithImm { dst, lhs, .. } => {
            f(dst);
            f(lhs);
        }
        Instr::ICmpBranch { lhs, rhs, .. }
        | Instr::FCmpBranch { lhs, rhs, .. }
        | Instr::IWhileCmp { lhs, rhs, .. }
        | Instr::FWhileCmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Instr::ICmpBranchImm { lhs, .. }
        | Instr::FCmpBranchImm { lhs, .. }
        | Instr::IWhileCmpImm { lhs, .. } => f(lhs),
        Instr::IForTest { counter, hi, var, .. } => {
            f(counter);
            f(hi);
            f(var);
        }
        Instr::ISeek { dst, lo, hi, key, .. } => {
            f(dst);
            f(lo);
            f(hi);
            f(key);
        }
        // Vectorized kernel ops (inserted after this pass runs, but the
        // operand enumeration stays authoritative): the loop counter and
        // bound registers, plus every row-base register.
        Instr::VFillStoreF64 { base, val, counter, hi, .. } => {
            vbase_reg(base, f);
            if let VFill::Reg(reg) = val {
                f(reg);
            }
            f(counter);
            f(hi);
        }
        Instr::VMapF64 { dst_base, a_base, rhs, counter, hi, .. } => {
            vbase_reg(dst_base, f);
            vbase_reg(a_base, f);
            if let VRhs::Buf { base, .. } = rhs {
                vbase_reg(base, f);
            }
            f(counter);
            f(hi);
        }
        Instr::VMulAddF64 { a_base, b_base, counter, hi, .. } => {
            vbase_reg(a_base, f);
            vbase_reg(b_base, f);
            f(counter);
            f(hi);
        }
        Instr::VReduceF64 { base, counter, hi, .. } => {
            vbase_reg(base, f);
            f(counter);
            f(hi);
        }
        Instr::VAppendRangeF64 { base, counter, hi, .. } => {
            vbase_reg(base, f);
            f(counter);
            f(hi);
        }
        Instr::VCmpSelectU8 { dst_base, src_base, counter, hi, .. } => {
            vbase_reg(dst_base, f);
            vbase_reg(src_base, f);
            f(counter);
            f(hi);
        }
    }
}

/// Visit the register of a [`VBase::Scaled`] index shape, if any.
fn vbase_reg(base: &mut VBase, f: &mut dyn FnMut(&mut Reg)) {
    if let VBase::Scaled { reg, .. } = base {
        f(reg);
    }
}

/// Whether a [`VBase`] reads the given register.
fn vbase_reads(base: VBase, r: Reg) -> bool {
    matches!(base, VBase::Scaled { reg, .. } if reg == r)
}

/// The register an instruction writes, if any.
fn writes(instr: &Instr) -> Option<Reg> {
    match *instr {
        Instr::Const { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::BufLen { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::Unary { dst, .. }
        | Instr::Binary { dst, .. }
        | Instr::Seek { dst, .. }
        | Instr::BinaryImm { dst, .. }
        | Instr::LoadBinary { dst, .. } => Some(dst),
        Instr::CoerceInt { reg } => Some(reg),
        Instr::ForTest { var, .. } => Some(var),
        Instr::ForStep { counter, .. } => Some(counter),
        Instr::ConstI { dst, .. }
        | Instr::ConstF { dst, .. }
        | Instr::IMov { dst, .. }
        | Instr::FMov { dst, .. }
        | Instr::ILen { dst, .. }
        | Instr::LoadI64 { dst, .. }
        | Instr::LoadF64 { dst, .. }
        | Instr::LoadU8 { dst, .. }
        | Instr::FMulLoad { dst, .. }
        | Instr::IArith { dst, .. }
        | Instr::FArith { dst, .. }
        | Instr::IArithImm { dst, .. }
        | Instr::FArithImm { dst, .. }
        | Instr::FRound { dst, .. }
        | Instr::ISeek { dst, .. } => Some(dst),
        Instr::IForTest { var, .. } => Some(var),
        // The vectorized kernel ops advance the loop counter.
        Instr::VFillStoreF64 { counter, .. }
        | Instr::VMapF64 { counter, .. }
        | Instr::VMulAddF64 { counter, .. }
        | Instr::VReduceF64 { counter, .. }
        | Instr::VAppendRangeF64 { counter, .. }
        | Instr::VCmpSelectU8 { counter, .. } => Some(counter),
        _ => None,
    }
}

/// Allocation-free variant of [`reads`]`.contains(&r)` for the hot
/// liveness scan.
fn reads_reg(instr: &Instr, r: Reg) -> bool {
    match *instr {
        Instr::Mov { src, .. } => src == r,
        Instr::Load { idx, .. } => idx == r,
        Instr::CoerceInt { reg } => reg == r,
        Instr::Store { idx, val, .. } => idx == r || val == r,
        Instr::Unary { src, .. } => src == r,
        Instr::Binary { lhs, rhs, .. } => lhs == r || rhs == r,
        Instr::JumpIfFalse { src, .. }
        | Instr::JumpIfTrue { src, .. }
        | Instr::JumpIfMissing { src, .. }
        | Instr::JumpIfNotMissing { src, .. } => src == r,
        Instr::WhileTest { cond, .. } => cond == r,
        Instr::ForTest { counter, hi, .. } => counter == r || hi == r,
        Instr::ForStep { counter, .. } => counter == r,
        Instr::Append { val, .. } => val == r,
        Instr::Seek { lo, hi, key, .. } => lo == r || hi == r || key == r,
        Instr::BinaryImm { lhs, .. } => lhs == r,
        Instr::LoadBinary { lhs, idx, .. } => lhs == r || idx == r,
        Instr::CmpBranch { lhs, rhs, .. } => lhs == r || rhs == r,
        Instr::CmpBranchImm { lhs, .. } => lhs == r,
        Instr::WhileCmp { lhs, rhs, .. } => lhs == r || rhs == r,
        Instr::WhileCmpImm { lhs, .. } => lhs == r,
        Instr::BumpStmt
        | Instr::Const { .. }
        | Instr::BufLen { .. }
        | Instr::Jump { .. }
        | Instr::FiberEnd { .. } => false,
        Instr::IMov { src, .. } | Instr::FMov { src, .. } | Instr::FRound { src, .. } => src == r,
        Instr::LoadI64 { idx, .. } | Instr::LoadF64 { idx, .. } | Instr::LoadU8 { idx, .. } => {
            idx == r
        }
        Instr::FMulLoad { lhs, idx, .. } => lhs == r || idx == r,
        Instr::StoreF64 { idx, val, .. } | Instr::StoreU8 { idx, val, .. } => idx == r || val == r,
        Instr::IAppend { val, .. } | Instr::FAppend { val, .. } => val == r,
        Instr::IArith { lhs, rhs, .. }
        | Instr::FArith { lhs, rhs, .. }
        | Instr::ICmpBranch { lhs, rhs, .. }
        | Instr::FCmpBranch { lhs, rhs, .. }
        | Instr::IWhileCmp { lhs, rhs, .. }
        | Instr::FWhileCmp { lhs, rhs, .. } => lhs == r || rhs == r,
        Instr::IArithImm { lhs, .. }
        | Instr::FArithImm { lhs, .. }
        | Instr::ICmpBranchImm { lhs, .. }
        | Instr::FCmpBranchImm { lhs, .. }
        | Instr::IWhileCmpImm { lhs, .. } => lhs == r,
        Instr::IForTest { counter, hi, .. } => counter == r || hi == r,
        Instr::ISeek { lo, hi, key, .. } => lo == r || hi == r || key == r,
        Instr::Nop | Instr::ConstI { .. } | Instr::ConstF { .. } | Instr::ILen { .. } => false,
        Instr::VFillStoreF64 { base, val, counter, hi, .. } => {
            vbase_reads(base, r) || val == VFill::Reg(r) || counter == r || hi == r
        }
        Instr::VMapF64 { dst_base, a_base, rhs, counter, hi, .. } => {
            let rhs_reads = matches!(rhs, VRhs::Buf { base, .. } if vbase_reads(base, r));
            vbase_reads(dst_base, r)
                || vbase_reads(a_base, r)
                || rhs_reads
                || counter == r
                || hi == r
        }
        Instr::VMulAddF64 { a_base, b_base, counter, hi, .. } => {
            vbase_reads(a_base, r) || vbase_reads(b_base, r) || counter == r || hi == r
        }
        Instr::VReduceF64 { base, counter, hi, .. } => {
            vbase_reads(base, r) || counter == r || hi == r
        }
        Instr::VAppendRangeF64 { base, counter, hi, .. } => {
            vbase_reads(base, r) || counter == r || hi == r
        }
        Instr::VCmpSelectU8 { dst_base, src_base, counter, hi, .. } => {
            vbase_reads(dst_base, r) || vbase_reads(src_base, r) || counter == r || hi == r
        }
    }
}

/// Whether `t` is dead after position `from`: no instruction reads it
/// before it is next written (reads are checked first — an instruction
/// that both reads and writes `t` keeps it alive).
fn dead_after(code: &[Instr], from: usize, t: Reg) -> bool {
    for instr in &code[from..] {
        if reads_reg(instr, t) {
            return false;
        }
        if writes(instr) == Some(t) {
            return true;
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
        Instr::BufLen { buf, .. } => Instr::BufLen { dst, buf },
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

/// Try to fuse the adjacent pair `(a, b)`; `after` is the index of the
/// first instruction past the pair, used for temp liveness.
fn try_fuse(a: Instr, b: Instr, code: &[Instr], after: usize, num_vars: usize) -> Option<Fused> {
    let is_temp = |r: Reg| r.index() >= num_vars;
    // The forwarded/fused temp must not be observable afterwards, unless
    // the consumer itself redefines it.
    let consumed = |t: Reg| is_temp(t) && (writes(&b) == Some(t) || dead_after(code, after, t));

    // Operand forwarding: `Mov t, src ; I(reads t)` → `I(reads src)`.
    if let Instr::Mov { dst: t, src } = a {
        if src != t && consumed(t) {
            if let Some(instr) = forward_operand(b, t, src) {
                return Some(Fused::Forward(instr));
            }
        }
    }
    // Destination forwarding: `I(writes t) ; Mov dst, t` → `I(writes dst)`
    // — collapses the temp chain every self-referential assignment emits.
    if let Instr::Mov { dst, src: t } = b {
        if dst != t
            && writes(&a) == Some(t)
            && is_temp(t)
            && !reads_reg(&a, t)
            && dead_after(code, after, t)
        {
            if let Some(instr) = retarget_dst(a, dst) {
                return Some(Fused::Forward(instr));
            }
        }
    }
    let fused = match (a, b) {
        (Instr::Const { dst: t, cidx }, Instr::Binary { op, dst, lhs, rhs })
            if rhs == t && lhs != t && consumed(t) =>
        {
            Instr::BinaryImm { op, dst, lhs, cidx }
        }
        (Instr::Load { dst: t, buf, idx }, Instr::Binary { op, dst, lhs, rhs })
            if rhs == t && lhs != t && idx != t && consumed(t) =>
        {
            Instr::LoadBinary { op, dst, lhs, buf, idx }
        }
        (Instr::Binary { op, dst: t, lhs, rhs }, Instr::JumpIfFalse { src, target, strict })
            if src == t && is_cmp(op) && is_temp(t) && dead_after(code, after, t) =>
        {
            Instr::CmpBranch { op, lhs, rhs, target, strict }
        }
        (
            Instr::BinaryImm { op, dst: t, lhs, cidx },
            Instr::JumpIfFalse { src, target, strict },
        ) if src == t && is_cmp(op) && is_temp(t) && dead_after(code, after, t) => {
            Instr::CmpBranchImm { op, lhs, cidx, target, strict }
        }
        (Instr::Binary { op, dst: t, lhs, rhs }, Instr::WhileTest { cond, end })
            if cond == t && is_cmp(op) && is_temp(t) && dead_after(code, after, t) =>
        {
            Instr::WhileCmp { op, lhs, rhs, end }
        }
        (Instr::BinaryImm { op, dst: t, lhs, cidx }, Instr::WhileTest { cond, end })
            if cond == t && is_cmp(op) && is_temp(t) && dead_after(code, after, t) =>
        {
            Instr::WhileCmpImm { op, lhs, cidx, end }
        }
        _ => return None,
    };
    Some(Fused::Super(fused))
}

/// One fusion round over the whole program.  Returns the rewritten program
/// and whether anything changed.
fn fuse_round(p: &Program, stats: &mut OptStats) -> (Program, bool) {
    let code = &p.code;
    let targets = jump_targets(code);
    let num_vars = p.num_vars();
    let mut new_code: Vec<Instr> = Vec::with_capacity(code.len());
    // `map[old_pc]` = new pc of the instruction that carries old_pc's
    // semantics (for a fused pair, both halves map to the fused position).
    let mut map: Vec<u32> = Vec::with_capacity(code.len() + 1);
    let mut changed = false;
    let mut i = 0usize;
    while i < code.len() {
        let fused = code
            .get(i + 1)
            // Never fuse into a jump target: entering between the halves
            // must stay possible.
            .filter(|_| !targets[i + 1])
            .and_then(|&b| try_fuse(code[i], b, code, i + 2, num_vars));
        match fused {
            Some(kind) => {
                let instr = match kind {
                    Fused::Forward(instr) => {
                        stats.movs_eliminated += 1;
                        instr
                    }
                    Fused::Super(instr) => {
                        stats.instrs_fused += 1;
                        instr
                    }
                };
                map.push(new_code.len() as u32);
                map.push(new_code.len() as u32);
                new_code.push(instr);
                changed = true;
                i += 2;
            }
            None => {
                map.push(new_code.len() as u32);
                new_code.push(code[i]);
                i += 1;
            }
        }
    }
    // A target may be one past the last instruction (loop ends).
    map.push(new_code.len() as u32);
    remap_targets(&mut new_code, &map);
    (p.with_code(new_code), changed)
}

/// Renumber surviving temp registers into a dense range just above the
/// variable registers (which keep their [`crate::var::Var`]-indexed slots).
fn compact_registers(p: &mut Program, stats: &mut OptStats) {
    let num_vars = p.num_vars();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for instr in &p.code {
        let mut probe = *instr;
        for_each_reg(&mut probe, &mut |r| {
            if r.index() >= num_vars {
                used.insert(r.index());
            }
        });
    }
    let remap: HashMap<usize, u32> =
        used.iter().enumerate().map(|(rank, &old)| (old, (num_vars + rank) as u32)).collect();
    let new_num_regs = num_vars + used.len();
    if new_num_regs < p.num_regs {
        stats.regs_saved += (p.num_regs - new_num_regs) as u64;
    }
    for instr in &mut p.code {
        for_each_reg(instr, &mut |r| {
            if r.index() >= num_vars {
                *r = Reg(remap[&r.index()]);
            }
        });
    }
    // Pretags (if the typing pass ever ran before compaction) follow the
    // same renumbering; pretags of dropped temps are dropped with them.
    p.pretags.retain(|(r, _)| r.index() < num_vars || remap.contains_key(&r.index()));
    for (r, _) in &mut p.pretags {
        if r.index() >= num_vars {
            *r = Reg(remap[&r.index()]);
        }
    }
    p.num_regs = new_num_regs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::expr::Expr;
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
