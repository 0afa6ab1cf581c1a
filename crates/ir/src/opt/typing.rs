//! Static register-type inference and monomorphic instruction selection.
//!
//! The register VM keeps a one-byte runtime tag per register and pays a
//! tag dispatch on every operand of every instruction, even though almost
//! every register in generated kernel code holds exactly one type for the
//! whole program: positions and coordinates are `i64`, loaded values are
//! `f64`, buffer element types are fixed at compile time.  This pass
//! recovers that information statically and rewrites proven-monomorphic
//! instructions into the typed forms of [`crate::bytecode::Instr`], which
//! the VM executes directly on the unboxed lanes with **no tag reads or
//! writes**.
//!
//! The pass is a forward abstract interpretation over the compiled
//! [`Program`], seeded from the [`BufferSet`] schema (each buffer's
//! element type) and the constant pool.  The abstract domain is a small
//! powerset lattice over the runtime register states
//!
//! ```text
//!   { Unset, Int, Float, Bool, Missing }
//! ```
//!
//! joined by set union — a singleton `{Int}` is the issue's `Int`, a set
//! containing `Missing` plus a value kind is `MaybeMissing`, and any
//! other non-singleton is `Dyn`.  Branches refine: the fall-through edge
//! of a comparison branch knows its operands were not missing, the
//! missing-test jumps of the `coalesce`/`&&`/`||` lowerings split the
//! `Missing` possibility between their edges (which is what lets the
//! post-`coalesce` registers of the convolution kernels become statically
//! `Float` again).
//!
//! # How the fixpoint is computed
//!
//! Every cache miss of the kernel service pays this pass in-request, so it
//! is a basic-block dataflow that allocates nothing per visit.  The program
//! is partitioned into basic blocks; the solver keeps one entry state per
//! *block*, all of them rows of one flat `blocks × registers` byte arena.
//! Visiting a block copies its row into a scratch state, applies each
//! instruction's transfer rule to the scratch **in place**, and at the
//! block's end joins the scratch (refined per edge on a second scratch)
//! into the successors' rows.  The worklist is a bitmap over blocks, and the
//! lowest queued block always goes next.  The compiler emits structured
//! code, so index order is a reverse post-order — the order that bounds the
//! rounds of an iterative dataflow by the loop depth (Kam & Ullman 1976):
//! a loop settles before anything behind it is looked at, and the code after
//! it sees its final exit state the first time.
//! [`OptStats::typing_block_visits`] against [`OptStats::typing_blocks`] is
//! the measure: about two visits per block on generated kernels.  The
//! transfer rules are monotone, so the fixpoint does not depend on the
//! visiting order.  The states *inside* a block are not stored: the two
//! consumers below re-walk each block from its entry state.
//!
//! The program is inferred **once**.  Expression temporaries whose LIFO
//! slot is reused at conflicting types are split into one register per
//! type afterwards (see `SplitPlan`), and the facts about the split
//! registers follow from the first inference — every access to a split
//! register is a singleton of its kind by construction.
//!
//! # What licenses a rewrite
//!
//! 1. **Point typing** — every register the instruction *reads* has a
//!    singleton abstract state at that program point, so reading the lane
//!    without consulting the tag is equivalent.
//! 2. **Global typing** — every register the instruction *writes* is
//!    written with this one type by every instruction in the program and
//!    is never read while possibly unset.  Such registers are recorded in
//!    [`Program::pretags`]; the VM pins their tags before dispatch, so
//!    skipping the tag write is unobservable (generic instructions that
//!    read the register still see the correct tag, and the
//!    unbound-variable check can never have fired for it anyway).
//!
//! Wherever `Missing`/`coalesce`/`permit` semantics (or genuinely mixed
//! types) keep a register dynamic, the instruction simply stays in its
//! generic form — the typed and generic instruction sets interoperate
//! freely within one program.  The rewrite is strictly 1:1 (a statically
//! discharged `CoerceInt` becomes [`Instr::Nop`]; a missing-test on a
//! register that holds one value kind — the `coalesce` behind a float
//! loaded at an integer index — is decided: `JumpIfNotMissing` becomes a
//! [`Instr::Jump`], `JumpIfMissing` a `Nop`, and the `forward` pass drops
//! what that leaves unreachable), so jump targets, instruction counts and
//! [`crate::interp::ExecStats`] are bit-identical to generic dispatch.

use crate::buffer::{Buffer, BufferSet};
use crate::bytecode::{for_each_reg_role, for_each_reg_role_mut, Role};
use crate::bytecode::{is_arith_reduce, is_cmp_op, is_float_arith, is_int_arith};
use crate::bytecode::{Blocks, Instr, LaneTag, Program, Reg};
use crate::expr::{BinOp, UnOp};
use crate::value::Value;

use super::OptStats;

// The abstract domain: a bitset over possible runtime register states.
const UNSET: u8 = 1 << 0;
const INT: u8 = 1 << 1;
const FLOAT: u8 = 1 << 2;
const BOOL: u8 = 1 << 3;
const MISSING: u8 = 1 << 4;
const VALUE: u8 = INT | FLOAT | BOOL;
/// What is left of a register's state once an instruction has read it as a
/// real value: neither unset nor missing.
const REAL: u8 = !(UNSET | MISSING);

fn const_bits(v: Value) -> u8 {
    match v {
        Value::Int(_) => INT,
        Value::Float(_) => FLOAT,
        Value::Bool(_) => BOOL,
        Value::Missing => MISSING,
    }
}

fn buf_bits(buf: &Buffer) -> u8 {
    match buf {
        Buffer::I64(_) => INT,
        Buffer::F64(_) => FLOAT,
        Buffer::Bool(_) => BOOL,
    }
}

// The value rules below are monotone in their operand sets: an operand with
// no value kind at all (only unset, only missing, or nothing) contributes no
// value kind to the result — the instruction faults or yields `Missing`
// there, so nothing else can flow on.

/// Abstract result of `Value::binop` given operand bitsets.
fn binop_bits(op: BinOp, a: u8, b: u8) -> u8 {
    let missing = ((a | b) & MISSING != 0) as u8 * MISSING;
    if is_cmp_op(op) || matches!(op, BinOp::And | BinOp::Or) {
        return BOOL | missing;
    }
    // Arithmetic: integral only when both operands are integral; any
    // float or bool operand routes through the f64 path.
    let (ak, bk) = (a & VALUE, b & VALUE);
    let mut r = 0u8;
    if ak & INT != 0 && bk & INT != 0 {
        r |= INT;
    }
    if ak & (FLOAT | BOOL) != 0 || bk & (FLOAT | BOOL) != 0 {
        r |= FLOAT;
    }
    r | missing
}

/// Abstract result of `Value::unop` given the operand bitset.
fn unop_bits(op: UnOp, a: u8) -> u8 {
    let missing = (a & MISSING != 0) as u8 * MISSING;
    let k = a & VALUE;
    let base = match op {
        UnOp::Not => BOOL,
        UnOp::Sqrt | UnOp::Round => FLOAT,
        UnOp::Neg | UnOp::Abs => {
            let mut r = 0u8;
            if k & INT != 0 {
                r |= INT;
            }
            if k & (FLOAT | BOOL) != 0 {
                r |= FLOAT;
            }
            r
        }
    };
    base | missing
}

/// The register an instruction writes together with the abstract kind it
/// writes, under the given in-state.  `None` for instructions without a
/// register destination.  This is the single source of truth shared by
/// the dataflow transfer and the global write-kind accumulation.
fn write_effect(instr: &Instr, s: &[u8], consts: &[Value], bufs: &BufferSet) -> Option<(Reg, u8)> {
    let load_bits = |buf, idx: Reg| -> u8 {
        let i = s[idx.index()];
        let mut r = 0u8;
        if i & VALUE != 0 {
            r |= buf_bits(bufs.get(buf));
        }
        if i & MISSING != 0 {
            r |= MISSING;
        }
        r
    };
    Some(match *instr {
        Instr::Const { dst, cidx } => (dst, const_bits(consts[cidx as usize])),
        Instr::Mov { dst, src } => (dst, s[src.index()] & !UNSET),
        Instr::Load { dst, buf, idx } => (dst, load_bits(buf, idx)),
        Instr::CoerceInt { reg } => (reg, INT),
        Instr::Unary { op, dst, src } => (dst, unop_bits(op, s[src.index()])),
        Instr::Binary { op, dst, lhs, rhs } => {
            (dst, binop_bits(op, s[lhs.index()], s[rhs.index()]))
        }
        Instr::BinaryImm { op, dst, lhs, cidx } => {
            (dst, binop_bits(op, s[lhs.index()], const_bits(consts[cidx as usize])))
        }
        Instr::LoadBinary { op, dst, lhs, buf, idx } => {
            (dst, binop_bits(op, s[lhs.index()], load_bits(buf, idx)))
        }
        Instr::ForTest { var, .. } | Instr::IForTest { var, .. } | Instr::IForNext { var, .. } => {
            (var, INT)
        }
        Instr::ForStep { counter, .. } | Instr::IAdvance { reg: counter, .. } => (counter, INT),
        Instr::Seek { dst, .. } | Instr::ISeek { dst, .. } => (dst, INT),
        // Typed forms: what a rewritten instruction pins.
        Instr::ConstI { dst, .. } | Instr::LoadI64 { dst, .. } => (dst, INT),
        Instr::ConstF { dst, .. }
        | Instr::LoadF64 { dst, .. }
        | Instr::FMulLoad { dst, .. }
        | Instr::FRound { dst, .. } => (dst, FLOAT),
        Instr::IMov { dst, .. } | Instr::IArith { dst, .. } | Instr::IArithImm { dst, .. } => {
            (dst, INT)
        }
        Instr::FArith { dst, .. } | Instr::FArithImm { dst, .. } => (dst, FLOAT),
        _ => return None,
    })
}

/// The in-place write kind of a [`Role::ReadWrite`] field (`CoerceInt`
/// coerces to Int, `ForStep` increments an Int counter).
const READWRITE_KIND: u8 = INT;

/// Apply a straight-line instruction (one without a control-transfer
/// target) to `s` in place: the operand refinements that hold on its only
/// success continuation, then its write.
fn step(instr: &Instr, s: &mut [u8], consts: &[Value], bufs: &BufferSet) {
    // The write's kind depends on the operands as they were on entry.
    let write = write_effect(instr, s, consts, bufs);
    match *instr {
        Instr::Mov { src, .. } | Instr::Unary { src, .. } => s[src.index()] &= !UNSET,
        Instr::Load { idx, .. } | Instr::LoadBinary { idx, .. } => s[idx.index()] &= !UNSET,
        Instr::Binary { lhs, rhs, .. } => {
            s[lhs.index()] &= !UNSET;
            s[rhs.index()] &= !UNSET;
        }
        Instr::BinaryImm { lhs, .. } => s[lhs.index()] &= !UNSET,
        // A successful store/append proves the value was a real
        // (non-missing) value.
        Instr::Store { val, .. } | Instr::Append { val, .. } => s[val.index()] &= REAL,
        _ => {}
    }
    if let Some((dst, bits)) = write {
        s[dst.index()] = bits;
    }
}

/// One register update along a control edge: `state = (state & and) | or`.
/// With `or == 0` it is a refinement, and an edge whose refinement empties
/// a register's state is provably never taken.
type EdgeFx = (Reg, u8, u8);

/// Apply an edge's updates in order; `false` if the edge is never taken.
fn apply_edge(s: &mut [u8], fx: &[EdgeFx]) -> bool {
    for &(r, and, or) in fx {
        let bits = (s[r.index()] & and) | or;
        if bits == 0 {
            return false;
        }
        s[r.index()] = bits;
    }
    true
}

/// Enumerate the out-edges of a control transfer (an instruction with a
/// [`Instr::target`]) at `pc`: the successor pc and the per-edge updates.
fn for_each_edge(pc: usize, instr: &Instr, f: &mut dyn FnMut(usize, &[EdgeFx])) {
    let next = pc + 1;
    let keep = |r: Reg, mask: u8| (r, mask, 0);
    // A lenient branch lets a missing condition take the falsy edge.
    let falsy = |strict: bool| if strict { REAL } else { !UNSET };
    match *instr {
        Instr::Jump { target } => f(target as usize, &[]),
        Instr::JumpIfFalse { src, target, strict } => {
            f(next, &[keep(src, REAL)]);
            f(target as usize, &[keep(src, falsy(strict))]);
        }
        Instr::JumpIfTrue { src, target } => {
            f(target as usize, &[keep(src, REAL)]);
            f(next, &[keep(src, !UNSET)]);
        }
        // The missing tests read the tag directly: an unset register
        // counts as not missing.
        Instr::JumpIfMissing { src, target } => {
            f(target as usize, &[keep(src, MISSING)]);
            f(next, &[keep(src, !MISSING)]);
        }
        Instr::JumpIfNotMissing { src, target } => {
            f(target as usize, &[keep(src, !MISSING)]);
            f(next, &[keep(src, MISSING)]);
        }
        // A missing loop condition is a type error on either path.
        Instr::WhileTest { cond, end } => {
            f(next, &[keep(cond, REAL)]);
            f(end as usize, &[keep(cond, REAL)]);
        }
        Instr::CmpBranch { lhs, rhs, target, strict, .. } => {
            f(next, &[keep(lhs, REAL), keep(rhs, REAL)]);
            f(target as usize, &[keep(lhs, falsy(strict)), keep(rhs, falsy(strict))]);
        }
        Instr::CmpBranchImm { lhs, target, strict, .. } => {
            f(next, &[keep(lhs, REAL)]);
            f(target as usize, &[keep(lhs, falsy(strict))]);
        }
        // Typed operands cannot be missing on either edge.
        Instr::ICmpBranch { lhs, rhs, target, .. } | Instr::FCmpBranch { lhs, rhs, target, .. } => {
            f(next, &[keep(lhs, REAL), keep(rhs, REAL)]);
            f(target as usize, &[keep(lhs, REAL), keep(rhs, REAL)]);
        }
        Instr::ICmpBranchImm { lhs, target, .. } | Instr::FCmpBranchImm { lhs, target, .. } => {
            f(next, &[keep(lhs, REAL)]);
            f(target as usize, &[keep(lhs, REAL)]);
        }
        Instr::WhileCmp { lhs, rhs, end, .. }
        | Instr::IWhileCmp { lhs, rhs, end, .. }
        | Instr::IWhileNext { lhs, rhs, body: end, .. } => {
            f(next, &[keep(lhs, REAL), keep(rhs, REAL)]);
            f(end as usize, &[keep(lhs, REAL), keep(rhs, REAL)]);
        }
        Instr::WhileCmpImm { lhs, end, .. } | Instr::IWhileCmpImm { lhs, end, .. } => {
            f(next, &[keep(lhs, REAL)]);
            f(end as usize, &[keep(lhs, REAL)]);
        }
        // The loop variable is published only on the loop-entered edge.
        Instr::ForTest { var, end, .. } | Instr::IForTest { var, end, .. } => {
            f(next, &[(var, 0, INT)]);
            f(end as usize, &[]);
        }
        Instr::ForStep { counter, test } => f(test as usize, &[(counter, 0, INT)]),
        Instr::IForNext { counter, var, body, .. } => {
            f(body as usize, &[(counter, 0, INT), (var, 0, INT)]);
            f(next, &[(counter, 0, INT)]);
        }
        _ => unreachable!("{} has a target but no edge rule", instr.opcode()),
    }
}

fn join(a: &mut [u8], b: &[u8]) -> bool {
    let mut changed = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let j = *x | y;
        changed |= j != *x;
        *x = j;
    }
    changed
}

/// The fixpoint of the forward dataflow: the abstract state on entry to
/// every reached basic block.
struct Inference {
    blocks: Blocks,
    num_regs: usize,
    /// `blocks.len() × num_regs` bytes; row `b` is block `b`'s entry state.
    entry: Vec<u8>,
    /// Whether any path reaches the block (unreached rows are all zero).
    reached: Vec<bool>,
}

impl Inference {
    /// Run the dataflow over `program` to its fixpoint.
    fn run(program: &Program, bufs: &BufferSet, stats: &mut OptStats) -> Inference {
        let (code, consts) = (program.code(), program.consts());
        let blocks = Blocks::of(code);
        let (num_blocks, num_regs) = (blocks.len(), program.num_regs());
        let mut entry = vec![0u8; num_blocks * num_regs];
        let mut reached = vec![false; num_blocks];
        let mut queued = vec![false; num_blocks];
        let mut state = vec![0u8; num_regs];
        let mut edge_state = vec![0u8; num_regs];
        stats.typing_blocks += num_blocks as u64;
        if num_blocks > 0 {
            entry[..num_regs].fill(UNSET);
            reached[0] = true;
            queued[0] = true;
        }
        // The lowest queued block goes next: a loop whose head a back edge
        // changed is settled before the code behind it is visited.
        let mut b = 0;
        while b < num_blocks {
            if !std::mem::take(&mut queued[b]) {
                b += 1;
                continue;
            }
            stats.typing_block_visits += 1;
            let range = blocks.range(b);
            let last = range.end - 1;
            let control = code[last].target().is_some();
            state.copy_from_slice(&entry[b * num_regs..(b + 1) * num_regs]);
            // Only the last instruction of a block can transfer control.
            let straight = if control { last } else { range.end };
            for instr in &code[range.start..straight] {
                step(instr, &mut state, consts, bufs);
            }
            let mut resume = b + 1;
            let mut flow = |succ_pc: usize, fx: &[EdgeFx]| {
                let Some(succ) = blocks.starting_at(succ_pc) else { return };
                edge_state.copy_from_slice(&state);
                if !apply_edge(&mut edge_state, fx) {
                    return;
                }
                let row = &mut entry[succ * num_regs..(succ + 1) * num_regs];
                let changed = if reached[succ] {
                    join(row, &edge_state)
                } else {
                    reached[succ] = true;
                    row.copy_from_slice(&edge_state);
                    true
                };
                if changed {
                    queued[succ] = true;
                    resume = resume.min(succ);
                }
            };
            if control {
                for_each_edge(last, &code[last], &mut flow);
            } else {
                flow(range.end, &[]);
            }
            b = resume;
        }
        Inference { blocks, num_regs, entry, reached }
    }

    /// Re-walk every reached block from its entry state, calling
    /// `visit(pc, instr, state before instr)` in pc order.  `state` is the
    /// caller's scratch (one byte per register).
    fn walk(
        &self,
        program: &Program,
        bufs: &BufferSet,
        state: &mut [u8],
        mut visit: impl FnMut(usize, &Instr, &[u8]),
    ) {
        let (code, consts) = (program.code(), program.consts());
        for b in (0..self.blocks.len()).filter(|&b| self.reached[b]) {
            state.copy_from_slice(&self.entry[b * self.num_regs..(b + 1) * self.num_regs]);
            for pc in self.blocks.range(b) {
                let instr = &code[pc];
                visit(pc, instr, state);
                if instr.target().is_none() {
                    step(instr, state, consts, bufs);
                }
            }
        }
    }
}

fn is_singleton(kind: u8) -> bool {
    matches!(kind, INT | FLOAT | BOOL)
}

/// Which of a split register's per-kind copies an access of `kind` uses.
fn kind_slot(kind: u8) -> usize {
    match kind {
        INT => 0,
        FLOAT => 1,
        _ => 2,
    }
}

/// The kind an operand in `role` accesses its register at: what a read
/// finds there, what the write (`write`, the instruction's
/// [`write_effect`]) leaves there.
fn access_kind(role: Role, in_state: u8, write: Option<(Reg, u8)>) -> u8 {
    match role {
        Role::Read => in_state,
        // An instruction has at most one written operand: the effect's.
        Role::Write => write.map_or(0, |(_, bits)| bits),
        Role::ReadWrite => READWRITE_KIND,
    }
}

/// What the program-wide facts say about each register, and the temp split
/// they license.
///
/// Expression temps are allocated LIFO, so one slot is typically an `i64`
/// index in one statement and an `f64` value in the next.  Such a temp is
/// split into one register per kind, so each half can be statically typed,
/// when *every* reachable access resolves to a single value kind — each
/// read's reaching writes then all wrote that kind, so renaming reads and
/// writes by kind preserves dataflow exactly.  It also means nothing needs
/// re-inferring: at each access a split register's state is the singleton
/// of its kind, every register that was not split keeps its states, and a
/// split register is by construction written at one kind and never read
/// unset.
struct SplitPlan {
    /// Per original register, the register an access of each kind (see
    /// [`kind_slot`]) is renamed to: the register itself unless it is split.
    remap: Vec<[Reg; 3]>,
    /// Per register of the split program: its kind if it is one of the
    /// per-kind copies of a split temp, 0 otherwise.
    split_kind: Vec<u8>,
    /// Per register of the split program: the tag it can be pinned to —
    /// every write gives it this one value kind and no read can observe it
    /// unset.
    global: Vec<Option<LaneTag>>,
}

impl SplitPlan {
    fn new(program: &Program, bufs: &BufferSet, inference: &Inference, state: &mut [u8]) -> Self {
        let (num_vars, num_regs) = (program.num_vars(), program.num_regs());
        // Per register: the kinds written, whether a read may find it
        // unset; per temp: the access kinds seen, whether all were singletons.
        let mut written = vec![0u8; num_regs];
        let mut unset_read = vec![false; num_regs];
        let mut kinds = vec![0u8; num_regs];
        let mut splittable = vec![true; num_regs];
        inference.walk(program, bufs, state, |_, instr, s| {
            let write = write_effect(instr, s, program.consts(), bufs);
            if let Some((dst, bits)) = write {
                written[dst.index()] |= bits;
            }
            for_each_reg_role(instr, |r, role| {
                let i = r.index();
                if role != Role::Write && s[i] & UNSET != 0 {
                    unset_read[i] = true;
                }
                if i < num_vars {
                    return;
                }
                let kind = access_kind(role, s[i], write);
                // The one field of a read-write operand cannot be renamed
                // to two registers.
                let in_place_ok = role != Role::ReadWrite || s[i] == READWRITE_KIND;
                if is_singleton(kind) && in_place_ok {
                    kinds[i] |= kind;
                } else {
                    splittable[i] = false;
                }
            });
        });

        let tag = |bits: u8| match bits {
            INT => Some(LaneTag::Int),
            FLOAT => Some(LaneTag::Float),
            BOOL => Some(LaneTag::Bool),
            _ => None,
        };
        let mut plan = SplitPlan {
            remap: (0..num_regs as u32).map(|r| [Reg(r); 3]).collect(),
            split_kind: vec![0; num_regs],
            global: (0..num_regs)
                .map(|i| if unset_read[i] { None } else { tag(written[i]) })
                .collect(),
        };
        // A temp is split when at least two distinct kinds collide in its
        // slot; the first kind keeps the slot, the others get new registers.
        for i in (num_vars..num_regs).filter(|&i| splittable[i] && kinds[i].count_ones() >= 2) {
            let mut first = true;
            for kind in [INT, FLOAT, BOOL].into_iter().filter(|k| kinds[i] & k != 0) {
                if first {
                    first = false;
                    plan.split_kind[i] = kind;
                    plan.global[i] = tag(kind);
                } else {
                    plan.remap[i][kind_slot(kind)] = Reg(plan.split_kind.len() as u32);
                    plan.split_kind.push(kind);
                    plan.global.push(tag(kind));
                }
            }
        }
        plan
    }

    /// Registers of the split program.
    fn num_regs(&self) -> usize {
        self.split_kind.len()
    }
}

/// The typed form of `instr`, if its operands allow one: `exact(r, kind)`
/// says whether register `r` holds exactly `kind` where the instruction
/// reads it, `global[r]` the tag `r` can be pinned to.
fn typed_form(
    instr: &Instr,
    consts: &[Value],
    bufs: &BufferSet,
    exact: impl Fn(Reg, u8) -> bool,
    global: &[Option<LaneTag>],
) -> Option<Instr> {
    let dst_ok = |r: Reg, t: LaneTag| global[r.index()] == Some(t);
    let kind = |b| buf_bits(bufs.get(b));
    let valued = |r: Reg| [INT, FLOAT, BOOL].iter().any(|&k| exact(r, k));
    match *instr {
        Instr::Const { dst, cidx } => match consts[cidx as usize] {
            Value::Int(imm) if dst_ok(dst, LaneTag::Int) => Some(Instr::ConstI { dst, imm }),
            Value::Float(imm) if dst_ok(dst, LaneTag::Float) => Some(Instr::ConstF { dst, imm }),
            _ => None,
        },
        Instr::Mov { dst, src } if exact(src, INT) && dst_ok(dst, LaneTag::Int) => {
            Some(Instr::IMov { dst, src })
        }
        Instr::CoerceInt { reg } if exact(reg, INT) => Some(Instr::Nop),
        // A missing-test on a register that holds one value kind is decided.
        Instr::JumpIfNotMissing { src, target } if valued(src) => Some(Instr::Jump { target }),
        Instr::JumpIfMissing { src, .. } if valued(src) => Some(Instr::Nop),
        Instr::Load { dst, buf, idx } if exact(idx, INT) => match bufs.get(buf) {
            Buffer::I64(_) if dst_ok(dst, LaneTag::Int) => Some(Instr::LoadI64 { dst, buf, idx }),
            Buffer::F64(_) if dst_ok(dst, LaneTag::Float) => Some(Instr::LoadF64 { dst, buf, idx }),
            _ => None,
        },
        Instr::Store { buf, idx, val, reduce }
            if exact(idx, INT)
                && exact(val, FLOAT)
                && is_arith_reduce(reduce)
                && matches!(bufs.get(buf), Buffer::F64(_)) =>
        {
            Some(Instr::StoreF64 { buf, idx, val, reduce })
        }
        Instr::Append { buf, val } if exact(val, INT) && kind(buf) == INT => {
            Some(Instr::IAppend { buf, val })
        }
        Instr::Append { buf, val } if exact(val, FLOAT) && kind(buf) == FLOAT => {
            Some(Instr::FAppend { buf, val })
        }
        Instr::Unary { op: UnOp::Round, dst, src }
            if exact(src, FLOAT) && dst_ok(dst, LaneTag::Float) =>
        {
            Some(Instr::FRound { dst, src })
        }
        Instr::Binary { op, dst, lhs, rhs }
            if exact(lhs, INT)
                && exact(rhs, INT)
                && is_int_arith(op)
                && dst_ok(dst, LaneTag::Int) =>
        {
            Some(Instr::IArith { op, dst, lhs, rhs })
        }
        Instr::Binary { op, dst, lhs, rhs }
            if exact(lhs, FLOAT)
                && exact(rhs, FLOAT)
                && is_float_arith(op)
                && dst_ok(dst, LaneTag::Float) =>
        {
            Some(Instr::FArith { op, dst, lhs, rhs })
        }
        Instr::BinaryImm { op, dst, lhs, cidx } => match consts[cidx as usize] {
            Value::Int(imm) if exact(lhs, INT) && is_int_arith(op) && dst_ok(dst, LaneTag::Int) => {
                Some(Instr::IArithImm { op, dst, lhs, imm })
            }
            Value::Float(imm)
                if exact(lhs, FLOAT) && is_float_arith(op) && dst_ok(dst, LaneTag::Float) =>
            {
                Some(Instr::FArithImm { op, dst, lhs, imm })
            }
            _ => None,
        },
        Instr::LoadBinary { op: BinOp::Mul, dst, lhs, buf, idx }
            if exact(lhs, FLOAT)
                && exact(idx, INT)
                && matches!(bufs.get(buf), Buffer::F64(_))
                && dst_ok(dst, LaneTag::Float) =>
        {
            Some(Instr::FMulLoad { dst, lhs, buf, idx })
        }
        Instr::CmpBranch { op, lhs, rhs, target, .. } if exact(lhs, INT) && exact(rhs, INT) => {
            Some(Instr::ICmpBranch { op, lhs, rhs, target })
        }
        Instr::CmpBranch { op, lhs, rhs, target, .. } if exact(lhs, FLOAT) && exact(rhs, FLOAT) => {
            Some(Instr::FCmpBranch { op, lhs, rhs, target })
        }
        Instr::CmpBranchImm { op, lhs, cidx, target, .. } => match consts[cidx as usize] {
            Value::Int(imm) if exact(lhs, INT) => {
                Some(Instr::ICmpBranchImm { op, lhs, imm, target })
            }
            Value::Float(imm) if exact(lhs, FLOAT) => {
                Some(Instr::FCmpBranchImm { op, lhs, imm, target })
            }
            _ => None,
        },
        Instr::WhileCmp { op, lhs, rhs, end } if exact(lhs, INT) && exact(rhs, INT) => {
            Some(Instr::IWhileCmp { op, lhs, rhs, end })
        }
        Instr::WhileCmpImm { op, lhs, cidx, end } => match consts[cidx as usize] {
            Value::Int(imm) if exact(lhs, INT) => Some(Instr::IWhileCmpImm { op, lhs, imm, end }),
            _ => None,
        },
        Instr::ForTest { counter, hi, var, end }
            if exact(counter, INT) && exact(hi, INT) && dst_ok(var, LaneTag::Int) =>
        {
            Some(Instr::IForTest { counter, hi, var, end })
        }
        Instr::Seek { dst, buf, lo, hi, key, on_abs }
            if exact(lo, INT)
                && exact(hi, INT)
                && exact(key, INT)
                && matches!(bufs.get(buf), Buffer::I64(_))
                && dst_ok(dst, LaneTag::Int) =>
        {
            Some(Instr::ISeek { dst, buf, lo, hi, key, on_abs })
        }
        _ => None,
    }
}

/// Rewrite proven-monomorphic instructions of a compiled (and typically
/// already peephole-fused) program into their typed forms, recording the
/// statically-typed destination registers in [`Program::pretags`].
///
/// Temps whose LIFO slot mixes types are split per type (see
/// `SplitPlan`); the rewrite itself is 1:1 — same instruction count,
/// same jump targets, same [`crate::interp::ExecStats`] — so typed and
/// generic dispatch are differential-testable bit for bit.  `bufs` must be
/// the buffer set the program was compiled against (it seeds the
/// load/store element types).
pub fn specialize(program: &Program, bufs: &BufferSet, stats: &mut OptStats) -> Program {
    let consts = program.consts();
    let inference = Inference::run(program, bufs, stats);
    let mut state = vec![0u8; program.num_regs()];
    let plan = SplitPlan::new(program, bufs, &inference, &mut state);

    // Unreached instructions stay as they are.
    let mut code = program.code().to_vec();
    let mut pretags: Vec<(Reg, LaneTag)> = Vec::new();
    let mut pinned = vec![false; plan.num_regs()];
    let mut typed = 0u64;
    inference.walk(program, bufs, &mut state, |pc, instr, s| {
        let out = &mut code[pc];
        let write = write_effect(instr, s, consts, bufs);
        for_each_reg_role_mut(out, |r, role| {
            *r = plan.remap[r.index()][kind_slot(access_kind(role, s[r.index()], write))];
        });
        // Every access to a copy of a split temp is at that copy's kind;
        // any other register is where the inference saw it.
        let exact = |r: Reg, kind: u8| match plan.split_kind[r.index()] {
            0 => s[r.index()] == kind,
            split => split == kind,
        };
        let Some(typed_instr) = typed_form(out, consts, bufs, exact, &plan.global) else { return };
        typed += 1;
        // A typed form's write does not depend on the state.
        if let Some((dst, _)) = write_effect(&typed_instr, s, consts, bufs) {
            if !std::mem::replace(&mut pinned[dst.index()], true) {
                let tag = plan.global[dst.index()].expect("typed forms write pinned registers");
                pretags.push((dst, tag));
            }
        }
        *out = typed_instr;
    });

    stats.instrs_typed += typed;
    stats.regs_pretagged += pretags.len() as u64;
    let mut p = program.with_code(code);
    p.num_regs = plan.num_regs();
    p.pretags = pretags;
    p
}

/// [`specialize`] differentially checked against [`reference::specialize`]:
/// equal programs, equal counters, exactly one inference, and at most three
/// visits per block.  Every program this crate's tests type — hand-built,
/// random, or on its way through the pipeline — is typed through here.
#[cfg(test)]
pub(crate) fn specialize_checked(program: &Program, bufs: &BufferSet) -> (Program, OptStats) {
    let mut stats = OptStats::default();
    let typed = specialize(program, bufs, &mut stats);
    typed.validate().expect("typed program validates");
    assert_eq!(typed.code().len(), program.code().len(), "rewrite is 1:1");

    let mut reference_stats = OptStats::default();
    let expected = reference::specialize(program, bufs, &mut reference_stats);
    assert!(
        typed == expected,
        "block-level typing diverges from the per-instruction reference\ninput:\n{}\ngot:\n{}\nexpected:\n{}",
        program.disasm(),
        typed.disasm(),
        expected.disasm()
    );
    assert_eq!(
        (stats.instrs_typed, stats.regs_pretagged),
        (reference_stats.instrs_typed, reference_stats.regs_pretagged)
    );
    let blocks = Blocks::of(program.code()).len() as u64;
    assert_eq!(stats.typing_blocks, blocks, "the program is inferred exactly once");
    assert!(
        stats.typing_block_visits <= 3 * blocks,
        "{} visits of {blocks} blocks:\n{}",
        stats.typing_block_visits,
        program.disasm()
    );
    (typed, stats)
}

/// The per-instruction design this pass had before it went block-level,
/// kept as the differential oracle: one heap-allocated state per
/// instruction, cloned on every FIFO worklist pop and per out-edge, and a
/// second whole-program inference over the renamed program after the temp
/// split.  It shares the transfer rules ([`step`], [`for_each_edge`],
/// [`write_effect`]) and the instruction selection ([`typed_form`]) with the
/// block-level code; what it checks is the solver, the re-walks and the
/// split derived from a single inference.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::*;

    type State = Vec<u8>;

    /// The successor states of one instruction: `(succ_pc, state)` pairs.
    fn transfer(
        pc: usize,
        instr: &Instr,
        s: &State,
        consts: &[Value],
        bufs: &BufferSet,
        out: &mut Vec<(usize, State)>,
    ) {
        if instr.target().is_none() {
            let mut t = s.clone();
            step(instr, &mut t, consts, bufs);
            out.push((pc + 1, t));
        } else {
            for_each_edge(pc, instr, &mut |succ, fx| {
                let mut t = s.clone();
                if apply_edge(&mut t, fx) {
                    out.push((succ, t));
                }
            });
        }
    }

    /// Run the forward dataflow to a fixpoint, returning the abstract state
    /// *before* each instruction (`None` for unreachable instructions).
    fn infer(program: &Program, bufs: &BufferSet) -> Vec<Option<State>> {
        let code = program.code();
        let consts = program.consts();
        let n = code.len();
        let mut states: Vec<Option<State>> = vec![None; n];
        if n == 0 {
            return states;
        }
        states[0] = Some(vec![UNSET; program.num_regs()]);
        let mut worklist: VecDeque<usize> = VecDeque::from([0]);
        let mut succs = Vec::with_capacity(2);
        while let Some(pc) = worklist.pop_front() {
            let s = states[pc].clone().expect("worklist entries are reached");
            succs.clear();
            transfer(pc, &code[pc], &s, consts, bufs, &mut succs);
            for (succ, out) in succs.drain(..) {
                if succ >= n {
                    continue;
                }
                match &mut states[succ] {
                    None => {
                        states[succ] = Some(out);
                        worklist.push_back(succ);
                    }
                    Some(cur) => {
                        if join(cur, &out) {
                            worklist.push_back(succ);
                        }
                    }
                }
            }
        }
        states
    }

    /// Rename the temps whose slot mixes kinds, one register per kind;
    /// `None` when nothing qualifies.
    fn split_conflicting_temps(
        program: &Program,
        bufs: &BufferSet,
        states: &[Option<State>],
    ) -> Option<Program> {
        let num_vars = program.num_vars();
        let n_regs = program.num_regs();
        // Per-register: the set of access kinds seen, and disqualification.
        let mut kinds: Vec<u8> = vec![0; n_regs];
        let mut ok: Vec<bool> = vec![true; n_regs];
        for (pc, instr) in program.code().iter().enumerate() {
            let Some(s) = &states[pc] else { continue };
            let we = write_effect(instr, s, program.consts(), bufs);
            for_each_reg_role(instr, |r, role| {
                let i = r.index();
                if i < num_vars {
                    return;
                }
                let kind = match role {
                    Role::Read => s[i],
                    Role::Write => match we {
                        Some((d, b)) if d.index() == i => b,
                        _ => 0,
                    },
                    Role::ReadWrite => {
                        if s[i] != READWRITE_KIND {
                            ok[i] = false;
                        }
                        READWRITE_KIND
                    }
                };
                if is_singleton(kind) {
                    kinds[i] |= kind;
                } else {
                    ok[i] = false;
                }
            });
        }
        // A register qualifies when every access was a singleton and at
        // least two distinct kinds collide in the slot.
        let mut remap: Vec<Option<[Option<Reg>; 3]>> = vec![None; n_regs];
        let mut next = n_regs as u32;
        let mut any = false;
        for i in num_vars..n_regs {
            if !ok[i] || kinds[i].count_ones() < 2 {
                continue;
            }
            let mut m: [Option<Reg>; 3] = [None; 3];
            let mut first = true;
            for kind in [INT, FLOAT, BOOL] {
                if kinds[i] & kind != 0 {
                    if first {
                        // The first kind keeps the original slot.
                        m[kind_slot(kind)] = Some(Reg(i as u32));
                        first = false;
                    } else {
                        m[kind_slot(kind)] = Some(Reg(next));
                        next += 1;
                    }
                }
            }
            remap[i] = Some(m);
            any = true;
        }
        if !any {
            return None;
        }
        let mut p = program.clone();
        for (pc, instr) in p.code.iter_mut().enumerate() {
            let Some(s) = &states[pc] else { continue };
            let we = write_effect(instr, s, program.consts(), bufs);
            for_each_reg_role_mut(instr, |r, role| {
                let i = r.index();
                let Some(m) = remap.get(i).and_then(|m| m.as_ref()) else { return };
                let kind = match role {
                    Role::Read => s[i],
                    Role::Write => match we {
                        Some((d, b)) if d.index() == i => b,
                        _ => unreachable!("write position without a write effect"),
                    },
                    Role::ReadWrite => READWRITE_KIND,
                };
                *r = m[kind_slot(kind)].expect("every access kind was mapped");
            });
        }
        p.num_regs = next as usize;
        Some(p)
    }

    pub(super) fn specialize(program: &Program, bufs: &BufferSet, stats: &mut OptStats) -> Program {
        let states = infer(program, bufs);
        let (split, states) = match split_conflicting_temps(program, bufs, &states) {
            Some(p) => {
                let st = infer(&p, bufs);
                (p, st)
            }
            None => (program.clone(), states),
        };
        let program = &split;
        let code = program.code();
        let consts = program.consts();

        // Global write kinds and possibly-unset reads, over reachable code.
        let mut written: Vec<u8> = vec![0; program.num_regs()];
        let mut unset_read: Vec<bool> = vec![false; program.num_regs()];
        for (pc, instr) in code.iter().enumerate() {
            let Some(s) = &states[pc] else { continue };
            if let Some((dst, bits)) = write_effect(instr, s, consts, bufs) {
                written[dst.index()] |= bits;
            }
            for_each_reg_role(instr, |r, role| {
                if role != Role::Write && s[r.index()] & UNSET != 0 {
                    unset_read[r.index()] = true;
                }
            });
        }
        // A register is statically typed when every write gives it the
        // same single value kind and no read can observe it unset.
        let global: Vec<Option<LaneTag>> = written
            .iter()
            .zip(&unset_read)
            .map(|(&bits, &unset)| match (bits, unset) {
                (INT, false) => Some(LaneTag::Int),
                (FLOAT, false) => Some(LaneTag::Float),
                (BOOL, false) => Some(LaneTag::Bool),
                _ => None,
            })
            .collect();

        let mut new_code = Vec::with_capacity(code.len());
        let mut typed_dsts: Vec<(Reg, LaneTag)> = Vec::new();
        let mut typed = 0u64;
        for (pc, instr) in code.iter().enumerate() {
            let rewritten = states[pc].as_ref().and_then(|s| {
                let exact = |r: Reg, bit: u8| s[r.index()] == bit;
                let t = typed_form(instr, consts, bufs, exact, &global)?;
                if let Some((dst, _)) = write_effect(&t, s, consts, bufs) {
                    let pin =
                        (dst, global[dst.index()].expect("typed forms write pinned registers"));
                    if !typed_dsts.contains(&pin) {
                        typed_dsts.push(pin);
                    }
                }
                Some(t)
            });
            typed += rewritten.is_some() as u64;
            new_code.push(rewritten.unwrap_or(*instr));
        }

        stats.instrs_typed += typed;
        stats.regs_pretagged += typed_dsts.len() as u64;
        let mut p = program.clone();
        p.code = new_code;
        p.pretags = typed_dsts;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::interp::ExecStats;
    use crate::opt::irgen::{run_bounded, IrGen};
    use crate::stmt::Stmt;
    use crate::var::Names;
    use crate::vm::Vm;

    /// Compile, peephole-fuse, specialize, then run generic and typed and
    /// assert bit-identical buffers and work counters.
    fn assert_typed_parity(prog: &[Stmt], names: &Names, bufs: &BufferSet) -> (Program, OptStats) {
        let raw = Program::compile(prog, names);
        let fused = crate::opt::peephole(&raw, &mut OptStats::default());
        let (typed, stats) = specialize_checked(&fused, bufs);

        let run = |p: &Program| -> (BufferSet, ExecStats) {
            let mut bufs = bufs.clone();
            let mut vm = Vm::new(p);
            vm.run(p, &mut bufs).expect("program runs");
            (bufs, vm.stats())
        };
        let (gen_bufs, gen_stats) = run(&fused);
        let (typ_bufs, typ_stats) = run(&typed);
        assert_eq!(gen_stats, typ_stats, "work counters diverge:\n{}", typed.disasm());
        for (id, name, buf) in gen_bufs.iter() {
            assert_eq!(buf, typ_bufs.get(id), "buffer {name} diverges:\n{}", typed.disasm());
        }
        (typed, stats)
    }

    /// The dense reducing loop: every hot instruction must go typed.
    #[test]
    fn dense_reduction_loop_is_fully_typed() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.5, 3.0, 4.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let (typed, stats) = assert_typed_parity(&prog, &names, &bufs);
        assert!(stats.instrs_typed > 0, "{stats:?}");
        assert!(stats.regs_pretagged > 0, "{stats:?}");
        let has = |pred: &dyn Fn(&Instr) -> bool| typed.code().iter().any(pred);
        assert!(has(&|i| matches!(i, Instr::IForTest { .. })), "\n{}", typed.disasm());
        assert!(has(&|i| matches!(i, Instr::LoadF64 { .. })), "\n{}", typed.disasm());
        assert!(has(&|i| matches!(i, Instr::StoreF64 { .. })), "\n{}", typed.disasm());
        // Everything executed in the loop body is tag-free.
        let dynamic: Vec<String> = typed
            .code()
            .iter()
            .filter(|i| !i.is_tag_free())
            .map(|i| i.opcode().to_string())
            .collect();
        assert!(dynamic.is_empty(), "dynamic leftovers {dynamic:?}:\n{}", typed.disasm());
    }

    /// The merge-loop shape: typed while heads, typed compares, typed
    /// increments.
    #[test]
    fn merge_loop_types_the_while_head_and_increment() {
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
        let (typed, _) = assert_typed_parity(&prog, &names, &bufs);
        let has = |pred: &dyn Fn(&Instr) -> bool| typed.code().iter().any(pred);
        assert!(has(&|i| matches!(i, Instr::IWhileCmp { .. })), "\n{}", typed.disasm());
        assert!(
            has(&|i| matches!(i, Instr::IArithImm { op: BinOp::Add, .. })),
            "\n{}",
            typed.disasm()
        );
    }

    /// `coalesce(load@permit, 0.0)`-style code: the maybe-missing register
    /// stays generic through the missing test, but the refined
    /// post-coalesce value types again.
    #[test]
    fn coalesce_keeps_the_missing_path_generic() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let v = names.fresh("v");
        let prog = vec![
            Stmt::Let {
                var: v,
                init: Expr::coalesce(vec![Expr::load(x, Expr::missing()), Expr::float(0.0)]),
            },
            Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::add(Expr::Var(v), Expr::float(1.0)),
                reduce: None,
            },
        ];
        let (typed, _) = assert_typed_parity(&prog, &names, &bufs);
        // The load at a missing index stays generic...
        assert!(typed.code().iter().any(|i| matches!(i, Instr::Load { .. })), "{}", typed.disasm());
        // ...but v is Float on every path out of the coalesce, so the
        // consumer arithmetic is typed.
        assert!(
            typed
                .code()
                .iter()
                .any(|i| matches!(i, Instr::FArith { .. } | Instr::FArithImm { .. })),
            "{}",
            typed.disasm()
        );
    }

    /// A register written with two different types must not be pretagged
    /// or typed.
    #[test]
    fn mixed_type_register_stays_dynamic() {
        let mut names = Names::new();
        let bufs = BufferSet::new();
        let v = names.fresh("v");
        let w = names.fresh("w");
        let prog = vec![
            Stmt::Let { var: v, init: Expr::int(1) },
            Stmt::Let { var: w, init: Expr::add(Expr::Var(v), Expr::int(1)) },
            Stmt::Let { var: v, init: Expr::float(2.5) },
            Stmt::Let { var: w, init: Expr::add(Expr::Var(v), Expr::float(1.0)) },
        ];
        let raw = Program::compile(&prog, &names);
        let (typed, _) = specialize_checked(&raw, &bufs);
        assert!(
            typed.pretags().iter().all(|&(r, _)| r != Reg(0)),
            "v must not be pretagged: {:?}\n{}",
            typed.pretags(),
            typed.disasm()
        );
        assert_typed_parity(&prog, &names, &bufs);
    }

    /// A LIFO temp slot reused with conflicting types (an index here, a
    /// value there) is split into one register per type so both halves
    /// specialize — the register file grows, the instruction count does
    /// not, and semantics stay bit-identical.
    #[test]
    fn conflicting_temp_slots_are_split_and_fully_typed() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0, 0.0].into()));
        let i = names.fresh("i");
        // Two stores per iteration: each statement's temp tower reuses
        // the same LIFO slots, alternating int (store index arithmetic)
        // and float (loaded values) types in one slot.
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![
                Stmt::Store {
                    buf: out,
                    index: Expr::int(0),
                    value: Expr::load(x, Expr::Var(i)),
                    reduce: Some(BinOp::Add),
                },
                Stmt::Store {
                    buf: out,
                    index: Expr::add(Expr::int(0), Expr::int(1)),
                    value: Expr::mul(Expr::load(x, Expr::Var(i)), Expr::float(2.0)),
                    reduce: Some(BinOp::Add),
                },
            ],
        }];
        let (typed, _) = assert_typed_parity(&prog, &names, &bufs);
        let dynamic: Vec<String> = typed
            .code()
            .iter()
            .filter(|i| !i.is_tag_free())
            .map(|i| i.opcode().to_string())
            .collect();
        assert!(dynamic.is_empty(), "dynamic leftovers {dynamic:?}:\n{}", typed.disasm());
    }

    /// A register that could be read before its only write must not be
    /// pretagged — the unbound-variable error must survive typing.
    #[test]
    fn possibly_unbound_reads_block_pretagging() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let flag = bufs.add("flag", Buffer::I64(vec![0].into()));
        let v = names.fresh("v");
        let w = names.fresh("w");
        let prog = vec![
            Stmt::If {
                cond: Expr::eq(Expr::load(flag, Expr::int(0)), Expr::int(1)),
                then_branch: vec![Stmt::Let { var: v, init: Expr::int(7) }],
                else_branch: vec![],
            },
            // v is unset when the branch was not taken.
            Stmt::Let { var: w, init: Expr::Var(v) },
        ];
        let raw = Program::compile(&prog, &names);
        let (typed, _) = specialize_checked(&raw, &bufs);
        assert!(
            typed.pretags().iter().all(|&(r, _)| r != Reg(0)),
            "v may be read unset and must not be pretagged: {:?}",
            typed.pretags()
        );
        // Both programs still fault with the unbound-variable error.
        for p in [&raw, &typed] {
            let mut vm = Vm::new(p);
            let err = vm.run(p, &mut bufs.clone()).unwrap_err();
            assert!(
                matches!(err, crate::error::RuntimeError::UnboundVariable { .. }),
                "expected unbound error, got {err:?}"
            );
        }
    }

    /// Sparse assembly appends type to IAppend/FAppend and the seek of a
    /// gallop kernel types to ISeek.
    #[test]
    fn appends_and_seeks_specialize() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let coords = bufs.add("coords", Buffer::I64(vec![1, 4, 9, 12].into()));
        let idx = bufs.add("C_idx", Buffer::I64(vec![].into()));
        let val = bufs.add("C_val", Buffer::F64(vec![].into()));
        let p = names.fresh("p");
        let prog = vec![
            Stmt::Let {
                var: p,
                init: Expr::search(coords, Expr::int(0), Expr::int(3), Expr::int(8), false),
            },
            Stmt::Append { buf: idx, value: Expr::Var(p) },
            Stmt::Append { buf: val, value: Expr::float(1.5) },
        ];
        let (typed, _) = assert_typed_parity(&prog, &names, &bufs);
        let has = |pred: &dyn Fn(&Instr) -> bool| typed.code().iter().any(pred);
        assert!(has(&|i| matches!(i, Instr::ISeek { .. })), "\n{}", typed.disasm());
        assert!(has(&|i| matches!(i, Instr::IAppend { .. })), "\n{}", typed.disasm());
        assert!(has(&|i| matches!(i, Instr::FAppend { .. })), "\n{}", typed.disasm());
    }

    /// Golden disassembly of the typed dense loop: the full artifact the
    /// specializer produces for the canonical reducing for-loop.
    #[test]
    fn golden_disasm_of_a_typed_reducing_for_loop() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0; 3].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let raw = Program::compile(&prog, &names);
        let fused = crate::opt::peephole(&raw, &mut OptStats::default());
        let (typed, _) = specialize_checked(&fused, &bufs);
        let expected = "   0: stmt
   1: t0 = const.i 0
   2: nop
   3: t1 = const.i 2
   4: nop
   5: for i = t0 while <= t1 (i64) else -> 12
   6: stmt
   7: t2 = const.i 0
   8: nop
   9: t3 = b0[i] (f64)
  10: b1[t2] += t3 (f64)
  11: step t0 -> 5
";
        assert_eq!(typed.disasm(), expected, "\ngeneric was:\n{}", fused.disasm());
    }

    /// The block-level inference against the per-instruction reference on
    /// seeded random structured IR (raw and peephole-fused), and the typed
    /// program against the generic one on the VM: same outcome — value or
    /// error —, same buffers, same work counters.
    #[test]
    fn random_structured_ir_types_like_the_reference_and_runs_like_the_generic_program() {
        let (mut typed_instrs, mut pretagged, mut grown) = (0u64, 0u64, 0usize);
        let (mut blocks, mut visits) = (0u64, 0u64);
        for seed in 0..400u64 {
            let (mut gen, names, bufs) = IrGen::new(seed);
            let prog = gen.program();
            let raw = Program::compile(&prog, &names);
            let fused = crate::opt::peephole(&raw, &mut OptStats::default());
            for generic in [&raw, &fused] {
                let (typed, stats) = specialize_checked(generic, &bufs);
                blocks += stats.typing_blocks;
                visits += stats.typing_block_visits;
                typed_instrs += stats.instrs_typed;
                pretagged += stats.regs_pretagged;
                grown += typed.num_regs() - generic.num_regs();
                let (expected, expected_bufs, expected_stats) = run_bounded(generic, &bufs);
                let (outcome, typed_bufs, typed_stats) = run_bounded(&typed, &bufs);
                let context =
                    || format!("seed {seed}\n{}\ntyped:\n{}", generic.disasm(), typed.disasm());
                assert_eq!(outcome, expected, "{}", context());
                assert_eq!(typed_stats, expected_stats, "{}", context());
                for (id, name, buf) in expected_bufs.iter() {
                    // By rendering: a NaN must compare equal to itself.
                    let (want, got) = (format!("{buf:?}"), format!("{:?}", typed_bufs.get(id)));
                    assert_eq!(got, want, "buffer {name}: {}", context());
                }
            }
        }
        // The generator must exercise what it is there to check.
        assert!(typed_instrs > 30_000, "only {typed_instrs} instructions typed");
        assert!(pretagged > 4000, "only {pretagged} registers pinned");
        assert!(grown > 1000, "only {grown} registers added by the temp split");
        assert!(visits <= 2 * blocks, "{visits} visits of {blocks} blocks over all seeds");
    }

    /// A read that only some path has bound: the block-level solver sees the
    /// joined state the first time it reaches the read, the reference sees
    /// the unbound path alone first — the monotone rules make both settle
    /// on the same answer.
    #[test]
    fn a_possibly_unbound_read_types_its_consumers_whatever_the_visiting_order() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let flag = bufs.add("flag", Buffer::I64(vec![1].into()));
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let v = names.fresh("v");
        let w = names.fresh("w");
        let prog = vec![
            Stmt::If {
                cond: Expr::eq(Expr::load(flag, Expr::int(0)), Expr::int(1)),
                then_branch: vec![Stmt::Let { var: v, init: Expr::int(7) }],
                else_branch: vec![],
            },
            Stmt::Let { var: w, init: Expr::Var(v) },
            Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::add(Expr::Var(w), Expr::int(1)),
                reduce: None,
            },
        ];
        let (typed, _) = assert_typed_parity(&prog, &names, &bufs);
        // `w` is an Int wherever the copy succeeded, so its consumer types;
        // `v` itself may be unset and stays untagged.
        assert!(
            typed.code().iter().any(|i| matches!(i, Instr::IArithImm { op: BinOp::Add, .. })),
            "{}",
            typed.disasm()
        );
        assert!(typed.pretags().iter().all(|&(r, _)| r != Reg(0)), "{:?}", typed.pretags());
    }

    /// [`for_each_edge`] ends in an `unreachable!` that a new branching
    /// opcode without a rule would otherwise hit inside a release compile.
    #[test]
    fn every_opcode_with_a_target_has_an_edge_rule() {
        for instr in crate::isa::samples() {
            let Some(target) = instr.target() else { continue };
            let mut succs = Vec::new();
            for_each_edge(1, &instr, &mut |succ, _| succs.push(succ));
            assert!(succs.contains(&(target as usize)), "{}: {succs:?}", instr.opcode());
        }
    }

    #[test]
    fn blocks_partition_at_targets_and_after_control_transfers() {
        let mut names = Names::new();
        let i = names.fresh("i");
        let p = names.fresh("p");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(3),
                body: vec![Stmt::if_then(
                    Expr::lt(Expr::Var(i), Expr::int(2)),
                    vec![Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) }],
                )],
            },
        ];
        let program = Program::compile(&prog, &names);
        let code = program.code();
        let blocks = Blocks::of(code);
        let targets = crate::bytecode::jump_targets(code);
        let mut covered = 0;
        for b in 0..blocks.len() {
            let range = blocks.range(b);
            assert_eq!(range.start, covered, "blocks tile the stream in order");
            assert!(!range.is_empty());
            covered = range.end;
            assert_eq!(blocks.starting_at(range.start), Some(b));
            for pc in range.clone() {
                assert!(pc == range.start || !targets[pc], "pc {pc} is entered mid-block");
                assert!(
                    pc + 1 == range.end || code[pc].target().is_none(),
                    "pc {pc} leaves mid-block"
                );
            }
        }
        assert_eq!(covered, code.len());
        // Head, body, then-branch, step, and the straight-line prologue.
        assert!(blocks.len() >= 5, "{} blocks:\n{}", blocks.len(), program.disasm());
        assert_eq!(blocks.starting_at(code.len()), None, "the exit pc starts no block");
        assert_eq!(Blocks::of(&[]).len(), 0);
    }
}
