//! Vectorized kernel-op selection over typed bytecode.
//!
//! The typing pass leaves the hot inner loops of dense kernels as short
//! straight-line typed bodies under an [`Instr::IForTest`] head: a
//! `BumpStmt`, a handful of loads and float ops, and a store or append.
//! The VM still pays one dispatch per instruction per iteration.  This
//! pass recognises those canonical loop shapes symbolically and inserts
//! one vectorized kernel op ([`Instr::VFillStoreF64`],
//! [`Instr::VMapF64`], [`Instr::VMulAddF64`], [`Instr::VReduceF64`],
//! [`Instr::VAppendRangeF64`]) immediately
//! *before* the loop head, which executes all but the final iteration
//! over whole buffer slices with no per-element dispatch.
//!
//! The transformation is strictly additive:
//!
//! * The scalar loop is left completely untouched.  The kernel op
//!   advances the loop counter to the inclusive upper bound, so the
//!   scalar loop runs exactly the last iteration — which doubles as the
//!   remainder handler and rewrites every temporary register with its
//!   final-iteration value, exactly as a full scalar run would have.
//! * Jump targets are remapped so every branch (including the loop's
//!   own back-edge) lands on the *original* instruction, never on the
//!   inserted kernel op.  The op executes only when control falls
//!   through from the loop pre-header, i.e. exactly once per entry.
//! * At runtime the op re-checks every precondition (buffer kinds,
//!   full-slice bounds, aliasing, the step budget) and does *nothing*
//!   when any fails — the scalar loop is always the fallback, so a
//!   vectorized program can never do worse than reject its own bulk.
//!
//! The match is deliberately conservative.  A loop is taken only when
//! the whole body is understood: every instruction is on a small
//! whitelist, every store and append resolves to a symbolic shape one
//! of the six kernel ops encodes exactly (including evaluation order
//! and operand orientation, which matter for float bit-exactness), and
//! every load is represented in the emitted op (a load the op would
//! not perform could hide an out-of-bounds fault the scalar loop
//! raises).  Loops the matcher declines run scalar, unchanged.
//!
//! Work counters stay bit-identical: each op carries the
//! scalar-equivalent [`crate::bytecode::VCost`] per iteration (and per
//! *passing* iteration for the guarded forms), so
//! [`crate::interp::ExecStats`] cannot distinguish vectorized from
//! scalar execution — which is what lets the pass run under the
//! [`super::StatsContract::Exact`] translation-validation contract.

use std::collections::{HashMap, HashSet};

use crate::buffer::BufId;
use crate::bytecode::{is_arith_reduce, is_cmp_op, is_float_arith};
use crate::bytecode::{splice_before, Instr, Program, Reg, VBase, VCost, VFill, VRhs, VScale};
use crate::expr::BinOp;

use super::OptStats;

/// Insert vectorized kernel ops before every innermost typed counted
/// loop whose body matches one of the canonical dense shapes.  Counts
/// every examined innermost loop's body length into
/// [`OptStats::instrs_vectorizable`] and the matched ones into
/// [`OptStats::instrs_vectorized`].
pub fn vectorize(p: &Program, stats: &mut OptStats) -> Program {
    let code = &p.code;
    let mut inserts = Vec::new();
    for (head, instr) in code.iter().enumerate() {
        let Instr::IForTest { counter, hi, var, end } = *instr else { continue };
        let end = end as usize;
        // The canonical counted-loop layout: head, body, back-edge.
        if end < head + 2 || end > code.len() {
            continue;
        }
        let Instr::ForStep { counter: step_counter, test } = code[end - 1] else { continue };
        if step_counter != counter || test as usize != head {
            continue;
        }
        let body = &code[head + 1..end - 1];
        if body.iter().any(Instr::is_loop_edge) {
            continue; // not innermost
        }
        stats.instrs_vectorizable += body.len() as u64;
        if let Some(vop) = match_loop(body, (end - 1) as u32, counter, hi, var) {
            stats.instrs_vectorized += body.len() as u64;
            inserts.push((head, vop));
        }
    }
    if inserts.is_empty() {
        return p.clone();
    }
    // Each kernel op goes in front of its loop head, and every jump (the
    // back-edge included) keeps going to the *original* instruction.
    p.with_code(splice_before(code, &inserts, false))
}

// ---------------------------------------------------------------------
// Symbolic shapes of the values a canonical loop body computes, as a
// function of the bulk iteration `v` (the loop counter's value).
// ---------------------------------------------------------------------

/// An integer value: the counter, a literal, a loop-invariant register,
/// or the affine forms a [`VBase`] can encode.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ISym {
    /// The loop counter `v` itself (the loop variable reads as this too).
    Counter,
    /// A literal.
    Const(i64),
    /// A loop-invariant integer register, read as-is.
    Inv(Reg),
    /// `inv * stride` — a row base, waiting for `+ v`.
    Scaled { reg: Reg, stride: i64 },
    /// `inv * stride + v` — a full row-major element index.
    ScaledVar { reg: Reg, stride: i64 },
}

/// One pre-scaled load: `pre(buf[base + v])`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LoadSym {
    buf: BufId,
    base: VBase,
    pre: VScale,
}

/// A float map value: `post(pre(a[..]) rhs)` — exactly the value shape
/// of one [`Instr::VMapF64`] iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MapSym {
    a: LoadSym,
    rhs: VRhs,
    round: bool,
}

/// A float value: a literal, a loop-invariant register, or a map shape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FSym {
    Const(f64),
    /// A float register the body never writes, read as-is.  Only a fill
    /// encodes it ([`VFill::Reg`]); as an operand of anything else it
    /// makes the value inexpressible.
    Inv(Reg),
    Map(MapSym),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sym {
    I(ISym),
    F(FSym),
}

/// One store or append the body performs per iteration, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Effect {
    StoreF { buf: BufId, idx: ISym, val: FSym, reduce: Option<BinOp> },
    AppendI { buf: BufId, val: ISym },
    AppendF { buf: BufId, val: FSym },
}

/// [`VCost`] accumulator wide enough to never overflow while matching.
#[derive(Debug, Clone, Copy, Default)]
struct CostAcc {
    stmts: u32,
    loads: u32,
    stores: u32,
}

impl CostAcc {
    fn to_vcost(self) -> Option<VCost> {
        Some(VCost {
            stmts: u8::try_from(self.stmts).ok()?,
            loads: u8::try_from(self.loads).ok()?,
            stores: u8::try_from(self.stores).ok()?,
        })
    }
}

const ZERO_COST: VCost = VCost { stmts: 0, loads: 0, stores: 0 };

/// The registers a whitelisted body instruction writes, or `None` when
/// the instruction is not on the whitelist (which rejects the loop).
fn whitelisted_writes(instr: &Instr, writes: &mut HashSet<Reg>) -> bool {
    match *instr {
        Instr::Nop
        | Instr::BumpStmt
        | Instr::StoreF64 { .. }
        | Instr::IAppend { .. }
        | Instr::FAppend { .. }
        | Instr::FCmpBranchImm { .. } => true,
        Instr::ConstI { dst, .. }
        | Instr::ConstF { dst, .. }
        | Instr::IMov { dst, .. }
        | Instr::IArith { dst, .. }
        | Instr::IArithImm { dst, .. }
        | Instr::FArith { dst, .. }
        | Instr::FArithImm { dst, .. }
        | Instr::FRound { dst, .. }
        | Instr::LoadF64 { dst, .. }
        | Instr::FMulLoad { dst, .. } => {
            writes.insert(dst);
            true
        }
        _ => false,
    }
}

/// Match one innermost counted loop body against the kernel-op shapes.
/// `fstep_pc` is the loop's back-edge pc (the only in-loop branch target
/// a guard may use); `counter`/`hi`/`var` are the head's registers.
fn match_loop(body: &[Instr], fstep_pc: u32, counter: Reg, hi: Reg, var: Reg) -> Option<Instr> {
    // Pre-scan: whitelist only, and the loop's own registers stay
    // loop-invariant.
    let mut writes: HashSet<Reg> = HashSet::new();
    for instr in body {
        if !whitelisted_writes(instr, &mut writes) {
            return None;
        }
    }
    if writes.contains(&counter) || writes.contains(&hi) || writes.contains(&var) {
        return None;
    }

    // Abstract per-iteration state.  `defs` maps registers defined this
    // iteration to their symbolic value (`None` marks a value the
    // matcher cannot express — harmless unless something observable
    // reads it).  `guard` splits the body into the unconditional region
    // and the region executed only where the comparison holds.
    let mut defs: HashMap<Reg, Option<Sym>> = HashMap::new();
    let mut base_cost = CostAcc::default();
    let mut pass_cost = CostAcc::default();
    let mut base_effects: Vec<Effect> = Vec::new();
    let mut pass_effects: Vec<Effect> = Vec::new();
    let mut guard: Option<(BinOp, LoadSym, f64)> = None;

    let read_int = |defs: &HashMap<Reg, Option<Sym>>, writes: &HashSet<Reg>, r: Reg| {
        if r == var || r == counter {
            return Some(ISym::Counter);
        }
        match defs.get(&r) {
            Some(Some(Sym::I(s))) => Some(*s),
            Some(_) => None, // poisoned or float-typed
            // Written later in the body but not yet this iteration: a
            // loop-carried value the kernel ops cannot express.
            None if writes.contains(&r) => None,
            None => Some(ISym::Inv(r)),
        }
    };
    // Every caller is a typed float read, which is what proves that an
    // invariant register holds its value on the float lane.
    let read_float = |defs: &HashMap<Reg, Option<Sym>>, writes: &HashSet<Reg>, r: Reg| {
        match defs.get(&r) {
            Some(Some(Sym::F(s))) => Some(*s),
            Some(_) => None, // poisoned or int-typed
            // Written later in the body: a loop-carried value.
            None if writes.contains(&r) => None,
            None => Some(FSym::Inv(r)),
        }
    };
    let vbase_of = |s: ISym| match s {
        ISym::Counter => Some(VBase::Var),
        ISym::ScaledVar { reg, stride } if stride >= 1 => Some(VBase::Scaled { reg, stride }),
        _ => None,
    };

    for instr in body {
        let in_pass = guard.is_some();
        let cost = if in_pass { &mut pass_cost } else { &mut base_cost };
        let effects = if in_pass { &mut pass_effects } else { &mut base_effects };
        match *instr {
            Instr::Nop => {}
            Instr::BumpStmt => cost.stmts += 1,
            Instr::ConstI { dst, imm } => {
                defs.insert(dst, Some(Sym::I(ISym::Const(imm))));
            }
            Instr::ConstF { dst, imm } => {
                defs.insert(dst, Some(Sym::F(FSym::Const(imm))));
            }
            Instr::IMov { dst, src } => {
                let s = read_int(&defs, &writes, src).map(Sym::I);
                defs.insert(dst, s);
            }
            Instr::IArithImm { op, dst, lhs, imm } => {
                let sym = match (op, read_int(&defs, &writes, lhs)) {
                    // `row * stride`: the first half of a row-major index.
                    (BinOp::Mul, Some(ISym::Inv(reg))) if imm >= 1 => {
                        Some(ISym::Scaled { reg, stride: imm })
                    }
                    _ => None,
                };
                defs.insert(dst, sym.map(Sym::I));
            }
            Instr::IArith { op, dst, lhs, rhs } => {
                let l = read_int(&defs, &writes, lhs);
                let r = read_int(&defs, &writes, rhs);
                let sym = match (op, l, r) {
                    // `row * stride + v` in either operand order.
                    (BinOp::Add, Some(ISym::Scaled { reg, stride }), Some(ISym::Counter))
                    | (BinOp::Add, Some(ISym::Counter), Some(ISym::Scaled { reg, stride })) => {
                        Some(ISym::ScaledVar { reg, stride })
                    }
                    // `base + v` with unit stride (a hoisted row offset).
                    (BinOp::Add, Some(ISym::Inv(reg)), Some(ISym::Counter))
                    | (BinOp::Add, Some(ISym::Counter), Some(ISym::Inv(reg))) => {
                        Some(ISym::ScaledVar { reg, stride: 1 })
                    }
                    _ => None,
                };
                defs.insert(dst, sym.map(Sym::I));
            }
            Instr::LoadF64 { dst, buf, idx } => {
                cost.loads += 1;
                let sym = read_int(&defs, &writes, idx).and_then(vbase_of).map(|base| {
                    Sym::F(FSym::Map(MapSym {
                        a: LoadSym { buf, base, pre: VScale::None },
                        rhs: VRhs::None,
                        round: false,
                    }))
                });
                defs.insert(dst, sym);
            }
            Instr::FMulLoad { dst, lhs, buf, idx } => {
                cost.loads += 1;
                let base = read_int(&defs, &writes, idx).and_then(vbase_of);
                let sym = match (read_float(&defs, &writes, lhs), base) {
                    // `const * load`: the load with a left pre-scale.
                    (Some(FSym::Const(c)), Some(base)) => Some(FSym::Map(MapSym {
                        a: LoadSym { buf, base, pre: VScale::Left { op: BinOp::Mul, imm: c } },
                        rhs: VRhs::None,
                        round: false,
                    })),
                    // `load * load`: the dual-load map (and the inner
                    // product's elementwise half).
                    (Some(FSym::Map(m)), Some(base)) if m.rhs == VRhs::None && !m.round => {
                        Some(FSym::Map(MapSym {
                            a: m.a,
                            rhs: VRhs::Buf { op: BinOp::Mul, buf, base, pre: VScale::None },
                            round: false,
                        }))
                    }
                    _ => None,
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FArith { op, dst, lhs, rhs } => {
                let l = read_float(&defs, &writes, lhs);
                let r = read_float(&defs, &writes, rhs);
                let sym = match (l, r) {
                    // `pre_a(a[..]) op pre_b(b[..])` — the two-load map
                    // (the alpha blend's weighted sum).
                    (Some(FSym::Map(a)), Some(FSym::Map(b)))
                        if a.rhs == VRhs::None && !a.round && b.rhs == VRhs::None && !b.round =>
                    {
                        Some(FSym::Map(MapSym {
                            a: a.a,
                            rhs: VRhs::Buf { op, buf: b.a.buf, base: b.a.base, pre: b.a.pre },
                            round: false,
                        }))
                    }
                    // `map op const` — an immediate right operand.
                    (Some(FSym::Map(m)), Some(FSym::Const(c)))
                        if m.rhs == VRhs::None && !m.round =>
                    {
                        Some(FSym::Map(MapSym {
                            a: m.a,
                            rhs: VRhs::Imm { op, imm: c },
                            round: false,
                        }))
                    }
                    // `const op load` — a left pre-scale on a raw load.
                    (Some(FSym::Const(c)), Some(FSym::Map(m)))
                        if m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None =>
                    {
                        Some(FSym::Map(MapSym {
                            a: LoadSym { pre: VScale::Left { op, imm: c }, ..m.a },
                            rhs: VRhs::None,
                            round: false,
                        }))
                    }
                    _ => None,
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FArithImm { op, dst, lhs, imm } => {
                let sym = match read_float(&defs, &writes, lhs) {
                    // `load op imm` folds into the pre-scale when the
                    // load is still raw, otherwise rides as `rhs`.
                    Some(FSym::Map(m)) if m.rhs == VRhs::None && !m.round => {
                        Some(if m.a.pre == VScale::None {
                            FSym::Map(MapSym {
                                a: LoadSym { pre: VScale::Right { op, imm }, ..m.a },
                                rhs: VRhs::None,
                                round: false,
                            })
                        } else {
                            FSym::Map(MapSym { a: m.a, rhs: VRhs::Imm { op, imm }, round: false })
                        })
                    }
                    _ => None,
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FRound { dst, src } => {
                let sym = match read_float(&defs, &writes, src) {
                    Some(FSym::Map(m)) if !m.round => Some(FSym::Map(MapSym { round: true, ..m })),
                    _ => None,
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::StoreF64 { buf, idx, val, reduce } => {
                cost.stores += 1;
                let idx = read_int(&defs, &writes, idx)?;
                let val = read_float(&defs, &writes, val)?;
                effects.push(Effect::StoreF { buf, idx, val, reduce });
            }
            Instr::IAppend { buf, val } => {
                cost.stores += 1;
                let val = read_int(&defs, &writes, val)?;
                effects.push(Effect::AppendI { buf, val });
            }
            Instr::FAppend { buf, val } => {
                cost.stores += 1;
                let val = read_float(&defs, &writes, val)?;
                effects.push(Effect::AppendF { buf, val });
            }
            Instr::FCmpBranchImm { op, lhs, imm, target } => {
                // At most one guard, jumping straight to the back-edge
                // (an `if cond { ... }` as the whole rest of the body),
                // over a raw un-scaled load, before any effect.
                if guard.is_some()
                    || target != fstep_pc
                    || !is_cmp_op(op)
                    || !base_effects.is_empty()
                {
                    return None;
                }
                match read_float(&defs, &writes, lhs) {
                    Some(FSym::Map(m))
                        if m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None =>
                    {
                        guard = Some((op, m.a, imm));
                    }
                    _ => return None,
                }
            }
            // Everything else was rejected by the whitelist pre-scan.
            _ => return None,
        }
    }

    dispatch(guard, &base_effects, &pass_effects, base_cost, pass_cost, counter, hi, vbase_of)
}

/// Pick the kernel op encoding the matched body, or `None` when no op
/// covers its effect shape exactly.  Each arm also checks that the
/// body's counted loads equal the loads the op performs — a load the op
/// would skip could hide an out-of-bounds fault the scalar loop raises.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    guard: Option<(BinOp, LoadSym, f64)>,
    base_effects: &[Effect],
    pass_effects: &[Effect],
    base_cost: CostAcc,
    pass_cost: CostAcc,
    counter: Reg,
    hi: Reg,
    vbase_of: impl Fn(ISym) -> Option<VBase>,
) -> Option<Instr> {
    let rhs_loads = |rhs: VRhs| match rhs {
        VRhs::Buf { .. } => 1,
        VRhs::None | VRhs::Imm { .. } => 0,
    };
    match guard {
        None => {
            if !pass_effects.is_empty() {
                return None;
            }
            let cost = base_cost.to_vcost()?;
            match *base_effects {
                // One store of a literal or of an invariant register: the
                // dense-output fill loop, and a run value broadcast over
                // its region.
                [Effect::StoreF {
                    buf,
                    idx,
                    val: val @ (FSym::Const(_) | FSym::Inv(_)),
                    reduce: Option::None,
                }] => {
                    if base_cost.loads != 0 {
                        return None;
                    }
                    let base = vbase_of(idx)?;
                    let val = match val {
                        FSym::Inv(reg) => VFill::Reg(reg),
                        FSym::Const(imm) => VFill::Imm(imm),
                        FSym::Map(_) => return None,
                    };
                    Some(Instr::VFillStoreF64 { buf, base, val, counter, hi, cost, lanes: 8 })
                }
                // One store of a map value: elementwise kernels when the
                // index walks with the loop, reductions when it is fixed.
                [Effect::StoreF { buf, idx, val: FSym::Map(m), reduce }] => {
                    if let Some(dst_base) = vbase_of(idx) {
                        if !is_arith_reduce(reduce) || base_cost.loads != 1 + rhs_loads(m.rhs) {
                            return None;
                        }
                        return Some(Instr::VMapF64 {
                            dst: buf,
                            dst_base,
                            reduce,
                            round: m.round,
                            a: m.a.buf,
                            a_base: m.a.base,
                            a_pre: m.a.pre,
                            rhs: m.rhs,
                            counter,
                            hi,
                            cost,
                            lanes: 8,
                        });
                    }
                    // A fixed index + an arithmetic reduce: a scalar
                    // accumulator in a one-element (or wider) buffer.
                    let ISym::Const(acc_idx) = idx else { return None };
                    let op = reduce?;
                    if acc_idx < 0 || !is_float_arith(op) || m.round {
                        return None;
                    }
                    match m.rhs {
                        // `acc op= pre(src[..])`.
                        VRhs::None => {
                            if base_cost.loads != 1 {
                                return None;
                            }
                            Some(Instr::VReduceF64 {
                                acc: buf,
                                acc_idx,
                                src: m.a.buf,
                                base: m.a.base,
                                pre: m.a.pre,
                                op,
                                counter,
                                hi,
                                cost,
                                lanes: 4,
                            })
                        }
                        // `acc op= a[..] * b[..]` — the inner product.
                        VRhs::Buf { op: BinOp::Mul, buf: b, base: b_base, pre: VScale::None }
                            if m.a.pre == VScale::None =>
                        {
                            if base_cost.loads != 2 {
                                return None;
                            }
                            Some(Instr::VMulAddF64 {
                                acc: buf,
                                acc_idx,
                                a: m.a.buf,
                                a_base: m.a.base,
                                b,
                                b_base,
                                op,
                                counter,
                                hi,
                                cost,
                                lanes: 4,
                            })
                        }
                        _ => None,
                    }
                }
                // Unconditional coordinate + value appends: the
                // dense-to-sparse copy stream.
                [Effect::AppendI { buf: idx_out, val: ISym::Counter }, Effect::AppendF { buf: val_out, val: FSym::Map(m) }]
                    if m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None =>
                {
                    if base_cost.loads != 1 {
                        return None;
                    }
                    Some(Instr::VAppendRangeF64 {
                        idx_out,
                        val_out,
                        src: m.a.buf,
                        base: m.a.base,
                        guard: Option::None,
                        counter,
                        hi,
                        cost,
                        pass_cost: ZERO_COST,
                        lanes: 4,
                    })
                }
                _ => None,
            }
        }
        Some((gop, gload, gimm)) => {
            // The guarded form: appends re-loading the guarded value (the
            // threshold sieve into a sparse output), with nothing
            // observable before the guard except its own load.
            let [Effect::AppendI { buf: idx_out, val: ISym::Counter }, Effect::AppendF { buf: val_out, val: FSym::Map(m) }] =
                *pass_effects
            else {
                return None;
            };
            let reloads =
                m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None && m.a == gload;
            let loads_once =
                base_effects.is_empty() && base_cost.loads == 1 && pass_cost.loads == 1;
            if !(reloads && loads_once) {
                return None;
            }
            Some(Instr::VAppendRangeF64 {
                idx_out,
                val_out,
                src: gload.buf,
                base: gload.base,
                guard: Some((gop, gimm)),
                counter,
                hi,
                cost: base_cost.to_vcost()?,
                pass_cost: pass_cost.to_vcost()?,
                lanes: 4,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::expr::{Expr, UnOp};
    use crate::stmt::Stmt;
    use crate::var::Names;
    use crate::vm::Vm;

    fn lower_typed(prog: &[Stmt], names: &Names, bufs: &BufferSet) -> Program {
        let raw = Program::compile(prog, names);
        let fused = crate::opt::peephole(&raw, &mut OptStats::default());
        crate::opt::typing::specialize_checked(&fused, bufs).0
    }

    /// Vectorize the typed program and assert the scalar and vectorized
    /// forms produce bit-identical buffers and identical work counters.
    fn vectorize_checked(prog: &[Stmt], names: &Names, bufs: &BufferSet) -> (Program, OptStats) {
        let typed = lower_typed(prog, names, bufs);
        let mut stats = OptStats::default();
        let vectorized = vectorize(&typed, &mut stats);
        vectorized.validate().expect("vectorized program validates");
        let outcome = assert_same_run(&typed, &vectorized, bufs, None, &vectorized.disasm());
        assert_eq!(outcome, Ok(()), "program runs");
        (vectorized, stats)
    }

    fn has(p: &Program, pred: impl Fn(&Instr) -> bool) -> bool {
        p.code().iter().any(pred)
    }

    /// Run the scalar and the vectorized program against the same buffers
    /// (under a step budget, if any) and assert the same outcome — value or
    /// error —, buffers and work counters.
    fn assert_same_run(
        typed: &Program,
        vectorized: &Program,
        bufs: &BufferSet,
        budget: Option<u64>,
        what: &str,
    ) -> Result<(), String> {
        let run = |p: &Program| {
            let mut bufs = bufs.clone();
            let mut vm = Vm::new(p);
            if let Some(budget) = budget {
                vm = vm.with_step_budget(budget);
            }
            let outcome = vm.run(p, &mut bufs).map_err(|e| format!("{e:?}"));
            (outcome, bufs, vm.stats())
        };
        let (scalar, scalar_bufs, scalar_stats) = run(typed);
        let (outcome, vec_bufs, vec_stats) = run(vectorized);
        assert_eq!(scalar, outcome, "{what}: outcome");
        assert_eq!(scalar_stats, vec_stats, "{what}: work counters");
        for (id, name, buf) in scalar_bufs.iter() {
            assert_eq!(buf, vec_bufs.get(id), "{what}: buffer {name}");
        }
        outcome
    }

    #[test]
    fn fill_loop_becomes_vfill() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::F64(vec![9.0; 13].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(12),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::Var(i),
                value: Expr::float(0.25),
                reduce: None,
            }],
        }];
        let (p, stats) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(
                &p,
                |i| matches!(i, Instr::VFillStoreF64 { val: VFill::Imm(imm), .. } if *imm == 0.25)
            ),
            "\n{}",
            p.disasm()
        );
        assert!(stats.instrs_vectorized > 0, "{stats:?}");
        assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{stats:?}");
    }

    /// A run value broadcast over its region, as run-length lowering leaves
    /// it once the value and the row offset are hoisted:
    /// `let x = vals[1]; let row = rows[0]; for j in lo..=hi { out[row + j] = x }`.
    fn run_broadcast(lo: i64, hi: i64) -> (Vec<Stmt>, Names, BufferSet) {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let vals = bufs.add("vals", Buffer::F64(vec![0.5, 7.0].into()));
        let rows = bufs.add("rows", Buffer::I64(vec![16].into()));
        let out = bufs.add("out", Buffer::F64(vec![9.0; 32].into()));
        let (x, row, j) = (names.fresh("x"), names.fresh("row"), names.fresh("j"));
        let prog = vec![
            Stmt::Let { var: x, init: Expr::load(vals, Expr::int(1)) },
            Stmt::Let { var: row, init: Expr::load(rows, Expr::int(0)) },
            Stmt::For {
                var: j,
                lo: Expr::int(lo),
                hi: Expr::int(hi),
                body: vec![Stmt::Store {
                    buf: out,
                    index: Expr::add(Expr::Var(row), Expr::Var(j)),
                    value: Expr::Var(x),
                    reduce: None,
                }],
            },
        ];
        (prog, names, bufs)
    }

    fn is_register_fill(i: &Instr) -> bool {
        matches!(
            i,
            Instr::VFillStoreF64 { val: VFill::Reg(_), base: VBase::Scaled { stride: 1, .. }, .. }
        )
    }

    #[test]
    fn run_broadcast_becomes_a_register_fill() {
        let (prog, names, bufs) = run_broadcast(2, 13);
        let (p, stats) = vectorize_checked(&prog, &names, &bufs);
        assert!(has(&p, is_register_fill), "\n{}", p.disasm());
        assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{stats:?}");
        // The fill took the bulk: the scalar loop ran one iteration.
        let mut vm = Vm::new(&p);
        let counts = vm.run_profiled(&p, &mut bufs.clone()).expect("runs");
        let head = p.code().iter().position(|i| matches!(i, Instr::IForTest { .. })).unwrap();
        assert_eq!(counts[head], 2, "one iteration and the exit test\n{}", p.disasm());
    }

    #[test]
    fn a_register_fill_declines_where_the_scalar_loop_must_run() {
        // Every precondition the op re-checks at run time, failing in turn:
        // each time the untouched scalar loop does all the work, or faults
        // where it always did — same outcome, buffers and work counters.
        let (prog, names, bufs) = run_broadcast(2, 13);
        let typed = lower_typed(&prog, &names, &bufs);
        let vectorized = vectorize(&typed, &mut OptStats::default());
        assert!(has(&vectorized, is_register_fill), "\n{}", vectorized.disasm());

        // Kind drift: the destination is rebound to another element type.
        let mut drifted = bufs.clone();
        let out = drifted.iter().find(|(_, name, _)| *name == "out").map(|(id, _, _)| id).unwrap();
        *drifted.get_mut(out) = Buffer::I64(vec![0; 32].into());
        assert_eq!(assert_same_run(&typed, &vectorized, &drifted, None, "kind drift"), Ok(()));

        // The region runs past the end of the buffer: the fill takes none
        // of it, and the scalar loop faults at the first bad element.
        let mut short = bufs.clone();
        *short.get_mut(out) = Buffer::F64(vec![9.0; 24].into());
        let outcome = assert_same_run(&typed, &vectorized, &short, None, "out of range");
        assert!(outcome.unwrap_err().contains("OutOfBounds"));

        // A trip below the op's minimum.
        let (prog, names, bufs) = run_broadcast(2, 5);
        let typed = lower_typed(&prog, &names, &bufs);
        let vectorized = vectorize(&typed, &mut OptStats::default());
        assert!(has(&vectorized, is_register_fill));
        assert_eq!(assert_same_run(&typed, &vectorized, &bufs, None, "short trip"), Ok(()));
    }

    #[test]
    fn axpy_becomes_vmap_with_reduce() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64((1..=12).map(f64::from).collect()));
        let y = bufs.add("y", Buffer::F64(vec![0.5; 12].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![Stmt::Store {
                buf: y,
                index: Expr::Var(i),
                value: Expr::mul(Expr::float(0.75), Expr::load(x, Expr::Var(i))),
                reduce: Some(BinOp::Add),
            }],
        }];
        let (p, stats) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(&p, |i| matches!(
                i,
                Instr::VMapF64 {
                    reduce: Some(BinOp::Add),
                    round: false,
                    a_pre: VScale::Left { op: BinOp::Mul, .. },
                    rhs: VRhs::None,
                    ..
                }
            )),
            "\n{}",
            p.disasm()
        );
        assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{stats:?}");
    }

    #[test]
    fn blend_inner_loop_becomes_strided_vmap_with_round() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let n = 10i64;
        let a = bufs.add("a", Buffer::F64((0..100).map(|v| v as f64 * 3.0).collect()));
        let b = bufs.add("b", Buffer::F64((0..100).map(|v| v as f64 * 1.1).collect()));
        let out = bufs.add("out", Buffer::F64(vec![0.0; 100].into()));
        let i = names.fresh("i");
        let j = names.fresh("j");
        let idx = || Expr::add(Expr::mul(Expr::Var(i), Expr::int(n)), Expr::Var(j));
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(n - 1),
            body: vec![Stmt::For {
                var: j,
                lo: Expr::int(0),
                hi: Expr::int(n - 1),
                body: vec![Stmt::Store {
                    buf: out,
                    index: idx(),
                    value: Expr::unary(
                        UnOp::Round,
                        Expr::add(
                            Expr::mul(Expr::float(0.6), Expr::load(a, idx())),
                            Expr::mul(Expr::float(0.4), Expr::load(b, idx())),
                        ),
                    ),
                    reduce: None,
                }],
            }],
        }];
        let (p, stats) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(&p, |instr| matches!(
                instr,
                Instr::VMapF64 {
                    round: true,
                    dst_base: VBase::Scaled { stride: 10, .. },
                    a_base: VBase::Scaled { stride: 10, .. },
                    rhs: VRhs::Buf { op: BinOp::Add, base: VBase::Scaled { stride: 10, .. }, .. },
                    ..
                }
            )),
            "\n{}",
            p.disasm()
        );
        // Only the innermost loop is a candidate; all of it vectorized.
        assert!(stats.instrs_vectorized > 0, "{stats:?}");
        assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{stats:?}");
    }

    #[test]
    fn dot_product_becomes_vmuladd() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64((1..=12).map(f64::from).collect()));
        let y = bufs.add("y", Buffer::F64((1..=12).map(|v| 2.0_f64.powi(v - 4)).collect()));
        let acc = bufs.add("acc", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![Stmt::Store {
                buf: acc,
                index: Expr::int(0),
                value: Expr::mul(Expr::load(x, Expr::Var(i)), Expr::load(y, Expr::Var(i))),
                reduce: Some(BinOp::Add),
            }],
        }];
        let (p, stats) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(&p, |i| matches!(
                i,
                Instr::VMulAddF64 { acc_idx: 0, op: BinOp::Add, lanes: 4, .. }
            )),
            "\n{}",
            p.disasm()
        );
        assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{stats:?}");
    }

    #[test]
    fn max_reduction_becomes_vreduce() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add(
            "x",
            Buffer::F64(
                vec![1.0, 9.0, -3.0, 4.0, 2.0, 7.5, -8.0, 3.25, 6.0, 0.5, 11.0, -2.0].into(),
            ),
        );
        let acc = bufs.add("acc", Buffer::F64(vec![f64::NEG_INFINITY].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![Stmt::Store {
                buf: acc,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Max),
            }],
        }];
        let (p, _) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(&p, |i| matches!(i, Instr::VReduceF64 { op: BinOp::Max, .. })),
            "\n{}",
            p.disasm()
        );
    }

    #[test]
    fn copy_stream_becomes_unguarded_vappend() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64((0..12).map(|v| v as f64 + 1.5).collect()));
        let idx_out = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let val_out = bufs.add("val", Buffer::F64(Vec::new().into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![
                Stmt::Append { buf: idx_out, value: Expr::Var(i) },
                Stmt::Append { buf: val_out, value: Expr::load(x, Expr::Var(i)) },
            ],
        }];
        let (p, _) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(&p, |i| matches!(i, Instr::VAppendRangeF64 { guard: None, .. })),
            "\n{}",
            p.disasm()
        );
    }

    #[test]
    fn threshold_sieve_becomes_guarded_vappend() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add(
            "x",
            Buffer::F64(
                vec![0.1, 0.9, 0.2, 0.8, 0.7, 0.05, 0.6, 0.15, 0.95, 0.4, 0.33, 0.85].into(),
            ),
        );
        let idx_out = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let val_out = bufs.add("val", Buffer::F64(Vec::new().into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![Stmt::If {
                cond: Expr::binary(BinOp::Gt, Expr::load(x, Expr::Var(i)), Expr::float(0.3)),
                then_branch: vec![
                    Stmt::Append { buf: idx_out, value: Expr::Var(i) },
                    Stmt::Append { buf: val_out, value: Expr::load(x, Expr::Var(i)) },
                ],
                else_branch: vec![],
            }],
        }];
        let (p, _) = vectorize_checked(&prog, &names, &bufs);
        assert!(
            has(&p, |i| matches!(
                i,
                Instr::VAppendRangeF64 { guard: Some((BinOp::Gt, imm)), .. } if *imm == 0.3
            )),
            "\n{}",
            p.disasm()
        );
    }

    #[test]
    fn unsupported_index_shape_is_left_scalar() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::F64(vec![0.0; 10].into()));
        let i = names.fresh("i");
        // `out[i * i] = 1.0` — a quadratic index no kernel op encodes.
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::mul(Expr::Var(i), Expr::Var(i)),
                value: Expr::float(1.0),
                reduce: None,
            }],
        }];
        let typed = lower_typed(&prog, &names, &bufs);
        let mut stats = OptStats::default();
        let vectorized = vectorize(&typed, &mut stats);
        assert_eq!(typed.code(), vectorized.code(), "\n{}", vectorized.disasm());
        assert_eq!(stats.instrs_vectorized, 0, "{stats:?}");
        assert!(stats.instrs_vectorizable > 0, "{stats:?}");
    }

    #[test]
    fn short_trips_fall_back_to_the_scalar_loop() {
        // Below the VM's minimum bulk trip the op declines at runtime and
        // the untouched scalar loop computes everything — still exact.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0].into()));
        let y = bufs.add("y", Buffer::F64(vec![0.5; 4].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![Stmt::Store {
                buf: y,
                index: Expr::Var(i),
                value: Expr::mul(Expr::float(0.75), Expr::load(x, Expr::Var(i))),
                reduce: Some(BinOp::Add),
            }],
        }];
        let (p, _) = vectorize_checked(&prog, &names, &bufs);
        assert!(has(&p, |i| matches!(i, Instr::VMapF64 { .. })), "\n{}", p.disasm());
    }

    #[test]
    fn step_budget_faults_identically_with_and_without_kernel_ops() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64((1..=12).map(f64::from).collect()));
        let y = bufs.add("y", Buffer::F64(vec![0.0; 12].into()));
        let i = names.fresh("i");
        let map = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(11),
            body: vec![Stmt::Store {
                buf: y,
                index: Expr::Var(i),
                value: Expr::mul(Expr::float(2.0), Expr::load(x, Expr::Var(i))),
                reduce: None,
            }],
        }];
        let is_map: fn(&Instr) -> bool = |i| matches!(i, Instr::VMapF64 { .. });
        let cases = [((map, names, bufs), is_map), (run_broadcast(2, 13), is_register_fill)];
        for ((prog, names, bufs), kernel_op) in cases {
            let typed = lower_typed(&prog, &names, &bufs);
            let vectorized = vectorize(&typed, &mut OptStats::default());
            assert!(has(&vectorized, kernel_op), "\n{}", vectorized.disasm());
            for budget in 0..40u64 {
                let what = format!("budget {budget}");
                let _ = assert_same_run(&typed, &vectorized, &bufs, Some(budget), &what);
            }
        }
    }
}
