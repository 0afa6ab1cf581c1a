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
use crate::bytecode::{
    splice_before, Instr, Program, Reg, VAcc, VBase, VCost, VFill, VRhs, VScale,
};
use crate::expr::BinOp;

use super::OptStats;

/// Why an innermost typed counted loop was given no kernel op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorDecline {
    /// The body holds an instruction off the matcher's whitelist, a branch
    /// other than one guard to the back edge or a jump over code nothing
    /// branches into, or a write to one of the loop's own registers.
    NotWhitelisted,
    /// An integer the body computes is not an index a kernel op encodes:
    /// `v` plus a row base `reg * stride` or a window shift `add - sub` or
    /// `-sub` (a [`VBase`]), a literal, or a register the loop does not
    /// write.
    IndexShape,
    /// A reduction into a fixed element whose index is neither a
    /// non-negative literal nor a register the loop does not write (the
    /// accumulator a [`VAcc`] encodes).
    AccIndex,
    /// The values the body computes, or the stores and appends it makes
    /// with them, match no kernel op exactly.
    EffectShape,
    /// The body counts loads the kernel op would not perform: one it
    /// skipped could hide an out-of-bounds fault the scalar loop raises.
    LoadsMismatch,
}

impl VectorDecline {
    /// Every reason, in tally order.
    pub const ALL: [VectorDecline; 5] = [
        VectorDecline::NotWhitelisted,
        VectorDecline::IndexShape,
        VectorDecline::AccIndex,
        VectorDecline::EffectShape,
        VectorDecline::LoadsMismatch,
    ];

    /// A short stable label, used by the benchmark harness and its JSON
    /// report.
    pub fn label(self) -> &'static str {
        match self {
            VectorDecline::NotWhitelisted => "not_whitelisted",
            VectorDecline::IndexShape => "index_shape",
            VectorDecline::AccIndex => "acc_index",
            VectorDecline::EffectShape => "effect_shape",
            VectorDecline::LoadsMismatch => "loads_mismatch",
        }
    }
}

use VectorDecline::{AccIndex, EffectShape, IndexShape, LoadsMismatch, NotWhitelisted};

/// Insert vectorized kernel ops before every innermost typed counted
/// loop whose body matches one of the canonical dense shapes.  Counts
/// every examined innermost loop's body length into
/// [`OptStats::instrs_vectorizable`], the matched ones into
/// [`OptStats::instrs_vectorized`] and the others, by reason, into
/// [`OptStats::vector_declined`].
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
        match match_loop(code, head, end - 1, counter, hi, var) {
            Ok(vop) => {
                stats.instrs_vectorized += body.len() as u64;
                inserts.push((head, vop));
            }
            Err(why) => stats.vector_declined[why as usize] += 1,
        }
    }
    if inserts.is_empty() {
        return p.clone();
    }
    // Each kernel op goes in front of its loop head, and every jump (the
    // back-edge included) keeps going to the *original* instruction.
    p.with_code(splice_before(code, &inserts, false))
}

/// The body of the loop at `head`, closed at `fstep_pc`, in execution
/// order: every run a forward [`Instr::Jump`] skips is left out.  Typing
/// decides the `coalesce` behind a float loaded at an integer index, and
/// leaves a jump over the arm that would have stood in for a missing value;
/// `forward` deletes that arm only later.  A run is left out only when no
/// branch anywhere lands inside it, which makes it dead.
fn live_body(code: &[Instr], head: usize, fstep_pc: usize) -> Result<Vec<Instr>, VectorDecline> {
    let mut live = Vec::new();
    let mut pc = head + 1;
    while pc < fstep_pc {
        if let Instr::Jump { target } = code[pc] {
            let target = target as usize;
            let dead = pc + 1..target;
            let lands_inside =
                || code.iter().filter_map(Instr::target).any(|t| dead.contains(&(t as usize)));
            if target <= pc || target > fstep_pc || lands_inside() {
                return Err(NotWhitelisted);
            }
            pc = target;
        } else {
            live.push(code[pc]);
            pc += 1;
        }
    }
    Ok(live)
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
    /// `v - inv` — a 1-D window element index, or the shifted coordinate
    /// of a 2-D one, waiting for `inv + `.
    Shifted { sub: Reg },
    /// `add + (v - sub)` — a full window element index.
    Window { add: Reg, sub: Reg },
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
    fn to_vcost(self) -> Result<VCost, VectorDecline> {
        let narrow = |n: u32| u8::try_from(n).map_err(|_| EffectShape);
        Ok(VCost {
            stmts: narrow(self.stmts)?,
            loads: narrow(self.loads)?,
            stores: narrow(self.stores)?,
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

/// The index shape of an integer value, if a [`VBase`] encodes it.
fn vbase_of(s: ISym) -> Result<VBase, VectorDecline> {
    match s {
        ISym::Counter => Ok(VBase::Var),
        ISym::ScaledVar { reg, stride } if stride >= 1 => Ok(VBase::Scaled { reg, stride }),
        ISym::Shifted { sub } => Ok(VBase::Offset { add: None, sub }),
        ISym::Window { add, sub } => Ok(VBase::Offset { add: Some(add), sub }),
        _ => Err(IndexShape),
    }
}

/// Why an operand of an unmatched instruction was inexpressible, or
/// `otherwise` when it was fine and the instruction's combination of
/// operands is what no shape covers.
fn why<T>(operand: &Result<T, VectorDecline>, otherwise: VectorDecline) -> VectorDecline {
    match operand {
        Err(why) => *why,
        Ok(_) => otherwise,
    }
}

/// Match the innermost counted loop at `head`, closed by its back edge at
/// `fstep_pc` (the only in-loop branch target a guard may use), against
/// the kernel-op shapes.  `counter`/`hi`/`var` are the head's registers.
fn match_loop(
    code: &[Instr],
    head: usize,
    fstep_pc: usize,
    counter: Reg,
    hi: Reg,
    var: Reg,
) -> Result<Instr, VectorDecline> {
    let body = live_body(code, head, fstep_pc)?;
    // Pre-scan: whitelist only, and the loop's own registers stay
    // loop-invariant.
    let mut writes: HashSet<Reg> = HashSet::new();
    for instr in &body {
        if !whitelisted_writes(instr, &mut writes) {
            return Err(NotWhitelisted);
        }
    }
    if writes.contains(&counter) || writes.contains(&hi) || writes.contains(&var) {
        return Err(NotWhitelisted);
    }

    // Abstract per-iteration state.  `defs` maps registers defined this
    // iteration to their symbolic value, or to why the matcher cannot
    // express it — harmless unless something observable reads it.
    // `guard` splits the body into the unconditional region and the region
    // executed only where the comparison holds.
    let mut defs: HashMap<Reg, Result<Sym, VectorDecline>> = HashMap::new();
    let mut base_cost = CostAcc::default();
    let mut pass_cost = CostAcc::default();
    let mut base_effects: Vec<Effect> = Vec::new();
    let mut pass_effects: Vec<Effect> = Vec::new();
    let mut guard: Option<(BinOp, LoadSym, f64)> = None;

    let read_int = |defs: &HashMap<Reg, Result<Sym, VectorDecline>>, r: Reg| {
        if r == var || r == counter {
            return Ok(ISym::Counter);
        }
        match defs.get(&r) {
            Some(Ok(Sym::I(s))) => Ok(*s),
            Some(Ok(Sym::F(_))) => Err(EffectShape),
            Some(Err(why)) => Err(*why),
            // Written later in the body but not yet this iteration: a
            // loop-carried value the kernel ops cannot express.
            None if writes.contains(&r) => Err(IndexShape),
            None => Ok(ISym::Inv(r)),
        }
    };
    // Every caller is a typed float read, which is what proves that an
    // invariant register holds its value on the float lane.
    let read_float = |defs: &HashMap<Reg, Result<Sym, VectorDecline>>, r: Reg| match defs.get(&r) {
        Some(Ok(Sym::F(s))) => Ok(*s),
        Some(Ok(Sym::I(_))) => Err(EffectShape),
        Some(Err(why)) => Err(*why),
        // Written later in the body: a loop-carried value.
        None if writes.contains(&r) => Err(EffectShape),
        None => Ok(FSym::Inv(r)),
    };
    let raw_load = |buf, base| {
        FSym::Map(MapSym {
            a: LoadSym { buf, base, pre: VScale::None },
            rhs: VRhs::None,
            round: false,
        })
    };

    for instr in &body {
        let in_pass = guard.is_some();
        let cost = if in_pass { &mut pass_cost } else { &mut base_cost };
        let effects = if in_pass { &mut pass_effects } else { &mut base_effects };
        match *instr {
            Instr::Nop => {}
            Instr::BumpStmt => cost.stmts += 1,
            Instr::ConstI { dst, imm } => {
                defs.insert(dst, Ok(Sym::I(ISym::Const(imm))));
            }
            Instr::ConstF { dst, imm } => {
                defs.insert(dst, Ok(Sym::F(FSym::Const(imm))));
            }
            Instr::IMov { dst, src } => {
                let s = read_int(&defs, src).map(Sym::I);
                defs.insert(dst, s);
            }
            Instr::IArithImm { op, dst, lhs, imm } => {
                let sym = match (op, read_int(&defs, lhs)) {
                    // `row * stride`: the first half of a row-major index.
                    (BinOp::Mul, Ok(ISym::Inv(reg))) if imm >= 1 => {
                        Ok(ISym::Scaled { reg, stride: imm })
                    }
                    (_, l) => Err(why(&l, IndexShape)),
                };
                defs.insert(dst, sym.map(Sym::I));
            }
            Instr::IArith { op, dst, lhs, rhs } => {
                let l = read_int(&defs, lhs);
                let r = read_int(&defs, rhs);
                let sym = match (op, l, r) {
                    // `row * stride + v` in either operand order.
                    (BinOp::Add, Ok(ISym::Scaled { reg, stride }), Ok(ISym::Counter))
                    | (BinOp::Add, Ok(ISym::Counter), Ok(ISym::Scaled { reg, stride })) => {
                        Ok(ISym::ScaledVar { reg, stride })
                    }
                    // `base + v` with unit stride (a hoisted row offset).
                    (BinOp::Add, Ok(ISym::Inv(reg)), Ok(ISym::Counter))
                    | (BinOp::Add, Ok(ISym::Counter), Ok(ISym::Inv(reg))) => {
                        Ok(ISym::ScaledVar { reg, stride: 1 })
                    }
                    // `v - sub`, then `add + (v - sub)` in either order:
                    // a coordinate an `offset` shifted, into a window.
                    (BinOp::Sub, Ok(ISym::Counter), Ok(ISym::Inv(sub))) => {
                        Ok(ISym::Shifted { sub })
                    }
                    (BinOp::Add, Ok(ISym::Inv(add)), Ok(ISym::Shifted { sub }))
                    | (BinOp::Add, Ok(ISym::Shifted { sub }), Ok(ISym::Inv(add))) => {
                        Ok(ISym::Window { add, sub })
                    }
                    (_, l, r) => Err(why(&l, why(&r, IndexShape))),
                };
                defs.insert(dst, sym.map(Sym::I));
            }
            Instr::LoadF64 { dst, buf, idx } => {
                cost.loads += 1;
                let sym = read_int(&defs, idx).and_then(vbase_of).map(|base| raw_load(buf, base));
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FMulLoad { dst, lhs, buf, idx } => {
                cost.loads += 1;
                let base = read_int(&defs, idx).and_then(vbase_of);
                let sym = match (read_float(&defs, lhs), base) {
                    // `const * load`: the load with a left pre-scale.
                    (Ok(FSym::Const(c)), Ok(base)) => Ok(FSym::Map(MapSym {
                        a: LoadSym { buf, base, pre: VScale::Left { op: BinOp::Mul, imm: c } },
                        rhs: VRhs::None,
                        round: false,
                    })),
                    // `load * load`: the dual-load map (and the inner
                    // product's elementwise half).
                    (Ok(FSym::Map(m)), Ok(base)) if m.rhs == VRhs::None && !m.round => {
                        Ok(FSym::Map(MapSym {
                            a: m.a,
                            rhs: VRhs::Buf { op: BinOp::Mul, buf, base, pre: VScale::None },
                            round: false,
                        }))
                    }
                    (l, base) => Err(why(&base, why(&l, EffectShape))),
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FArith { op, dst, lhs, rhs } => {
                let l = read_float(&defs, lhs);
                let r = read_float(&defs, rhs);
                let sym = match (l, r) {
                    // `pre_a(a[..]) op pre_b(b[..])` — the two-load map
                    // (the alpha blend's weighted sum).
                    (Ok(FSym::Map(a)), Ok(FSym::Map(b)))
                        if a.rhs == VRhs::None && !a.round && b.rhs == VRhs::None && !b.round =>
                    {
                        Ok(FSym::Map(MapSym {
                            a: a.a,
                            rhs: VRhs::Buf { op, buf: b.a.buf, base: b.a.base, pre: b.a.pre },
                            round: false,
                        }))
                    }
                    // `map op const` — an immediate right operand.
                    (Ok(FSym::Map(m)), Ok(FSym::Const(c))) if m.rhs == VRhs::None && !m.round => {
                        Ok(FSym::Map(MapSym {
                            a: m.a,
                            rhs: VRhs::Imm { op, imm: c },
                            round: false,
                        }))
                    }
                    // `const op load` — a left pre-scale on a raw load.
                    (Ok(FSym::Const(c)), Ok(FSym::Map(m)))
                        if m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None =>
                    {
                        Ok(FSym::Map(MapSym {
                            a: LoadSym { pre: VScale::Left { op, imm: c }, ..m.a },
                            rhs: VRhs::None,
                            round: false,
                        }))
                    }
                    (l, r) => Err(why(&l, why(&r, EffectShape))),
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FArithImm { op, dst, lhs, imm } => {
                let sym = match read_float(&defs, lhs) {
                    // `load op imm` folds into the pre-scale when the
                    // load is still raw, otherwise rides as `rhs`.
                    Ok(FSym::Map(m)) if m.rhs == VRhs::None && !m.round => {
                        Ok(if m.a.pre == VScale::None {
                            FSym::Map(MapSym {
                                a: LoadSym { pre: VScale::Right { op, imm }, ..m.a },
                                rhs: VRhs::None,
                                round: false,
                            })
                        } else {
                            FSym::Map(MapSym { a: m.a, rhs: VRhs::Imm { op, imm }, round: false })
                        })
                    }
                    l => Err(why(&l, EffectShape)),
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::FRound { dst, src } => {
                let sym = match read_float(&defs, src) {
                    Ok(FSym::Map(m)) if !m.round => Ok(FSym::Map(MapSym { round: true, ..m })),
                    l => Err(why(&l, EffectShape)),
                };
                defs.insert(dst, sym.map(Sym::F));
            }
            Instr::StoreF64 { buf, idx, val, reduce } => {
                cost.stores += 1;
                let idx = read_int(&defs, idx)?;
                let val = read_float(&defs, val)?;
                effects.push(Effect::StoreF { buf, idx, val, reduce });
            }
            Instr::IAppend { buf, val } => {
                cost.stores += 1;
                let val = read_int(&defs, val)?;
                effects.push(Effect::AppendI { buf, val });
            }
            Instr::FAppend { buf, val } => {
                cost.stores += 1;
                let val = read_float(&defs, val)?;
                effects.push(Effect::AppendF { buf, val });
            }
            Instr::FCmpBranchImm { op, lhs, imm, target } => {
                // At most one guard, jumping straight to the back-edge
                // (an `if cond { ... }` as the whole rest of the body),
                // over a raw un-scaled load, before any effect.
                if guard.is_some() || target as usize != fstep_pc || !is_cmp_op(op) {
                    return Err(NotWhitelisted);
                }
                if !base_effects.is_empty() {
                    return Err(EffectShape);
                }
                match read_float(&defs, lhs)? {
                    FSym::Map(m) if m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None => {
                        guard = Some((op, m.a, imm));
                    }
                    _ => return Err(EffectShape),
                }
            }
            // Everything else was rejected by the whitelist pre-scan.
            _ => return Err(NotWhitelisted),
        }
    }

    dispatch(guard, &base_effects, &pass_effects, base_cost, pass_cost, counter, hi)
}

/// Pick the kernel op encoding the matched body, or say why no op covers
/// its effect shape exactly.  Each arm checks, last, that the body's
/// counted loads equal the loads the op performs — a load the op would
/// skip could hide an out-of-bounds fault the scalar loop raises.
fn dispatch(
    guard: Option<(BinOp, LoadSym, f64)>,
    base_effects: &[Effect],
    pass_effects: &[Effect],
    base_cost: CostAcc,
    pass_cost: CostAcc,
    counter: Reg,
    hi: Reg,
) -> Result<Instr, VectorDecline> {
    let rhs_loads = |rhs: VRhs| match rhs {
        VRhs::Buf { .. } => 1,
        VRhs::None | VRhs::Imm { .. } => 0,
    };
    let loads = |want: u32| if base_cost.loads == want { Ok(()) } else { Err(LoadsMismatch) };
    match guard {
        None => {
            if !pass_effects.is_empty() {
                return Err(EffectShape);
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
                    let base = vbase_of(idx)?;
                    let val = match val {
                        FSym::Inv(reg) => VFill::Reg(reg),
                        FSym::Const(imm) => VFill::Imm(imm),
                        FSym::Map(_) => return Err(EffectShape),
                    };
                    loads(0)?;
                    Ok(Instr::VFillStoreF64 { buf, base, val, counter, hi, cost, lanes: 8 })
                }
                // One store of a map value: elementwise kernels when the
                // index walks with the loop, reductions when it is fixed.
                [Effect::StoreF { buf, idx, val: FSym::Map(m), reduce }] => {
                    if let Ok(dst_base) = vbase_of(idx) {
                        if !is_arith_reduce(reduce) {
                            return Err(EffectShape);
                        }
                        loads(1 + rhs_loads(m.rhs))?;
                        return Ok(Instr::VMapF64 {
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
                    // A fixed index + an arithmetic reduce: an accumulator
                    // at a literal or at a loop-invariant register.
                    let acc_idx = match idx {
                        ISym::Const(imm) if imm >= 0 => VAcc { imm, reg: None },
                        ISym::Inv(reg) => VAcc { imm: 0, reg: Some(reg) },
                        _ => return Err(AccIndex),
                    };
                    let op = reduce.ok_or(EffectShape)?;
                    if !is_float_arith(op) || m.round {
                        return Err(EffectShape);
                    }
                    match m.rhs {
                        // `acc op= pre(src[..])`.
                        VRhs::None => {
                            loads(1)?;
                            Ok(Instr::VReduceF64 {
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
                            loads(2)?;
                            Ok(Instr::VMulAddF64 {
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
                        _ => Err(EffectShape),
                    }
                }
                // Unconditional coordinate + value appends: the
                // dense-to-sparse copy stream.
                [Effect::AppendI { buf: idx_out, val: ISym::Counter }, Effect::AppendF { buf: val_out, val: FSym::Map(m) }]
                    if m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None =>
                {
                    loads(1)?;
                    Ok(Instr::VAppendRangeF64 {
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
                _ => Err(EffectShape),
            }
        }
        Some((gop, gload, gimm)) => {
            // The guarded form: appends re-loading the guarded value (the
            // threshold sieve into a sparse output), with nothing
            // observable before the guard except its own load.
            let [Effect::AppendI { buf: idx_out, val: ISym::Counter }, Effect::AppendF { buf: val_out, val: FSym::Map(m) }] =
                *pass_effects
            else {
                return Err(EffectShape);
            };
            let reloads =
                m.rhs == VRhs::None && !m.round && m.a.pre == VScale::None && m.a == gload;
            if !(reloads && base_effects.is_empty()) {
                return Err(EffectShape);
            }
            if base_cost.loads != 1 || pass_cost.loads != 1 {
                return Err(LoadsMismatch);
            }
            Ok(Instr::VAppendRangeF64 {
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
pub(super) mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::expr::{Expr, UnOp};
    use crate::opt::verify_bytecode;
    use crate::stmt::Stmt;
    use crate::var::Names;
    use crate::vm::Vm;
    use std::time::Instant;

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
        let outcome = assert_same_run(&typed, &vectorized, bufs, &vectorized.disasm());
        assert_eq!(outcome, Ok(()), "program runs");
        (vectorized, stats)
    }

    fn has(p: &Program, pred: impl Fn(&Instr) -> bool) -> bool {
        p.code().iter().any(pred)
    }

    /// Run the scalar and the vectorized program against the same buffers
    /// and assert the same outcome — value or error —, buffers and work
    /// counters.  (`opt::op_contract` runs every kernel op under step
    /// budgets, faults and deadlines.)
    fn assert_same_run(
        typed: &Program,
        vectorized: &Program,
        bufs: &BufferSet,
        what: &str,
    ) -> Result<(), String> {
        let run = |p: &Program| {
            let mut bufs = bufs.clone();
            let mut vm = Vm::new(p);
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

    /// The buffers of [`vop_kernel`], in the order it adds them; `V_OUT` is
    /// also [`window_dot`]'s accumulator and [`run_broadcast`]'s output.
    pub(in crate::opt) const V_XS: BufId = BufId(0);
    pub(in crate::opt) const V_YS: BufId = BufId(1);
    pub(in crate::opt) const V_OUT: BufId = BufId(2);
    pub(in crate::opt) const V_IDX: BufId = BufId(3);
    pub(in crate::opt) const V_VALS: BufId = BufId(4);

    /// What [`vop_kernel`]'s loop does at `i`, each the loop of one V-op.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Body {
        /// `out[i] = 0.25`: a literal fill.
        Fill,
        /// `out[i] = t`, `t = xs[0]` read in front of the loop: a register fill.
        FillReg,
        /// `out[i] += 0.75 * xs[i]`: a map that reduces into its destination.
        Axpy,
        /// `out[i] = round(0.6 * xs[i] + 0.4 * ys[i])`: a map of two sources.
        Blend,
        /// `out[0] += xs[i] * ys[i]`: a multiply-add.
        Dot,
        /// `out[0] max= xs[i]`: a reduction.
        Max,
        /// `idx.push(i) ; vals.push(xs[i])`: an append.
        Copy,
        /// [`Body::Copy`] where `xs[i] > 0.3`: a guarded append.
        Sieve,
    }

    pub(in crate::opt) const BODIES: [Body; 8] = [
        Body::Fill,
        Body::FillReg,
        Body::Axpy,
        Body::Blend,
        Body::Dot,
        Body::Max,
        Body::Copy,
        Body::Sieve,
    ];

    /// `for i in 0..=n - 1 { body }` over `xs` (`n` of them, at least one),
    /// `ys` thirds from -3, `out` all `9.5`, and two empty outputs: a loop
    /// `vectorize` gives one V-op.
    pub(in crate::opt) fn vop_kernel(body: Body, xs: &[f64]) -> (Vec<Stmt>, Names, BufferSet) {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let n = xs.len();
        let x = bufs.add("xs", Buffer::F64(xs.to_vec().into()));
        let y = bufs.add("ys", Buffer::F64((0..n).map(|k| k as f64 / 3.0 - 3.0).collect()));
        let out = bufs.add("out", Buffer::F64(vec![9.5; n].into()));
        let idx = bufs.add("idx", Buffer::I64(Vec::new().into()));
        let vals = bufs.add("vals", Buffer::F64(Vec::new().into()));
        assert_eq!((x, y, out, idx, vals), (V_XS, V_YS, V_OUT, V_IDX, V_VALS));
        let [i, t] = ["i", "t"].map(|name| names.fresh(name));
        let at = |buf| Expr::load(buf, Expr::Var(i));
        let store = |index, value, reduce| Stmt::Store { buf: out, index, value, reduce };
        let pushes = vec![
            Stmt::Append { buf: idx, value: Expr::Var(i) },
            Stmt::Append { buf: vals, value: at(x) },
        ];
        let scaled = |by: f64, buf| Expr::mul(Expr::float(by), at(buf));
        let body = match body {
            Body::Fill => vec![store(Expr::Var(i), Expr::float(0.25), None)],
            Body::FillReg => vec![store(Expr::Var(i), Expr::Var(t), None)],
            Body::Axpy => vec![store(Expr::Var(i), scaled(0.75, x), Some(BinOp::Add))],
            Body::Blend => {
                let blend = Expr::unary(UnOp::Round, Expr::add(scaled(0.6, x), scaled(0.4, y)));
                vec![store(Expr::Var(i), blend, None)]
            }
            Body::Dot => vec![store(Expr::int(0), Expr::mul(at(x), at(y)), Some(BinOp::Add))],
            Body::Max => vec![store(Expr::int(0), at(x), Some(BinOp::Max))],
            Body::Copy => pushes,
            Body::Sieve => {
                vec![Stmt::if_then(Expr::binary(BinOp::Gt, at(x), Expr::float(0.3)), pushes)]
            }
        };
        let stmts = vec![
            Stmt::Let { var: t, init: Expr::load(x, Expr::int(0)) },
            Stmt::For { var: i, lo: Expr::int(0), hi: Expr::int(n as i64 - 1), body },
        ];
        (stmts, names, bufs)
    }

    /// Each loop of [`vop_kernel`] becomes its kernel op, whole.
    #[test]
    fn each_loop_body_becomes_its_kernel_op() {
        let is: [fn(&Instr) -> bool; 8] = [
            |i| matches!(i, Instr::VFillStoreF64 { val: VFill::Imm(imm), .. } if *imm == 0.25),
            |i| matches!(i, Instr::VFillStoreF64 { val: VFill::Reg(_), base: VBase::Var, .. }),
            |i| {
                let Instr::VMapF64 { reduce, round, a_pre, rhs, .. } = *i else { return false };
                let axpy = VScale::Left { op: BinOp::Mul, imm: 0.75 };
                (reduce, round, a_pre, rhs) == (Some(BinOp::Add), false, axpy, VRhs::None)
            },
            |i| {
                matches!(
                    i,
                    Instr::VMapF64 { round: true, rhs: VRhs::Buf { op: BinOp::Add, .. }, .. }
                )
            },
            |i| {
                let Instr::VMulAddF64 { acc_idx, op, lanes, .. } = *i else { return false };
                (acc_idx, op, lanes) == (VAcc { imm: 0, reg: None }, BinOp::Add, 4)
            },
            |i| matches!(i, Instr::VReduceF64 { op: BinOp::Max, .. }),
            |i| matches!(i, Instr::VAppendRangeF64 { guard: None, .. }),
            |i| matches!(i, Instr::VAppendRangeF64 { guard: Some((BinOp::Gt, 0.3)), .. }),
        ];
        let xs: Vec<f64> = (0..12).map(|k| (k % 5) as f64 * 0.25).collect();
        for (body, is) in BODIES.into_iter().zip(is) {
            let (prog, names, bufs) = vop_kernel(body, &xs);
            let (p, stats) = vectorize_checked(&prog, &names, &bufs);
            assert!(has(&p, is), "{body:?}\n{}", p.disasm());
            assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{body:?}: {stats:?}");
        }
    }

    /// A run value broadcast over its region, as run-length lowering leaves
    /// it once the value and the row offset are hoisted:
    /// `let x = vals[1]; let row = rows[0]; for j in lo..=hi { out[row + j] = x }`.
    pub(in crate::opt) fn run_broadcast(lo: i64, hi: i64) -> (Vec<Stmt>, Names, BufferSet) {
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
        assert_eq!(stats.vector_declined, [0, 1, 0, 0, 0], "one `index_shape`");
    }

    #[test]
    fn short_trips_fall_back_to_the_scalar_loop() {
        // Below the VM's minimum bulk trip the op declines at runtime and
        // the untouched scalar loop computes everything — still exact.  At
        // the minimum, the op takes the bulk.
        for (trips, dispatched) in [(1, 1), (Vm::VMIN_TRIP, Vm::VMIN_TRIP), (Vm::VMIN_TRIP + 1, 1)]
        {
            let mut names = Names::new();
            let mut bufs = BufferSet::new();
            let x = bufs.add("x", Buffer::F64((1..=trips).map(|v| v as f64).collect()));
            let y = bufs.add("y", Buffer::F64(vec![0.5; trips as usize].into()));
            let i = names.fresh("i");
            let prog = vec![Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(trips - 1),
                body: vec![Stmt::Store {
                    buf: y,
                    index: Expr::Var(i),
                    value: Expr::mul(Expr::float(0.75), Expr::load(x, Expr::Var(i))),
                    reduce: Some(BinOp::Add),
                }],
            }];
            let (p, _) = vectorize_checked(&prog, &names, &bufs);
            assert!(has(&p, |i| matches!(i, Instr::VMapF64 { .. })), "\n{}", p.disasm());
            // The scalar iterations the loop head let in, and its exit test.
            let counts = Vm::new(&p).run_profiled(&p, &mut bufs.clone()).expect("runs");
            let head = p.code().iter().position(|i| matches!(i, Instr::IForTest { .. })).unwrap();
            assert_eq!(counts[head] as i64, dispatched + 1, "{trips} trips\n{}", p.disasm());
        }
    }

    /// Fig. 9's window dot as `offset` / `permit` / `coalesce` lower it:
    /// `acc[r] += coalesce(a[p + (v - q)], 0.0) * b[s + v]` for `v` in
    /// `q..q + trips`, under a loop over `rows` rows `r` with `p = r + 1`.
    /// Typing decides the `coalesce` (a float load is never missing), which
    /// leaves a jump over its dead arm in the loop body.  With
    /// `writes_q`, the body also steps `q` after the store: the window's
    /// shift is then loop-carried.
    pub(in crate::opt) fn window_dot(
        rows: i64,
        trips: i64,
        writes_q: bool,
    ) -> (Vec<Stmt>, Names, BufferSet) {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let width = rows + trips + 2;
        let a =
            bufs.add("a", Buffer::F64((0..width).map(|k| (k % 13) as f64 * 0.375 - 2.0).collect()));
        let b = bufs.add("b", Buffer::F64((0..32).map(|k| 1.0 / (k as f64 + 3.0)).collect()));
        let acc = bufs.add("acc", Buffer::F64(vec![0.5; rows as usize].into()));
        // The window's shift and the second operand's start, loaded so that
        // nothing folds them into the indices.
        let shift = bufs.add("shift", Buffer::I64(vec![5, 2].into()));
        let [r, p, q, s, v] = ["r", "p", "q", "s", "v"].map(|name| names.fresh(name));
        let shifted = Expr::add(Expr::Var(p), Expr::sub(Expr::Var(v), Expr::Var(q)));
        let mut body = vec![Stmt::Store {
            buf: acc,
            index: Expr::Var(r),
            value: Expr::mul(
                Expr::coalesce(vec![Expr::load(a, shifted), Expr::float(0.0)]),
                Expr::load(b, Expr::add(Expr::Var(s), Expr::Var(v))),
            ),
            reduce: Some(BinOp::Add),
        }];
        if writes_q {
            body.push(Stmt::Assign { var: q, value: Expr::add(Expr::Var(q), Expr::int(1)) });
        }
        let prog = vec![
            Stmt::Let { var: q, init: Expr::load(shift, Expr::int(0)) },
            Stmt::Let { var: s, init: Expr::load(shift, Expr::int(1)) },
            Stmt::For {
                var: r,
                lo: Expr::int(0),
                hi: Expr::int(rows - 1),
                body: vec![
                    Stmt::Let { var: p, init: Expr::add(Expr::Var(r), Expr::int(1)) },
                    Stmt::For {
                        var: v,
                        lo: Expr::Var(q),
                        hi: Expr::add(Expr::Var(q), Expr::int(trips - 1)),
                        body,
                    },
                ],
            },
        ];
        (prog, names, bufs)
    }

    fn is_window_dot(i: &Instr) -> bool {
        matches!(
            i,
            Instr::VMulAddF64 {
                acc_idx: VAcc { imm: 0, reg: Some(_) },
                a_base: VBase::Offset { .. },
                b_base: VBase::Scaled { stride: 1, .. },
                ..
            }
        )
    }

    #[test]
    fn the_window_dot_becomes_vmuladd_and_runs_as_its_scalar_twin() {
        for trips in 1..=9 {
            let (prog, names, bufs) = window_dot(400, trips, false);
            let typed = lower_typed(&prog, &names, &bufs);
            assert!(has(&typed, |i| matches!(i, Instr::Jump { .. })), "the dead arm is there");
            let mut stats = OptStats::default();
            let vectorized = vectorize(&typed, &mut stats);
            vectorized.validate().expect("vectorized program validates");
            verify_bytecode(&vectorized, &bufs).expect("vectorized program verifies");
            assert!(has(&vectorized, is_window_dot), "{trips} trips\n{}", vectorized.disasm());
            assert_eq!(stats.instrs_vectorized, stats.instrs_vectorizable, "{stats:?}");
            assert_eq!(assert_same_run(&typed, &vectorized, &bufs, "unbounded"), Ok(()));
        }
    }

    #[test]
    fn a_window_whose_shift_the_loop_writes_stays_scalar() {
        let (prog, names, bufs) = window_dot(8, 6, true);
        let typed = lower_typed(&prog, &names, &bufs);
        let mut stats = OptStats::default();
        let vectorized = vectorize(&typed, &mut stats);
        assert_eq!(typed.code(), vectorized.code(), "\n{}", vectorized.disasm());
        assert_eq!(stats.vector_declined, [0, 1, 0, 0, 0], "one `index_shape`");
    }

    #[test]
    fn a_kernel_op_whose_index_register_its_loop_writes_is_rejected() {
        let (prog, names, bufs) = window_dot(8, 6, false);
        let vectorized = vectorize(&lower_typed(&prog, &names, &bufs), &mut OptStats::default());
        let op = vectorized.code().iter().position(is_window_dot).expect("the window dot");
        // A temporary the loop body writes: where the shifted index goes.
        let Instr::IForTest { end, .. } = vectorized.code()[op + 1] else { panic!("a loop head") };
        let written = vectorized.code()[op + 2..end as usize]
            .iter()
            .find_map(|i| match *i {
                Instr::IArith { dst, .. } => Some(dst),
                _ => None,
            })
            .expect("an index computed in the body");
        let clobbered = |edit: fn(&mut Instr, Reg)| {
            let mut code = vectorized.code().to_vec();
            edit(&mut code[op], written);
            verify_bytecode(&vectorized.with_code(code), &bufs).unwrap_err()
        };
        let shift: fn(&mut Instr, Reg) = |op, reg| {
            if let Instr::VMulAddF64 { a_base: VBase::Offset { sub, .. }, .. } = op {
                *sub = reg;
            }
        };
        let acc: fn(&mut Instr, Reg) = |op, reg| {
            if let Instr::VMulAddF64 { acc_idx, .. } = op {
                acc_idx.reg = Some(reg);
            }
        };
        for edit in [shift, acc] {
            let err = clobbered(edit);
            assert!(err.contains("which its loop body writes"), "{err}");
        }
    }

    /// Not a test: the measurement behind `Vm::VMIN_TRIP`.  Times 4 096
    /// entries of a loop of `bulk + 1` trips per kernel op with `simd` on
    /// and off, alternately, and prints the median time per entry of each
    /// and their ratio; an op pays at a bulk where the ratio is below 1.
    /// (Below the floor the op declines, so lower it first to time that.)
    #[test]
    #[ignore]
    fn vmin_trip_break_even() {
        use crate::config::ExecConfig;
        const ENTRIES: i64 = 4096;
        for (shape, name) in ["v_mul_add_f64", "v_fill_store_f64", "v_map_f64"].iter().enumerate() {
            for bulk in 1..=4 {
                let (mut names, mut bufs, len) =
                    (Names::new(), BufferSet::new(), ENTRIES * (bulk + 1));
                let x = bufs.add("x", Buffer::F64((0..len).map(|k| (k % 7) as f64).collect()));
                let y =
                    bufs.add("y", Buffer::F64((0..len).map(|k| (k % 5) as f64 + 0.25).collect()));
                let out = bufs.add("out", Buffer::F64(vec![0.0; len as usize].into()));
                let [e, t, v] = ["e", "t", "v"].map(|name| names.fresh(name));
                let row = || Expr::add(Expr::mul(Expr::Var(e), Expr::int(bulk + 1)), Expr::Var(v));
                // `out[e] += x[e + v] * y[v]`, `out[row] = x[e]` (a register
                // fill), `out[row] = 0.6 * x[row] + 0.4 * y[row]`.
                let (index, value, reduce) = match shape {
                    0 => {
                        let x = Expr::load(x, Expr::add(Expr::Var(e), Expr::Var(v)));
                        (Expr::Var(e), Expr::mul(x, Expr::load(y, Expr::Var(v))), Some(BinOp::Add))
                    }
                    1 => (row(), Expr::Var(t), None),
                    _ => {
                        let x = Expr::mul(Expr::float(0.6), Expr::load(x, row()));
                        (
                            row(),
                            Expr::add(x, Expr::mul(Expr::float(0.4), Expr::load(y, row()))),
                            None,
                        )
                    }
                };
                let store = Stmt::Store { buf: out, index, value, reduce };
                let inner =
                    Stmt::For { var: v, lo: Expr::int(0), hi: Expr::int(bulk), body: vec![store] };
                let body = vec![Stmt::Let { var: t, init: Expr::load(x, Expr::Var(e)) }, inner];
                let prog =
                    vec![Stmt::For { var: e, lo: Expr::int(0), hi: Expr::int(ENTRIES - 1), body }];
                let [scalar, op] = [false, true].map(|simd| {
                    let config = ExecConfig { simd, ..ExecConfig::default() };
                    crate::opt::optimize_and_lower(&prog, &mut names.clone(), &bufs, &config)
                        .expect("compiles")
                        .program
                });
                let mut times = [Vec::new(), Vec::new()];
                for round in 0..300 {
                    for k in [round % 2, 1 - round % 2] {
                        let program = [&scalar, &op][k];
                        let (mut vm, mut run) = (Vm::new(program), bufs.clone());
                        let start = Instant::now();
                        vm.run(program, &mut run).expect("runs");
                        times[k].push(start.elapsed().as_nanos() as f64 / ENTRIES as f64);
                    }
                }
                let [s, v] = times.map(|mut t| {
                    t.sort_by(f64::total_cmp);
                    t[t.len() / 2]
                });
                println!("{name} bulk {bulk}: scalar {s:.1} ns, op {v:.1} ns per entry, op / scalar {:.3}", v / s);
            }
        }
    }
}
