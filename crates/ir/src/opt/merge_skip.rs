//! Run-ahead selection for the two-finger merge.
//!
//! The loop the stepper lowerer emits for two coiterating steppers under a
//! conjunctive body (paper §6.1; Fig. 7's two-finger SpMSpV, Fig. 8's walked
//! triangle count) reaches this pass, typed and through `forward`, as
//!
//! ```text
//! while start <= stop            IWhileCmp(Le)
//!     s1 = a[p]                  LoadI64
//!     s2 = b[q]                  LoadI64
//!     t  = min(s1, s2)           IArith(Min)
//!     ss = min(t, stop)          IArith(Min)
//!     if_false ss == s1 -> L     ICmpBranch(Eq)   (the fingers in either order)
//!     if_false ss == s2 -> L     ICmpBranch(Eq)
//!     ..                         what a match does: anything
//! L:  if s1 == ss { p += 1 }     IAdvance
//!     if s2 == ss { q += 1 }     IAdvance
//!     start = ss + 1             IArithImm(Add)
//! next while start <= stop       IWhileNext
//! ```
//!
//! and on sparse operands all but a few per cent of its iterations find
//! `s1 != s2`, match nothing and do finger bookkeeping at a dozen dispatches
//! each.  [`merge_skip`] recognises the loop and places one
//! [`Instr::IMergeSkip`] as the body's first instruction — on the target of
//! the bottom test, so it is dispatched at loop entry and after every scalar
//! iteration — which runs those iterations natively.  Like the vectorized
//! kernel ops this is strictly additive: the scalar loop is left
//! instruction for instruction as it was, still executes every iteration
//! that matches, ends the loop, faults or trips a budget, and is all there
//! is when the op declines at run time.  The op carries the statement
//! counts of an iteration it skips, read off the loop, so
//! [`crate::interp::ExecStats`] cannot tell the two apart and the pass runs
//! under [`super::StatsContract::Exact`].
//!
//! The **block form** takes VBL's loop (Fig. 3b; Fig. 7's VBL SpMSpV), whose
//! first finger's stride ends a block of `ofs[p + 1] - ofs[p]` coordinates:
//! there the inner guard is the block test `block_test` matches, and the op
//! also skips the steps that find the other finger's coordinate in the zero
//! gap in front of the block.
//!
//! The **jumper form** takes the loop lowering emits for two galloped
//! fingers (paper §6.1, "Jumpers"; Fig. 7's "gallop both" SpMSpV, Fig. 8's
//! galloped triangle count), whose step ends at the *later* stride, `ss =
//! min(max(s1, s2), stop)`: where one finger ends the step and the other
//! does not, the trailer seeks to `ss` in its row and runs a one-step
//! stepper there, whose body runs only where the seek lands on `ss`.  The
//! recogniser walks that iteration, for either finger leading, from the top
//! of the body to the bottom test ([`walk`]), and the op performs every one
//! whose seek lands past `ss` — the loop's last included, after which it
//! leaves the loop by its head's exit.
//!
//! A loop that is not given the op says why ([`MergeDecline`]); the tallies
//! are in [`OptStats::merge_declined`].

use crate::buffer::BufId;
use crate::bytecode::{
    for_each_reg_role, jump_targets, splice_before, Instr, MergeForm, Program, Reg, Role,
};
use crate::expr::BinOp;

use super::peephole::dead_after;
use super::OptStats;

/// Why a typed `while` loop was not given a run-ahead op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeDecline {
    /// Not `while start <= stop` on two registers closed by its own bottom
    /// test: the loop counts another way, or its condition takes more than
    /// the head to evaluate.
    NotAStepLoop,
    /// The body does not begin by loading two strides: one stepper alone
    /// (nothing to coiterate), or a stride that is not a plain coordinate
    /// load.
    SingleFinger,
    /// The step is not the minimum of the two strides clipped to the bound,
    /// nor the maximum with lowering's jumper fall-back behind it (the
    /// trailer's seek in its own row and a one-step stepper, under a body
    /// that stores nothing where the seek lands past the step): another
    /// leader election, or a jumper loop whose fall-back is not that one.
    NotTheMinimum,
    /// The body is not guarded by both fingers ending the step (or by one
    /// ending it inside the other's block), so it does work on a step only
    /// one of them ends: a disjunctive (union) body, a block test that is
    /// not VBL's, or two fingers whose strides end blocks or runs.
    NotGuardedByBoth,
    /// A finger does not advance by one position where its stride ends the
    /// step, or the next step does not start one past this one.
    NonUnitAdvance,
    /// Two of the loop's registers, or its two buffers, are the same.
    SharedOperand,
}

impl MergeDecline {
    /// Every reason, in tally order.
    pub const ALL: [MergeDecline; 6] = [
        MergeDecline::NotAStepLoop,
        MergeDecline::SingleFinger,
        MergeDecline::NotTheMinimum,
        MergeDecline::NotGuardedByBoth,
        MergeDecline::NonUnitAdvance,
        MergeDecline::SharedOperand,
    ];

    /// A short stable label, used by the benchmark harness and its JSON
    /// report.
    pub fn label(self) -> &'static str {
        match self {
            MergeDecline::NotAStepLoop => "not_a_step_loop",
            MergeDecline::SingleFinger => "single_finger",
            MergeDecline::NotTheMinimum => "not_the_minimum",
            MergeDecline::NotGuardedByBoth => "not_guarded_by_both",
            MergeDecline::NonUnitAdvance => "non_unit_advance",
            MergeDecline::SharedOperand => "shared_operand",
        }
    }
}

/// Give every two-finger merge loop of `p` its run-ahead op.  `p` is typed
/// bytecode behind `forward`, which makes the advances and the bottom tests
/// the shape is recognised by, and in front of `finalize`: every statement
/// is still an explicit [`Instr::BumpStmt`].
pub fn merge_skip(p: &Program, stats: &mut OptStats) -> Program {
    let mut inserts = Vec::new();
    for (head, instr) in p.code.iter().enumerate() {
        if !matches!(instr, Instr::IWhileCmp { .. }) {
            continue;
        }
        match recognise(&p.code, head) {
            Ok(op) => {
                stats.merge_skips += 1;
                inserts.push((head + 1, op));
            }
            Err(why) => stats.merge_declined[why as usize] += 1,
        }
    }
    if inserts.is_empty() {
        return p.clone();
    }
    // The bottom test's jump to the body's first instruction lands on the op.
    p.with_code(splice_before(&p.code, &inserts, true))
}

/// Whether `{x, y}` is `{a, b}`.
fn pair(x: Reg, y: Reg, a: Reg, b: Reg) -> bool {
    (x, y) == (a, b) || (x, y) == (b, a)
}

/// The op for the loop headed at `head`, or why it gets none.
fn recognise(code: &[Instr], head: usize) -> Result<Instr, MergeDecline> {
    use MergeDecline::*;
    let Instr::IWhileCmp { op: BinOp::Le, lhs: start, rhs: stop, end } = code[head] else {
        return Err(NotAStepLoop);
    };
    let closes = Instr::IWhileNext { op: BinOp::Le, lhs: start, rhs: stop, body: head as u32 + 1 };
    let bottom = (end as usize).wrapping_sub(1);
    if bottom <= head || code.get(bottom) != Some(&closes) {
        return Err(NotAStepLoop);
    }
    // The instructions that compute something, from the top of the body.
    let computes = |pc: &usize| !matches!(code[*pc], Instr::Nop | Instr::BumpStmt);
    let mut top = (head + 1..bottom).filter(computes).map(|pc| (pc, code[pc]));
    let Some((_, Instr::LoadI64 { dst: s1, buf: a, idx: p_reg })) = top.next() else {
        return Err(SingleFinger);
    };
    let Some((_, Instr::LoadI64 { dst: s2, buf: b, idx: q_reg })) = top.next() else {
        return Err(SingleFinger);
    };
    let (Some((_, first)), Some((_, second))) = (top.next(), top.next()) else {
        return Err(NotTheMinimum);
    };
    let (t, ss) = match (first, second) {
        (
            Instr::IArith { op, dst: t, lhs, rhs },
            Instr::IArith { op: BinOp::Min, dst: ss, lhs: l2, rhs: r2 },
        ) if pair(lhs, rhs, s1, s2) && pair(l2, r2, t, stop) => match op {
            BinOp::Min => (t, ss),
            BinOp::Max => {
                return gallop(code, (head, bottom), (start, stop), [(a, p_reg), (b, q_reg)]);
            }
            _ => return Err(NotTheMinimum),
        },
        _ => return Err(NotTheMinimum),
    };
    let regs = [start, stop, p_reg, q_reg, s1, s2, t, ss];
    // Both guards skip to the same place: where the fingers advance.  The
    // outer one is a finger ending the step; the inner one, the other
    // finger ending it too, or the step ending inside the other's block.
    let guard = |at: Option<(usize, Instr)>| match at {
        Some((pc, Instr::ICmpBranch { op: BinOp::Eq, lhs, rhs, target })) => {
            [s1, s2].into_iter().find(|&s| pair(lhs, rhs, ss, s)).map(|s| (pc, s, target as usize))
        }
        _ => None,
    };
    let Some((outer_pc, outer, tail)) = guard(top.next()) else {
        return Err(NotGuardedByBoth);
    };
    let (inner_pc, block) = match guard(top.next()) {
        Some((pc, inner, target)) if inner != outer && target == tail => (pc, None),
        _ => {
            let blocks = if outer == s2 { (a, p_reg, s1, ss) } else { (b, q_reg, s2, ss) };
            // What a skipped iteration reads behind the test (`t` it does not).
            let frame = [start, stop, p_reg, q_reg, s1, s2, ss];
            let (test, join, ofs, loads) =
                block_test(code, (outer_pc + 1, tail, end as usize), &frame, blocks)
                    .ok_or(NotGuardedByBoth)?;
            (test, Some((join, ofs, loads)))
        }
    };
    if tail <= inner_pc || tail >= bottom {
        return Err(NotGuardedByBoth);
    }
    // Behind the guarded body: the two advances, the next start, the bottom test.
    let mut behind = (tail..bottom).filter(computes).map(|pc| code[pc]);
    let advance = |at: Option<Instr>| match at {
        Some(Instr::IAdvance { op: BinOp::Eq, lhs, rhs, reg, by: 1, stmts }) => {
            Some((lhs, rhs, reg, stmts))
        }
        _ => None,
    };
    let (Some(first), Some(second)) = (advance(behind.next()), advance(behind.next())) else {
        return Err(NonUnitAdvance);
    };
    let stmts_of = |finger: Reg, stride: Reg| {
        [first, second]
            .into_iter()
            .find(|&(lhs, rhs, reg, _)| reg == finger && pair(lhs, rhs, stride, ss))
            .map(|(.., stmts)| stmts)
    };
    let (Some(a_stmts), Some(b_stmts)) = (stmts_of(p_reg, s1), stmts_of(q_reg, s2)) else {
        return Err(NonUnitAdvance);
    };
    let next_start = Instr::IArithImm { op: BinOp::Add, dst: start, lhs: ss, imm: 1 };
    if behind.next() != Some(next_start) || behind.next().is_some() {
        return Err(NonUnitAdvance);
    }
    let ofs = block.map(|(_, ofs, _)| ofs);
    if a == b
        || (1..regs.len()).any(|k| regs[..k].contains(&regs[k]))
        || [Some(a), Some(b)].contains(&ofs)
    {
        return Err(SharedOperand);
    }
    // Nothing enters the loop but at its top, where the guards skip to and
    // where the block test's one branch joins (from that branch alone); and
    // what a match does stays in front of the advances.
    // (Only a loop that is the shape gets this far: one scan of the code.)
    let targets = jump_targets(code);
    let join = block.map(|(join, ..)| join);
    let entered = |pc: usize| targets[pc] && pc != head + 1 && pc != tail && Some(pc) != join;
    let stays =
        |pc: usize| code[pc].target().is_none_or(|t| (inner_pc + 1..=tail).contains(&(t as usize)));
    let joins = code.iter().filter(|i| join.is_some_and(|j| i.target() == Some(j as u32))).count();
    if (head + 1..=inner_pc).chain(tail..=bottom).any(entered)
        || !(inner_pc + 1..tail).all(stays)
        || joins > 1
    {
        return Err(NotGuardedByBoth);
    }
    // What an iteration that matches nothing accounts: every statement
    // outside the guarded body, the inner guard's (or the block test's)
    // only when the outer finger ends the step, an advance's only when it
    // advances.
    let stmts = |pcs: std::ops::RangeInclusive<usize>| {
        pcs.filter(|&pc| code[pc] == Instr::BumpStmt).count() as u32
    };
    let base = stmts(head + 1..=outer_pc) + stmts(tail..=bottom);
    let on_outer = stmts(outer_pc + 1..=inner_pc);
    let on = |stride: Reg, advance: u32| advance + if outer == stride { on_outer } else { 0 };
    let mut fingers = [(a, p_reg, on(s1, a_stmts)), (b, q_reg, on(s2, b_stmts))];
    // The block form's first finger is the one whose stride ends a block.
    if block.is_some() && outer == s1 {
        fingers.reverse();
    }
    let [(a, p, on_a), (b, q, on_b)] = fingers;
    let on_b_loads = block.map_or(0, |(.., loads)| loads);
    let form = ofs.map_or(MergeForm::Steps, |ofs| MergeForm::Blocks { ofs });
    let on_a_loads = 0;
    Ok(Instr::IMergeSkip {
        a,
        p,
        b,
        q,
        form,
        start,
        stop,
        base,
        on_a,
        on_b,
        on_a_loads,
        on_b_loads,
    })
}

/// The jumper form's op for the loop `head..=bottom` ([`MergeForm::Gallop`]):
/// both skipped iterations — `a` leading, and `b` — walked from the top of
/// the body ([`walk`]), and what they write besides the fingers and the
/// start dead where the op hands over, at the top of the body.
fn gallop(
    code: &[Instr],
    (head, bottom): (usize, usize),
    (start, stop): (Reg, Reg),
    fingers: [(BufId, Reg); 2],
) -> Result<Instr, MergeDecline> {
    use MergeDecline::*;
    let [(a, p), (b, q)] = fingers;
    let regs = [start, stop, p, q];
    if a == b || (1..regs.len()).any(|k| regs[..k].contains(&regs[k])) {
        return Err(SharedOperand);
    }
    let walked = |lead| walk(code, (head, bottom), (start, stop), fingers, lead);
    let (Some(led_by_a), Some(led_by_b)) = (walked(0), walked(1)) else {
        return Err(NotTheMinimum);
    };
    // Where `a` leads, `b` seeks in its row; and the other way round.
    let ((b_end, b_row), (a_end, a_row)) = (led_by_a.row, led_by_b.row);
    if [a_end, b_end].iter().any(|end| [a, b].contains(end)) {
        return Err(SharedOperand);
    }
    // Only the bottom test lands on the top of the body, and nothing the
    // op leaves unwritten is read there, or where the loop exits (the op runs
    // a last iteration and leaves), before it is rewritten.
    let entered =
        code.iter().enumerate().any(|(pc, i)| pc != bottom && i.target() == Some(head as u32 + 1));
    let mut unwritten: Vec<Reg> =
        led_by_a.written.iter().chain(&led_by_b.written).copied().collect();
    unwritten.sort_unstable_by_key(|r| r.0);
    unwritten.dedup();
    unwritten.retain(|r| ![start, p, q].contains(r));
    if entered
        || unwritten.contains(&stop)
        || read_before_written(code, [head + 1, bottom + 1], &unwritten)
    {
        return Err(NotTheMinimum);
    }
    let base = led_by_a.stmts.min(led_by_b.stmts);
    let (Some(on_a_loads), Some(on_b_loads)) =
        (led_by_a.loads.checked_sub(2), led_by_b.loads.checked_sub(2))
    else {
        return Err(NotTheMinimum);
    };
    Ok(Instr::IMergeSkip {
        a,
        p,
        b,
        q,
        form: MergeForm::Gallop { a_end, a_row, b_end, b_row },
        start,
        stop,
        base,
        on_a: led_by_a.stmts - base,
        on_b: led_by_b.stmts - base,
        on_a_loads,
        on_b_loads,
    })
}

/// What a register of the jumper loop holds on an iteration the op skips:
/// the loop's bounds and a finger's position at the top; the leader's
/// coordinate, which is the step's end `ss`, and the trailer's, which is
/// not; the later of the two, which clipped to the bound is `ss`; `ss + 1`;
/// a row's end `end[row]` and last position `end[row] - 1`, `row` a
/// register the loop does not write; where the trailer's seek lands, and
/// the coordinate there, past `ss`; the leader's position one on.
#[derive(Clone, Copy, PartialEq)]
enum Jv {
    Start,
    Stop,
    Pos(usize),
    Step,
    Behind,
    Later,
    After,
    End(BufId, Reg),
    Last(BufId, Reg),
    Landed,
    Past,
    Moved,
}

/// One iteration the op skips, read off the loop.
struct Skipped {
    /// Its statements, and its loads but the seek's probes.
    stmts: u32,
    loads: u32,
    /// The trailer's row ends and row.
    row: (BufId, Reg),
    /// Every register it writes.
    written: Vec<Reg>,
}

/// The iteration of the jumper loop `head..=bottom` in which finger `lead`
/// leads and the other seeks past the step, walked from the top of the body
/// to the bottom test with every branch decided by what such an iteration
/// knows ([`Jv`]) — lowering's fall-back (paper §6.1, "Jumpers"):
///
/// ```text
/// s1 = a[p] ; s2 = b[q] ; ss = min(max(s1, s2), stop)
/// .. where the trailer, say b, does not end the step:
/// q = seek(b, q, end[row] - 1, ss)             ISeek
/// while ss <= ss { s = b[q] ; .. ; start' = min(s, ss) + 1 }
/// if s1 == ss { p += 1 } ; if s2 == ss { q += 1 } ; start = ss + 1
/// ```
///
/// It must pass one seek, the trailer's, to `ss` in its own list, and one
/// iteration of an inner loop, and end with the leader one on, the trailer
/// where it landed and `start` at `ss + 1`; an instruction it cannot decide
/// or does not know (a store above all: the body) is no such iteration.
fn walk(
    code: &[Instr],
    (head, bottom): (usize, usize),
    (start, stop): (Reg, Reg),
    fingers: [(BufId, Reg); 2],
    lead: usize,
) -> Option<Skipped> {
    use Jv::*;
    let trail = 1 - lead;
    let lists = fingers.map(|(list, _)| list);
    let invariant = |r: Reg| !code[head..=bottom].iter().any(|i| writes(i, r));
    let mut vals =
        vec![(start, Start), (stop, Stop), (fingers[0].1, Pos(0)), (fingers[1].1, Pos(1))];
    let val = |vals: &[(Reg, Jv)], r: Reg| vals.iter().rev().find(|v| v.0 == r).map(|v| v.1);
    let eq = |x: Jv, y: Jv| match (x, y) {
        _ if x == y => Some(true),
        (Step, Behind | Past) | (Behind | Past, Step) => Some(false),
        _ => None,
    };
    let le = |x: Jv, y: Jv| match (x, y) {
        (Step, Step) => Some(true),
        (After, Step) => Some(false),
        _ => None,
    };
    let (mut stmts, mut loads, mut iters, mut row, mut pc) = (0, 0, 0, None, head + 1);
    // Every pc at most twice: the inner loop runs once.
    for _ in 0..2 * (bottom - head) {
        if pc == bottom {
            let ends = [(fingers[lead].1, Moved), (fingers[trail].1, Landed), (start, After)];
            if iters != 1 || ends.iter().any(|&(r, v)| val(&vals, r) != Some(v)) {
                return None;
            }
            let written = vals[4..].iter().map(|&(r, _)| r).collect();
            return Some(Skipped { stmts, loads, row: row?, written });
        }
        if pc <= head || pc > bottom {
            return None;
        }
        let instr = code[pc];
        pc += 1;
        let written = match instr {
            Instr::Nop => continue,
            Instr::BumpStmt => {
                stmts += 1;
                continue;
            }
            Instr::Jump { target } => {
                pc = target as usize;
                continue;
            }
            Instr::ICmpBranch { op: BinOp::Eq, lhs, rhs, target } => {
                if !eq(val(&vals, lhs)?, val(&vals, rhs)?)? {
                    pc = target as usize;
                }
                continue;
            }
            Instr::IWhileCmp { op: BinOp::Le, lhs, rhs, end } => {
                match le(val(&vals, lhs)?, val(&vals, rhs)?)? {
                    true => iters += 1,
                    false => pc = end as usize,
                }
                continue;
            }
            Instr::IWhileNext { op: BinOp::Le, lhs, rhs, body } => {
                if le(val(&vals, lhs)?, val(&vals, rhs)?)? {
                    (iters, pc) = (iters + 1, body as usize);
                }
                continue;
            }
            Instr::IAdvance { op: BinOp::Eq, lhs, rhs, reg, by: 1, stmts: n } => {
                if !eq(val(&vals, lhs)?, val(&vals, rhs)?)? {
                    continue;
                }
                stmts += n;
                if val(&vals, reg)? != Pos(lead) {
                    return None;
                }
                (reg, Moved)
            }
            Instr::LoadI64 { dst, buf, idx } => {
                loads += 1;
                let loaded = match val(&vals, idx) {
                    Some(Pos(k)) if buf == lists[k] => {
                        if k == lead {
                            Step
                        } else {
                            Behind
                        }
                    }
                    Some(Landed) if buf == lists[trail] => Past,
                    None if invariant(idx) && !lists.contains(&buf) => End(buf, idx),
                    _ => return None,
                };
                (dst, loaded)
            }
            Instr::IArith { op, dst, lhs, rhs } => {
                let (x, y) = (val(&vals, lhs)?, val(&vals, rhs)?);
                let is = |u, v| (x, y) == (u, v) || (x, y) == (v, u);
                let stepped = match op {
                    BinOp::Max if is(Step, Behind) => Later,
                    BinOp::Min if is(Later, Stop) || is(Step, Stop) || is(Step, Past) => Step,
                    _ => return None,
                };
                (dst, stepped)
            }
            Instr::IArithImm { op, dst, lhs, imm } => match (op, val(&vals, lhs)?, imm) {
                (BinOp::Sub, End(end, r), 1) | (BinOp::Add, End(end, r), -1) => (dst, Last(end, r)),
                (BinOp::Add, Step, 1) => (dst, After),
                _ => return None,
            },
            Instr::IMov { dst, src } => (dst, val(&vals, src)?),
            Instr::ISeek { dst, buf, lo, hi, key, on_abs: false } => {
                let at = (val(&vals, lo)?, val(&vals, key)?);
                let (Last(end, r), None) = (val(&vals, hi)?, row) else { return None };
                if buf != lists[trail] || at != (Pos(trail), Step) {
                    return None;
                }
                row = Some((end, r));
                (dst, Landed)
            }
            _ => return None,
        };
        vals.push(written);
    }
    None
}

/// Whether `instr` writes `r`.
fn writes(instr: &Instr, r: Reg) -> bool {
    let mut written = false;
    for_each_reg_role(instr, |reg, role| written |= reg == r && role != Role::Read);
    written
}

/// Whether some path from either of `from` reads one of `regs` before it
/// writes it.  One walk for all of them: each pc keeps, a bit per register,
/// those some path has reached it without writing, and is revisited only
/// with bits it has not had (more than 64 registers count as read).
fn read_before_written(code: &[Instr], from: [usize; 2], regs: &[Reg]) -> bool {
    let Some(all) = 1u64.checked_shl(regs.len() as u32).map(|bit| bit - 1) else {
        return true;
    };
    let mut bit_of = vec![0u64; regs.iter().map(|r| r.0 as usize + 1).max().unwrap_or(0)];
    for (k, r) in regs.iter().enumerate() {
        bit_of[r.0 as usize] = 1 << k;
    }
    let mut reached = vec![0u64; code.len()];
    let mut todo = from.map(|pc| (pc, all)).to_vec();
    while let Some((pc, open)) = todo.pop() {
        let Some(seen) = reached.get_mut(pc) else { continue };
        let open = open & !*seen;
        if open == 0 {
            continue;
        }
        *seen |= open;
        let (mut read, mut written) = (0u64, 0u64);
        for_each_reg_role(&code[pc], |reg, role| {
            let bit = bit_of.get(reg.0 as usize).copied().unwrap_or(0);
            read |= if role != Role::Write { bit } else { 0 };
            written |= if role != Role::Read { bit } else { 0 };
        });
        if open & read != 0 {
            return true;
        }
        let open = open & !written;
        if code[pc].falls_through() {
            todo.push((pc + 1, open));
        }
        todo.extend(code[pc].target().map(|t| (t as usize, open)));
    }
    false
}

/// What a register of a block test holds: the step's end `ss`; the block
/// finger `p`, `p + 1`, and the block's last coordinate `a[p]`; `ofs[p + 1]`
/// and the block's length `ofs[p + 1] - ofs[p]`; the gap's last coordinate
/// `a[p] - len`, clipped to the step (`gap_stop`); the block phase's start.
#[derive(Clone, Copy, PartialEq)]
enum Val {
    Step,
    Finger,
    Next,
    Last,
    Hi,
    Len,
    Gap,
    GapStop,
    From,
}

/// The test, from `from` to the guards' target `tail`, that `ss` ends inside
/// the block `coords[p]` ends — lowering's VBL pipeline (Fig. 3b), a zero gap
/// then the block:
///
/// ```text
/// from = ss ; gap_stop = min(coords[p] - (ofs[p + 1] - ofs[p]), ss)
/// if ss <= gap_stop { from = gap_stop + 1 }
/// if from <= ss { .. }
/// ```
///
/// matched by value (any register holding `coords[p]` will do), and nothing
/// else: no other load, branch or write to the loop's `frame`, and what it
/// writes is dead where the loop exits, as the op leaves it as it was.  The
/// test's pc, where its inner branch joins, `ofs` and the loads on the way.
fn block_test(
    code: &[Instr],
    (from, tail, exit): (usize, usize, usize),
    frame: &[Reg],
    (coords, p, last, ss): (BufId, Reg, Reg, Reg),
) -> Option<(usize, usize, BufId, u32)> {
    use Val::*;
    let mut vals = vec![(ss, Step), (p, Finger), (last, Last)];
    let val = |vals: &[(Reg, Val)], r: Reg| vals.iter().rev().find(|v| v.0 == r).map(|v| v.1);
    let (mut ofs, mut loads, mut join, mut pc) = (None, 0, None, from);
    let mut offsets = |buf| buf != coords && *ofs.get_or_insert(buf) == buf;
    while pc < tail {
        let (at, instr) = (pc, code[pc]);
        pc += 1;
        loads += matches!(instr, Instr::LoadI64 { .. } | Instr::LoadBinary { .. }) as u32;
        let written = match instr {
            Instr::Nop | Instr::BumpStmt => continue,
            Instr::IMov { dst, src } => (dst, val(&vals, src)?),
            Instr::LoadI64 { dst, buf, idx } => match val(&vals, idx)? {
                Finger if buf == coords => (dst, Last),
                Next if offsets(buf) => (dst, Hi),
                _ => return None,
            },
            Instr::LoadBinary { op: BinOp::Sub, dst, lhs, buf, idx } => {
                let len = val(&vals, lhs)? == Hi && val(&vals, idx)? == Finger && offsets(buf);
                len.then_some((dst, Len))?
            }
            Instr::IArith { op, dst, lhs, rhs } => match (op, val(&vals, lhs)?, val(&vals, rhs)?) {
                (BinOp::Sub, Last, Len) => (dst, Gap),
                (BinOp::Min, Gap, Step) | (BinOp::Min, Step, Gap) => (dst, GapStop),
                _ => return None,
            },
            Instr::IArithImm { op: BinOp::Add, dst, lhs, imm: 1 } if val(&vals, lhs)? == Finger => {
                (dst, Next)
            }
            // `if ss <= gap_stop { from = gap_stop + 1 }`, `from` holding `ss`.
            Instr::ICmpBranch { op: BinOp::Le, lhs, rhs, target }
                if join.is_none()
                    && (pc..tail).contains(&(target as usize))
                    && (val(&vals, lhs), val(&vals, rhs)) == (Some(Step), Some(GapStop)) =>
            {
                let computes = |pc: &usize| !matches!(code[*pc], Instr::Nop | Instr::BumpStmt);
                let mut moved = (pc..target as usize).filter(computes).map(|pc| code[pc]);
                let (Some(Instr::IArithImm { op: BinOp::Add, dst, lhs, imm: 1 }), None) =
                    (moved.next(), moved.next())
                else {
                    return None;
                };
                if (val(&vals, lhs), val(&vals, dst)) != (Some(GapStop), Some(Step)) {
                    return None;
                }
                (join, pc) = (Some(target as usize), target as usize);
                (dst, From)
            }
            // `if from <= ss { .. }`.
            Instr::ICmpBranch { op: BinOp::Le, lhs, rhs, target } if target as usize == tail => {
                let unread = vec![false; code.len()];
                let dead = |&(r, _): &(Reg, Val)| {
                    !frame.contains(&r) && dead_after(code, &unread, exit, r)
                };
                let test = (val(&vals, lhs), val(&vals, rhs)) == (Some(From), Some(Step));
                let (join, ofs) = (join?, ofs?);
                return (test && vals[3..].iter().all(dead)).then_some((at, join, ofs, loads));
            }
            _ => return None,
        };
        vals.push(written);
    }
    None
}

#[cfg(test)]
pub(super) mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::buffer::{BufId, Buffer, BufferSet};
    use crate::config::ExecConfig;
    use crate::error::RuntimeError;
    use crate::expr::Expr;
    use crate::interp::{ExecStats, Interpreter};
    use crate::opt::{optimize_and_lower, ValidationLevel};
    use crate::stmt::Stmt;
    use crate::var::{Names, Var};
    use crate::vm::{Vm, Watch};

    pub(in crate::opt) type Kernel = (Vec<Stmt>, Names, BufferSet);

    /// The buffers of [`merge_kernel`], in the order it adds them.
    const A_IDX: BufId = BufId(0);
    const B_IDX: BufId = BufId(2);
    const OUT: BufId = BufId(5);
    const A_OFS: BufId = BufId(6);
    const B_POS: BufId = BufId(8);

    /// What [`merge_kernel_with`] varies: the loop the recogniser takes, or
    /// one of the shapes it must decline.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Shape {
        /// §6.1's two-finger intersection.
        Intersection,
        /// The step ends at the *later* stride, but the trailer does not
        /// seek to it: a jumper's leader election without lowering's
        /// fall-back.
        Jumper,
        /// Two galloped fingers as lowering emits them (paper §6.1,
        /// "Jumpers"): the later stride leads, and the trailer seeks to it
        /// in its row and steps once there.
        Gallop,
        /// The body runs wherever the first finger ends the step.
        GuardedByOneFinger,
        /// The second finger advances by two positions.
        AdvanceByTwo,
        /// VBL's loop (Fig. 3b): the first finger's stride ends a block, and
        /// the body runs where the second ends the step inside it.
        Block,
        /// [`Shape::Block`], the block's last coordinate read off the stride
        /// instead of reloaded.
        BlockOnStride,
        /// The block one coordinate longer than its offsets say: where the
        /// block form's gap test is off by one.
        BlockGapOffByOne,
        /// The block's length read one offsets position further on.
        BlockLenOneOn,
        /// The block test without the second finger's guard: a union body.
        BlockUnion,
    }

    /// The length of block `k` of the first finger under the block shapes:
    /// one to four coordinates, as far as the block in front allows.
    pub(in crate::opt) fn block_lens(a: &[i64]) -> Vec<i64> {
        let before = |k: usize| if k == 0 { -1 } else { a[k - 1] };
        (0..a.len()).map(|k| (1 + a[k] % 4).min(a[k] - before(k))).collect()
    }

    /// The loop `lower_stepped` emits for two coiterating steppers under a
    /// conjunctive body — `out[0] += a_val[p] * b_val[q]` wherever the
    /// coordinates meet — over the step range `0..=stop`, with the bound in a
    /// register (it is loaded, so nothing folds it into the comparisons).
    pub(in crate::opt) fn merge_kernel(a: &[i64], b: &[i64], stop: i64) -> Kernel {
        merge_kernel_with(a, b, stop, Shape::Intersection)
    }

    pub(in crate::opt) fn merge_kernel_with(
        a: &[i64],
        b: &[i64],
        stop: i64,
        shape: Shape,
    ) -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let values =
            |n: usize, scale: f64| (0..n).map(|k| (k + 1) as f64 * scale).collect::<Vec<_>>();
        let a_idx = bufs.add("a_idx", Buffer::I64(a.to_vec().into()));
        let a_val = bufs.add("a_val", Buffer::F64(values(a.len(), 0.5).into()));
        let b_idx = bufs.add("b_idx", Buffer::I64(b.to_vec().into()));
        let b_val = bufs.add("b_val", Buffer::F64(values(b.len(), 0.25).into()));
        // The bound, and the galloped fingers' row.
        let bound = bufs.add("bound", Buffer::I64(vec![stop, 1].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        // The block shapes' offsets, with a spare last entry for the shape
        // that reads one position further on.
        let mut offsets = vec![0];
        for len in block_lens(a) {
            offsets.push(offsets.last().unwrap() + len);
        }
        offsets.push(*offsets.last().unwrap());
        let a_ofs = bufs.add("a_ofs", Buffer::I64(offsets.into()));
        // The galloped fingers' rows: each list is row 1 of its `pos`.
        let row = |list: &[i64]| Buffer::I64(vec![0, list.len() as i64].into());
        let a_pos = bufs.add("a_pos", row(a));
        let b_pos = bufs.add("b_pos", row(b));
        assert_eq!((a_idx, b_idx, out, a_ofs, b_pos), (A_IDX, B_IDX, OUT, A_OFS, B_POS));
        let [p, q, hi, start, s1, s2, ss, from, gap_stop, inv] = [
            "p",
            "q",
            "phase_stop",
            "step_start",
            "stride",
            "stride_2",
            "step_stop",
            "phase_start",
            "gap_stop",
            "inv",
        ]
        .map(|name| names.fresh(name));
        let v = Expr::Var;
        let advance = |finger: Var, stride: Var, by: i64| {
            Stmt::if_then(
                Expr::eq(v(stride), v(ss)),
                vec![Stmt::Assign { var: finger, value: Expr::add(v(finger), Expr::int(by)) }],
            )
        };
        let both = match shape {
            Shape::Jumper | Shape::Gallop => Expr::max(v(s1), v(s2)),
            _ => Expr::min(v(s1), v(s2)),
        };
        let work = Stmt::Store {
            buf: out,
            index: Expr::int(0),
            value: Expr::mul(Expr::load(a_val, v(p)), Expr::load(b_val, v(q))),
            reduce: Some(BinOp::Add),
        };
        // Lowering's VBL pipeline, a zero gap then the block, restricted to
        // the step's end: the block phase starts past the gap.
        let gap_test = |last: Expr, at: i64, less: i64| {
            let ofs = |k: i64| Expr::load(a_ofs, Expr::add(v(p), Expr::int(k)));
            let lo = if at == 0 { Expr::load(a_ofs, v(p)) } else { ofs(at) };
            let gap = Expr::sub(last, Expr::sub(ofs(at + 1), lo));
            let gap = if less == 0 { gap } else { Expr::sub(gap, Expr::int(less)) };
            let past_gap = Stmt::Assign { var: from, value: Expr::add(v(gap_stop), Expr::int(1)) };
            vec![
                Stmt::Let { var: from, init: v(ss) },
                Stmt::Let { var: gap_stop, init: Expr::min(gap, v(ss)) },
                Stmt::if_then(Expr::le(v(from), v(gap_stop)), vec![past_gap]),
                Stmt::if_then(Expr::le(v(from), v(ss)), vec![work.clone()]),
            ]
        };
        let reload = || Expr::load(a_idx, v(p));
        let guarded = |by: Var, body| vec![Stmt::if_then(Expr::eq(v(ss), v(by)), body)];
        let matched = match shape {
            Shape::GuardedByOneFinger => guarded(s1, vec![work]),
            Shape::Block => guarded(s2, gap_test(reload(), 0, 0)),
            Shape::BlockOnStride => guarded(s2, gap_test(v(s1), 0, 0)),
            Shape::BlockGapOffByOne => guarded(s2, gap_test(reload(), 0, 1)),
            Shape::BlockLenOneOn => guarded(s2, gap_test(reload(), 1, 0)),
            Shape::BlockUnion => gap_test(reload(), 0, 0),
            Shape::Gallop => gallop_step(
                &mut names,
                [(a_idx, a_pos, p, s1), (b_idx, b_pos, q, s2)],
                inv,
                ss,
                start,
                &work,
            ),
            _ => guarded(s1, vec![Stmt::if_then(Expr::eq(v(ss), v(s2)), vec![work])]),
        };
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: q, init: Expr::int(0) },
            Stmt::Let { var: inv, init: Expr::load(bound, Expr::int(1)) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::le(v(start), v(hi)),
                body: [
                    vec![
                        Stmt::Let { var: s1, init: Expr::load(a_idx, v(p)) },
                        Stmt::Let { var: s2, init: Expr::load(b_idx, v(q)) },
                        Stmt::Let { var: ss, init: Expr::min(both, v(hi)) },
                    ],
                    matched,
                    vec![
                        advance(p, s1, 1),
                        advance(q, s2, if shape == Shape::AdvanceByTwo { 2 } else { 1 }),
                        Stmt::Assign { var: start, value: Expr::add(v(ss), Expr::int(1)) },
                    ],
                ]
                .concat(),
            },
        ];
        (stmts, names, bufs)
    }

    /// The body of [`Shape::Gallop`]'s loop in front of the advances: where
    /// both fingers end the step, `work`; where one does, the other's
    /// fall-back; where neither does (the step clipped to the bound), the
    /// stepper merge from `start`.  A finger is its list, its row ends, its
    /// position and its stride; `inv` holds the row.
    fn gallop_step(
        names: &mut Names,
        fingers: [(BufId, BufId, Var, Var); 2],
        inv: Var,
        ss: Var,
        start: Var,
        work: &Stmt,
    ) -> Vec<Stmt> {
        let v = Expr::Var;
        let one_on = |finger: Var| Expr::add(v(finger), Expr::int(1));
        let seek = |(list, pos, finger, _): (BufId, BufId, Var, Var), key: Var| Stmt::Assign {
            var: finger,
            value: Expr::search(
                list,
                v(finger),
                Expr::sub(Expr::load(pos, v(inv)), Expr::int(1)),
                v(key),
                false,
            ),
        };
        let mut fresh = |name| names.fresh(name);
        // `from = ss ; while from <= ss { s = list[f] ; t = min(s, ss) ; .. }`
        let mut stepper = |finger @ (list, _, f, _): (BufId, BufId, Var, Var)| {
            let [from, s, t] = ["step_start", "stride", "step_stop"].map(&mut fresh);
            vec![
                seek(finger, ss),
                Stmt::Let { var: from, init: v(ss) },
                Stmt::While {
                    cond: Expr::le(v(from), v(ss)),
                    body: vec![
                        Stmt::Let { var: s, init: Expr::load(list, v(f)) },
                        Stmt::Let { var: t, init: Expr::min(v(s), v(ss)) },
                        Stmt::if_then(Expr::eq(v(t), v(s)), vec![work.clone()]),
                        Stmt::if_then(
                            Expr::eq(v(s), v(t)),
                            vec![Stmt::Assign { var: f, value: one_on(f) }],
                        ),
                        Stmt::Assign { var: from, value: Expr::add(v(t), Expr::int(1)) },
                    ],
                },
            ]
        };
        let [a, b] = fingers;
        let ((a_list, _, p, s1), (b_list, _, q, s2)) = (a, b);
        let ends = |list: BufId, finger: Var| Expr::eq(Expr::load(list, v(finger)), v(ss));
        let b_falls_back = stepper(b);
        let a_falls_back = stepper(a);
        // Neither ends the step: both seek to its start and merge to its end.
        let [from, t1, t2, t] = ["step_start", "stride", "stride", "step_stop"].map(&mut fresh);
        let advance = |finger: Var, stride: Var| {
            Stmt::if_then(
                Expr::eq(v(stride), v(t)),
                vec![Stmt::Assign { var: finger, value: one_on(finger) }],
            )
        };
        let merge = vec![
            seek(a, start),
            seek(b, start),
            Stmt::Let { var: from, init: v(start) },
            Stmt::While {
                cond: Expr::le(v(from), v(ss)),
                body: vec![
                    Stmt::Let { var: t1, init: Expr::load(a_list, v(p)) },
                    Stmt::Let { var: t2, init: Expr::load(b_list, v(q)) },
                    Stmt::Let { var: t, init: Expr::min(Expr::min(v(t1), v(t2)), v(ss)) },
                    Stmt::if_then(
                        Expr::eq(v(t), v(t1)),
                        vec![Stmt::if_then(Expr::eq(v(t), v(t2)), vec![work.clone()])],
                    ),
                    advance(p, t1),
                    advance(q, t2),
                    Stmt::Assign { var: from, value: Expr::add(v(t), Expr::int(1)) },
                ],
            },
        ];
        let both = Stmt::if_then(Expr::eq(v(ss), v(s2)), vec![work.clone()]);
        vec![Stmt::If {
            cond: ends(a_list, p),
            then_branch: vec![Stmt::if_then(
                Expr::eq(v(ss), v(s1)),
                vec![Stmt::If {
                    cond: ends(b_list, q),
                    then_branch: vec![both],
                    else_branch: b_falls_back,
                }],
            )],
            else_branch: vec![Stmt::If {
                cond: ends(b_list, q),
                then_branch: vec![Stmt::if_then(Expr::eq(v(ss), v(s2)), a_falls_back)],
                else_branch: merge,
            }],
        }]
    }

    /// Sorted coordinate lists with a sentinel past `stop`, so that no finger
    /// leaves its list: sparse against dense-ish, interleaved, equal, disjoint
    /// halves, one a prefix of the other, one entry each.
    fn operand_pairs() -> Vec<(Vec<i64>, Vec<i64>, i64)> {
        let end = |mut list: Vec<i64>| {
            list.push(1000);
            list
        };
        vec![
            (end(vec![3, 17, 30]), end((0..40).collect()), 39),
            (end((0..40).step_by(2).collect()), end((1..40).step_by(2).collect()), 39),
            (end(vec![2, 5, 9, 14]), end(vec![2, 5, 9, 14]), 20),
            (end((0..10).collect()), end((10..20).collect()), 19),
            (end(vec![1, 4, 6]), end(vec![1, 4, 6, 8, 11, 12]), 12),
            (end(vec![7]), end(vec![7]), 7),
            (end(vec![4]), end(vec![9]), 15),
            (end(vec![]), end(vec![1, 2]), 5),
        ]
    }

    struct Compiled {
        /// What the tree-walker runs.
        code: Vec<Stmt>,
        names: Names,
        /// With the kernel-op tier, and without it.
        skipping: Program,
        scalar: Program,
        stats: OptStats,
    }

    fn compile(kernel: &Kernel) -> Compiled {
        let (stmts, names, bufs) = kernel;
        let lower = |simd: bool| {
            let mut names = names.clone();
            let config =
                ExecConfig { simd, validation: ValidationLevel::Full, ..ExecConfig::default() };
            let out = optimize_and_lower(stmts, &mut names, bufs, &config)
                .expect("the kernel compiles under full validation");
            (out, names)
        };
        let ((on, names), (off, _)) = (lower(true), lower(false));
        Compiled {
            code: on.code.expect("the IR passes ran"),
            names,
            skipping: on.program,
            scalar: off.program,
            stats: on.stats,
        }
    }

    fn ops(p: &Program) -> Vec<usize> {
        let is_op = |pc: &usize| matches!(p.code()[*pc], Instr::IMergeSkip { .. });
        (0..p.code().len()).filter(is_op).collect()
    }

    fn run(p: &Program, bufs: &BufferSet, budget: Option<u64>) -> (String, ExecStats, BufferSet) {
        let mut bufs = bufs.clone();
        let mut vm = Vm::new(p);
        vm.set_step_budget(budget);
        let outcome = format!("{:?}", vm.run(p, &mut bufs));
        (outcome, vm.stats(), bufs)
    }

    /// The shapes that get the op: §6.1's intersection, VBL's block test,
    /// the block's last coordinate reloaded (as lowering emits it) or read
    /// off the stride, and the galloped intersection.
    const TAKEN: [Shape; 4] =
        [Shape::Intersection, Shape::Block, Shape::BlockOnStride, Shape::Gallop];

    /// The ops `shape`'s kernel carries: the galloped loop's neither-finger-
    /// leads fall-back is a stepper merge with its own.
    fn op_count(shape: Shape) -> usize {
        if shape == Shape::Gallop {
            2
        } else {
            1
        }
    }

    /// How many iterations of `shape`'s loop run its guarded body.
    fn matches(a: &[i64], b: &[i64], stop: i64, shape: Shape) -> u64 {
        let lens = match shape {
            Shape::Intersection | Shape::Gallop => vec![1; a.len()],
            _ => block_lens(a),
        };
        let inside =
            |x: &i64| a.iter().zip(&lens).any(|(last, len)| (last - len + 1..=*last).contains(x));
        b.iter().filter(|x| inside(x) && **x <= stop).count() as u64
    }

    #[test]
    fn the_merge_loop_gets_one_op_on_its_bottom_tests_target_and_is_otherwise_untouched() {
        // Seven statements an iteration; the intersection's inner guard goes
        // with the first finger, the block test's statements and loads with
        // the second — three loads, or two when the stride stands in for the
        // reload of `a[p]`.  The jumper form's fall-back counts alike for
        // either finger.
        let wants = [
            "merge_skip b0[p] ~ b2[q] in step_start..=phase_stop (i64) \
             { +7 stmt ; p += 1 ; +2 stmt | q += 1 ; +1 stmt }",
            "merge_skip b0[p] blocks b6 ~ b2[q] in step_start..=phase_stop (i64) \
             { +7 stmt ; p += 1 ; +1 stmt | q += 1 ; +6 stmt +3 load }",
            "merge_skip b0[p] blocks b6 ~ b2[q] in step_start..=phase_stop (i64) \
             { +7 stmt ; p += 1 ; +1 stmt | q += 1 ; +6 stmt +2 load }",
            "merge_skip b0[p] seeks < b7[inv] ~ b2[q] seeks < b8[inv] in step_start..=phase_stop \
             (i64) { +18 stmt ; p += 1 ; +0 stmt +4 load | q += 1 ; +0 stmt +4 load }",
        ];
        for (shape, want) in TAKEN.into_iter().zip(wants) {
            let kernel =
                merge_kernel_with(&[3, 17, 30, 99], &(0..41).collect::<Vec<_>>(), 39, shape);
            let c = compile(&kernel);
            let placed = ops(&c.skipping);
            assert_eq!(c.stats.merge_skips as usize, op_count(shape), "{}", c.skipping.disasm());
            assert_eq!(placed.len(), op_count(shape), "{}", c.skipping.disasm());
            // The galloped loop's two one-step fall-backs walk one finger.
            let mut declined = [0; 6];
            declined[MergeDecline::SingleFinger as usize] = 2 * (shape == Shape::Gallop) as u64;
            assert_eq!(c.stats.merge_declined, declined);
            let at = placed[0];
            let code = c.skipping.code();
            let Instr::IWhileCmp { end, .. } = code[at - 1] else {
                panic!("the op follows the loop head:\n{}", c.skipping.disasm())
            };
            assert!(
                matches!(code[end as usize - 1], Instr::IWhileNext { body, .. } if body as usize == at),
                "{}",
                c.skipping.disasm()
            );
            let line = c.skipping.disasm().lines().nth(at).unwrap().to_string();
            assert!(line.ends_with(want), "{line}\n{}", c.skipping.disasm());
            // Without the ops, the program is the one compiled without the tier.
            let mut without = code.to_vec();
            let mut folded = c.skipping.stmt_bump().to_vec();
            for &at in placed.iter().rev() {
                assert_eq!(folded[at], 0);
                without.remove(at);
                folded.remove(at);
                for target in without.iter_mut().filter_map(Instr::target_mut) {
                    *target -= u32::from(*target as usize > at);
                }
            }
            assert_eq!(
                without,
                c.scalar.code(),
                "{}\nvs\n{}",
                c.skipping.disasm(),
                c.scalar.disasm()
            );
            assert!(ops(&c.scalar).is_empty());
            assert_eq!(folded, c.scalar.stmt_bump());
        }
    }

    /// Every step budget from 0 to the full run, on every operand pair: the
    /// VM with the op, the VM without it and the tree-walker stop at the same
    /// statement with the same counters and the same output — and the op
    /// did skip.
    #[test]
    fn every_step_budget_trips_where_the_scalar_loop_and_the_tree_walker_trip() {
        let cases = TAKEN
            .into_iter()
            .flat_map(|shape| operand_pairs().into_iter().map(move |pair| (shape, pair)));
        for (shape, (a, b, stop)) in cases {
            let kernel = merge_kernel_with(&a, &b, stop, shape);
            let c = compile(&kernel);
            assert_eq!(ops(&c.skipping).len(), op_count(shape), "{}", c.skipping.disasm());
            let context = format!("{a:?} x {b:?} to {stop}, {shape:?}");
            let (outcome, full, _) = run(&c.scalar, &kernel.2, None);
            assert_eq!(outcome, "Ok(())", "{context}");
            for budget in 0..=full.stmts {
                let mut interp = Interpreter::new(&c.names).with_step_budget(budget);
                let mut tree_bufs = kernel.2.clone();
                let tree = format!("{:?}", interp.run(&c.code, &mut tree_bufs));
                assert_eq!(tree == "Ok(())", budget == full.stmts, "{context} at {budget}");
                for p in [&c.skipping, &c.scalar] {
                    let (outcome, stats, bufs) = run(p, &kernel.2, Some(budget));
                    assert_eq!(outcome, tree, "{context} at {budget}");
                    assert_eq!(stats, interp.stats(), "{context} at {budget}");
                    assert_eq!(bufs.get(OUT), tree_bufs.get(OUT), "{context} at {budget}");
                }
            }
            // The scalar loop runs the iterations that match or end the loop.
            let mut vm = Vm::new(&c.skipping);
            let per_pc = vm.run_profiled(&c.skipping, &mut kernel.2.clone()).expect("runs");
            let at = ops(&c.skipping)[0];
            let matches = matches(&a, &b, stop, shape);
            assert!(per_pc[at + 1] <= matches + 1, "{context}: {} iterations", per_pc[at + 1]);
            assert_eq!(vm.stats(), full, "{context}");
        }
    }

    /// An injected fault at every statement of the run: both engines panic
    /// with the same message having counted the same work.
    #[test]
    fn an_injected_fault_trips_on_the_tree_walkers_statement() {
        for shape in [Shape::Intersection, Shape::Block, Shape::Gallop] {
            let kernel =
                merge_kernel_with(&[3, 17, 30, 99], &(0..41).collect::<Vec<_>>(), 39, shape);
            faults_alike(&kernel);
        }
    }

    fn faults_alike(kernel: &Kernel) {
        let c = compile(kernel);
        let (_, full, _) = run(&c.skipping, &kernel.2, None);
        for at in 1..=full.stmts {
            let watch = Watch::default().with_fault_at_stmt(at);
            let mut interp = Interpreter::new(&c.names);
            interp.set_watch(Some(watch.clone()));
            let panic = catch_unwind(AssertUnwindSafe(|| {
                let _ = interp.run(&c.code, &mut kernel.2.clone());
            }))
            .expect_err("the tree-walker reaches the injected fault");
            let message = panic.downcast_ref::<String>().expect("a formatted panic").clone();
            let mut vm = Vm::new(&c.skipping);
            vm.set_watch(Some(watch));
            let panic = catch_unwind(AssertUnwindSafe(|| {
                let _ = vm.run(&c.skipping, &mut kernel.2.clone());
            }))
            .expect_err("the VM reaches the injected fault");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
            assert_eq!(vm.stats(), interp.stats(), "fault at statement {at}");
        }
    }

    /// A coordinate buffer rebound to another kind, to a shorter list, or
    /// with a finger started outside it: the op declines or stops in front
    /// of the iteration, and the scalar loop reports what it reports without
    /// the op, having counted the same work.
    #[test]
    fn a_rebound_coordinate_buffer_faults_as_the_scalar_loop_faults() {
        let a: Vec<i64> = vec![3, 17, 30, 99];
        let b: Vec<i64> = (0..41).collect();
        for shape in [Shape::Intersection, Shape::Block, Shape::Gallop] {
            let kernel = merge_kernel_with(&a, &b, 39, shape);
            let c = compile(&kernel);
            let rebound = |buf: BufId, with: Buffer| {
                let mut bufs = kernel.2.clone();
                *bufs.get_mut(buf) = with;
                bufs
            };
            let mut cases = vec![
                ("a as f64", rebound(A_IDX, Buffer::F64(vec![3.0, 17.0, 30.0, 99.0].into()))),
                ("a cut short", rebound(A_IDX, Buffer::I64(vec![3, 17].into()))),
                ("b cut short", rebound(B_IDX, Buffer::I64((0..12).collect::<Vec<_>>().into()))),
                ("a empty", rebound(A_IDX, Buffer::I64(Vec::new().into()))),
                (
                    "b as f64",
                    rebound(B_IDX, Buffer::F64((0..41).map(f64::from).collect::<Vec<_>>().into())),
                ),
            ];
            if shape == Shape::Block {
                // The block offsets run out at the third block, or are no
                // longer `i64`.
                let cut = Buffer::I64(vec![0, 4, 6].into());
                let floats = Buffer::F64(vec![0.0, 4.0, 6.0, 9.0, 13.0].into());
                cases.push(("offsets cut short", rebound(A_OFS, cut)));
                cases.push(("offsets as f64", rebound(A_OFS, floats)));
            }
            if shape == Shape::Gallop {
                // `b`'s row ends early (its seeks run past the row, onto
                // coordinates the loop still reads), past the list (a seek's
                // window leaves it), or is no longer `i64`.
                cases.push(("b's row short", rebound(B_POS, Buffer::I64(vec![0, 9].into()))));
                cases.push(("b's row long", rebound(B_POS, Buffer::I64(vec![0, 60].into()))));
                cases.push(("b's row as f64", rebound(B_POS, Buffer::F64(vec![0.0, 41.0].into()))));
            }
            for (what, bufs) in cases {
                let what = format!("{what}, {shape:?}");
                same_verdict(&c, &bufs, &what);
            }
        }
    }

    fn same_verdict(c: &Compiled, bufs: &BufferSet, what: &str) {
        let (with_op, with_stats, with_bufs) = run(&c.skipping, bufs, None);
        let (without, stats, without_bufs) = run(&c.scalar, bufs, None);
        assert_eq!(with_op, without, "{what}");
        assert_eq!(with_stats, stats, "{what}");
        assert_eq!(with_bufs.get(OUT), without_bufs.get(OUT), "{what}");
        if what.contains("cut") || what.contains("empty") {
            assert!(with_op.contains("OutOfBounds"), "{what}: {with_op}");
        }
    }

    /// Sorted lists drawn at random, at every density, under every shape that
    /// takes the op: all three agree.
    #[test]
    fn random_sorted_lists_merge_alike_with_and_without_the_op() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        for round in 0..200 {
            let mut list = |one_in: u64| {
                let mut out: Vec<i64> = (0..60).filter(|_| draw(one_in) == 0).collect();
                out.push(500);
                out
            };
            let (a, b) = (list(1 + round % 7), list(1 + round % 5));
            let kernel = merge_kernel_with(&a, &b, 59, TAKEN[round as usize % TAKEN.len()]);
            let c = compile(&kernel);
            let mut interp = Interpreter::new(&c.names);
            let mut tree_bufs = kernel.2.clone();
            interp.run(&c.code, &mut tree_bufs).expect("the merge runs");
            for p in [&c.skipping, &c.scalar] {
                let (outcome, stats, bufs) = run(p, &kernel.2, None);
                assert_eq!(outcome, "Ok(())", "{a:?} x {b:?}");
                assert_eq!(stats, interp.stats(), "{a:?} x {b:?}");
                assert_eq!(bufs.get(OUT), tree_bufs.get(OUT), "{a:?} x {b:?}");
            }
        }
    }

    /// A raised cancellation flag stops a run-ahead as it stops the scalar
    /// loop: with the typed error, before the run completes.
    #[test]
    fn a_raised_cancellation_flag_stops_the_run() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let kernel = merge_kernel(&[3, 17, 30, 99], &(0..41).collect::<Vec<_>>(), 39);
        let c = compile(&kernel);
        let flag = Arc::new(AtomicBool::new(false));
        let mut vm = Vm::new(&c.skipping);
        vm.set_watch(Some(Watch::cancelled_by(flag.clone(), 5)));
        // Armed and down: the run completes, counters as without a watch.
        vm.run(&c.skipping, &mut kernel.2.clone()).expect("nothing cancels the run");
        assert_eq!(vm.stats(), run(&c.scalar, &kernel.2, None).1);
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
        vm.reset();
        let err = vm.run(&c.skipping, &mut kernel.2.clone()).expect_err("the flag is up");
        assert!(matches!(err, RuntimeError::Deadline { ms: 5 }), "{err:?}");
        assert_eq!(vm.stats().stmts, 1, "a run's first statement polls");
    }

    #[test]
    fn loops_that_are_not_a_two_finger_intersection_say_why() {
        let (a, b): (Vec<i64>, Vec<i64>) = (vec![1, 5, 99], vec![2, 5, 99]);
        let declined = |kernel: &Kernel, why: MergeDecline| {
            let c = compile(kernel);
            assert!(ops(&c.skipping).is_empty(), "{}", c.skipping.disasm());
            assert_eq!(c.stats.merge_skips, 0);
            let mut tally = [0; 6];
            tally[why as usize] = 1;
            assert_eq!(c.stats.merge_declined, tally, "{why:?}\n{}", c.skipping.disasm());
            assert_eq!(c.skipping.code(), c.scalar.code(), "{why:?}: no op, same program");
        };
        declined(&merge_kernel_with(&a, &b, 9, Shape::Jumper), MergeDecline::NotTheMinimum);
        declined(
            &merge_kernel_with(&a, &b, 9, Shape::GuardedByOneFinger),
            MergeDecline::NotGuardedByBoth,
        );
        declined(&merge_kernel_with(&a, &b, 9, Shape::AdvanceByTwo), MergeDecline::NonUnitAdvance);
        // A block test that is not the op's, and a body one finger does not
        // guard: the block does work on steps the second finger does not end.
        for shape in [Shape::BlockGapOffByOne, Shape::BlockLenOneOn, Shape::BlockUnion] {
            declined(&merge_kernel_with(&a, &b, 9, shape), MergeDecline::NotGuardedByBoth);
        }
        // Both fingers on one list.
        let (mut stmts, names, bufs) = merge_kernel(&a, &b, 9);
        fn rebind(stmts: &mut [Stmt]) {
            for stmt in stmts {
                *stmt = stmt.map_exprs(&mut |e| {
                    e.map(&mut |sub| match sub {
                        Expr::Load { buf, index } if *buf == B_IDX => {
                            Some(Expr::load(A_IDX, (**index).clone()))
                        }
                        _ => None,
                    })
                });
                if let Stmt::While { body, .. } = stmt {
                    rebind(body);
                }
            }
        }
        rebind(&mut stmts);
        declined(&(stmts, names, bufs), MergeDecline::SharedOperand);
        // One stepper alone.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![1, 5, 99].into()));
        let bound = bufs.add("bound", Buffer::I64(vec![9].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let [p, hi, start, s, ss] =
            ["p", "phase_stop", "step_start", "stride", "step_stop"].map(|name| names.fresh(name));
        let v = Expr::Var;
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::le(v(start), v(hi)),
                body: vec![
                    Stmt::Let { var: s, init: Expr::load(idx, v(p)) },
                    Stmt::Let { var: ss, init: Expr::min(v(s), v(hi)) },
                    Stmt::if_then(
                        Expr::eq(v(ss), v(s)),
                        vec![Stmt::Store {
                            buf: out,
                            index: Expr::int(0),
                            value: Expr::float(1.0),
                            reduce: Some(BinOp::Add),
                        }],
                    ),
                    Stmt::if_then(
                        Expr::eq(v(s), v(ss)),
                        vec![Stmt::Assign { var: p, value: Expr::add(v(p), Expr::int(1)) }],
                    ),
                    Stmt::Assign { var: start, value: Expr::add(v(ss), Expr::int(1)) },
                ],
            },
        ];
        declined(&(stmts, names, bufs), MergeDecline::SingleFinger);
        // A loop that counts another way.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let bound = bufs.add("bound", Buffer::I64(vec![3].into()));
        let [n, lim] = ["n", "lim"].map(|name| names.fresh(name));
        let stmts = vec![
            Stmt::Let { var: n, init: Expr::int(0) },
            Stmt::Let { var: lim, init: Expr::load(bound, Expr::int(0)) },
            Stmt::While {
                cond: Expr::lt(v(n), v(lim)),
                body: vec![Stmt::Assign { var: n, value: Expr::add(v(n), Expr::int(1)) }],
            },
        ];
        declined(&(stmts, names, bufs), MergeDecline::NotAStepLoop);
    }
}
