//! Run-ahead selection for the step loop: the two-finger merge's skip, and
//! the performed step — a guard × product × output.
//!
//! Lowering coiterates two fingers with one step loop (paper §6.1), which
//! reaches this pass, typed and through `forward`, as
//!
//! ```text
//! while start <= stop                 IWhileCmp(Le)
//!     s1 = a[p] ; s2 = b[q]           LoadI64, LoadI64
//!     t  = lead(s1, s2)               IArith(Min), or IArith(Max)
//!     ss = min(t, stop)               IArith(Min)
//!     ..                              the step's body
//!     if s1 == ss { p += 1 }          IAdvance
//!     if s2 == ss { q += 1 }          IAdvance
//!     start = ss + 1                  IArithImm(Add)
//! next while start <= stop            IWhileNext
//! ```
//!
//! A literal bound (Fig. 11's `575`, the last coordinate of a 24 × 24
//! image) is inlined where the loop reads it — an [`Instr::IWhileCmpImm`]
//! head, an [`Instr::IArithImm`] `min` clip — but for the bottom test, which
//! reads it from its pinned register, the one `forward`'s prologue writes
//! once at pc 0.  That register is the ops' `stop`, and the walks take the
//! clip by the literal for the bound.
//!
//! Steppers elect the earlier stride (`min`), jumpers the later (`max`).
//! The finger whose stride ends the step leads; the other trails, and what
//! the body does with the trailer is all that tells the loops apart.  On
//! sparse operands all but a few per cent of the iterations match nothing
//! and do finger bookkeeping at a dozen or more dispatches each.
//! [`merge_skip`] places one [`Instr::IStepLoop`] as the body's first
//! instruction — on the target of the bottom test, so it is dispatched at
//! loop entry and after every scalar iteration — which skips those
//! iterations natively ([`Step::Skip`]).  Like the vectorized kernel ops
//! this is strictly additive: the scalar loop is left instruction for
//! instruction as it was, still executes every iteration that matches, ends
//! the loop, faults or trips a budget, and is all there is when the op
//! declines at run time.
//!
//! One walk recognises the loop (`walk`): an iteration is followed from the
//! top of the body to the bottom test, every register holding a value the
//! iteration knows (`Held`) and every branch decided on a fact the op checks
//! at run time, first of all the one the walk is told — which strides end
//! the step (`Ends`):
//! - the leader's alone: a step the op skips ([`Step::Skip`]), walked once
//!   with `a` leading and once with `b`;
//! - both: a match, walked once both of those have found two steppers;
//! - the lone finger's, or either of two: a step the op performs on every
//!   step.
//!
//! What a skipped step passes on the way is the form:
//! - the fingers' lists alone: two steppers ([`MergeForm::Steps`]);
//! - the trailer's block offsets: VBL (Fig. 3b; Fig. 7's VBL SpMSpV), whose
//!   trailing stride ends a block, and whose gap test finds the leader's
//!   coordinate in the zero gap in front of it ([`MergeForm::Blocks`]);
//! - the trailer's seek to `ss` in its row and a one-step stepper there:
//!   two jumpers (paper §6.1, "Jumpers"; Fig. 7's "gallop both", Fig. 8's
//!   galloped triangle count), whose seek lands past the step
//!   ([`MergeForm::Gallop`]).
//!
//! A skipped step runs no body and advances exactly one finger, its leader,
//! so what it costs is a count per leading finger: the statements and loads
//! the walk led by that finger counted.  [`crate::interp::ExecStats`]
//! cannot tell the op from the iterations it performs, and the pass runs
//! under [`super::StatsContract::Exact`].
//!
//! A loop whose body runs on steps the op can tell apart need not stop it
//! at all: the op performs them too ([`Step::Perform`]), and the scalar
//! loop runs only the loop's last step.  What the walked step's body does is
//! three choices:
//! - the guard ([`Guard`]) — which steps run the body: every step (on
//!   Fig. 1's list × band, a lone stepper, every step but the last runs
//!   it; on Fig. 11's run-length images, two steppers whose runs' product
//!   is a run, every step does); a lone stepper's `val[p] op imm`, whose
//!   false edge lands on the join in front of the finger's advance (Fig.
//!   S's threshold filter); or a match, both strides the step's end
//!   (Fig. 7's two-finger SpMSpV, Fig. 8's triangle count, the
//!   sparse-output product);
//! - the product ([`Product`]) — `[lead *] val[p] * second [* extent]`:
//!   the second factor none, a value at a finger (`b[q]`, or `val[p]` again
//!   for a row norm) or a gather `x[ss + ofs]`, the extent
//!   `max(ss - start + 1, 0)` or none, and a match's lead `A[i, j]`, with
//!   the lead, the terms of `ofs` and an accumulator's `k` loads and
//!   registers the loop does not write;
//! - the output ([`Out`]) — a reduction `acc[k] op= product`, a sparse
//!   output's append `crd.push(ss) ; vals.push(product)`, or a dense
//!   output's store `dst[ss] op= product`, in front of which the step may
//!   fill the run `dst[start..ss)` (`filled_run`: the paper's `Run` in front
//!   of a sparse list's `Spike`, which an assignment writes).
//!
//! Which combinations exist is one predicate's to say (`supported`): a
//! reduction on every step, any product but a lead; a lone stepper's value
//! pushed on every step or under its comparison; a lone stepper's gathered
//! product stored on every step; a match's `[lead *] val[p] * x[q]`,
//! reduced or pushed.  The walked step's statements and loads are
//! the op's counts for every step, the statements of each finger's advance
//! its counts for the steps the finger's stride ends, and the code between a
//! comparison and its join the `pass` of a step that passes it; a matched
//! step's whole counts are its `pass`, and the skip walks' counts the op's;
//! a run's counts are its [`Gap`]'s, those of the code in front of its
//! inner loop and those of the inner loop's body.  Any other matched body —
//! a store at the step's end (a dense output), a factor of another shape —
//! keeps the skip, as do the block and jumper forms.  A lone stepper with a
//! store at a varying index of anything but a gathered product, a guarded
//! reduction or store, or any other factor is declined as
//! [`MergeDecline::SingleFinger`]; two fingers whose body is no such step as
//! the skip walks' reason, [`MergeDecline::NotGuardedByBoth`] for a body
//! that is not guarded.
//!
//! Every op is made by one constructor (`step_loop_op`), which checks what
//! the scalar loop could otherwise tell apart: that only the bottom test
//! lands on the op, and that nothing the op leaves unwritten is read before
//! it is rewritten.
//!
//! A loop that is not given an op says why ([`MergeDecline`]); the tallies
//! are in [`OptStats::merge_declined`].

use std::cell::OnceCell;

use crate::buffer::BufId;
use crate::bytecode::{
    edge_table, for_each_reg_role, holds_literal, operand_ids, splice_before, Gap, Gather, Guard,
    Instr, MergeForm, Out, Product, Program, Reg, Role, Step, StepCounts, Term, VBase, NO_EDGE,
};
use crate::expr::BinOp;

use super::OptStats;

/// Why a typed `while` loop was not given a run-ahead op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeDecline {
    /// Not `while start <= stop` on two registers, or on a register and a
    /// literal bound, closed by its own bottom test: the loop counts another
    /// way, or its condition takes more than the head to evaluate.
    NotAStepLoop,
    /// The body does not begin by loading two strides: one stepper alone
    /// (nothing to coiterate) whose body is no reduction, no append and no
    /// store of a gathered product, or a stride that is not a plain
    /// coordinate load.
    SingleFinger,
    /// The step is not the minimum of the two strides clipped to the bound,
    /// nor the maximum with lowering's jumper fall-back behind it (the
    /// trailer's seek in its own row and a one-step stepper, under a body
    /// that stores nothing where the seek lands past the step): another
    /// leader election, or a jumper loop whose fall-back is not that one.
    NotTheMinimum,
    /// The body is not guarded by both fingers ending the step (or by one
    /// ending it inside the other's block), so it does work on a step only
    /// one of them ends — a disjunctive (union) body, a block test that is
    /// not VBL's, or two fingers whose strides end blocks or runs — and it
    /// is no reduction the op performs on every step either: an unguarded
    /// body that fills or appends (Fig. 10's run-length blend), or whose
    /// product has another factor.  (A body both fingers guard gets the op:
    /// the skip, or a [`Step::Perform`] under [`Guard::Both`] where the op
    /// performs the body too.)
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

/// Give every two-finger merge loop of `p` the step loop op that skips (or,
/// where two steppers' matched step is a product, the one that performs the
/// matches too), and every step loop whose body is a reduction or an append
/// the one that performs.  `p` is
/// typed bytecode behind `forward`, which makes the advances and the bottom
/// tests the loop is recognised by, and in front of `finalize`: every
/// statement is still an explicit [`Instr::BumpStmt`].
pub fn merge_skip(p: &Program, stats: &mut OptStats) -> Program {
    let (mut inserts, mut steps) = (Vec::new(), p.steps.clone());
    // Every instruction's jump target, read once the first loop needs them.
    let edges = OnceCell::new();
    for (head, instr) in p.code.iter().enumerate() {
        if !matches!(instr, Instr::IWhileCmp { .. } | Instr::IWhileCmpImm { .. }) {
            continue;
        }
        match recognise(&p.code, &edges, head, steps.len() as u32) {
            Ok((op, step)) => {
                stats.merge_skips += 1;
                steps.push(step);
                inserts.push((head + 1, op));
            }
            Err(why) => stats.merge_declined[why as usize] += 1,
        }
    }
    if inserts.is_empty() {
        return p.clone();
    }
    // The bottom test's jump to the body's first instruction lands on the op.
    let mut out = p.with_code(splice_before(&p.code, &inserts, true));
    out.steps = steps;
    out
}

/// A step loop `while start <= stop`: its head, its bottom test, and the
/// literal its bound is, if it is one (read from the pinned register `stop`
/// by the bottom test, inlined in the head and in the step's clip).
#[derive(Clone, Copy)]
struct StepLoop {
    head: usize,
    bottom: usize,
    start: Reg,
    stop: Reg,
    bound: Option<i64>,
    /// Whether its leader is the later of two strides (two jumpers), not
    /// the earlier.
    jumper: bool,
    /// The step-table entry the loop's op names.
    entry: u32,
}

impl StepLoop {
    /// The step loop headed at `head`, closed by its own bottom test.
    fn at(code: &[Instr], head: usize) -> Option<StepLoop> {
        let (start, stop, bound, end) = match code[head] {
            Instr::IWhileCmp { op: BinOp::Le, lhs, rhs, end } => (lhs, Some(rhs), None, end),
            Instr::IWhileCmpImm { op: BinOp::Le, lhs, imm, end } => (lhs, None, Some(imm), end),
            _ => return None,
        };
        let bottom = (end as usize).checked_sub(1).filter(|&bottom| bottom > head)?;
        let Instr::IWhileNext { op: BinOp::Le, lhs, rhs, body } = code[bottom] else { return None };
        let closes = lhs == start && body as usize == head + 1 && stop.is_none_or(|s| s == rhs);
        let pinned = bound.is_none_or(|imm| holds_literal(code, rhs, imm));
        let lp = StepLoop { head, bottom, start, stop: rhs, bound, jumper: false, entry: 0 };
        (closes && pinned).then_some(lp)
    }

    /// Whether `imm` is the bound, as the step's clip `min(t, imm)` inlines it.
    fn is_bound(&self, imm: i64) -> bool {
        self.bound == Some(imm)
    }
}

/// The op for the loop headed at `head`, naming `entry` of the step table,
/// and what goes there, or why it gets none: the head and the stride loads
/// read off the code, the leader off the first [`Instr::IArith`], and the
/// rest off walks of one iteration ([`walk`]) — two of a skipped step, one
/// led by each finger, and of a match where they find two steppers; or,
/// where there is one stride load or the body runs on every step, of one
/// step the op performs.  `edges` is [`edge_table`] of `code`, or empty
/// until it is first needed.
fn recognise(
    code: &[Instr],
    edges: &OnceCell<Vec<u32>>,
    head: usize,
    entry: u32,
) -> Result<(Instr, Step), MergeDecline> {
    use MergeDecline::*;
    let lp = StepLoop { entry, ..StepLoop::at(code, head).ok_or(NotAStepLoop)? };
    let StepLoop { bottom, start, stop, .. } = lp;
    let mut top =
        code[head + 1..bottom].iter().filter(|i| !matches!(i, Instr::Nop | Instr::BumpStmt));
    let (a, p) = match top.next() {
        Some(&Instr::LoadI64 { buf, idx, .. }) => (buf, idx),
        _ => return Err(SingleFinger),
    };
    let Some(&Instr::LoadI64 { buf: b, idx: q, .. }) = top.next() else {
        return perform(code, edges, lp, &[(a, p)], Ends::Every, None).ok_or(SingleFinger);
    };
    let jumper = match top.find_map(|i| match *i {
        Instr::IArith { op, .. } => Some(op),
        _ => None,
    }) {
        Some(BinOp::Min) => false,
        Some(BinOp::Max) => true,
        _ => return Err(NotTheMinimum),
    };
    let regs = [start, stop, p, q];
    if a == b || (1..regs.len()).any(|k| regs[..k].contains(&regs[k])) {
        return Err(SharedOperand);
    }
    let lp = StepLoop { jumper, ..lp };
    // A jumper loop that is not lowering's, in whatever way, is a leader
    // election the op does not know.
    let why = |why| if jumper { NotTheMinimum } else { why };
    let fingers = [(a, p), (b, q)];
    let walked = |lead| walk(code, lp, &fingers, Ends::Lead(lead));
    let (by_a, by_b) = match walked(0).and_then(|by_a| Ok((by_a, walked(1)?))) {
        Ok(walks) => walks,
        // A stepper body that runs where one finger ends the step may run on
        // every step: a reduction's.
        Err(e) if jumper => return Err(why(e)),
        Err(e) => return perform(code, edges, lp, &fingers, Ends::Every, None).ok_or(e),
    };
    // Where `a` leads, `b` trails: `by_a` holds what `b` reads besides its
    // list, and the other way round.
    let form = match (by_a.aux, by_b.aux) {
        (Aux::Row(b_end, b_row), Aux::Row(a_end, a_row)) => {
            MergeForm::Gallop { a_end, a_row, b_end, b_row }
        }
        (Aux::Nothing, Aux::Nothing) => MergeForm::Steps,
        (Aux::Blocks(ofs), Aux::Nothing) | (Aux::Nothing, Aux::Blocks(ofs)) => {
            MergeForm::Blocks { ofs }
        }
        _ => return Err(why(NotGuardedByBoth)),
    };
    let reads_a_list = |w: &Walked| match w.aux {
        Aux::Blocks(buf) | Aux::Row(buf, _) => buf == a || buf == b,
        Aux::Nothing => false,
    };
    if reads_a_list(&by_a) || reads_a_list(&by_b) {
        return Err(SharedOperand);
    }
    // A jumper's rows are read once, so the loop must not write them.
    if let MergeForm::Gallop { a_row, b_row, .. } = form {
        if code[head..=bottom].iter().any(|i| writes(i, &[a_row, b_row])) {
            return Err(why(NotGuardedByBoth));
        }
    }
    // The block form's first finger is the one whose stride ends a block.
    let mut walks = [((a, p), by_a), ((b, q), by_b)];
    if matches!(walks[0].1.aux, Aux::Blocks(_)) {
        walks.swap(0, 1);
    }
    let [(first, by_a), (second, by_b)] = walks;
    let [a_costs, b_costs] = [&by_a, &by_b].map(|w| total(w.counts));
    let counts =
        StepCounts { stmts: [0, a_costs[0], b_costs[0]], loads: [0, a_costs[1], b_costs[1]] };
    let written: Vec<Reg> = by_a.written.into_iter().chain(by_b.written).collect();
    // Two steppers' matched step: performed too, where its body is a product.
    if form == MergeForm::Steps {
        let skipped = Some((counts, &written[..]));
        if let Some(op) = perform(code, edges, lp, &[first, second], Ends::Both, skipped) {
            return Ok(op);
        }
    }
    step_loop_op(code, edges, lp, &[first, second], Step::Skip(form), counts, written)
        .ok_or(why(NotGuardedByBoth))
}

/// The op over `fingers` (a list and a position each) that takes the steps
/// of the loop `lp` as `step` says, and `step`, counting `counts` — where the scalar
/// loop cannot tell it from the steps it takes — or `None`.  The fingers,
/// the start and the bound are distinct registers; only the bottom test
/// lands on the top of the body; and no register a taken step writes but
/// the op does not (`written`: the bound among them) is read before it is
/// rewritten on a path from the top of the body — nor from the loop's exit,
/// where a jumper's op leaves the loop after its last step (another op
/// hands over to the scalar loop first).  `edges` is [`edge_table`] of
/// `code`, or empty until it is first needed.
fn step_loop_op(
    code: &[Instr],
    edges: &OnceCell<Vec<u32>>,
    lp: StepLoop,
    fingers: &[(BufId, Reg)],
    step: Step,
    counts: StepCounts,
    mut written: Vec<Reg>,
) -> Option<(Instr, Step)> {
    let StepLoop { head, bottom, start, stop, entry, .. } = lp;
    let mut regs: Vec<Reg> = fingers.iter().map(|&(_, r)| r).chain([start, stop]).collect();
    if (1..regs.len()).any(|k| regs[..k].contains(&regs[k])) {
        return None;
    }
    // The op writes its fingers and its start.
    regs.pop();
    written.sort_unstable_by_key(|r| r.0);
    written.dedup();
    written.retain(|r| !regs.contains(r));
    let edges = edges.get_or_init(|| edge_table(code));
    let entered = edges.iter().enumerate().any(|(pc, &to)| pc != bottom && to == head as u32 + 1);
    let from = &[head + 1, bottom + 1][..1 + lp.jumper as usize];
    if entered || written.contains(&stop) || read_before_written(code, edges, from, &written) {
        return None;
    }
    let (&(a, p), second) = fingers.split_first()?;
    let q = second.first().copied();
    Some((Instr::IStepLoop { a, p, q, step: entry, start, stop, counts }, step))
}

/// Which strides end a walked step: what the op checks at run time before
/// it takes the step as the walk took it.
#[derive(Clone, Copy, PartialEq)]
enum Ends {
    /// Finger `k`'s alone, the other's — the trailer's — ahead of the step's
    /// end under `min` and behind it under `max`: a step the op skips.
    Lead(usize),
    /// Both: a match, which the op performs.
    Both,
    /// The lone finger's, or either of two fingers': a step the op performs
    /// whichever it is, a finger's advance counted on the steps it ends.
    Every,
}

/// What a register holds on a walked step: the loop's bound and its start
/// at the top; a finger at the top, and one on; a stride that ends the
/// step, which is the step's end `ss`, one that does not (a trailer's), and
/// either of two; `ss + 1`; `ss - 1`; `ss - start`, one more, and that at
/// least zero: the extent.  A jumper's
/// trailer adds its row's end `end[row]` and last position `end[row] - 1`,
/// where its seek lands and the coordinate there, past `ss`.  VBL's adds its
/// block's end offset `ofs[p + 1]` and length `ofs[p + 1] - ofs[p]`, the
/// zero gap's last coordinate (the block's last, less the length), that
/// clipped to the step — `ss` is at or past it — and one past that, which
/// is past `ss`.  Where the body runs: a loop invariant, the sum of its
/// terms; `ss` plus such a sum; a product formed from a value at a finger
/// (and that finger): the value, times the second factor, and either times
/// the extent; an F64 load at a register the loop does not write, a match's
/// lead.  A register that guarded code wrote — an append's, or the fill of
/// a run that is not empty — holds a value only the steps that run it know.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    Stop,
    Start,
    Pos(usize),
    OneOn(usize),
    Step,
    Other,
    Stride(usize),
    After,
    Before,
    Span,
    SpanOn,
    Extent,
    End,
    Last,
    Landed,
    Past,
    Hi,
    Len,
    Gap,
    GapStop,
    PastGap,
    Inv([Term; 2]),
    Idx([Term; 2]),
    Formed(Product, usize),
    Fixed,
    Passed,
}

/// The product that is a value at a finger, alone.
fn value(val: BufId) -> Product {
    Product { lead: None, val, second: Gather::None, extent: false }
}

/// No term.
const NO_TERMS: [Term; 2] = [Term::Zero; 2];

/// The terms of `a` and of `b` (`minus`: of `-b`), if there are two at most.
fn sum(a: [Term; 2], b: [Term; 2], minus: bool) -> Result<[Term; 2], MergeDecline> {
    let flip = |term| match term {
        Term::Plus { buf, at } if minus => Term::Minus { buf, at },
        Term::Minus { buf, at } if minus => Term::Plus { buf, at },
        term => term,
    };
    let mut terms = a.into_iter().chain(b.map(flip)).filter(|&term| term != Term::Zero);
    let out = [terms.next().unwrap_or(Term::Zero), terms.next().unwrap_or(Term::Zero)];
    terms.next().is_none().then_some(out).ok_or(MergeDecline::NotGuardedByBoth)
}

/// What the trailer of a skipped step reads besides its list.
#[derive(Clone, Copy, PartialEq)]
enum Aux {
    /// Nothing: a stepper.
    Nothing,
    /// Its block offsets: its stride ends a block.
    Blocks(BufId),
    /// Its row's ends, and its row (a register the loop must not write),
    /// to seek in: a jumper.
    Row(BufId, Reg),
}

/// One step, walked ([`walk`]).
struct Walked {
    /// Its statements and loads as the op counts them: those of every such
    /// step, then each finger's advance, on the steps its stride ends.
    counts: StepCounts,
    /// What the code behind its guard counts, `[stmts, loads]`.
    pass: [u32; 2],
    /// What its trailer reads besides its list.
    aux: Aux,
    /// Where the body ran: its guard × product × output (a store's run
    /// filled or not), and the finger of the product's first factor.
    body: Option<(Guard, Product, Out, usize)>,
    /// Every register it writes.
    written: Vec<Reg>,
}

/// A step's statements and loads in all.
fn total(counts: StepCounts) -> [u32; 2] {
    [counts.stmts.iter().sum(), counts.loads.iter().sum()]
}

/// The step of the loop `lp` over `fingers` (a list and a position each,
/// whose strides the body begins by loading) whose end `ends` says, walked
/// from the top of the body to the bottom test with every branch decided on
/// what such a step knows ([`Held`]): which strides are the step's end; the
/// step is not the loop's last (a jumper's op performs that one too, and
/// leaves the loop); VBL's gap test, `ss <= min(a[p] - (ofs[p + 1] -
/// ofs[p]), ss)`; a jumper's trailer lands past `ss`.  The op checks each at
/// run time.
///
/// The step ends with `start` at `ss + 1` and each finger whose stride may
/// end it one on, by its advance on `s == ss`; a stepper's trailer where it
/// was, a jumper's where its one seek — to `ss`, in its own list, up to its
/// row's last position — landed, after one iteration of an inner loop.  A
/// skipped step does nothing else.  A performed one may run the body: put
/// a [`Product`] `[lead *] val[p] * second [* extent]` (the second factor
/// none, a value at a finger or `x[ss + ofs]`, the extent `max(ss - start +
/// 1, 0)` or none, the lead, `k` and the terms of `ofs` loads and registers
/// the loop does not write) where an [`Out`] says, `acc[k] op= product`,
/// `crd.push(ss) ; vals.push(product)` or `dst[ss] op= product` — the last
/// after filling the run in front of it, `if start <= ss - 1 { .. }`
/// ([`filled_run`]), or not — optionally under a guard `val[p] op imm`
/// whose false edge lands on the join behind the pushes; and the loop may
/// write the fingers and `start` nowhere else.  An instruction the walk
/// cannot decide or does not know is no such step.
fn walk(
    code: &[Instr],
    lp: StepLoop,
    fingers: &[(BufId, Reg)],
    ends: Ends,
) -> Result<Walked, MergeDecline> {
    use Held::*;
    use MergeDecline::{NonUnitAdvance, NotGuardedByBoth};
    let StepLoop { head, bottom, start, stop, jumper, .. } = lp;
    let leader = if jumper { BinOp::Max } else { BinOp::Min };
    let (trail, performs) = match ends {
        Ends::Lead(k) => (Some(1 - k), false),
        _ => (None, true),
    };
    let mut loop_writes = Vec::new();
    for instr in code[head..=bottom].iter().filter(|_| performs) {
        for_each_reg_role(instr, |r, role| loop_writes.extend((role != Role::Read).then_some(r)));
    }
    // What a performed step reads besides its fingers: registers the loop
    // does not write (a skipped step reads nothing else).
    let invariant = |r: Reg| performs && !loop_writes.contains(&r);
    // The fingers and the start are written in one place each: the step the
    // walk must find.
    let once = |r: Reg| loop_writes.iter().filter(|&&w| w == r).count() == 1;
    if performs && (!invariant(stop) || !fingers.iter().map(|f| f.1).chain([start]).all(once)) {
        return Err(NotGuardedByBoth);
    }
    let stride = |k| match ends {
        _ if trail == Some(k) => Other,
        Ends::Every if fingers.len() == 2 => Stride(k),
        _ => Step,
    };
    let mut vals = Vec::with_capacity(2 * (bottom - head));
    vals.extend([(stop, Stop), (start, Start)]);
    vals.extend(fingers.iter().enumerate().map(|(k, &(_, r))| (r, Pos(k))));
    let entry = vals.len();
    let val = |vals: &[(Reg, Held)], r: Reg| {
        vals.iter().rev().find(|v| v.0 == r).map(|v| v.1).ok_or(NotGuardedByBoth)
    };
    let decide = |vals: &[(Reg, Held)], op: BinOp, lhs: Reg, rhs: Reg| {
        let holds = match (op, val(vals, lhs)?, val(vals, rhs)?) {
            // One value in two registers: not two loads, nor what guarded
            // code wrote.
            (BinOp::Eq | BinOp::Le, x, y) if x == y && !matches!(x, Inv(_) | Idx(_) | Passed) => {
                true
            }
            (BinOp::Eq, Step, Other | Past) | (BinOp::Eq, Other | Past, Step) => false,
            (BinOp::Le, Step, GapStop) => true,
            (BinOp::Le, PastGap, Step) => false,
            // Where `ss + 1` is exact, which a jumper's op checks.
            (BinOp::Le, After, Step) if jumper => false,
            _ => return Err(NotGuardedByBoth),
        };
        Ok(holds)
    };
    // The one buffer the trailer reads besides its list.
    let claim = |aux: &mut Aux, want: Aux| {
        if *aux == Aux::Nothing {
            *aux = want;
        }
        *aux == want
    };
    // What every step counts and what a step that passes the guard counts
    // besides, `[stmts, loads]` each; each finger's advance.
    let (mut counted, mut adv) = ([[0; 2]; 2], [0; 2]);
    let (mut iters, mut sought, mut aux, mut pc) = (0, false, Aux::Nothing, head + 1);
    // The guard, and while its code is walked, the join its false edge lands
    // on and where in `vals` that code's values begin; the pushes; the lead;
    // the reduction or store; the store's run.
    let (mut cmp, mut open, mut crd, mut pushed) = (None, None, None, None);
    let (mut lead, mut stored, mut run) = (None, None, None);
    // Every pc at most twice: an inner loop runs once.
    for _ in 0..2 * (bottom - head) {
        // At the join, a register the guarded code wrote holds what only the
        // steps that passed know.
        if let Some((_, from)) = open.filter(|&(join, _)| join == pc) {
            vals[from..].iter_mut().for_each(|held| held.1 = Passed);
            open = None;
        }
        if pc == bottom {
            break;
        }
        if pc <= head || pc > bottom {
            return Err(NotGuardedByBoth);
        }
        let instr = code[pc];
        pc += 1;
        let at = usize::from(open.is_some());
        let written = match instr {
            Instr::Nop => continue,
            Instr::BumpStmt => {
                counted[at][0] += 1;
                continue;
            }
            Instr::Jump { target } => {
                pc = target as usize;
                continue;
            }
            Instr::ICmpBranch { op, lhs, rhs, target } => {
                match decide(&vals, op, lhs, rhs) {
                    Ok(taken) => pc = if taken { pc } else { target as usize },
                    // A store's run, filled where it is not empty: its code
                    // is walked to the join, where a register it wrote holds
                    // what only such a step knows.
                    Err(_)
                        if op == BinOp::Le
                            && run.is_none()
                            && [val(&vals, lhs), val(&vals, rhs)] == [Ok(Start), Ok(Before)] =>
                    {
                        let held = |r| val(&vals, r).ok();
                        let filled = filled_run(code, pc, target as usize, held, invariant);
                        let (dst, gap, wrote) = filled.ok_or(NotGuardedByBoth)?;
                        run = Some((dst, gap));
                        vals.extend(wrote.into_iter().map(|r| (r, Passed)));
                        pc = target as usize;
                    }
                    Err(e) => return Err(e),
                }
                continue;
            }
            Instr::IWhileCmp { op, lhs, rhs, end } => {
                match decide(&vals, op, lhs, rhs)? {
                    true => iters += 1,
                    false => pc = end as usize,
                }
                continue;
            }
            Instr::IWhileNext { op, lhs, rhs, body } => {
                if decide(&vals, op, lhs, rhs)? {
                    (iters, pc) = (iters + 1, body as usize);
                }
                continue;
            }
            Instr::IAdvance { op, lhs, rhs, reg, by, stmts: n } => {
                // Where either stride may end the step, the one tested.
                let either = match [val(&vals, lhs)?, val(&vals, rhs)?] {
                    [Stride(j), Step] | [Step, Stride(j)] if op == BinOp::Eq => Some(j),
                    _ => None,
                };
                if either.is_none() && !decide(&vals, op, lhs, rhs)? {
                    continue;
                }
                let k = match (by, val(&vals, reg)) {
                    (1, Ok(Pos(k))) if either.is_none_or(|j| j == k) => k,
                    _ => return Err(NonUnitAdvance),
                };
                adv[k] += n;
                (reg, OneOn(k))
            }
            Instr::LoadI64 { dst, buf, idx } => {
                counted[at][1] += 1;
                let loaded = match val(&vals, idx) {
                    Ok(Pos(k)) if buf == fingers[k].0 => stride(k),
                    Ok(Landed) if trail.is_some_and(|k| buf == fingers[k].0) => Past,
                    Ok(OneOn(k)) if trail == Some(k) && claim(&mut aux, Aux::Blocks(buf)) => Hi,
                    Err(_) if jumper && claim(&mut aux, Aux::Row(buf, idx)) => End,
                    Err(_) if invariant(idx) => Inv([Term::Plus { buf, at: idx }, Term::Zero]),
                    _ => return Err(NotGuardedByBoth),
                };
                (dst, loaded)
            }
            Instr::LoadBinary { op, dst, lhs, buf, idx } => {
                counted[at][1] += 1;
                let (term, minus) = ([Term::Plus { buf, at: idx }, Term::Zero], op == BinOp::Sub);
                let loaded = match (val(&vals, lhs)?, val(&vals, idx)) {
                    (Hi, Ok(Pos(k)))
                        if minus && trail == Some(k) && claim(&mut aux, Aux::Blocks(buf)) =>
                    {
                        Len
                    }
                    _ if !matches!(op, BinOp::Add | BinOp::Sub) || !invariant(idx) => {
                        return Err(NotGuardedByBoth)
                    }
                    (Step, _) => Idx(sum(NO_TERMS, term, minus)?),
                    (Idx(terms), _) => Idx(sum(terms, term, minus)?),
                    (Inv(terms), _) => Inv(sum(terms, term, minus)?),
                    _ => return Err(NotGuardedByBoth),
                };
                (dst, loaded)
            }
            Instr::LoadF64 { dst, buf, idx } if performs => {
                counted[at][1] += 1;
                match val(&vals, idx) {
                    Ok(Pos(k)) => (dst, Formed(value(buf), k)),
                    Err(_) if lead.is_none() && invariant(idx) => {
                        lead = Some((buf, idx));
                        (dst, Fixed)
                    }
                    _ => return Err(NotGuardedByBoth),
                }
            }
            Instr::IArith { op, dst, lhs, rhs } => {
                let (x, y) = (val(&vals, lhs)?, val(&vals, rhs)?);
                let is = |u, v| (x, y) == (u, v) || (x, y) == (v, u);
                let minus = op == BinOp::Sub;
                let computed = match (op, x, y) {
                    // The leader's stride: two steppers' earlier, two
                    // jumpers' later.
                    _ if op == leader && is(Step, Other) => Step,
                    (BinOp::Min, ..) if is(Stride(0), Stride(1)) || is(Step, Step) => Step,
                    (BinOp::Min, ..) if is(Step, Stop) || is(Step, Past) => Step,
                    (BinOp::Min, ..) if is(Gap, Step) => GapStop,
                    (BinOp::Sub, Other, Len) => Gap,
                    (BinOp::Sub, Step, Start) => Span,
                    (BinOp::Add | BinOp::Sub, Step, Inv(b)) | (BinOp::Add, Inv(b), Step) => {
                        Idx(sum(NO_TERMS, b, minus)?)
                    }
                    (BinOp::Add | BinOp::Sub, Idx(a), Inv(b)) | (BinOp::Add, Inv(a), Idx(b)) => {
                        Idx(sum(a, b, minus)?)
                    }
                    (BinOp::Add | BinOp::Sub, Inv(a), Inv(b)) => Inv(sum(a, b, minus)?),
                    _ => return Err(NotGuardedByBoth),
                };
                (dst, computed)
            }
            Instr::IArithImm { op, dst, lhs, imm } => {
                let computed = match (op, val(&vals, lhs)?, imm) {
                    (BinOp::Add, Pos(k), 1) if trail == Some(k) => OneOn(k),
                    (BinOp::Add, Step, 1) => After,
                    (BinOp::Sub, Step, 1) | (BinOp::Add, Step, -1) => Before,
                    (BinOp::Add, Span, 1) => SpanOn,
                    (BinOp::Max, SpanOn, 0) => Extent,
                    (BinOp::Min, Step, _) if lp.is_bound(imm) => Step,
                    (BinOp::Add, GapStop, 1) => PastGap,
                    (BinOp::Sub, End, 1) | (BinOp::Add, End, -1) => Last,
                    _ => return Err(NotGuardedByBoth),
                };
                (dst, computed)
            }
            // A typed move moves integers.
            Instr::IMov { dst, src } => match val(&vals, src)? {
                Formed(..) | Passed | Fixed => return Err(NotGuardedByBoth),
                held => (dst, held),
            },
            Instr::ISeek { dst, buf, lo, hi, key, on_abs: false } if !sought => {
                let at = (val(&vals, lo)?, val(&vals, hi)?, val(&vals, key)?);
                if trail.is_none_or(|k| buf != fingers[k].0 || at != (Pos(k), Last, Step)) {
                    return Err(NotGuardedByBoth);
                }
                sought = true;
                (dst, Landed)
            }
            // An append's guard: a value at the first finger against a
            // literal.
            Instr::FCmpBranchImm { op, lhs, imm, target }
                if cmp.is_none() && crd.is_none() && target as usize >= pc =>
            {
                let Formed(read, 0) = val(&vals, lhs)? else { return Err(NotGuardedByBoth) };
                cmp = Some((read, op, imm));
                open = Some((target as usize, vals.len()));
                continue;
            }
            // The pushes, where the guard (if any) passed.
            Instr::IAppend { buf, val: v }
                if performs && crd.is_none() && open.is_some() == cmp.is_some() =>
            {
                if val(&vals, v)? != Step {
                    return Err(NotGuardedByBoth);
                }
                crd = Some(buf);
                continue;
            }
            Instr::FAppend { buf, val: v }
                if crd.is_some() && pushed.is_none() && open.is_some() == cmp.is_some() =>
            {
                pushed = Some((buf, val(&vals, v)?));
                continue;
            }
            Instr::FMulLoad { dst, lhs, buf, idx } => {
                counted[at][1] += 1;
                let second = |held| match held {
                    Pos(j) => Some(Gather::At { x: buf, at: fingers[j].1 }),
                    Step => Some(Gather::Load { x: buf, ofs: NO_TERMS }),
                    Idx(ofs) => Some(Gather::Load { x: buf, ofs }),
                    _ => None,
                };
                let formed = match (val(&vals, lhs)?, val(&vals, idx)?) {
                    (Fixed, Pos(k)) => Some(Formed(Product { lead, ..value(buf) }, k)),
                    (Formed(formed, k), at) if formed.second == Gather::None && !formed.extent => {
                        second(at).map(|second| Formed(Product { second, ..formed }, k))
                    }
                    _ => None,
                };
                (dst, formed.ok_or(NotGuardedByBoth)?)
            }
            // `Value::binop`'s `f64 * i64`, which the op reproduces.
            Instr::Binary { op: BinOp::Mul, dst, lhs, rhs } => {
                match (val(&vals, lhs)?, val(&vals, rhs)?) {
                    (Formed(formed, k), Extent) if formed.lead.is_none() && !formed.extent => {
                        (dst, Formed(Product { extent: true, ..formed }, k))
                    }
                    _ => return Err(NotGuardedByBoth),
                }
            }
            Instr::StoreF64 { buf, idx, val: v, reduce: Some(op) }
                if stored.is_none() && cmp.is_none() && invariant(idx) =>
            {
                stored = Some((Out::Fold { acc: buf, k: idx, op }, val(&vals, v)?));
                continue;
            }
            // A dense output's store at the step's end.
            Instr::StoreF64 { buf, idx, val: v, reduce }
                if performs && stored.is_none() && cmp.is_none() && val(&vals, idx) == Ok(Step) =>
            {
                stored = Some((Out::Store { dst: buf, op: reduce, gap: None }, val(&vals, v)?));
                continue;
            }
            _ => return Err(NotGuardedByBoth),
        };
        vals.push(written);
    }
    let moved = fingers.iter().enumerate().all(|(k, &(_, r))| {
        let trailer = if jumper { Landed } else { Pos(k) };
        val(&vals, r) == Ok(if trail == Some(k) { trailer } else { OneOn(k) })
    });
    if pc == bottom && (!moved || val(&vals, start) != Ok(After)) {
        return Err(NonUnitAdvance);
    }
    if pc != bottom || open.is_some() || (iters, sought) != (u32::from(jumper), jumper) {
        return Err(NotGuardedByBoth);
    }
    // `[lead *] val[first] * second [* extent]`, the lead loaded its own,
    // put where the output says, a run filled in the output its step stores
    // into.
    let ran = |(out, formed): (Out, Held)| {
        let out = match (out, run) {
            (out, None) => out,
            (Out::Store { dst, op, gap: None }, Some((filled, gap))) if filled == dst => {
                Out::Store { dst, op, gap: Some(gap) }
            }
            _ => return None,
        };
        let Formed(product, first) = formed else { return None };
        let guard = match (cmp, ends) {
            (None, Ends::Both) => Guard::Both,
            (None, _) => Guard::Every,
            (Some((read, op, imm)), Ends::Every) if read == value(product.val) => {
                Guard::Cmp(op, imm)
            }
            _ => return None,
        };
        (product.lead == lead).then_some((guard, product, out, first))
    };
    let body = match (stored, crd, pushed) {
        (None, None, None) => None,
        (Some(stored), None, None) => Some(ran(stored).ok_or(NotGuardedByBoth)?),
        (None, Some(crd), Some((vals, formed))) => {
            Some(ran((Out::Push { crd, vals }, formed)).ok_or(NotGuardedByBoth)?)
        }
        _ => return Err(NotGuardedByBoth),
    };
    let counts =
        StepCounts { stmts: [counted[0][0], adv[0], adv[1]], loads: [counted[0][1], 0, 0] };
    let written = vals[entry..].iter().map(|&(r, _)| r).collect();
    Ok(Walked { counts, pass: counted[1], aux, body, written })
}

/// The op that performs the steps of the loop `lp` over `fingers` whose end
/// `ends` says — matches, or every step — or `None`: the walked step
/// ([`walk`]) must run a body whose guard × product × output [`supported`]
/// says exists, reading no buffer it writes.  Its counts are the op's: those
/// of every step, each finger's advance, and the guarded code's `pass`.
/// With `skipped` (two steppers' skip walks, which found
/// [`MergeForm::Steps`]: their counts and the registers they write) the
/// walked step is a match, whose whole counts are its `pass`, and the skip
/// walks' counts the op's.
fn perform(
    code: &[Instr],
    edges: &OnceCell<Vec<u32>>,
    lp: StepLoop,
    fingers: &[(BufId, Reg)],
    ends: Ends,
    skipped: Option<(StepCounts, &[Reg])>,
) -> Option<(Instr, Step)> {
    let Walked { counts, pass, body, mut written, .. } = walk(code, lp, fingers, ends).ok()?;
    let (guard, product, out, first) = body?;
    written.extend_from_slice(skipped.map_or(&[], |(_, by_skips)| by_skips));
    let (mut counts, pass) = skipped.map_or((counts, pass), |(skips, _)| (skips, total(counts)));
    // The op's `p` is the finger of the first factor; a `min` leader does not
    // tell two fingers apart.
    let mut fingers = fingers.to_vec();
    if first == 1 {
        fingers.swap(0, 1);
        counts.stmts.swap(1, 2);
        counts.loads.swap(1, 2);
    }
    if !supported(guard, &product, out, fingers.get(1).map(|&(_, q)| q)) {
        return None;
    }
    // Nothing the op reads is a buffer it writes, or writes twice.
    let mut sources: Vec<BufId> = fingers.iter().map(|&(list, _)| list).collect();
    sources.extend(operand_ids(&product).0);
    let outs = operand_ids(&out).0;
    if outs.iter().any(|buf| sources.contains(buf)) || outs.first() == outs.get(1) {
        return None;
    }
    let step = Step::Perform { guard, product, out, pass };
    step_loop_op(code, edges, lp, &fingers, step, counts, written)
}

/// Whether a [`Step::Perform`] of this guard × product × output exists —
/// what the walk gives an op and `verify_bytecode` lets through, over the
/// second finger `q` if there is one.  Every combination a kernel emits is
/// one of: a reduction on every step, of one finger or two, the second
/// factor any, the extent or not (Fig. 1's list × band, Fig. 11's runs); a
/// lone stepper's value pushed on every step or under a comparison (Fig.
/// S's threshold filter); a lone stepper's gathered `val[p] * x[ss + ofs]`
/// stored at the step's end, its run filled or not (a sparse list times a
/// dense vector into a dense output); a match's `[lead *] val[p] * x[q]`,
/// folded or pushed (Figs. 7 and 8, the sparse-output product).  The rest
/// are declined, not written.
pub(crate) fn supported(guard: Guard, product: &Product, out: Out, q: Option<Reg>) -> bool {
    let Product { lead, second, extent, .. } = *product;
    match (guard, out) {
        (Guard::Every, Out::Fold { .. }) => lead.is_none(),
        (Guard::Every | Guard::Cmp(..), Out::Push { .. }) => {
            q.is_none() && lead.is_none() && second == Gather::None && !extent
        }
        (Guard::Every, Out::Store { .. }) => {
            q.is_none() && lead.is_none() && matches!(second, Gather::Load { .. }) && !extent
        }
        (Guard::Cmp(..) | Guard::Both, Out::Store { .. }) | (Guard::Cmp(..), Out::Fold { .. }) => {
            false
        }
        (Guard::Both, Out::Fold { .. } | Out::Push { .. }) => {
            !extent && q.is_some_and(|q| matches!(second, Gather::At { at, .. } if at == q))
        }
    }
}

/// The run in front of a lone stepper's step end, filled where it is not
/// empty: the code from `pc`, just past the branch `if start <= ss - 1`, to
/// `join`, where the branch's false edge lands —
///
/// ```text
/// lo = start ; hi = ss - 1            IMov, IArithImm (or IMov of ss - 1)
/// vfill dst[v] = .. for v in [lo, hi)  VFillStoreF64, where vectorize put one
/// for v = lo while <= hi              IForTest, whose exit is the join
///     dst[v] = fill                   StoreF64
/// next v                              IForNext, in front of the join
/// ```
///
/// — with `fill` a register the loop does not write (`invariant`).  `held`
/// is what the step's walk knows a register holds at the branch.  The
/// output, the [`Gap`] — the statements in front of the inner loop and
/// those of its body — and every register the code writes.
fn filled_run(
    code: &[Instr],
    mut pc: usize,
    join: usize,
    held: impl Fn(Reg) -> Option<Held>,
    invariant: impl Fn(Reg) -> bool,
) -> Option<(BufId, Gap, Vec<Reg>)> {
    let (mut stmts, mut lo, mut hi, mut vfill, mut wrote) = ([0; 2], None, None, None, Vec::new());
    let mut inner: Option<(Reg, usize)> = None;
    let mut filled = None;
    while pc < join {
        let instr = code[pc];
        pc += 1;
        // What the code has not written holds what it held at the branch.
        let is = |r: Reg, want: Held| !wrote.contains(&r) && held(r) == Some(want);
        let written = match instr {
            Instr::Nop => continue,
            Instr::BumpStmt => {
                stmts[usize::from(inner.is_some())] += 1;
                continue;
            }
            Instr::IMov { dst, src } if inner.is_none() && lo.is_none() && is(src, Held::Start) => {
                lo = Some(dst);
                dst
            }
            Instr::IMov { dst, src }
                if inner.is_none() && hi.is_none() && is(src, Held::Before) =>
            {
                hi = Some(dst);
                dst
            }
            Instr::IArithImm { op, dst, lhs, imm }
                if inner.is_none()
                    && hi.is_none()
                    && matches!((op, imm), (BinOp::Sub, 1) | (BinOp::Add, -1))
                    && is(lhs, Held::Step) =>
            {
                hi = Some(dst);
                dst
            }
            Instr::VFillStoreF64 { buf, base: VBase::Var, counter, hi: to, .. }
                if inner.is_none() && vfill.is_none() && (Some(counter), Some(to)) == (lo, hi) =>
            {
                vfill = Some(buf);
                continue;
            }
            Instr::IForTest { counter, hi: to, var, end }
                if inner.is_none()
                    && (Some(counter), Some(to)) == (lo, hi)
                    && end as usize == join =>
            {
                inner = Some((var, pc));
                var
            }
            Instr::StoreF64 { buf, idx, val, reduce: None }
                if filled.is_none()
                    && inner.is_some_and(|(var, _)| var == idx)
                    && invariant(val) =>
            {
                filled = Some((buf, val));
                continue;
            }
            Instr::IForNext { counter, hi: to, var, body }
                if pc == join
                    && (Some(counter), Some(to)) == (lo, hi)
                    && inner == Some((var, body as usize)) =>
            {
                let (dst, fill) = filled?;
                if vfill.is_some_and(|buf| buf != dst) {
                    return None;
                }
                return Some((dst, Gap { fill, stmts }, wrote));
            }
            _ => return None,
        };
        wrote.push(written);
    }
    None
}

/// Whether `instr` writes one of `regs`.
fn writes(instr: &Instr, regs: &[Reg]) -> bool {
    let mut written = false;
    for_each_reg_role(instr, |reg, role| written |= role != Role::Read && regs.contains(&reg));
    written
}

/// Whether some path from one of `from` reads one of `regs` before it
/// writes it (`edges` is [`edge_table`] of `code`).  One walk for all of
/// them: each pc keeps, a bit per register, those some path has reached it
/// without writing, and is revisited only with bits it has not had (more
/// than 64 registers count as read).
fn read_before_written(code: &[Instr], edges: &[u32], from: &[usize], regs: &[Reg]) -> bool {
    let Some(all) = 1u64.checked_shl(regs.len() as u32).map(|bit| bit - 1) else {
        return true;
    };
    let mut bit_of = vec![0u64; regs.iter().map(|r| r.0 as usize + 1).max().unwrap_or(0)];
    for (k, r) in regs.iter().enumerate() {
        bit_of[r.0 as usize] = 1 << k;
    }
    let mut reached = vec![0u64; code.len()];
    let mut todo: Vec<_> = from.iter().map(|&pc| (pc, all)).collect();
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
        if edges[pc] != NO_EDGE {
            todo.push((edges[pc] as usize, open));
        }
    }
    false
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::buffer::{BufId, Buffer, BufferSet};
    use crate::config::ExecConfig;
    use crate::expr::Expr;
    use crate::opt::{optimize_and_lower, ValidationLevel};
    use crate::stmt::Stmt;
    use crate::var::{Names, Var};

    pub(in crate::opt) type Kernel = (Vec<Stmt>, Names, BufferSet);

    /// The buffers of [`merge_kernel`], in the order it adds them.
    pub(in crate::opt) const A_IDX: BufId = BufId(0);
    pub(in crate::opt) const B_IDX: BufId = BufId(2);
    pub(in crate::opt) const OUT: BufId = BufId(5);
    pub(in crate::opt) const A_OFS: BufId = BufId(6);
    pub(in crate::opt) const B_POS: BufId = BufId(8);

    /// What [`merge_kernel_with`] varies: the loop the recogniser takes, or
    /// one of the shapes it must decline.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Shape {
        /// §6.1's two-finger intersection, whose matched step the op
        /// performs.
        Intersection,
        /// The intersection scattered into a dense output, `out[ss] +=
        /// a_val[p] * b_val[q]`: a store at a varying index, which the op
        /// skips to.
        Scatter,
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
        let out = bufs.add("out", Buffer::F64(vec![0.0; stop.max(0) as usize + 1].into()));
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
            index: if shape == Shape::Scatter { v(ss) } else { Expr::int(0) },
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
    pub(in crate::opt) fn operand_pairs() -> Vec<(Vec<i64>, Vec<i64>, i64)> {
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

    pub(in crate::opt) struct Compiled {
        /// What the tree-walker runs.
        pub(in crate::opt) code: Vec<Stmt>,
        pub(in crate::opt) names: Names,
        /// With the kernel-op tier, and without it.
        pub(in crate::opt) skipping: Program,
        pub(in crate::opt) scalar: Program,
        pub(in crate::opt) stats: OptStats,
    }

    pub(in crate::opt) fn compile(kernel: &Kernel) -> Compiled {
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
        let is_op = |pc: &usize| matches!(p.code()[*pc], Instr::IStepLoop { .. });
        (0..p.code().len()).filter(is_op).collect()
    }

    /// The shapes that get the op: §6.1's intersection, matched or
    /// scattered, VBL's block test, the block's last coordinate reloaded (as
    /// lowering emits it) or read off the stride, and the galloped
    /// intersection.
    pub(in crate::opt) const TAKEN: [Shape; 5] =
        [Shape::Intersection, Shape::Scatter, Shape::Block, Shape::BlockOnStride, Shape::Gallop];

    /// The ops `shape`'s kernel carries: the galloped loop's neither-finger-
    /// leads fall-back is a stepper merge with its own.
    pub(in crate::opt) fn op_count(shape: Shape) -> usize {
        if shape == Shape::Gallop {
            2
        } else {
            1
        }
    }

    #[test]
    fn the_merge_loop_gets_one_op_on_its_bottom_tests_target_and_is_otherwise_untouched() {
        // What an iteration costs, by the finger that leads it: the
        // intersection's inner guard where `p` leads; the block test's
        // statements and loads where `q` does — three loads, or two when the
        // stride stands in for the reload of `a[p]`; the jumper form's
        // fall-back alike for either finger.
        let wants = [
            "step_loop b0[p] ~ b2[q] in step_start..=phase_stop (i64) b5[t3] += b1[p] * b3[q] \
             where b0[p] == b2[q] { p += 1 ; +9 stmt +2 load | q += 1 ; +8 stmt +2 load | \
             match ; +11 stmt +4 load }",
            "step_loop b0[p] ~ b2[q] in step_start..=phase_stop (i64) skip \
             { p += 1 ; +9 stmt +2 load | q += 1 ; +8 stmt +2 load }",
            "step_loop b0[p] blocks b6 ~ b2[q] in step_start..=phase_stop (i64) skip \
             { p += 1 ; +8 stmt +2 load | q += 1 ; +13 stmt +5 load }",
            "step_loop b0[p] blocks b6 ~ b2[q] in step_start..=phase_stop (i64) skip \
             { p += 1 ; +8 stmt +2 load | q += 1 ; +13 stmt +4 load }",
            "step_loop b0[p] seeks < b7[inv] ~ b2[q] seeks < b8[inv] in step_start..=phase_stop \
             (i64) skip { p += 1 ; +18 stmt +6 load | q += 1 ; +18 stmt +6 load }",
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
            assert!(ops(&c.scalar).is_empty());
            only_adds(&c, &placed);
        }
    }

    /// Without the ops at `placed` and the tier's vectorized fills (a dense
    /// output's runs are filled by one), the program is the one compiled
    /// without the tier.
    fn only_adds(c: &Compiled, placed: &[usize]) {
        let mut without = c.skipping.code().to_vec();
        let mut folded = c.skipping.stmt_bump().to_vec();
        let fill = |pc: &usize| matches!(without[*pc], Instr::VFillStoreF64 { .. });
        let mut placed: Vec<usize> =
            (0..without.len()).filter(fill).chain(placed.to_vec()).collect();
        placed.sort_unstable();
        for &at in placed.iter().rev() {
            assert_eq!(folded[at], 0);
            without.remove(at);
            folded.remove(at);
            for target in without.iter_mut().filter_map(Instr::target_mut) {
                *target -= u32::from(*target as usize > at);
            }
        }
        assert_eq!(without, c.scalar.code(), "{}\nvs\n{}", c.skipping.disasm(), c.scalar.disasm());
        assert_eq!(folded, c.scalar.stmt_bump());
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

    /// The buffers of [`gather_kernel`], in the order it adds them.
    pub(in crate::opt) const CRD: BufId = BufId(0);
    pub(in crate::opt) const VALS: BufId = BufId(1);
    pub(in crate::opt) const X: BufId = BufId(2);
    pub(in crate::opt) const X_POS: BufId = BufId(3);
    pub(in crate::opt) const X_START: BufId = BufId(4);
    pub(in crate::opt) const SUM: BufId = BufId(6);

    /// What [`gather_kernel`] varies: the lone stepper's body.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Lone {
        /// Fig. 1's list × band: `sum[0] += val[p] * x[pos[r] + (ss -
        /// start[r])]`, `r` loop-invariant.
        Band,
        /// A list against a dense vector: `sum[0] += val[p] * x[ss]`.
        Dense,
        /// The list alone: `sum[0] max= val[p]`.
        Max,
        /// The body stores at the coordinate: `sum[ss] += val[p]`.
        Scatter,
        /// The body runs only where the value is positive.
        Guarded,
        /// `x` read at the finger, not at the coordinate: `x[p]`.
        AtFinger,
        /// `x` read one past the finger: a factor at a varying index.
        PastFinger,
    }

    /// The loop `lower_stepped` emits for one walked list against a located
    /// operand, over the step range `0..=stop` (the bound loaded, so nothing
    /// folds it): `if ss == s { body }`.  `x` is one longer than the range,
    /// its band starting one position into it (`pos[r] - start[r]` is 1).
    pub(in crate::opt) fn gather_kernel(crd: &[i64], stop: i64, shape: Lone) -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let values =
            |n: usize, scale: f64| (0..n).map(|k| (k + 1) as f64 * scale).collect::<Vec<_>>();
        let span = (stop + 2).max(1) as usize;
        let crd_buf = bufs.add("crd", Buffer::I64(crd.to_vec().into()));
        let vals = bufs.add("vals", Buffer::F64(values(crd.len(), 0.5).into()));
        let x = bufs.add("x", Buffer::F64(values(span, 0.25).into()));
        let x_pos = bufs.add("x_pos", Buffer::I64(vec![1, span as i64].into()));
        let x_start = bufs.add("x_start", Buffer::I64(vec![0].into()));
        let bound = bufs.add("bound", Buffer::I64(vec![stop, 0].into()));
        let sum = bufs.add("sum", Buffer::F64(vec![0.0; span].into()));
        assert_eq!((crd_buf, vals, x, x_pos, x_start, sum), (CRD, VALS, X, X_POS, X_START, SUM));
        let [p, hi, inv, start, s, ss] =
            ["p", "phase_stop", "inv", "step_start", "stride", "step_stop"].map(|n| names.fresh(n));
        let v = Expr::Var;
        let value = Expr::load(vals, v(p));
        let store = |index: Expr, value: Expr, op: BinOp| Stmt::Store {
            buf: sum,
            index,
            value,
            reduce: Some(op),
        };
        let band =
            Expr::add(Expr::load(x_pos, v(inv)), Expr::sub(v(ss), Expr::load(x_start, v(inv))));
        let body = match shape {
            Lone::Band => store(Expr::int(0), Expr::mul(value, Expr::load(x, band)), BinOp::Add),
            Lone::Dense => store(Expr::int(0), Expr::mul(value, Expr::load(x, v(ss))), BinOp::Add),
            Lone::Max => store(Expr::int(0), value, BinOp::Max),
            Lone::Scatter => store(v(ss), value, BinOp::Add),
            Lone::Guarded => Stmt::if_then(
                Expr::lt(Expr::float(1.0), value.clone()),
                vec![store(Expr::int(0), value, BinOp::Add)],
            ),
            Lone::AtFinger => {
                store(Expr::int(0), Expr::mul(value, Expr::load(x, v(p))), BinOp::Add)
            }
            Lone::PastFinger => {
                let past = Expr::add(v(p), Expr::int(1));
                store(Expr::int(0), Expr::mul(value, Expr::load(x, past)), BinOp::Add)
            }
        };
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: inv, init: Expr::load(bound, Expr::int(1)) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::le(v(start), v(hi)),
                body: vec![
                    Stmt::Let { var: s, init: Expr::load(crd_buf, v(p)) },
                    Stmt::Let { var: ss, init: Expr::min(v(s), v(hi)) },
                    Stmt::if_then(Expr::eq(v(ss), v(s)), vec![body]),
                    Stmt::if_then(
                        Expr::eq(v(s), v(ss)),
                        vec![Stmt::Assign { var: p, value: Expr::add(v(p), Expr::int(1)) }],
                    ),
                    Stmt::Assign { var: start, value: Expr::add(v(ss), Expr::int(1)) },
                ],
            },
        ];
        (stmts, names, bufs)
    }

    /// The lone stepper's shapes that get the gather reduction.
    pub(in crate::opt) const GATHERED: [Lone; 4] =
        [Lone::Band, Lone::Dense, Lone::Max, Lone::AtFinger];

    fn gathers(p: &Program) -> Vec<usize> {
        let is_op = |pc: &usize| {
            let step = p.step_of(&p.code()[*pc]);
            matches!(step, Some(Step::Perform { guard: Guard::Every, out: Out::Fold { .. }, .. }))
        };
        (0..p.code().len()).filter(is_op).collect()
    }

    /// Coordinate lists and bounds for the lone stepper: a sentinel past the
    /// bound, the bound on the last coordinate, a dense run, the first step
    /// the last, a list the loop never enters, two neighbours at the end.
    pub(in crate::opt) fn lone_lists() -> Vec<(Vec<i64>, i64)> {
        vec![
            (vec![3, 17, 30, 1000], 39),
            ((0..40).collect(), 39),
            (vec![2, 5, 9, 14], 14),
            (vec![39], 39),
            (vec![], -1),
            (vec![5, 6], 6),
            (vec![0, 7, 1000], 7),
        ]
    }

    #[test]
    fn the_lone_stepper_gets_the_gather_reduction_and_is_otherwise_untouched() {
        let wants = [
            "step_loop b0[p] in step_start..=phase_stop (i64) \
             b6[t7] += b1[p] * b2[b0[p] + b3[inv] - b4[inv]] { +6 stmt +5 load | p += 1 ; +1 stmt }",
            "step_loop b0[p] in step_start..=phase_stop (i64) b6[t3] += b1[p] * b2[b0[p]] \
             { +6 stmt +3 load | p += 1 ; +1 stmt }",
            "step_loop b0[p] in step_start..=phase_stop (i64) b6[t2] max= b1[p] \
             { +6 stmt +2 load | p += 1 ; +1 stmt }",
            "step_loop b0[p] in step_start..=phase_stop (i64) b6[t3] += b1[p] * b2[p] \
             { +6 stmt +3 load | p += 1 ; +1 stmt }",
        ];
        for (shape, want) in GATHERED.into_iter().zip(wants) {
            let c = compile(&gather_kernel(&[3, 17, 30, 1000], 39, shape));
            let placed = gathers(&c.skipping);
            assert_eq!((c.stats.merge_skips, placed.len()), (1, 1), "{}", c.skipping.disasm());
            assert_eq!(c.stats.merge_declined, [0; 6]);
            let at = placed[0];
            let code = c.skipping.code();
            assert!(matches!(code[at - 1], Instr::IWhileCmp { .. }), "{}", c.skipping.disasm());
            let line = c.skipping.disasm().lines().nth(at).unwrap().to_string();
            assert!(line.ends_with(want), "{line}\n{}", c.skipping.disasm());
            only_adds(&c, &placed);
        }
    }

    #[test]
    fn lone_steppers_whose_body_is_no_gather_reduction_are_declined_as_single_finger() {
        for shape in [Lone::Scatter, Lone::Guarded, Lone::PastFinger] {
            let c = compile(&gather_kernel(&[3, 17, 30, 1000], 39, shape));
            assert!(gathers(&c.skipping).is_empty(), "{shape:?}\n{}", c.skipping.disasm());
            let mut tally = [0; 6];
            tally[MergeDecline::SingleFinger as usize] = 1;
            assert_eq!((c.stats.merge_skips, c.stats.merge_declined), (0, tally), "{shape:?}");
            assert_eq!(c.skipping.code(), c.scalar.code(), "{shape:?}: no op, same program");
        }
    }

    /// The output buffers of [`append_kernel`].
    pub(in crate::opt) const KEPT_CRD: BufId = BufId(3);
    pub(in crate::opt) const KEPT_VALS: BufId = BufId(4);

    /// The loop `lower_stepped` emits for one walked list filtered into a
    /// sparse output, over the step range `0..=stop` (the bound loaded, so
    /// nothing folds it): `if ss == s { if vals[p] op imm { kept_crd.push(ss)
    /// ; kept_vals.push(vals[p]) } }`, without the inner test if there is no
    /// `guard`.
    pub(in crate::opt) fn append_kernel(
        crd: &[i64],
        values: &[f64],
        stop: i64,
        guard: Option<(BinOp, f64)>,
    ) -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let crd_buf = bufs.add("crd", Buffer::I64(crd.to_vec().into()));
        let vals = bufs.add("vals", Buffer::F64(values.to_vec().into()));
        let bound = bufs.add("bound", Buffer::I64(vec![stop].into()));
        let kept_crd = bufs.add("kept_crd", Buffer::I64(Vec::new().into()));
        let kept_vals = bufs.add("kept_vals", Buffer::F64(Vec::new().into()));
        assert_eq!((crd_buf, vals, kept_crd, kept_vals), (CRD, VALS, KEPT_CRD, KEPT_VALS));
        let [p, hi, start, s, ss, v] =
            ["p", "phase_stop", "step_start", "stride", "step_stop", "v"].map(|n| names.fresh(n));
        let var = Expr::Var;
        let pushes = vec![
            Stmt::Append { buf: kept_crd, value: var(ss) },
            Stmt::Append { buf: kept_vals, value: Expr::load(vals, var(p)) },
        ];
        let body = match guard {
            Some((op, imm)) => vec![
                Stmt::Let { var: v, init: Expr::load(vals, var(p)) },
                Stmt::if_then(Expr::binary(op, var(v), Expr::float(imm)), pushes),
            ],
            None => pushes,
        };
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::le(var(start), var(hi)),
                body: vec![
                    Stmt::Let { var: s, init: Expr::load(crd_buf, var(p)) },
                    Stmt::Let { var: ss, init: Expr::min(var(s), var(hi)) },
                    Stmt::if_then(Expr::eq(var(ss), var(s)), body),
                    Stmt::if_then(
                        Expr::eq(var(s), var(ss)),
                        vec![Stmt::Assign { var: p, value: Expr::add(var(p), Expr::int(1)) }],
                    ),
                    Stmt::Assign { var: start, value: Expr::add(var(ss), Expr::int(1)) },
                ],
            },
        ];
        (stmts, names, bufs)
    }

    fn appends(p: &Program) -> Vec<usize> {
        let is_op = |pc: &usize| {
            let step = p.step_of(&p.code()[*pc]);
            matches!(step, Some(Step::Perform { out: Out::Push { .. }, .. }))
        };
        (0..p.code().len()).filter(is_op).collect()
    }

    /// The guards the append kernels filter by: none, `> 2`, and against
    /// the two zeros.  (A NaN literal is `tests/merge_skip.rs`': programs
    /// holding one compare unequal to themselves.)
    pub(in crate::opt) const GUARDS: [Option<(BinOp, f64)>; 4] =
        [None, Some((BinOp::Gt, 2.0)), Some((BinOp::Le, -0.0)), Some((BinOp::Ge, 0.0))];

    /// Values at [`lone_lists`]' coordinates: above and below the guards,
    /// both zeros, NaN and the infinities.
    pub(in crate::opt) fn append_values(n: usize) -> Vec<f64> {
        let cycle = [1.5, 2.5, -0.0, f64::NAN, 0.0, -3.0, f64::INFINITY, 2.0, f64::NEG_INFINITY];
        (0..n).map(|k| cycle[k % cycle.len()]).collect()
    }

    #[test]
    fn the_lone_stepper_gets_the_append_and_is_otherwise_untouched() {
        let wants = [
            "step_loop b0[p] in step_start..=phase_stop (i64) b3.push(b0[p]), b4.push(b1[p]) \
             { +7 stmt +2 load | p += 1 ; +1 stmt }",
            "step_loop b0[p] in step_start..=phase_stop (i64) b3.push(b0[p]), b4.push(b1[p]) \
             where b1[p] > 2.0 { +7 stmt +2 load | p += 1 ; +1 stmt | pass ; +2 stmt +1 load }",
        ];
        for (guard, want) in GUARDS.into_iter().zip(wants) {
            let c = compile(&append_kernel(&[3, 17, 30, 1000], &[1.0, 3.0, 5.0, 7.0], 39, guard));
            let placed = appends(&c.skipping);
            assert_eq!((c.stats.merge_skips, placed.len()), (1, 1), "{}", c.skipping.disasm());
            assert_eq!(c.stats.merge_declined, [0; 6]);
            let line = c.skipping.disasm().lines().nth(placed[0]).unwrap().to_string();
            assert!(line.ends_with(want), "{line}\n{}", c.skipping.disasm());
            only_adds(&c, &placed);
        }
    }

    /// What [`match_kernel`]'s two steppers do on a step both strides end.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Matched {
        /// `out[0] += a_val[p] * b_val[q]`: Fig. 7's two-finger SpMSpV.
        Reduce,
        /// `out[0] += lead[inv] * a_val[p] * b_val[q]`, `inv` a register the
        /// loop does not write: Fig. 8's triangle count.
        Led,
        /// `out[0] += a_val[p] * b_val[q] * lead[inv]`: the lead last, which
        /// the op does not take.
        LedLast,
        /// `crd.push(ss) ; vals.push(a_val[p] * b_val[q])`: the product into
        /// a sparse list.
        Append,
    }

    /// The buffers of [`match_kernel`], in the order it adds them.
    pub(in crate::opt) const M_A_VAL: BufId = BufId(1);
    pub(in crate::opt) const M_B_VAL: BufId = BufId(3);
    pub(in crate::opt) const M_LEAD: BufId = BufId(5);
    pub(in crate::opt) const M_OUT: BufId = BufId(6);
    pub(in crate::opt) const M_CRD: BufId = BufId(7);
    pub(in crate::opt) const M_VALS: BufId = BufId(8);

    /// The bodies the op performs.
    pub(in crate::opt) const MATCHED: [Matched; 3] =
        [Matched::Reduce, Matched::Led, Matched::Append];

    /// The loop `lower_stepped` emits for two coiterating steppers under a
    /// conjunctive `body`, over the step range `0..=stop` (the bound loaded,
    /// so nothing folds it), the values at the coordinates given.
    pub(in crate::opt) fn match_kernel(
        (a, a_vals): (&[i64], &[f64]),
        (b, b_vals): (&[i64], &[f64]),
        stop: i64,
        body: Matched,
    ) -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let a_idx = bufs.add("a_idx", Buffer::I64(a.to_vec().into()));
        let a_val = bufs.add("a_val", Buffer::F64(a_vals.to_vec().into()));
        let b_idx = bufs.add("b_idx", Buffer::I64(b.to_vec().into()));
        let b_val = bufs.add("b_val", Buffer::F64(b_vals.to_vec().into()));
        let bound = bufs.add("bound", Buffer::I64(vec![stop, 1].into()));
        let lead = bufs.add("lead", Buffer::F64(vec![-2.0, 0.1].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let crd = bufs.add("kept_crd", Buffer::I64(Vec::new().into()));
        let vals = bufs.add("kept_vals", Buffer::F64(Vec::new().into()));
        assert_eq!(
            (a_val, b_val, lead, out, crd, vals),
            (M_A_VAL, M_B_VAL, M_LEAD, M_OUT, M_CRD, M_VALS)
        );
        let [p, q, inv, hi, start, s1, s2, ss] =
            ["p", "q", "inv", "phase_stop", "step_start", "stride", "stride_2", "step_stop"]
                .map(|name| names.fresh(name));
        let v = Expr::Var;
        let (lead, product) =
            (Expr::load(lead, v(inv)), Expr::mul(Expr::load(a_val, v(p)), Expr::load(b_val, v(q))));
        let add =
            |value| Stmt::Store { buf: out, index: Expr::int(0), value, reduce: Some(BinOp::Add) };
        let work = match body {
            Matched::Reduce => vec![add(product)],
            Matched::Led => vec![add(Expr::mul(
                Expr::mul(lead, Expr::load(a_val, v(p))),
                Expr::load(b_val, v(q)),
            ))],
            Matched::LedLast => vec![add(Expr::mul(product, lead))],
            Matched::Append => vec![
                Stmt::Append { buf: crd, value: v(ss) },
                Stmt::Append { buf: vals, value: product },
            ],
        };
        let advance = |finger: Var, stride: Var| {
            Stmt::if_then(
                Expr::eq(v(stride), v(ss)),
                vec![Stmt::Assign { var: finger, value: Expr::add(v(finger), Expr::int(1)) }],
            )
        };
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: q, init: Expr::int(0) },
            Stmt::Let { var: inv, init: Expr::load(bound, Expr::int(1)) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::le(v(start), v(hi)),
                body: vec![
                    Stmt::Let { var: s1, init: Expr::load(a_idx, v(p)) },
                    Stmt::Let { var: s2, init: Expr::load(b_idx, v(q)) },
                    Stmt::Let { var: ss, init: Expr::min(Expr::min(v(s1), v(s2)), v(hi)) },
                    Stmt::if_then(
                        Expr::eq(v(ss), v(s1)),
                        vec![Stmt::if_then(Expr::eq(v(ss), v(s2)), work)],
                    ),
                    advance(p, s1),
                    advance(q, s2),
                    Stmt::Assign { var: start, value: Expr::add(v(ss), Expr::int(1)) },
                ],
            },
        ];
        (stmts, names, bufs)
    }

    /// `n` values, from `from` on in a cycle: finite ones, or (`special`)
    /// among them both zeros, NaN and both infinities.
    pub(in crate::opt) fn match_values(n: usize, from: usize, special: bool) -> Vec<f64> {
        let cycle: &[f64] = if special {
            &[1.5, -0.0, 0.1, f64::NAN, 2.5, f64::INFINITY, 0.0, -0.7, f64::NEG_INFINITY, 3.0]
        } else {
            &[1.5, 0.1, -2.5, 0.3, 7.0, -0.7, 1.0 / 3.0]
        };
        (0..n).map(|k| cycle[(from + k) % cycle.len()]).collect()
    }

    /// Sorted pairs, each list ending past `stop` so no finger leaves it:
    /// disjoint, identical, one or both empty, one entry each (meeting or
    /// not), a prefix of the other, and overlapping in part.
    pub(in crate::opt) fn match_pairs() -> Vec<(Vec<i64>, Vec<i64>, i64)> {
        let end = |mut list: Vec<i64>| {
            list.push(1000);
            list
        };
        vec![
            (end((0..30).step_by(2).collect()), end((1..30).step_by(2).collect()), 29),
            (end(vec![2, 5, 9, 14, 20]), end(vec![2, 5, 9, 14, 20]), 25),
            (end(vec![]), end(vec![1, 2, 6]), 8),
            (end(vec![]), end(vec![]), 4),
            (end(vec![7]), end(vec![7]), 7),
            (end(vec![4]), end(vec![9]), 15),
            (end(vec![1, 4, 6]), end(vec![1, 4, 6, 8, 11, 12]), 12),
            (end(vec![2, 5, 9, 14, 20]), end(vec![1, 2, 9, 11, 14, 18, 20]), 25),
            (end((0..24).collect()), end(vec![0, 10, 23]), 23),
        ]
    }

    /// `kernel`'s buffers with these values at the two fingers.
    pub(in crate::opt) fn with_values(
        kernel: &Kernel,
        a_vals: Vec<f64>,
        b_vals: Vec<f64>,
    ) -> BufferSet {
        let mut bufs = kernel.2.clone();
        *bufs.get_mut(M_A_VAL) = Buffer::F64(a_vals.into());
        *bufs.get_mut(M_B_VAL) = Buffer::F64(b_vals.into());
        bufs
    }

    fn matches_op(p: &Program) -> Vec<usize> {
        let is_op = |pc: &usize| {
            matches!(p.step_of(&p.code()[*pc]), Some(Step::Perform { guard: Guard::Both, .. }))
        };
        (0..p.code().len()).filter(is_op).collect()
    }

    #[test]
    fn the_intersection_gets_the_match_and_is_otherwise_untouched() {
        let skip = "{ p += 1 ; +9 stmt +2 load | q += 1 ; +8 stmt +2 load";
        let wants = [
            (Matched::Reduce, format!("b6[t3] += b1[p] * b3[q] where b0[p] == b2[q] {skip} | match ; +11 stmt +4 load }}")),
            (Matched::Led, format!("b6[t5] += b5[inv] * b1[p] * b3[q] where b0[p] == b2[q] {skip} | match ; +11 stmt +5 load }}")),
            (Matched::Append, format!("b7.push(b0[p]), b8.push(b1[p] * b3[q]) where b0[p] == b2[q] {skip} | match ; +12 stmt +4 load }}")),
            (Matched::LedLast, format!("skip {skip} }}")),
        ];
        let (a, b) = (vec![2, 5, 9, 1000], vec![1, 5, 9, 12, 1000]);
        for (body, want) in wants {
            let c = compile(&match_kernel((&a, &[1.0; 4]), (&b, &[2.0; 5]), 12, body));
            let placed = ops(&c.skipping);
            assert_eq!((c.stats.merge_skips, placed.len()), (1, 1), "{}", c.skipping.disasm());
            assert_eq!(c.stats.merge_declined, [0; 6]);
            assert_eq!(matches_op(&c.skipping).len(), usize::from(body != Matched::LedLast));
            let line = c.skipping.disasm().lines().nth(placed[0]).unwrap().to_string();
            assert!(line.ends_with(&want), "{body:?}: {line}\n{}", c.skipping.disasm());
            only_adds(&c, &placed);
        }
    }

    /// What [`run_kernel`] varies: the step loop over two run-length lists
    /// (or one) that the reduction op takes, or one it must decline.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Runs {
        /// Fig. 11's run × run product, the bound in a register:
        /// `out[0] += a_val[p] * b_val[q] * max(ss - start + 1, 0)`.
        Product,
        /// [`Runs::Product`] with a literal bound.
        Literal,
        /// [`Runs::Product`] with `b`'s value the first factor.
        Swapped,
        /// Fig. 11's row norm over `a` alone, with a literal bound:
        /// `out[0] += a_val[p] * a_val[p] * max(ss - start + 1, 0)`.
        Norm,
        /// The extent without its `+ 1` and clamp: `ss - start`.
        Span,
        /// `b`'s value one past its finger: a factor at a varying index.
        Shifted,
        /// The product accumulated into `a`'s values, a source.
        IntoSource,
    }

    /// The run-length shapes that get the reduction op.
    pub(in crate::opt) const REDUCED: [Runs; 4] =
        [Runs::Product, Runs::Literal, Runs::Swapped, Runs::Norm];

    /// The step loop lowering emits for a reduction over two run-length
    /// lists (`a`'s and `b`'s run ends; `Norm` reads `a` alone), over the
    /// step range `0..=stop`: the body runs on every step.  The values are
    /// thirds and sevenths, so that an operand order or a rounding shows.
    pub(in crate::opt) fn run_kernel(a: &[i64], b: &[i64], stop: i64, shape: Runs) -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let values = |n: usize, by: f64| (0..n).map(|k| (k as f64 + 1.0) / by).collect::<Vec<_>>();
        let a_idx = bufs.add("a_idx", Buffer::I64(a.to_vec().into()));
        let a_val = bufs.add("a_val", Buffer::F64(values(a.len(), 3.0).into()));
        let b_idx = bufs.add("b_idx", Buffer::I64(b.to_vec().into()));
        let b_val = bufs.add("b_val", Buffer::F64(values(b.len(), 7.0).into()));
        let bound = bufs.add("bound", Buffer::I64(vec![stop].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.5].into()));
        assert_eq!((a_idx, b_idx, out), (A_IDX, B_IDX, OUT));
        let [p, q, hi, start, s1, s2, ss] =
            ["p", "q", "phase_stop", "step_start", "stride", "stride_2", "step_stop"]
                .map(|name| names.fresh(name));
        let v = Expr::Var;
        let lone = shape == Runs::Norm;
        let limit =
            || if matches!(shape, Runs::Literal | Runs::Norm) { Expr::int(stop) } else { v(hi) };
        let span = Expr::sub(v(ss), v(start));
        let extent = match shape {
            Runs::Span => span,
            _ => Expr::max(Expr::add(span, Expr::int(1)), Expr::int(0)),
        };
        let second = match shape {
            Runs::Norm => Expr::load(a_val, v(p)),
            Runs::Shifted => Expr::load(b_val, Expr::add(v(q), Expr::int(1))),
            _ => Expr::load(b_val, v(q)),
        };
        let into = if shape == Runs::IntoSource { a_val } else { out };
        let first = Expr::load(a_val, v(p));
        let product = match shape {
            Runs::Swapped => Expr::mul(second, first),
            _ => Expr::mul(first, second),
        };
        let work = Stmt::Store {
            buf: into,
            index: Expr::int(0),
            value: Expr::mul(product, extent),
            reduce: Some(BinOp::Add),
        };
        let advance = |finger: Var, stride: Var| {
            Stmt::if_then(
                Expr::eq(v(stride), v(ss)),
                vec![Stmt::Assign { var: finger, value: Expr::add(v(finger), Expr::int(1)) }],
            )
        };
        let mut body = vec![Stmt::Let { var: s1, init: Expr::load(a_idx, v(p)) }];
        if lone {
            body.push(Stmt::Let { var: ss, init: Expr::min(v(s1), limit()) });
            body.extend([work, advance(p, s1)]);
        } else {
            body.push(Stmt::Let { var: s2, init: Expr::load(b_idx, v(q)) });
            body.push(Stmt::Let { var: ss, init: Expr::min(Expr::min(v(s1), v(s2)), limit()) });
            body.extend([work, advance(p, s1), advance(q, s2)]);
        }
        body.push(Stmt::Assign { var: start, value: Expr::add(v(ss), Expr::int(1)) });
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: q, init: Expr::int(0) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While { cond: Expr::le(v(start), limit()), body },
        ];
        (stmts, names, bufs)
    }

    /// Run ends covering `0..=stop` from the stream `draw`: runs of one to
    /// `longest` coordinates, the last ending on `stop` when `exact`, else
    /// past it.
    pub(in crate::opt) fn run_ends(
        draw: &mut impl FnMut(u64) -> u64,
        stop: i64,
        longest: u64,
        exact: bool,
    ) -> Vec<i64> {
        let mut ends = Vec::new();
        let mut end = -1;
        while end < stop {
            end += 1 + draw(longest) as i64;
            ends.push(if exact { end.min(stop) } else { end });
        }
        ends
    }

    /// Pairs of run-length lists over `0..=stop`: every run one coordinate
    /// long against one run, the same runs on both sides (every end a tie),
    /// runs ending together every other time, and a list whose last run ends
    /// exactly on the bound against one that runs past it.
    pub(in crate::opt) fn run_pairs() -> Vec<(Vec<i64>, Vec<i64>, i64)> {
        vec![
            ((0..=12).collect(), vec![40], 12),
            (vec![3, 7, 8, 20], vec![3, 7, 8, 20], 20),
            (vec![1, 3, 5, 7, 9, 11], vec![3, 7, 11], 11),
            (vec![0, 4, 9], vec![2, 4, 6, 30], 9),
            (vec![5], vec![5], 5),
            (vec![0], vec![0, 1], 0),
        ]
    }

    #[test]
    fn the_run_product_gets_the_two_finger_reduction_and_is_otherwise_untouched() {
        let wants = [
            "step_loop b0[p] ~ b2[q] in step_start..=phase_stop (i64) \
             b5[t7] += b1[p] * b3[q] * extent { +7 stmt +4 load | p += 1 ; +1 stmt \
             | q += 1 ; +1 stmt }",
            "step_loop b0[p] ~ b2[q] in step_start..=t8 (i64) \
             b5[t7] += b1[p] * b3[q] * extent { +7 stmt +4 load | p += 1 ; +1 stmt | q += 1 ; +1 stmt }",
            "step_loop b2[q] ~ b0[p] in step_start..=phase_stop (i64) \
             b5[t7] += b3[q] * b1[p] * extent { +7 stmt +4 load | q += 1 ; +1 stmt \
             | p += 1 ; +1 stmt }",
            "step_loop b0[p] in step_start..=t8 (i64) b5[t7] += b1[p] * b1[p] * extent \
             { +5 stmt +3 load | p += 1 ; +1 stmt }",
        ];
        for (shape, want) in REDUCED.into_iter().zip(wants) {
            let c = compile(&run_kernel(&[3, 7, 8, 20], &[1, 7, 20], 20, shape));
            let placed = gathers(&c.skipping);
            assert_eq!((c.stats.merge_skips, placed.len()), (1, 1), "{}", c.skipping.disasm());
            assert_eq!(c.stats.merge_declined, [0; 6]);
            let at = placed[0];
            let head = &c.skipping.code()[at - 1];
            let literal = matches!(head, Instr::IWhileCmpImm { .. });
            let want_literal = matches!(shape, Runs::Literal | Runs::Norm);
            assert_eq!(literal, want_literal, "{}", c.skipping.disasm());
            let line = c.skipping.disasm().lines().nth(at).unwrap().to_string();
            assert!(line.ends_with(want), "{line}\n{}", c.skipping.disasm());
            only_adds(&c, &placed);
        }
    }

    /// An extent of another form, a factor at a varying index and an
    /// accumulator that is a source: two fingers whose body runs on every
    /// step but is no reduction the op performs.
    #[test]
    fn run_loops_whose_body_is_no_reduction_are_declined_as_not_guarded_by_both() {
        for shape in [Runs::Span, Runs::Shifted, Runs::IntoSource] {
            let c = compile(&run_kernel(&[3, 7, 8, 20], &[1, 7, 20], 20, shape));
            assert!(gathers(&c.skipping).is_empty(), "{shape:?}\n{}", c.skipping.disasm());
            let mut tally = [0; 6];
            tally[MergeDecline::NotGuardedByBoth as usize] = 1;
            assert_eq!((c.stats.merge_skips, c.stats.merge_declined), (0, tally), "{shape:?}");
            assert_eq!(c.skipping.code(), c.scalar.code(), "{shape:?}: no op, same program");
        }
    }

    /// The dense output of [`store_kernel`].
    pub(in crate::opt) const DENSE: BufId = BufId(4);

    /// What [`store_kernel`]'s step does with its dense output.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(in crate::opt) enum Dense {
        /// `C[i] = A[i] * x[i]`: the run in front of the step's end set to
        /// zero, then `out[ss] = vals[p] * x[ss]`.
        Assign,
        /// `C[i] += A[i] * x[i]`: `out[ss] += vals[p] * x[ss]`, the run left
        /// as it is.
        Add,
    }

    /// The loop `lower_stepped` emits for one walked list times a dense
    /// vector into a dense output, over the step range `0..=stop` (the bound
    /// loaded, so nothing folds it): `if ss == s { [if start <= ss - 1 { for
    /// i in start..=ss - 1 { out[i] = 0.0 } }] out[ss] op= vals[p] * x[ss] }
    /// [else { for i in start..=ss { out[i] = 0.0 } }]`, the bracketed code
    /// [`Dense::Assign`]'s.  `x` and `out` are `stop + 1` long, `out` all
    /// `9.5` at first, so that what a run sets shows.
    pub(in crate::opt) fn store_kernel(
        crd: &[i64],
        (values, x_values): (&[f64], &[f64]),
        stop: i64,
        how: Dense,
    ) -> Kernel {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let span = (stop + 1).max(0) as usize;
        let crd_buf = bufs.add("crd", Buffer::I64(crd.to_vec().into()));
        let vals = bufs.add("vals", Buffer::F64(values.to_vec().into()));
        let x = bufs.add("x", Buffer::F64(x_values[..span].to_vec().into()));
        let bound = bufs.add("bound", Buffer::I64(vec![stop].into()));
        let out = bufs.add("out", Buffer::F64(vec![9.5; span].into()));
        assert_eq!((crd_buf, vals, x, out), (CRD, VALS, X, DENSE));
        let [p, hi, start, s, ss, i, j] =
            ["p", "phase_stop", "step_start", "stride", "step_stop", "i", "i_2"]
                .map(|n| names.fresh(n));
        let v = Expr::Var;
        let zero = |var, hi| Stmt::For {
            var,
            lo: v(start),
            hi,
            body: vec![Stmt::Store {
                buf: out,
                index: v(var),
                value: Expr::float(0.0),
                reduce: None,
            }],
        };
        let product = Expr::mul(Expr::load(vals, v(p)), Expr::load(x, v(ss)));
        let reduce = match how {
            Dense::Assign => None,
            Dense::Add => Some(BinOp::Add),
        };
        let mut spike = vec![Stmt::Store { buf: out, index: v(ss), value: product, reduce }];
        let mut body = vec![
            Stmt::Let { var: s, init: Expr::load(crd_buf, v(p)) },
            Stmt::Let { var: ss, init: Expr::min(v(s), v(hi)) },
        ];
        if how == Dense::Assign {
            let before = Expr::sub(v(ss), Expr::int(1));
            let run = Stmt::if_then(Expr::le(v(start), before.clone()), vec![zero(i, before)]);
            spike.insert(0, run);
            body.push(Stmt::If {
                cond: Expr::eq(v(ss), v(s)),
                then_branch: spike,
                else_branch: vec![zero(j, v(ss))],
            });
        } else {
            body.push(Stmt::if_then(Expr::eq(v(ss), v(s)), spike));
        }
        body.extend([
            Stmt::if_then(
                Expr::eq(v(s), v(ss)),
                vec![Stmt::Assign { var: p, value: Expr::add(v(p), Expr::int(1)) }],
            ),
            Stmt::Assign { var: start, value: Expr::add(v(ss), Expr::int(1)) },
        ]);
        let stmts = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: hi, init: Expr::load(bound, Expr::int(0)) },
            Stmt::Let { var: start, init: Expr::int(0) },
            Stmt::While { cond: Expr::le(v(start), v(hi)), body },
        ];
        (stmts, names, bufs)
    }

    /// The two bodies of [`store_kernel`].
    pub(in crate::opt) const DENSES: [Dense; 2] = [Dense::Assign, Dense::Add];

    /// Values at a dense vector's coordinates: finite, or (`special`) both
    /// zeros, NaN and the infinities among them.
    pub(in crate::opt) fn dense_values(n: usize, special: bool) -> Vec<f64> {
        let cycle = [0.25, -0.0, f64::NAN, 3.0, 0.0, f64::INFINITY, -1.5, f64::NEG_INFINITY];
        (0..n)
            .map(|k| if special { cycle[k % cycle.len()] } else { 0.25 * (k + 1) as f64 })
            .collect()
    }

    fn stores(p: &Program) -> Vec<usize> {
        let is_op = |pc: &usize| {
            let step = p.step_of(&p.code()[*pc]);
            matches!(step, Some(Step::Perform { out: Out::Store { .. }, .. }))
        };
        (0..p.code().len()).filter(is_op).collect()
    }

    #[test]
    fn the_lone_stepper_gets_the_store_and_is_otherwise_untouched() {
        let wants = [
            "step_loop b0[p] in step_start..=phase_stop (i64) b4[step_start..b0[p]) = t7, \
             b4[b0[p]] = b1[p] * b2[b0[p]] { +7 stmt +3 load | p += 1 ; +1 stmt | gap ; +1 stmt \
             | each ; +1 stmt }",
            "step_loop b0[p] in step_start..=phase_stop (i64) b4[b0[p]] += b1[p] * b2[b0[p]] \
             { +6 stmt +3 load | p += 1 ; +1 stmt }",
        ];
        let values = dense_values(40, false);
        for (how, want) in DENSES.into_iter().zip(wants) {
            let c = compile(&store_kernel(&[3, 17, 30, 1000], (&values, &values), 39, how));
            let placed = stores(&c.skipping);
            assert_eq!((c.stats.merge_skips, placed.len()), (1, 1), "{}", c.skipping.disasm());
            assert_eq!(c.stats.merge_declined, [0; 6]);
            let at = placed[0];
            assert!(matches!(c.skipping.code()[at - 1], Instr::IWhileCmp { .. }));
            let line = c.skipping.disasm().lines().nth(at).unwrap().to_string();
            assert!(line.ends_with(want), "{line}\n{}", c.skipping.disasm());
            only_adds(&c, &placed);
        }
    }
}
