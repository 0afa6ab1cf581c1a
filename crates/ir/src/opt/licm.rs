//! Loop-invariant code motion (LICM) over expressions.
//!
//! The original Finch implementation emits Julia source, and Julia's
//! compiler hoists and de-duplicates the index arithmetic looplet lowering
//! re-emits per subregion (`i * 48 + k`, `2 - i`, the value of a run being
//! broadcast over its region) for free.  Our engines execute the IR as
//! written, so this pass performs the motion explicitly, in one statement
//! scan plus one traversal of the program:
//!
//! **What moves.**  Every *maximal* subexpression that a loop leaves
//! unchanged — it mentions no variable the loop assigns (the loop variable,
//! any `let` / assignment anywhere in the body, nested loop variables), reads
//! no buffer the loop stores, appends or closes a fiber into (through
//! `len(buf)` too), and every variable it reads is defined on entry to the
//! loop — is evaluated once into a fresh temporary in the pre-header of the
//! **outermost** such loop (Click's "schedule early": the shallowest loop
//! depth at which all inputs are available), and structurally equal
//! candidates of one loop share one temporary.  So in a nest over `i`, `k`,
//! `j` the address `(j - (2 - i)) * 48 + k` is left as `inv_3 + k` with
//! `let inv = 2 - i` in the `i` body and `let inv_3 = (j - inv) * 48` in the
//! `j` body.  Literals, variables and `len(buf)` alone are never given a
//! temporary: reading one costs what reading the temporary would.
//!
//! **Total expressions move from anywhere.**  An expression built only from
//! *total* nodes cannot fault, so speculating it is safe and it moves from any
//! position — `if` branches, nested loops, `select` arms, `coalesce` tails —
//! through any number of loops.  Total are: literals, variables, `len(buf)`,
//! every unary operator (`-`, `abs`, `!`, `sqrt`, `round_u8`, `sign`; integer
//! `-` / `abs` wrap), the binary operators `+ - * min max`, the comparisons,
//! `&&` / `||`, and `select` / `coalesce` over total parts.  Never total:
//! `/` (an integer division by zero faults), `search`, and any load.
//!
//! **Loads move under the guard rule.**  A load can fault (out of bounds),
//! so an expression with loads among its leaves (`0.6 * B_val[B_p1]` moves
//! as one piece) only moves when the loop body would have evaluated it
//! anyway: every load sits in an unconditionally evaluated position of its
//! statement (not a `select` arm, a `coalesce` tail or the right operand of
//! `&&` / `||`: the generated code guards such loads with a bounds check),
//! the statement is reached by every iteration of the loop (a top-level
//! statement of the body, or inside a nested loop whose literal bounds prove
//! a trip), and the pre-header *and the loop* are placed under the loop's own
//! entry test — `if lo <= hi { let hoisted = ..; for .. }`,
//! `if cond { let hoisted = ..; while cond { .. } }` — unless a trip is
//! provable (literal bounds, or the loop is the first statement under the
//! generated `if lo <= hi`), because a loop that runs zero times never
//! evaluated the load.  A loop whose entry test cannot be repeated for free
//! (`for` bounds that load, a `while` condition that searches) keeps its
//! loads.
//!
//! A temporary is read, from then on, like any variable assigned in front of
//! its loop, and what is left of an expression whose loads moved is total: the
//! pass finds in one run everything a second run over its output would, so
//! running it again changes nothing.
//!
//! Every temporary is a counted statement while the subexpression it
//! replaces never was one, so `ExecStats::stmts` may grow although less is
//! evaluated; `stores` are untouched and `loop_iters` / `searches` never
//! grow ([`super::StatsContract::Hoisting`]).

use crate::buffer::BufId;
use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use crate::value::Value;
use crate::var::{Names, Var};

use super::OptStats;

/// Move loop-invariant expressions out of every loop in the program.
pub fn hoist_invariants(stmts: &[Stmt], names: &mut Names) -> Vec<Stmt> {
    hoist_with_stats(stmts, names, &mut OptStats::default())
}

/// [`hoist_invariants`], counting the temporaries created in
/// `stats.loads_hoisted` (those that read a buffer) and
/// `stats.exprs_hoisted` (pure arithmetic).
pub(super) fn hoist_with_stats(
    stmts: &[Stmt],
    names: &mut Names,
    stats: &mut OptStats,
) -> Vec<Stmt> {
    let sets = LoopSets::scan(stmts, names.len());
    let mut hoister = Hoister {
        defined: vec![false; names.len()],
        names,
        stats,
        sets,
        next_loop: 0,
        frames: Vec::new(),
        def_log: Vec::new(),
        temps: Vec::new(),
        reached_from: 1,
        loads_limit: 0,
    };
    hoister.seq(stmts, None)
}

/// What every loop of the program assigns and writes, from one
/// statement-level scan: one row of bits per loop, in pre-order, keyed by
/// the dense [`Var`] / [`BufId`] index.  A nested loop's bits are also its
/// ancestors'.
struct LoopSets {
    /// Words of a row that hold variables; the rest hold buffers.
    var_words: usize,
    /// Words per row.
    words: usize,
    bits: Vec<u64>,
}

impl LoopSets {
    fn scan(stmts: &[Stmt], vars: usize) -> LoopSets {
        // Rows are sized by the highest buffer any statement writes: a
        // buffer beyond it is written nowhere.
        let mut buf_words = 0;
        for s in stmts {
            s.visit(&mut |node| {
                if let Stmt::Store { buf, .. }
                | Stmt::Append { buf, .. }
                | Stmt::FiberEnd { pos: buf, .. } = node
                {
                    buf_words = buf_words.max(buf.index() / 64 + 1);
                }
            });
        }
        let var_words = vars.div_ceil(64);
        let mut sets =
            LoopSets { var_words, words: (var_words + buf_words).max(1), bits: Vec::new() };
        sets.seq(stmts, None);
        sets
    }

    fn seq(&mut self, stmts: &[Stmt], row: Option<usize>) {
        for s in stmts {
            match s {
                Stmt::Let { var, .. } | Stmt::Assign { var, .. } => self.assign(row, *var),
                Stmt::Store { buf, .. }
                | Stmt::Append { buf, .. }
                | Stmt::FiberEnd { pos: buf, .. } => {
                    if let Some(row) = row {
                        let bit = self.var_words * 64 + buf.index();
                        self.bits[row * self.words + bit / 64] |= 1 << (bit % 64);
                    }
                }
                Stmt::If { then_branch, else_branch, .. } => {
                    self.seq(then_branch, row);
                    self.seq(else_branch, row);
                }
                Stmt::Block(body) => self.seq(body, row),
                Stmt::While { body, .. } => self.enter(None, body, row),
                Stmt::For { var, body, .. } => self.enter(Some(*var), body, row),
                Stmt::Comment(_) => {}
            }
        }
    }

    fn enter(&mut self, var: Option<Var>, body: &[Stmt], parent: Option<usize>) {
        let row = self.bits.len() / self.words;
        self.bits.resize(self.bits.len() + self.words, 0);
        if let Some(var) = var {
            self.assign(Some(row), var);
        }
        self.seq(body, Some(row));
        if let Some(parent) = parent {
            for w in 0..self.words {
                self.bits[parent * self.words + w] |= self.bits[row * self.words + w];
            }
        }
    }

    fn assign(&mut self, row: Option<usize>, var: Var) {
        // A variable outside the name table is never treated as defined, so
        // nothing that mentions it moves: its bit is not needed.
        if let (Some(row), true) = (row, var.index() < self.var_words * 64) {
            self.bits[row * self.words + var.index() / 64] |= 1 << (var.index() % 64);
        }
    }

    fn assigns(&self, row: usize, var: Var) -> bool {
        self.bits[row * self.words + var.index() / 64] & (1 << (var.index() % 64)) != 0
    }

    fn writes(&self, row: usize, buf: BufId) -> bool {
        let bit = self.var_words * 64 + buf.index();
        bit / 64 < self.words && self.bits[row * self.words + bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// Whether evaluating an expression can fault, ordered so that a node is as
/// restricted as its most restricted operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// Built from total nodes only: moves from any position.
    Total,
    /// Has loads among its leaves, each in an unconditionally evaluated
    /// position of the expression: moves under the guard rule.
    Loads,
    /// Divides, searches, or loads in a conditionally evaluated position:
    /// stays where it is (its operands may still move).
    Pinned,
}

/// An operand a node evaluates only conditionally pins the node unless it is
/// total.
fn conditional(kind: Kind) -> Kind {
    if kind == Kind::Total {
        Kind::Total
    } else {
        Kind::Pinned
    }
}

/// What the traversal knows about one subexpression.
#[derive(Debug, Clone, Copy)]
struct Info {
    /// The number of enclosing loops, counted from the outermost, that do not
    /// all leave the value unchanged: 0 when no enclosing loop changes it.
    level: usize,
    kind: Kind,
    /// Whether it contains a `search` (a counted operation: a loop's entry
    /// test may not be repeated if it has one).
    searches: bool,
    /// Structural hash, so that equal candidates are found without comparing
    /// every pair of trees.
    hash: u64,
    /// The depth of the loop whose pre-header evaluates it (1 = the
    /// outermost enclosing loop), or 0 when it stays in place.
    target: usize,
    /// The deepest loop one of whose temporaries under the entry test it
    /// reads, or 0: in that loop's pre-header it is evaluated after them,
    /// under the same test.
    after: usize,
}

impl Info {
    /// Whether the expression gets a temporary of its own, given where the
    /// node it is an operand of is evaluated: it moves, and not with the node.
    fn leaves(&self, parent_target: usize) -> bool {
        self.target != 0 && self.target != parent_target
    }

    /// Take one operand's facts into the node's; `kind` is the node's kind
    /// with this operand accounted for.
    fn absorb(&mut self, operand: &Info, kind: Kind) {
        self.level = self.level.max(operand.level);
        self.kind = self.kind.max(kind);
        self.searches |= operand.searches;
        self.hash = mix(self.hash, operand.hash);
        self.after = self.after.max(operand.after);
    }
}

fn mix(hash: u64, x: u64) -> u64 {
    (hash.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A walked subexpression: its rewrite, when anything below it moved, and
/// its facts.
type Walked = (Option<Expr>, Info);

/// One enclosing loop of the traversal.
struct Frame {
    /// The loop's row in [`LoopSets`].
    row: usize,
    /// Whether the loop's entry test can be evaluated a second time, in front
    /// of the pre-header, at no risk and no counted cost.
    guardable: bool,
    /// Total temporaries: evaluated whether or not the loop is entered.
    pre: Vec<Stmt>,
    /// Temporaries that load, and what reads them: evaluated only if the
    /// loop is entered.
    guarded: Vec<Stmt>,
    /// Every temporary of this loop with the hash of what it holds.
    shared: Vec<(u64, Expr, Var)>,
}

struct Hoister<'a> {
    names: &'a mut Names,
    stats: &'a mut OptStats,
    sets: LoopSets,
    /// The row of the next loop the traversal enters.
    next_loop: usize,
    /// The enclosing loops, outermost first.
    frames: Vec<Frame>,
    /// The variables a definition dominates at the point of the traversal
    /// (the verifier's must-defined set), and those defined since the
    /// innermost open scope started.
    defined: Vec<bool>,
    def_log: Vec<Var>,
    /// The temporaries created so far (the variables past `defined`): the
    /// depth of the loop each belongs to, and whether it is evaluated under
    /// that loop's entry test.  A later candidate reads them like any
    /// variable assigned in front of that loop — what a second run of the
    /// pass would see.
    temps: Vec<(usize, bool)>,
    /// The outermost loop depth such that every iteration of that loop
    /// reaches the statement being rewritten; `usize::MAX` inside a branch.
    reached_from: usize,
    /// The deepest loop whose pre-header may take a load from the position
    /// being rewritten.
    loads_limit: usize,
}

impl Hoister<'_> {
    fn define(&mut self, var: Var) {
        if let Some(slot @ false) = self.defined.get_mut(var.index()) {
            *slot = true;
            self.def_log.push(var);
        }
    }

    /// Forget the definitions made since the log was `mark` long (a branch or
    /// a loop body ends: they do not dominate what follows).
    fn forget(&mut self, mark: usize) -> Vec<Var> {
        let dropped: Vec<Var> = self.def_log.drain(mark..).collect();
        for var in &dropped {
            self.defined[var.index()] = false;
        }
        dropped
    }

    /// The level of a variable, and the loop under whose entry test it is
    /// evaluated if it is such a temporary (0 for any other variable).  A
    /// variable no definition dominates changes "in every loop": nothing
    /// that mentions it moves.
    fn var_level(&self, var: Var) -> (usize, usize) {
        match self.defined.get(var.index()) {
            Some(true) => {
                let assigned = self.frames.iter().rposition(|f| self.sets.assigns(f.row, var));
                (assigned.map_or(0, |d| d + 1), 0)
            }
            Some(false) => (self.frames.len(), 0),
            None => match self.temps.get(var.index() - self.defined.len()) {
                Some(&(depth, guarded)) => (depth - 1, if guarded { depth } else { 0 }),
                None => (self.frames.len(), 0),
            },
        }
    }

    fn buf_level(&self, buf: BufId) -> usize {
        self.frames.iter().rposition(|f| self.sets.writes(f.row, buf)).map_or(0, |d| d + 1)
    }

    /// Where an inner node with these facts is evaluated.  `cond`: it sits in
    /// a conditionally evaluated position of its statement.
    fn target(&self, level: usize, kind: Kind, cond: bool) -> usize {
        match kind {
            Kind::Total if level < self.frames.len() => level + 1,
            Kind::Loads if !cond => {
                let t = (level + 1).max(self.reached_from);
                if t <= self.loads_limit && self.frames[t - 1].guardable {
                    t
                } else {
                    0
                }
            }
            _ => 0,
        }
    }

    fn walk(&mut self, e: &Expr, cond: bool) -> Walked {
        let leaf = |(level, after), hash| {
            (None, Info { level, kind: Kind::Total, searches: false, hash, target: 0, after })
        };
        // An operand shared with `e`, or its rewrite.
        let kept = |new: Option<Expr>, old: &Expr| new.unwrap_or_else(|| old.clone());
        match e {
            Expr::Lit(v) => {
                let hash = match *v {
                    Value::Int(x) => mix(1, x as u64),
                    Value::Float(x) => mix(2, x.to_bits()),
                    Value::Bool(x) => mix(3, x as u64),
                    Value::Missing => 4,
                };
                leaf((0, 0), hash)
            }
            Expr::Var(v) => leaf(self.var_level(*v), mix(5, v.index() as u64)),
            Expr::Load { buf, index } => {
                let node = (mix(7, buf.index() as u64), self.buf_level(*buf));
                let ([index], info) =
                    self.operands([(index, cond)], cond, node, |[i]| i.max(Kind::Loads));
                (index.map(|index| Expr::load(*buf, index)), info)
            }
            Expr::Unary { op, arg } => {
                let node = (mix(8, *op as u64), 0);
                let ([arg], info) = self.operands([(arg, cond)], cond, node, |[a]| a);
                (arg.map(|arg| Expr::unary(*op, arg)), info)
            }
            Expr::Binary { op, lhs, rhs } => {
                let short = matches!(op, BinOp::And | BinOp::Or);
                let ops = [(&**lhs, cond), (&**rhs, cond || short)];
                let ([l, r], info) =
                    self.operands(ops, cond, (mix(9, *op as u64), 0), |[l, r]| match op {
                        BinOp::Div => Kind::Pinned,
                        BinOp::And | BinOp::Or => l.max(conditional(r)),
                        _ => l.max(r),
                    });
                let new = (l.is_some() || r.is_some())
                    .then(|| Expr::binary(*op, kept(l, lhs), kept(r, rhs)));
                (new, info)
            }
            Expr::Select { cond: test, then, otherwise } => {
                let ops = [(&**test, cond), (&**then, true), (&**otherwise, true)];
                let ([c, t, o], info) = self.operands(ops, cond, (10, 0), |[c, t, o]| {
                    c.max(conditional(t)).max(conditional(o))
                });
                let new = (c.is_some() || t.is_some() || o.is_some())
                    .then(|| Expr::select(kept(c, test), kept(t, then), kept(o, otherwise)));
                (new, info)
            }
            Expr::Coalesce(args) => {
                // Only the first argument is evaluated unconditionally.
                let facts = |this: &Self, of: &[Walked]| {
                    let mut info = leaf((0, 0), 11).1;
                    for (n, (_, a)) in of.iter().enumerate() {
                        info.absorb(a, if n == 0 { a.kind } else { conditional(a.kind) });
                    }
                    Info { target: this.target(info.level, info.kind, cond), ..info }
                };
                let walked: Vec<Walked> =
                    args.iter().enumerate().map(|(n, a)| self.walk(a, cond || n > 0)).collect();
                let whole = facts(self, &walked);
                let leaves = walked.iter().any(|(_, a)| a.leaves(whole.target));
                let settled: Vec<Walked> =
                    args.iter().zip(walked).map(|(a, w)| self.settle(a, w, whole.target)).collect();
                let info = if leaves { facts(self, &settled) } else { whole };
                let new = settled.iter().any(|(new, _)| new.is_some()).then(|| {
                    Expr::coalesce(
                        args.iter().zip(settled).map(|(a, (new, _))| kept(new, a)).collect(),
                    )
                });
                (new, info)
            }
            Expr::Search { buf, lo, hi, key, on_abs } => {
                let ops = [(&**lo, cond), (&**hi, cond), (&**key, cond)];
                let node = (mix(12, buf.index() as u64), 0);
                let ([l, h, k], mut info) = self.operands(ops, cond, node, |_| Kind::Pinned);
                info.searches = true;
                let new = (l.is_some() || h.is_some() || k.is_some())
                    .then(|| Expr::search(*buf, kept(l, lo), kept(h, hi), kept(k, key), *on_abs));
                (new, info)
            }
        }
    }

    /// Walk the operands of one inner node (each with whether it sits in a
    /// conditionally evaluated position), derive the node's facts from
    /// theirs — `node` is its own hash and level, `kind` combines the
    /// operands' kinds — and give every operand that does not move with the
    /// node its temporary.  The facts returned are those of the node as
    /// rewritten: an operand that left is a variable read, so a node whose
    /// loads all left is total.
    fn operands<const N: usize>(
        &mut self,
        ops: [(&Expr, bool); N],
        cond: bool,
        node: (u64, usize),
        kind: impl Fn([Kind; N]) -> Kind,
    ) -> ([Option<Expr>; N], Info) {
        let facts = |this: &Self, of: &[Walked; N]| {
            let kind = kind(std::array::from_fn(|n| of[n].1.kind));
            let mut info =
                Info { level: node.1, kind, searches: false, hash: node.0, target: 0, after: 0 };
            for (_, operand) in of {
                info.absorb(operand, kind);
            }
            Info { target: this.target(info.level, info.kind, cond), ..info }
        };
        let walked = ops.map(|(e, cond)| self.walk(e, cond));
        let whole = facts(self, &walked);
        let leaves = walked.iter().any(|(_, operand)| operand.leaves(whole.target));
        let mut ops = ops.into_iter();
        let settled = walked.map(|w| {
            let (e, _) = ops.next().expect("one operand per walk");
            self.settle(e, w, whole.target)
        });
        let info = if leaves { facts(self, &settled) } else { whole };
        (settled.map(|(new, _)| new), info)
    }

    /// An operand after its parent's decision: it moves with the parent when
    /// both go to the same pre-header, into a temporary of its own when it
    /// goes further out (or the parent stays) — it is then a read of that
    /// temporary —, and stays otherwise.
    fn settle(&mut self, e: &Expr, (new, info): Walked, parent_target: usize) -> Walked {
        if !info.leaves(parent_target) {
            return (new, info);
        }
        let e = new.unwrap_or_else(|| e.clone());
        let frame = &mut self.frames[info.target - 1];
        let shared = frame.shared.iter().find(|(h, held, _)| *h == info.hash && *held == e);
        let var = match shared {
            Some((_, _, var)) => *var,
            None => {
                let loads = info.kind == Kind::Loads;
                let (prefix, count) = if loads {
                    ("hoisted", &mut self.stats.loads_hoisted)
                } else {
                    ("inv", &mut self.stats.exprs_hoisted)
                };
                let var = self.names.fresh(prefix);
                *count += 1;
                // What reads a loading temporary of this loop follows it.
                let guarded = loads || info.after == info.target;
                let lets = if guarded { &mut frame.guarded } else { &mut frame.pre };
                lets.push(Stmt::Let { var, init: e.clone() });
                frame.shared.push((info.hash, e, var));
                self.temps.push((info.target, guarded));
                var
            }
        };
        let read = Expr::Var(var);
        let info = self.walk(&read, false).1;
        (Some(read), info)
    }

    /// Rewrite one expression a statement evaluates.
    fn root(&mut self, e: &Expr) -> (Expr, Info) {
        let walked = self.walk(e, false);
        let (new, info) = self.settle(e, walked, 0);
        (new.unwrap_or_else(|| e.clone()), info)
    }

    /// Rewrite a statement sequence.  `entered_if`: the condition of the
    /// `if` whose taken branch starts with this sequence.
    fn seq(&mut self, stmts: &[Stmt], entered_if: Option<&Expr>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for (n, s) in stmts.iter().enumerate() {
            self.stmt(s, if n == 0 { entered_if } else { None }, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &Stmt, entered_if: Option<&Expr>, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Comment(_) | Stmt::FiberEnd { .. } => out.push(s.clone()),
            Stmt::Let { var, init } => {
                let init = self.root(init).0;
                self.define(*var);
                out.push(Stmt::Let { var: *var, init });
            }
            Stmt::Assign { var, value } => {
                let value = self.root(value).0;
                self.define(*var);
                out.push(Stmt::Assign { var: *var, value });
            }
            Stmt::Store { buf, index, value, reduce } => {
                let (index, value) = (self.root(index).0, self.root(value).0);
                out.push(Stmt::Store { buf: *buf, index, value, reduce: *reduce });
            }
            Stmt::Append { buf, value } => {
                let value = self.root(value).0;
                out.push(Stmt::Append { buf: *buf, value });
            }
            Stmt::Block(body) => out.push(Stmt::Block(self.seq(body, entered_if))),
            Stmt::If { cond, then_branch, else_branch } => {
                let new_cond = self.root(cond).0;
                let reached_from = std::mem::replace(&mut self.reached_from, usize::MAX);
                let mark = self.def_log.len();
                let then_branch = self.seq(then_branch, Some(cond));
                let then_defs = self.forget(mark);
                let else_branch = self.seq(else_branch, None);
                let else_defs = self.forget(mark);
                self.reached_from = reached_from;
                // What both branches define dominates what follows.
                for var in then_defs {
                    if else_defs.contains(&var) {
                        self.define(var);
                    }
                }
                out.push(Stmt::If { cond: new_cond, then_branch, else_branch });
            }
            Stmt::While { cond, body } => {
                let depth = self.enter();
                // The condition is evaluated by every iteration, and once
                // whenever the statement is reached: what it loads may move
                // out of enclosing loops (`loads_limit` is still theirs), but
                // not in front of this one — the entry test below would
                // have to read it first.
                let (cond, info) = self.root(cond);
                self.frames[depth - 1].guardable = !info.searches;
                let body = self.body(depth, depth, None, body);
                let test = cond.clone();
                self.leave(Stmt::While { cond, body }, Some(test), out);
            }
            Stmt::For { var, lo, hi, body } => {
                let ((new_lo, lo_info), (new_hi, hi_info)) = (self.root(lo), self.root(hi));
                let trips = match (lo, hi) {
                    (Expr::Lit(Value::Int(lo)), Expr::Lit(Value::Int(hi))) => lo <= hi,
                    _ => matches!(entered_if, Some(Expr::Binary { op: BinOp::Le, lhs, rhs })
                        if **lhs == *lo && **rhs == *hi),
                };
                let depth = self.enter();
                // The bounds as rewritten: what they loaded may have moved.
                self.frames[depth - 1].guardable =
                    lo_info.kind == Kind::Total && hi_info.kind == Kind::Total;
                let reached_from = if trips { self.reached_from.min(depth) } else { depth };
                let body = self.body(depth, reached_from, Some(*var), body);
                let test = (!trips).then(|| Expr::le(new_lo.clone(), new_hi.clone()));
                self.leave(Stmt::For { var: *var, lo: new_lo, hi: new_hi, body }, test, out);
            }
        }
    }

    /// Rewrite the body of the loop at `depth`, whose statements every
    /// iteration of the loops from `reached_from` inwards reaches, with the
    /// loop variable defined.
    fn body(
        &mut self,
        depth: usize,
        reached_from: usize,
        var: Option<Var>,
        body: &[Stmt],
    ) -> Vec<Stmt> {
        let enclosing = (self.reached_from, self.loads_limit);
        (self.reached_from, self.loads_limit) = (reached_from, depth);
        let mark = self.def_log.len();
        if let Some(var) = var {
            self.define(var);
        }
        let body = self.seq(body, None);
        self.forget(mark);
        (self.reached_from, self.loads_limit) = enclosing;
        body
    }

    /// Open the frame of the next loop in pre-order; returns its depth.
    fn enter(&mut self) -> usize {
        self.frames.push(Frame {
            row: self.next_loop,
            guardable: false,
            pre: Vec::new(),
            guarded: Vec::new(),
            shared: Vec::new(),
        });
        self.next_loop += 1;
        self.frames.len()
    }

    /// Close the innermost frame: emit its pre-header and the rewritten loop,
    /// under `test` when temporaries that load need the loop to be entered.
    fn leave(&mut self, rewritten: Stmt, test: Option<Expr>, out: &mut Vec<Stmt>) {
        let Frame { pre, mut guarded, .. } = self.frames.pop().expect("a frame was entered");
        out.extend(pre);
        match test {
            Some(cond) if !guarded.is_empty() => {
                // The test is new code of the enclosing loops: what they
                // leave unchanged in it moves like anything else.
                let cond = self.root(&cond).0;
                guarded.push(rewritten);
                out.push(Stmt::if_then(cond, guarded));
            }
            _ => {
                out.extend(guarded);
                out.push(rewritten);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::bytecode::Program;
    use crate::config::ExecConfig;
    use crate::error::RuntimeError;
    use crate::interp::{ExecStats, Interpreter};
    use crate::opt::irgen::IrGen;
    use crate::opt::{
        optimize_and_lower, verify_ir, LicmPass, OptLevel, PassCtx, PassManager, ReprRef,
        ValidationLevel,
    };
    use crate::pretty::Printer;
    use crate::vm::Vm;

    fn printed(prog: &[Stmt], names: &Names, bufs: &BufferSet) -> String {
        Printer::new(names, bufs).program(prog)
    }

    fn store(buf: BufId, index: Expr, value: Expr) -> Stmt {
        Stmt::Store { buf, index, value, reduce: None }
    }

    fn for_loop(var: Var, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var, lo, hi, body }
    }

    /// Run on the tree-walker: outcome, buffers, counters.
    fn interpret(
        prog: &[Stmt],
        names: &Names,
        bufs: &BufferSet,
        budget: u64,
    ) -> (Result<(), RuntimeError>, BufferSet, ExecStats) {
        let mut bufs = bufs.clone();
        let mut interp = Interpreter::new(names).with_step_budget(budget);
        let outcome = interp.run(prog, &mut bufs);
        (outcome, bufs, interp.stats())
    }

    /// Build `for i { out[i] = vals[p] * x[i] }` where `vals[p]` is
    /// invariant, and check that hoisting reduces the number of loads
    /// without changing the result.
    #[test]
    fn invariant_load_is_hoisted_and_result_unchanged() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let vals = bufs.add("vals", Buffer::F64(vec![2.0, 3.0].into()));
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0; 4].into()));
        let p = names.fresh("p");
        let i = names.fresh("i");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(1) },
            for_loop(
                i,
                Expr::int(0),
                Expr::int(3),
                vec![store(
                    out,
                    Expr::Var(i),
                    Expr::mul(Expr::load(vals, Expr::Var(p)), Expr::load(x, Expr::Var(i))),
                )],
            ),
        ];
        let (_, plain_bufs, plain) = interpret(&prog, &names, &bufs, 1000);
        let optimised = hoist_invariants(&prog, &mut names);
        let (outcome, opt_bufs, opt) = interpret(&optimised, &names, &bufs, 1000);
        assert_eq!(outcome, Ok(()));
        assert_eq!(plain_bufs.get(out), opt_bufs.get(out));
        assert!(opt.loads < plain.loads);
        // Literal bounds prove a trip: the `let` needs no entry test.
        assert_eq!(
            printed(&optimised, &names, &bufs),
            "let mut p = 1;\nlet mut hoisted = vals[p];\nfor i in 0..=3 {\n    \
             out[i] = (hoisted * x[i]);\n}\n"
        );
    }

    #[test]
    fn an_index_expression_climbs_exactly_as_far_as_it_is_invariant() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64((0..16).map(f64::from).collect()));
        let out = bufs.add("out", Buffer::F64(vec![0.0; 4].into()));
        let (n, i, k, j) = (names.fresh("n"), names.fresh("i"), names.fresh("k"), names.fresh("j"));
        let v = Expr::Var;
        // out[i*2 + k] += x[(j + (1 - i))*2 + k] * (n - 14)
        let prog = vec![
            Stmt::Let { var: n, init: Expr::int(16) },
            for_loop(
                i,
                Expr::int(0),
                Expr::int(1),
                vec![for_loop(
                    k,
                    Expr::int(0),
                    Expr::int(1),
                    vec![for_loop(
                        j,
                        Expr::int(0),
                        Expr::int(1),
                        vec![Stmt::Store {
                            buf: out,
                            index: Expr::add(Expr::mul(v(i), Expr::int(2)), v(k)),
                            value: Expr::mul(
                                Expr::load(
                                    x,
                                    Expr::add(
                                        Expr::mul(
                                            Expr::add(v(j), Expr::sub(Expr::int(1), v(i))),
                                            Expr::int(2),
                                        ),
                                        v(k),
                                    ),
                                ),
                                Expr::sub(v(n), Expr::int(14)),
                            ),
                            reduce: Some(BinOp::Add),
                        }],
                    )],
                )],
            ),
        ];
        let (_, want, _) = interpret(&prog, &names, &bufs, 1000);
        let optimised = hoist_invariants(&prog, &mut names);
        // `n - 14` leaves all three loops, `i * 2` and `1 - i` two, the
        // store's whole index one; what depends on `j` stays.
        let expected = "\
let mut n = 16;
let mut inv_4 = (n - 14);
for i in 0..=1 {
    let mut inv = (i * 2);
    let mut inv_3 = (1 - i);
    for k in 0..=1 {
        let mut inv_2 = (inv + k);
        for j in 0..=1 {
            out[inv_2] += (x[(((j + inv_3) * 2) + k)] * inv_4);
        }
    }
}
";
        assert_eq!(printed(&optimised, &names, &bufs), expected);
        let (outcome, got, _) = interpret(&optimised, &names, &bufs, 1000);
        assert_eq!(outcome, Ok(()));
        assert_eq!(got.get(out), want.get(out));
    }

    #[test]
    fn what_sits_in_a_branch_or_a_coalesce_tail_moves_iff_it_is_total() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let vals = bufs.add("vals", Buffer::F64(vec![2.0, 3.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0; 4].into()));
        let (p, q, i) = (names.fresh("p"), names.fresh("q"), names.fresh("i"));
        let v = Expr::Var;
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(2) },
            // Out of bounds: every load of `vals[q]` below is guarded.
            Stmt::Let { var: q, init: Expr::add(v(p), Expr::int(5)) },
            for_loop(
                i,
                Expr::int(0),
                Expr::int(3),
                vec![
                    Stmt::if_then(
                        Expr::lt(v(i), Expr::int(0)),
                        vec![store(
                            out,
                            v(i),
                            Expr::add(Expr::mul(v(p), Expr::int(2)), Expr::load(vals, v(q))),
                        )],
                    ),
                    store(
                        out,
                        v(i),
                        Expr::coalesce(vec![
                            Expr::select(
                                Expr::lt(v(q), v(p)),
                                Expr::load(vals, v(q)),
                                Expr::missing(),
                            ),
                            Expr::unary(crate::expr::UnOp::Sqrt, Expr::mul(v(p), Expr::int(8))),
                        ]),
                    ),
                ],
            ),
        ];
        let optimised = hoist_invariants(&prog, &mut names);
        let expected = "\
let mut p = 2;
let mut q = (p + 5);
let mut inv = (p * 2);
let mut inv_2 = (q < p);
let mut inv_3 = sqrt((p * 8));
for i in 0..=3 {
    if (i < 0) {
        out[i] = (inv + vals[q]);
    }
    out[i] = coalesce(if inv_2 { vals[q] } else { missing }, inv_3);
}
";
        assert_eq!(printed(&optimised, &names, &bufs), expected);
        let (outcome, got, _) = interpret(&optimised, &names, &bufs, 1000);
        assert_eq!(outcome, Ok(()), "no guarded load was evaluated");
        assert_eq!(got.get(out).load(3), Value::Float(4.0));
    }

    #[test]
    fn faulting_counted_and_loop_dependent_expressions_stay_put() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![0, 2, 5].into()));
        let out = bufs.add("out", Buffer::I64(vec![0; 8].into()));
        let (p, q, i) = (names.fresh("p"), names.fresh("q"), names.fresh("i"));
        let v = Expr::Var;
        let over = |body: Vec<Stmt>| {
            vec![
                Stmt::Let { var: p, init: Expr::int(6) },
                Stmt::Let { var: q, init: Expr::int(0) },
                for_loop(i, Expr::int(0), Expr::int(2), body),
            ]
        };
        let cases: Vec<(&str, Vec<Stmt>)> = vec![
            (
                "an integer division can fault",
                vec![store(out, v(i), Expr::binary(BinOp::Div, v(p), v(q)))],
            ),
            (
                "a search is a counted operation",
                vec![store(out, v(i), Expr::search(idx, v(q), Expr::int(2), v(p), false))],
            ),
            (
                "a load behind `&&` is guarded",
                vec![Stmt::if_then(
                    Expr::binary(
                        BinOp::And,
                        Expr::lt(v(i), Expr::int(3)),
                        Expr::eq(Expr::load(idx, v(p)), v(i)),
                    ),
                    vec![],
                )],
            ),
            (
                "a load in a `select` arm is guarded",
                vec![store(
                    out,
                    v(i),
                    Expr::select(Expr::lt(v(i), Expr::int(3)), Expr::load(idx, v(p)), v(i)),
                )],
            ),
            (
                "the loop assigns `q` after the use",
                vec![
                    store(out, v(i), Expr::mul(v(q), Expr::int(3))),
                    Stmt::Assign { var: q, value: Expr::add(v(q), Expr::int(1)) },
                ],
            ),
            (
                "a nested loop assigns `q`",
                vec![
                    store(out, v(i), Expr::mul(v(q), Expr::int(3))),
                    Stmt::While {
                        cond: Expr::lt(v(q), v(i)),
                        body: vec![Stmt::Assign { var: q, value: Expr::add(v(q), Expr::int(1)) }],
                    },
                ],
            ),
            (
                "the loop stores what it loads",
                vec![store(out, v(i), Expr::add(Expr::load(out, v(q)), Expr::int(1)))],
            ),
        ];
        for (why, body) in cases {
            let prog = over(body);
            let optimised = hoist_invariants(&prog, &mut names.clone());
            assert_eq!(optimised, prog, "{why}:\n{}", printed(&optimised, &names, &bufs));
        }
        // A variable no definition dominates pins what mentions it: the
        // branch that would read it may never run.
        let unbound = names.fresh("unbound");
        let prog = over(vec![Stmt::if_then(
            Expr::lt(v(i), Expr::int(0)),
            vec![store(out, v(i), Expr::mul(v(unbound), Expr::int(2)))],
        )]);
        assert_eq!(hoist_invariants(&prog, &mut names.clone()), prog);
    }

    #[test]
    fn equal_candidates_share_one_temporary() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0; 8].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0; 8].into()));
        let (p, i, j) = (names.fresh("p"), names.fresh("i"), names.fresh("j"));
        let v = Expr::Var;
        let row = || Expr::mul(v(i), Expr::int(4));
        let scale = || Expr::mul(v(p), Expr::float(0.5));
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(8) },
            for_loop(
                i,
                Expr::int(0),
                Expr::int(1),
                vec![for_loop(
                    j,
                    Expr::int(0),
                    Expr::int(3),
                    vec![
                        store(
                            out,
                            Expr::add(row(), v(j)),
                            Expr::mul(Expr::load(x, Expr::add(row(), v(j))), scale()),
                        ),
                        Stmt::if_then(
                            Expr::lt(v(j), Expr::int(1)),
                            vec![store(out, Expr::add(row(), v(j)), scale())],
                        ),
                    ],
                )],
            ),
        ];
        let mut stats = OptStats::default();
        let optimised = hoist_with_stats(&prog, &mut names, &mut stats);
        let expected = "\
let mut p = 8;
let mut inv_2 = (p * 0.5);
for i in 0..=1 {
    let mut inv = (i * 4);
    for j in 0..=3 {
        out[(inv + j)] = (x[(inv + j)] * inv_2);
        if (j < 1) {
            out[(inv + j)] = inv_2;
        }
    }
}
";
        assert_eq!(printed(&optimised, &names, &bufs), expected);
        assert_eq!((stats.exprs_hoisted, stats.loads_hoisted), (2, 0));
    }

    /// Builds the loop of a [`zero_trip`] program from its loop variable, its
    /// upper bound, a counter and the statement that reads out of bounds.
    type Looped = fn(Var, Var, Var, Stmt) -> Stmt;

    /// The reproducer of the zero-trip fault, around `looped`: `vals[p]` is
    /// out of bounds, and the loop that reads it never runs.
    fn zero_trip(looped: Looped) -> (Vec<Stmt>, Names, BufferSet) {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let vals = bufs.add("vals", Buffer::F64(vec![1.0, 2.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![7.0].into()));
        let len = bufs.add("len", Buffer::I64(vec![2].into()));
        let (p, n, i) = (names.fresh("p"), names.fresh("n"), names.fresh("i"));
        let k = names.fresh("k");
        let read = store(out, Expr::int(0), Expr::load(vals, Expr::Var(p)));
        let prog = vec![
            // Lengths come out of a level's arrays, where no pass can see them.
            Stmt::Let { var: p, init: Expr::load(len, Expr::int(0)) },
            Stmt::Let { var: n, init: Expr::sub(Expr::Var(p), Expr::int(3)) },
            Stmt::Let { var: k, init: Expr::int(0) },
            looped(i, n, k, read),
        ];
        (prog, names, bufs)
    }

    #[test]
    fn a_load_is_not_hoisted_in_front_of_a_loop_that_runs_zero_times() {
        let shapes: [(&str, Looped); 3] = [
            ("for", |i, n, _, read| for_loop(i, Expr::int(0), Expr::Var(n), vec![read])),
            ("while", |_, n, k, read| Stmt::While {
                cond: Expr::lt(Expr::Var(k), Expr::Var(n)),
                body: vec![
                    read,
                    Stmt::Assign { var: k, value: Expr::add(Expr::Var(k), Expr::int(1)) },
                ],
            }),
            // The same loop one level down, inside a loop that does run.
            ("nested", |i, n, k, read| {
                for_loop(
                    k,
                    Expr::int(0),
                    Expr::int(1),
                    vec![for_loop(i, Expr::int(0), Expr::Var(n), vec![read])],
                )
            }),
        ];
        for (shape, looped) in shapes {
            let (prog, names, bufs) = zero_trip(looped);
            let (outcome, want, _) = interpret(&prog, &names, &bufs, 1000);
            assert_eq!(outcome, Ok(()), "{shape}: the program as written runs");
            // The load does move — under the loop's own entry test.
            let hoisted = hoist_invariants(&prog, &mut names.clone());
            assert_ne!(hoisted, prog, "{shape}");
            for level in OptLevel::all() {
                for validation in [ValidationLevel::Off, ValidationLevel::Full] {
                    let mut names = names.clone();
                    let config = ExecConfig { opt: level, validation, ..ExecConfig::default() };
                    let lowered = optimize_and_lower(&prog, &mut names, &bufs, &config)
                        .unwrap_or_else(|e| panic!("{shape} at {level}/{validation}: {e}"));
                    let code = lowered.code.as_deref().unwrap_or(&prog);
                    let (outcome, got, stats) = interpret(code, &names, &bufs, 1000);
                    assert_eq!(outcome, Ok(()), "{shape} at {level}/{validation}, tree-walk");
                    let mut vm_bufs = bufs.clone();
                    let mut vm = Vm::new(&lowered.program);
                    assert_eq!(
                        vm.run(&lowered.program, &mut vm_bufs),
                        Ok(()),
                        "{shape} at {level}, vm"
                    );
                    assert_eq!(vm.stats(), stats, "{shape} at {level}");
                    for (id, name, buf) in want.iter() {
                        assert_eq!(buf, got.get(id), "{shape} at {level}: {name}, tree-walk");
                        assert_eq!(buf, vm_bufs.get(id), "{shape} at {level}: {name}, vm");
                    }
                }
            }
        }
    }

    #[test]
    fn a_loop_entered_under_its_own_test_needs_no_second_one() {
        // `if lo <= hi { for j in lo..=hi { .. } }` — the shape lowering
        // emits around a phase — already proves the trip.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let vals = bufs.add("vals", Buffer::F64(vec![1.0, 2.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0; 4].into()));
        let (lo, hi, j) = (names.fresh("lo"), names.fresh("hi"), names.fresh("j"));
        let v = Expr::Var;
        let prog = vec![
            Stmt::Let { var: lo, init: Expr::int(2) },
            Stmt::Let { var: hi, init: Expr::int(4) },
            Stmt::if_then(
                Expr::le(v(lo), v(hi)),
                vec![for_loop(
                    j,
                    v(lo),
                    v(hi),
                    vec![store(out, Expr::int(0), Expr::load(vals, Expr::int(1)))],
                )],
            ),
        ];
        let optimised = hoist_invariants(&prog, &mut names);
        let expected = "\
let mut lo = 2;
let mut hi = 4;
if (lo <= hi) {
    let mut hoisted = vals[1];
    for j in lo..=hi {
        out[0] = hoisted;
    }
}
";
        assert_eq!(printed(&optimised, &names, &bufs), expected);
    }

    #[test]
    fn a_second_run_over_its_own_output_changes_nothing() {
        let mut programs: Vec<(Vec<Stmt>, Names)> = Vec::new();
        for looped in [
            (|i, n, _, read| for_loop(i, Expr::int(0), Expr::Var(n), vec![read])) as Looped,
            |_, n, k, read| Stmt::While {
                cond: Expr::lt(Expr::Var(k), Expr::Var(n)),
                body: vec![
                    read,
                    Stmt::Assign { var: k, value: Expr::add(Expr::Var(k), Expr::int(1)) },
                ],
            },
            |i, _, k, read| {
                for_loop(
                    k,
                    Expr::int(0),
                    Expr::int(1),
                    vec![for_loop(i, Expr::int(0), Expr::int(2), vec![read])],
                )
            },
        ] {
            let (prog, names, _) = zero_trip(looped);
            programs.push((prog, names));
        }
        for seed in 0..100 {
            let (mut gen, names, _) = IrGen::new(seed);
            programs.push((gen.program(), names));
        }
        for (prog, mut names) in programs {
            let once = hoist_invariants(&prog, &mut names);
            let vars = names.len();
            let twice = hoist_invariants(&once, &mut names);
            assert_eq!(twice, once);
            assert_eq!(names.len(), vars, "the second run created no temporary");
        }
    }

    /// The pass alone over seeded structured IR (nested `for` / `while` /
    /// `if`, zero-trip loops, `missing` paths, reads no definition
    /// dominates): under the pass manager's full validation where a program
    /// verifies to begin with, and on every program the run parity of its
    /// output — against the program as written, and between the engines.
    #[test]
    fn random_structured_ir_validates_and_runs_like_the_program_as_written() {
        const BUDGET: u64 = 300;
        let (mut temporaries, mut validated, mut completed) = (0u64, 0, 0);
        for seed in 0..400u64 {
            let (mut gen, names, bufs) = IrGen::new(seed);
            let prog = gen.program();
            let mut hoisted_names = names.clone();
            let mut stats = OptStats::default();
            let hoisted = hoist_with_stats(&prog, &mut hoisted_names, &mut stats);
            temporaries += stats.exprs_hoisted + stats.loads_hoisted;
            let context = || {
                format!(
                    "seed {seed}\n{}\nhoisted:\n{}",
                    printed(&prog, &names, &bufs),
                    printed(&hoisted, &hoisted_names, &bufs)
                )
            };
            let witnesses = crate::opt::pass::synthesize_witnesses(&bufs);

            // Translation validation proper, where the witness runs terminate
            // (a random `while` need not) and the program verifies to begin
            // with (the generator reads variables only some path defines, and
            // writes `pos` buffers as it likes).
            let terminates = witnesses.iter().all(|w| {
                !matches!(
                    interpret(&prog, &names, w, 20_000).0,
                    Err(RuntimeError::StepBudgetExceeded { .. })
                )
            });
            if terminates && verify_ir(&prog, &names, Some(&bufs)).is_ok() {
                let mut names = names.clone();
                let mut stats = OptStats::default();
                let mut ctx = PassCtx { names: &mut names, bufs: Some(&bufs), stats: &mut stats };
                let mut manager = PassManager::new(ValidationLevel::Full);
                if let Err(e) = manager.run_pass(&LicmPass, ReprRef::Ir(&prog), &mut ctx) {
                    panic!("{e}\n{}", context());
                }
                validated += 1;
            }

            for witness in &witnesses {
                // A program that completes as written completes hoisted, with
                // the same buffers and the counters the contract allows.
                // (Each temporary is a statement: the hoisted run gets room
                // for them.)
                let (outcome, want, plain) = interpret(&prog, &names, witness, BUDGET);
                let (hoisted_outcome, got, stats) =
                    interpret(&hoisted, &hoisted_names, witness, 4 * BUDGET);
                if outcome.is_ok() {
                    completed += 1;
                    assert_eq!(hoisted_outcome, Ok(()), "{}", context());
                    for (id, name, buf) in want.iter() {
                        // By rendering: a NaN must compare equal to itself.
                        let (got, want) = (format!("{:?}", got.get(id)), format!("{buf:?}"));
                        assert_eq!(got, want, "{name}: {}", context());
                    }
                    assert_eq!(stats.stores, plain.stores, "{}", context());
                    assert!(stats.loop_iters <= plain.loop_iters, "{}", context());
                    assert!(stats.searches <= plain.searches, "{}", context());
                }

                // Both engines run the hoisted program alike: value or
                // error, buffers, counters.
                let program = Program::compile(&hoisted, &hoisted_names);
                let mut vm_bufs = witness.clone();
                let mut vm = Vm::new(&program).with_step_budget(4 * BUDGET);
                let vm_outcome = format!("{:?}", vm.run(&program, &mut vm_bufs));
                assert_eq!(vm_outcome, format!("{hoisted_outcome:?}"), "{}", context());
                assert_eq!(vm.stats(), stats, "{}", context());
                for (id, name, buf) in got.iter() {
                    let (vm, tree) = (format!("{:?}", vm_bufs.get(id)), format!("{buf:?}"));
                    assert_eq!(vm, tree, "{name}: {}", context());
                }
            }
        }
        // The generator must exercise what the test is there to check.
        assert!(temporaries > 400, "only {temporaries} temporaries over all seeds");
        assert!(validated >= 15, "only {validated} programs went through the pass manager");
        assert!(completed > 50, "only {completed} runs completed as written");
    }
}
