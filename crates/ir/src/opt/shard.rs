//! Shardability analysis: prove an outermost counted loop safe to split
//! across worker threads, and record *how* in a [`ShardPlan`].
//!
//! The analysis runs in two stages that cross-check each other:
//!
//! 1. **IR stage** ([`analyze_ir`]): on the final optimized statement
//!    tree, every top-level counted `for` loop is examined against an
//!    affine model of its buffer accesses.  For each buffer the loop
//!    writes, the analysis must derive a [`ShardRole`] — partitioned by
//!    the loop index, append-only segment output, fiber-boundary stream,
//!    a recognized associative integer reduction, or iteration-private
//!    scratch — or the loop is rejected.  Any cross-iteration carry
//!    (a value flowing from one iteration into the next through a
//!    variable or a buffer) rejects the loop.
//! 2. **Bytecode stage** ([`ShardPass`]): after lowering, peephole
//!    fusion, typing, and vectorization, the candidate loops are located
//!    in the flat bytecode and re-verified *structurally*: the loop must
//!    be a well-formed counted region, its loop registers must not be
//!    written by the body, no jump may enter the region from outside,
//!    a must-defined dataflow over the body proves no register carries a
//!    value between iterations, registers read after the region are
//!    proven recomputed by every iteration, and every buffer the body
//!    writes must be covered by an IR-derived role.  Only loops passing
//!    both stages are recorded in the program's [`ShardPlan`].
//!
//! The pass itself transforms nothing — serial execution ignores the
//! plan entirely — so it is trivially translation-validated under the
//! exact-stats contract.  The *parallel* interpretation of the plan
//! lives in [`crate::par`], and is separately validated against the
//! serial run by the pass manager's sharded witness check.

use std::collections::{HashMap, HashSet};

use crate::buffer::{BufId, Buffer, BufferSet};
use crate::bytecode::{for_each_reg_role, Access, Edge, Instr, Operand, Program, Reg, Role};
use crate::bytecode::{ShardPlan, ShardRegion, ShardRole};
use crate::expr::{BinOp, Expr, UnOp};
use crate::stmt::Stmt;
use crate::value::Value;
use crate::var::{Names, Var};

use super::pass::{Pass, PassCtx, Repr, ReprRef};
use super::OptStats;

// ---------------------------------------------------------------------
// IR stage
// ---------------------------------------------------------------------

/// The IR-derived shardability facts for one candidate loop, keyed by
/// the loop variable's name ([`Names::fresh`] never hands out the same
/// printed name twice, so the bytecode stage can re-find the loop after
/// lowering).
#[derive(Debug, Clone)]
pub(crate) struct LoopSpec {
    /// The loop variable's source name.
    pub(crate) var_name: String,
    /// The role of every buffer the loop body writes.
    pub(crate) roles: Vec<(BufId, ShardRole)>,
}

/// Analyze the final optimized IR and return a [`LoopSpec`] for every
/// top-level counted loop whose buffer accesses prove shardable.
pub(crate) fn analyze_ir(code: &[Stmt], names: &Names, bufs: &BufferSet) -> Vec<LoopSpec> {
    let mut specs: Vec<LoopSpec> = Vec::new();
    collect_candidates(code, names, bufs, &mut specs);
    // One variable driving two loops (`Names::fresh` rules out two
    // variables with one name, but hand-built IR may reuse a variable)
    // would make the bytecode-side match ambiguous: drop every spec whose
    // name is not its own.
    let unique: Vec<bool> = specs
        .iter()
        .map(|s| specs.iter().filter(|t| t.var_name == s.var_name).count() == 1)
        .collect();
    let mut unique = unique.into_iter();
    specs.retain(|_| unique.next().expect("one flag per spec"));
    specs
}

/// Walk top-level statements (through blocks and `if` branches, but not
/// into loop bodies) collecting shardable loops.
fn collect_candidates(stmts: &[Stmt], names: &Names, bufs: &BufferSet, out: &mut Vec<LoopSpec>) {
    for s in stmts {
        match s {
            Stmt::For { var, body, .. } => {
                if let Some(roles) = analyze_loop(*var, body, bufs) {
                    out.push(LoopSpec { var_name: names.name(*var).to_string(), roles });
                }
            }
            Stmt::If { then_branch, else_branch, .. } => {
                collect_candidates(then_branch, names, bufs, out);
                collect_candidates(else_branch, names, bufs, out);
            }
            Stmt::Block(inner) => collect_candidates(inner, names, bufs, out),
            _ => {}
        }
    }
}

/// An affine abstraction of an integer value inside the loop body:
/// `value ∈ k·i + [lo, hi]` where `i` is the outer loop variable.
/// All arithmetic is checked; overflow abandons the abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Aff {
    k: i64,
    lo: i64,
    hi: i64,
}

impl Aff {
    fn konst(c: i64) -> Aff {
        Aff { k: 0, lo: c, hi: c }
    }
    fn outer() -> Aff {
        Aff { k: 1, lo: 0, hi: 0 }
    }
    /// The exact constant this abstraction denotes, if it is one.
    fn as_const(self) -> Option<i64> {
        (self.k == 0 && self.lo == self.hi).then_some(self.lo)
    }
    fn add(self, o: Aff) -> Option<Aff> {
        Some(Aff {
            k: self.k.checked_add(o.k)?,
            lo: self.lo.checked_add(o.lo)?,
            hi: self.hi.checked_add(o.hi)?,
        })
    }
    fn sub(self, o: Aff) -> Option<Aff> {
        Some(Aff {
            k: self.k.checked_sub(o.k)?,
            lo: self.lo.checked_sub(o.hi)?,
            hi: self.hi.checked_sub(o.lo)?,
        })
    }
    fn mul_const(self, c: i64) -> Option<Aff> {
        let (lo, hi) = if c >= 0 {
            (self.lo.checked_mul(c)?, self.hi.checked_mul(c)?)
        } else {
            (self.hi.checked_mul(c)?, self.lo.checked_mul(c)?)
        };
        Some(Aff { k: self.k.checked_mul(c)?, lo, hi })
    }
    /// Interval join of two abstractions with the same slope.
    fn join(self, o: Aff) -> Option<Aff> {
        (self.k == o.k).then_some(Aff { k: self.k, lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) })
    }
}

/// What the analysis knows about a variable's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Affine in the outer loop variable (and therefore an integer).
    Aff(Aff),
    /// An integer of unknown value.
    Int,
    /// Unknown (possibly float, missing, ...).
    Top,
}

type Env = HashMap<Var, AbsVal>;

/// One recorded `Store` to a buffer inside the loop body.
#[derive(Debug, Clone, Copy)]
struct StoreEv {
    /// Affine abstraction of the index, when derivable.
    idx: Option<Aff>,
    /// The reduction operator, `None` for a plain store.
    reduce: Option<BinOp>,
    /// Whether the stored value is provably an integer.
    int_val: bool,
    /// Whether a plain store to the same constant index dominates this
    /// access within the current iteration.
    dominated: bool,
}

/// One recorded `Load` of a buffer inside the loop body.
#[derive(Debug, Clone, Copy)]
struct LoadEv {
    idx: Option<Aff>,
    dominated: bool,
}

/// Accumulated accesses to one buffer over the loop body.
#[derive(Debug, Default)]
struct BufAcc {
    stores: Vec<StoreEv>,
    loads: Vec<LoadEv>,
    appends: u32,
    /// `Some(data)` when this buffer receives `FiberEnd { pos: this, data }`.
    fiber_pos_for: Option<BufId>,
    /// Two `FiberEnd`s with different `data`, or other pos-buffer abuse.
    fiber_conflict: bool,
    buflen: bool,
    searched: bool,
}

struct Walker<'a> {
    outer: Var,
    bufs: &'a BufferSet,
    acc: HashMap<BufId, BufAcc>,
    reject: bool,
}

impl<'a> Walker<'a> {
    fn acc(&mut self, buf: BufId) -> &mut BufAcc {
        self.acc.entry(buf).or_default()
    }

    /// Record every buffer access an expression performs.  Loads carry
    /// their affine index; searches and explicit length reads taint the
    /// buffer for any write role.
    fn scan_expr(&mut self, e: &Expr, env: &Env, defined: &HashSet<(BufId, i64)>) {
        let outer = self.outer;
        let mut events: Vec<(BufId, u8, Option<Aff>)> = Vec::new();
        e.visit(&mut |node| match node {
            Expr::Load { buf, index } => {
                events.push((*buf, 0, eval_aff(index, outer, env)));
            }
            Expr::BufLen(b) => events.push((*b, 1, None)),
            Expr::Search { buf, .. } => events.push((*buf, 2, None)),
            _ => {}
        });
        for (buf, kind, idx) in events {
            match kind {
                0 => {
                    let dominated =
                        idx.and_then(Aff::as_const).is_some_and(|c| defined.contains(&(buf, c)));
                    self.acc(buf).loads.push(LoadEv { idx, dominated });
                }
                1 => self.acc(buf).buflen = true,
                _ => self.acc(buf).searched = true,
            }
        }
    }

    /// Walk a statement sequence, updating the abstract environment and
    /// the per-iteration "privately defined" set.
    fn walk(&mut self, stmts: &[Stmt], env: &mut Env, defined: &mut HashSet<(BufId, i64)>) {
        for s in stmts {
            if self.reject {
                return;
            }
            match s {
                Stmt::Comment(_) => {}
                Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                    if *var == self.outer {
                        // Writing the loop variable is a carried dependence.
                        self.reject = true;
                        return;
                    }
                    self.scan_expr(init, env, defined);
                    let abs = match eval_aff(init, self.outer, env) {
                        Some(a) => AbsVal::Aff(a),
                        None if is_int_expr(init, env, self.bufs) => AbsVal::Int,
                        None => AbsVal::Top,
                    };
                    env.insert(*var, abs);
                }
                Stmt::Store { buf, index, value, reduce } => {
                    self.scan_expr(index, env, defined);
                    self.scan_expr(value, env, defined);
                    let idx = eval_aff(index, self.outer, env);
                    let cidx = idx.and_then(Aff::as_const);
                    let dominated = cidx.is_some_and(|c| defined.contains(&(*buf, c)));
                    let int_val = is_int_expr(value, env, self.bufs);
                    self.acc(*buf).stores.push(StoreEv {
                        idx,
                        reduce: *reduce,
                        int_val,
                        dominated,
                    });
                    if reduce.is_none() {
                        if let Some(c) = cidx {
                            defined.insert((*buf, c));
                        }
                    }
                }
                Stmt::Append { buf, value } => {
                    self.scan_expr(value, env, defined);
                    self.acc(*buf).appends += 1;
                }
                Stmt::FiberEnd { pos, data } => {
                    let slot = self.acc(*pos);
                    match slot.fiber_pos_for {
                        None => slot.fiber_pos_for = Some(*data),
                        Some(d) if d == *data => {}
                        Some(_) => slot.fiber_conflict = true,
                    }
                }
                Stmt::If { cond, then_branch, else_branch } => {
                    self.scan_expr(cond, env, defined);
                    let mut env_t = env.clone();
                    let mut def_t = defined.clone();
                    self.walk(then_branch, &mut env_t, &mut def_t);
                    let mut env_e = env.clone();
                    let mut def_e = defined.clone();
                    self.walk(else_branch, &mut env_e, &mut def_e);
                    *env = meet_env(&env_t, &env_e);
                    *defined = def_t.intersection(&def_e).copied().collect();
                }
                Stmt::While { cond, body } => {
                    // The body may run zero or many times: poison every
                    // variable it assigns, walk it once for its buffer
                    // events, and discard its define effects.
                    poison_assigned(body, env);
                    self.scan_expr(cond, env, defined);
                    let mut env_b = env.clone();
                    let mut def_b = defined.clone();
                    self.walk(body, &mut env_b, &mut def_b);
                    poison_assigned(body, env);
                }
                Stmt::For { var, lo, hi, body } => {
                    if *var == self.outer {
                        self.reject = true;
                        return;
                    }
                    self.scan_expr(lo, env, defined);
                    self.scan_expr(hi, env, defined);
                    let lo_a = eval_aff(lo, self.outer, env);
                    let hi_a = eval_aff(hi, self.outer, env);
                    poison_assigned(body, env);
                    let var_abs = match (lo_a, hi_a) {
                        (Some(a), Some(b)) if a.k == b.k => {
                            AbsVal::Aff(Aff { k: a.k, lo: a.lo, hi: b.hi })
                        }
                        _ => AbsVal::Int,
                    };
                    let mut env_b = env.clone();
                    env_b.insert(*var, var_abs);
                    let mut def_b = defined.clone();
                    self.walk(body, &mut env_b, &mut def_b);
                    // Defines escape the inner loop only when it provably
                    // runs at least once.
                    let guaranteed =
                        match (lo_a.and_then(Aff::as_const), hi_a.and_then(Aff::as_const)) {
                            (Some(l), Some(h)) => l <= h,
                            _ => false,
                        };
                    if guaranteed {
                        *defined = def_b;
                    }
                    poison_assigned(body, env);
                    env.insert(*var, AbsVal::Int);
                }
                Stmt::Block(inner) => self.walk(inner, env, defined),
            }
        }
    }
}

/// Poison (set to [`AbsVal::Top`]) every variable a statement list
/// assigns, including in nested bodies.
fn poison_assigned(stmts: &[Stmt], env: &mut Env) {
    for s in stmts {
        s.visit(&mut |node| match node {
            Stmt::Let { var, .. } | Stmt::Assign { var, .. } | Stmt::For { var, .. } => {
                env.insert(*var, AbsVal::Top);
            }
            _ => {}
        });
    }
}

/// Pointwise meet of two environments after an `if`.
fn meet_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (v, &va) in a {
        let Some(&vb) = b.get(v) else { continue };
        let m = match (va, vb) {
            (x, y) if x == y => x,
            (AbsVal::Aff(x), AbsVal::Aff(y)) => match x.join(y) {
                Some(j) => AbsVal::Aff(j),
                None => AbsVal::Int,
            },
            (AbsVal::Aff(_) | AbsVal::Int, AbsVal::Aff(_) | AbsVal::Int) => AbsVal::Int,
            _ => AbsVal::Top,
        };
        out.insert(*v, m);
    }
    out
}

/// Evaluate an expression to an affine abstraction in the outer loop
/// variable, when possible.
fn eval_aff(e: &Expr, outer: Var, env: &Env) -> Option<Aff> {
    match e {
        Expr::Lit(Value::Int(c)) => Some(Aff::konst(*c)),
        Expr::Var(v) if *v == outer => Some(Aff::outer()),
        Expr::Var(v) => match env.get(v) {
            Some(AbsVal::Aff(a)) => Some(*a),
            _ => None,
        },
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_aff(lhs, outer, env)?;
            let b = eval_aff(rhs, outer, env)?;
            match op {
                BinOp::Add => a.add(b),
                BinOp::Sub => a.sub(b),
                BinOp::Mul => {
                    if let Some(c) = b.as_const() {
                        a.mul_const(c)
                    } else if let Some(c) = a.as_const() {
                        b.mul_const(c)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether an expression provably evaluates to an integer (needed so an
/// integer reduction cannot silently truncate a float contribution).
fn is_int_expr(e: &Expr, env: &Env, bufs: &BufferSet) -> bool {
    match e {
        Expr::Lit(Value::Int(_)) => true,
        Expr::Var(v) => matches!(env.get(v), Some(AbsVal::Aff(_) | AbsVal::Int)),
        Expr::BufLen(_) => true,
        Expr::Load { buf, .. } => matches!(bufs.get(*buf), Buffer::I64(_)),
        Expr::Unary { op: UnOp::Neg | UnOp::Abs, arg } => is_int_expr(arg, env, bufs),
        Expr::Binary {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max,
            lhs,
            rhs,
        } => is_int_expr(lhs, env, bufs) && is_int_expr(rhs, env, bufs),
        _ => false,
    }
}

/// Analyze one candidate loop body; returns the per-buffer roles when
/// every written buffer admits one, or `None` to reject the loop.
fn analyze_loop(outer: Var, body: &[Stmt], bufs: &BufferSet) -> Option<Vec<(BufId, ShardRole)>> {
    let mut w = Walker { outer, bufs, acc: HashMap::new(), reject: false };
    let mut env = Env::new();
    env.insert(outer, AbsVal::Aff(Aff::outer()));
    let mut defined = HashSet::new();
    w.walk(body, &mut env, &mut defined);
    if w.reject {
        return None;
    }
    resolve_roles(&w.acc, &defined, bufs)
}

/// Derive a [`ShardRole`] for every written buffer from its recorded
/// accesses, or reject.
fn resolve_roles(
    acc: &HashMap<BufId, BufAcc>,
    defined_at_end: &HashSet<(BufId, i64)>,
    bufs: &BufferSet,
) -> Option<Vec<(BufId, ShardRole)>> {
    let mut roles: Vec<(BufId, ShardRole)> = Vec::new();
    let mut ids: Vec<BufId> = acc.keys().copied().collect();
    ids.sort_by_key(|b| b.index());
    for buf in ids {
        let a = &acc[&buf];
        let written = !a.stores.is_empty() || a.appends > 0 || a.fiber_pos_for.is_some();
        if !written {
            continue; // read-only: shards share the master's buffer
        }
        if a.fiber_conflict || a.searched {
            return None;
        }
        let role = if let Some(data) = a.fiber_pos_for {
            // Fiber-boundary stream: nothing but FiberEnds may touch it,
            // and its data array must itself be a clean segment stream
            // (or untouched) so per-shard lengths can be offset-fixed.
            if !a.stores.is_empty() || a.appends > 0 || !a.loads.is_empty() || a.buflen {
                return None;
            }
            if let Some(d) = acc.get(&data) {
                let data_clean = d.stores.is_empty()
                    && d.loads.is_empty()
                    && !d.buflen
                    && !d.searched
                    && d.fiber_pos_for.is_none();
                if !data_clean {
                    return None;
                }
            }
            ShardRole::SegmentPos { data }
        } else if a.appends > 0 {
            // Append-only segment output: appends land in iteration
            // order, so concatenating per-shard suffixes in shard order
            // reproduces the serial layout.  Any other observation of
            // the buffer would see a shard-local length or element.
            if !a.stores.is_empty() || !a.loads.is_empty() || a.buflen {
                return None;
            }
            ShardRole::Segment
        } else {
            resolve_store_role(buf, a, defined_at_end, bufs)?
        };
        roles.push((buf, role));
    }
    Some(roles)
}

/// Role resolution for a buffer written only by `Store`s.
fn resolve_store_role(
    buf: BufId,
    a: &BufAcc,
    defined_at_end: &HashSet<(BufId, i64)>,
    bufs: &BufferSet,
) -> Option<ShardRole> {
    // Every store index must be affine in the outer variable.
    let idxs: Option<Vec<Aff>> = a.stores.iter().map(|s| s.idx).collect();
    let idxs = idxs?;
    let consts: Option<Vec<i64>> = idxs.iter().map(|i| i.as_const()).collect();

    if let Some(consts) = consts {
        // All accesses sit at loop-invariant constant indices: the
        // buffer is either iteration-private scratch or an accumulator.
        let load_consts: Option<Vec<i64>> =
            a.loads.iter().map(|l| l.idx.and_then(Aff::as_const)).collect();
        let load_consts = load_consts?;
        let private_ok = a.stores.iter().all(|s| s.reduce.is_none() || s.dominated)
            && a.loads.iter().all(|l| l.dominated)
            && consts.iter().chain(load_consts.iter()).all(|c| defined_at_end.contains(&(buf, *c)));
        if private_ok {
            // Every read is dominated by a plain store in the same
            // iteration and every touched element is re-defined by every
            // iteration, so the last shard's copy *is* the serial state.
            return Some(ShardRole::Private);
        }
        // Associative integer reduction: all stores reduce the same
        // element with the same associative integer operator, no loads
        // observe partial values, and every contribution is an integer.
        let op = a.stores.first()?.reduce?;
        if !matches!(op, BinOp::Add | BinOp::Min | BinOp::Max) {
            return None;
        }
        if !a.stores.iter().all(|s| s.reduce == Some(op) && s.int_val) {
            return None;
        }
        if !a.loads.is_empty() || !matches!(bufs.get(buf), Buffer::I64(_)) {
            return None;
        }
        let index = consts[0];
        if !consts.iter().all(|&c| c == index) {
            return None;
        }
        return Some(ShardRole::Reduction { index, op });
    }

    // Partitioned by the loop index: every store (and every load of the
    // buffer) targets `stride·i + t` with `0 <= t < stride`, so each
    // element is owned by exactly one iteration — and hence one shard.
    let stride = idxs[0].k;
    if stride < 1 {
        return None;
    }
    let in_own_row = |x: &Aff| x.k == stride && x.lo >= 0 && x.hi < stride;
    if !idxs.iter().all(in_own_row) {
        return None;
    }
    for l in &a.loads {
        let idx = l.idx?;
        if !in_own_row(&idx) {
            return None;
        }
    }
    Some(ShardRole::Partitioned { stride })
}

// ---------------------------------------------------------------------
// Bytecode stage
// ---------------------------------------------------------------------

/// The shardability pass: locates the IR-approved loops in the lowered
/// bytecode, re-verifies them structurally, and attaches the resulting
/// [`ShardPlan`] to the program.  Serial semantics are untouched.
pub struct ShardPass {
    /// IR-derived facts from [`analyze_ir`], keyed by loop-variable name.
    pub(crate) specs: Vec<LoopSpec>,
}

impl Pass for ShardPass {
    fn name(&self) -> &'static str {
        "shard"
    }

    fn run(&self, repr: ReprRef<'_>, ctx: &mut PassCtx<'_>) -> Repr {
        let p = repr.bytecode();
        let shard_plan = plan_regions(p, &self.specs, ctx.stats);
        Repr::Bytecode(Program { shard_plan, ..p.clone() })
    }
}

/// Scan the program for top-level counted loops matching an IR spec and
/// verify each structurally.
fn plan_regions(p: &Program, specs: &[LoopSpec], stats: &mut OptStats) -> ShardPlan {
    let code = p.code();
    let mut regions = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        if let Instr::ForTest { counter, hi, var, end }
        | Instr::IForTest { counter, hi, var, end } = code[pc]
        {
            if let Some(spec) = specs.iter().find(|s| p.reg_name(var) == s.var_name) {
                match check_region(p, pc, end as usize, counter, hi, var, spec) {
                    Some(region) => {
                        regions.push(region);
                        stats.loops_sharded += 1;
                    }
                    None => stats.loops_shard_rejected += 1,
                }
            }
        }
        // Only top-level loops are candidates: skip the body of any loop.
        let skip_to = match code[pc].edge() {
            Some((end, Edge::LoopExit)) => end as usize,
            _ => pc + 1,
        };
        if skip_to <= pc {
            break; // malformed loop bounds: abandon the scan
        }
        pc = skip_to;
    }
    ShardPlan { regions }
}

/// Verify one candidate loop `[head, end)` structurally and build its
/// [`ShardRegion`], or reject with `None`.
fn check_region(
    p: &Program,
    head: usize,
    end: usize,
    counter: Reg,
    hi: Reg,
    var: Reg,
    spec: &LoopSpec,
) -> Option<ShardRegion> {
    let code = p.code();
    if end <= head + 1 || end > code.len() {
        return None;
    }
    // (A) The back-edge must be the loop's own `ForStep`, or the bottom
    // test the `forward` pass made of it.
    match code[end - 1] {
        Instr::ForStep { counter: c, test } if c == counter && test == head as u32 => {}
        Instr::IForNext { counter: c, hi: h, var: v, body }
            if (c, h, v) == (counter, hi, var) && body == head as u32 + 1 => {}
        _ => return None,
    }
    // (B) A vectorized kernel op driving the same loop registers sits
    // immediately before the head and belongs to the region: each shard
    // must re-run it over its own sub-range.
    let start = if head > 0 && code[head - 1].vop_loop_regs() == Some((counter, hi)) {
        head - 1
    } else {
        head
    };
    // (C) The body must not write the loop registers, and we collect the
    // set `w` of registers it does write.
    let is_loop_reg = |r: Reg| r == counter || r == hi || r == var;
    let mut w = regset::empty(p.num_regs());
    for instr in &code[head + 1..end - 1] {
        let mut bad = false;
        for_each_reg_role(instr, |r, role| {
            if role != Role::Read {
                bad |= is_loop_reg(r);
                regset::insert(&mut w, r);
            }
        });
        if bad {
            return None;
        }
    }
    // (D) Jump discipline: body jumps stay inside `(head, end]`; no jump
    // from outside the region may target its interior.
    for (pc, instr) in code.iter().enumerate() {
        let inside_body = pc > head && pc < end - 1;
        let Some(t) = instr.target().map(|t| t as usize) else { continue };
        let bad = if inside_body {
            t <= head || t > end
        } else {
            (pc < start || pc >= end) && t > start && t < end
        };
        if bad {
            return None;
        }
    }
    // (E) Must-defined dataflow over one iteration: any body-written
    // register read by the body must be re-defined earlier in the same
    // iteration — otherwise its value carries across iterations and the
    // shard boundaries would change it.  Only the loop registers are
    // defined on entry.
    let mut seed = regset::empty(p.num_regs());
    for r in [counter, hi, var] {
        regset::insert(&mut seed, r);
    }
    let body = MustDefined::solve(code, head..end, &seed);
    if !body.reads_defined(code, |r| regset::contains(&w, r) && !is_loop_reg(r)) {
        return None;
    }
    // (F) Registers read after the region must not expose a stale shard
    // value: every body-written register read downstream must be proven
    // either re-defined after the region or re-defined by *every*
    // iteration (the adopted last shard ran the final iteration, so what
    // is defined entering the back edge is defined after the region), or
    // be a loop register.
    if end < code.len() {
        for (s, at_back_edge) in seed.iter_mut().zip(body.row(end - 1 - head)) {
            *s |= at_back_edge;
        }
        let rest = MustDefined::solve(code, end..code.len(), &seed);
        if !rest.reads_defined(code, |r| regset::contains(&w, r)) {
            return None;
        }
    }
    // (G) Every buffer the region writes must carry an IR-derived role.
    for instr in &code[start..end - 1] {
        let mut bad = false;
        instr.operands(|operand| {
            if let Operand::Buf(b, Access::Write | Access::Append, _) = operand {
                bad |= !spec.roles.iter().any(|(rb, _)| rb == b);
            }
        });
        if bad {
            return None;
        }
    }
    Some(ShardRegion {
        start: start as u32,
        head: head as u32,
        end: end as u32,
        counter,
        hi,
        var,
        roles: spec.roles.clone(),
    })
}

/// Dense register bit-sets as rows of words, so that a dataflow can keep
/// one per instruction in a single flat allocation.
mod regset {
    use crate::bytecode::Reg;

    pub(super) fn empty(num_regs: usize) -> Vec<u64> {
        vec![0; num_regs.div_ceil(64)]
    }
    pub(super) fn insert(row: &mut [u64], r: Reg) {
        row[r.index() / 64] |= 1 << (r.index() % 64);
    }
    pub(super) fn contains(row: &[u64], r: Reg) -> bool {
        row[r.index() / 64] & (1 << (r.index() % 64)) != 0
    }
}

/// The solution of a forward must-defined dataflow over one instruction
/// span: per instruction, the registers written on every path from the
/// span's entry to it.  Both register checks of [`check_region`] — over the
/// loop body and over the code after the region — are this one solver with
/// a different span and entry set.
struct MustDefined {
    span: std::ops::Range<usize>,
    /// Words per row (the entry set's length).
    words: usize,
    /// `span.len()` rows: the defined-on-entry set of each instruction.
    ins: Vec<u64>,
}

impl MustDefined {
    /// Solve over `code[span]`, entered at `span.start` with exactly `seed`
    /// defined.  Edges leaving the span are ignored.
    fn solve(code: &[Instr], span: std::ops::Range<usize>, seed: &[u64]) -> MustDefined {
        let words = seed.len();
        let mut ins = vec![!0u64; span.len() * words];
        ins[..words].copy_from_slice(seed);
        let mut out = vec![0u64; words];
        // Iterate to a fixpoint (sets only shrink, so this terminates).
        loop {
            let mut changed = false;
            for pc in span.clone() {
                let instr = &code[pc];
                out.copy_from_slice(&ins[(pc - span.start) * words..][..words]);
                for_each_reg_role(instr, |r, role| {
                    if role != Role::Read {
                        regset::insert(&mut out, r);
                    }
                });
                let mut push = |succ: usize| {
                    if span.contains(&succ) {
                        for (a, b) in ins[(succ - span.start) * words..].iter_mut().zip(&out) {
                            let next = *a & *b;
                            changed |= next != *a;
                            *a = next;
                        }
                    }
                };
                if instr.falls_through() {
                    push(pc + 1);
                }
                if let Some(t) = instr.target() {
                    push(t as usize);
                }
            }
            if !changed {
                return MustDefined { span, words, ins };
            }
        }
    }

    /// The defined-on-entry set of the span's `i`-th instruction.
    fn row(&self, i: usize) -> &[u64] {
        &self.ins[i * self.words..][..self.words]
    }

    /// Whether every register an instruction of the span reads, and that
    /// `tracked` selects, is defined on entry to that instruction.
    fn reads_defined(&self, code: &[Instr], tracked: impl Fn(Reg) -> bool) -> bool {
        let mut ok = true;
        for pc in self.span.clone() {
            let defined = self.row(pc - self.span.start);
            for_each_reg_role(&code[pc], |r, role| {
                if role != Role::Write && tracked(r) && !regset::contains(defined, r) {
                    ok = false;
                }
            });
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::config::ExecConfig;
    use crate::expr::{BinOp, Expr};
    use crate::opt::{optimize_and_lower, ValidationLevel};
    use crate::stmt::Stmt;
    use crate::var::Names;
    use crate::vm::Vm;

    fn lower(code: &[Stmt], names: &mut Names, bufs: &BufferSet) -> crate::bytecode::Program {
        let config = ExecConfig { validation: ValidationLevel::Full, ..ExecConfig::default() };
        optimize_and_lower(code, names, bufs, &config).expect("pipeline validates").program
    }

    fn sets_bit_equal(a: &BufferSet, b: &BufferSet) -> bool {
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|((_, _, x), (_, _, y))| match (x, y) {
                (Buffer::F64(p), Buffer::F64(q)) => {
                    p.len() == q.len()
                        && p.iter().zip(q.iter()).all(|(u, v)| u.to_bits() == v.to_bits())
                }
                _ => x == y,
            })
    }

    /// Serial and sharded runs of the same program over the same
    /// inputs must agree bit-for-bit on buffers and exactly on stats.
    fn assert_parallel_parity(program: &crate::bytecode::Program, bufs: &BufferSet, what: &str) {
        let mut serial_bufs = bufs.clone();
        let mut serial_vm = Vm::new(program);
        serial_vm.run(program, &mut serial_bufs).expect("serial runs");
        for threads in [2, 4, 16] {
            let mut par_bufs = bufs.clone();
            let mut par_vm = Vm::new(program);
            crate::par::run_sharded(&mut par_vm, program, &mut par_bufs, threads)
                .expect("sharded runs");
            assert_eq!(
                serial_vm.stats(),
                par_vm.stats(),
                "{what}: stats diverge at {threads} threads"
            );
            assert!(
                sets_bit_equal(&serial_bufs, &par_bufs),
                "{what}: buffers diverge at {threads} threads"
            );
        }
    }

    #[test]
    fn associative_int_reduction_is_accepted() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let acc = bufs.add("acc", Buffer::I64(vec![7].into()));
        let i = names.fresh("i");
        // for i in 0..=99 { acc[0] += i }  — an integer sum reduction.
        let code = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(99),
            body: vec![Stmt::Store {
                buf: acc,
                index: Expr::int(0),
                value: Expr::Var(i),
                reduce: Some(BinOp::Add),
            }],
        }];
        let program = lower(&code, &mut names, &bufs);
        let plan = program.shard_plan();
        assert_eq!(plan.regions.len(), 1, "the sum loop shards");
        assert!(plan.regions[0]
            .roles
            .iter()
            .any(|(b, r)| *b == acc && matches!(r, ShardRole::Reduction { op: BinOp::Add, .. })));
        assert_parallel_parity(&program, &bufs, "int sum reduction");
    }

    #[test]
    fn min_and_max_reductions_are_accepted() {
        for op in [BinOp::Min, BinOp::Max] {
            let mut names = Names::new();
            let mut bufs = BufferSet::new();
            let acc = bufs.add(
                "acc",
                Buffer::I64(vec![if op == BinOp::Min { i64::MAX } else { i64::MIN }].into()),
            );
            let i = names.fresh("i");
            let code = vec![Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(63),
                body: vec![Stmt::Store {
                    buf: acc,
                    index: Expr::int(0),
                    value: Expr::mul(
                        Expr::Var(i),
                        Expr::int(if op == BinOp::Min { -3 } else { 3 }),
                    ),
                    reduce: Some(op),
                }],
            }];
            let program = lower(&code, &mut names, &bufs);
            assert_eq!(program.shard_plan().regions.len(), 1, "{op:?} loop shards");
            assert_parallel_parity(&program, &bufs, "int min/max reduction");
        }
    }

    #[test]
    fn float_reduction_is_rejected() {
        // Float addition is not associative bit-for-bit, so a f64 sum must
        // never shard.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![0.1; 64].into()));
        let acc = bufs.add("acc", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let code = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(63),
            body: vec![Stmt::Store {
                buf: acc,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let program = lower(&code, &mut names, &bufs);
        assert!(program.shard_plan().is_empty(), "float reductions must stay serial");
    }

    #[test]
    fn carried_dependence_is_rejected() {
        // for i in 1..=63 { y[i] = y[i-1] + x[i] } — a loop-carried prefix
        // sum; iteration i reads iteration i-1's write.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0; 64].into()));
        let y = bufs.add("y", Buffer::F64(vec![0.0; 64].into()));
        let i = names.fresh("i");
        let code = vec![Stmt::For {
            var: i,
            lo: Expr::int(1),
            hi: Expr::int(63),
            body: vec![Stmt::Store {
                buf: y,
                index: Expr::Var(i),
                value: Expr::add(
                    Expr::load(y, Expr::sub(Expr::Var(i), Expr::int(1))),
                    Expr::load(x, Expr::Var(i)),
                ),
                reduce: None,
            }],
        }];
        let program = lower(&code, &mut names, &bufs);
        assert!(program.shard_plan().is_empty(), "carried dependences must stay serial");
    }

    #[test]
    fn partitioned_writes_shard_and_match_serial() {
        // for i in 0..=63 { y[i] = x[i] * 2.0 } — an elementwise map whose
        // writes are partitioned by the loop index.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x =
            bufs.add("x", Buffer::F64((0..64).map(|k| k as f64 * 0.5).collect::<Vec<_>>().into()));
        let y = bufs.add("y", Buffer::F64(vec![0.0; 64].into()));
        let i = names.fresh("i");
        let code = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(63),
            body: vec![Stmt::Store {
                buf: y,
                index: Expr::Var(i),
                value: Expr::mul(Expr::load(x, Expr::Var(i)), Expr::float(2.0)),
                reduce: None,
            }],
        }];
        let program = lower(&code, &mut names, &bufs);
        let plan = program.shard_plan();
        assert_eq!(plan.regions.len(), 1, "the map loop shards");
        assert!(plan.regions[0]
            .roles
            .iter()
            .any(|(b, r)| *b == y && matches!(r, ShardRole::Partitioned { stride: 1 })));
        assert_parallel_parity(&program, &bufs, "partitioned map");
    }

    #[test]
    fn zero_trip_and_short_trip_loops_match_serial() {
        // Fewer rows than threads (including zero rows): the driver must
        // fall back or split into fewer shards, never duplicate or drop an
        // iteration.
        for hi in [-1i64, 0, 1, 2] {
            let mut names = Names::new();
            let mut bufs = BufferSet::new();
            let y = bufs.add("y", Buffer::F64(vec![0.0; 4].into()));
            let i = names.fresh("i");
            let code = vec![Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(hi),
                body: vec![Stmt::Store {
                    buf: y,
                    index: Expr::Var(i),
                    value: Expr::Var(i),
                    reduce: None,
                }],
            }];
            let program = lower(&code, &mut names, &bufs);
            assert_parallel_parity(&program, &bufs, &format!("trip count {}", hi + 1));
        }
    }
}
