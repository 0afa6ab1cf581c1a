//! The forall lowerer: unfurling, style resolution and the looplet
//! lowerers (paper §6).

use finch_cin::{CinExpr, CinStmt, IndexExpr, IndexVar, TensorRef};
use finch_formats::UnfurlLeaf;
use std::sync::Arc;

use finch_ir::{Expr, Extent, Stmt, Value};
use finch_looplets::{Looplet, Stepped, Style};

use crate::error::CompileError;
use crate::lower::access::{
    check_inside, driven_by, mentions_key, substitute_placeholders, substitute_resolved,
    unfurl_access, AccessState,
};
use crate::lower::statements::lower_stmt;
use crate::lower::{Binding, FiberHandle, LowerCtx, OutputSink};

/// The state of one loop region being lowered: its extent (in loop
/// coordinates), the statement to execute, and the looplet state of every
/// access driven by the loop.
#[derive(Debug, Clone)]
pub(crate) struct LoopState {
    pub index: IndexVar,
    pub ext: Extent,
    /// Shared between the regions a lowerer splits the loop into; the
    /// lowerers that rewrite it (runs, lookups) take it out by move.
    pub body: Arc<CinStmt>,
    pub accesses: Vec<AccessState>,
}

/// Lower `@forall index body`.
pub(crate) fn lower_forall(
    index: &IndexVar,
    extent: Option<&(CinExpr, CinExpr)>,
    body: &CinStmt,
    ctx: &mut LowerCtx,
) -> Result<Vec<Stmt>, CompileError> {
    // Sparse output fibers driven by this loop are closed right after it:
    // one `FiberEnd` per output whose innermost (sparse) dimension this
    // forall iterates, emitted on every exit path so the fiber boundary is
    // recorded even when the loop collapses to nothing.
    let fiber_ends = sparse_fiber_ends(index, body, ctx);

    // 1. Find the read accesses driven by this loop.
    let mut driven: Vec<finch_cin::Access> = Vec::new();
    for a in body.read_accesses() {
        if driven_by(&a, index, ctx) && !driven.contains(&a) {
            driven.push(a);
        }
    }

    // 2. Determine the loop extent.
    let ext = match extent {
        Some((lo, hi)) => Extent::new(ctx.resolve_expr(lo)?, ctx.resolve_expr(hi)?),
        None => infer_extent(index, &driven, body, ctx)?,
    };
    let literal = match (ext.lo.as_lit(), ext.hi.as_lit()) {
        (Some(Value::Int(lo)), Some(Value::Int(hi))) if lo > hi => return Ok(fiber_ends),
        (Some(Value::Int(lo)), Some(Value::Int(hi))) => Some((lo, hi)),
        _ => None,
    };

    // 3. Unfurl each driven access, refuse a constant extent it does not
    // cover, and substitute placeholders for the accesses.
    let mut accesses = Vec::new();
    let mut table = Vec::new();
    for a in &driven {
        let state = unfurl_access(a, ctx)?;
        if let (Some(extent), Some(ix)) = (literal, a.indices.first()) {
            check_inside(ix, &state, extent, ctx)?;
        }
        table.push((a.clone(), state.key.clone()));
        accesses.push(state);
    }
    let mut body = body.clone();
    substitute_placeholders(&mut body, &table);

    let state = LoopState { index: index.clone(), ext, body: Arc::new(body), accesses };
    let mut out = lower_loop(state, ctx)?;
    out.extend(fiber_ends);
    Ok(out)
}

/// The `FiberEnd` statements closing every sparse output fiber whose
/// innermost dimension is driven by a `forall` over `index` (paper §5: the
/// compressed level records its `pos` boundary when the fiber's loop ends).
fn sparse_fiber_ends(index: &IndexVar, body: &CinStmt, ctx: &LowerCtx) -> Vec<Stmt> {
    let mut ends: Vec<Stmt> = Vec::new();
    for a in body.write_accesses() {
        let Some(Binding::Output(ob)) = ctx.bindings.get(a.tensor.name()) else { continue };
        let OutputSink::SparseList { pos, idx, .. } = ob.sink else { continue };
        let drives =
            matches!(a.indices.last(), Some(IndexExpr::Var { index: v, .. }) if v == index);
        let seen = ends.iter().any(|s| matches!(s, Stmt::FiberEnd { pos: p, .. } if *p == pos));
        if drives && !seen {
            ends.push(Stmt::FiberEnd { pos, data: idx });
        }
    }
    ends
}

/// Infer the extent of a loop from the dimensions of the tensors it
/// accesses: the first driven access with a plain (unmodified) index wins;
/// otherwise the first output access indexed by the loop variable.
fn infer_extent(
    index: &IndexVar,
    driven: &[finch_cin::Access],
    body: &CinStmt,
    ctx: &LowerCtx,
) -> Result<Extent, CompileError> {
    for a in driven {
        if let Some(IndexExpr::Var { .. }) = a.indices.first() {
            let name = a.tensor.name();
            let (tensor, level) = if LowerCtx::is_placeholder(name) {
                let h = ctx
                    .fibers
                    .get(name)
                    .ok_or_else(|| CompileError::UnknownTensor { name: name.to_string() })?;
                (h.tensor.name(), h.level)
            } else {
                (name, 0)
            };
            let dim = ctx.input(tensor)?.dim(level);
            return Ok(Extent::literal(0, dim as i64 - 1));
        }
    }
    // Fall back to a write access whose coordinates use this index.
    for a in body.write_accesses() {
        let dims: Option<Vec<usize>> = match ctx.bindings.get(a.tensor.name()) {
            Some(Binding::Output(out)) => Some(out.shape()),
            Some(Binding::Input(t)) => Some((0..t.ndim()).map(|k| t.dim(k)).collect()),
            None => None,
        };
        if let Some(dims) = dims {
            for (k, ix) in a.indices.iter().enumerate() {
                if let IndexExpr::Var { index: v, .. } = ix {
                    if v == index && k < dims.len() {
                        return Ok(Extent::literal(0, dims[k] as i64 - 1));
                    }
                }
            }
        }
    }
    Err(CompileError::CannotInferExtent { index: index.name().to_string() })
}

/// Lower one loop region by selecting the highest-priority looplet style
/// present and running the corresponding lowerer.
pub(crate) fn lower_loop(state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let style = Style::resolve_all(state.accesses.iter().map(|a| a.nest.style()));
    match style {
        None | Some(Style::Leaf) | Some(Style::Lookup) => finalize(state, ctx),
        Some(Style::Thunk) => lower_thunk(state, ctx),
        Some(Style::BindExtent) => lower_bind_extent(state, ctx),
        Some(Style::Shift) => lower_shift(state, ctx),
        Some(Style::Switch) => lower_switch(state, ctx),
        Some(Style::Run) => lower_run(state, ctx),
        Some(Style::Spike) => lower_spike(state, ctx),
        Some(Style::Pipeline) => lower_pipeline(state, ctx),
        Some(Style::Jumper) => lower_stepped(state, ctx, true),
        Some(Style::Stepper) => lower_stepped(state, ctx, false),
    }
}

// ---------------------------------------------------------------------------
// Wrapper lowerers
// ---------------------------------------------------------------------------

/// Rebuild every access from itself.  `peel` gets the access by value, so a
/// wrapper lowerer moves the wrapped nest out of its slot instead of copying
/// the whole nest to drop one layer.
fn peel_accesses(state: &mut LoopState, peel: impl FnMut(AccessState) -> AccessState) {
    state.accesses = std::mem::take(&mut state.accesses).into_iter().map(peel).collect();
}

fn lower_thunk(mut state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let mut out = Vec::new();
    peel_accesses(&mut state, |mut a| loop {
        match a.nest {
            Looplet::Thunk { preamble, body } => {
                out.extend(preamble.iter().cloned());
                a.nest = Arc::unwrap_or_clone(body);
            }
            nest => break AccessState { nest, ..a },
        }
    });
    out.extend(lower_loop(state, ctx)?);
    Ok(out)
}

fn lower_bind_extent(mut state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let mut out = Vec::new();
    let ext = state.ext.clone();
    peel_accesses(&mut state, |mut a| loop {
        match a.nest {
            Looplet::BindExtent { lo, hi, body } => {
                a.nest = Arc::unwrap_or_clone(body);
                let array_ext = a.to_array(&ext);
                if let Some(v) = lo {
                    out.push(Stmt::Let { var: v, init: array_ext.lo });
                }
                if let Some(v) = hi {
                    out.push(Stmt::Let { var: v, init: array_ext.hi });
                }
            }
            nest => break AccessState { nest, ..a },
        }
    });
    out.extend(lower_loop(state, ctx)?);
    Ok(out)
}

fn lower_shift(mut state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    peel_accesses(&mut state, |mut a| loop {
        match a.nest {
            Looplet::Shift { delta, body } => {
                a.shift = Expr::add(a.shift, delta).simplified();
                a.nest = Arc::unwrap_or_clone(body);
            }
            nest => break AccessState { nest, ..a },
        }
    });
    lower_loop(state, ctx)
}

// ---------------------------------------------------------------------------
// Switch lowerer (paper §6.1 "Switches")
// ---------------------------------------------------------------------------

fn lower_switch(state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let k = state
        .accesses
        .iter()
        .position(|a| a.nest.style() == Style::Switch)
        .expect("switch style implies a switch access");
    let Looplet::Switch { cases } = &state.accesses[k].nest else {
        unreachable!("style was switch")
    };
    let cases = Arc::clone(cases);
    let mut lowered = Vec::new();
    for case in cases.iter() {
        let mut branch = state.clone();
        branch.accesses[k].nest = case.body.clone();
        lowered.push((case.cond.clone(), lower_loop(branch, ctx)?));
    }
    // Build an if / else-if chain from the last case backwards.
    let mut chain: Vec<Stmt> = Vec::new();
    for (cond, body) in lowered.into_iter().rev() {
        if cond == Expr::bool(true) && chain.is_empty() {
            chain = body;
        } else {
            chain = vec![Stmt::If { cond, then_branch: body, else_branch: chain }];
        }
    }
    Ok(chain)
}

// ---------------------------------------------------------------------------
// Run lowerer (paper §6.1 "Runs and Rewriting")
// ---------------------------------------------------------------------------

fn lower_run(state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let LoopState { index, ext, body, accesses } = state;
    let mut body = Arc::unwrap_or_clone(body);
    let mut remaining = Vec::new();
    let mut substitutions: Vec<(TensorRef, CinExpr)> = Vec::new();
    for a in accesses {
        if a.nest.style() != Style::Run {
            remaining.push(a);
            continue;
        }
        let Looplet::Run { body: run_body } = &a.nest else { unreachable!("style was run") };
        // A run's body may itself be wrapped in further runs (e.g. produced
        // by spike truncation); unwrap to the terminal leaf.
        let mut run_body = run_body.as_ref();
        while let Looplet::Run { body } = run_body {
            run_body = body.as_ref();
        }
        match run_body {
            Looplet::Leaf(UnfurlLeaf::Value(e)) => {
                substitutions.push((a.key.clone(), CinExpr::Dyn(e.clone())));
            }
            Looplet::Leaf(UnfurlLeaf::Subfiber(pos)) => {
                // A whole run of the same subfiber: the subfiber is constant
                // over the region, so later loops unfurl it as usual.
                ctx.fibers.insert(
                    a.key.clone(),
                    FiberHandle { tensor: a.tensor.clone(), level: a.level + 1, pos: pos.clone() },
                );
            }
            other => {
                return Err(CompileError::UnsupportedLooplet {
                    detail: format!("run of a non-leaf looplet ({})", other.style().priority()),
                })
            }
        }
    }
    substitute_resolved(&mut body, &substitutions);
    if remaining.is_empty() {
        // Everything structured is resolved: hand the loop to the rewrite
        // engine, which may collapse it entirely (zero regions, invariant
        // additions over runs).
        let mut forall = CinStmt::Forall {
            index: index.clone(),
            extent: Some((CinExpr::Dyn(ext.lo.clone()), CinExpr::Dyn(ext.hi.clone()))),
            body: Box::new(body),
        };
        ctx.rewriter.simplify_stmt_in_place(&mut forall);
        match forall {
            CinStmt::Forall { body, .. } => {
                let body = Arc::new(*body);
                finalize(LoopState { index, ext, body, accesses: Vec::new() }, ctx)
            }
            other => lower_stmt(&other, ctx),
        }
    } else {
        ctx.rewriter.simplify_stmt_in_place(&mut body);
        if body.is_pass() {
            return Ok(Vec::new());
        }
        // Drop iteration machinery for accesses the simplifier deleted
        // (e.g. everything multiplied by a zero run).
        let remaining: Vec<AccessState> =
            remaining.into_iter().filter(|a| mentions_key(&body, &a.key)).collect();
        lower_loop(LoopState { index, ext, body: Arc::new(body), accesses: remaining }, ctx)
    }
}

// ---------------------------------------------------------------------------
// Spike lowerer (paper §6.1 "Spikes")
// ---------------------------------------------------------------------------

fn lower_spike(state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let LoopState { index, ext, body, accesses } = state;
    let body_ext =
        Extent::new(ext.lo.clone(), Expr::sub(ext.hi.clone(), Expr::int(1)).simplified());
    let tail_ext = Extent::point(ext.hi.clone());

    // A spike's body and tail move into their regions; every other looplet
    // is truncated to each.
    let mut body_accesses = Vec::with_capacity(accesses.len());
    let mut tail_accesses = Vec::with_capacity(accesses.len());
    for a in accesses {
        let (in_body, in_tail) = match a.nest {
            Looplet::Spike { body, tail } => {
                (Arc::unwrap_or_clone(body), Arc::unwrap_or_clone(tail))
            }
            ref nest => {
                let old = a.to_array(&ext);
                (
                    nest.truncate(&old, &a.to_array(&body_ext)),
                    nest.truncate(&old, &a.to_array(&tail_ext)),
                )
            }
        };
        tail_accesses.push(AccessState {
            key: a.key.clone(),
            tensor: a.tensor.clone(),
            level: a.level,
            shift: a.shift.clone(),
            nest: in_tail,
        });
        body_accesses.push(AccessState { nest: in_body, ..a });
    }
    let body_state = LoopState {
        index: index.clone(),
        ext: body_ext.clone(),
        body: body.clone(),
        accesses: body_accesses,
    };
    let tail_state = LoopState { index, ext: tail_ext, body, accesses: tail_accesses };

    let body_stmts = lower_loop(body_state, ctx)?;
    let tail_stmts = lower_loop(tail_state, ctx)?;

    let mut out = Vec::new();
    if !body_stmts.is_empty() {
        // The body region may be empty when the whole region is a single
        // point; decide statically when possible, at runtime otherwise.
        match body_ext.nonempty().as_lit() {
            Some(Value::Bool(true)) => out.extend(body_stmts),
            Some(Value::Bool(false)) => {}
            _ => out.push(Stmt::if_then(body_ext.nonempty(), body_stmts)),
        }
    }
    out.extend(tail_stmts);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pipeline lowerer (paper §6.1 "Pipelines")
// ---------------------------------------------------------------------------

fn lower_pipeline(state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let k = state
        .accesses
        .iter()
        .position(|a| a.nest.style() == Style::Pipeline)
        .expect("pipeline style implies a pipeline access");
    let Looplet::Pipeline { phases } = &state.accesses[k].nest else {
        unreachable!("style was pipeline")
    };
    let phases = Arc::clone(phases);
    let ext = state.ext.clone();
    let shift_k = state.accesses[k].shift.clone();

    let cur = ctx.names.fresh("phase_start");
    let mut out = vec![Stmt::Let { var: cur, init: ext.lo.clone() }];

    for (pi, phase) in phases.iter().enumerate() {
        let is_last = pi + 1 == phases.len();
        // The phase ends at its declared stride (translated into loop
        // coordinates), clipped to the enclosing region.
        let stop_expr = match (&phase.stride, is_last) {
            (Some(stride), _) => {
                Expr::min(Expr::add(stride.clone(), shift_k.clone()).simplified(), ext.hi.clone())
                    .simplified()
            }
            (None, _) => ext.hi.clone(),
        };
        let stop = ctx.names.fresh("phase_stop");
        out.push(Stmt::Let { var: stop, init: stop_expr });
        let region = Extent::new(Expr::Var(cur), Expr::Var(stop));

        let mut branch = state.clone();
        branch.ext = region.clone();
        for (i, a) in branch.accesses.iter_mut().enumerate() {
            if i == k {
                let old_hi = match &phase.stride {
                    Some(stride) => stride.clone(),
                    None => a.to_array(&ext).hi,
                };
                let new = a.to_array(&region);
                let old = Extent::new(new.lo.clone(), old_hi);
                a.nest = phase.body.truncate(&old, &new);
            } else {
                a.nest = a.nest.truncate(&a.to_array(&ext), &a.to_array(&region));
            }
        }
        let mut branch_stmts = lower_loop(branch, ctx)?;
        if is_last && branch_stmts.is_empty() {
            continue;
        }
        branch_stmts
            .push(Stmt::Assign { var: cur, value: Expr::add(Expr::Var(stop), Expr::int(1)) });
        out.push(Stmt::if_then(Expr::le(Expr::Var(cur), Expr::Var(stop)), branch_stmts));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Stepper / Jumper lowerer (paper §6.1 "Steppers" and "Jumpers")
// ---------------------------------------------------------------------------

fn lower_stepped(
    state: LoopState,
    ctx: &mut LowerCtx,
    jumper: bool,
) -> Result<Vec<Stmt>, CompileError> {
    let wanted = if jumper { Style::Jumper } else { Style::Stepper };
    let participants: Vec<usize> = state
        .accesses
        .iter()
        .enumerate()
        .filter(|(_, a)| a.nest.style() == wanted)
        .map(|(i, _)| i)
        .collect();
    debug_assert!(!participants.is_empty(), "stepped style implies a participant");
    let ext = state.ext.clone();

    fn payload(a: &AccessState) -> &Stepped<UnfurlLeaf> {
        match &a.nest {
            Looplet::Stepper(s) | Looplet::Jumper(s) => s,
            _ => unreachable!("participant is a stepper or jumper"),
        }
    }

    let mut out = Vec::new();
    // Position every participant's state at the start of the region.
    for &i in &participants {
        let a = &state.accesses[i];
        if let Some(seek) = &payload(a).seek {
            out.push(Stmt::Let { var: seek.var, init: a.to_array(&ext).lo });
            out.extend(seek.body.iter().cloned());
        }
    }

    let cur = ctx.names.fresh("step_start");
    out.push(Stmt::Let { var: cur, init: ext.lo.clone() });

    let mut wbody: Vec<Stmt> = Vec::new();
    // Capture each participant's declared stride (in loop coordinates)
    // before the body may advance its state.
    let mut stride_vars = Vec::new();
    for &i in &participants {
        let a = &state.accesses[i];
        let v = ctx.names.fresh("stride");
        wbody.push(Stmt::Let { var: v, init: a.to_loop(&payload(a).stride) });
        stride_vars.push(v);
    }
    // The step covers as much as possible without crossing a child
    // boundary: the minimum stride for steppers (two-finger merges), the
    // maximum for jumpers (leader election / galloping).
    let mut combined = Expr::Var(stride_vars[0]);
    for v in &stride_vars[1..] {
        combined = if jumper {
            Expr::max(combined, Expr::Var(*v))
        } else {
            Expr::min(combined, Expr::Var(*v))
        };
    }
    let chosen = ctx.names.fresh("step_stop");
    wbody.push(Stmt::Let { var: chosen, init: Expr::min(combined, ext.hi.clone()) });
    let region = Extent::new(Expr::Var(cur), Expr::Var(chosen));

    let mut branch = state.clone();
    branch.ext = region.clone();
    for (i, a) in branch.accesses.iter_mut().enumerate() {
        if let Some(pk) = participants.iter().position(|&p| p == i) {
            let new = a.to_array(&region);
            let old = Extent::new(new.lo.clone(), a.coord_to_array(&Expr::Var(stride_vars[pk])));
            a.nest = payload(a).body.truncate(&old, &new);
        } else {
            a.nest = a.nest.truncate(&a.to_array(&ext), &a.to_array(&region));
        }
    }
    wbody.extend(lower_loop(branch, ctx)?);

    // Advance whichever participants' current child ends exactly at the
    // chosen boundary.
    for (pk, &i) in participants.iter().enumerate() {
        let next = &payload(&state.accesses[i]).next;
        if !next.is_empty() {
            wbody.push(Stmt::if_then(
                Expr::eq(Expr::Var(stride_vars[pk]), Expr::Var(chosen)),
                next.clone(),
            ));
        }
    }
    wbody.push(Stmt::Assign { var: cur, value: Expr::add(Expr::Var(chosen), Expr::int(1)) });

    out.push(Stmt::While { cond: Expr::le(Expr::Var(cur), ext.hi.clone()), body: wbody });
    Ok(out)
}

// ---------------------------------------------------------------------------
// Finalisation: the Lookup lowerer (paper §6.1 "Lookups")
// ---------------------------------------------------------------------------

fn finalize(state: LoopState, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    let LoopState { index, ext, body, accesses } = state;
    let mut body = Arc::unwrap_or_clone(body);
    let loop_var = ctx.names.fresh(index.name());
    let index_expr = Expr::Var(loop_var);

    let mut substitutions: Vec<(TensorRef, CinExpr)> = Vec::new();
    for a in &accesses {
        let coord = Expr::sub(index_expr.clone(), a.shift.clone()).simplified();
        if let Some(resolved) = resolve_nest(&a.nest, a, &coord, ctx)? {
            substitutions.push((a.key.clone(), resolved));
        }
    }
    substitute_resolved(&mut body, &substitutions);
    ctx.rewriter.simplify_stmt_in_place(&mut body);
    if body.is_pass() {
        return Ok(Vec::new());
    }

    let saved = ctx.index_bindings.insert(index.clone(), index_expr);
    ctx.loop_stack.push(index.clone());
    let inner = lower_stmt(&body, ctx);
    ctx.loop_stack.pop();
    match saved {
        Some(prev) => {
            ctx.index_bindings.insert(index.clone(), prev);
        }
        None => {
            ctx.index_bindings.remove(&index);
        }
    }
    let inner = inner?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }

    if ext.is_point() {
        // A single-index region: skip the loop and bind the index directly
        // (paper: "when a loop has length one, Finch skips the loop").
        let mut out = vec![Stmt::Let { var: loop_var, init: ext.lo }];
        out.extend(inner);
        Ok(out)
    } else {
        Ok(vec![Stmt::For { var: loop_var, lo: ext.lo, hi: ext.hi, body: inner }])
    }
}

/// Resolve a looplet nest whose structure has been exhausted (lookups, runs
/// and leaves) at a concrete coordinate.
///
/// Returns `Some(expr)` when the access resolves to a value, or `None` when
/// it resolves to a subfiber (in which case the fiber handle is registered
/// and the placeholder access is left in place for inner loops).
fn resolve_nest(
    nest: &Looplet<UnfurlLeaf>,
    a: &AccessState,
    coord: &Expr,
    ctx: &mut LowerCtx,
) -> Result<Option<CinExpr>, CompileError> {
    match nest {
        Looplet::Leaf(UnfurlLeaf::Value(e)) => Ok(Some(CinExpr::Dyn(e.clone()))),
        Looplet::Leaf(UnfurlLeaf::Subfiber(pos)) => {
            ctx.fibers.insert(
                a.key.clone(),
                FiberHandle { tensor: a.tensor.clone(), level: a.level + 1, pos: pos.clone() },
            );
            Ok(None)
        }
        Looplet::Run { body } => resolve_nest(body, a, coord, ctx),
        Looplet::Lookup { var, body } => {
            let bound = body.substitute_var(*var, coord);
            resolve_nest(&bound, a, coord, ctx)
        }
        Looplet::Shift { delta, body } => {
            let inner = Expr::sub(coord.clone(), delta.clone()).simplified();
            resolve_nest(body, a, &inner, ctx)
        }
        other => Err(CompileError::UnsupportedLooplet {
            detail: format!(
                "looplet of style {:?} reached the lookup lowerer for tensor `{}`",
                other.style(),
                a.tensor
            ),
        }),
    }
}
