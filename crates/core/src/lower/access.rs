//! Access bookkeeping: unfurling the accesses driven by a `forall` and
//! applying index modifiers (paper §8).

use finch_cin::{Access, IndexExpr, IndexVar, TensorRef};
use finch_formats::UnfurlLeaf;
use finch_ir::{BinOp, Expr, Value};
use finch_looplets::{Looplet, Phase};

use crate::error::CompileError;
use crate::lower::{input_in, Binding, LowerCtx};

/// The lowering state of one access within the current loop.
#[derive(Debug, Clone)]
pub(crate) struct AccessState {
    /// The placeholder tensor standing for this access inside the loop body.
    pub key: TensorRef,
    /// The original tensor.
    pub tensor: TensorRef,
    /// The level currently being iterated.
    pub level: usize,
    /// Accumulated coordinate shift: `loop coordinate = array coordinate +
    /// shift` (introduced by `offset`/`window` modifiers and `Shift`
    /// looplets).
    pub shift: Expr,
    /// The looplet nest describing the current dimension, in array
    /// coordinates.
    pub nest: Looplet<UnfurlLeaf>,
}

impl AccessState {
    /// `-shift`, the translation from loop to array coordinates; `None`
    /// when the shift is the literal 0 and coordinates coincide.
    fn unshift(&self) -> Option<Expr> {
        (!self.shift.is_lit(Value::Int(0)))
            .then(|| Expr::sub(Expr::int(0), self.shift.clone()).simplified())
    }

    /// A loop coordinate translated into this access's array coordinates.
    pub fn coord_to_array(&self, e: &Expr) -> Expr {
        translated(e, self.unshift().as_ref())
    }

    /// The current loop region translated into this access's array
    /// coordinates.
    pub fn to_array(&self, ext: &finch_ir::Extent) -> finch_ir::Extent {
        let by = self.unshift();
        finch_ir::Extent {
            lo: translated(&ext.lo, by.as_ref()),
            hi: translated(&ext.hi, by.as_ref()),
        }
    }

    /// Translate an array-coordinate expression into loop coordinates.
    pub fn to_loop(&self, e: &Expr) -> Expr {
        translated(e, (!self.shift.is_lit(Value::Int(0))).then_some(&self.shift))
    }
}

/// `e + by`, simplified.  Without a translation it is `e` simplified — what
/// `e + 0` simplifies to, without building the sum.
fn translated(e: &Expr, by: Option<&Expr>) -> Expr {
    match by {
        Some(by) => Expr::add(e.clone(), by.clone()).simplified(),
        None => e.clone().simplified(),
    }
}

/// Should this access be unfurled by a `forall` over `index`?
///
/// True when the access has unconsumed indices, its first unconsumed index
/// is driven by `index`, and its tensor is a structured input.  Output
/// accesses are never unfurled: dense output reads resolve directly at
/// expression-resolution time, and output *writes* are handled by the
/// output's [`OutputSink`](crate::lower::OutputSink) — a linearised store
/// for dense sinks, appends (plus the loop lowerer's `FiberEnd`) for
/// sparse-list sinks.
pub(crate) fn driven_by(access: &Access, index: &IndexVar, ctx: &LowerCtx) -> bool {
    let Some(first) = access.indices.first() else { return false };
    if first.index_var() != index {
        return false;
    }
    let name = access.tensor.name();
    if LowerCtx::is_placeholder(name) {
        return true;
    }
    // Unknown tensors are claimed too, so that unfurling reports a precise
    // "tensor is not bound" error instead of a missing-extent error.
    !matches!(ctx.bindings.get(name), Some(Binding::Output(_)))
}

/// Unfurl one access for a `forall` over its first unconsumed index,
/// producing the placeholder key and the access state.
pub(crate) fn unfurl_access(
    access: &Access,
    ctx: &mut LowerCtx,
) -> Result<AccessState, CompileError> {
    let name = access.tensor.name();
    // Identify the tensor, the level to unfurl, and the fiber position.
    let (tensor, level, pos) = if LowerCtx::is_placeholder(name) {
        let handle = ctx
            .fibers
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::UnknownTensor { name: name.to_string() })?;
        (handle.tensor, handle.level, handle.pos)
    } else {
        let bound = ctx.input(name)?;
        if access.indices.len() != bound.ndim() {
            return Err(CompileError::RankMismatch {
                name: name.to_string(),
                rank: bound.ndim(),
                indices: access.indices.len(),
            });
        }
        (access.tensor.clone(), 0, Expr::int(0))
    };
    let first = access.indices.first().expect("driven access has an index");
    let (nest, shift) = apply_index_expr(tensor.name(), level, &pos, first, ctx)?;
    let key = ctx.fresh_access_key();
    Ok(AccessState { key, tensor, level, shift, nest })
}

/// Apply an index expression (protocol annotation plus modifiers) to obtain
/// the looplet nest and coordinate shift of one access mode.
fn apply_index_expr(
    tensor: &str,
    level: usize,
    pos: &Expr,
    index_expr: &IndexExpr,
    ctx: &mut LowerCtx,
) -> Result<(Looplet<UnfurlLeaf>, Expr), CompileError> {
    match index_expr {
        IndexExpr::Var { protocol, .. } => {
            let bound = input_in(&ctx.bindings, tensor)?;
            let nest = bound.unfurl(level, pos, *protocol, &mut ctx.names);
            Ok((nest, Expr::int(0)))
        }
        IndexExpr::Offset { delta, base } => {
            let (nest, shift) = apply_index_expr(tensor, level, pos, base, ctx)?;
            let delta = ctx.resolve_expr(delta)?;
            Ok((nest, Expr::add(shift, delta).simplified()))
        }
        IndexExpr::Window { lo, hi, base } => {
            let (nest, shift) = apply_index_expr(tensor, level, pos, base, ctx)?;
            let lo = ctx.resolve_expr(lo)?;
            let _hi = ctx.resolve_expr(hi)?;
            // window(lo, hi)[k] accesses array coordinate lo + k, so the
            // loop coordinate is the array coordinate minus lo.
            Ok((nest, Expr::sub(shift, lo).simplified()))
        }
        IndexExpr::Permit { base } => {
            let (nest, shift) = apply_index_expr(tensor, level, pos, base, ctx)?;
            let dim = ctx.input(tensor)?.dim(level);
            let missing = || Looplet::run(UnfurlLeaf::Value(Expr::missing()));
            // The paper's permit protocol: missing before 0, the array's own
            // nest over its dimension, missing after the end.
            let wrapped = Looplet::pipeline(vec![
                Phase { stride: Some(Expr::int(-1)), body: missing() },
                Phase { stride: Some(Expr::int(dim as i64 - 1)), body: nest },
                Phase { stride: None, body: missing() },
            ]);
            Ok((wrapped, shift))
        }
    }
}

/// Refuse a loop over the constant extent `lo..=hi` that reads `state`'s
/// tensor through `ix` outside the mode it unfurled — the dense meaning
/// rejects such a read, a dense input faults on it at run time, and a sparse
/// one would read past its slice.  The loop coordinates `ix` reads inside the
/// mode are the mode's own, shifted by each `offset` and cut to `0..=hi -
/// lo` by each `window`; under a `permit`, which reads `Missing` outside,
/// and where a window's width is not a constant, nothing is refused, and
/// where a shift is not a constant, only what a window cuts.
pub(crate) fn check_inside(
    ix: &IndexExpr,
    state: &AccessState,
    (lo, hi): (i64, i64),
    ctx: &LowerCtx,
) -> Result<(), CompileError> {
    let dim = ctx.input(state.tensor.name())?.dim(state.level) as i64;
    let Some((shift, min, max)) = reach(ix, ctx)? else { return Ok(()) };
    // The mode's coordinates `0..dim` are `k + shift`.
    let (min, max) = match shift {
        Some(shift) => (min.max(shift.saturating_neg()), max.min((dim - 1).saturating_sub(shift))),
        None => (min, max),
    };
    if min <= lo && hi <= max {
        return Ok(());
    }
    let name = state.tensor.name();
    Err(CompileError::Unsupported {
        detail: format!(
            "a loop over {lo}..={hi} reads `{name}` at coordinates it has only in {min}..={max}"
        ),
    })
}

/// `(shift, min, max)`: an index expression reads coordinate `k + shift` of
/// its tensor's mode at each loop coordinate `k` in `min..=max` — the shift
/// `None` where it is not an integer literal — and outside it reads past a
/// `window`.
type Reach = (Option<i64>, i64, i64);

/// What `ix` reads, or `None` under a `permit` or a window whose width is
/// not an integer literal.
fn reach(ix: &IndexExpr, ctx: &LowerCtx) -> Result<Option<Reach>, CompileError> {
    Ok(match ix {
        IndexExpr::Var { .. } => Some((Some(0), i64::MIN, i64::MAX)),
        IndexExpr::Offset { delta, base } => {
            let delta = int(&ctx.resolve_expr(delta)?);
            let shifted = |(shift, min, max): Reach| {
                (shift.zip(delta).map(|(s, d)| s.saturating_sub(d)), min, max)
            };
            reach(base, ctx)?.map(shifted)
        }
        IndexExpr::Window { lo, hi, base } => {
            let (lo, hi) = (ctx.resolve_expr(lo)?, ctx.resolve_expr(hi)?);
            match (reach(base, ctx)?, width(&lo, &hi)) {
                // The window's `0..=width` are `k + shift` of its base.
                (Some((Some(shift), min, max)), Some(width)) => Some((
                    int(&lo).map(|lo| shift.saturating_add(lo)),
                    min.max(shift.saturating_neg()),
                    max.min(width.saturating_sub(shift)),
                )),
                (Some((None, min, max)), Some(_)) => Some((None, min, max)),
                _ => None,
            }
        }
        IndexExpr::Permit { .. } => None,
    })
}

/// `hi - lo`, where it is an integer literal: both bounds literals, or `hi`
/// the same expression as `lo`, or that plus or minus a literal.  Compared
/// as written, not simplified.
fn width(lo: &Expr, hi: &Expr) -> Option<i64> {
    if let (Some(lo), Some(hi)) = (int(lo), int(hi)) {
        return Some(hi.saturating_sub(lo));
    }
    match hi {
        _ if hi == lo => Some(0),
        Expr::Binary { op: BinOp::Add, lhs, rhs } if **lhs == *lo => int(rhs),
        Expr::Binary { op: BinOp::Add, lhs, rhs } if **rhs == *lo => int(lhs),
        Expr::Binary { op: BinOp::Sub, lhs, rhs } if **lhs == *lo => int(rhs).map(|n| -n),
        _ => None,
    }
}

/// `e`, if it is an integer literal.
fn int(e: &Expr) -> Option<i64> {
    match e.as_lit() {
        Some(Value::Int(n)) => Some(n),
        _ => None,
    }
}

/// Replace each matched access in the loop body with its placeholder.
pub(crate) fn substitute_placeholders(
    body: &mut finch_cin::CinStmt,
    table: &[(Access, TensorRef)],
) {
    body.rewrite_exprs(&mut |e| match e {
        finch_cin::CinExpr::Access(a) => {
            table.iter().find(|(orig, _)| orig == a).map(|(_, key)| {
                finch_cin::CinExpr::Access(Access {
                    tensor: key.clone(),
                    indices: a.indices[1..].to_vec(),
                })
            })
        }
        _ => None,
    });
}

/// Replace placeholder accesses by their resolved expressions.
pub(crate) fn substitute_resolved(
    body: &mut finch_cin::CinStmt,
    table: &[(TensorRef, finch_cin::CinExpr)],
) {
    body.rewrite_exprs(&mut |e| match e {
        finch_cin::CinExpr::Access(a) => {
            table.iter().find(|(key, _)| a.tensor == *key).map(|(_, repl)| repl.clone())
        }
        _ => None,
    });
}

/// Does the statement still mention an access with the given placeholder
/// key?  Used to drop iteration machinery for accesses that simplification
/// deleted (e.g. everything multiplied by a zero run).
pub(crate) fn mentions_key(body: &finch_cin::CinStmt, key: &TensorRef) -> bool {
    body.read_accesses().iter().any(|a| a.tensor == *key)
}
