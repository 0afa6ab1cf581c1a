//! Lowering of the non-loop statement forms: assignments, `where`, `multi`,
//! `sieve` and `pass`.

use finch_cin::{CinStmt, IndexExpr, Reduction};
use finch_ir::{Expr, Stmt, Value};

use crate::error::CompileError;
use crate::lower::{loops, Binding, LowerCtx, OutputSink};

/// Lower a CIN statement to target IR.
pub(crate) fn lower_stmt(stmt: &CinStmt, ctx: &mut LowerCtx) -> Result<Vec<Stmt>, CompileError> {
    match stmt {
        CinStmt::Pass(_) => Ok(Vec::new()),
        CinStmt::Multi(stmts) => {
            let mut out = Vec::new();
            for s in stmts {
                out.extend(lower_stmt(s, ctx)?);
            }
            Ok(out)
        }
        CinStmt::Sieve { cond, body } => {
            let cond = ctx.resolve_expr(cond)?;
            let inner = lower_stmt(body, ctx)?;
            if inner.is_empty() {
                Ok(Vec::new())
            } else {
                Ok(vec![Stmt::if_then(cond, inner)])
            }
        }
        CinStmt::Where { consumer, producer } => {
            let mut out = Vec::new();
            // Result arrays are initialised as soon as they enter scope
            // (paper §5.1): re-initialise the producer's results here so a
            // `where` nested under a forall accumulates from scratch on
            // every iteration.
            for result in producer.results() {
                match ctx.bindings.get(result.name()) {
                    Some(Binding::Output(ob)) => match ob.sink {
                        OutputSink::Dense { buf } => {
                            out.extend(init_output(buf, ob.len(), ob.init, ctx));
                        }
                        OutputSink::SparseList { .. } => {
                            return Err(CompileError::Unsupported {
                                detail: format!(
                                    "sparse output `{}` cannot be a `where` producer; \
                                     appended assembly cannot be re-initialised per iteration",
                                    result.name()
                                ),
                            })
                        }
                    },
                    Some(Binding::Input(_)) => {
                        return Err(CompileError::UnsupportedWrite {
                            name: result.name().to_string(),
                        })
                    }
                    None => {
                        return Err(CompileError::UnknownTensor { name: result.name().to_string() })
                    }
                }
            }
            out.extend(lower_stmt(producer, ctx)?);
            out.extend(lower_stmt(consumer, ctx)?);
            Ok(out)
        }
        CinStmt::Forall { index, extent, body } => {
            loops::lower_forall(index, extent.as_ref(), body, ctx)
        }
        CinStmt::Assign { lhs, reduction, rhs } => {
            let out = ctx.output(lhs.tensor.name())?.clone();
            match out.sink {
                OutputSink::Dense { buf } => {
                    let pos = if out.specs().is_empty() {
                        Expr::int(0)
                    } else {
                        ctx.linearize(lhs.tensor.name(), &out.shape(), lhs)?
                    };
                    let value = ctx.resolve_expr(rhs)?;
                    let reduce = match reduction {
                        Reduction::Overwrite => None,
                        Reduction::Reduce(op) => Some(LowerCtx::reduce_op(*op)?),
                    };
                    Ok(vec![Stmt::Store { buf, index: pos, value, reduce }])
                }
                OutputSink::SparseList { idx, val, .. } => {
                    lower_sparse_assign(lhs, *reduction, rhs, idx, val, ctx)
                }
            }
        }
    }
}

/// Lower an assignment into a sparse-list output: the store becomes a pair
/// of appends — the innermost coordinate into `idx`, the computed value
/// into `val`.  The fiber itself is closed by the `FiberEnd` the loop
/// lowerer emits after the loop driving the sparse dimension.
fn lower_sparse_assign(
    lhs: &finch_cin::Access,
    reduction: Reduction,
    rhs: &finch_cin::CinExpr,
    idx: finch_ir::BufId,
    val: finch_ir::BufId,
    ctx: &mut LowerCtx,
) -> Result<Vec<Stmt>, CompileError> {
    let name = lhs.tensor.name();
    if let Reduction::Reduce(op) = reduction {
        return Err(CompileError::Unsupported {
            detail: format!(
                "`{}=` into sparse output `{name}` is not supported: appended assembly \
                 visits each coordinate once; use an overwriting `=` assignment",
                op.name()
            ),
        });
    }
    let out = ctx.output(name)?;
    let fill = out.init;
    if lhs.indices.len() != out.specs().len() {
        return Err(CompileError::RankMismatch {
            name: name.to_string(),
            rank: out.specs().len(),
            indices: lhs.indices.len(),
        });
    }
    // Every coordinate must be a plain loop index: the append order (and
    // the fiber boundaries) are driven by the enclosing loop nest.
    let mut coords = Vec::with_capacity(lhs.indices.len());
    for ix in &lhs.indices {
        match ix {
            IndexExpr::Var { index, .. } => coords.push(ctx.index_expr(index)?),
            _ => {
                return Err(CompileError::Unsupported {
                    detail: format!(
                        "index modifiers are not supported on sparse output access `{name}`"
                    ),
                })
            }
        }
    }
    // The sparse dimension must be driven by the *innermost* enclosing
    // loop: an inner loop over some other index would append the same
    // coordinate once per iteration, producing duplicate (out-of-order)
    // entries that only surface as a validity error at read time.  Reject
    // the shape up front instead.
    let sparse_index = match lhs.indices.last() {
        Some(IndexExpr::Var { index, .. }) => index,
        _ => unreachable!("checked above: every index is a plain variable"),
    };
    if ctx.loop_stack.last() != Some(sparse_index) {
        return Err(CompileError::Unsupported {
            detail: format!(
                "sparse output `{name}` must be written by the innermost enclosing loop \
                 (`{}`), which drives its compressed dimension; found the store under a \
                 loop over `{}`",
                sparse_index.name(),
                ctx.loop_stack.last().map_or("<none>", |v| v.name()),
            ),
        });
    }
    let coord = coords.pop().expect("sparse outputs have at least one dimension");
    let value = ctx.resolve_expr(rhs)?;
    // Writing the background value to a sparse output stores nothing: an
    // absent coordinate already reads as the fill, so statically-fill
    // stores are pruned.  This is what keeps the zero regions of a
    // coiteration (where the rewriter folded the value to the fill) from
    // materialising entries — the compressed output does work proportional
    // to its stored entries, not to the dimension.
    if value.as_lit() == Some(Value::Float(fill)) {
        return Ok(Vec::new());
    }
    Ok(vec![Stmt::Append { buf: idx, value: coord }, Stmt::Append { buf: val, value }])
}

/// Emit code that fills an output buffer with its initial value.
pub(crate) fn init_output(
    buf: finch_ir::BufId,
    len: usize,
    init: f64,
    ctx: &mut LowerCtx,
) -> Vec<Stmt> {
    if len == 1 {
        return vec![Stmt::Store {
            buf,
            index: Expr::int(0),
            value: Expr::Lit(Value::Float(init)),
            reduce: None,
        }];
    }
    let q = ctx.names.fresh("init_q");
    vec![Stmt::For {
        var: q,
        lo: Expr::int(0),
        hi: Expr::int(len as i64 - 1),
        body: vec![Stmt::Store {
            buf,
            index: Expr::Var(q),
            value: Expr::Lit(Value::Float(init)),
            reduce: None,
        }],
    }]
}
