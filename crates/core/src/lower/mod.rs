//! The lowering compiler: concrete index notation → target IR.
//!
//! Lowering proceeds exactly as described in the paper's §6: statements are
//! lowered node by node until a `forall` is reached; the forall's accesses
//! are unfurled into looplet nests; and the loop is then lowered by
//! repeatedly choosing the highest-priority looplet style present and
//! running the corresponding lowerer, which carves the region into
//! subregions, truncates the other looplets, and recurses.

pub(crate) mod access;
pub(crate) mod loops;
pub(crate) mod statements;

use std::collections::HashMap;

use finch_cin::{Access, CinExpr, CinOp, IndexVar, TensorRef};
use finch_formats::{BoundTensor, LevelSpec, OutputBuilder};
use finch_ir::{BinOp, BufId, BufferSet, Expr, Names, UnOp};
use finch_rewrite::Rewriter;

use crate::error::CompileError;

/// A tensor bound into a kernel: either a structured input or an output
/// assembled through an [`OutputSink`].
#[derive(Debug, Clone)]
pub(crate) enum Binding {
    /// A read-only structured input.
    Input(BoundTensor),
    /// An output tensor under assembly.
    Output(OutputBinding),
}

/// Where a kernel's writes land: the concrete output format.
///
/// The lowering compiler is format-polymorphic on the output side of an
/// assignment; each sink knows which buffers the generated code writes and
/// what per-store / per-fiber code the compiler must emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputSink {
    /// A preallocated dense buffer written in place at linearised
    /// coordinates (the classic output; initialised by generated code).
    Dense {
        /// The values buffer.
        buf: BufId,
    },
    /// An append-assembled sparse list on the innermost dimension: every
    /// executed store appends the coordinate to `idx` and the value to
    /// `val`, and the loop driving the sparse dimension is followed by a
    /// `FiberEnd` that closes the fiber in `pos`.
    SparseList {
        /// Fiber boundaries (`nfibers + 1` entries once assembled).
        pos: BufId,
        /// Coordinates of stored entries, in visit order.
        idx: BufId,
        /// Values of stored entries, parallel to `idx`.
        val: BufId,
    },
}

/// An output tensor under assembly: its name and requested level stack
/// (held as the [`OutputBuilder`] that finalizes every read-back, so a
/// read-back borrows them instead of copying), fill/init value, and the
/// sink the generated code writes through.
#[derive(Debug, Clone)]
pub(crate) struct OutputBinding {
    pub builder: OutputBuilder,
    pub init: f64,
    pub sink: OutputSink,
}

impl OutputBinding {
    /// The requested level stack, outermost first.
    pub fn specs(&self) -> &[LevelSpec] {
        self.builder.specs()
    }

    /// The dimension sizes, outermost first.
    pub fn shape(&self) -> Vec<usize> {
        self.builder.shape()
    }

    /// Total number of elements of the dense materialisation.
    pub fn len(&self) -> usize {
        self.specs().iter().map(|s| s.size()).product::<usize>()
    }
}

/// A partially-resolved access: the next level of `tensor` to unfurl and
/// the position of the fiber within it.
#[derive(Debug, Clone)]
pub(crate) struct FiberHandle {
    pub tensor: TensorRef,
    pub level: usize,
    pub pos: Expr,
}

/// Look up a bound input tensor in `bindings` (borrowing only the map, so
/// the caller can unfurl it against the context's name table).
pub(crate) fn input_in<'a>(
    bindings: &'a HashMap<String, Binding>,
    name: &str,
) -> Result<&'a BoundTensor, CompileError> {
    match bindings.get(name) {
        Some(Binding::Input(t)) => Ok(t),
        Some(Binding::Output(_)) => Err(CompileError::Unsupported {
            detail: format!("tensor `{name}` is an output, expected an input"),
        }),
        None => Err(CompileError::UnknownTensor { name: name.to_string() }),
    }
}

/// The state threaded through lowering.
pub(crate) struct LowerCtx {
    pub names: Names,
    pub bufs: BufferSet,
    pub bindings: HashMap<String, Binding>,
    pub index_bindings: HashMap<IndexVar, Expr>,
    /// The indices of the loops enclosing the statement being lowered,
    /// outermost first (used to check that a sparse output's innermost
    /// dimension is driven by the innermost enclosing loop).
    pub loop_stack: Vec<IndexVar>,
    pub fibers: HashMap<TensorRef, FiberHandle>,
    pub rewriter: Rewriter,
    next_acc: usize,
}

impl LowerCtx {
    /// Create a context over already-bound tensors.
    pub fn new(
        names: Names,
        bufs: BufferSet,
        bindings: HashMap<String, Binding>,
        rewriter: Rewriter,
    ) -> Self {
        LowerCtx {
            names,
            bufs,
            bindings,
            index_bindings: HashMap::new(),
            loop_stack: Vec::new(),
            fibers: HashMap::new(),
            rewriter,
            next_acc: 0,
        }
    }

    /// A fresh placeholder name for a partially-resolved access.
    pub fn fresh_access_key(&mut self) -> TensorRef {
        let key = format!("__acc{}", self.next_acc);
        self.next_acc += 1;
        TensorRef::new(key)
    }

    /// Is this tensor name a compiler-internal placeholder?
    pub fn is_placeholder(name: &str) -> bool {
        name.starts_with("__acc")
    }

    /// Look up a bound input tensor.
    pub fn input(&self, name: &str) -> Result<&BoundTensor, CompileError> {
        input_in(&self.bindings, name)
    }

    /// Look up a bound output tensor.
    pub fn output(&self, name: &str) -> Result<&OutputBinding, CompileError> {
        match self.bindings.get(name) {
            Some(Binding::Output(o)) => Ok(o),
            Some(Binding::Input(_)) => {
                Err(CompileError::UnsupportedWrite { name: name.to_string() })
            }
            None => Err(CompileError::UnknownTensor { name: name.to_string() }),
        }
    }

    /// The currently-bound target expression of an index variable.
    pub fn index_expr(&self, index: &IndexVar) -> Result<Expr, CompileError> {
        self.index_bindings
            .get(index)
            .cloned()
            .ok_or_else(|| CompileError::UnboundIndex { index: index.name().to_string() })
    }

    /// Resolve a CIN expression, all of whose accesses must already be
    /// resolved (or refer to readable dense outputs / scalar inputs), to a
    /// target-IR expression.
    pub fn resolve_expr(&self, expr: &CinExpr) -> Result<Expr, CompileError> {
        match expr {
            CinExpr::Literal(v) => Ok(Expr::Lit(*v)),
            CinExpr::Dyn(e) => Ok(e.clone()),
            CinExpr::Index(i) => self.index_expr(i),
            CinExpr::Access(a) => self.resolve_access_expr(a),
            CinExpr::Call { op, args } => {
                let args: Vec<Expr> =
                    args.iter().map(|a| self.resolve_expr(a)).collect::<Result<_, _>>()?;
                self.resolve_call(*op, args)
            }
        }
    }

    fn resolve_access_expr(&self, a: &Access) -> Result<Expr, CompileError> {
        let name = a.tensor.name();
        if Self::is_placeholder(name) {
            // A placeholder that survived to expression resolution still has
            // unconsumed indices: the loop order cannot drive it.
            let original = self.fibers.get(name).map_or(name, |h| h.tensor.name());
            return Err(CompileError::NonConcordantAccess { name: original.to_string() });
        }
        match self.bindings.get(name) {
            None => Err(CompileError::UnknownTensor { name: name.to_string() }),
            Some(Binding::Output(out)) => match out.sink {
                OutputSink::Dense { buf } => {
                    let pos = self.linearize(name, &out.shape(), a)?;
                    Ok(Expr::load(buf, pos))
                }
                OutputSink::SparseList { .. } => Err(CompileError::Unsupported {
                    detail: format!(
                        "sparse output `{name}` cannot be read back inside the kernel; \
                         finalize it with `output_tensor` and re-bind it as an input"
                    ),
                }),
            },
            Some(Binding::Input(t)) => {
                if t.ndim() == 0 && a.indices.is_empty() {
                    Ok(t.scalar_value())
                } else {
                    Err(CompileError::NonConcordantAccess { name: name.to_string() })
                }
            }
        }
    }

    /// Row-major linearisation of a plain (modifier-free) access into a
    /// dense tensor of the given shape.
    pub fn linearize(&self, name: &str, shape: &[usize], a: &Access) -> Result<Expr, CompileError> {
        if a.indices.len() != shape.len() {
            return Err(CompileError::RankMismatch {
                name: name.to_string(),
                rank: shape.len(),
                indices: a.indices.len(),
            });
        }
        let mut pos = Expr::int(0);
        for (ix, &dim) in a.indices.iter().zip(shape.iter()) {
            let coord = match ix {
                finch_cin::IndexExpr::Var { index, .. } => self.index_expr(index)?,
                _ => {
                    return Err(CompileError::Unsupported {
                        detail: format!(
                            "index modifiers are not supported on dense access `{name}`"
                        ),
                    })
                }
            };
            pos = Expr::add(Expr::mul(pos, Expr::int(dim as i64)), coord).simplified();
        }
        Ok(pos)
    }

    fn resolve_call(&self, op: CinOp, args: Vec<Expr>) -> Result<Expr, CompileError> {
        let fold = |bin: BinOp, args: Vec<Expr>| -> Result<Expr, CompileError> {
            let mut it = args.into_iter();
            let first = it.next().ok_or_else(|| CompileError::Unsupported {
                detail: format!("operator `{}` applied to no arguments", op.name()),
            })?;
            Ok(it.fold(first, |acc, e| Expr::binary(bin, acc, e)))
        };
        let exactly2 = |bin: BinOp, args: Vec<Expr>| -> Result<Expr, CompileError> {
            if args.len() != 2 {
                return Err(CompileError::Unsupported {
                    detail: format!("operator `{}` expects two arguments", op.name()),
                });
            }
            let mut it = args.into_iter();
            let a = it.next().expect("two arguments");
            let b = it.next().expect("two arguments");
            Ok(Expr::binary(bin, a, b))
        };
        let exactly1 = |un: UnOp, mut args: Vec<Expr>| -> Result<Expr, CompileError> {
            if args.len() != 1 {
                return Err(CompileError::Unsupported {
                    detail: format!("operator `{}` expects one argument", op.name()),
                });
            }
            Ok(Expr::unary(un, args.remove(0)))
        };
        match op {
            CinOp::Add => fold(BinOp::Add, args),
            CinOp::Mul => fold(BinOp::Mul, args),
            CinOp::Min => fold(BinOp::Min, args),
            CinOp::Max => fold(BinOp::Max, args),
            CinOp::And => fold(BinOp::And, args),
            CinOp::Or => fold(BinOp::Or, args),
            CinOp::Sub => exactly2(BinOp::Sub, args),
            CinOp::Div => exactly2(BinOp::Div, args),
            CinOp::Eq => exactly2(BinOp::Eq, args),
            CinOp::Ne => exactly2(BinOp::Ne, args),
            CinOp::Lt => exactly2(BinOp::Lt, args),
            CinOp::Le => exactly2(BinOp::Le, args),
            CinOp::Gt => exactly2(BinOp::Gt, args),
            CinOp::Ge => exactly2(BinOp::Ge, args),
            CinOp::Coalesce => Ok(Expr::coalesce(args)),
            CinOp::Sqrt => exactly1(UnOp::Sqrt, args),
            CinOp::Abs => exactly1(UnOp::Abs, args),
            CinOp::Round => exactly1(UnOp::Round, args),
            CinOp::Neg => exactly1(UnOp::Neg, args),
            CinOp::Not => exactly1(UnOp::Not, args),
        }
    }

    /// Map a CIN reduction operator onto a target-IR store reduction.
    pub fn reduce_op(op: CinOp) -> Result<BinOp, CompileError> {
        match op {
            CinOp::Add => Ok(BinOp::Add),
            CinOp::Mul => Ok(BinOp::Mul),
            CinOp::Min => Ok(BinOp::Min),
            CinOp::Max => Ok(BinOp::Max),
            CinOp::And => Ok(BinOp::And),
            CinOp::Or => Ok(BinOp::Or),
            other => Err(CompileError::Unsupported {
                detail: format!("`{}` is not a supported reduction operator", other.name()),
            }),
        }
    }
}
