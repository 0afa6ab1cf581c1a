//! The dense meaning of a CIN program: the one oracle every compiled kernel
//! is checked against.
//!
//! [`eval`] runs a [`CinStmt`] directly over each input's
//! [`Tensor::to_dense`], the function from coordinates to values (the fill
//! where nothing is stored) that every format denotes.  It depends on
//! nothing of the compiler, so a compiler bug cannot cancel out of the
//! comparison; scalars are `finch-ir`'s [`Value`] arithmetic.
//!
//! - `forall` runs its body over its extent in ascending order: the explicit
//!   one, else the dimension of the first input read through a plain index
//!   of the loop, else of the first output written through one;
//! - `offset(d)[i]` reads the parent at `i - d`, `window(lo, hi)[i]` at
//!   `lo + i` for `i` in `0..=hi - lo`; out of range under `permit` reads
//!   `Missing`, and `coalesce` picks its first argument that is not;
//! - `where` re-initialises the producer's outputs each time it is entered;
//!   `multi` runs in order; `sieve` runs where its condition holds (a
//!   `Missing` one does not); an assignment overwrites or folds `old op
//!   value`, in loop order.
//!
//! A compiled kernel equals this meaning under [`same_value`]: the
//! compiler's `x * 0 → 0` makes the sign of a zero depend on the input
//! formats, so `-0.0` and `0.0` are one value here.

use finch_cin::{Access, CinExpr, CinOp, CinStmt, IndexExpr, IndexVar, Reduction};
use finch_formats::Tensor;
use finch_ir::{BinOp, RuntimeError, UnOp, Value};

/// Whether a computed value is the dense meaning's: equal as floats (so
/// `-0.0` equals `0.0`), or both NaN.
pub fn same_value(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// The dense meaning of `program` over `inputs`: one row-major array per
/// declared output `(name, shape, init)`, in declaration order (a scalar's
/// shape is empty; every element starts at `init`).
///
/// # Errors
///
/// Names the first thing that has no meaning: an unbound tensor or index,
/// a rank mismatch, an out-of-range read that no `permit` allows, a loop
/// whose extent cannot be inferred, an ill-typed operator, or a `Missing`
/// value stored into an output.
pub fn eval(
    program: &CinStmt,
    inputs: &[&Tensor],
    outputs: &[(&str, &[usize], f64)],
) -> Result<Vec<Vec<f64>>, String> {
    let dense = |name: &str, shape: &[usize], values, init| Dense {
        name: name.into(),
        shape: shape.to_vec(),
        values,
        init,
    };
    let inputs = inputs.iter().map(|t| dense(t.name(), &t.shape(), t.to_dense(), None));
    let outputs = outputs.iter().map(|&(name, shape, init)| {
        dense(name, shape, vec![init; shape.iter().product()], Some(init))
    });
    let mut m = Machine { tensors: inputs.chain(outputs).collect(), env: Vec::new() };
    m.exec(program)?;
    Ok(m.tensors.into_iter().filter(|t| t.init.is_some()).map(|t| t.values).collect())
}

/// A tensor as its dense array.
struct Dense {
    name: String,
    shape: Vec<usize>,
    values: Vec<f64>,
    /// An output's initial value; `None` for an input.
    init: Option<f64>,
}

struct Machine {
    /// The inputs, then the outputs.
    tensors: Vec<Dense>,
    /// The enclosing loops' coordinates, outermost first.
    env: Vec<(IndexVar, i64)>,
}

fn err(e: RuntimeError) -> String {
    e.to_string()
}

impl Machine {
    fn exec(&mut self, stmt: &CinStmt) -> Result<(), String> {
        match stmt {
            CinStmt::Pass(_) => {}
            CinStmt::Multi(stmts) => stmts.iter().try_for_each(|s| self.exec(s))?,
            CinStmt::Sieve { cond, body } => {
                let cond = self.expr(cond)?;
                if !cond.is_missing() && cond.as_bool().map_err(err)? {
                    self.exec(body)?;
                }
            }
            CinStmt::Where { consumer, producer } => {
                for result in producer.results() {
                    let k = self.output(result.name())?;
                    let out = &mut self.tensors[k];
                    out.values.fill(out.init.unwrap_or_default());
                }
                self.exec(producer)?;
                self.exec(consumer)?;
            }
            CinStmt::Forall { index, extent, body } => {
                let (lo, hi) = match extent {
                    Some((lo, hi)) => (self.int(lo)?, self.int(hi)?),
                    None => (0, self.infer_extent(index, body)? as i64 - 1),
                };
                for i in lo..=hi {
                    self.env.push((index.clone(), i));
                    self.exec(body)?;
                    self.env.pop();
                }
            }
            CinStmt::Assign { lhs, reduction, rhs } => {
                let value = self.expr(rhs)?;
                let k = self.output(lhs.tensor.name())?;
                let p = self.position(&self.tensors[k], &lhs.indices)?.ok_or("a store outside")?;
                let old = &mut self.tensors[k].values[p];
                let value = match reduction {
                    Reduction::Overwrite => value,
                    Reduction::Reduce(op) => {
                        Value::binop(bin_op(*op)?, Value::Float(*old), value).map_err(err)?
                    }
                };
                if value.is_missing() {
                    return Err(format!("a missing value stored into `{}`", lhs.tensor));
                }
                *old = value.as_float().map_err(err)?;
            }
        }
        Ok(())
    }

    /// The position in `tensors` of the one named `name`: an output
    /// (`Some(true)`), an input (`Some(false)`) or either (`None`).
    fn find(&self, name: &str, output: Option<bool>) -> Option<usize> {
        let kind = |t: &Dense| output.is_none_or(|output| t.init.is_some() == output);
        self.tensors.iter().position(|t| t.name == name && kind(t))
    }

    fn output(&self, name: &str) -> Result<usize, String> {
        self.find(name, Some(true)).ok_or_else(|| format!("`{name}` is not an output"))
    }

    fn infer_extent(&self, index: &IndexVar, body: &CinStmt) -> Result<usize, String> {
        let plain = |ix: &&IndexExpr| matches!(ix, IndexExpr::Var { index: v, .. } if v == index);
        let dim = |a: Access, output| {
            let t = &self.tensors[self.find(a.tensor.name(), Some(output))?];
            a.indices.iter().zip(&t.shape).find(|(ix, _)| plain(ix)).map(|(_, &dim)| dim)
        };
        let reads = body.read_accesses().into_iter().find_map(|a| dim(a, false));
        let writes = || body.write_accesses().into_iter().find_map(|a| dim(a, true));
        reads.or_else(writes).ok_or_else(|| format!("cannot infer the extent of `{index}`"))
    }

    fn index(&self, index: &IndexVar) -> Result<i64, String> {
        let bound = self.env.iter().rev().find(|(v, _)| v == index);
        bound.map(|&(_, i)| i).ok_or_else(|| format!("index `{index}` is unbound"))
    }

    fn int(&self, e: &CinExpr) -> Result<i64, String> {
        self.expr(e)?.as_int().map_err(err)
    }

    /// The coordinate `ix` reads in its tensor's mode, and whether a
    /// `permit` lets it fall outside.
    fn coord(&self, ix: &IndexExpr) -> Result<(i64, bool), String> {
        Ok(match ix {
            IndexExpr::Var { index, .. } => (self.index(index)?, false),
            IndexExpr::Offset { delta, base } => {
                let (c, permit) = self.coord(base)?;
                (c - self.int(delta)?, permit)
            }
            IndexExpr::Window { lo, hi, base } => {
                let ((c, permit), lo) = (self.coord(base)?, self.int(lo)?);
                // Past its slice a window reads past its parent, at -1.
                let inside = (0..=self.int(hi)? - lo).contains(&c);
                (if inside { lo + c } else { -1 }, permit)
            }
            IndexExpr::Permit { base } => (self.coord(base)?.0, true),
        })
    }

    /// The row-major position `indices` read in `t`, or `None` where a
    /// permitted coordinate falls outside it.
    fn position(&self, t: &Dense, indices: &[IndexExpr]) -> Result<Option<usize>, String> {
        if indices.len() != t.shape.len() {
            return Err(format!(
                "`{}` has rank {}, accessed with {}",
                t.name,
                t.shape.len(),
                indices.len()
            ));
        }
        let mut p = 0;
        for (ix, &dim) in indices.iter().zip(&t.shape) {
            let (c, permit) = self.coord(ix)?;
            match usize::try_from(c) {
                Ok(c) if c < dim => p = p * dim + c,
                _ if permit => return Ok(None),
                _ => return Err(format!("`{}` read at {c}, outside 0..{dim}", t.name)),
            }
        }
        Ok(Some(p))
    }

    fn expr(&self, e: &CinExpr) -> Result<Value, String> {
        match e {
            CinExpr::Literal(v) => Ok(*v),
            CinExpr::Dyn(ir) => ir.as_lit().ok_or_else(|| format!("an IR escape `{ir:?}`")),
            CinExpr::Index(index) => Ok(Value::Int(self.index(index)?)),
            CinExpr::Access(a) => {
                let k = self.find(a.tensor.name(), None);
                let t = &self.tensors[k.ok_or_else(|| format!("`{}` is not bound", a.tensor))?];
                Ok(self
                    .position(t, &a.indices)?
                    .map_or(Value::Missing, |p| Value::Float(t.values[p])))
            }
            CinExpr::Call { op, args } => {
                let args = args.iter().map(|a| self.expr(a)).collect::<Result<Vec<_>, _>>()?;
                call(*op, &args)
            }
        }
    }
}

fn call(op: CinOp, args: &[Value]) -> Result<Value, String> {
    let unary = match op {
        CinOp::Sqrt => Some(UnOp::Sqrt),
        CinOp::Abs => Some(UnOp::Abs),
        CinOp::Round => Some(UnOp::Round),
        CinOp::Neg => Some(UnOp::Neg),
        CinOp::Not => Some(UnOp::Not),
        _ => None,
    };
    let value = match (unary, args) {
        (Some(un), [a]) => Value::unop(un, *a),
        (None, _) if op == CinOp::Coalesce => {
            return Ok(args.iter().copied().find(|v| !v.is_missing()).unwrap_or(Value::Missing))
        }
        (None, [first, rest @ ..]) if op.is_variadic() || rest.len() == 1 => {
            let bin = bin_op(op)?;
            rest.iter().try_fold(*first, |acc, &x| Value::binop(bin, acc, x))
        }
        _ => return Err(format!("`{}` applied to {} argument(s)", op.name(), args.len())),
    };
    value.map_err(err)
}

fn bin_op(op: CinOp) -> Result<BinOp, String> {
    Ok(match op {
        CinOp::Add => BinOp::Add,
        CinOp::Sub => BinOp::Sub,
        CinOp::Mul => BinOp::Mul,
        CinOp::Div => BinOp::Div,
        CinOp::Min => BinOp::Min,
        CinOp::Max => BinOp::Max,
        CinOp::And => BinOp::And,
        CinOp::Or => BinOp::Or,
        CinOp::Eq => BinOp::Eq,
        CinOp::Ne => BinOp::Ne,
        CinOp::Lt => BinOp::Lt,
        CinOp::Le => BinOp::Le,
        CinOp::Gt => BinOp::Gt,
        CinOp::Ge => BinOp::Ge,
        other => return Err(format!("`{}` is not a binary operator", other.name())),
    })
}
