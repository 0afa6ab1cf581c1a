//! Statements of concrete index notation.

use crate::expr::{CinExpr, CinOp};
use crate::index::{Access, IndexVar, TensorRef};

/// How an assignment combines the computed value with the existing output
/// element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// `A[i] = e` — overwrite.
    Overwrite,
    /// `A[i] <<op>>= e` — combine with the given operator (`+=`, `*=`,
    /// `min=`, ...).
    Reduce(CinOp),
}

impl Reduction {
    /// The reduction's operator, when it has one.
    pub fn op(self) -> Option<CinOp> {
        match self {
            Reduction::Overwrite => None,
            Reduction::Reduce(op) => Some(op),
        }
    }
}

/// A statement of (extended) concrete index notation.
#[derive(Debug, Clone, PartialEq)]
pub enum CinStmt {
    /// Update a single output element.
    Assign {
        /// The output access.
        lhs: Access,
        /// How the value is combined with the existing element.
        reduction: Reduction,
        /// The pointwise expression computed.
        rhs: CinExpr,
    },
    /// Repeat the body for each value of an index variable.
    Forall {
        /// The quantified index.
        index: IndexVar,
        /// An explicit extent (inclusive bounds); when absent the extent is
        /// inferred from the dimensions of accessed tensors.
        extent: Option<(CinExpr, CinExpr)>,
        /// The repeated statement.
        body: Box<CinStmt>,
    },
    /// `consumer where producer`: compute the producer's results, then run
    /// the consumer which may read them.
    Where {
        /// The statement that uses the produced results.
        consumer: Box<CinStmt>,
        /// The statement that produces intermediate results.
        producer: Box<CinStmt>,
    },
    /// Compute several statements at once.
    Multi(
        /// The constituent statements.
        Vec<CinStmt>,
    ),
    /// Only execute the body on iterations where the condition holds.
    Sieve {
        /// The guard condition.
        cond: CinExpr,
        /// The guarded statement.
        body: Box<CinStmt>,
    },
    /// A no-op that only remembers which outputs it is not writing to.
    Pass(
        /// The outputs left unmodified.
        Vec<TensorRef>,
    ),
}

impl CinStmt {
    /// The result tensors of the statement (paper §5.1): the outputs an
    /// enclosing `where` would have to initialise.
    pub fn results(&self) -> Vec<TensorRef> {
        match self {
            CinStmt::Assign { lhs, .. } => vec![lhs.tensor.clone()],
            CinStmt::Forall { body, .. } | CinStmt::Sieve { body, .. } => body.results(),
            CinStmt::Where { consumer, .. } => consumer.results(),
            CinStmt::Multi(stmts) => {
                let mut out = Vec::new();
                for s in stmts {
                    for r in s.results() {
                        if !out.contains(&r) {
                            out.push(r);
                        }
                    }
                }
                out
            }
            CinStmt::Pass(ts) => ts.clone(),
        }
    }

    /// Visit every statement node (pre-order).
    pub fn visit(&self, f: &mut dyn FnMut(&CinStmt)) {
        f(self);
        match self {
            CinStmt::Forall { body, .. } | CinStmt::Sieve { body, .. } => body.visit(f),
            CinStmt::Where { consumer, producer } => {
                producer.visit(f);
                consumer.visit(f);
            }
            CinStmt::Multi(stmts) => stmts.iter().for_each(|s| s.visit(f)),
            CinStmt::Assign { .. } | CinStmt::Pass(_) => {}
        }
    }

    /// Rewrite every expression in the statement tree in place with `f`
    /// (applied via [`CinExpr::rewrite`], i.e. bottom-up within each
    /// expression).  Returns whether any expression node was replaced.
    pub fn rewrite_exprs(&mut self, f: &mut dyn FnMut(&CinExpr) -> Option<CinExpr>) -> bool {
        match self {
            CinStmt::Assign { rhs, .. } => rhs.rewrite(f),
            CinStmt::Forall { extent, body, .. } => {
                let mut changed = false;
                if let Some((lo, hi)) = extent {
                    changed |= lo.rewrite(f);
                    changed |= hi.rewrite(f);
                }
                changed | body.rewrite_exprs(f)
            }
            CinStmt::Where { consumer, producer } => {
                consumer.rewrite_exprs(f) | producer.rewrite_exprs(f)
            }
            CinStmt::Multi(stmts) => stmts.iter_mut().fold(false, |c, s| c | s.rewrite_exprs(f)),
            CinStmt::Sieve { cond, body } => cond.rewrite(f) | body.rewrite_exprs(f),
            CinStmt::Pass(_) => false,
        }
    }

    /// Rewrite statement nodes bottom-up, in place: children first, then a
    /// node for which `f` returns a different node is replaced.  Returns
    /// whether any node was replaced.
    pub fn rewrite_stmts(&mut self, f: &mut dyn FnMut(&CinStmt) -> Option<CinStmt>) -> bool {
        let changed = match self {
            CinStmt::Assign { .. } | CinStmt::Pass(_) => false,
            CinStmt::Forall { body, .. } | CinStmt::Sieve { body, .. } => body.rewrite_stmts(f),
            CinStmt::Where { consumer, producer } => {
                consumer.rewrite_stmts(f) | producer.rewrite_stmts(f)
            }
            CinStmt::Multi(stmts) => stmts.iter_mut().fold(false, |c, s| c | s.rewrite_stmts(f)),
        };
        match f(self) {
            Some(new) if new != *self => {
                *self = new;
                true
            }
            _ => changed,
        }
    }

    /// All read accesses appearing in right-hand sides and conditions.
    pub fn read_accesses(&self) -> Vec<Access> {
        let mut out = Vec::new();
        self.visit(&mut |s| match s {
            CinStmt::Assign { rhs, .. } => out.extend(rhs.accesses()),
            CinStmt::Sieve { cond, .. } => out.extend(cond.accesses()),
            _ => {}
        });
        out
    }

    /// All output (left-hand-side) accesses.
    pub fn write_accesses(&self) -> Vec<Access> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if let CinStmt::Assign { lhs, .. } = s {
                out.push(lhs.clone());
            }
        });
        out
    }

    /// Is the statement a `pass` (possibly an empty `multi` of passes)?
    /// Used by the rewrite engine to drop loops whose bodies do nothing.
    pub fn is_pass(&self) -> bool {
        match self {
            CinStmt::Pass(_) => true,
            CinStmt::Multi(stmts) => stmts.iter().all(|s| s.is_pass()),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn results_of_nested_statements() {
        let i = idx("i");
        let s = forall(i.clone(), add_assign(access("y", [i.clone()]), access("A", [i])));
        assert_eq!(s.results(), vec![TensorRef::new("y")]);

        let w = where_(s.clone(), assign(scalar("t"), lit(1.0)));
        assert_eq!(w.results(), vec![TensorRef::new("y")]);

        let m = CinStmt::Multi(vec![s, assign(scalar("z"), lit(0.0))]);
        assert_eq!(m.results(), vec![TensorRef::new("y"), TensorRef::new("z")]);
    }

    #[test]
    fn read_and_write_accesses_are_separated() {
        let i = idx("i");
        let s = forall(
            i.clone(),
            add_assign(access("y", [i.clone()]), mul(access("A", [i.clone()]), access("x", [i]))),
        );
        let reads: Vec<_> = s.read_accesses().iter().map(|a| a.tensor.name().to_string()).collect();
        let writes: Vec<_> =
            s.write_accesses().iter().map(|a| a.tensor.name().to_string()).collect();
        assert_eq!(reads, vec!["A", "x"]);
        assert_eq!(writes, vec!["y"]);
    }

    #[test]
    fn is_pass_sees_through_multi() {
        let p = CinStmt::Pass(vec![TensorRef::new("C")]);
        assert!(p.is_pass());
        assert!(CinStmt::Multi(vec![p.clone(), p.clone()]).is_pass());
        let a = assign(scalar("C"), lit(1.0));
        assert!(!a.is_pass());
        assert!(!CinStmt::Multi(vec![p, a]).is_pass());
    }

    #[test]
    fn rewrite_stmts_can_replace_nested_nodes() {
        let i = idx("i");
        let mut out = forall(i.clone(), add_assign(scalar("C"), lit(0.0)));
        // Replace any assignment adding literal zero with a pass.
        let changed = out.rewrite_stmts(&mut |node| match node {
            CinStmt::Assign { lhs, rhs, .. }
                if rhs.as_literal().map(|v| v.is_zero()) == Some(true) =>
            {
                Some(CinStmt::Pass(vec![lhs.tensor.clone()]))
            }
            _ => None,
        });
        assert!(changed);
        match out {
            CinStmt::Forall { body, .. } => assert!(body.is_pass()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reduction_op_accessor() {
        assert_eq!(Reduction::Overwrite.op(), None);
        assert_eq!(Reduction::Reduce(CinOp::Add).op(), Some(CinOp::Add));
    }
}
