//! Pointwise expressions of concrete index notation.

use finch_ir::{Expr, Value};

use crate::index::{Access, IndexVar};

/// The pointwise operators available in CIN expressions.
///
/// Operators with identities/annihilators are understood by the rewrite
/// engine (`finch-rewrite`), which is how sparse and structural
/// optimisations such as zero-annihilation are expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CinOp {
    /// n-ary addition.
    Add,
    /// Binary subtraction.
    Sub,
    /// n-ary multiplication.
    Mul,
    /// Binary division.
    Div,
    /// n-ary minimum.
    Min,
    /// n-ary maximum.
    Max,
    /// n-ary logical and.
    And,
    /// n-ary logical or.
    Or,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// First non-missing argument (paper §8).
    Coalesce,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Round and clamp to `0..=255` (`round(UInt8, ...)` in the paper's
    /// alpha-blending kernel).
    Round,
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

impl CinOp {
    /// The printed name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            CinOp::Add => "+",
            CinOp::Sub => "-",
            CinOp::Mul => "*",
            CinOp::Div => "/",
            CinOp::Min => "min",
            CinOp::Max => "max",
            CinOp::And => "&&",
            CinOp::Or => "||",
            CinOp::Eq => "==",
            CinOp::Ne => "!=",
            CinOp::Lt => "<",
            CinOp::Le => "<=",
            CinOp::Gt => ">",
            CinOp::Ge => ">=",
            CinOp::Coalesce => "coalesce",
            CinOp::Sqrt => "sqrt",
            CinOp::Abs => "abs",
            CinOp::Round => "round",
            CinOp::Neg => "neg",
            CinOp::Not => "!",
        }
    }

    /// Whether the operator is associative and may be written with any
    /// number of arguments (flattened by the rewrite engine).
    pub fn is_variadic(self) -> bool {
        matches!(
            self,
            CinOp::Add
                | CinOp::Mul
                | CinOp::Min
                | CinOp::Max
                | CinOp::And
                | CinOp::Or
                | CinOp::Coalesce
        )
    }

    /// The identity element of the operator, if it has one.
    pub fn identity(self) -> Option<Value> {
        match self {
            CinOp::Add => Some(Value::Float(0.0)),
            CinOp::Mul => Some(Value::Float(1.0)),
            CinOp::Min => Some(Value::Float(f64::INFINITY)),
            CinOp::Max => Some(Value::Float(f64::NEG_INFINITY)),
            CinOp::And => Some(Value::Bool(true)),
            CinOp::Or => Some(Value::Bool(false)),
            _ => None,
        }
    }

    /// The annihilator of the operator, if it has one (`x * 0 = 0`,
    /// `x && false = false`, ...).
    pub fn annihilator(self) -> Option<Value> {
        match self {
            CinOp::Mul => Some(Value::Float(0.0)),
            CinOp::And => Some(Value::Bool(false)),
            CinOp::Or => Some(Value::Bool(true)),
            _ => None,
        }
    }
}

/// A pointwise CIN expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CinExpr {
    /// A literal value.
    Literal(Value),
    /// An index variable used as a value.
    Index(IndexVar),
    /// An escaped target-IR expression (the paper's `$value` escape); the
    /// compiler introduces these as it progressively resolves accesses.
    Dyn(Expr),
    /// A tensor access.
    Access(Access),
    /// A pointwise function application.
    Call {
        /// The operator applied.
        op: CinOp,
        /// Its arguments.
        args: Vec<CinExpr>,
    },
}

impl CinExpr {
    /// Integer literal.
    pub fn int(x: i64) -> CinExpr {
        CinExpr::Literal(Value::Int(x))
    }

    /// Float literal.
    pub fn float(x: f64) -> CinExpr {
        CinExpr::Literal(Value::Float(x))
    }

    /// Build a call.
    pub fn call(op: CinOp, args: Vec<CinExpr>) -> CinExpr {
        CinExpr::Call { op, args }
    }

    /// If the expression is a literal (directly or behind a `Dyn` escape),
    /// return its value.
    pub fn as_literal(&self) -> Option<Value> {
        match self {
            CinExpr::Literal(v) => Some(*v),
            CinExpr::Dyn(e) => e.as_lit(),
            _ => None,
        }
    }

    /// Rewrite the expression bottom-up, in place: `f` is applied to every
    /// node after its children, and a node for which it returns a different
    /// node is replaced.  Returns whether any node was replaced (an equal
    /// replacement does not count, so a rule that fires without changing
    /// anything cannot keep a fixpoint loop going).
    pub fn rewrite(&mut self, f: &mut dyn FnMut(&CinExpr) -> Option<CinExpr>) -> bool {
        let mut changed = false;
        if let CinExpr::Call { args, .. } = self {
            for a in args {
                changed |= a.rewrite(f);
            }
        }
        match f(self) {
            Some(new) if new != *self => {
                *self = new;
                true
            }
            _ => changed,
        }
    }

    /// Visit every node (pre-order).
    pub fn visit(&self, f: &mut dyn FnMut(&CinExpr)) {
        f(self);
        if let CinExpr::Call { args, .. } = self {
            args.iter().for_each(|a| a.visit(f));
        }
    }

    /// Collect all accesses appearing in the expression.
    pub fn accesses(&self) -> Vec<Access> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let CinExpr::Access(a) = e {
                out.push(a.clone());
            }
        });
        out
    }

    /// Does the expression mention the given index variable (either as a
    /// value or inside an access)?
    pub fn mentions_index(&self, index: &IndexVar) -> bool {
        let mut found = false;
        self.visit(&mut |e| match e {
            CinExpr::Index(v) if v == index => found = true,
            CinExpr::Access(a) if a.index_vars().iter().any(|v| v == index) => {
                found = true;
            }
            _ => {}
        });
        found
    }
}

impl From<Value> for CinExpr {
    fn from(v: Value) -> Self {
        CinExpr::Literal(v)
    }
}

impl From<f64> for CinExpr {
    fn from(v: f64) -> Self {
        CinExpr::float(v)
    }
}

impl From<i64> for CinExpr {
    fn from(v: i64) -> Self {
        CinExpr::int(v)
    }
}

impl From<Access> for CinExpr {
    fn from(a: Access) -> Self {
        CinExpr::Access(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexVar;

    #[test]
    fn identities_and_annihilators() {
        assert!(CinOp::Add.identity().unwrap().is_zero());
        assert!(CinOp::Mul.identity().unwrap().is_one());
        assert!(CinOp::Mul.annihilator().unwrap().is_zero());
        assert_eq!(CinOp::And.annihilator(), Some(Value::Bool(false)));
        assert_eq!(CinOp::Sub.identity(), None);
    }

    #[test]
    fn variadic_operators() {
        assert!(CinOp::Add.is_variadic());
        assert!(CinOp::Coalesce.is_variadic());
        assert!(!CinOp::Sub.is_variadic());
        assert!(!CinOp::Eq.is_variadic());
    }

    #[test]
    fn accesses_are_collected() {
        let i = IndexVar::new("i");
        let a = Access::new("A", vec![i.clone().into()]);
        let b = Access::new("B", vec![i.clone().into()]);
        let e = CinExpr::call(
            CinOp::Mul,
            vec![a.clone().into(), b.clone().into(), CinExpr::float(2.0)],
        );
        let acc = e.accesses();
        assert_eq!(acc.len(), 2);
        assert!(e.mentions_index(&i));
        assert!(!e.mentions_index(&IndexVar::new("j")));
    }

    #[test]
    fn rewrite_works_bottom_up_and_reports_replacements() {
        let mut e = CinExpr::call(CinOp::Add, vec![CinExpr::int(1), CinExpr::int(2)]);
        let fold = &mut |node: &CinExpr| match node {
            CinExpr::Call { op: CinOp::Add, args } => {
                let sum: i64 = args.iter().filter_map(|a| a.as_literal()?.as_int().ok()).sum();
                Some(CinExpr::int(sum))
            }
            _ => None,
        };
        assert!(e.rewrite(fold));
        assert_eq!(e.as_literal(), Some(Value::Int(3)));
        // Nothing left to fold; and a replacement by an equal node is none.
        assert!(!e.rewrite(fold));
        assert!(!e.rewrite(&mut |node| Some(node.clone())));
        assert_eq!(e.as_literal(), Some(Value::Int(3)));
    }

    #[test]
    fn as_literal_sees_through_dyn_escapes() {
        let e = CinExpr::Dyn(finch_ir::Expr::float(4.0));
        assert_eq!(e.as_literal(), Some(Value::Float(4.0)));
        let e = CinExpr::Index(IndexVar::new("i"));
        assert_eq!(e.as_literal(), None);
    }
}
