//! Expressions of the target IR.
//!
//! Expressions are pure (they never mutate buffers or variables) and are
//! built from literals, variables, buffer loads, unary/binary operators, a
//! ternary select, an n-ary `coalesce` (the paper's `missing`-eliminating
//! operator, §8), and a sorted-search intrinsic used by stepper/jumper
//! `seek` functions to implement skipping and galloping.
//!
//! **Trees are immutable once built, and shared.**  Lowering re-emits the
//! same bounds, strides and bodies once per subregion it carves out of a
//! loop, and every pass rebuilds the statements around expressions it does
//! not touch, so a node's children sit behind an [`Arc`]: cloning an
//! expression is a reference bump (no allocation, whatever its size), and a
//! rewrite ([`Expr::map`], [`Expr::substitute`], [`Expr::simplified`])
//! copies only the path from the root to what it changed and shares every
//! subtree it left alone.  Nothing on the compile path may deep-copy a
//! tree; there is no API that does.  The pointer type is named in this file
//! only — build expressions with the constructors ([`Expr::binary`],
//! [`Expr::load`], [`Expr::select`], [`Expr::search`], [`Expr::coalesce`],
//! ...), not with struct literals.

use std::fmt;
use std::sync::Arc;

use crate::buffer::BufId;
use crate::value::Value;
use crate::var::Var;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Logical and (operands coerced to booleans).
    And,
    /// Logical or.
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
}

impl BinOp {
    /// The source-level symbol of the operator (used by the pretty-printer).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }

    /// Whether the operator is printed as a function call (`min(a, b)`)
    /// rather than infix.
    pub fn is_call_style(self) -> bool {
        matches!(self, BinOp::Min | BinOp::Max)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
    /// Absolute value (used by the PackBits format's signed run lengths).
    Abs,
    /// Square root (used by the all-pairs image similarity kernel).
    Sqrt,
    /// Round-and-clamp to `0..=255` (the alpha blending kernel's
    /// `round(UInt8, ...)`).
    Round,
}

impl UnOp {
    /// The source-level name of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
            UnOp::Round => "round_u8",
        }
    }
}

/// A pure expression of the target IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A variable read.
    Var(Var),
    /// `buf[index]`.
    Load {
        /// The buffer read from.
        buf: BufId,
        /// Element index (0-based).
        index: Arc<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        arg: Arc<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Arc<Expr>,
        /// Right operand.
        rhs: Arc<Expr>,
    },
    /// `if cond { then } else { otherwise }` as an expression.
    Select {
        /// Condition.
        cond: Arc<Expr>,
        /// Value when the condition holds.
        then: Arc<Expr>,
        /// Value otherwise.
        otherwise: Arc<Expr>,
    },
    /// The first non-`missing` argument (all-`missing` yields `missing`).
    Coalesce(
        /// Candidate expressions, in priority order.
        Arc<[Expr]>,
    ),
    /// Lower-bound binary search: the first position `p` in `lo..=hi` such
    /// that `buf[p] >= key`, or `hi + 1` when no such position exists.
    ///
    /// When `on_abs` is set the comparison uses `abs(buf[p])`, which the
    /// PackBits format needs because it stores literal-region boundaries as
    /// negated coordinates.
    Search {
        /// The sorted coordinate buffer searched.
        buf: BufId,
        /// Lowest candidate position (inclusive).
        lo: Arc<Expr>,
        /// Highest candidate position (inclusive).
        hi: Arc<Expr>,
        /// The key searched for.
        key: Arc<Expr>,
        /// Compare against `abs(buf[p])` instead of `buf[p]`.
        on_abs: bool,
    },
}

impl Expr {
    /// Integer literal.
    pub fn int(x: i64) -> Expr {
        Expr::Lit(Value::Int(x))
    }

    /// Float literal.
    pub fn float(x: f64) -> Expr {
        Expr::Lit(Value::Float(x))
    }

    /// Boolean literal.
    pub fn bool(x: bool) -> Expr {
        Expr::Lit(Value::Bool(x))
    }

    /// The `missing` literal.
    pub fn missing() -> Expr {
        Expr::Lit(Value::Missing)
    }

    /// `buf[index]`.
    pub fn load(buf: BufId, index: Expr) -> Expr {
        Expr::Load { buf, index: Arc::new(index) }
    }

    /// Build a binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Arc::new(lhs), rhs: Arc::new(rhs) }
    }

    /// Build a unary operation.
    pub fn unary(op: UnOp, arg: Expr) -> Expr {
        Expr::Unary { op, arg: Arc::new(arg) }
    }

    /// `lhs + rhs`.
    #[allow(clippy::should_implement_trait)] // associated constructor, takes no `self`
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, lhs, rhs)
    }

    /// `min(lhs, rhs)`.
    pub fn min(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Min, lhs, rhs)
    }

    /// `max(lhs, rhs)`.
    pub fn max(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Max, lhs, rhs)
    }

    /// `lhs == rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Eq, lhs, rhs)
    }

    /// `lhs <= rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Le, lhs, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Lt, lhs, rhs)
    }

    /// `lhs >= rhs`.
    pub fn ge(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Ge, lhs, rhs)
    }

    /// `if cond { then } else { otherwise }`.
    pub fn select(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Select { cond: Arc::new(cond), then: Arc::new(then), otherwise: Arc::new(otherwise) }
    }

    /// The first non-`missing` of `args`.
    pub fn coalesce(args: Vec<Expr>) -> Expr {
        Expr::Coalesce(args.into())
    }

    /// The first position `p` in `lo..=hi` with `buf[p] >= key` (with
    /// `abs(buf[p]) >= key` when `on_abs`), or `hi + 1`.
    pub fn search(buf: BufId, lo: Expr, hi: Expr, key: Expr, on_abs: bool) -> Expr {
        Expr::Search { buf, lo: Arc::new(lo), hi: Arc::new(hi), key: Arc::new(key), on_abs }
    }

    /// Is this expression the literal value `v`?
    pub fn is_lit(&self, v: Value) -> bool {
        matches!(self, Expr::Lit(x) if *x == v)
    }

    /// If the expression is a literal, return it.
    pub fn as_lit(&self) -> Option<Value> {
        match self {
            Expr::Lit(v) => Some(*v),
            _ => None,
        }
    }

    /// Substitute every occurrence of variable `var` with `replacement`,
    /// returning the rewritten expression.
    ///
    /// Variables are globally unique (see [`crate::Names`]) so no capture can
    /// occur.
    pub fn substitute(&self, var: Var, replacement: &Expr) -> Expr {
        self.map(&mut |e| match e {
            Expr::Var(v) if *v == var => Some(replacement.clone()),
            _ => None,
        })
    }

    /// Rewrite the expression bottom-up: `f` is applied to every node after
    /// its children have been rewritten; returning `Some` replaces the node.
    ///
    /// Copy-on-write: a subtree in which `f` fires nowhere is shared with
    /// `self` (the same [`Arc`]), not rebuilt.
    pub fn map(&self, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
        self.rewritten(f).unwrap_or_else(|| self.clone())
    }

    /// [`Expr::map`], but `None` when `f` fired nowhere in the tree: the
    /// caller keeps the expression it has.
    fn rewritten(&self, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
        // A child after the rewrite: the new subtree, or the old one shared.
        fn child(new: Option<Expr>, old: &Arc<Expr>) -> Arc<Expr> {
            new.map_or_else(|| Arc::clone(old), Arc::new)
        }
        let rebuilt = match self {
            Expr::Lit(_) | Expr::Var(_) => None,
            Expr::Load { buf, index } => index.rewritten(f).map(|i| Expr::load(*buf, i)),
            Expr::Unary { op, arg } => arg.rewritten(f).map(|a| Expr::unary(*op, a)),
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (lhs.rewritten(f), rhs.rewritten(f));
                (l.is_some() || r.is_some()).then(|| Expr::Binary {
                    op: *op,
                    lhs: child(l, lhs),
                    rhs: child(r, rhs),
                })
            }
            Expr::Select { cond, then, otherwise } => {
                let (c, t, o) = (cond.rewritten(f), then.rewritten(f), otherwise.rewritten(f));
                (c.is_some() || t.is_some() || o.is_some()).then(|| Expr::Select {
                    cond: child(c, cond),
                    then: child(t, then),
                    otherwise: child(o, otherwise),
                })
            }
            Expr::Coalesce(args) => {
                let mut new: Option<Vec<Expr>> = None;
                for (k, a) in args.iter().enumerate() {
                    match (a.rewritten(f), &mut new) {
                        (Some(a), new) => new.get_or_insert_with(|| args[..k].to_vec()).push(a),
                        (None, Some(new)) => new.push(a.clone()),
                        (None, None) => {}
                    }
                }
                new.map(Expr::coalesce)
            }
            Expr::Search { buf, lo, hi, key, on_abs } => {
                let (l, h, k) = (lo.rewritten(f), hi.rewritten(f), key.rewritten(f));
                (l.is_some() || h.is_some() || k.is_some()).then(|| Expr::Search {
                    buf: *buf,
                    lo: child(l, lo),
                    hi: child(h, hi),
                    key: child(k, key),
                    on_abs: *on_abs,
                })
            }
        };
        match rebuilt {
            Some(rebuilt) => Some(f(&rebuilt).unwrap_or(rebuilt)),
            None => f(self),
        }
    }

    /// Collect the free variables of the expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        self.visit(&mut |e| {
            if let Expr::Var(v) = e {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        });
    }

    /// Does the expression mention variable `var`?
    pub fn mentions(&self, var: Var) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Var(v) = e {
                if *v == var {
                    found = true;
                }
            }
        });
        found
    }

    /// Visit every node of the expression tree (pre-order).
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Load { index, .. } => index.visit(f),
            Expr::Unary { arg, .. } => arg.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Select { cond, then, otherwise } => {
                cond.visit(f);
                then.visit(f);
                otherwise.visit(f);
            }
            Expr::Coalesce(args) => args.iter().for_each(|a| a.visit(f)),
            Expr::Search { lo, hi, key, .. } => {
                lo.visit(f);
                hi.visit(f);
                key.visit(f);
            }
        }
    }

    /// Perform a handful of purely syntactic simplifications that keep
    /// generated code readable: constant folding of integer arithmetic and
    /// `x + 0` / `x - 0` / `min(x, x)` style identities.
    ///
    /// This is *not* the structural rewrite engine of the paper (that lives
    /// in `finch-rewrite`); it only tidies index arithmetic.  By value: an
    /// expression no rule fires on is handed back as it came, without an
    /// allocation.
    pub fn simplified(self) -> Expr {
        let simplify = &mut |e: &Expr| match e {
            Expr::Binary { op, lhs, rhs } => {
                if let (Some(Value::Int(a)), Some(Value::Int(b))) = (lhs.as_lit(), rhs.as_lit()) {
                    if let Ok(v) = Value::binop(*op, Value::Int(a), Value::Int(b)) {
                        return Some(Expr::Lit(v));
                    }
                }
                match op {
                    BinOp::Add => {
                        if rhs.is_lit(Value::Int(0)) {
                            return Some((**lhs).clone());
                        }
                        if lhs.is_lit(Value::Int(0)) {
                            return Some((**rhs).clone());
                        }
                        None
                    }
                    BinOp::Sub if rhs.is_lit(Value::Int(0)) => Some((**lhs).clone()),
                    BinOp::Min | BinOp::Max if lhs == rhs => Some((**lhs).clone()),
                    _ => None,
                }
            }
            _ => None,
        };
        match self.rewritten(simplify) {
            Some(simpler) => simpler,
            None => self,
        }
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Self {
        Expr::Lit(v)
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Names;

    #[test]
    fn substitution_replaces_all_occurrences() {
        let mut names = Names::new();
        let i = names.fresh("i");
        let e = Expr::add(Expr::Var(i), Expr::mul(Expr::Var(i), Expr::int(2)));
        let s = e.substitute(i, &Expr::int(5));
        assert!(!s.mentions(i));
        let mut vars = Vec::new();
        s.collect_vars(&mut vars);
        assert!(vars.is_empty());
    }

    #[test]
    fn substitution_does_not_touch_other_vars() {
        let mut names = Names::new();
        let i = names.fresh("i");
        let j = names.fresh("j");
        let e = Expr::add(Expr::Var(i), Expr::Var(j));
        let s = e.substitute(i, &Expr::int(1));
        assert!(s.mentions(j));
    }

    #[test]
    fn simplify_folds_integer_arithmetic() {
        let e = Expr::add(Expr::int(2), Expr::int(3)).simplified();
        assert_eq!(e, Expr::int(5));
        let e = Expr::sub(Expr::mul(Expr::int(4), Expr::int(2)), Expr::int(0)).simplified();
        assert_eq!(e, Expr::int(8));
    }

    #[test]
    fn simplify_removes_additive_identity() {
        let mut names = Names::new();
        let x = names.fresh("x");
        let e = Expr::add(Expr::Var(x), Expr::int(0)).simplified();
        assert_eq!(e, Expr::Var(x));
        let e = Expr::add(Expr::int(0), Expr::Var(x)).simplified();
        assert_eq!(e, Expr::Var(x));
    }

    #[test]
    fn simplify_collapses_min_of_equal_operands() {
        let mut names = Names::new();
        let x = names.fresh("x");
        let e = Expr::min(Expr::Var(x), Expr::Var(x)).simplified();
        assert_eq!(e, Expr::Var(x));
    }

    #[test]
    fn collect_vars_deduplicates() {
        let mut names = Names::new();
        let i = names.fresh("i");
        let j = names.fresh("j");
        let e = Expr::add(Expr::Var(i), Expr::add(Expr::Var(j), Expr::Var(i)));
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn literal_predicates() {
        assert!(Expr::int(0).is_lit(Value::Int(0)));
        assert!(!Expr::int(1).is_lit(Value::Int(0)));
        assert_eq!(Expr::float(2.0).as_lit(), Some(Value::Float(2.0)));
        assert_eq!(Expr::missing().as_lit(), Some(Value::Missing));
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let e = Expr::select(Expr::bool(true), Expr::int(1), Expr::int(2));
        assert!(matches!(e, Expr::Select { .. }));
        let e = Expr::coalesce(vec![Expr::missing(), Expr::int(3)]);
        assert!(matches!(e, Expr::Coalesce(args) if args.len() == 2));
    }

    /// Seeded random expressions over a few variables, every node kind.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }

        fn expr(&mut self, depth: u32) -> Expr {
            if depth == 0 {
                return match self.next(3) {
                    0 => Expr::int(self.next(4) as i64),
                    1 => Expr::Var(Var(self.next(3) as u32)),
                    _ => Expr::float(0.5),
                };
            }
            let sub = |g: &mut Gen| g.expr(depth - 1);
            match self.next(7) {
                0 => Expr::load(BufId(0), sub(self)),
                1 => Expr::unary(UnOp::Neg, sub(self)),
                2 => Expr::add(sub(self), sub(self)),
                3 => Expr::min(sub(self), sub(self)),
                4 => Expr::select(sub(self), sub(self), sub(self)),
                5 => Expr::coalesce((0..self.next(4)).map(|_| sub(self)).collect()),
                _ => Expr::search(BufId(0), sub(self), sub(self), sub(self), false),
            }
        }
    }

    /// The plain recursive rebuild [`Expr::map`] used to be: every node is
    /// reconstructed whether or not anything below it changed.
    fn rebuild(e: &Expr, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = match e {
            Expr::Lit(_) | Expr::Var(_) => e.clone(),
            Expr::Load { buf, index } => Expr::load(*buf, rebuild(index, f)),
            Expr::Unary { op, arg } => Expr::unary(*op, rebuild(arg, f)),
            Expr::Binary { op, lhs, rhs } => Expr::binary(*op, rebuild(lhs, f), rebuild(rhs, f)),
            Expr::Select { cond, then, otherwise } => {
                Expr::select(rebuild(cond, f), rebuild(then, f), rebuild(otherwise, f))
            }
            Expr::Coalesce(args) => Expr::coalesce(args.iter().map(|a| rebuild(a, f)).collect()),
            Expr::Search { buf, lo, hi, key, on_abs } => {
                Expr::search(*buf, rebuild(lo, f), rebuild(hi, f), rebuild(key, f), *on_abs)
            }
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }

    #[test]
    fn map_calls_f_on_the_same_nodes_in_the_same_order_as_a_full_rebuild() {
        // Rules that fire at leaves, at inner nodes, and on what an earlier
        // firing produced (folding `lit + lit` after `%0` became a literal).
        let rules: [fn(&Expr) -> Option<Expr>; 3] = [
            |_| None,
            |e| matches!(e, Expr::Var(Var(0))).then(|| Expr::int(7)),
            |e| match e {
                Expr::Var(Var(0)) => Some(Expr::int(1)),
                Expr::Binary { op: BinOp::Add, lhs, rhs } => match (lhs.as_lit(), rhs.as_lit()) {
                    (Some(Value::Int(a)), Some(Value::Int(b))) => Some(Expr::int(a + b)),
                    _ => None,
                },
                Expr::Unary { arg, .. } => Some(Expr::clone(arg)),
                _ => None,
            },
        ];
        let mut gen = Gen(0x5eed);
        for case in 0..300 {
            let e = gen.expr(case % 5);
            for rule in rules {
                let (mut seen, mut seen_reference) = (Vec::new(), Vec::new());
                let mapped = e.map(&mut |node| {
                    seen.push(node.clone());
                    rule(node)
                });
                let reference = rebuild(&e, &mut |node| {
                    seen_reference.push(node.clone());
                    rule(node)
                });
                assert_eq!(mapped, reference, "case {case}: {e:?}");
                assert_eq!(seen, seen_reference, "case {case}: {e:?}");
            }
        }
    }

    #[test]
    fn a_map_that_never_fires_shares_every_child() {
        let mut gen = Gen(42);
        for case in 0..100 {
            let e = gen.expr(1 + case % 4);
            let mapped = e.map(&mut |_| None);
            assert_eq!(mapped, e);
            let shared = match (&e, &mapped) {
                (Expr::Load { index: a, .. }, Expr::Load { index: b, .. })
                | (Expr::Unary { arg: a, .. }, Expr::Unary { arg: b, .. }) => Arc::ptr_eq(a, b),
                (Expr::Binary { lhs: a, rhs: c, .. }, Expr::Binary { lhs: b, rhs: d, .. }) => {
                    Arc::ptr_eq(a, b) && Arc::ptr_eq(c, d)
                }
                (
                    Expr::Select { cond: a, then: c, otherwise: x },
                    Expr::Select { cond: b, then: d, otherwise: y },
                )
                | (
                    Expr::Search { lo: a, hi: c, key: x, .. },
                    Expr::Search { lo: b, hi: d, key: y, .. },
                ) => Arc::ptr_eq(a, b) && Arc::ptr_eq(c, d) && Arc::ptr_eq(x, y),
                (Expr::Coalesce(a), Expr::Coalesce(b)) => Arc::ptr_eq(a, b),
                _ => unreachable!("depth >= 1 is an inner node of the same kind"),
            };
            assert!(shared, "case {case}: {e:?}");
        }
    }

    #[test]
    fn a_map_that_fires_on_the_left_shares_the_right() {
        let mut names = Names::new();
        let (x, y) = (names.fresh("x"), names.fresh("y"));
        let right = Expr::mul(Expr::load(BufId(0), Expr::Var(y)), Expr::int(3));
        let e = Expr::add(Expr::sub(Expr::Var(x), Expr::int(1)), right);
        let mapped = e.substitute(x, &Expr::int(5));
        let (Expr::Binary { lhs, rhs, .. }, Expr::Binary { lhs: new_lhs, rhs: new_rhs, .. }) =
            (&e, &mapped)
        else {
            panic!("shape changed: {mapped:?}");
        };
        assert!(Arc::ptr_eq(rhs, new_rhs), "the untouched subtree is the same allocation");
        assert!(!Arc::ptr_eq(lhs, new_lhs));
        assert_eq!(**new_lhs, Expr::sub(Expr::int(5), Expr::int(1)));
        // `simplified` by value: what no rule touches comes back as it went in.
        let Expr::Binary { rhs: simplified_rhs, .. } = mapped.simplified() else {
            panic!("nothing folds the sum");
        };
        assert!(Arc::ptr_eq(rhs, &simplified_rhs));
    }

    #[test]
    fn operator_symbols_are_distinct() {
        use std::collections::HashSet;
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
            BinOp::And,
            BinOp::Or,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        let set: HashSet<_> = ops.iter().map(|o| o.symbol()).collect();
        assert_eq!(set.len(), ops.len());
    }
}
