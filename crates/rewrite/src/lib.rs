//! # finch-rewrite — the structural-simplification rewrite engine
//!
//! Finch expresses sparse and structural optimisations as **rewrite rules**
//! over concrete index notation (paper §6.1, Figure 5).  Because the
//! lowering compiler emits a *separate* expression for every subregion it
//! carves out of a loop, plain algebraic rules such as `x * 0 → 0` and
//! `C[] += 0 → pass` are enough to delete all the work associated with a
//! zero region — that is where the asymptotic wins of sparse code come from.
//!
//! The engine is deliberately extensible ("users can add custom rules for
//! the kinds of computations in their domain"): a [`Rewriter`] owns a list
//! of named expression rules and statement rules, applies them bottom-up to
//! a fixpoint, and accepts additional rules through
//! [`Rewriter::add_expr_rule`] / [`Rewriter::add_stmt_rule`].
//!
//! ```
//! use finch_cin::build::*;
//! use finch_rewrite::Rewriter;
//!
//! let rw = Rewriter::with_default_rules();
//! // C[] += 0 * x   ──►   @pass C
//! let stmt = add_assign(scalar("C"), mul(lit(0.0), access("x", [idx("i")])));
//! assert!(rw.simplify_stmt(&stmt).is_pass());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod rules;

use finch_cin::{CinExpr, CinStmt};

/// The boxed rewrite function of an [`ExprRule`].
pub type ExprRuleFn = Box<dyn Fn(&CinExpr) -> Option<CinExpr> + Send + Sync>;

/// The boxed rewrite function of a [`StmtRule`].
pub type StmtRuleFn = Box<dyn Fn(&CinStmt) -> Option<CinStmt> + Send + Sync>;

/// A named expression-rewrite rule.
///
/// The function receives an already-rebuilt node (its children have been
/// rewritten) and returns `Some(replacement)` to fire.
pub struct ExprRule {
    /// Human-readable rule name (shown in traces and tests).
    pub name: &'static str,
    /// The rewrite function.
    pub apply: ExprRuleFn,
}

/// A named statement-rewrite rule.
pub struct StmtRule {
    /// Human-readable rule name.
    pub name: &'static str,
    /// The rewrite function.
    pub apply: StmtRuleFn,
}

impl std::fmt::Debug for ExprRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExprRule").field("name", &self.name).finish()
    }
}

impl std::fmt::Debug for StmtRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmtRule").field("name", &self.name).finish()
    }
}

/// The rewrite engine: a rule set applied bottom-up to a fixpoint.
#[derive(Debug)]
pub struct Rewriter {
    expr_rules: Vec<ExprRule>,
    stmt_rules: Vec<StmtRule>,
    max_iterations: usize,
}

impl Default for Rewriter {
    fn default() -> Self {
        Rewriter::with_default_rules()
    }
}

impl Rewriter {
    /// An engine with no rules at all (useful for testing custom rules in
    /// isolation).
    pub fn empty() -> Self {
        Rewriter { expr_rules: Vec::new(), stmt_rules: Vec::new(), max_iterations: 20 }
    }

    /// An engine loaded with the paper's Figure-5 rule set: constant
    /// folding, operator flattening, identity removal, zero annihilation,
    /// `missing`/`coalesce` handling, sieve folding, pass propagation and
    /// invariant-loop collapsing.
    pub fn with_default_rules() -> Self {
        let mut rw = Rewriter::empty();
        rules::install_default_rules(&mut rw);
        rw
    }

    /// Register an additional expression rule (applied after the built-in
    /// ones).
    pub fn add_expr_rule(
        &mut self,
        name: &'static str,
        apply: impl Fn(&CinExpr) -> Option<CinExpr> + Send + Sync + 'static,
    ) {
        self.expr_rules.push(ExprRule { name, apply: Box::new(apply) });
    }

    /// Register an additional statement rule (applied after the built-in
    /// ones).
    pub fn add_stmt_rule(
        &mut self,
        name: &'static str,
        apply: impl Fn(&CinStmt) -> Option<CinStmt> + Send + Sync + 'static,
    ) {
        self.stmt_rules.push(StmtRule { name, apply: Box::new(apply) });
    }

    /// The names of all installed rules, expression rules first.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.expr_rules
            .iter()
            .map(|r| r.name)
            .chain(self.stmt_rules.iter().map(|r| r.name))
            .collect()
    }

    /// Simplify an expression: apply every expression rule bottom-up,
    /// repeating until a fixpoint (or an iteration cap) is reached.
    pub fn simplify_expr(&self, expr: &CinExpr) -> CinExpr {
        let mut current = expr.clone();
        for _ in 0..self.max_iterations {
            if !current.rewrite(&mut |node| self.apply_expr_rules(node)) {
                break;
            }
        }
        current
    }

    /// Simplify a statement: expressions first, then statement rules, again
    /// to a fixpoint.
    pub fn simplify_stmt(&self, stmt: &CinStmt) -> CinStmt {
        let mut current = stmt.clone();
        self.simplify_stmt_in_place(&mut current);
        current
    }

    /// [`Rewriter::simplify_stmt`] on a statement the caller owns: every
    /// round rewrites the tree where it stands, and the fixpoint is the
    /// round in which no rule replaced a node by a different one.
    pub fn simplify_stmt_in_place(&self, stmt: &mut CinStmt) {
        for _ in 0..self.max_iterations {
            let exprs = stmt.rewrite_exprs(&mut |node| self.apply_expr_rules(node));
            let stmts = stmt.rewrite_stmts(&mut |node| self.apply_stmt_rules(node));
            if !(exprs || stmts) {
                break;
            }
        }
    }

    fn apply_expr_rules(&self, node: &CinExpr) -> Option<CinExpr> {
        let mut current: Option<CinExpr> = None;
        // Apply every rule in order; if several fire, chain their effects.
        for rule in &self.expr_rules {
            let input = current.as_ref().unwrap_or(node);
            if let Some(next) = (rule.apply)(input) {
                current = Some(next);
            }
        }
        current
    }

    fn apply_stmt_rules(&self, node: &CinStmt) -> Option<CinStmt> {
        let mut current: Option<CinStmt> = None;
        for rule in &self.stmt_rules {
            let input = current.as_ref().unwrap_or(node);
            if let Some(next) = (rule.apply)(input) {
                current = Some(next);
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch_cin::build::*;
    use finch_cin::{CinExpr, CinOp};
    use finch_ir::Value;

    fn rw() -> Rewriter {
        Rewriter::with_default_rules()
    }

    #[test]
    fn zero_annihilation_in_multiplication() {
        let e = mul(lit(0.0), access("x", [idx("i")]));
        assert_eq!(rw().simplify_expr(&e).as_literal(), Some(Value::Float(0.0)));
    }

    #[test]
    fn multiplicative_identity_is_removed() {
        let a = access("x", [idx("i")]);
        let e = mul(lit(1.0), a.clone());
        assert_eq!(rw().simplify_expr(&e), CinExpr::Access(a));
    }

    #[test]
    fn additive_identity_is_removed() {
        let a = access("x", [idx("i")]);
        let e = add(lit(0.0), a.clone());
        assert_eq!(rw().simplify_expr(&e), CinExpr::Access(a));
    }

    #[test]
    fn nested_variadic_calls_are_flattened_and_folded() {
        let e = add(add(lit(1.0), lit(2.0)), lit(3.0));
        assert_eq!(rw().simplify_expr(&e).as_literal(), Some(Value::Float(6.0)));
        let e = mul(mul(lit(2.0), lit(3.0)), lit(4.0));
        assert_eq!(rw().simplify_expr(&e).as_literal(), Some(Value::Float(24.0)));
    }

    #[test]
    fn missing_propagates_and_coalesce_recovers() {
        let e = mul(CinExpr::Literal(Value::Missing), access("x", [idx("i")]));
        assert_eq!(rw().simplify_expr(&e).as_literal(), Some(Value::Missing));

        let e = coalesce(vec![
            CinExpr::Literal(Value::Missing),
            lit(3.0),
            access("x", [idx("i")]).into(),
        ]);
        assert_eq!(rw().simplify_expr(&e).as_literal(), Some(Value::Float(3.0)));
    }

    #[test]
    fn adding_zero_to_an_output_becomes_a_pass() {
        let s = add_assign(scalar("C"), mul(lit(0.0), access("B", [idx("i")])));
        let out = rw().simplify_stmt(&s);
        assert!(out.is_pass());
        assert_eq!(out.results(), vec!["C".into()]);
    }

    #[test]
    fn forall_over_a_pass_is_a_pass() {
        let i = idx("i");
        let s = forall(i, add_assign(scalar("C"), lit(0.0)));
        assert!(rw().simplify_stmt(&s).is_pass());
    }

    #[test]
    fn sieve_folding() {
        let body = add_assign(scalar("C"), lit(2.0));
        let s = sieve(CinExpr::Literal(Value::Bool(true)), body.clone());
        assert_eq!(rw().simplify_stmt(&s), body);
        let s = sieve(CinExpr::Literal(Value::Bool(false)), body);
        assert!(rw().simplify_stmt(&s).is_pass());
    }

    #[test]
    fn invariant_addition_loop_collapses_to_a_multiplication() {
        // @forall i in 0:9  C[] += 2.5   ──►   C[] += 2.5 * 10
        let i = idx("i");
        let s = forall_in(i, lit_int(0), lit_int(9), add_assign(scalar("C"), lit(2.5)));
        let out = rw().simplify_stmt(&s);
        match out {
            finch_cin::CinStmt::Assign { rhs, .. } => {
                // 2.5 added over a loop of length 10 folds to a single +25.
                assert_eq!(rhs.as_literal(), Some(Value::Float(25.0)));
            }
            other => panic!("expected a collapsed assignment, got {other}"),
        }
    }

    #[test]
    fn custom_rules_can_be_registered() {
        let mut rw = Rewriter::with_default_rules();
        // A domain rule: min(x, x) => x over CIN calls.
        rw.add_expr_rule("min_idempotent", |e| match e {
            CinExpr::Call { op: CinOp::Min, args } if args.len() == 2 && args[0] == args[1] => {
                Some(args[0].clone())
            }
            _ => None,
        });
        let a = access("x", [idx("i")]);
        let e = CinExpr::call(CinOp::Min, vec![a.clone().into(), a.clone().into()]);
        assert_eq!(rw.simplify_expr(&e), CinExpr::Access(a));
        assert!(rw.rule_names().contains(&"min_idempotent"));
    }

    #[test]
    fn a_rule_that_fires_without_changing_anything_terminates_with_the_input() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let fired = Arc::new(AtomicUsize::new(0));
        let mut rw = Rewriter::with_default_rules();
        let count = fired.clone();
        rw.add_expr_rule("echo", move |e| {
            count.fetch_add(1, Ordering::Relaxed);
            Some(e.clone())
        });
        rw.add_stmt_rule("echo_stmt", |s| Some(s.clone()));
        let s = add_assign(scalar("C"), mul(access("A", [idx("i")]), access("B", [idx("i")])));
        assert_eq!(rw.simplify_stmt(&s), s);
        // One round over the three expression nodes: the fixpoint is seen at
        // once, not at the iteration cap.
        assert_eq!(fired.load(Ordering::Relaxed), 3);
        let e = mul(access("A", [idx("i")]), lit(2.0));
        assert_eq!(rw.simplify_expr(&e), e);
    }

    #[test]
    fn empty_rewriter_is_the_identity() {
        let rw = Rewriter::empty();
        let e = mul(lit(0.0), access("x", [idx("i")]));
        assert_eq!(rw.simplify_expr(&e), e);
    }
}
