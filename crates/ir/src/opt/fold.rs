//! Constant folding, constant/copy propagation, and statically-decidable
//! control-flow pruning.
//!
//! Every rewrite in this pass is *value-exact*: literal subexpressions are
//! folded with the exact runtime operator semantics ([`Value::binop`] /
//! [`Value::unop`]), so the folded literal is bit-identical to what either
//! engine would have computed, including `missing` propagation, integer
//! wrapping, and int→float promotion.  Identities whose result type depends
//! on the *runtime* type of a non-literal operand (e.g. `x + 0`, `x * 1`)
//! are deliberately **not** applied here: `Bool(true) * Int(1)` evaluates
//! to `Float(1.0)`, so collapsing `x * 1` to `x` could change the value a
//! boolean-typed `x` produces downstream.
//!
//! Propagation facts are tracked per straight-line region: assignments kill
//! facts about the assigned variable (and facts that mention it), loop
//! bodies kill everything they assign before the body or the condition is
//! rewritten, and `if` branches are folded under cloned environments whose
//! assignments are killed at the join.

use std::collections::HashMap;

use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use crate::value::Value;
use crate::var::Var;

use super::OptStats;

/// Fold and propagate constants through a program.
pub(super) fn fold_stmts(stmts: &[Stmt], stats: &mut OptStats) -> Vec<Stmt> {
    let mut env: HashMap<Var, Expr> = HashMap::new();
    fold_seq(stmts, &mut env, stats)
}

/// Remove every fact about `var`: its own binding and any binding whose
/// replacement expression mentions it.
fn kill(env: &mut HashMap<Var, Expr>, var: Var) {
    env.remove(&var);
    env.retain(|_, e| !e.mentions(var));
}

/// Variables assigned anywhere in `stmts` (including loop variables).
fn assigned_vars(stmts: &[Stmt]) -> Vec<Var> {
    let mut out = Vec::new();
    for s in stmts {
        s.visit(&mut |node| match node {
            Stmt::Let { var, .. } | Stmt::Assign { var, .. } | Stmt::For { var, .. } => {
                out.push(*var);
            }
            _ => {}
        });
    }
    out
}

fn kill_assigned(env: &mut HashMap<Var, Expr>, stmts: &[Stmt]) {
    for v in assigned_vars(stmts) {
        kill(env, v);
    }
}

/// Rewrite an expression: substitute propagated facts, then fold literal
/// subexpressions bottom-up.
fn rewrite(e: &Expr, env: &HashMap<Var, Expr>, stats: &mut OptStats) -> Expr {
    e.map(&mut |node| match node {
        Expr::Var(v) => env.get(v).map(|r| {
            stats.copies_propagated += 1;
            r.clone()
        }),
        _ => {
            let folded = fold_node(node);
            if folded.is_some() {
                stats.folds += 1;
            }
            folded
        }
    })
}

/// Fold one (already child-rewritten) expression node, or `None` when it is
/// not statically decidable.
fn fold_node(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (lhs.as_lit(), rhs.as_lit());
            match op {
                // `&&` / `||` short-circuit in the engines: a non-missing
                // false (resp. true) left operand decides the result without
                // evaluating the right one.  A missing left operand still
                // evaluates the right and yields missing.
                BinOp::And | BinOp::Or => {
                    if let Some(a) = a {
                        if !a.is_missing() {
                            match (op, a.as_bool().ok()?) {
                                (BinOp::And, false) => return Some(Expr::bool(false)),
                                (BinOp::Or, true) => return Some(Expr::bool(true)),
                                _ => {
                                    // The left operand no longer decides:
                                    // fold fully only when both are literal.
                                    let b = b?;
                                    let v = Value::binop(*op, a, b).ok()?;
                                    return Some(Expr::Lit(v));
                                }
                            }
                        }
                        // Missing lhs: missing op b == missing for any b.
                        if b.is_some() {
                            return Some(Expr::missing());
                        }
                    }
                    None
                }
                _ => {
                    let v = Value::binop(*op, a?, b?).ok()?;
                    Some(Expr::Lit(v))
                }
            }
        }
        Expr::Unary { op, arg } => {
            let v = Value::unop(*op, arg.as_lit()?).ok()?;
            Some(Expr::Lit(v))
        }
        Expr::Select { cond, then, otherwise } => {
            let c = cond.as_lit()?;
            // Both engines treat a missing condition as false.
            let taken = if c.is_missing() { false } else { c.as_bool().ok()? };
            Some(if taken { (**then).clone() } else { (**otherwise).clone() })
        }
        Expr::Coalesce(args) => {
            // Drop leading literal-missing arguments; a leading non-missing
            // literal (or a single remaining argument) decides the result.
            let keep: Vec<Expr> =
                args.iter().skip_while(|a| a.is_lit(Value::Missing)).cloned().collect();
            match keep.first() {
                None => Some(Expr::missing()),
                Some(first) => match first.as_lit() {
                    Some(v) if !v.is_missing() => Some(Expr::Lit(v)),
                    _ if keep.len() == 1 => Some(keep.into_iter().next().expect("one arg")),
                    _ if keep.len() < args.len() => Some(Expr::coalesce(keep)),
                    _ => None,
                },
            }
        }
        _ => None,
    }
}

fn fold_seq(stmts: &[Stmt], env: &mut HashMap<Var, Expr>, stats: &mut OptStats) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        fold_stmt(s, env, stats, &mut out);
    }
    out
}

fn fold_stmt(s: &Stmt, env: &mut HashMap<Var, Expr>, stats: &mut OptStats, out: &mut Vec<Stmt>) {
    match s {
        Stmt::Comment(_) => out.push(s.clone()),
        Stmt::Let { var, init } => {
            let init = rewrite(init, env, stats);
            kill(env, *var);
            record_fact(env, *var, &init);
            out.push(Stmt::Let { var: *var, init });
        }
        Stmt::Assign { var, value } => {
            let value = rewrite(value, env, stats);
            kill(env, *var);
            record_fact(env, *var, &value);
            out.push(Stmt::Assign { var: *var, value });
        }
        Stmt::Store { buf, index, value, reduce } => out.push(Stmt::Store {
            buf: *buf,
            index: rewrite(index, env, stats),
            value: rewrite(value, env, stats),
            reduce: *reduce,
        }),
        Stmt::Append { buf, value } => {
            out.push(Stmt::Append { buf: *buf, value: rewrite(value, env, stats) });
        }
        Stmt::FiberEnd { .. } => out.push(s.clone()),
        Stmt::If { cond, then_branch, else_branch } => {
            let cond = rewrite(cond, env, stats);
            if let Some(c) = cond.as_lit() {
                // Both engines treat a missing condition as false; any other
                // literal must coerce to a boolean for the branch to be
                // statically decidable.
                let taken = if c.is_missing() { Some(false) } else { c.as_bool().ok() };
                if let Some(taken) = taken {
                    stats.branches_pruned += 1;
                    let branch = if taken { then_branch } else { else_branch };
                    let folded = fold_seq(branch, env, stats);
                    out.extend(folded);
                    return;
                }
            }
            let mut then_env = env.clone();
            let then_branch = fold_seq(then_branch, &mut then_env, stats);
            let mut else_env = env.clone();
            let else_branch = fold_seq(else_branch, &mut else_env, stats);
            // At the join, only facts that survived both branches are safe;
            // conservatively kill everything either branch assigned.
            kill_assigned(env, &then_branch);
            kill_assigned(env, &else_branch);
            out.push(Stmt::If { cond, then_branch, else_branch });
        }
        Stmt::While { cond, body } => {
            // The condition re-evaluates each iteration: body assignments
            // invalidate facts before the condition is rewritten.
            kill_assigned(env, body);
            let cond = rewrite(cond, env, stats);
            if let Some(c) = cond.as_lit() {
                if c.as_bool() == Ok(false) {
                    stats.loops_removed += 1;
                    return;
                }
            }
            let body = fold_seq(body, env, stats);
            kill_assigned(env, &body);
            out.push(Stmt::While { cond, body });
        }
        Stmt::For { var, lo, hi, body } => {
            // Bounds are evaluated once, before the first iteration, so the
            // pre-loop facts apply to them.
            let lo = rewrite(lo, env, stats);
            let hi = rewrite(hi, env, stats);
            if let (Some(a), Some(b)) = (lo.as_lit(), hi.as_lit()) {
                if let (Ok(a), Ok(b)) = (a.as_int(), b.as_int()) {
                    if a > b {
                        stats.loops_removed += 1;
                        return;
                    }
                }
            }
            kill(env, *var);
            kill_assigned(env, body);
            let body = fold_seq(body, env, stats);
            kill_assigned(env, &body);
            kill(env, *var);
            out.push(Stmt::For { var: *var, lo, hi, body });
        }
        Stmt::Block(body) => {
            let body = fold_seq(body, env, stats);
            out.push(Stmt::Block(body));
        }
    }
}

/// After an assignment, remember the variable's value when it is a literal
/// or a plain copy of another variable.
fn record_fact(env: &mut HashMap<Var, Expr>, var: Var, value: &Expr) {
    match value {
        Expr::Lit(_) => {
            env.insert(var, value.clone());
        }
        Expr::Var(w) if *w != var => {
            env.insert(var, value.clone());
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};
    use crate::expr::UnOp;
    use crate::interp::Interpreter;
    use crate::var::Names;

    fn run(prog: &[Stmt], names: &Names, bufs: &BufferSet) -> (BufferSet, crate::ExecStats) {
        let mut bufs = bufs.clone();
        let mut interp = Interpreter::new(names);
        interp.run(prog, &mut bufs).expect("program runs");
        (bufs, interp.stats())
    }

    #[test]
    fn propagation_respects_reassignment() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::int(1) },
            Stmt::Assign { var: a, value: Expr::int(2) },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        let mut stats = OptStats::default();
        let folded = fold_stmts(&prog, &mut stats);
        let stored_two = Stmt::count_matching(&folded, &|s| {
            matches!(s, Stmt::Store { value: Expr::Lit(Value::Int(2)), .. })
        });
        assert_eq!(stored_two, 1, "the second assignment wins:\n{folded:?}");
    }

    #[test]
    fn loop_body_assignments_kill_facts() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let p = names.fresh("p");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(3)),
                body: vec![Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) }],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(p), reduce: None },
        ];
        let mut stats = OptStats::default();
        let folded = fold_stmts(&prog, &mut stats);
        // `p` must NOT be folded into the condition or the trailing store:
        // the loop reassigns it.
        let (orig, _) = run(&prog, &names, &bufs);
        let (opt, _) = run(&folded, &names, &bufs);
        assert_eq!(orig.get(out), opt.get(out));
        assert_eq!(opt.get(out).load(0), Value::Int(3));
    }

    #[test]
    fn branch_facts_are_killed_at_the_join() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::I64(vec![7].into()));
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::int(1) },
            Stmt::If {
                cond: Expr::eq(Expr::load(x, Expr::int(0)), Expr::int(7)),
                then_branch: vec![Stmt::Assign { var: a, value: Expr::int(2) }],
                else_branch: vec![],
            },
            Stmt::Store { buf: out, index: Expr::int(0), value: Expr::Var(a), reduce: None },
        ];
        let mut stats = OptStats::default();
        let folded = fold_stmts(&prog, &mut stats);
        let (orig, _) = run(&prog, &names, &bufs);
        let (opt, _) = run(&folded, &names, &bufs);
        assert_eq!(orig.get(out), opt.get(out));
        assert_eq!(opt.get(out).load(0), Value::Int(2));
    }

    #[test]
    fn short_circuit_literals_fold_exactly() {
        // false && x folds to false even when x is not a literal.
        let e = Expr::binary(BinOp::And, Expr::bool(false), Expr::Var(Var(0)));
        assert_eq!(fold_node(&e), Some(Expr::bool(false)));
        // true || x folds to true.
        let e = Expr::binary(BinOp::Or, Expr::bool(true), Expr::Var(Var(0)));
        assert_eq!(fold_node(&e), Some(Expr::bool(true)));
        // true && x does NOT fold (the result is x's truthiness as a bool,
        // not x itself).
        let e = Expr::binary(BinOp::And, Expr::bool(true), Expr::Var(Var(0)));
        assert_eq!(fold_node(&e), None);
        // missing && literal folds to missing.
        let e = Expr::binary(BinOp::And, Expr::missing(), Expr::bool(true));
        assert_eq!(fold_node(&e), Some(Expr::missing()));
    }

    #[test]
    fn coalesce_folds_prune_leading_missing() {
        let e = Expr::coalesce(vec![Expr::missing(), Expr::int(3), Expr::int(4)]);
        assert_eq!(fold_node(&e), Some(Expr::int(3)));
        let e = Expr::coalesce(vec![Expr::missing(), Expr::Var(Var(0)), Expr::int(4)]);
        assert_eq!(fold_node(&e), Some(Expr::coalesce(vec![Expr::Var(Var(0)), Expr::int(4)])));
        let e = Expr::coalesce(vec![Expr::Var(Var(0))]);
        assert_eq!(fold_node(&e), Some(Expr::Var(Var(0))));
        let e = Expr::coalesce(vec![Expr::missing(), Expr::missing()]);
        assert_eq!(fold_node(&e), Some(Expr::missing()));
    }

    #[test]
    fn mixed_type_identities_are_not_applied() {
        // x * 1 and x + 0 must survive: their result type depends on x's
        // runtime type.
        let x = Expr::Var(Var(0));
        let e = Expr::mul(x.clone(), Expr::int(1));
        assert_eq!(fold_node(&e), None);
        let e = Expr::add(x, Expr::int(0));
        assert_eq!(fold_node(&e), None);
    }

    #[test]
    fn negating_the_smallest_integer_folds_to_the_wrapped_literal() {
        // Compile-time evaluation is `Value::unop`, which wraps like the
        // engines do at run time (and must not panic in a debug build).
        for op in [UnOp::Neg, UnOp::Abs] {
            let e = Expr::unary(op, Expr::int(i64::MIN));
            assert_eq!(fold_node(&e), Some(Expr::int(i64::MIN)), "{op:?}");
        }
    }

    #[test]
    fn float_folds_are_bit_exact() {
        let e = Expr::mul(Expr::float(0.1), Expr::float(0.2));
        match fold_node(&e) {
            Some(Expr::Lit(Value::Float(v))) => {
                assert_eq!(v.to_bits(), (0.1f64 * 0.2f64).to_bits());
            }
            other => panic!("expected a float literal, got {other:?}"),
        }
    }
}
