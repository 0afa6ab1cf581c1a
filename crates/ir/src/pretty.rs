//! Pretty-printing of the target IR as readable pseudo-Rust.
//!
//! The paper presents the *generated code* as its key artifact (Figure 1b
//! shows the dot-product loop nest Finch emits); this module renders our IR
//! the same way so examples and tests can display and assert on the shape of
//! the code the compiler produced.

use std::fmt::Write as _;

use crate::buffer::BufferSet;
use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::var::Names;

/// Pretty-printer configuration: the name tables used to render variables
/// and buffers.
#[derive(Debug, Clone, Copy)]
pub struct Printer<'a> {
    names: &'a Names,
    bufs: &'a BufferSet,
}

impl<'a> Printer<'a> {
    /// Create a printer over the given name tables.
    pub fn new(names: &'a Names, bufs: &'a BufferSet) -> Self {
        Printer { names, bufs }
    }

    /// Render a whole program.
    pub fn program(&self, stmts: &[Stmt]) -> String {
        let mut out = String::new();
        for s in stmts {
            self.stmt(s, 0, &mut out);
        }
        out
    }

    /// Render a single expression.
    pub fn expr(&self, e: &Expr) -> String {
        let mut s = String::new();
        self.write_expr(e, &mut s);
        s
    }

    fn indent(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("    ");
        }
    }

    fn stmt(&self, s: &Stmt, depth: usize, out: &mut String) {
        match s {
            Stmt::Comment(text) => {
                self.indent(depth, out);
                let _ = writeln!(out, "// {text}");
            }
            Stmt::Let { var, init } => {
                self.indent(depth, out);
                let _ = writeln!(out, "let mut {} = {};", self.names.name(*var), self.expr(init));
            }
            Stmt::Assign { var, value } => {
                self.indent(depth, out);
                let _ = writeln!(out, "{} = {};", self.names.name(*var), self.expr(value));
            }
            Stmt::Store { buf, index, value, reduce } => {
                self.indent(depth, out);
                let op = match reduce {
                    None => "=".to_string(),
                    Some(op) if op.is_call_style() => format!("{}=", op.symbol()),
                    Some(op) => format!("{}=", op.symbol()),
                };
                let _ = writeln!(
                    out,
                    "{}[{}] {} {};",
                    self.bufs.name(*buf),
                    self.expr(index),
                    op,
                    self.expr(value)
                );
            }
            Stmt::Append { buf, value } => {
                self.indent(depth, out);
                let _ = writeln!(out, "{}.push({});", self.bufs.name(*buf), self.expr(value));
            }
            Stmt::FiberEnd { pos, data } => {
                self.indent(depth, out);
                let _ = writeln!(
                    out,
                    "{}.push({}.len());",
                    self.bufs.name(*pos),
                    self.bufs.name(*data)
                );
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.indent(depth, out);
                let _ = writeln!(out, "if {} {{", self.expr(cond));
                for s in then_branch {
                    self.stmt(s, depth + 1, out);
                }
                if !else_branch.is_empty() {
                    self.indent(depth, out);
                    out.push_str("} else {\n");
                    for s in else_branch {
                        self.stmt(s, depth + 1, out);
                    }
                }
                self.indent(depth, out);
                out.push_str("}\n");
            }
            Stmt::While { cond, body } => {
                self.indent(depth, out);
                let _ = writeln!(out, "while {} {{", self.expr(cond));
                for s in body {
                    self.stmt(s, depth + 1, out);
                }
                self.indent(depth, out);
                out.push_str("}\n");
            }
            Stmt::For { var, lo, hi, body } => {
                self.indent(depth, out);
                let _ = writeln!(
                    out,
                    "for {} in {}..={} {{",
                    self.names.name(*var),
                    self.expr(lo),
                    self.expr(hi)
                );
                for s in body {
                    self.stmt(s, depth + 1, out);
                }
                self.indent(depth, out);
                out.push_str("}\n");
            }
            Stmt::Block(body) => {
                for s in body {
                    self.stmt(s, depth, out);
                }
            }
        }
    }

    fn write_expr(&self, e: &Expr, out: &mut String) {
        match e {
            Expr::Lit(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Var(v) => out.push_str(self.names.name(*v)),
            Expr::Load { buf, index } => {
                let _ = write!(out, "{}[", self.bufs.name(*buf));
                self.write_expr(index, out);
                out.push(']');
            }
            Expr::Unary { op, arg } => {
                if matches!(op, crate::expr::UnOp::Neg | crate::expr::UnOp::Not) {
                    let _ = write!(out, "{}", op.symbol());
                    out.push('(');
                    self.write_expr(arg, out);
                    out.push(')');
                } else {
                    let _ = write!(out, "{}(", op.symbol());
                    self.write_expr(arg, out);
                    out.push(')');
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                if op.is_call_style() {
                    let _ = write!(out, "{}(", op.symbol());
                    self.write_expr(lhs, out);
                    out.push_str(", ");
                    self.write_expr(rhs, out);
                    out.push(')');
                } else {
                    out.push('(');
                    self.write_expr(lhs, out);
                    let _ = write!(out, " {} ", op.symbol());
                    self.write_expr(rhs, out);
                    out.push(')');
                }
            }
            Expr::Select { cond, then, otherwise } => {
                out.push_str("if ");
                self.write_expr(cond, out);
                out.push_str(" { ");
                self.write_expr(then, out);
                out.push_str(" } else { ");
                self.write_expr(otherwise, out);
                out.push_str(" }");
            }
            Expr::Coalesce(args) => {
                out.push_str("coalesce(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_expr(a, out);
                }
                out.push(')');
            }
            Expr::Search { buf, lo, hi, key, on_abs } => {
                let f = if *on_abs { "search_abs" } else { "search" };
                let _ = write!(out, "{f}({}, ", self.bufs.name(*buf));
                self.write_expr(lo, out);
                out.push_str(", ");
                self.write_expr(hi, out);
                out.push_str(", ");
                self.write_expr(key, out);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::expr::BinOp;

    #[test]
    fn renders_a_small_loop_nest() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![0.0; 4].into()));
        let out = bufs.add("C", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let text = Printer::new(&names, &bufs).program(&prog);
        assert!(text.contains("for i in 0..=3 {"));
        assert!(text.contains("C[0] += x[i];"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn renders_while_if_and_search() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("A_idx", Buffer::I64(vec![1, 2, 3].into()));
        let p = names.fresh("p");
        let prog = vec![
            Stmt::Let {
                var: p,
                init: Expr::search(idx, Expr::int(0), Expr::int(2), Expr::int(2), false),
            },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(3)),
                body: vec![Stmt::If {
                    cond: Expr::eq(Expr::Var(p), Expr::int(1)),
                    then_branch: vec![Stmt::Comment("hit".into())],
                    else_branch: vec![Stmt::Assign {
                        var: p,
                        value: Expr::add(Expr::Var(p), Expr::int(1)),
                    }],
                }],
            },
        ];
        let text = Printer::new(&names, &bufs).program(&prog);
        assert!(text.contains("search(A_idx, 0, 2, 2)"));
        assert!(text.contains("while (p < 3) {"));
        assert!(text.contains("} else {"));
        assert!(text.contains("// hit"));
    }

    #[test]
    fn expression_rendering_covers_all_constructors() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let b = bufs.add("v", Buffer::F64(vec![].into()));
        let x = names.fresh("x");
        let p = Printer::new(&names, &bufs);
        assert_eq!(p.expr(&Expr::min(Expr::Var(x), Expr::int(3))), "min(x, 3)");
        assert_eq!(p.expr(&Expr::unary(crate::expr::UnOp::Sqrt, Expr::Var(x))), "sqrt(x)");
        assert_eq!(p.expr(&Expr::load(b, Expr::Var(x))), "v[x]");
        assert_eq!(
            p.expr(&Expr::coalesce(vec![Expr::missing(), Expr::int(0)])),
            "coalesce(missing, 0)"
        );
        assert!(p.expr(&Expr::select(Expr::bool(true), Expr::int(1), Expr::int(2))).contains("if"));
    }
}
