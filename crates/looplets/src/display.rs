//! Compact textual rendering of looplet nests.
//!
//! The paper presents unfurled formats as nests like
//! `Pipeline(Phase(Stepper(Spike(...))), Phase(Run(0)))` (Figure 1a); this
//! module renders our nests the same way so examples and documentation can
//! show the structure a format exposes to the compiler.

use std::fmt;

use crate::looplet::{Looplet, Stepped};

impl<L: fmt::Debug> Looplet<L> {
    fn fmt_nest(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Looplet::Leaf(l) => write!(f, "{l:?}"),
            Looplet::Run { body } => {
                write!(f, "Run(")?;
                body.fmt_nest(f)?;
                write!(f, ")")
            }
            Looplet::Spike { body, tail } => {
                write!(f, "Spike(")?;
                body.fmt_nest(f)?;
                write!(f, ", tail=")?;
                tail.fmt_nest(f)?;
                write!(f, ")")
            }
            Looplet::Lookup { body, .. } => {
                write!(f, "Lookup(")?;
                body.fmt_nest(f)?;
                write!(f, ")")
            }
            Looplet::Pipeline { phases } => {
                write!(f, "Pipeline(")?;
                for (i, p) in phases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "Phase(")?;
                    p.body.fmt_nest(f)?;
                    write!(f, ")")?;
                }
                write!(f, ")")
            }
            Looplet::Stepper(s) => fmt_stepped(f, "Stepper", s),
            Looplet::Jumper(s) => fmt_stepped(f, "Jumper", s),
            Looplet::Switch { cases } => {
                write!(f, "Switch(")?;
                for (i, c) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "Case(")?;
                    c.body.fmt_nest(f)?;
                    write!(f, ")")?;
                }
                write!(f, ")")
            }
            Looplet::Shift { body, .. } => {
                write!(f, "Shift(")?;
                body.fmt_nest(f)?;
                write!(f, ")")
            }
            Looplet::Thunk { body, .. } => {
                write!(f, "Thunk(")?;
                body.fmt_nest(f)?;
                write!(f, ")")
            }
            Looplet::BindExtent { body, .. } => {
                write!(f, "BindExtent(")?;
                body.fmt_nest(f)?;
                write!(f, ")")
            }
        }
    }
}

fn fmt_stepped<L: fmt::Debug>(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    s: &Stepped<L>,
) -> fmt::Result {
    write!(f, "{name}(")?;
    s.body.fmt_nest(f)?;
    write!(f, ")")
}

impl<L: fmt::Debug> fmt::Display for Looplet<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_nest(f)
    }
}

#[cfg(test)]
mod tests {
    use crate::looplet::{Looplet, Phase, Stepped};
    use finch_ir::{Expr, Names};

    #[test]
    fn renders_the_paper_sparse_list_shape() {
        let mut names = Names::new();
        let p = names.fresh("p");
        let nest: Looplet<Expr> = Looplet::pipeline(vec![
            Phase {
                stride: Some(Expr::int(8)),
                body: Looplet::stepper(Stepped {
                    seek: None,
                    stride: Expr::Var(p),
                    body: Looplet::spike(Expr::float(0.0), Expr::Var(p)),
                    next: vec![],
                }),
            },
            Phase { stride: None, body: Looplet::run(Expr::float(0.0)) },
        ]);
        let text = format!("{nest}");
        assert!(text.starts_with("Pipeline(Phase(Stepper(Spike("));
        assert!(text.contains("Phase(Run("));
    }

    #[test]
    fn renders_switch_and_wrappers() {
        let nest: Looplet<Expr> = Looplet::switch(vec![crate::Case {
            cond: Expr::bool(true),
            body: Looplet::run(Expr::int(0)).shifted(Expr::int(1)),
        }])
        .with_preamble(vec![]);
        let text = format!("{nest}");
        assert!(text.contains("Thunk(Switch(Case(Shift(Run("));
    }
}
