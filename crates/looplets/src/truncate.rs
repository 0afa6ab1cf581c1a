//! Region truncation (paper §6.1).
//!
//! Several lowerers carve the current target region into subregions — a
//! spike splits off its final index, a pipeline processes one phase at a
//! time, a stepper processes one child at a time — and all *other* looplets
//! in the expression must then be reinterpreted over the smaller region.
//! That reinterpretation is truncation.
//!
//! Most looplets are self-similar and truncate to themselves.  The
//! interesting case is the spike: the truncation of a spike that might not
//! include its final element can only be decided at runtime, so it becomes a
//! [`Switch`](crate::Looplet::Switch) between "still a spike" and "just the
//! run of its body", exactly as described in the paper.  It is this rule
//! that makes the stepper lowerer reproduce TACO's two-finger merge.

use std::sync::Arc;

use finch_ir::{Expr, Extent};

use crate::looplet::{Case, Looplet};

impl<L: Clone> Looplet<L> {
    /// Reinterpret this looplet, originally described over the region
    /// `old`, as a description of the subregion `new`.
    ///
    /// `new` is assumed to be contained in `old` and to share its lower
    /// bound's position in iteration order (lowerers only ever shrink the
    /// upper bound of the region they hand to children, or restart from a
    /// later lower bound which self-similar looplets don't care about).
    ///
    /// The result shares every subtree truncation leaves alone — for a
    /// self-similar looplet, the whole nest.
    pub fn truncate(&self, old: &Extent, new: &Extent) -> Looplet<L> {
        match self {
            // Self-similar looplets: any subregion looks the same.
            Looplet::Leaf(_)
            | Looplet::Run { .. }
            | Looplet::Lookup { .. }
            | Looplet::Pipeline { .. }
            | Looplet::Stepper(_)
            | Looplet::Jumper(_) => self.clone(),

            // A spike still ends the region only if the region still ends at
            // the same place.  If that cannot be decided syntactically, defer
            // the decision to runtime with a switch.
            Looplet::Spike { body, .. } => {
                if new.hi == old.hi {
                    self.clone()
                } else {
                    Looplet::switch(vec![
                        Case { cond: Expr::eq(new.hi.clone(), old.hi.clone()), body: self.clone() },
                        // Without its tail the spike is just its repeated
                        // body (itself usually a run).
                        Case { cond: Expr::bool(true), body: Looplet::clone(body) },
                    ])
                }
            }

            Looplet::Switch { cases } => Looplet::switch(
                cases
                    .iter()
                    .map(|c| Case { cond: c.cond.clone(), body: c.body.truncate(old, new) })
                    .collect(),
            ),

            // A shift presents its body in shifted coordinates: translate the
            // regions back into the body's frame before truncating.
            Looplet::Shift { delta, body } => {
                let neg = Expr::sub(Expr::int(0), delta.clone());
                body.truncate(&old.shifted(&neg), &new.shifted(&neg)).shifted(delta.clone())
            }

            Looplet::Thunk { preamble, body } => {
                body.truncate(old, new).with_preamble(Arc::clone(preamble))
            }

            // BindExtent keeps binding whatever region it is eventually
            // examined in, so it survives truncation unchanged apart from
            // its body.
            Looplet::BindExtent { lo, hi, body } => {
                body.truncate(old, new).binding_extent(*lo, *hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Style;
    use finch_ir::{Names, Value};

    #[test]
    fn run_and_lookup_truncate_to_themselves() {
        let mut names = Names::new();
        let j = names.fresh("j");
        let old = Extent::literal(0, 10);
        let new = Extent::literal(0, 4);
        let run: Looplet<Expr> = Looplet::run(Expr::float(0.0));
        assert_eq!(run.truncate(&old, &new), run);
        let lk: Looplet<Expr> = Looplet::lookup(j, Expr::Var(j));
        assert_eq!(lk.truncate(&old, &new), lk);
    }

    #[test]
    fn truncating_a_self_similar_looplet_shares_its_body() {
        use crate::looplet::{Phase, Stepped};
        let mut names = Names::new();
        let (j, p) = (names.fresh("j"), names.fresh("p"));
        let old = Extent::literal(0, 10);
        let new = Extent::new(Expr::int(0), Expr::Var(p));

        let stepper: Looplet<Expr> = Looplet::stepper(Stepped {
            seek: None,
            stride: Expr::Var(p),
            body: Looplet::spike(Expr::float(0.0), Expr::Var(p)),
            next: vec![],
        });
        match (&stepper, &stepper.truncate(&old, &new)) {
            (Looplet::Stepper(a), Looplet::Stepper(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected steppers, got {other:?}"),
        }

        let pipeline = Looplet::pipeline(vec![
            Phase { stride: Some(Expr::int(4)), body: stepper },
            Phase { stride: None, body: Looplet::run(Expr::float(0.0)) },
        ]);
        match (&pipeline, &pipeline.truncate(&old, &new)) {
            (Looplet::Pipeline { phases: a }, Looplet::Pipeline { phases: b }) => {
                assert!(Arc::ptr_eq(a, b));
            }
            other => panic!("expected pipelines, got {other:?}"),
        }

        let lookup: Looplet<Expr> = Looplet::lookup(j, Expr::Var(j));
        match (&lookup, &lookup.truncate(&old, &new)) {
            (Looplet::Lookup { body: a, .. }, Looplet::Lookup { body: b, .. }) => {
                assert!(Arc::ptr_eq(a, b));
            }
            other => panic!("expected lookups, got {other:?}"),
        }

        // A spike that becomes a switch keeps itself as the first case and
        // its own body as the second: nothing below the switch is copied.
        let spike: Looplet<Expr> = Looplet::spike(Expr::float(0.0), Expr::float(7.0));
        let (Looplet::Spike { body, tail }, Looplet::Switch { cases }) =
            (&spike, &spike.truncate(&old, &new))
        else {
            panic!("expected a spike and its switch");
        };
        match &cases[0].body {
            Looplet::Spike { body: b, tail: t } => {
                assert!(Arc::ptr_eq(body, b) && Arc::ptr_eq(tail, t));
            }
            other => panic!("expected the spike, got {other:?}"),
        }
        assert_eq!(cases[1].body, **body);
    }

    #[test]
    fn spike_truncated_to_same_stop_stays_a_spike() {
        let old = Extent::literal(0, 10);
        let new = Extent::literal(3, 10);
        let spike: Looplet<Expr> = Looplet::spike(Expr::float(0.0), Expr::float(7.0));
        assert_eq!(spike.truncate(&old, &new).style(), Style::Spike);
    }

    #[test]
    fn spike_truncated_to_unknown_stop_becomes_a_switch() {
        let mut names = Names::new();
        let s = names.fresh("stride");
        let old = Extent::literal(0, 10);
        let new = Extent::new(Expr::int(0), Expr::Var(s));
        let spike: Looplet<Expr> = Looplet::spike(Expr::float(0.0), Expr::float(7.0));
        let t = spike.truncate(&old, &new);
        match &t {
            Looplet::Switch { cases } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[0].body.style(), Style::Spike);
                // Without its tail the spike is just its repeated body.
                assert_eq!(cases[1].body.style(), Style::Leaf);
                assert_eq!(cases[0].cond, Expr::eq(Expr::Var(s), Expr::int(10)));
                assert_eq!(cases[1].cond, Expr::bool(true));
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_recurses_into_switch_cases() {
        let mut names = Names::new();
        let s = names.fresh("stop");
        let old = Extent::literal(0, 9);
        let new = Extent::new(Expr::int(0), Expr::Var(s));
        let sw: Looplet<Expr> = Looplet::switch(vec![Case {
            cond: Expr::bool(true),
            body: Looplet::spike(Expr::float(0.0), Expr::float(1.0)),
        }]);
        let t = sw.truncate(&old, &new);
        if let Looplet::Switch { cases } = &t {
            assert_eq!(cases[0].body.style(), Style::Switch, "inner spike became a switch");
        } else {
            panic!("expected switch");
        }
    }

    #[test]
    fn shift_translates_regions_before_truncating_its_body() {
        let old = Extent::literal(5, 15);
        let new = Extent::literal(5, 12);
        let spike: Looplet<Expr> = Looplet::spike(Expr::float(0.0), Expr::float(1.0));
        let shifted = spike.shifted(Expr::int(5));
        let t = shifted.truncate(&old, &new);
        // In the body's frame the old region was 0..=10 and the new one 0..=7,
        // so the inner spike must have turned into a switch comparing 7 and 10.
        match t {
            Looplet::Shift { body, .. } => match &*body {
                Looplet::Switch { cases } => {
                    assert_eq!(cases[0].cond, Expr::eq(Expr::int(7), Expr::int(10)));
                }
                other => panic!("expected inner switch, got {other:?}"),
            },
            other => panic!("expected shift, got {other:?}"),
        }
    }

    #[test]
    fn thunk_preamble_survives_truncation() {
        let old = Extent::literal(0, 9);
        let new = Extent::literal(0, 3);
        let l: Looplet<Expr> = Looplet::run(Expr::Lit(Value::Float(2.0)))
            .with_preamble(vec![finch_ir::Stmt::Comment("setup".into())]);
        match l.truncate(&old, &new) {
            Looplet::Thunk { preamble, .. } => assert_eq!(preamble.len(), 1),
            other => panic!("expected thunk, got {other:?}"),
        }
    }
}
