//! The Looplet ADT and its construction/traversal helpers.
//!
//! **Nests are immutable once built, and shared.**  Every child of a node —
//! a body, a tail, the phase list of a pipeline, the case list of a switch,
//! the payload of a stepper or jumper — sits behind an [`Arc`], so cloning a
//! nest is a handful of reference bumps whatever its depth, and the
//! lowerers, which re-emit the *other* accesses' nests once per subregion
//! they carve out of a loop, share them instead of copying them.  A rewrite
//! ([`Looplet::truncate`]) shares every subtree it does not touch.  Code on
//! the compile path takes a nest apart by moving out of it
//! ([`Arc::unwrap_or_clone`]: free when the nest is not shared, one node's
//! worth of reference bumps when it is), never by copying it to drop one
//! layer.  The pointer type is named in this file only: build nests with the
//! constructors below.

use std::sync::Arc;

use finch_ir::{Expr, Stmt, Var};

use crate::leaf::Leaf;

/// One phase of a [`Looplet::Pipeline`]: a child looplet that covers the
/// target region up to (and including) `stride`.  The final phase of a
/// pipeline usually has no stride, meaning "to the end of the target
/// region".
#[derive(Debug, Clone, PartialEq)]
pub struct Phase<L> {
    /// The inclusive end of this phase, in the coordinates of the array.
    /// `None` means the phase extends to the end of the enclosing region.
    pub stride: Option<Expr>,
    /// The child looplet describing the values of the phase.
    pub body: Looplet<L>,
}

/// One case of a [`Looplet::Switch`]: the child looplet used when `cond`
/// evaluates to true at runtime.  The final case conventionally has the
/// condition `true`.
#[derive(Debug, Clone, PartialEq)]
pub struct Case<L> {
    /// The runtime condition guarding this case.
    pub cond: Expr,
    /// The child looplet used when the condition holds.
    pub body: Looplet<L>,
}

/// The `seek` fragment of a stepper or jumper: statements that position the
/// looplet's runtime state (typically via binary search) so that its current
/// child intersects a given starting index.
#[derive(Debug, Clone, PartialEq)]
pub struct Seek {
    /// The variable the starting index is bound to before `body` runs.
    pub var: Var,
    /// The statements that position the state.
    pub body: Vec<Stmt>,
}

/// The common payload of [`Looplet::Stepper`] and [`Looplet::Jumper`]:
/// a repeated child looplet together with the code that advances to the
/// next child.
#[derive(Debug, Clone, PartialEq)]
pub struct Stepped<L> {
    /// Optional `seek` used to fast-forward to a starting index.
    pub seek: Option<Seek>,
    /// The inclusive end of the *current* child, in array coordinates
    /// (e.g. `idx[p]` for a sparse list).
    pub stride: Expr,
    /// The current child looplet.
    pub body: Looplet<L>,
    /// Statements advancing the runtime state to the next child
    /// (e.g. `p += 1`).
    pub next: Vec<Stmt>,
}

/// A hierarchical description of a structured sequence (paper §3, Figure 2).
///
/// Looplets are always interpreted relative to a target region (an
/// [`Extent`](finch_ir::Extent)): a `Run` covers the whole region, a
/// `Spike`'s tail sits at the region's end, a `Pipeline`'s last phase
/// extends to the region's end, and so on.
#[derive(Debug, Clone, PartialEq)]
pub enum Looplet<L> {
    /// A terminal value covering whatever region remains.
    Leaf(L),
    /// The same value repeated across the whole target region.
    Run {
        /// The repeated value.
        body: Arc<Looplet<L>>,
    },
    /// A repeated value followed by a single scalar at the region's end.
    Spike {
        /// The repeated value covering all but the last index.
        body: Arc<Looplet<L>>,
        /// The value at the final index of the region.
        tail: Arc<Looplet<L>>,
    },
    /// An arbitrary sequence of scalars where the element at index `i` is
    /// `body` with `var` bound to `i`.
    Lookup {
        /// The coordinate variable bound by this looplet.
        var: Var,
        /// The leaf computed from the coordinate.
        body: Arc<Looplet<L>>,
    },
    /// The concatenation of a few child looplets, one after the other.
    Pipeline {
        /// The phases, in ascending coordinate order.
        phases: Arc<[Phase<L>]>,
    },
    /// The repeated application of the same child looplet, evaluated
    /// iteratively (the "walking" / follower protocol).
    Stepper(Arc<Stepped<L>>),
    /// Like a stepper, but the child may be asked to cover a region wider
    /// than its declared stride, enabling accelerated iteration such as
    /// galloping intersections (the leader protocol).
    Jumper(Arc<Stepped<L>>),
    /// A runtime choice between child looplets.
    Switch {
        /// The cases, tried in order; the first whose condition holds is
        /// used.
        cases: Arc<[Case<L>]>,
    },
    /// A wrapper that shifts all declared extents of `body` by `delta`:
    /// the value of `Shift { delta, body }` at coordinate `i` is the value
    /// of `body` at coordinate `i - delta`.
    Shift {
        /// The coordinate shift.
        delta: Expr,
        /// The shifted looplet.
        body: Arc<Looplet<L>>,
    },
    /// Preamble statements hoisted before the body is examined (Finch.jl's
    /// `Thunk`), e.g. `p = pos[i]` in the sparse-list unfurl of Figure 3d.
    Thunk {
        /// The statements to emit before lowering `body`.
        preamble: Arc<[Stmt]>,
        /// The wrapped looplet.
        body: Arc<Looplet<L>>,
    },
    /// Binds the bounds of the current target region to IR variables before
    /// `body` is examined.  Used by protocols whose nests refer to "the end
    /// of the region", such as the galloping protocol's `idx[p] == j` case
    /// (Figure 6a).
    BindExtent {
        /// Variable bound to the region's inclusive lower bound, if wanted.
        lo: Option<Var>,
        /// Variable bound to the region's inclusive upper bound, if wanted.
        hi: Option<Var>,
        /// The wrapped looplet.
        body: Arc<Looplet<L>>,
    },
}

impl<L> Looplet<L> {
    /// A [`Looplet::Run`] of a leaf value.
    pub fn run(value: L) -> Self {
        Looplet::Run { body: Arc::new(Looplet::Leaf(value)) }
    }

    /// A [`Looplet::Spike`] with leaf body and tail.
    pub fn spike(body: L, tail: L) -> Self {
        Looplet::spike_of(Looplet::Leaf(body), Looplet::Leaf(tail))
    }

    /// A [`Looplet::Spike`] of a repeated nest followed by a final nest.
    pub fn spike_of(body: Looplet<L>, tail: Looplet<L>) -> Self {
        Looplet::Spike { body: Arc::new(body), tail: Arc::new(tail) }
    }

    /// A [`Looplet::Lookup`] whose leaf is computed from `var`.
    pub fn lookup(var: Var, body: L) -> Self {
        Looplet::Lookup { var, body: Arc::new(Looplet::Leaf(body)) }
    }

    /// A [`Looplet::Pipeline`] over the given phases.
    pub fn pipeline(phases: Vec<Phase<L>>) -> Self {
        Looplet::Pipeline { phases: phases.into() }
    }

    /// A [`Looplet::Stepper`] with the given payload.
    pub fn stepper(stepped: Stepped<L>) -> Self {
        Looplet::Stepper(Arc::new(stepped))
    }

    /// A [`Looplet::Jumper`] with the given payload.
    pub fn jumper(stepped: Stepped<L>) -> Self {
        Looplet::Jumper(Arc::new(stepped))
    }

    /// A [`Looplet::Switch`] over the given cases.
    pub fn switch(cases: Vec<Case<L>>) -> Self {
        Looplet::Switch { cases: cases.into() }
    }

    /// Wrap in a [`Looplet::Thunk`] with the given preamble.
    pub fn with_preamble(self, preamble: impl Into<Arc<[Stmt]>>) -> Self {
        Looplet::Thunk { preamble: preamble.into(), body: Arc::new(self) }
    }

    /// Wrap in a [`Looplet::Shift`] by `delta`.
    pub fn shifted(self, delta: Expr) -> Self {
        Looplet::Shift { delta, body: Arc::new(self) }
    }

    /// Wrap in a [`Looplet::BindExtent`] binding the region's bounds.
    pub fn binding_extent(self, lo: Option<Var>, hi: Option<Var>) -> Self {
        Looplet::BindExtent { lo, hi, body: Arc::new(self) }
    }

    /// Transform the leaves of the nest, preserving its structure.
    pub fn map_leaves<M>(&self, f: &mut dyn FnMut(&L) -> M) -> Looplet<M> {
        match self {
            Looplet::Leaf(l) => Looplet::Leaf(f(l)),
            Looplet::Run { body } => Looplet::Run { body: Arc::new(body.map_leaves(f)) },
            Looplet::Spike { body, tail } => {
                Looplet::spike_of(body.map_leaves(f), tail.map_leaves(f))
            }
            Looplet::Lookup { var, body } => {
                Looplet::Lookup { var: *var, body: Arc::new(body.map_leaves(f)) }
            }
            Looplet::Pipeline { phases } => Looplet::Pipeline {
                phases: phases
                    .iter()
                    .map(|p| Phase { stride: p.stride.clone(), body: p.body.map_leaves(f) })
                    .collect(),
            },
            Looplet::Stepper(s) => Looplet::stepper(s.map_leaves(f)),
            Looplet::Jumper(s) => Looplet::jumper(s.map_leaves(f)),
            Looplet::Switch { cases } => Looplet::Switch {
                cases: cases
                    .iter()
                    .map(|c| Case { cond: c.cond.clone(), body: c.body.map_leaves(f) })
                    .collect(),
            },
            Looplet::Shift { delta, body } => body.map_leaves(f).shifted(delta.clone()),
            Looplet::Thunk { preamble, body } => {
                body.map_leaves(f).with_preamble(Arc::clone(preamble))
            }
            Looplet::BindExtent { lo, hi, body } => body.map_leaves(f).binding_extent(*lo, *hi),
        }
    }

    /// Count the nodes of the nest (used by tests and by compile-size
    /// diagnostics).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Looplet::Leaf(_) => 0,
            Looplet::Run { body }
            | Looplet::Lookup { body, .. }
            | Looplet::Shift { body, .. }
            | Looplet::Thunk { body, .. }
            | Looplet::BindExtent { body, .. } => body.node_count(),
            Looplet::Spike { body, tail } => body.node_count() + tail.node_count(),
            Looplet::Pipeline { phases } => phases.iter().map(|p| p.body.node_count()).sum(),
            Looplet::Stepper(s) | Looplet::Jumper(s) => s.body.node_count(),
            Looplet::Switch { cases } => cases.iter().map(|c| c.body.node_count()).sum(),
        }
    }
}

impl<L: Leaf> Looplet<L> {
    /// Substitute variable `var` with `replacement` in every expression of
    /// the nest: strides, conditions, deltas, seek/next/preamble statements,
    /// and leaves.
    ///
    /// Variables created by [`finch_ir::Names`] are globally unique, so no
    /// capture can occur even though `Lookup`/`Seek` own binder variables.
    pub fn substitute_var(&self, var: Var, replacement: &Expr) -> Looplet<L> {
        let sub_expr = |e: &Expr| e.substitute(var, replacement);
        match self {
            Looplet::Leaf(l) => Looplet::Leaf(l.substitute_var(var, replacement)),
            Looplet::Run { body } => {
                Looplet::Run { body: Arc::new(body.substitute_var(var, replacement)) }
            }
            Looplet::Spike { body, tail } => Looplet::spike_of(
                body.substitute_var(var, replacement),
                tail.substitute_var(var, replacement),
            ),
            Looplet::Lookup { var: v, body } => {
                Looplet::Lookup { var: *v, body: Arc::new(body.substitute_var(var, replacement)) }
            }
            Looplet::Pipeline { phases } => Looplet::Pipeline {
                phases: phases
                    .iter()
                    .map(|p| Phase {
                        stride: p.stride.as_ref().map(sub_expr),
                        body: p.body.substitute_var(var, replacement),
                    })
                    .collect(),
            },
            Looplet::Stepper(s) => Looplet::stepper(s.substitute_var(var, replacement)),
            Looplet::Jumper(s) => Looplet::jumper(s.substitute_var(var, replacement)),
            Looplet::Switch { cases } => Looplet::Switch {
                cases: cases
                    .iter()
                    .map(|c| Case {
                        cond: sub_expr(&c.cond),
                        body: c.body.substitute_var(var, replacement),
                    })
                    .collect(),
            },
            Looplet::Shift { delta, body } => {
                body.substitute_var(var, replacement).shifted(sub_expr(delta))
            }
            Looplet::Thunk { preamble, body } => body
                .substitute_var(var, replacement)
                .with_preamble(Stmt::substitute_all(preamble, var, replacement)),
            Looplet::BindExtent { lo, hi, body } => {
                body.substitute_var(var, replacement).binding_extent(*lo, *hi)
            }
        }
    }
}

impl<L> Stepped<L> {
    /// Transform the leaves of the child looplet.
    pub fn map_leaves<M>(&self, f: &mut dyn FnMut(&L) -> M) -> Stepped<M> {
        Stepped {
            seek: self.seek.clone(),
            stride: self.stride.clone(),
            body: self.body.map_leaves(f),
            next: self.next.clone(),
        }
    }
}

impl<L: Leaf> Stepped<L> {
    /// Substitute a variable throughout the stepper payload.
    pub fn substitute_var(&self, var: Var, replacement: &Expr) -> Stepped<L> {
        Stepped {
            seek: self.seek.as_ref().map(|s| Seek {
                var: s.var,
                body: Stmt::substitute_all(&s.body, var, replacement),
            }),
            stride: self.stride.substitute(var, replacement),
            body: self.body.substitute_var(var, replacement),
            next: Stmt::substitute_all(&self.next, var, replacement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch_ir::{Names, Value};

    fn sample_nest(names: &mut Names) -> (Var, Looplet<Expr>) {
        // Pipeline(Phase(stride=5, Stepper(stride=idx-ish, Spike(0, val))), Phase(Run(0)))
        let p = names.fresh("p");
        let nest = Looplet::pipeline(vec![
            Phase {
                stride: Some(Expr::int(5)),
                body: Looplet::stepper(Stepped {
                    seek: None,
                    stride: Expr::Var(p),
                    body: Looplet::spike(Expr::float(0.0), Expr::Var(p)),
                    next: vec![Stmt::Assign {
                        var: p,
                        value: Expr::add(Expr::Var(p), Expr::int(1)),
                    }],
                }),
            },
            Phase { stride: None, body: Looplet::run(Expr::float(0.0)) },
        ]);
        (p, nest)
    }

    #[test]
    fn map_leaves_preserves_structure() {
        let mut names = Names::new();
        let (_, nest) = sample_nest(&mut names);
        let mapped: Looplet<i32> = nest.map_leaves(&mut |_| 7);
        assert_eq!(mapped.node_count(), nest.node_count());
    }

    #[test]
    fn substitute_var_reaches_strides_nexts_and_leaves() {
        let mut names = Names::new();
        let (p, nest) = sample_nest(&mut names);
        let replaced = nest.substitute_var(p, &Expr::int(9));
        // No remaining mention of p anywhere.
        fn mentions(l: &Looplet<Expr>, v: Var) -> bool {
            match l {
                Looplet::Leaf(e) => e.mentions(v),
                Looplet::Run { body } | Looplet::Lookup { body, .. } => mentions(body, v),
                Looplet::Spike { body, tail } => mentions(body, v) || mentions(tail, v),
                Looplet::Pipeline { phases } => phases.iter().any(|ph| {
                    ph.stride.as_ref().map(|s| s.mentions(v)).unwrap_or(false)
                        || mentions(&ph.body, v)
                }),
                Looplet::Stepper(s) | Looplet::Jumper(s) => {
                    s.stride.mentions(v)
                        || mentions(&s.body, v)
                        || s.next.iter().any(|st| {
                            let mut found = false;
                            st.visit(&mut |node| {
                                if let Stmt::Assign { value, .. } = node {
                                    if value.mentions(v) {
                                        found = true;
                                    }
                                }
                            });
                            found
                        })
                }
                Looplet::Switch { cases } => {
                    cases.iter().any(|c| c.cond.mentions(v) || mentions(&c.body, v))
                }
                Looplet::Shift { delta, body } => delta.mentions(v) || mentions(body, v),
                Looplet::Thunk { body, .. } | Looplet::BindExtent { body, .. } => mentions(body, v),
            }
        }
        assert!(mentions(&nest, p));
        assert!(!mentions(&replaced, p));
    }

    #[test]
    fn constructors_build_expected_variants() {
        let run: Looplet<Expr> = Looplet::run(Expr::Lit(Value::Float(1.5)));
        assert!(matches!(run, Looplet::Run { .. }));
        let spike: Looplet<Expr> = Looplet::spike(Expr::int(0), Expr::int(3));
        assert!(matches!(spike, Looplet::Spike { .. }));
        let mut names = Names::new();
        let j = names.fresh("j");
        let lk = Looplet::lookup(j, Expr::Var(j));
        assert!(matches!(lk, Looplet::Lookup { .. }));
        let shifted = lk.shifted(Expr::int(2));
        assert!(matches!(shifted, Looplet::Shift { .. }));
        let th = Looplet::run(Expr::int(0)).with_preamble(vec![Stmt::Comment("init".into())]);
        assert!(matches!(th, Looplet::Thunk { .. }));
    }

    #[test]
    fn node_count_counts_all_children() {
        let mut names = Names::new();
        let (_, nest) = sample_nest(&mut names);
        // Pipeline + (Stepper + Spike + 2 leaves) + (Run + leaf) = 7
        assert_eq!(nest.node_count(), 7);
    }
}
