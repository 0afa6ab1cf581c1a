//! Unfurling: format × protocol → looplet nest (paper §4 and Figure 3).
//!
//! Each bound level knows how to describe one of its fibers as a looplet
//! nest.  The nests below are direct transcriptions of the paper's Figure 3
//! (formats) and Figure 6 (protocols), adapted to 0-based coordinates and
//! with the implementation-level `Thunk`/`BindExtent` wrappers made
//! explicit.

use finch_cin::Protocol;
use finch_ir::{Expr, Names, Stmt, Var};
use finch_looplets::{Case, Looplet, Phase, Seek, Stepped};

use crate::bound::{BoundLevel, BoundTensor, UnfurlLeaf};

type Nest = Looplet<UnfurlLeaf>;

impl BoundTensor {
    /// Unfurl level `level` of this tensor, for the fiber at parent position
    /// `parent_pos`, under the requested protocol.
    ///
    /// Fresh runtime variables (positions, seek targets) are drawn from
    /// `names`.
    ///
    /// # Panics
    ///
    /// Panics when `level` is out of range for this tensor.
    pub fn unfurl(
        &self,
        level: usize,
        parent_pos: &Expr,
        protocol: Protocol,
        names: &mut Names,
    ) -> Nest {
        assert!(level < self.ndim(), "level {level} out of range");
        let fill = || Looplet::run(UnfurlLeaf::Value(self.fill_expr()));
        match self.levels()[level].clone() {
            BoundLevel::Dense { size } => self.unfurl_dense(level, parent_pos, size, names),
            BoundLevel::Bitmap { size, tbl } => {
                self.unfurl_bitmap(level, parent_pos, size, tbl, names)
            }
            BoundLevel::SparseList { size: _, pos, idx } => match protocol {
                Protocol::Gallop => {
                    self.unfurl_list_gallop(level, parent_pos, pos, idx, names, fill())
                }
                Protocol::Locate if level + 1 == self.ndim() => {
                    self.unfurl_list_locate(level, parent_pos, pos, idx, names)
                }
                _ => self.unfurl_list_walk(level, parent_pos, pos, idx, names, fill()),
            },
            BoundLevel::SparseBand { size: _, pos, start } => {
                self.unfurl_band(level, parent_pos, pos, start, names, fill())
            }
            BoundLevel::SparseVbl { size: _, pos, idx, ofs } => {
                self.unfurl_vbl(level, parent_pos, pos, idx, ofs, names, fill())
            }
            BoundLevel::RunLength { size: _, pos, idx } => {
                self.unfurl_rle(level, parent_pos, pos, idx, names)
            }
            BoundLevel::PackBits { size: _, pos, idx, ofs } => {
                self.unfurl_packbits(level, parent_pos, pos, idx, ofs, names)
            }
            BoundLevel::Triangular { size: _ } => {
                self.unfurl_triangular(level, parent_pos, names, fill())
            }
            BoundLevel::Symmetric { size: _ } => self.unfurl_symmetric(level, parent_pos, names),
            BoundLevel::Ragged { size: _, pos } => {
                self.unfurl_ragged(level, parent_pos, pos, names, fill())
            }
        }
    }

    /// Figure 6b: a locate protocol for a dense level.
    fn unfurl_dense(
        &self,
        level: usize,
        parent_pos: &Expr,
        size: usize,
        names: &mut Names,
    ) -> Nest {
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let pos = Expr::add(Expr::mul(parent_pos.clone(), Expr::int(size as i64)), Expr::Var(j))
            .simplified();
        Looplet::lookup(j, self.child_leaf(level, pos))
    }

    /// Figure 6c: a locate protocol for a bitmap level, with a runtime
    /// zero check so the compiler can specialise the zero case.
    fn unfurl_bitmap(
        &self,
        level: usize,
        parent_pos: &Expr,
        size: usize,
        tbl: finch_ir::BufId,
        names: &mut Names,
    ) -> Nest {
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let pos = Expr::add(Expr::mul(parent_pos.clone(), Expr::int(size as i64)), Expr::Var(j))
            .simplified();
        let leaf = match self.child_leaf(level, pos.clone()) {
            UnfurlLeaf::Value(value) => {
                UnfurlLeaf::Value(Expr::select(Expr::load(tbl, pos), value, self.fill_expr()))
            }
            sub => sub,
        };
        Looplet::lookup(j, leaf)
    }

    /// Figure 3d: the walking (follower) protocol for a sparse list.
    fn unfurl_list_walk(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        idx: finch_ir::BufId,
        names: &mut Names,
        fill: Nest,
    ) -> Nest {
        let p = names.fresh(&format!("{}_p{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let stepper = Looplet::stepper(Stepped {
            seek: Some(seek_sorted(idx, p, &end, names)),
            stride: Expr::load(idx, Expr::Var(p)),
            body: Looplet::spike_of(
                fill.clone(),
                Looplet::Leaf(self.child_leaf(level, Expr::Var(p))),
            ),
            next: vec![advance(p)],
        });
        Looplet::pipeline(vec![
            Phase {
                stride: Some(last_stored_coordinate(idx, &begin, &end)),
                body: stepper.with_preamble(vec![Stmt::Let { var: p, init: begin }]),
            },
            Phase { stride: None, body: fill },
        ])
    }

    /// Figure 6a: the galloping (leader) protocol for a sparse list.  The
    /// jumper elects this list as a leader; when another leader declares a
    /// larger stride, the switch falls back to a follower stepper.
    fn unfurl_list_gallop(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        idx: finch_ir::BufId,
        names: &mut Names,
        fill: Nest,
    ) -> Nest {
        let p = names.fresh(&format!("{}_p{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let region_hi = names.fresh(&format!("{}_hi{}", self.name(), level));
        let spike = |tensor: &Self| {
            Looplet::spike_of(fill.clone(), Looplet::Leaf(tensor.child_leaf(level, Expr::Var(p))))
        };
        let follower = Looplet::stepper(Stepped {
            seek: Some(seek_sorted(idx, p, &end, names)),
            stride: Expr::load(idx, Expr::Var(p)),
            body: spike(self),
            next: vec![advance(p)],
        });
        let jumper = Looplet::jumper(Stepped {
            seek: Some(seek_sorted(idx, p, &end, names)),
            stride: Expr::load(idx, Expr::Var(p)),
            body: Looplet::switch(vec![
                Case {
                    cond: Expr::eq(Expr::load(idx, Expr::Var(p)), Expr::Var(region_hi)),
                    body: spike(self),
                },
                Case { cond: Expr::bool(true), body: follower },
            ])
            .binding_extent(None, Some(region_hi)),
            next: vec![advance(p)],
        });
        Looplet::pipeline(vec![
            Phase {
                stride: Some(last_stored_coordinate(idx, &begin, &end)),
                body: jumper.with_preamble(vec![Stmt::Let { var: p, init: begin }]),
            },
            Phase { stride: None, body: fill },
        ])
    }

    /// A locate (random access) protocol for a sparse list: every read
    /// performs a binary search.  Only available for the innermost level.
    fn unfurl_list_locate(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        idx: finch_ir::BufId,
        names: &mut Names,
    ) -> Nest {
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let q = Expr::search(idx, begin, Expr::sub(end.clone(), Expr::int(1)), Expr::Var(j), false);
        let found = Expr::binary(
            finch_ir::BinOp::And,
            Expr::lt(q.clone(), end),
            Expr::eq(Expr::load(idx, q.clone()), Expr::Var(j)),
        );
        let value = match self.child_leaf(level, q) {
            UnfurlLeaf::Value(v) => v,
            UnfurlLeaf::Subfiber(_) => unreachable!("locate restricted to the innermost level"),
        };
        let leaf = UnfurlLeaf::Value(Expr::select(found, value, self.fill_expr()));
        Looplet::lookup(j, leaf)
    }

    /// Figure 3f: the banded format — zeros, one dense block, zeros.
    fn unfurl_band(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        start: finch_ir::BufId,
        names: &mut Names,
        fill: Nest,
    ) -> Nest {
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let width = Expr::sub(end, begin.clone()).simplified();
        let s = Expr::load(start, parent_pos.clone());
        // Child position for coordinate j: pos[P] + (j - start[P]).
        let child = Expr::add(begin, Expr::sub(Expr::Var(j), s.clone()));
        Looplet::pipeline(vec![
            Phase { stride: Some(Expr::sub(s.clone(), Expr::int(1))), body: fill.clone() },
            Phase {
                stride: Some(Expr::sub(Expr::add(s, width), Expr::int(1))),
                body: Looplet::lookup(j, self.child_leaf(level, child)),
            },
            Phase { stride: None, body: fill },
        ])
    }

    /// Figure 3b: the VBL (variable block list) format — a stepper over
    /// blocks, each block a zero gap followed by a dense lookup region.
    #[allow(clippy::too_many_arguments)] // the format's three arrays plus lowering context
    fn unfurl_vbl(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        idx: finch_ir::BufId,
        ofs: finch_ir::BufId,
        names: &mut Names,
        fill: Nest,
    ) -> Nest {
        let q = names.fresh(&format!("{}_q{}", self.name(), level));
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let block_end = Expr::load(idx, Expr::Var(q));
        let block_width = Expr::sub(
            Expr::load(ofs, Expr::add(Expr::Var(q), Expr::int(1))),
            Expr::load(ofs, Expr::Var(q)),
        );
        // Value position for coordinate j within block q:
        // ofs[q+1] - 1 - (idx[q] - j).
        let value_pos = Expr::sub(
            Expr::sub(Expr::load(ofs, Expr::add(Expr::Var(q), Expr::int(1))), Expr::int(1)),
            Expr::sub(block_end.clone(), Expr::Var(j)),
        );
        let block = Looplet::pipeline(vec![
            Phase { stride: Some(Expr::sub(block_end.clone(), block_width)), body: fill.clone() },
            Phase { stride: None, body: Looplet::lookup(j, self.child_leaf(level, value_pos)) },
        ]);
        let stepper = Looplet::stepper(Stepped {
            seek: Some(seek_sorted(idx, q, &end, names)),
            stride: block_end,
            body: block,
            next: vec![advance(q)],
        });
        Looplet::pipeline(vec![
            Phase {
                stride: Some(last_stored_coordinate(idx, &begin, &end)),
                body: stepper.with_preamble(vec![Stmt::Let { var: q, init: begin }]),
            },
            Phase { stride: None, body: fill },
        ])
    }

    /// Figure 3g: run-length encoding — a stepper whose children are runs.
    fn unfurl_rle(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        idx: finch_ir::BufId,
        names: &mut Names,
    ) -> Nest {
        let p = names.fresh(&format!("{}_p{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let stepper = Looplet::stepper(Stepped {
            seek: Some(seek_sorted(idx, p, &end, names)),
            stride: Expr::load(idx, Expr::Var(p)),
            body: Looplet::run(self.child_leaf(level, Expr::Var(p))),
            next: vec![advance(p)],
        });
        stepper.with_preamble(vec![Stmt::Let { var: p, init: begin }])
    }

    /// Figure 3h: the PackBits format — a stepper whose children switch
    /// between runs of a repeated value and literal (dense) segments.
    fn unfurl_packbits(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        idx: finch_ir::BufId,
        ofs: finch_ir::BufId,
        names: &mut Names,
    ) -> Nest {
        let p = names.fresh(&format!("{}_p{}", self.name(), level));
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let seek_j = names.fresh(&format!("{}_s{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let marker = Expr::load(idx, Expr::Var(p));
        let seg_end = Expr::sub(Expr::unary(finch_ir::UnOp::Abs, marker.clone()), Expr::int(1));
        // The start coordinate of the current segment: one past the previous
        // segment's end, or 0 for the first segment of the fiber.
        let seg_start = Expr::select(
            Expr::binary(finch_ir::BinOp::Gt, Expr::Var(p), begin.clone()),
            Expr::unary(
                finch_ir::UnOp::Abs,
                Expr::load(idx, Expr::sub(Expr::Var(p), Expr::int(1))),
            ),
            Expr::int(0),
        );
        let run_value = self.child_leaf(level, Expr::load(ofs, Expr::Var(p)));
        let literal_pos =
            Expr::add(Expr::load(ofs, Expr::Var(p)), Expr::sub(Expr::Var(j), seg_start));
        let switch = Looplet::switch(vec![
            Case {
                cond: Expr::binary(finch_ir::BinOp::Gt, marker, Expr::int(0)),
                body: Looplet::run(run_value),
            },
            Case {
                cond: Expr::bool(true),
                body: Looplet::lookup(j, self.child_leaf(level, literal_pos)),
            },
        ]);
        let stepper = Looplet::stepper(Stepped {
            seek: Some(Seek {
                var: seek_j,
                body: vec![Stmt::Assign {
                    var: p,
                    value: Expr::search(
                        idx,
                        Expr::Var(p),
                        Expr::sub(end, Expr::int(1)),
                        Expr::add(Expr::Var(seek_j), Expr::int(1)),
                        true,
                    ),
                }],
            }),
            stride: seg_end,
            body: switch,
            next: vec![advance(p)],
        });
        stepper.with_preamble(vec![Stmt::Let { var: p, init: begin }])
    }

    /// Figure 3a: packed lower-triangular storage.
    fn unfurl_triangular(
        &self,
        level: usize,
        parent_pos: &Expr,
        names: &mut Names,
        fill: Nest,
    ) -> Nest {
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let offset = triangle_offset(parent_pos);
        let pos = Expr::add(offset, Expr::Var(j));
        Looplet::pipeline(vec![
            Phase {
                stride: Some(parent_pos.clone()),
                body: Looplet::lookup(j, self.child_leaf(level, pos)),
            },
            Phase { stride: None, body: fill },
        ])
    }

    /// Figure 3c: packed symmetric storage — the upper triangle reads from
    /// the mirrored position.
    fn unfurl_symmetric(&self, level: usize, parent_pos: &Expr, names: &mut Names) -> Nest {
        let j_low = names.fresh(&format!("{}_j{}", self.name(), level));
        let j_high = names.fresh(&format!("{}_j{}", self.name(), level));
        let low_pos = Expr::add(triangle_offset(parent_pos), Expr::Var(j_low));
        let high_pos = Expr::add(triangle_offset(&Expr::Var(j_high)), parent_pos.clone());
        Looplet::pipeline(vec![
            Phase {
                stride: Some(parent_pos.clone()),
                body: Looplet::lookup(j_low, self.child_leaf(level, low_pos)),
            },
            Phase { stride: None, body: Looplet::lookup(j_high, self.child_leaf(level, high_pos)) },
        ])
    }

    /// Figure 3e: ragged rows — a dense prefix followed by fill.
    fn unfurl_ragged(
        &self,
        level: usize,
        parent_pos: &Expr,
        pos: finch_ir::BufId,
        names: &mut Names,
        fill: Nest,
    ) -> Nest {
        let j = names.fresh(&format!("{}_j{}", self.name(), level));
        let (begin, end) = fiber_bounds(pos, parent_pos);
        let len = Expr::sub(end, begin.clone());
        let child = Expr::add(begin, Expr::Var(j));
        Looplet::pipeline(vec![
            Phase {
                stride: Some(Expr::sub(len, Expr::int(1))),
                body: Looplet::lookup(j, self.child_leaf(level, child)),
            },
            Phase { stride: None, body: fill },
        ])
    }
}

/// The inclusive fiber entry range `[pos[P], pos[P+1])` as `(begin, end)`
/// expressions (`end` is exclusive).
fn fiber_bounds(pos: finch_ir::BufId, parent_pos: &Expr) -> (Expr, Expr) {
    let begin = Expr::load(pos, parent_pos.clone()).simplified();
    let end = Expr::load(pos, Expr::add(parent_pos.clone(), Expr::int(1)).simplified());
    (begin, end)
}

/// The last stored coordinate of the fiber, or `-1` when the fiber is empty
/// (which makes the stored-entries phase empty).
fn last_stored_coordinate(idx: finch_ir::BufId, begin: &Expr, end: &Expr) -> Expr {
    Expr::select(
        Expr::binary(finch_ir::BinOp::Gt, end.clone(), begin.clone()),
        Expr::load(idx, Expr::sub(end.clone(), Expr::int(1))),
        Expr::int(-1),
    )
}

/// A `seek` that binary-searches the sorted coordinate array for the first
/// entry at or after the requested index.
fn seek_sorted(idx: finch_ir::BufId, state: Var, end: &Expr, names: &mut Names) -> Seek {
    let target = names.fresh("seek_i");
    Seek {
        var: target,
        body: vec![Stmt::Assign {
            var: state,
            value: Expr::search(
                idx,
                Expr::Var(state),
                Expr::sub(end.clone(), Expr::int(1)),
                Expr::Var(target),
                false,
            ),
        }],
    }
}

/// `state += 1`.
fn advance(state: Var) -> Stmt {
    Stmt::Assign { var: state, value: Expr::add(Expr::Var(state), Expr::int(1)) }
}

/// `P * (P + 1) / 2`, the packed-triangle row offset.
fn triangle_offset(p: &Expr) -> Expr {
    Expr::binary(
        finch_ir::BinOp::Div,
        Expr::mul(p.clone(), Expr::add(p.clone(), Expr::int(1))),
        Expr::int(2),
    )
    .simplified()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use finch_ir::BufferSet;
    use finch_looplets::Style;

    fn unfurl_inner(t: &Tensor, protocol: Protocol) -> (Nest, Names) {
        let mut bufs = BufferSet::new();
        let mut names = Names::new();
        let b = BoundTensor::bind(t, &mut bufs);
        let level = t.ndim() - 1;
        let parent = Expr::int(0);
        let nest = b.unfurl(level, &parent, protocol, &mut names);
        (nest, names)
    }

    #[test]
    fn sparse_list_walk_matches_the_paper_shape() {
        let t = Tensor::sparse_list_vector(
            "A",
            &[0.0, 1.9, 0.0, 3.0, 2.7, 0.0, 0.0, 0.0, 5.5, 0.0, 0.0],
        );
        let (nest, _) = unfurl_inner(&t, Protocol::Walk);
        // Pipeline(Phase(Thunk(Stepper(Spike(Run, tail)))), Phase(Run))
        let text = format!("{nest}");
        assert!(text.starts_with("Pipeline(Phase(Thunk(Stepper(Spike("), "got {text}");
        assert!(text.ends_with("Phase(Run(Value(Lit(Float(0.0))))))"), "got {text}");
    }

    #[test]
    fn sparse_list_gallop_wraps_a_jumper_with_a_switch() {
        let t = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Gallop);
        let text = format!("{nest}");
        assert!(text.contains("Jumper(BindExtent(Switch(Case(Spike("), "got {text}");
        assert!(text.contains("Case(Stepper(Spike("), "got {text}");
    }

    #[test]
    fn band_unfurls_into_three_phases() {
        let t = Tensor::band_vector("B", &[0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Default);
        match &nest {
            Looplet::Pipeline { phases } => {
                assert_eq!(phases.len(), 3);
                assert_eq!(phases[0].body.style(), Style::Run);
                assert_eq!(phases[1].body.style(), Style::Lookup);
                assert_eq!(phases[2].body.style(), Style::Run);
            }
            other => panic!("expected pipeline, got {other}"),
        }
    }

    #[test]
    fn vbl_unfurls_blocks_as_run_then_lookup() {
        let t = Tensor::vbl_vector("V", &[0.0, 0.0, 2.7, 5.0, 0.9, 0.0, 0.0, 1.4, 2.3, 0.0, 0.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Default);
        let text = format!("{nest}");
        assert!(
            text.contains("Stepper(Pipeline(Phase(Run("),
            "blocks should be a zero gap followed by a dense region: {text}"
        );
    }

    #[test]
    fn rle_unfurls_into_a_stepper_of_runs() {
        let t = Tensor::rle_vector("R", &[3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 2.0, 4.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Default);
        let text = format!("{nest}");
        assert!(text.starts_with("Thunk(Stepper(Run("), "got {text}");
    }

    #[test]
    fn packbits_unfurls_into_a_stepper_of_switches() {
        let t =
            Tensor::packbits_vector("P", &[1.0, 1.0, 1.0, 1.0, 9.0, 7.0, 2.0, 2.0, 2.0, 2.0, 3.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Default);
        let text = format!("{nest}");
        assert!(text.starts_with("Thunk(Stepper(Switch(Case(Run("), "got {text}");
        assert!(text.contains("Case(Lookup("), "got {text}");
    }

    #[test]
    fn dense_and_bitmap_unfurl_into_lookups() {
        let t = Tensor::dense_vector("D", &[1.0, 0.0, 2.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Locate);
        assert_eq!(nest.style(), Style::Lookup);

        let t = Tensor::bitmap_vector("B", &[1.0, 0.0, 2.0]);
        let (nest, _) = unfurl_inner(&t, Protocol::Locate);
        assert_eq!(nest.style(), Style::Lookup);
        // The bitmap leaf contains a select on the bytemap.
        let text = format!("{nest}");
        assert!(text.contains("Select"), "got {text}");
    }

    #[test]
    fn triangular_symmetric_and_ragged_unfurl_into_pipelines() {
        let data = vec![
            1.0, 0.0, 0.0, //
            2.0, 3.0, 0.0, //
            4.0, 5.0, 6.0,
        ];
        for t in [
            Tensor::triangular_matrix("T", 3, &data),
            Tensor::symmetric_matrix("S", 3, &data),
            Tensor::ragged_matrix("G", 3, 3, &data),
        ] {
            let mut bufs = BufferSet::new();
            let mut names = Names::new();
            let b = BoundTensor::bind(&t, &mut bufs);
            let nest = b.unfurl(1, &Expr::int(2), Protocol::Default, &mut names);
            assert_eq!(nest.style(), Style::Pipeline, "format {}", t.levels()[1].format_name());
        }
    }

    #[test]
    fn outer_dense_level_produces_subfiber_leaves() {
        let t = Tensor::csr_matrix("A", 3, 4, &[0.0; 12]);
        let mut bufs = BufferSet::new();
        let mut names = Names::new();
        let b = BoundTensor::bind(&t, &mut bufs);
        let nest = b.unfurl(0, &Expr::int(0), Protocol::Default, &mut names);
        match nest {
            Looplet::Lookup { body, .. } => match &*body {
                Looplet::Leaf(UnfurlLeaf::Subfiber(_)) => {}
                other => panic!("expected a subfiber leaf, got {other}"),
            },
            other => panic!("expected lookup, got {other}"),
        }
    }
}
