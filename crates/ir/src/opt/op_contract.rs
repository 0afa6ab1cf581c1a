//! The kernel-op contract, written down once and checked by one harness.
//!
//! Six kernel ops run iterations of a scalar loop natively: the five V-ops
//! and the step loop op ([`Instr::IStepLoop`]) under every [`Step`].  Each
//! *requires* its runtime preconditions or does nothing, and *ensures* the
//! registers, buffers and [`ExecStats`] of the scalar iterations it takes.
//! Each stops where the scalar loop stops: it counts a statement only where
//! the check the scalar loop makes there passes, so that a step budget, an
//! allocation budget, an injected fault, a cancellation and a deadline trip
//! at the same statement with the op, without it and in the tree-walker.
//!
//! [`rows`] is one table of kernels and inputs, each marked with the axes
//! that run it and with how many kernel ops its program carries, which its
//! plain run asserts.  On every axis a row runs on the tree-walker and on the VM
//! with `simd` on and off, and the three leave the same verdict (the result,
//! or an injected fault's panic), the same counters and the same outputs
//! (the tree-walker's by [`Buffer::same_as`], every NaN one value); the op's
//! outputs are the scalar loop's bit for bit, NaN bits included, except
//! where a commutative op (`+`, `*`, `min`, `max`) can meet NaNs of both
//! signs: the machine code may swap its operands, and Rust does not fix
//! which NaN comes out, so those rows (`min` and `max` of two sources, a
//! reduction's fold) draw their NaNs of one sign.  The last test
//! tallies the rows by kernel op, skip form and performed guard × output,
//! prints the table and fails on a zero: a new op, form or combination
//! brings its rows with it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use super::merge_skip::supported;
use super::merge_skip::tests::*;
use super::vectorize::tests::*;
use crate::buffer::{BufId, Buffer, BufferSet};
use crate::bytecode::{
    Gather, Guard, Instr, MergeForm, Out, Product, Program, Reg, Step, Term, VRhs, VScale,
};
use crate::error::RuntimeError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::interp::{ExecStats, Interpreter};
use crate::stmt::Stmt;
use crate::var::Names;
use crate::vm::{Vm, Watch};

/// The axes a [`Case`] runs on: every step budget, every allocation budget,
/// a fault at every statement, a raised (and a lowered) cancellation flag,
/// a passed deadline.  Each also checks the plain run, and a case with
/// rebound inputs runs the rebinding axis.
const BUDGETS: u8 = 1;
const ALLOCS: u8 = 2;
const FAULTS: u8 = 4;
const CANCEL: u8 = 8;
const DEADLINE: u8 = 16;

/// The values buffers of [`merge_kernel`] and [`run_kernel`].
const A_VAL: BufId = BufId(1);
const B_VAL: BufId = BufId(3);

/// The outputs of [`match_kernel`].
const M_OUTS: &[BufId] = &[M_OUT, M_CRD, M_VALS];

/// One kernel, the input its axes run it on, the axes, the outputs they
/// compare, the inputs of the rebinding axis (the kernel's own with a
/// buffer rebound to another kind or length), how many kernel ops its
/// compiled program carries, and the most iterations the scalar loop of a
/// skipping op may run on the plain run.
struct Case {
    what: String,
    kernel: Kernel,
    bufs: BufferSet,
    legs: u8,
    outs: &'static [BufId],
    rebound: Vec<(&'static str, BufferSet)>,
    ops: usize,
    most: Option<u64>,
}

impl Case {
    fn new(what: String, kernel: Kernel, legs: u8, outs: &'static [BufId]) -> Case {
        let bufs = kernel.2.clone();
        Case { what, kernel, bufs, legs, outs, rebound: Vec::new(), ops: 1, most: None }
    }

    /// This case with `rebound`'s buffers rebound, one at a time, in its
    /// input.
    fn rebinding(mut self, rebound: Vec<(&'static str, BufId, Buffer)>) -> Case {
        for (what, buf, with) in rebound {
            let mut bufs = self.bufs.clone();
            *bufs.get_mut(buf) = with;
            self.rebound.push((what, bufs));
        }
        self
    }
}

/// A xorshift stream from `seed`: `draw(below)` is in `0..below`.
fn xorshift(mut rng: u64) -> impl FnMut(u64) -> u64 {
    move |below| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % below
    }
}

/// How many iterations of `shape`'s loop run its guarded body.
fn matches(a: &[i64], b: &[i64], stop: i64, shape: Shape) -> u64 {
    let lens = match shape {
        Shape::Intersection | Shape::Scatter | Shape::Gallop => vec![1; a.len()],
        _ => block_lens(a),
    };
    let inside =
        |x: &i64| a.iter().zip(&lens).any(|(last, len)| (last - len + 1..=*last).contains(x));
    b.iter().filter(|x| inside(x) && **x <= stop).count() as u64
}

/// Every row: each kernel op's kernels on the inputs of each axis.
fn rows() -> Vec<Case> {
    let floats = |n: usize, x: f64| Buffer::F64(vec![x; n].into());
    let ints = |n: usize| Buffer::I64(vec![1; n].into());
    let cut = |list: &[i64]| Buffer::I64(list.to_vec().into());
    let mut cases = Vec::new();
    // The V-ops: each body over both zeros, NaN and the infinities, and over
    // finite values; past a passed deadline, over a bulk longer than the
    // clock's check period.
    for body in BODIES {
        let pushes = matches!(body, Body::Copy | Body::Sieve);
        let (legs, outs): (u8, &[BufId]) =
            if pushes { (ALLOCS, &[V_IDX, V_VALS]) } else { (0, &[V_OUT]) };
        let mut rebound = match body {
            Body::Fill => vec![],
            Body::FillReg => vec![("xs empty", V_XS, floats(0, 1.5))],
            _ => vec![("xs cut short", V_XS, floats(20, 1.5)), ("xs as i64", V_XS, ints(40))],
        };
        rebound.extend(match body {
            Body::Copy | Body::Sieve => vec![
                ("idx as f64", V_IDX, floats(0, 0.0)),
                ("vals as i64", V_VALS, ints(0)),
                ("idx as bool", V_IDX, Buffer::Bool(Vec::new())),
            ],
            Body::Dot | Body::Max => {
                vec![("out empty", V_OUT, floats(0, 0.0)), ("out as i64", V_OUT, ints(1))]
            }
            _ => vec![("out cut short", V_OUT, floats(20, 9.5)), ("out as i64", V_OUT, ints(40))],
        });
        if matches!(body, Body::Blend | Body::Dot) {
            rebound
                .extend([("ys cut short", V_YS, floats(20, 1.5)), ("ys as i64", V_YS, ints(40))]);
        }
        let kernel = |n, special| vop_kernel(body, &dense_values(n, special));
        let what = format!("{body:?}");
        let case =
            Case::new(what.clone(), kernel(40, true), legs | BUDGETS | FAULTS | CANCEL, outs);
        cases.push(case.rebinding(rebound));
        cases.push(Case::new(format!("{what}, finite"), kernel(40, false), legs | BUDGETS, outs));
        cases.push(Case::new(format!("{what}, long"), kernel(1500, true), DEADLINE, outs));
    }
    // Every path of a vector map, and a pre-scaled reduction: over every
    // pair of specials, over finite values, and past a passed deadline.
    for body in MAPS {
        let (n, what) =
            (if body == Map::Round { halves().len() } else { 121 }, format!("{body:?}"));
        let mut rebound =
            vec![("xs cut short", V_XS, floats(20, 1.5)), ("xs as i64", V_XS, ints(n))];
        if matches!(body, Map::Ratio | Map::Diff | Map::Min | Map::Max) {
            rebound.extend([("ys cut short", V_YS, floats(20, 1.5)), ("ys as i64", V_YS, ints(n))]);
        }
        rebound.extend(match body {
            Map::Reduce => {
                vec![("out empty", V_OUT, floats(0, 0.0)), ("out as i64", V_OUT, ints(1))]
            }
            _ => vec![("out cut short", V_OUT, floats(20, 9.5)), ("out as i64", V_OUT, ints(n))],
        });
        let kernel = |(xs, ys): (Vec<f64>, Vec<f64>)| map_kernel(body, &xs, &ys);
        let legs = BUDGETS | FAULTS | CANCEL;
        let case = Case::new(what.clone(), kernel(map_operands(body, n)), legs, &[V_OUT]);
        cases.push(case.rebinding(rebound));
        let finite = (dense_values(40, false), (0..40).map(|k| f64::from(k) / 3.0 - 3.0).collect());
        cases.push(Case::new(format!("{what}, finite"), kernel(finite), BUDGETS, &[V_OUT]));
        let long = kernel(map_operands(body, 1500));
        cases.push(Case::new(format!("{what}, long"), long, DEADLINE, &[V_OUT]));
    }
    // Fig. 9's window dot (an offset base, a register accumulator), and a
    // fill of a run's value at a row base.
    for trips in 1..=9 {
        let what = format!("window dot of {trips}");
        let legs = BUDGETS | FAULTS;
        cases.push(Case::new(what.clone(), window_dot(6, trips, false), legs, &[V_OUT]));
        cases.push(Case::new(what, window_dot(400, trips, false), DEADLINE, &[V_OUT]));
    }
    let broadcast =
        |hi| Case::new(format!("broadcast to {hi}"), run_broadcast(2, hi), BUDGETS, &[V_OUT]);
    let rebound = vec![("out as i64", V_OUT, ints(32)), ("out cut short", V_OUT, floats(24, 9.0))];
    cases.push(Case { legs: BUDGETS | FAULTS, ..broadcast(13) }.rebinding(rebound));
    cases.push(broadcast(3));
    // Two fingers' skipped (and matched) steps, in every form, on every
    // operand pair; one pair per form also faults, is cancelled and rebound.
    for shape in TAKEN {
        for (a, b, stop) in operand_pairs() {
            let what = format!("{a:?} x {b:?} to {stop}, {shape:?}");
            let case = Case::new(what, merge_kernel_with(&a, &b, stop, shape), BUDGETS, &[OUT]);
            let most = Some(matches(&a, &b, stop, shape) + 1);
            cases.push(Case { ops: op_count(shape), most, ..case });
        }
    }
    let (a, b): (Vec<i64>, Vec<i64>) = (vec![3, 17, 30, 99], (0..41).collect());
    for shape in [Shape::Intersection, Shape::Scatter, Shape::Block, Shape::Gallop] {
        let mut rebound = vec![
            ("a as f64", A_IDX, Buffer::F64(vec![3.0, 17.0, 30.0, 99.0].into())),
            ("a cut short", A_IDX, cut(&[3, 17])),
            ("b cut short", B_IDX, cut(&(0..12).collect::<Vec<_>>())),
            ("a empty", A_IDX, cut(&[])),
            ("b as f64", B_IDX, Buffer::F64((0..41).map(f64::from).collect())),
        ];
        if shape == Shape::Block {
            // The block offsets run out at the third block, or are no
            // longer `i64`.
            rebound.push(("offsets cut short", A_OFS, cut(&[0, 4, 6])));
            rebound.push(("offsets as f64", A_OFS, Buffer::F64(vec![0.0, 4.0, 6.0, 9.0].into())));
        }
        if shape == Shape::Gallop {
            // `b`'s row ends early (its seeks run past the row, onto
            // coordinates the loop still reads), past the list (a seek's
            // window leaves it), or is no longer `i64`.
            rebound.push(("b's row short", B_POS, cut(&[0, 9])));
            rebound.push(("b's row long", B_POS, cut(&[0, 60])));
            rebound.push(("b's row as f64", B_POS, Buffer::F64(vec![0.0, 41.0].into())));
        }
        let kernel = merge_kernel_with(&a, &b, 39, shape);
        let case = Case::new(format!("{shape:?}"), kernel, FAULTS | CANCEL, &[OUT]);
        cases.push(Case { ops: op_count(shape), ..case }.rebinding(rebound));
    }
    // The lone reductions on every list; the first also faults and is
    // rebound, the gathered vector short of the coordinate it reads.
    for shape in GATHERED {
        for (k, (crd, stop)) in lone_lists().into_iter().enumerate() {
            let kernel = gather_kernel(&crd, stop, shape);
            let case = Case::new(format!("{crd:?} to {stop}, {shape:?}"), kernel, BUDGETS, &[SUM]);
            if k > 0 {
                cases.push(case);
                continue;
            }
            let mut rebound = vec![
                ("crd as f64", CRD, floats(4, 1.5)),
                ("crd cut short", CRD, cut(&[3, 17])),
                ("vals cut short", VALS, floats(2, 1.5)),
                ("vals as i64", VALS, ints(4)),
                ("sum as i64", SUM, ints(41)),
                ("sum empty", SUM, floats(0, 0.0)),
            ];
            if shape != Lone::Max {
                let short = if shape == Lone::AtFinger { 2 } else { 18 };
                rebound.push(("x cut short", X, floats(short, 1.5)));
                rebound.push(("x as i64", X, ints(41)));
            }
            if shape == Lone::Band {
                rebound.push(("x_pos cut short", X_POS, cut(&[])));
                rebound.push(("x_start as f64", X_START, floats(1, 1.5)));
            }
            cases.push(Case { legs: BUDGETS | FAULTS, ..case }.rebinding(rebound));
        }
    }
    // The appends under every guard on every list; the first list also
    // faults and is rebound.
    for (k, (crd, stop)) in lone_lists().into_iter().enumerate() {
        for guard in GUARDS {
            let kernel = append_kernel(&crd, &append_values(crd.len()), stop, guard);
            let what = format!("{crd:?} to {stop}, guard {guard:?}");
            let case = Case::new(what, kernel, BUDGETS | ALLOCS, &[KEPT_CRD, KEPT_VALS]);
            if k > 0 {
                cases.push(case);
                continue;
            }
            let rebound = vec![
                ("crd cut short", CRD, cut(&[3, 17])),
                ("crd as f64", CRD, floats(4, 2.5)),
                ("vals cut short", VALS, floats(2, 2.5)),
                ("vals as i64", VALS, ints(4)),
                ("kept crd as f64", KEPT_CRD, floats(0, 2.5)),
                ("kept vals as i64", KEPT_VALS, ints(0)),
                ("kept crd as bool", KEPT_CRD, Buffer::Bool(Vec::new())),
            ];
            let legs = BUDGETS | ALLOCS | FAULTS | CANCEL;
            cases.push(Case { legs, ..case }.rebinding(rebound));
        }
    }
    let mut draw = xorshift(0x2545_F491_4F6C_DD1D);
    for guard in GUARDS {
        let mut crd: Vec<i64> = (0..600).filter(|_| draw(2) == 0).collect();
        crd.push(1000);
        let kernel = append_kernel(&crd, &append_values(crd.len()), 599, guard);
        let outs = &[KEPT_CRD, KEPT_VALS];
        cases.push(Case::new(
            format!("{} to 599, guard {guard:?}", crd.len()),
            kernel,
            DEADLINE,
            outs,
        ));
    }
    // The matches on every pair, under finite values and under both zeros,
    // NaN and the infinities.  The kernel itself holds finite values: they
    // are the witnesses its compilation is validated on.
    let values = |list: &[i64], from, special| match_values(list.len(), from, special);
    for (a, b, stop) in match_pairs() {
        for body in MATCHED {
            let finite = (values(&a, 0, false), values(&b, 3, false));
            let kernel = match_kernel((&a, &finite.0), (&b, &finite.1), stop, body);
            let legs = if body == Matched::Append { BUDGETS | ALLOCS } else { BUDGETS };
            for special in [false, true] {
                let what = format!("{a:?} x {b:?} to {stop}, {body:?}, special {special}");
                let bufs = with_values(&kernel, values(&a, 0, special), values(&b, 3, special));
                cases.push(Case { bufs, ..Case::new(what, kernel.clone(), legs, M_OUTS) });
            }
        }
    }
    let (a, b) = (vec![2, 5, 9, 14, 20, 1000], vec![1, 2, 9, 11, 14, 18, 20, 1000]);
    let (all, thirds): (Vec<i64>, Vec<i64>) = ((0..40).collect(), (0..40).step_by(3).collect());
    for body in MATCHED {
        let kernel = |(a, b): (&[i64], &[i64]), from, stop| {
            match_kernel((a, &values(a, from, false)), (b, &values(b, from, false)), stop, body)
        };
        cases.push(Case::new(format!("{body:?}"), kernel((&a, &b), 1, 25), FAULTS, M_OUTS));
        let cancelled = kernel((&all, &thirds), 0, 30);
        cases.push(Case::new(format!("{body:?}"), cancelled, CANCEL, M_OUTS));
        let mut rebound = vec![
            ("a_val cut short", M_A_VAL, floats(2, 0.5)),
            ("a_val as i64", M_A_VAL, ints(6)),
            ("x cut short", M_B_VAL, floats(3, 0.5)),
            ("x as i64", M_B_VAL, ints(8)),
        ];
        if body == Matched::Append {
            rebound.push(("crd as f64", M_CRD, floats(0, 0.5)));
            rebound.push(("vals as i64", M_VALS, ints(0)));
            rebound.push(("crd as bool", M_CRD, Buffer::Bool(Vec::new())));
        } else {
            rebound.push(("acc as i64", M_OUT, ints(1)));
            rebound.push(("acc empty", M_OUT, floats(0, 0.0)));
        }
        if body == Matched::Led {
            rebound.push(("lead cut short", M_LEAD, floats(1, 0.5)));
            rebound.push(("lead as i64", M_LEAD, ints(2)));
        }
        let kernel = kernel((&a, &b), 2, 25);
        let bufs = with_values(&kernel, values(&a, 2, true), values(&b, 2, true));
        let case = Case { bufs, ..Case::new(format!("{body:?}"), kernel, 0, M_OUTS) };
        cases.push(case.rebinding(rebound));
    }
    // The two-finger reductions on every pair of runs; one pair also
    // faults and is rebound.
    for shape in REDUCED {
        for (a, b, stop) in run_pairs() {
            let what = format!("{a:?} x {b:?} to {stop}, {shape:?}");
            cases.push(Case::new(what, run_kernel(&a, &b, stop, shape), BUDGETS, &[OUT]));
        }
        let kernel = run_kernel(&[3, 7, 8, 20], &[1, 7, 9, 20, 30], 20, shape);
        let mut rebound = vec![
            ("a_val cut short", A_VAL, floats(2, 1.5)),
            ("a_val as i64", A_VAL, ints(4)),
            ("a_idx cut short", A_IDX, cut(&[3, 7])),
            ("a_idx as f64", A_IDX, floats(4, 1.5)),
            ("out as i64", OUT, ints(1)),
            ("out empty", OUT, floats(0, 0.0)),
        ];
        if shape != Runs::Norm {
            rebound.push(("b_val cut short", B_VAL, floats(3, 1.5)));
            rebound.push(("b_val as i64", B_VAL, ints(5)));
            rebound.push(("b_idx cut short", B_IDX, cut(&[1, 7])));
        }
        let case = Case::new(format!("{shape:?}"), kernel, FAULTS, &[OUT]);
        cases.push(case.rebinding(rebound));
    }
    let cancelled = run_kernel(&(0..=40).collect::<Vec<_>>(), &[9, 19, 40], 40, Runs::Product);
    cases.push(Case::new("Product".into(), cancelled, CANCEL, &[OUT]));
    // The stores into a dense output on every list, under finite values and
    // under both zeros, NaN and the infinities in both operands; the first
    // list also runs under allocation budgets and is rebound.  Faults,
    // cancellation and a passed deadline run over runs of every length up
    // to 40, so that a fault or the clock's check lands inside the run the
    // scalar step fills.
    let mut draw = xorshift(0x2545_F491_4F6C_DD1D);
    for how in DENSES {
        let (crd, special) = (run_ends(&mut draw, 40, 12, false), how == Dense::Add);
        let vals = (dense_values(crd.len(), special), dense_values(41, !special));
        let kernel = store_kernel(&crd, (&vals.0, &vals.1), 40, how);
        let what = format!("{crd:?} to 40, {how:?}");
        let ops = store_ops(how);
        cases.push(Case { ops, ..Case::new(what, kernel, FAULTS | CANCEL, &[DENSE]) });
        for round in 0..20u64 {
            let stop = 1100 + draw(900) as i64;
            let crd = run_ends(&mut draw, stop, 1 + round * 2, false);
            let special = round % 2 == 1;
            let vals = (dense_values(crd.len(), special), dense_values(stop as usize + 1, special));
            let kernel = store_kernel(&crd, (&vals.0, &vals.1), stop, how);
            let what = format!("{crd:?} to {stop}, {how:?}, special {special}");
            cases.push(Case { ops, ..Case::new(what, kernel, DEADLINE, &[DENSE]) });
        }
    }
    for how in DENSES {
        for (k, (crd, stop)) in lone_lists().into_iter().enumerate() {
            for special in [false, true] {
                let vals = (append_values(crd.len()), dense_values(41, special));
                let kernel = store_kernel(&crd, (&vals.0, &vals.1), stop, how);
                let what = format!("{crd:?} to {stop}, {how:?}, special {special}");
                let case =
                    Case { ops: store_ops(how), ..Case::new(what, kernel, BUDGETS, &[DENSE]) };
                if k > 0 || special {
                    cases.push(case);
                    continue;
                }
                let rebound = vec![
                    ("crd cut short", CRD, cut(&[3, 17])),
                    ("crd as f64", CRD, floats(4, 2.5)),
                    ("vals cut short", VALS, floats(2, 2.5)),
                    ("vals as i64", VALS, ints(4)),
                    ("x cut short", X, floats(18, 2.5)),
                    ("x as i64", X, ints(40)),
                    ("out cut short", DENSE, floats(20, 9.5)),
                    ("out empty", DENSE, floats(0, 0.0)),
                    ("out as i64", DENSE, ints(40)),
                    ("out as bool", DENSE, Buffer::Bool(vec![false; 40])),
                ];
                // A store allocates nothing, under any allocation budget.
                cases.push(Case { legs: BUDGETS | ALLOCS, ..case }.rebinding(rebound));
            }
        }
    }
    // Sorted lists drawn at random under every skip form and every matched
    // body, and run-length pairs — runs of every length from one, ends that
    // coincide, a last run on the bound or past it — under every reduction.
    let mut draw = xorshift(0x2545_F491_4F6C_DD1D);
    for round in 0..200 {
        let mut list = |one_in: u64| {
            let mut out: Vec<i64> = (0..60).filter(|_| draw(one_in) == 0).collect();
            out.push(500);
            out
        };
        let (a, b) = (list(1 + round % 7), list(1 + round % 5));
        let shape = TAKEN[round as usize % TAKEN.len()];
        let kernel = merge_kernel_with(&a, &b, 59, shape);
        let case = Case::new(format!("{a:?} x {b:?}, {shape:?}"), kernel, DEADLINE, &[OUT]);
        cases.push(Case { ops: op_count(shape), ..case });
    }
    let mut draw = xorshift(0x51_7CC1_B727_220A);
    for round in 0..90u64 {
        let mut list = |one_in: u64| {
            let mut out: Vec<i64> = (0..400).filter(|_| draw(one_in) == 0).collect();
            out.push(5000);
            out
        };
        let (a, b) = (list(1 + round % 4), list(1 + round % 3));
        let (body, special) = (MATCHED[round as usize % MATCHED.len()], round % 2 == 1);
        let finite = (values(&a, 0, false), values(&b, 3, false));
        let kernel = match_kernel((&a, &finite.0), (&b, &finite.1), 399, body);
        let bufs = with_values(&kernel, values(&a, 0, special), values(&b, 3, special));
        let what = format!("{a:?} x {b:?}, {body:?}, special {special}");
        cases.push(Case { bufs, ..Case::new(what, kernel, DEADLINE, M_OUTS) });
    }
    let mut draw = xorshift(0x9E37_79B9_7F4A_7C15);
    for round in 0..120u64 {
        let stop = 10 + draw(300) as i64;
        let a = run_ends(&mut draw, stop, 1 + round % 9, round % 2 == 0);
        let b = run_ends(&mut draw, stop, 1 + round % 4, round % 3 == 0);
        let shape = REDUCED[round as usize % REDUCED.len()];
        let what = format!("{a:?} x {b:?} to {stop}, {shape:?}");
        cases.push(Case::new(what, run_kernel(&a, &b, stop, shape), DEADLINE, &[OUT]));
    }
    cases
}

/// A vector map's body in [`map_kernel`], or a pre-scaled reduction's:
/// between them, every path `Vm::v_map` tells apart ([`map_paths`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Map {
    /// `out[i] = round(xs[i])`: nothing but the round.
    Round,
    /// `out[i] = xs[i] / 3`: a right pre-scale on `Div`.
    Third,
    /// `out[i] += 2.5 - xs[i]`: a left pre-scale on `Sub`, reduced.
    SubFrom,
    /// `out[i] = 1.5 / xs[i] - 0.25`: a left pre-scale on `Div`, then an
    /// immediate.
    Recip,
    /// `out[i] += (xs[i] - 1) / (2 - ys[i])`: a right and a left pre-scale on
    /// `Sub`, combined by `Div`, reduced.
    Ratio,
    /// `out[i] = xs[i] - ys[i] / 4`: the second source's right pre-scale on
    /// `Div`.
    Diff,
    /// `out[i] = min(xs[i], ys[i])`.
    Min,
    /// `out[i] = max(xs[i], ys[i])`.
    Max,
    /// `out[i] = min(max(0, xs[i]), -0)`: a pre-scale and an immediate over
    /// both zeros.
    Clamp,
    /// `out[0] += 2 - xs[i]`: a reduction's left pre-scale.
    Reduce,
}

const MAPS: [Map; 10] = [
    Map::Round,
    Map::Third,
    Map::SubFrom,
    Map::Recip,
    Map::Ratio,
    Map::Diff,
    Map::Min,
    Map::Max,
    Map::Clamp,
    Map::Reduce,
];

/// `for i in 0..=n - 1 { body }` over `xs` and `ys` (`n` of each), `out`
/// all `9.5`: a loop `vectorize` gives one V-op, its buffers those of
/// `vop_kernel`.
fn map_kernel(body: Map, xs: &[f64], ys: &[f64]) -> Kernel {
    let (mut names, mut bufs) = (Names::new(), BufferSet::new());
    let x = bufs.add("xs", Buffer::F64(xs.to_vec().into()));
    let y = bufs.add("ys", Buffer::F64(ys.to_vec().into()));
    let out = bufs.add("out", Buffer::F64(vec![9.5; xs.len()].into()));
    assert_eq!((x, y, out), (V_XS, V_YS, V_OUT));
    let [i, u] = ["i", "u"].map(|name| names.fresh(name));
    let (at, c, op) = (|buf| Expr::load(buf, Expr::Var(i)), Expr::float, Expr::binary);
    // Lowering fuses `c op xs[i]` into one load-op instruction, which no
    // kernel op takes unless `op` is `*`; a load bound by a `let` stays a
    // load of its own.
    let (bound, value, reduce) = match body {
        Map::Round => (None, Expr::unary(UnOp::Round, at(x)), None),
        Map::Third => (None, op(BinOp::Div, at(x), c(3.0)), None),
        Map::SubFrom => (Some(x), op(BinOp::Sub, c(2.5), Expr::Var(u)), Some(BinOp::Add)),
        Map::Recip => {
            (Some(x), op(BinOp::Sub, op(BinOp::Div, c(1.5), Expr::Var(u)), c(0.25)), None)
        }
        Map::Ratio => {
            let (num, den) = (op(BinOp::Sub, at(x), c(1.0)), op(BinOp::Sub, c(2.0), Expr::Var(u)));
            (Some(y), op(BinOp::Div, num, den), Some(BinOp::Add))
        }
        Map::Diff => (None, op(BinOp::Sub, at(x), op(BinOp::Div, at(y), c(4.0))), None),
        Map::Min => (Some(y), op(BinOp::Min, at(x), Expr::Var(u)), None),
        Map::Max => (Some(y), op(BinOp::Max, at(x), Expr::Var(u)), None),
        Map::Clamp => {
            (Some(x), op(BinOp::Min, op(BinOp::Max, c(0.0), Expr::Var(u)), c(-0.0)), None)
        }
        Map::Reduce => (Some(x), op(BinOp::Sub, c(2.0), Expr::Var(u)), Some(BinOp::Add)),
    };
    let index = if body == Map::Reduce { Expr::int(0) } else { Expr::Var(i) };
    let bound = bound.map(|buf| Stmt::Let { var: u, init: at(buf) });
    let body = bound.into_iter().chain([Stmt::Store { buf: out, index, value, reduce }]).collect();
    let hi = Expr::int(xs.len() as i64 - 1);
    (vec![Stmt::For { var: i, lo: Expr::int(0), hi, body }], names, bufs)
}

/// `n` operands of each source for `body`: a round's halves `±(k + 0.5)`
/// and values out of its range, or else every pair of both zeros, NaNs of
/// both signs, the infinities and a few finite values, so that `min` and
/// `max` meet `-0` beside `+0` either way round.  Where a commutative op
/// meets two NaNs — `min` and `max` of the two sources, and a reduction's
/// fold, which meets every NaN before it in one `+` — a NaN of each sign
/// would leave the sign of the result to the machine code, which may swap
/// the operands (Rust does not fix it, and the numeric contract in
/// README.md leaves it out), so those rows' `-NaN` is `NaN`.
fn map_operands(body: Map, n: usize) -> (Vec<f64>, Vec<f64>) {
    let one_sign = matches!(body, Map::Min | Map::Max | Map::Reduce);
    let nan = if one_sign { f64::NAN } else { -f64::NAN };
    let specials =
        [0.0, -0.0, f64::NAN, nan, f64::INFINITY, f64::NEG_INFINITY, 2.5, -1.5, 1.0, 2.0, 0.5];
    let xs: Vec<f64> = match body {
        Map::Round => halves().into_iter().cycle().take(n).collect(),
        _ => (0..n).map(|k| specials[k / specials.len() % specials.len()]).collect(),
    };
    (xs, (0..n).map(|k| specials[k % specials.len()]).collect())
}

/// Ties `±(k + 0.5)` from 0.5 to 39.5 and from 250.5 to 257.5, their
/// neighbours at 0.5 and 254.5, and values a round clamps or passes on.
fn halves() -> Vec<f64> {
    let ties = (0..40).chain(250..258).map(|k| f64::from(k) + 0.5);
    let mut xs: Vec<f64> = ties.collect();
    xs.extend([0.49999999999999994, 254.49999999999997, 300.0, 1e300, 4503599627370495.5]);
    xs.extend([f64::INFINITY, f64::NAN, 0.0]);
    xs.extend(xs.clone().into_iter().map(|x| -x));
    xs
}

/// The kernel ops of `how`'s store: the step loop op, and for an
/// assignment a fill of zeros in each branch of its step.
fn store_ops(how: Dense) -> usize {
    1 + 2 * usize::from(how == Dense::Assign)
}

/// A row of the table: a case, and its kernel compiled with the kernel ops
/// and without them.
struct Row {
    case: Case,
    c: Compiled,
}

/// Every row, compiled once, under full validation, for every axis: on two
/// threads, each half the rows.
fn table() -> &'static [Row] {
    static TABLE: OnceLock<Vec<Row>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let cases = rows();
        let compiled = std::thread::scope(|scope| {
            let (front, back) = cases.split_at(cases.len() / 2);
            let compile_all = |cases: &[Case]| -> Vec<Compiled> {
                cases.iter().map(|case| compile(&case.kernel)).collect()
            };
            let back = scope.spawn(move || compile_all(back));
            let mut compiled = compile_all(front);
            compiled.extend(back.join().expect("the rows compile"));
            compiled
        });
        cases.into_iter().zip(compiled).map(|(case, c)| Row { case, c }).collect()
    })
}

/// The rows that run `leg`.
fn on(leg: u8) -> impl Iterator<Item = &'static Row> {
    table().iter().filter(move |row| row.case.legs & leg != 0)
}

/// One run's setting: free, or under a step budget, an allocation budget,
/// a fault injected at a statement, a deadline that has passed, or a
/// cancellation flag raised (or not).
#[derive(Debug, Clone, Copy)]
enum Axis {
    Free,
    Budget(u64),
    Alloc(u64),
    Fault(u64),
    Deadline,
    Cancel(bool),
}

/// What a run leaves: its verdict (the result, or a panic's message), its
/// counters and its buffers.
type Left = (String, ExecStats, BufferSet);

impl Axis {
    fn budgets(self) -> (Option<u64>, Option<u64>) {
        match self {
            Axis::Budget(steps) => (Some(steps), None),
            Axis::Alloc(elements) => (None, Some(elements)),
            _ => (None, None),
        }
    }

    fn watch(self) -> Option<Watch> {
        match self {
            Axis::Fault(at) => Some(Watch::default().with_fault_at_stmt(at)),
            Axis::Deadline => Some(Watch::until(Instant::now(), 3)),
            Axis::Cancel(raised) => Some(Watch::cancelled_by(Arc::new(AtomicBool::new(raised)), 5)),
            _ => None,
        }
    }

    /// The tree-walker's run of `c` on `bufs`.
    fn tree(self, c: &Compiled, bufs: &BufferSet) -> Left {
        let mut interp = Interpreter::new(&c.names);
        let (steps, elements) = self.budgets();
        if let Some(steps) = steps {
            interp = interp.with_step_budget(steps);
        }
        interp.set_alloc_budget(elements);
        interp.set_watch(self.watch());
        let mut left = bufs.clone();
        let verdict = verdict(|| interp.run(&c.code, &mut left));
        (verdict, interp.stats(), left)
    }

    /// The VM's run of `p` on `bufs`.
    fn vm(self, p: &Program, bufs: &BufferSet) -> Left {
        let mut vm = Vm::new(p);
        let (steps, elements) = self.budgets();
        vm.set_step_budget(steps);
        vm.set_alloc_budget(elements);
        vm.set_watch(self.watch());
        let mut left = bufs.clone();
        let verdict = verdict(|| vm.run(p, &mut left));
        (verdict, vm.stats(), left)
    }
}

/// A run's result, or its panic's message.
fn verdict(run: impl FnOnce() -> Result<(), RuntimeError>) -> String {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => format!("{result:?}"),
        Err(panic) => panic.downcast_ref::<String>().cloned().unwrap_or_default(),
    }
}

/// A buffer's floats bit for bit, NaNs' payloads included.
fn bits(buf: &Buffer) -> String {
    match buf {
        Buffer::F64(v) => format!("{:x?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
        other => format!("{other:?}"),
    }
}

/// `row` on its input under `axis`: the tree-walker, the VM with the kernel
/// ops and the VM without them leave the same verdict, the same counters
/// and the same outputs — a NaN's bits aside, which no engine fixes — and
/// the op's outputs are the scalar loop's bit for bit.  What the
/// tree-walker left.
fn agree(row: &Row, axis: Axis) -> Left {
    let (c, case) = (&row.c, &row.case);
    let tree = axis.tree(c, &case.bufs);
    let runs = [&c.skipping, &c.scalar].map(|p| axis.vm(p, &case.bufs));
    for (verdict, stats, left) in &runs {
        assert_eq!((verdict, stats), (&tree.0, &tree.1), "{}, {axis:?}", case.what);
        for &out in case.outs {
            let (got, want) = (left.get(out), tree.2.get(out));
            assert!(got.same_as(want), "{}, {axis:?}: {got:?} vs {want:?}", case.what);
        }
    }
    for &out in case.outs {
        let [on, off] = [&runs[0].2, &runs[1].2].map(|left| bits(left.get(out)));
        assert_eq!(on, off, "{}, {axis:?}", case.what);
    }
    tree
}

/// `row`'s plain run, which completes; its counters and buffers.  Its
/// program carries the row's kernel ops: where it lost one, every axis would
/// compare the scalar loop with itself.
fn full(row: &Row) -> (ExecStats, BufferSet) {
    let (verdict, stats, left) = agree(row, Axis::Free);
    assert_eq!(verdict, "Ok(())", "{}", row.case.what);
    let p = &row.c.skipping;
    assert_eq!(after_ops(row).len(), row.case.ops, "{}\n{}", row.case.what, p.disasm());
    (stats, left)
}

/// The kernel ops: the five V-ops and the step loop op.
fn kernel_op(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::VFillStoreF64 { .. }
            | Instr::VMapF64 { .. }
            | Instr::VMulAddF64 { .. }
            | Instr::VReduceF64 { .. }
            | Instr::VAppendRangeF64 { .. }
            | Instr::IStepLoop { .. }
    )
}

/// Each kernel op of `row`'s program, by pc, and how often the first
/// instruction of its loop's body after it runs on the plain run, with the
/// op and (its twin in the program without the ops, which is the same
/// program with them taken out) without it.  Fewer with the op: it took
/// iterations.  A V-op sits in front of its loop's head, the step loop op
/// at the top of its body.
fn after_ops(row: &Row) -> Vec<(usize, [u64; 2])> {
    let profile = |p: &Program| Vm::new(p).run_profiled(p, &mut row.case.bufs.clone());
    let on = profile(&row.c.skipping).expect("the plain run completes");
    let off = profile(&row.c.scalar).expect("the plain run completes");
    let code = row.c.skipping.code();
    let ops = (0..code.len()).filter(|&pc| kernel_op(&code[pc]));
    let body = |at| if matches!(code[at], Instr::IStepLoop { .. }) { 1 } else { 2 };
    ops.enumerate().map(|(k, at)| (at, [on[at + body(at)], off[at + body(at) - k - 1]])).collect()
}

/// Every step budget from none to the full run: all three stop at the same
/// statement, and complete only under the full run's.  A performed step
/// loop's scalar loop runs its entry and its last step alone, a skipping
/// one the steps that match and the last.
#[test]
fn every_step_budget_trips_where_the_scalar_loop_trips() {
    for row in on(BUDGETS) {
        let (full, _) = full(row);
        for budget in 0..=full.stmts {
            let (verdict, ..) = agree(row, Axis::Budget(budget));
            assert_eq!(verdict == "Ok(())", budget == full.stmts, "{} at {budget}", row.case.what);
        }
        let p = &row.c.skipping;
        for (at, [with, _]) in after_ops(row) {
            let performs = matches!(p.step_of(&p.code()[at]), Some(Step::Perform { .. }));
            let most = if performs { Some(1) } else { row.case.most };
            assert!(most.is_none_or(|most| with <= most), "{}: {with} iterations", row.case.what);
        }
    }
}

/// Every allocation budget from none at all to one past twice what the run
/// pushes: a pushing op stops in front of the iteration whose pushes would
/// not fit, and the scalar loop raises the error where it raises it.
#[test]
fn every_allocation_budget_trips_where_the_scalar_loop_trips() {
    for row in on(ALLOCS) {
        let (_, left) = full(row);
        let grown = |&out: &BufId| (left.get(out).len() - row.case.bufs.get(out).len()) as u64;
        let pushed: u64 = row.case.outs.iter().map(grown).sum();
        for budget in 0..=2 * pushed + 1 {
            let (verdict, ..) = agree(row, Axis::Alloc(budget));
            assert_eq!(verdict == "Ok(())", budget >= pushed, "{} at {budget}", row.case.what);
        }
    }
}

/// A fault injected at every statement of the run: all three panic at that
/// statement, having done the same work.
#[test]
fn a_fault_at_every_statement_trips_where_the_scalar_loop_trips() {
    for row in on(FAULTS) {
        for at in 1..=full(row).0.stmts {
            let (verdict, stats, _) = agree(row, Axis::Fault(at));
            assert_eq!(verdict, format!("injected fault: panic at statement {at}"));
            assert_eq!(stats.stmts, at, "{}", row.case.what);
        }
    }
}

/// A deadline that has passed: all three trip at the clock's first read,
/// [`Watch::TIME_CHECK_PERIOD`] statements in, or complete before it.
#[test]
fn a_passed_deadline_trips_where_the_scalar_loop_trips() {
    for row in on(DEADLINE) {
        let (full, _) = full(row);
        let (verdict, stats, _) = agree(row, Axis::Deadline);
        if full.stmts >= Watch::TIME_CHECK_PERIOD {
            assert_eq!(verdict, "Err(Deadline { ms: 3 })", "{}", row.case.what);
            assert_eq!(stats.stmts, Watch::TIME_CHECK_PERIOD, "{}", row.case.what);
        } else {
            assert_eq!(stats, full, "{}", row.case.what);
        }
    }
}

/// A cancellation flag: armed and down, the run completes with the counters
/// of a run without it; raised, all three trip at the run's first
/// statement, which polls it.
#[test]
fn a_raised_cancellation_flag_trips_at_the_first_statement() {
    for row in on(CANCEL) {
        let (full, _) = full(row);
        assert_eq!(agree(row, Axis::Cancel(false)).1, full, "{}", row.case.what);
        let (verdict, stats, _) = agree(row, Axis::Cancel(true));
        assert_eq!(verdict, "Err(Deadline { ms: 5 })", "{}", row.case.what);
        assert_eq!(stats.stmts, 1, "{}", row.case.what);
    }
}

/// A buffer rebound to another kind or length: the op declines or stops in
/// front of the iteration, and the scalar loop reports what it reports
/// without the op, having counted the same work and left the same outputs.
/// (The programs are typed for the kinds they were compiled for, and the
/// tree-walker is not: it has no say here.)
#[test]
fn a_rebound_buffer_faults_as_the_scalar_loop_faults() {
    for row in table().iter().filter(|row| !row.case.rebound.is_empty()) {
        full(row);
        for (what, bufs) in &row.case.rebound {
            let what = format!("{what}, {}", row.case.what);
            let [with, without] = [&row.c.skipping, &row.c.scalar].map(|p| Axis::Free.vm(p, bufs));
            assert_eq!((&with.0, &with.1), (&without.0, &without.1), "{what}");
            for &out in row.case.outs {
                let (got, want) = (with.2.get(out), without.2.get(out));
                assert!(got.same_as(want), "{what}: {got:?} vs {want:?}");
            }
            if what.contains("cut") || what.contains("empty") {
                assert!(with.0.contains("OutOfBounds"), "{what}: {}", with.0);
            }
        }
    }
}

/// A variant's name, off its `Debug` form.
fn variant(value: impl std::fmt::Debug) -> String {
    format!("{value:?}").split([' ', '(']).next().unwrap_or_default().to_string()
}

/// The classes an instruction of `p` is a row of: its `isa!` row, and a step
/// loop op's skip form or performed guard × output.
fn classes_of(p: &Program, instr: &Instr) -> Vec<String> {
    let step = match p.step_of(instr) {
        Some(Step::Skip(form)) => Some(format!("skip {}", variant(form))),
        Some(Step::Perform { guard, out, .. }) => {
            Some(format!("perform {} × {}", variant(guard), variant(out)))
        }
        None => None,
    };
    std::iter::once(instr.opcode().to_string()).chain(step).chain(map_paths(instr)).collect()
}

/// The paths `Vm::v_map` tells apart that a vector map takes: its second
/// operand, its store, each pre-scale's orientation on `Sub` and `Div`, a
/// `min` or `max` anywhere in it, and its round.
fn map_paths(instr: &Instr) -> Vec<String> {
    let Instr::VMapF64 { reduce, round, a_pre, rhs, .. } = *instr else { return Vec::new() };
    let store = reduce.map_or("=".to_string(), |op| format!("{op}="));
    let mut paths = vec![format!("map rhs {}", variant(rhs)), format!("map {store}")];
    let (b_pre, op) = match rhs {
        VRhs::None => (VScale::None, None),
        VRhs::Imm { op, .. } => (VScale::None, Some(op)),
        VRhs::Buf { op, pre, .. } => (pre, Some(op)),
    };
    let mut ops = vec![op];
    for pre in [a_pre, b_pre] {
        if let VScale::Left { op, .. } | VScale::Right { op, .. } = pre {
            ops.push(Some(op));
            if matches!(op, BinOp::Sub | BinOp::Div) {
                paths.push(format!("map pre {} {op}", variant(pre)));
            }
        }
    }
    for op in [BinOp::Min, BinOp::Max].into_iter().filter(|op| ops.contains(&Some(*op))) {
        paths.push(format!("map {op}"));
    }
    paths.extend(round.then(|| "map round".to_string()));
    paths
}

/// Every path of [`map_paths`].
const MAP_PATHS: [&str; 12] = [
    "map rhs None",
    "map rhs Imm",
    "map rhs Buf",
    "map =",
    "map +=",
    "map pre Left -",
    "map pre Left /",
    "map pre Right -",
    "map pre Right /",
    "map min",
    "map max",
    "map round",
];

/// Every class a row can be of: each kernel op's `isa!` row, each skip form,
/// and each guard × output that `supported` accepts of some product and
/// fingers.
fn classes() -> Vec<String> {
    let (b, p, q) = (BufId(0), Reg(0), Reg(1));
    let ops = crate::isa::samples().into_iter().filter(kernel_op).map(|i| i.opcode().to_string());
    let gallop = MergeForm::Gallop { a_end: b, a_row: p, b_end: b, b_row: p };
    let forms = [MergeForm::Steps, MergeForm::Blocks { ofs: b }, gallop];
    let mut classes: Vec<String> = ops
        .chain(MAP_PATHS.map(String::from))
        .chain(forms.map(|form| format!("skip {}", variant(form))))
        .collect();
    let seconds = [
        Gather::None,
        Gather::At { x: b, at: p },
        Gather::At { x: b, at: q },
        Gather::Load { x: b, ofs: [Term::Zero; 2] },
    ];
    let products = seconds.into_iter().flat_map(|second| {
        [None, Some((b, p))].into_iter().flat_map(move |lead| {
            [false, true].map(|extent| Product { lead, val: b, second, extent })
        })
    });
    let products: Vec<Product> = products.collect();
    for guard in [Guard::Every, Guard::Cmp(BinOp::Gt, 0.0), Guard::Both] {
        let fold = Out::Fold { acc: b, k: p, op: BinOp::Add };
        for out in [fold, Out::Push { crd: b, vals: b }, Out::Store { dst: b, op: None, gap: None }]
        {
            let accepts =
                |product| [None, Some(q)].iter().any(|&q| supported(guard, product, out, q));
            if products.iter().any(accepts) {
                classes.push(format!("perform {} × {}", variant(guard), variant(out)));
            }
        }
    }
    classes
}

/// The rows by kernel op, skip form and performed guard × output: on how
/// many rows each is, on each axis, on rebound inputs, and on how many
/// plain runs it took iterations.  A zero fails, but for allocation budgets
/// of what pushes nothing.
#[test]
fn every_kernel_op_has_a_row_on_every_axis() {
    const COLUMNS: [&str; 8] =
        ["rows", "budgets", "allocs", "faults", "deadline", "cancel", "rebound", "ran"];
    let mut tally: Vec<(String, [usize; 8])> =
        classes().into_iter().map(|class| (class, [0; 8])).collect();
    for row in table() {
        let p = &row.c.skipping;
        let mut ran = std::collections::BTreeMap::new();
        for (at, [with, without]) in after_ops(row) {
            for class in classes_of(p, &p.code()[at]) {
                *ran.entry(class).or_insert(false) |= with < without;
            }
        }
        let on = |leg| usize::from(row.case.legs & leg != 0);
        let legs = [on(BUDGETS), on(ALLOCS), on(FAULTS), on(DEADLINE), on(CANCEL)];
        for (class, ran) in ran {
            let Some((_, counts)) = tally.iter_mut().find(|(known, _)| *known == class) else {
                panic!("{class}: a kernel op the table does not name ({})", row.case.what)
            };
            let cells = [[1].as_slice(), &legs, &[row.case.rebound.len(), usize::from(ran)]];
            counts.iter_mut().zip(cells.concat()).for_each(|(count, cell)| *count += cell);
        }
    }
    println!("{:<28}{}", "kernel op", COLUMNS.map(|column| format!("{column:>9}")).concat());
    let mut zeros = Vec::new();
    for (class, counts) in &tally {
        println!("{class:<28}{}", counts.map(|count| format!("{count:>9}")).concat());
        let pushes =
            ["v_append_range_f64", "i_step_loop"].contains(&&**class) || class.ends_with("Push");
        for (column, _) in COLUMNS.iter().zip(counts).filter(|(_, &count)| count == 0) {
            if pushes || *column != "allocs" {
                zeros.push(format!("{class}: {column}"));
            }
        }
    }
    assert!(zeros.is_empty(), "no row for {zeros:?}");
}
