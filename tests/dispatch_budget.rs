//! Dispatch budgets: what the VM dispatches per loop iteration, pinned.
//!
//! Wall clock on a shared host cannot hold a regression gate; the per-pc
//! dispatch counts of `CompiledKernel::profile()` and `ExecStats` are exact
//! and host-independent.  For the merge-driven kernels of the paper's
//! Figs. 1, 7 and 8, built by `finch-bench` at the sizes `figures --tiny`
//! uses and compiled at `OptLevel::Default`, this file pins
//!
//! * the whole run's dispatches per counted loop iteration (every loop of
//!   the kernel, set-up included), as a bound in hundredths, and
//! * the dispatches one iteration of the busiest innermost loop costs —
//!   for the two-finger walk, §6.1's coiterating merge loop itself: two
//!   strides, two `min`s, two guards, two predicated advances, the next
//!   `step_start` and one bottom test,
//!
//! and checks that no innermost loop dispatches what computes nothing: a
//! copy of a variable or a literal into an operand temporary, or an
//! unconditional jump.  For the dense kernels of Figs. 9 and 11 it pins the
//! dispatches per entry of the loop a vectorized kernel op runs.  A bound
//! that moves is a change to the bytecode back end (`peephole` / `typing` /
//! `vectorize` / `forward` / `merge_skip` / `finalize`, or the VM's
//! `VMIN_TRIP`): lower it when the change pays, and say why when it does
//! not.  These are the first rows of ROADMAP's "Pin the paper's shapes on
//! exact counters".
//!
//! An iteration is one the loop *performs*, dispatched or not: a loop that
//! carries a run-ahead op (`Instr::IMergeSkip`, the two-finger, VBL and
//! galloped merges) only dispatches the iterations that match or end it
//! (the galloped merge's op runs an empty last iteration too), and one that
//! carries the gather reduction (`Instr::IGatherReduce`, Fig. 1's lone
//! stepper) only its last iteration, so its
//! iterations are counted on the same kernel compiled with `simd` off — the
//! same scalar loop, instruction for instruction, without the op.  The same
//! pair of kernels pins what the op is for: identical `ExecStats`, and no
//! more scalar iterations dispatched than there are matches and loop entries.

use finch_bench::{fig09_variants, fig11_variants, figure_tables, Variant};
use finch_ir::{Instr, MergeForm, Program};
use looplets_repro::finch::{ExecConfig, OptLevel};

/// One innermost loop of a program: the pcs of its body and bottom test,
/// `first..=bottom`, entered once per iteration at `first`.
#[derive(Clone, Copy)]
struct InnerLoop {
    first: usize,
    bottom: usize,
}

/// The innermost loops of `program`: the spans closed by a back edge that
/// hold no other back edge.
fn innermost_loops(program: &Program) -> Vec<InnerLoop> {
    // Only these four opcodes close a loop; a bottom test lands on the
    // body's first instruction, a `jump` / `step` on the head before it.
    let spans: Vec<InnerLoop> = program
        .code()
        .iter()
        .enumerate()
        .filter_map(|(bottom, instr)| match *instr {
            Instr::IWhileNext { body, .. } | Instr::IForNext { body, .. } => {
                Some(InnerLoop { first: body as usize, bottom })
            }
            Instr::Jump { target } if target as usize <= bottom => {
                Some(InnerLoop { first: target as usize + 1, bottom })
            }
            Instr::ForStep { test, .. } => Some(InnerLoop { first: test as usize + 1, bottom }),
            _ => None,
        })
        .collect();
    let nested = |outer: &InnerLoop| {
        spans.iter().any(|inner| outer.first <= inner.first && inner.bottom < outer.bottom)
    };
    spans.iter().copied().filter(|span| !nested(span)).collect()
}

/// Whether dispatching `instr` computes nothing a register allocator would
/// not have removed: a copy or a literal into a temp, or a plain jump.
fn computes_nothing(instr: &Instr, program: &Program) -> bool {
    let temp = |dst: finch_ir::Reg| dst.index() >= program.num_vars();
    match *instr {
        Instr::IMov { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::ConstI { dst, .. }
        | Instr::ConstF { dst, .. }
        | Instr::Const { dst, .. } => temp(dst),
        Instr::Jump { .. } => true,
        _ => false,
    }
}

/// The pinned kernels: figure, variant label, the whole run's dispatches
/// per loop iteration and the dispatches of one iteration of the busiest
/// innermost loop, both in hundredths.
///
/// PR 20 re-pinned every row whose kernel holds a two-finger merge loop —
/// the fig01 baseline, the fig07 / fig08 two-finger walks, and the gallops
/// whose neither-finger-leads fall-back is one (where it stops being the
/// busiest innermost loop): the run-ahead op performs the iterations that
/// match nothing without dispatching them, so both bounds fall — the walks'
/// merge loop from ten dispatches an iteration to between two and four, by
/// how often it matches, and their whole run by about half.  PR 26 re-pinned
/// the two `VBL` rows: the op's block form performs the merge steps that end
/// a block first or find `x` in the gap in front of one, and their whole run
/// falls by a third (15.92 → 10.96, 16.64 → 10.46); the busiest innermost
/// loop is the block's `for`, which does not move.  The op's jumper form
/// re-pinned the three rows whose two fingers gallop: it performs the steps
/// whose trailer seeks past the leader, and the whole run falls by a fifth
/// to a half (12.60 → 9.98, 13.27 → 10.58, 15.76 → 8.86); so does the
/// busiest innermost loop, the jumper loop (fig08: 6.50 → 2.48).  The
/// gather reduction re-pinned Fig. 1's list × band: it performs every
/// iteration of the lone stepper but the last, so its loop falls from ten
/// dispatches an iteration to 2.34 and the whole run from 21.00 to 13.34.
const BUDGETS: &[(&str, &str, u64, u64)] = &[
    ("fig01", "looplets: list x band", 1334, 234),
    ("fig01", "iterator-over-nonzeros", 438, 238),
    ("fig07a", "two-finger (TACO-style)", 588, 330),
    ("fig07a", "A leads (gallop)", 1102, 667),
    ("fig07a", "x leads (gallop)", 1037, 725),
    ("fig07a", "gallop both", 998, 600),
    ("fig07a", "VBL", 1096, 600),
    ("fig07b", "two-finger (TACO-style)", 588, 369),
    ("fig07b", "A leads (gallop)", 1115, 697),
    ("fig07b", "x leads (gallop)", 1056, 712),
    ("fig07b", "gallop both", 1058, 828),
    ("fig07b", "VBL", 1046, 600),
    ("fig08", "two-finger (TACO-style)", 757, 253),
    ("fig08", "gallop", 886, 248),
];

/// The kernels that must carry exactly one run-ahead op of a form: the
/// two-finger walks the steppers', VBL's the block form, the gallops the
/// jumper form (their neither-finger-leads fall-back may carry a second,
/// the steppers').
const ONE_OP: [(&str, Form); 5] = [
    ("two-finger (TACO-style)", Form::Steps),
    ("VBL", Form::Blocks),
    ("gallop both", Form::Gallop),
    ("gallop", Form::Gallop),
    ("looplets: list x band", Form::Gather),
];

/// A run-ahead op's form, without its operands (the gather reduction
/// counts as one).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Steps,
    Blocks,
    Gallop,
    Gather,
}

/// One run-ahead op of a profiled program: its form, how many scalar
/// iterations its loop dispatched, how many of them matched (ran the guarded
/// body; none for the gather reduction, which performs every iteration but
/// the last) and how often the loop was entered.
#[derive(Debug)]
struct RunAhead {
    form: Form,
    dispatched: u64,
    matches: u64,
    entries: u64,
}

fn run_ahead_ops(program: &Program, per_pc: &[u64]) -> Vec<RunAhead> {
    let code = program.code();
    let skips_to = |pc: usize| match code[pc] {
        Instr::ICmpBranch { target, .. } => Some(target as usize),
        _ => None,
    };
    let ops = code.iter().enumerate().filter_map(|(op, i)| match i {
        Instr::IMergeSkip { form, .. } => Some((op, Some(*form))),
        Instr::IGatherReduce { .. } => Some((op, None)),
        _ => None,
    });
    ops.map(|(op, form)| {
        // The head, the op, the scalar iteration.
        let (form, sites) = match form {
            None => (Form::Gather, vec![]),
            Some(MergeForm::Gallop { .. }) => (Form::Gallop, jumper_sites(code, op)),
            // The guarded body, behind the last test that skips to where the
            // loop's first guard does — the second equality of an
            // intersection, a block form's block test.
            Some(form) => {
                let outer = (op..code.len()).find(|&pc| skips_to(pc).is_some()).expect("a guard");
                let tail = skips_to(outer).expect("a guard");
                let inner = (outer..tail).rfind(|&pc| skips_to(pc) == Some(tail)).unwrap();
                let form = if form == MergeForm::Steps { Form::Steps } else { Form::Blocks };
                (form, vec![inner + 1])
            }
        };
        let matches = sites.iter().map(|&pc| per_pc[pc]).sum();
        RunAhead { form, dispatched: per_pc[op + 1], matches, entries: per_pc[op - 1] }
    })
    .collect()
}

/// The three body sites of the jumper loop whose op is at `op`: behind the
/// last guard that skips to the advances in front of the first fall-back
/// (both fingers end the step), and behind the guard of each fall-back's
/// one-step stepper (the trailer's seek landed on the step's end).  The
/// neither-finger-leads fall-back, a stepper merge with its own op, counts
/// its matches there.
fn jumper_sites(code: &[Instr], op: usize) -> Vec<usize> {
    let Instr::IWhileCmp { end, .. } = code[op - 1] else { panic!("the op follows its loop head") };
    let bottom = end as usize - 1;
    // The advances and the next start in front of the bottom test.
    let tail = (op..bottom)
        .rev()
        .take_while(|&pc| matches!(code[pc], Instr::IAdvance { .. } | Instr::IArithImm { .. }))
        .last()
        .expect("the advances");
    let carries_op = |head: usize, end: usize| {
        code[head..end].iter().any(|i| matches!(i, Instr::IMergeSkip { .. }))
    };
    let fall_backs: Vec<usize> = (op + 1..tail)
        .filter(
            |&pc| matches!(code[pc], Instr::IWhileCmp { end, .. } if !carries_op(pc, end as usize)),
        )
        .collect();
    assert_eq!(fall_backs.len(), 2, "two fall-backs");
    let guard = |pc: usize| matches!(code[pc], Instr::ICmpBranch { .. });
    let to_tail = |&pc: &usize| matches!(code[pc], Instr::ICmpBranch { target, .. } if target as usize == tail);
    let direct = (op..fall_backs[0]).rfind(to_tail).expect("the match guard");
    let mut sites = vec![direct + 1];
    for head in fall_backs {
        sites.push((head..tail).find(|&pc| guard(pc)).expect("the stepper's guard") + 1);
    }
    sites
}

/// The merge-driven kernels of the `--tiny` sweep: every variant of the
/// figures [`BUDGETS`] has rows for.
fn figure_kernels() -> Vec<(&'static str, Variant)> {
    let pinned = |figure: &str| BUDGETS.iter().any(|budget| budget.0 == figure);
    let tables = figure_tables(true).into_iter().filter(|table| pinned(table.figure));
    tables.flat_map(|table| table.variants.into_iter().map(move |v| (table.figure, v))).collect()
}

#[test]
fn merge_kernels_stay_within_their_dispatch_budgets() {
    let mut table = String::new();
    let mut failures = Vec::new();
    for (figure, variant) in figure_kernels() {
        let mut kernel = variant.kernel;
        assert_eq!(kernel.opt_level(), OptLevel::Default);
        let (stats, per_pc) = kernel.profile().expect("the kernel runs");
        // The same loops without kernel ops: every iteration is dispatched.
        let mut scalar = kernel
            .reconfigured(&ExecConfig { simd: false, ..kernel.config() })
            .expect("the kernel compiles without kernel ops");
        let (scalar_stats, scalar_per_pc) = scalar.profile().expect("the scalar kernel runs");
        assert_eq!(stats, scalar_stats, "{figure}/{}: kernel ops change no counter", variant.label);
        let program = kernel.bytecode();
        let skips = run_ahead_ops(program, &per_pc);
        if let Some(&(_, form)) = ONE_OP.iter().find(|(label, _)| *label == variant.label) {
            let of_form = skips.iter().filter(|skip| skip.form == form).count();
            assert_eq!(of_form, 1, "{figure}/{}: {form:?}\n{}", variant.label, program.disasm());
        }
        for skip in &skips {
            assert!(
                skip.dispatched <= skip.matches + skip.entries,
                "{figure}/{}: {skip:?}\n{}",
                variant.label,
                program.disasm()
            );
        }
        let total: u64 = per_pc.iter().sum();
        let per_iteration = (total * 100).div_ceil(stats.loop_iters.max(1));

        let mut per_inner_iteration = 0;
        let mut busiest = 0;
        let scalar_loops = innermost_loops(scalar.bytecode());
        let loops = innermost_loops(program);
        assert_eq!(loops.len(), scalar_loops.len(), "kernel ops add and remove no loop");
        for (inner, scalar_inner) in loops.into_iter().zip(scalar_loops) {
            let dispatched: u64 = per_pc[inner.first..=inner.bottom].iter().sum();
            let iterations = scalar_per_pc[scalar_inner.first];
            if dispatched > busiest && iterations > 0 {
                busiest = dispatched;
                per_inner_iteration = (dispatched * 100).div_ceil(iterations);
            }
            for (pc, instr) in program.code()[inner.first..=inner.bottom].iter().enumerate() {
                if computes_nothing(instr, program) && pc + inner.first != inner.bottom {
                    failures.push(format!(
                        "{figure}/{}: pc {} of an innermost loop computes nothing:\n{}",
                        variant.label,
                        pc + inner.first,
                        program.disasm()
                    ));
                }
            }
        }
        table.push_str(&format!(
            "    ({figure:?}, {:?}, {per_iteration}, {per_inner_iteration}),\n",
            variant.label
        ));
        match BUDGETS.iter().find(|b| (b.0, b.1) == (figure, variant.label.as_str())) {
            None => failures.push(format!("{figure}/{}: no budget", variant.label)),
            Some(&(_, _, budget, inner_budget)) => {
                if per_iteration > budget || per_inner_iteration > inner_budget {
                    failures.push(format!(
                        "{figure}/{}: {per_iteration} per iteration (budget {budget}), \
                         {per_inner_iteration} per inner iteration (budget {inner_budget})",
                        variant.label
                    ));
                }
            }
        }
    }
    if !failures.is_empty() {
        println!("---- measured ----\n{table}---- end ----");
        panic!("{}", failures.join("\n"));
    }
}

/// The loops a vectorized kernel op runs: figure, variant label, and the
/// dispatches per entry of the busiest such loop in hundredths — the op, the
/// loop head, and the one scalar trip the op leaves, whatever the trip
/// count.  Fig. 9's window dot has 3 to 5 taps at the 5 × 5 filter the
/// benchmark uses (the `--tiny` filter is 3 × 3, whose 2-tap edge windows
/// are below `Vm::VMIN_TRIP` and run scalar); Fig. 11's is the row norm
/// `b2[k] += b0[inv + ij] * b0[inv + ij]`.
const PER_ENTRY: &[(&str, &str, u64)] =
    &[("fig09", "dense (OpenCV-style)", 900), ("fig11", "dense", 800)];

#[test]
fn vectorized_loops_dispatch_one_scalar_trip_per_entry() {
    let fig09 = fig09_variants(12, 5, &[0.1]).into_iter().flat_map(|(_, v)| v);
    let kernels = fig09
        .map(|v| ("fig09", v))
        .chain(fig11_variants(3, 8, "mnist").into_iter().map(|v| ("fig11", v)));
    let mut measured = String::new();
    let mut failures = Vec::new();
    for (figure, variant) in kernels {
        let Some(&(_, _, budget)) =
            PER_ENTRY.iter().find(|row| (row.0, row.1) == (figure, variant.label.as_str()))
        else {
            continue;
        };
        let mut kernel = variant.kernel;
        let (stats, per_pc) = kernel.profile().expect("the kernel runs");
        let mut scalar = kernel
            .reconfigured(&ExecConfig { simd: false, ..kernel.config() })
            .expect("the kernel compiles without kernel ops");
        let (scalar_stats, _) = scalar.profile().expect("the scalar kernel runs");
        assert_eq!(stats, scalar_stats, "{figure}/{}: kernel ops change no counter", variant.label);
        let program = kernel.bytecode();
        let code = program.code();
        // Each op sits right in front of its loop's head: dispatched once per
        // entry, with the head, the body and the bottom test behind it.
        let busiest = code
            .iter()
            .enumerate()
            .filter(|(_, i)| i.opcode().starts_with("v_"))
            .map(|(op, _)| {
                let Instr::IForTest { end, .. } = code[op + 1] else {
                    panic!("{figure}: the op precedes its head")
                };
                let dispatched: u64 = per_pc[op..end as usize].iter().sum();
                (dispatched, per_pc[op + 1])
            })
            .max()
            .unwrap_or_else(|| {
                panic!("{figure}/{}: no kernel op\n{}", variant.label, program.disasm())
            });
        let per_entry = (busiest.0 * 100).div_ceil(busiest.1.max(1));
        measured.push_str(&format!("    ({figure:?}, {:?}, {per_entry}),\n", variant.label));
        if per_entry > budget {
            failures.push(format!(
                "{figure}/{}: {per_entry} per entry (budget {budget})\n{}",
                variant.label,
                program.disasm()
            ));
        }
    }
    assert_eq!(measured.lines().count(), PER_ENTRY.len(), "every row has its kernel");
    if !failures.is_empty() {
        println!("---- measured ----\n{measured}---- end ----");
        panic!("{}", failures.join("\n"));
    }
}
