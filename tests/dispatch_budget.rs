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
//! unconditional jump.  A bound that moves is a change to the bytecode back
//! end (`peephole` / `typing` / `forward` / `merge_skip` / `finalize`):
//! lower it when the change pays, and say why when it does not.  These are
//! the first rows of ROADMAP item 6's shape table.
//!
//! An iteration is one the loop *performs*, dispatched or not: a loop that
//! carries a run-ahead op (`Instr::IMergeSkip`, the two-finger and VBL merges) only
//! dispatches the iterations that match or end it, so its iterations are
//! counted on the same kernel compiled with `simd` off — the same scalar
//! loop, instruction for instruction, without the op.  The same pair of
//! kernels pins what the op is for: identical `ExecStats`, and no more
//! scalar iterations dispatched than there are matches and loop entries.

use finch_bench::{figure_tables, Variant};
use finch_ir::{Instr, Program};
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
/// loop is the block's `for`, which does not move.
const BUDGETS: &[(&str, &str, u64, u64)] = &[
    ("fig01", "looplets: list x band", 2100, 1000),
    ("fig01", "iterator-over-nonzeros", 438, 238),
    ("fig07a", "two-finger (TACO-style)", 588, 330),
    ("fig07a", "A leads (gallop)", 1102, 667),
    ("fig07a", "x leads (gallop)", 1037, 725),
    ("fig07a", "gallop both", 1260, 715),
    ("fig07a", "VBL", 1096, 600),
    ("fig07b", "two-finger (TACO-style)", 588, 369),
    ("fig07b", "A leads (gallop)", 1115, 697),
    ("fig07b", "x leads (gallop)", 1056, 712),
    ("fig07b", "gallop both", 1327, 876),
    ("fig07b", "VBL", 1046, 600),
    ("fig08", "two-finger (TACO-style)", 757, 253),
    ("fig08", "gallop", 1576, 650),
];

/// The kernels that must carry exactly one run-ahead op: the two-finger
/// walks, and VBL's (the op's block form).
const ONE_OP: [&str; 2] = ["two-finger (TACO-style)", "VBL"];

/// One run-ahead op of a profiled program: how many scalar iterations its
/// loop dispatched, how many of them matched (ran the guarded body) and how
/// often the loop was entered.
#[derive(Debug)]
struct RunAhead {
    dispatched: u64,
    matches: u64,
    entries: u64,
}

fn run_ahead_ops(program: &Program, per_pc: &[u64]) -> Vec<RunAhead> {
    let code = program.code();
    let ops = code.iter().enumerate().filter(|(_, i)| matches!(i, Instr::IMergeSkip { .. }));
    ops.map(|(op, _)| {
        // The head, the op, the scalar iteration; the guarded body, behind
        // the last test that skips to where the loop's first guard does —
        // the second equality of an intersection, a block form's block test.
        let skips_to = |pc: usize| match code[pc] {
            Instr::ICmpBranch { target, .. } => Some(target as usize),
            _ => None,
        };
        let outer = (op..code.len()).find(|&pc| skips_to(pc).is_some()).expect("a guard");
        let tail = skips_to(outer).expect("a guard");
        let inner = (outer..tail).rfind(|&pc| skips_to(pc) == Some(tail)).unwrap();
        RunAhead { dispatched: per_pc[op + 1], matches: per_pc[inner + 1], entries: per_pc[op - 1] }
    })
    .collect()
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
        if ONE_OP.contains(&variant.label.as_str()) {
            assert_eq!(skips.len(), 1, "{figure}/{}:\n{}", variant.label, program.disasm());
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
