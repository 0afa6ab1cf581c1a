//! The figures report at `--tiny` sizes, pinned byte for byte.
//!
//! `figures` reports only exact quantities — instruction counts, `profile()`
//! dispatches and `ExecStats` per variant and per `ExecConfig::matrix()`
//! configuration, the optimiser's counters — so its report is a pure function
//! of the code: the same bytes from a debug and a release build, on any host.
//! `figures_tiny.golden` is that report at the smoke sizes of
//! `finch_bench::figure_tables(true)` (CI also `cmp`s the binary's own output
//! against it).  It is the repo's host-independent perf trajectory: a PR that
//! moves a counter regenerates it — by pasting the document this test prints
//! when it fails — and says which counters moved and why.  On a mismatch the
//! test names figure, group, variant, configuration and counter.
//!
//! Beside the bytes, the first rows of ROADMAP's "Pin the paper's shapes on
//! exact counters": the shapes of the paper's evaluation that hold at these
//! sizes, asserted on the counters.

use finch_bench::figure_tables;
use finch_bench::report::Report;
use looplets_repro::finch::ExecStats;

const GOLDEN: &str = include_str!("figures_tiny.golden");

/// The `"key": value` pairs of one rendered line, nested objects flattened.
fn pairs(line: &str) -> Vec<(&str, &str)> {
    line.split(", \"")
        .filter_map(|field| field.rsplit_once("\": "))
        .map(|(key, value)| {
            (key.rsplit('"').next().unwrap_or(key), value.trim_end_matches([',', '}']))
        })
        .collect()
}

/// Name what moved between the committed document and this build's: per
/// differing line the figure, group and variant it belongs to, the
/// configuration it records, and each value as recorded and as it is now.
fn describe(now: &str, golden: &str) -> String {
    let mut moved = Vec::new();
    let (mut figure, mut variant) = (String::new(), String::new());
    let mut recorded = golden.lines();
    for line in now.lines().map(str::trim) {
        let fields = pairs(line);
        match fields.first() {
            Some(("figure", name)) => figure = format!("{name} ({})", fields[1].1),
            Some(("label", label)) => variant = label.to_string(),
            _ => {}
        }
        let was = recorded.next().unwrap_or("").trim();
        if line == was {
            continue;
        }
        let was_fields = pairs(was);
        let same_keys = fields.len() == was_fields.len()
            && fields.iter().zip(&was_fields).all(|(now, was)| now.0 == was.0);
        if !same_keys {
            moved.push(format!("{figure} {variant}: recorded `{was}`, now `{line}`"));
            continue;
        }
        let config = match fields[..] {
            [("opt_level", opt), ("typed", typed), ("simd", simd), ..] => {
                format!("opt_level {opt}, typed {typed}, simd {simd}")
            }
            _ => "the default configuration".to_string(),
        };
        let values: Vec<String> = fields
            .iter()
            .zip(&was_fields)
            .filter(|(now, was)| now.1 != was.1)
            .map(|(now, was)| format!("{} {} -> {}", now.0, was.1, now.1))
            .collect();
        moved.push(format!("{figure} {variant} under {config}: {}", values.join(", ")));
    }
    if recorded.next().is_some() {
        moved.push("the golden file has lines the report no longer produces".to_string());
    }
    let more = moved.len().saturating_sub(24);
    moved.truncate(24);
    if more > 0 {
        moved.push(format!("... and {more} more lines"));
    }
    moved.join("\n")
}

/// One shape of the paper's evaluation, on exact counters: in `figure`'s
/// table `group`, the variant `less` counts strictly less of `counter` than
/// the variant `more` — under every configuration of `ExecConfig::matrix()`
/// (each of these four holds unoptimised, untyped and scalar as well as at
/// the default).
struct Shape {
    paper: &'static str,
    figure: &'static str,
    group: &'static str,
    less: &'static str,
    more: &'static str,
    counter: (&'static str, fn(&ExecStats) -> u64),
}

const TOTAL_WORK: (&str, fn(&ExecStats) -> u64) = ("total_work", ExecStats::total_work);
const STORES: (&str, fn(&ExecStats) -> u64) = ("stores", |stats| stats.stores);

/// The rows that hold at `--tiny` sizes.  What does *not* hold is a finding,
/// not a looser row: Fig. 10's RLE blend counts more work than the dense one
/// on stroke images (EXPERIMENTS.md, "One timing harness").
const SHAPES: &[Shape] = &[
    Shape {
        paper: "§1, Fig. 1: the looplet kernel skips to the band",
        figure: "fig01",
        group: "band width 8",
        less: "looplets: list x band",
        more: "iterator-over-nonzeros",
        counter: TOTAL_WORK,
    },
    Shape {
        paper: "§9.3, Fig. 9: the masked sparse convolution wins at low density",
        figure: "fig09",
        group: "density 0.1",
        less: "sparse (masked, CSR)",
        more: "dense (OpenCV-style)",
        counter: TOTAL_WORK,
    },
    Shape {
        paper: "§9.5, Fig. 11: VBL exploits the blobs' blocks",
        figure: "fig11",
        group: "mnist",
        less: "VBL",
        more: "dense",
        counter: TOTAL_WORK,
    },
    Shape {
        paper: "§5 applied to results, Fig. S: stores O(stored), not O(n)",
        figure: "figS",
        group: "elementwise multiply (density 0.02)",
        less: "sparse-list output",
        more: "dense output",
        counter: STORES,
    },
    Shape {
        paper: "§5 applied to results, Fig. S: stores O(stored), not O(n)",
        figure: "figS",
        group: "threshold filter (density 0.02)",
        less: "sparse-list output",
        more: "dense output",
        counter: STORES,
    },
];

#[test]
fn the_tiny_report_is_the_committed_golden_and_keeps_the_papers_shapes() {
    let report = Report::build(&figure_tables(true));

    for shape in SHAPES {
        let Shape { paper, figure, group, less, more, counter: (counter, count) } = *shape;
        let table = report
            .figures
            .iter()
            .find(|g| g.figure == figure && g.group == group)
            .unwrap_or_else(|| panic!("no table {figure} ({group})"));
        let variant = |label: &str| {
            let found = table.variants.iter().find(|v| v.label == label);
            found.unwrap_or_else(|| panic!("{figure} ({group}) has no variant `{label}`"))
        };
        for (a, b) in variant(less).configs.iter().zip(&variant(more).configs) {
            assert_eq!(a.config, b.config);
            let (a_count, b_count) = (count(&a.stats), count(&b.stats));
            assert!(
                a_count < b_count,
                "{paper}\n{figure} ({group}) under {}: `{less}` counts {a_count} {counter}, \
                 `{more}` {b_count}",
                a.config.label()
            );
        }
    }

    let json = report.to_json();
    if json != GOLDEN {
        println!("---- new tests/figures_tiny.golden ----\n{json}---- end ----");
        panic!("the figures report moved:\n{}", describe(&json, GOLDEN));
    }
}

#[test]
fn a_moved_counter_is_named() {
    let line = |loads: u32| {
        format!(
            "{{\n    {{\"figure\": \"fig07a\", \"group\": \"matrix #1\",\n      \
             {{\"label\": \"VBL\",\n       \"work_vs_baseline\": 1,\n        \
             {{\"opt_level\": \"none\", \"typed\": false, \"simd\": false, \"loads\": {loads}, \
             \"total_work\": 9}}\n"
        )
    };
    assert_eq!(
        describe(&line(8), &line(7)),
        "\"fig07a\" (\"matrix #1\") \"VBL\" under opt_level \"none\", typed false, simd false: \
         loads 7 -> 8"
    );
    assert_eq!(describe(&line(7), &line(7)), "");
}

/// The census of `merge_skip`: every typed step-loop head of every record —
/// a `while` on two registers or on a register and a literal bound — is
/// given an op or tallied with the reason it is not.
#[test]
fn every_typed_while_loop_is_given_an_op_or_a_reason() {
    use finch_ir::Instr;
    for table in figure_tables(true) {
        for variant in &table.variants {
            let heads = variant.kernel.bytecode().code().iter().filter(|instr| {
                matches!(instr, Instr::IWhileCmp { .. } | Instr::IWhileCmpImm { .. })
            });
            let stats = variant.kernel.opt_stats();
            let counted = stats.merge_skips + stats.merge_declined.iter().sum::<u64>();
            assert_eq!(
                counted,
                heads.count() as u64,
                "{} ({}) {}: {stats:?}",
                table.figure,
                table.group,
                variant.label
            );
        }
    }
}
