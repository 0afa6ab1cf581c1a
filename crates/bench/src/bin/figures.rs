//! Regenerate every figure of the paper's evaluation as a text table of
//! *exact* quantities: per variant and per [`finch::ExecConfig::matrix`]
//! configuration, the program's instruction count, the instructions the VM
//! dispatched and the `ExecStats` work counters — with tree-walk parity and a
//! recompilation under `ValidationLevel::Full` asserted on the way
//! ([`Report::build`]).  Nothing is timed: the output is a pure function of
//! the code, and wall clock is the repo benchmark's to measure
//! (`benchmark/`).
//!
//! ```bash
//! cargo run --release -p finch-bench --bin figures                # all figures
//! cargo run --release -p finch-bench --bin figures -- --fig 8     # one figure
//! cargo run --release -p finch-bench --bin figures -- --tiny      # the golden's sizes
//! cargo run --release -p finch-bench --bin figures -- --json out.json
//! ```
//!
//! `--fig` takes `1`, `7` (both halves), `7a`, `7b`, `8`, `9`, `10`, `11` or
//! `S`; an unknown flag or figure exits with code 2.  The `vs baseline`
//! column is the figure's headline quantity: a variant's `total work` over
//! that of its group's first variant, both at the default configuration.
//! The same records go to a machine-readable report (`BENCH_figures.json`
//! by default, schema v11 — see EXPERIMENTS.md); `--tiny`'s is committed as
//! `tests/figures_tiny.golden`, which `tests/figures_golden.rs` compares byte
//! for byte.
//!
//! Figure S (sparse output assembly) is value-checked as it is built: the
//! sparse-list output's stored-entry count must equal the dense oracle's
//! nnz and its materialisation the dense-output run
//! (`OutputGroup::assert_assembly`).

#![forbid(unsafe_code)]

use finch::MergeDecline;
use finch_bench::figure_tables;
use finch_bench::report::{FigureGroup, Report};

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Options {
    /// `--fig ID`: only that figure.
    fig: Option<String>,
    /// `--tiny`: the smoke sizes.
    tiny: bool,
    /// `--json PATH`: where the report goes.
    json: String,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options { fig: None, tiny: false, json: "BENCH_figures.json".to_string() };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().cloned().ok_or(format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--tiny" => options.tiny = true,
            "--fig" => options.fig = Some(value()?),
            "--json" => options.json = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Whether `--fig id` selects `figure` (`fig01`, `fig07a`, ...): the id is
/// the figure's number, exactly, and a bare number selects its lettered
/// halves too.
fn selects(id: &str, figure: &str) -> bool {
    let name = figure.trim_start_matches("fig").trim_start_matches('0');
    !id.is_empty() && (name == id || name.trim_end_matches(char::is_alphabetic) == id)
}

fn print_group(group: &FigureGroup) {
    println!("\n== {} ==", group.group);
    println!(
        "{:<28} {:>8} {:>5} {:>4} {:>6} {:>10} {:>9} {:>8} {:>8} {:>11} {:>11}",
        "strategy",
        "opt",
        "typed",
        "simd",
        "instrs",
        "dispatches",
        "loads",
        "stores",
        "searches",
        "total work",
        "vs baseline"
    );
    let on = |stage: bool| if stage { "on" } else { "off" };
    for v in &group.variants {
        for c in &v.configs {
            // The headline column, on the row it is taken from.
            let headline = if c.config == v.at_default().config {
                format!("{:>10.2}x", group.work_vs_baseline(v))
            } else {
                format!("{:>11}", "-")
            };
            println!(
                "{:<28} {:>8} {:>5} {:>4} {:>6} {:>10} {:>9} {:>8} {:>8} {:>11} {headline}",
                v.label,
                c.config.opt.label(),
                on(c.config.typed),
                on(c.config.simd),
                c.instrs,
                c.dispatches,
                c.stats.loads,
                c.stats.stores,
                c.stats.searches,
                c.stats.total_work(),
            );
        }
    }
}

/// What the loop back end did over every recorded variant, and why the
/// merge loops without a run-ahead op got none.
fn print_back_end(report: &Report) {
    let opts: Vec<_> = report.figures.iter().flat_map(|f| &f.variants).map(|v| v.opt).collect();
    let total = |counter: fn(&finch::OptStats) -> u64| opts.iter().map(counter).sum::<u64>();
    println!(
        "\nloop back end at the default configuration: {} copies forwarded, {} literals pinned, \
         {} loops rotated, {} advances predicated, {} merge loops given a run-ahead op over {} \
         variants",
        total(|s| s.copies_forwarded),
        total(|s| s.literals_pinned),
        total(|s| s.loops_rotated),
        total(|s| s.advances_predicated),
        total(|s| s.merge_skips),
        opts.len()
    );
    let declined: Vec<String> = MergeDecline::ALL
        .iter()
        .enumerate()
        .map(|(k, why)| {
            format!("{} {}", opts.iter().map(|s| s.merge_declined[k]).sum::<u64>(), why.label())
        })
        .collect();
    println!("  typed `while` loops given none, by reason: {}", declined.join(", "));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: figures [--fig 1|7|7a|7b|8|9|10|11|S] [--tiny] [--json PATH]";
    let options = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2);
    });
    let mut tables = figure_tables(options.tiny);
    if let Some(id) = &options.fig {
        tables.retain(|t| selects(id, t.figure));
        if tables.is_empty() {
            eprintln!("unknown figure `{id}`\n{usage}");
            std::process::exit(2);
        }
    }

    let report = Report::build(&tables);
    let mut heading = "";
    for group in &report.figures {
        if group.heading != heading {
            heading = &group.heading;
            println!("\n#### {heading}");
        }
        print_group(group);
    }
    print_back_end(&report);

    if let Err(e) = report.write(&options.json) {
        eprintln!("error: could not write {}: {e}", options.json);
        std::process::exit(1);
    }
    println!("\nwrote machine-readable report to {}", options.json);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_figure_id_selects_exactly_its_figure() {
        let mut built: Vec<&str> = figure_tables(true).iter().map(|t| t.figure).collect();
        built.dedup();
        let selected =
            |id: &str| -> Vec<&str> { built.iter().copied().filter(|f| selects(id, f)).collect() };
        assert_eq!(selected("1"), ["fig01"], "not Figures 10 and 11 as well");
        assert_eq!(selected("10"), ["fig10"]);
        assert_eq!(selected("7"), ["fig07a", "fig07b"]);
        assert_eq!(selected("7b"), ["fig07b"]);
        assert_eq!(selected("S"), ["figS"]);
        assert!(selected("12").is_empty());
        assert!(selected("").is_empty());
        for id in ["1", "7a", "7b", "8", "9", "10", "11", "S"] {
            assert_eq!(selected(id).len(), 1, "--fig {id}");
        }
    }

    #[test]
    fn exactly_three_flags_are_accepted() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        assert_eq!(
            parse(&args("--tiny --fig 7a --json out.json")),
            Ok(Options { fig: Some("7a".into()), tiny: true, json: "out.json".into() })
        );
        assert_eq!(parse(&[]).map(|o| o.json), Ok("BENCH_figures.json".to_string()));
        for gone in ["--runs 1", "--validate", "--engine bytecode", "--opt none", "--typed off"] {
            assert!(parse(&args(gone)).is_err(), "`{gone}` is still accepted");
        }
        assert!(parse(&args("--simd off")).is_err());
        assert!(parse(&args("--fig")).is_err(), "a flag without its value");
    }
}
