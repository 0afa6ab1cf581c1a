//! Command line of the repo benchmark (see `README.md`).
//!
//! `--workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--quick]`
//! runs one workload, checks every output, prints every metric by name with
//! its unit, and ends with one JSON result line.  `--self-check` runs A/A
//! pairs of child processes and prints each metric's relative difference.

use std::process::{Command, ExitCode};

use finch_benchmark::report::{self, metric_in};
use finch_benchmark::runner::{self, Options};
use finch_benchmark::workloads::Workload;

const USAGE: &str =
    "usage: finch-benchmark --workload <run_merge|run_dense|compile_cold|serve_warm|serve_churn> \
--seed <u64> [--seconds <n>] [--trace [0|1]] [--quick] [--self-check] [--corrupt-reference]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_check: bool,
    corrupt_reference: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        self_check: false,
        corrupt_reference: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => cli.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace`, `--trace 0`, `--trace 1`
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.quick = true,
            "--self-check" => cli.self_check = true,
            "--corrupt-reference" => cli.corrupt_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Where trace files go: `benchmark/out` from the repository root, `out`
/// from inside the package.
fn out_dir() -> &'static str {
    if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    }
}

fn run_one(cli: &Cli, workload: Workload) -> ExitCode {
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        corrupt_reference: cli.corrupt_reference,
    };
    let outcome = runner::run(&opts);
    print!("{}", outcome.text);
    if let Some(json) = &outcome.trace_json {
        let path = format!("{}/trace.{}.json", out_dir(), workload.name());
        match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "{}",
        report::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run this binary as a child and return its result line.
fn child_result(cli: &Cli, workload: Workload, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &cli.seed.to_string()]).args([
        "--seconds",
        &cli.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.starts_with("{\"correct\": true") {
        return Err(format!("{} run failed: {line}", workload.name()));
    }
    Ok(line)
}

/// A/A procedure that fixes the bounds in `BENCHMARK.json`: for each
/// workload, three pairs of identical runs (same build, same seed); the
/// proposed bound of a metric is max(floor, 2 x worst relative difference).
/// One traced pair checks that the exact counts repeat.
fn self_check(cli: &Cli) -> Result<bool, String> {
    let floor = |name: &str| -> f64 {
        if name == "op_tail_us" || name == "setup_s" {
            0.10
        } else {
            0.05
        }
    };
    let pairs = if cli.quick { 1 } else { 3 };
    let workloads: Vec<Workload> = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let (metrics, exact) = (report::end_to_end(), report::per_layer());
    let mut exact_ok = true;
    println!(
        "{:<14} {:<14} {:>30} {:>10}",
        "workload", "metric", "A/A relative differences", "bound"
    );
    for w in workloads {
        let mut worst = vec![0.0f64; metrics.len()];
        let mut diffs = vec![Vec::new(); worst.len()];
        for _ in 0..pairs {
            let (a, b) = (child_result(cli, w, false)?, child_result(cli, w, false)?);
            for (k, d) in metrics.iter().enumerate() {
                let (x, y) = (metric_in(&a, &d.name), metric_in(&b, &d.name));
                let (x, y) = x.zip(y).ok_or(format!("{} missing from a result line", d.name))?;
                let rel = (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
                worst[k] = worst[k].max(rel);
                diffs[k].push(format!("{:.2}%", rel * 100.0));
            }
        }
        for (k, d) in metrics.iter().enumerate() {
            let bound = floor(&d.name).max(2.0 * worst[k]);
            println!(
                "{:<14} {:<14} {:>30} {:>9.1}%",
                w.name(),
                d.name,
                diffs[k].join(" "),
                bound * 100.0
            );
        }
        let (a, b) = (child_result(cli, w, true)?, child_result(cli, w, true)?);
        for d in exact.iter().filter(|d| d.exact) {
            if metric_in(&a, &d.name) != metric_in(&b, &d.name) {
                println!(
                    "{:<14} {:<14} exact count differs between two traced runs",
                    w.name(),
                    d.name
                );
                exact_ok = false;
            }
        }
    }
    println!("exact counts {}", if exact_ok { "identical" } else { "DIFFER" });
    Ok(exact_ok)
}

/// glibc raises its mmap threshold to the size of the first large block a
/// process frees; until then, whether the set-up's multi-megabyte buffers
/// come from the heap or from fresh mappings depends on address-space
/// layout, and `peak_rss_mib` flips between two values 3 MiB apart from run
/// to run.  Freeing one untouched 16 MiB block first puts the allocator in
/// the state a long-lived process reaches anyway.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 16 << 20]));
}

fn main() -> ExitCode {
    settle_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.self_check {
        return match self_check(&cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("self-check: {e}");
                ExitCode::from(1)
            }
        };
    }
    match cli.workload {
        Some(w) => run_one(&cli, w),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
