//! One benchmark run: set-up, timed rounds, and — with `--trace` — the traced
//! repeat and the per-layer decomposition.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::layers::{self, Metrics};
use crate::measure::{self, measure, Budget, EndToEnd};
use crate::report::{self, Reported};
use crate::trace::Tracer;
use crate::workloads::{self, Prepared, Workload};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    pub trace: bool,
    /// Two rounds and one set-up, same checks (for a CI leg).
    pub quick: bool,
    /// Test-only: corrupt every reference so every check must fail.
    pub corrupt_reference: bool,
}

/// How often set-up is repeated in a full run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Reported>,
    /// The human-readable report.
    pub text: String,
    /// The trace file's contents (traced run only).
    pub trace_json: Option<String>,
}

fn budget(opts: &Options, share: f64) -> Budget {
    if opts.quick {
        Budget::Rounds(2)
    } else {
        Budget::Seconds(opts.seconds * share)
    }
}

fn class_table(e: &EndToEnd) -> String {
    let mut out = format!(
        "  {:<24} {:>12} {:>12} {:>12}  tail\n",
        "class", "samples/rnd", "median_us", "tail_us"
    );
    for c in &e.classes {
        out += &format!(
            "  {:<24} {:>12} {:>12.3} {:>12.3}  p{}\n",
            c.name, c.samples_per_round, c.median_us, c.tail_us, c.tail_percentile
        );
    }
    out
}

fn rates_line(e: &EndToEnd) -> String {
    let rates: Vec<String> = e.round_rates.iter().map(|r| format!("{r:.0}")).collect();
    let speeds: Vec<String> = e.round_speeds.iter().map(|s| format!("{s:.2}")).collect();
    format!(
        "  ops/s by round (at reference host speed): {}\n  host speed by round (1 = reference): {}\n",
        rates.join(" "),
        speeds.join(" ")
    )
}

fn metric_lines(metrics: &[Reported]) -> String {
    metrics.iter().map(|m| format!("  {:<32} {:>16.6} {}\n", m.name, m.value, m.unit)).collect()
}

/// Run set-up `repeats` times from scratch; the last one is kept.  Returns
/// the median set-up time, normalised by the host speed measured around
/// each repetition.
fn repeated_setup(opts: &Options, repeats: usize) -> (Prepared, workloads::SetupChecks, f64) {
    let mut seconds = Vec::new();
    let mut kept = None;
    let mut speed_before = host::speed_now();
    for _ in 0..repeats {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(workloads::setup(opts.workload, opts.seed, opts.corrupt_reference));
        let raw = t0.elapsed().as_secs_f64();
        let speed_after = host::speed_now();
        seconds.push(raw * (speed_before + speed_after) / 2.0);
        speed_before = speed_after;
    }
    let (prepared, checks) = kept.expect("set-up runs at least once");
    (prepared, checks, measure::median(&mut seconds))
}

/// Execute one run of one workload.
pub fn run(opts: &Options) -> Outcome {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = format!(
        "workload {}  seed {}  trace {}  available_parallelism {cores}\n",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let repeats = if opts.quick || opts.trace { 1 } else { SETUP_REPEATS };
    let (mut prepared, checks, setup_s) = repeated_setup(opts, repeats);
    let classes = prepared.classes();

    let share = if opts.trace { 1.0 / 3.0 } else { 1.0 };
    let plain = measure(&classes, budget(opts, share), |s| prepared.round(s, None));
    let mut attempted = plain.attempted + checks.attempted;
    let mut failed = plain.failed + checks.failed;
    let mut empty_class = plain.classes.iter().any(|c| c.samples_per_round == 0);
    text += &format!(
        "untraced: {} rounds, {} operations attempted, {} failed, set-up checks {}/{} ok\n",
        plain.rounds,
        plain.attempted,
        plain.failed,
        checks.attempted - checks.failed,
        checks.attempted
    );
    text += &rates_line(&plain);
    text += &class_table(&plain);

    let mut trace_json = None;
    let metrics: Vec<Reported> = if opts.trace {
        let mut tracer = Tracer::default();
        let traced =
            measure(&classes, budget(opts, share), |s| prepared.round(s, Some(&mut tracer)));
        attempted += traced.attempted;
        failed += traced.failed;
        empty_class |= traced.classes.iter().any(|c| c.samples_per_round == 0);
        text += &format!(
            "traced: {} rounds, {} operations attempted, {} failed\n",
            traced.rounds, traced.attempted, traced.failed
        );
        text += &rates_line(&traced);

        let mut values: Metrics = layers::decompose(prepared.cases(), &mut tracer, opts.quick);
        if let Prepared::Serve(set) = &prepared {
            let serve = layers::serve_layers(set, plain.ops_per_s, &mut tracer, opts.quick);
            attempted += serve.attempted;
            failed += serve.failed;
            values.extend(serve.metrics);
            text += &serve.text;
        }
        values.insert("trace.overhead_ratio".into(), traced.ops_per_s / plain.ops_per_s);
        let mut speeds = [plain.round_speeds.clone(), traced.round_speeds.clone()].concat();
        values.insert("host.speed".into(), measure::median(&mut speeds));
        values.insert("fail_ratio".into(), failed as f64 / attempted.max(1) as f64);

        let value_of = |name: &str| values.get(name).copied().unwrap_or(0.0);
        let defs = report::per_layer();
        let counters: BTreeMap<String, f64> =
            defs.iter().filter(|d| d.exact).map(|d| (d.name.clone(), value_of(&d.name))).collect();
        let reported: Vec<Reported> = defs
            .into_iter()
            .map(|d| Reported { value: value_of(&d.name), name: d.name, unit: d.unit })
            .collect();
        trace_json = Some(tracer.to_json(opts.workload.name(), opts.seed, &counters));
        text += "span summary (count, total_us, self_us):\n";
        for (name, (count, total, own)) in tracer.summary() {
            text += &format!(
                "  {:<24} {:>10} {:>14.1} {:>14.1}\n",
                name,
                count,
                total as f64 / 1e3,
                own as f64 / 1e3
            );
        }
        text += "per-layer metrics (0 = layer not exercised by this workload):\n";
        text += &metric_lines(&reported);
        reported
    } else {
        let values =
            [setup_s, plain.ops_per_s, plain.op_us, plain.op_tail_us, measure::peak_rss_mib()];
        let reported: Vec<Reported> = report::end_to_end()
            .into_iter()
            .zip(values)
            .map(|(d, value)| Reported { name: d.name, value, unit: d.unit })
            .collect();
        text += "end-to-end metrics:\n";
        text += &metric_lines(&reported);
        reported
    };
    // A traced run lists `fail_ratio` among its per-layer metrics already.
    if !opts.trace {
        let ratio = failed as f64 / attempted.max(1) as f64;
        text += &format!("  {:<32} {ratio:>16.6} ratio\n", "fail_ratio");
    }
    text += &format!("{failed} failed of {attempted} attempted\n");
    if empty_class {
        text += "ERROR: a class has no samples\n";
    }
    Outcome {
        correct: failed == 0 && !empty_class && attempted > 0,
        attempted,
        failed,
        metrics,
        text,
        trace_json,
    }
}
