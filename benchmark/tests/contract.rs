//! The benchmark's own contract: inputs and exact counts are a function of
//! the seed, every class is exercised, a wrong result fails the command, and
//! `BENCHMARK.json` lists exactly the metrics and workloads the code reports.

use std::process::Command;

use finch_benchmark::layers;
use finch_benchmark::report;
use finch_benchmark::runner::{self, Options};
use finch_benchmark::trace::Tracer;
use finch_benchmark::workloads::{self, Prepared, Workload};

fn quick(workload: Workload, seed: u64) -> Options {
    Options { workload, seed, seconds: 1.0, trace: false, quick: true, corrupt_reference: false }
}

/// Everything set-up derives from the seed, rendered so two set-ups can be
/// compared byte for byte: schedules, input tensors and reference results.
fn fingerprint(workload: Workload, seed: u64) -> String {
    let (prepared, _) = workloads::setup(workload, seed, false);
    let schedules = match &prepared {
        Prepared::Kernels(s) => format!("{:?}", s.schedule),
        Prepared::Compile(s) => format!("{:?}", s.schedule),
        Prepared::Serve(s) => format!("{:?} {:?}", s.schedules, s.request_tensors),
    };
    let cases: Vec<String> = prepared
        .cases()
        .iter()
        .map(|c| format!("{} {:?} {:?}", c.name, c.tensors(), c.expected))
        .collect();
    format!("{schedules}\n{}", cases.join("\n"))
}

#[test]
fn the_same_seed_gives_the_same_schedules_tensors_and_references() {
    for w in Workload::ALL {
        assert_eq!(
            fingerprint(w, 7),
            fingerprint(w, 7),
            "{} is not a function of its seed",
            w.name()
        );
        assert_ne!(fingerprint(w, 7), fingerprint(w, 8), "{} ignores its seed", w.name());
    }
}

/// The exact-count per-layer metrics of one traced decomposition.
fn exact_counts(workload: Workload, seed: u64) -> Vec<(String, f64)> {
    let (prepared, _) = workloads::setup(workload, seed, false);
    let mut tracer = Tracer::default();
    let mut values = layers::decompose(prepared.cases(), &mut tracer, true);
    if let Prepared::Serve(set) = &prepared {
        let serve = layers::serve_layers(set, 1.0, &mut tracer, true);
        assert_eq!(serve.failed, 0);
        values.extend(serve.metrics);
    }
    report::per_layer()
        .into_iter()
        .filter(|d| d.exact && d.name != "fail_ratio")
        .map(|d| {
            let v = *values.get(&d.name).unwrap_or(&0.0);
            (d.name, v)
        })
        .collect()
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    // One compile-side and one serve-side workload: work sums, instruction
    // counts, and the single-client hit / miss / eviction counts.
    for w in [Workload::CompileCold, Workload::ServeChurn] {
        let (a, b) = (exact_counts(w, 3), exact_counts(w, 3));
        assert_eq!(a, b, "{}: exact counts differ between two runs", w.name());
        let get = |name: &str| a.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert!(get("bytecode.code_instrs") > 0.0 && get("vm.loads") > 0.0);
        if w == Workload::ServeChurn {
            let rate = get("service.hit_rate");
            assert!(rate > 0.3 && rate < 0.95, "hit rate {rate} leaves one class nearly empty");
            assert!(get("service.evictions") > 0.0, "the working set must exceed the cache");
        }
    }
}

#[test]
fn every_class_of_every_workload_is_exercised_and_correct() {
    for w in Workload::ALL {
        let outcome = runner::run(&quick(w, 11));
        assert!(outcome.correct, "{}:\n{}", w.name(), outcome.text);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<String> = report::end_to_end().into_iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{}:\n{}", w.name(), outcome.text);
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_non_negative_residuals() {
    for w in [Workload::CompileCold, Workload::ServeWarm] {
        let outcome = runner::run(&Options { trace: true, ..quick(w, 5) });
        assert!(outcome.correct, "{}:\n{}", w.name(), outcome.text);
        let expected: Vec<String> = report::per_layer().into_iter().map(|d| d.name).collect();
        let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, expected);
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite() && m.value >= 0.0));
        let get = |n: &str| outcome.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(get("lower.us") > 0.0 && get("trace.overhead_ratio") > 0.0);
        if w == Workload::ServeWarm {
            assert_eq!(get("service.hit_rate"), 1.0, "a warmed cache of 16 structures always hits");
            assert!(get("service.overhead_us.small") > 0.0);
            assert_eq!(get("queue.shed") + get("queue.queued") + get("service.degraded"), 0.0);
        }
        let trace = outcome.trace_json.expect("a traced run renders a span file");
        assert!(trace.contains("\"shadow\"") && trace.contains("\"spans\":["));
    }
}

#[test]
fn a_corrupted_reference_fails_every_operation_and_the_command() {
    let opts = Options { corrupt_reference: true, ..quick(Workload::RunDense, 2) };
    let outcome = runner::run(&opts);
    assert!(!outcome.correct);
    // Every timed operation fails its check; the set-up parity checks (which
    // compare the two engines, not the reference) still pass.
    assert_eq!(outcome.failed + 8, outcome.attempted);

    let out = Command::new(env!("CARGO_BIN_EXE_finch-benchmark"))
        .args(["--workload", "serve_warm", "--seed", "2", "--quick", "--corrupt-reference"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().last().unwrap().starts_with("{\"correct\": false"));
}

/// Pull every `"name": "<value>"` under the array called `section` out of
/// `BENCHMARK.json` (flat objects only, which is all the file holds).
fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest.find(&format!("\"{section}\"")).expect("section present");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name is a string").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_reports() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let names = |defs: Vec<report::MetricDef>| defs.into_iter().map(|d| d.name).collect::<Vec<_>>();
    assert_eq!(manifest_names(&manifest, "end_to_end"), names(report::end_to_end()));
    assert_eq!(manifest_names(&manifest, "per_layer"), names(report::per_layer()));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(manifest_names(&manifest, "workloads"), workloads);
    for d in report::end_to_end().into_iter().chain(report::per_layer()) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(manifest.contains(&entry), "BENCHMARK.json disagrees on {entry}");
    }
}
