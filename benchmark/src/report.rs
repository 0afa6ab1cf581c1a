//! The metric tables (the single list of names, units and directions that
//! `BENCHMARK.json` mirrors) and the result line the driver reads.

use std::fmt::Write as _;

use crate::cases::RUN_KERNELS;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// A count (or a ratio of counts) that must repeat exactly for a seed.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: &'static str, exact: bool) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, exact }
}

/// The end-to-end metrics, measured with tracing off.  `fail_ratio` is not
/// among them because it is 0 on every run (a bound relative to 0 means
/// nothing); it is reported through the result line's `attempted` /
/// `failed` and as a per-layer tripwire.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", false),
        def("ops_per_s", "1/s", "higher", false),
        def("op_us", "us", "lower", false),
        def("op_tail_us", "us", "lower", false),
        def("peak_rss_mib", "MiB", "lower", false),
    ]
}

/// The per-layer metrics, reported by a traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let t = |n: &str| def(n, "us", "lower", false);
    let count = |n: &str| def(n, "count", "lower", true);
    let mut defs = vec![
        t("cin.build_us"),
        t("cin.display_us"),
        t("formats.build_us"),
        t("formats.validate_us"),
        t("kernel.bind_us"),
        t("kernel.rebind_us"),
        t("kernel.readback_us"),
        t("lower.us"),
        count("lower.ir_lines"),
        t("opt.fold_us"),
        t("opt.licm_us"),
        t("opt.dce_us"),
        t("opt.peephole_us"),
        t("opt.typing_us"),
        t("opt.vectorize_us"),
        t("opt.shard_us"),
        t("opt.total_us"),
        count("opt.ir_lines"),
        def("opt.work_ratio", "ratio", "lower", true),
        def("opt.speedup", "ratio", "higher", false),
        t("bytecode.compile_us"),
        count("bytecode.code_instrs"),
        count("bytecode.num_regs"),
    ];
    defs.extend(RUN_KERNELS.iter().map(|k| t(&format!("vm.run_us.{k}"))));
    defs.extend([
        def("vm.ns_per_work", "ns", "lower", false),
        count("vm.loop_iters"),
        count("vm.loads"),
        count("vm.stores"),
        count("vm.searches"),
        def("vm.typed_fraction", "ratio", "higher", true),
        def("vm.vectorized_fraction", "ratio", "higher", true),
        def("vm.typed_speedup", "ratio", "higher", false),
        def("vm.simd_speedup", "ratio", "higher", false),
        t("vm.first_run_us"),
        def("interp.slowdown", "ratio", "lower", false),
        def("par.speedup_2t", "ratio", "higher", false),
        def("par.sharded_kernels", "count", "higher", true),
        t("service.hit_us"),
        t("service.miss_us"),
        t("service.overhead_us.small"),
        t("service.overhead_us.large"),
        def("service.hit_rate", "ratio", "higher", true),
        count("service.compiles"),
        count("service.evictions"),
        count("service.degraded"),
        def("service.ops_per_s_1c", "1/s", "higher", false),
        def("service.scaling_2c", "ratio", "higher", false),
        t("queue.wait_p99_us"),
        count("queue.queued"),
        count("queue.shed"),
        def("trace.overhead_ratio", "ratio", "higher", false),
        def("host.speed", "ratio", "higher", false),
        def("fail_ratio", "ratio", "lower", true),
    ]);
    defs
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        // JSON has no NaN / inf; a non-finite value can only come from a
        // broken run, which `correct` already reports.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// Read one metric's value back out of a result line (used by
/// `--self-check`, which compares child runs).
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_metric_in() {
        let metrics = vec![
            Reported { name: "op_us".into(), value: 12.5, unit: "us" },
            Reported { name: "op_tail_us".into(), value: f64::NAN, unit: "us" },
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(metric_in(&line, "op_us"), Some(12.5));
        assert_eq!(metric_in(&line, "op_tail_us"), Some(0.0));
        assert_eq!(metric_in(&line, "missing"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
