//! Machine-readable reports: what the `figures` and `serve` binaries write
//! to `BENCH_figures.json` / `BENCH_serve.json`.
//!
//! Every value in either report is exact — a count, a configured input, or
//! a ratio of counts; nothing is a wall-clock quantity, so no key ends in
//! `_seconds`, `_us` or `_ms` (a unit test holds both documents to that).
//! Time is the repo benchmark's to measure (`benchmark/`).
//!
//! The figures report ([`Report::build`]) is a pure function of the code:
//! the same bytes from a debug and a release build, on any host.  Its
//! `--tiny` form is committed as `tests/figures_tiny.golden` and compared
//! byte for byte by `tests/figures_golden.rs`, line by line — so the
//! rendering keeps one fact per line:
//!
//! ```json
//! {
//!   "schema_version": 12,
//!   "figures": [
//!     {"figure": "fig01", "group": "band width 8",
//!      "heading": "Figure 1 — motivating dot product: ...",
//!      "variants": [
//!       {"label": "looplets: list x band",
//!        "opt": {"folds": 12, "...": 0},
//!        "typed_instr_fraction": 0.93,
//!        "vectorized_fraction": 0.86,
//!        "work_vs_baseline": 1,
//!        "configs": [
//!         {"opt_level": "none", "typed": false, "simd": false, "instrs": 120,
//!          "dispatches": 1544, "stmts": 10, "loop_iters": 4, "loads": 8,
//!          "stores": 4, "searches": 0, "total_work": 22} ] } ] } ] }
//! ```
//!
//! The JSON is hand-rolled (the build environment has no serde); the schema
//! is documented in `EXPERIMENTS.md`.

use std::io::Write as _;

use finch::{ExecConfig, ExecStats, MergeDecline, OptStats, ValidationLevel, VectorDecline};

use crate::{assert_engine_parity, FigureTable, Variant};

/// One variant under one compile-side configuration.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// The configuration, one of [`ExecConfig::matrix`].
    pub config: ExecConfig,
    /// Bytecode instructions of the compiled program.
    pub instrs: usize,
    /// Instructions the VM dispatched in one run (`profile()`'s total).
    pub dispatches: u64,
    /// Work counters of one run, identical on both engines.
    pub stats: ExecStats,
}

/// One strategy/format variant of a figure under every configuration of
/// [`ExecConfig::matrix`].
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// Human-readable strategy/format label.
    pub label: String,
    /// The optimiser's per-pass counters at the default configuration.
    pub opt: OptStats,
    /// Fraction of the default configuration's dispatches that were
    /// tag-free (typed or tag-neutral) instructions.
    pub typed_instr_fraction: f64,
    /// Fraction of innermost typed counted-loop body instructions the
    /// vectorize pass replaced with kernel ops
    /// (`instrs_vectorized / instrs_vectorizable`; `None` when the
    /// kernel has no such loops).
    pub vectorized_fraction: Option<f64>,
    /// One record per [`ExecConfig::matrix`] configuration, in its order.
    pub configs: Vec<ConfigReport>,
}

impl VariantReport {
    /// The record of the default configuration (the matrix's last: every
    /// stage on).
    pub fn at_default(&self) -> &ConfigReport {
        self.configs.last().expect("a variant is recorded under every configuration")
    }
}

/// One table of one figure (a figure may sweep a parameter and emit
/// several groups).
#[derive(Debug, Clone)]
pub struct FigureGroup {
    /// Figure identifier (`fig01`, `fig07a`, ...).
    pub figure: String,
    /// The parameter point or dataset of this table.
    pub group: String,
    /// What the figure shows and at which sizes.
    pub heading: String,
    /// The recorded variants, the group's baseline first.
    pub variants: Vec<VariantReport>,
}

impl FigureGroup {
    /// `variant`'s `total_work` over that of the group's first variant, both
    /// at the default configuration: the figure's headline quantity.
    pub fn work_vs_baseline(&self, variant: &VariantReport) -> f64 {
        let work = |v: &VariantReport| v.at_default().stats.total_work() as f64;
        work(variant) / self.variants.first().map_or(1.0, work)
    }
}

/// The full report of one `figures` invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every figure table recorded, in print order.
    pub figures: Vec<FigureGroup>,
}

/// Record `variant` under every configuration, asserting on the way what a
/// report may take for granted: each compiles again under
/// [`ValidationLevel::Full`] to the same program, both engines agree on
/// outputs and counters, and no dispatch mode changes a counter.
fn record(what: &str, variant: &Variant) -> VariantReport {
    let mut configs: Vec<ConfigReport> = Vec::new();
    // Taken leg by leg; the last leg is the default configuration.
    let (mut opt, mut typed_instr_fraction) = (OptStats::default(), 0.0);
    for config in variant.kernel.config().matrix() {
        let at = format!("{what} under {}", config.label());
        let mut kernel =
            variant.kernel.reconfigured(&config).unwrap_or_else(|e| panic!("{at}: {e}"));
        let full = ExecConfig { validation: ValidationLevel::Full, ..config };
        let validated =
            kernel.reconfigured(&full).unwrap_or_else(|e| panic!("{at}, fully validated: {e}"));
        assert!(
            validated.bytecode() == kernel.bytecode(),
            "{at}: full validation compiles another program"
        );
        let stats = assert_engine_parity(&mut kernel, &at);
        let (profiled, per_pc) = kernel.profile().unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(profiled, stats, "{at}: profiling changes the counters");
        if let Some(same_level) = configs.iter().find(|c| c.config.opt == config.opt) {
            assert_eq!(same_level.stats, stats, "{at}: the dispatch mode changes the counters");
        }
        let code = kernel.bytecode().code();
        let dispatches: u64 = per_pc.iter().sum();
        let tag_free: u64 =
            per_pc.iter().zip(code).filter(|(_, i)| i.is_tag_free()).map(|p| p.0).sum();
        opt = kernel.opt_stats();
        typed_instr_fraction = tag_free as f64 / dispatches as f64;
        configs.push(ConfigReport { config, instrs: code.len(), dispatches, stats });
    }
    VariantReport {
        label: variant.label.clone(),
        opt,
        typed_instr_fraction,
        vectorized_fraction: (opt.instrs_vectorizable > 0)
            .then(|| opt.instrs_vectorized as f64 / opt.instrs_vectorizable as f64),
        configs,
    }
}

impl Report {
    /// Run every variant of `tables` under every configuration and record
    /// what is exact about it (see [`VariantReport`]).
    ///
    /// # Panics
    ///
    /// Panics, naming figure, group, variant and configuration, when a
    /// kernel fails to compile under full validation, the engines disagree,
    /// or a dispatch mode changes a work counter.
    pub fn build(tables: &[FigureTable]) -> Report {
        let group = |table: &FigureTable| {
            let what = |v: &Variant| format!("{} ({}) `{}`", table.figure, table.group, v.label);
            FigureGroup {
                figure: table.figure.to_string(),
                group: table.group.clone(),
                heading: table.heading.clone(),
                variants: table.variants.iter().map(|v| record(&what(v), v)).collect(),
            }
        };
        Report { figures: tables.iter().map(group).collect() }
    }

    /// Serialise the report as a JSON document (schema v12 — see
    /// EXPERIMENTS.md), one fact per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": 12,\n  \"figures\": [");
        for (i, fig) in self.figures.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
            out.push_str(&format!(
                "\"figure\": {}, \"group\": {},\n     \"heading\": {},\n     \"variants\": [",
                json_string(&fig.figure),
                json_string(&fig.group),
                json_string(&fig.heading),
            ));
            for (j, v) in fig.variants.iter().enumerate() {
                out.push_str(if j > 0 { ",\n      {" } else { "\n      {" });
                out.push_str(&format!("\"label\": {},", json_string(&v.label)));
                out.push_str(&format!("\n       \"opt\": {},", opt_json(&v.opt)));
                out.push_str(&format!(
                    "\n       \"typed_instr_fraction\": {},",
                    json_number(v.typed_instr_fraction)
                ));
                if let Some(f) = v.vectorized_fraction {
                    out.push_str(&format!("\n       \"vectorized_fraction\": {},", json_number(f)));
                }
                out.push_str(&format!(
                    "\n       \"work_vs_baseline\": {},",
                    json_number(fig.work_vs_baseline(v))
                ));
                out.push_str("\n       \"configs\": [");
                for (k, c) in v.configs.iter().enumerate() {
                    out.push_str(if k > 0 { ",\n        {" } else { "\n        {" });
                    out.push_str(&format!(
                        "\"opt_level\": {}, \"typed\": {}, \"simd\": {}, \"instrs\": {}, \
                         \"dispatches\": {}, \"stmts\": {}, \"loop_iters\": {}, \"loads\": {}, \
                         \"stores\": {}, \"searches\": {}, \"total_work\": {}}}",
                        json_string(c.config.opt.label()),
                        c.config.typed,
                        c.config.simd,
                        c.instrs,
                        c.dispatches,
                        c.stats.stmts,
                        c.stats.loop_iters,
                        c.stats.loads,
                        c.stats.stores,
                        c.stats.searches,
                        c.stats.total_work(),
                    ));
                }
                out.push_str("\n       ]}");
            }
            out.push_str("\n     ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// A decline tally as the inside of one JSON object: every reason, so that
/// the keys of the line do not depend on the kernel.
fn declines(labels: impl Iterator<Item = &'static str>, loops: &[u64]) -> String {
    labels
        .zip(loops)
        .map(|(why, loops)| format!("\"{why}\": {loops}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The optimiser's counters as one JSON object.
fn opt_json(s: &OptStats) -> String {
    // Why loops got no kernel op, vectorized or run-ahead.
    let vector_declined =
        declines(VectorDecline::ALL.iter().map(|why| why.label()), &s.vector_declined);
    let merge_declined =
        declines(MergeDecline::ALL.iter().map(|why| why.label()), &s.merge_declined);
    format!(
        "{{\"folds\": {}, \"copies_propagated\": {}, \"branches_pruned\": {}, \
         \"loops_removed\": {}, \"stmts_removed\": {}, \"loads_hoisted\": {}, \
         \"exprs_hoisted\": {}, \"instrs_fused\": {}, \"movs_eliminated\": {}, \
         \"regs_saved\": {}, \"instrs_typed\": {}, \"regs_pretagged\": {}, \
         \"instrs_vectorized\": {}, \"instrs_vectorizable\": {}, \"vector_declined\": {{{}}}, \
         \"copies_forwarded\": {}, \
         \"literals_pinned\": {}, \"loops_rotated\": {}, \"advances_predicated\": {}, \
         \"merge_skips\": {}, \"merge_declined\": {{{}}}, \"ir_stmts_before\": {}, \
         \"ir_stmts_after\": {}}}",
        s.folds,
        s.copies_propagated,
        s.branches_pruned,
        s.loops_removed,
        s.stmts_removed,
        s.loads_hoisted,
        s.exprs_hoisted,
        s.instrs_fused,
        s.movs_eliminated,
        s.regs_saved,
        s.instrs_typed,
        s.regs_pretagged,
        s.instrs_vectorized,
        s.instrs_vectorizable,
        vector_declined,
        s.copies_forwarded,
        s.literals_pinned,
        s.loops_rotated,
        s.advances_predicated,
        s.merge_skips,
        merge_declined,
        s.ir_stmts_before,
        s.ir_stmts_after,
    )
}

/// The machine-readable result of one `serve` run (`BENCH_serve.json`): the
/// trace's shape, how every request ended, and the service's own counters.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Requests submitted by the driver.
    pub requests: u64,
    /// Concurrent client threads.
    pub clients: u64,
    /// Distinct kernel structures in the trace.
    pub kernels: u64,
    /// Data instances per kernel.
    pub instances: u64,
    /// Service cache capacity.
    pub cache_capacity: u64,
    /// Per-request deadline in milliseconds (0 = none).
    pub deadline_millis: u64,
    /// Injected-fault rate in permille (0 = fault-free).
    pub faults_permille: u64,
    /// Whether the run was the chaos soak (overload + faults + mid-run
    /// drain/restart) rather than the plain serve bench.
    pub soak: bool,
    /// Trace seed.
    pub seed: u64,
    /// Zipf skew of the trace.
    pub zipf_skew: f64,
    /// Deepest admission-queue depth sampled during the run.
    pub max_queue_depth: u64,
    /// Cache hits / (hits + misses).
    pub hit_rate: f64,
    /// Successful responses.
    pub ok: u64,
    /// Responses served by the oracle tier.
    pub degraded: u64,
    /// Requests that ended in a typed error (deadline, budget, shed, ...).
    pub typed_errors: u64,
    /// Responses verified bit-identical against the tree-walk reference.
    pub verified: u64,
    /// Verified responses that diverged from the reference (must be 0).
    pub divergences: u64,
    /// Number of mid-run drain/restart cycles performed (soak mode).
    pub drained: u64,
    /// Whether any drain overran its deadline and cancelled in-flight work.
    pub drain_cancelled: bool,
    /// The service's own counters at the end of the run.
    pub stats: finch::ServiceStats,
}

impl ServeReport {
    /// Render the report as a JSON document.
    pub fn to_json(&self) -> String {
        let tiers = |xs: &[u64]| format!("{xs:?}");
        let s = &self.stats;
        format!(
            "{{\n  \"schema_version\": 5,\n  \"bench\": \"serve\",\n  \
             \"requests\": {},\n  \"clients\": {},\n  \"kernels\": {},\n  \
             \"instances\": {},\n  \"cache_capacity\": {},\n  \"deadline_millis\": {},\n  \
             \"faults_permille\": {},\n  \"soak\": {},\n  \"seed\": {},\n  \"zipf_skew\": {},\n  \
             \"max_queue_depth\": {},\n  \"hit_rate\": {},\n  \
             \"ok\": {},\n  \"degraded\": {},\n  \"typed_errors\": {},\n  \
             \"verified\": {},\n  \"divergences\": {},\n  \"drained\": {},\n  \
             \"drain_cancelled\": {},\n  \"service\": {{\n    \
             \"hits\": {},\n    \"misses\": {},\n    \"compiles\": {},\n    \
             \"recompiles\": {},\n    \"quarantined\": {},\n    \"evictions\": {},\n    \
             \"shed\": {},\n    \"queued\": {},\n    \"slot_waits\": {},\n    \"queue_timeouts\": {},\n    \
             \"breaker_opens\": {},\n    \"breaker_short_circuits\": {},\n    \
             \"panics\": {},\n    \"deadline_errors\": {},\n    \
             \"budget_errors\": {},\n    \"alloc_errors\": {},\n    \
             \"served_by_tier\": {},\n    \"faults_by_tier\": {}\n  }}\n}}\n",
            self.requests,
            self.clients,
            self.kernels,
            self.instances,
            self.cache_capacity,
            self.deadline_millis,
            self.faults_permille,
            self.soak,
            self.seed,
            json_number(self.zipf_skew),
            self.max_queue_depth,
            json_number(self.hit_rate),
            self.ok,
            self.degraded,
            self.typed_errors,
            self.verified,
            self.divergences,
            self.drained,
            self.drain_cancelled,
            s.hits,
            s.misses,
            s.compiles,
            s.recompiles,
            s.quarantined,
            s.evictions,
            s.shed,
            s.queued,
            s.slot_waits,
            s.queue_timeouts,
            s.breaker_opens,
            s.breaker_short_circuits,
            s.panics,
            s.deadline_errors,
            s.budget_errors,
            s.alloc_errors,
            tiers(&s.served_by_tier),
            tiers(&s.faults_by_tier),
        )
    }

    /// Write the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Escape a string for JSON (the labels are plain ASCII, but quotes and
/// backslashes must not corrupt the document).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float as a JSON number (Rust's `Display` for finite `f64` is
/// valid JSON; non-finite values have no JSON encoding and become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch::OptLevel;

    fn sample() -> Report {
        let [none, .., full] = ExecConfig::default().matrix();
        let at = |config, instrs, dispatches, stmts| ConfigReport {
            config,
            instrs,
            dispatches,
            stats: ExecStats { stmts, loop_iters: 4, loads: 8, stores: 4, searches: 1 },
        };
        Report {
            figures: vec![FigureGroup {
                figure: "fig01".into(),
                group: "band width \"8\"".into(),
                heading: "Figure 1".into(),
                variants: vec![VariantReport {
                    label: "looplets: list x band".into(),
                    opt: OptStats {
                        folds: 3,
                        loads_hoisted: 2,
                        exprs_hoisted: 5,
                        instrs_typed: 17,
                        regs_pretagged: 5,
                        instrs_vectorized: 12,
                        instrs_vectorizable: 14,
                        vector_declined: [0, 1, 0, 0, 0],
                        copies_forwarded: 6,
                        literals_pinned: 3,
                        loops_rotated: 2,
                        advances_predicated: 1,
                        merge_skips: 1,
                        merge_declined: [0, 2, 0, 0, 1, 0],
                        ..OptStats::default()
                    },
                    typed_instr_fraction: 0.9375,
                    vectorized_fraction: Some(0.875),
                    configs: vec![at(none, 120, 300, 12), at(full, 90, 200, 10)],
                }],
            }],
        }
    }

    /// The keys of a rendered document: every `"name":`.
    fn keys(json: &str) -> Vec<&str> {
        json.split('"')
            .zip(json.split('"').skip(1))
            .filter(|(_, next)| next.starts_with(':'))
            .map(|(key, _)| key)
            .collect()
    }

    fn assert_balanced(j: &str) {
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(j.matches(open).count(), j.matches(close).count(), "{open}{close}:\n{j}");
        }
        // No trailing commas before a closer.
        assert!(!j.contains(",]") && !j.contains(",}"));
    }

    #[test]
    fn json_has_every_configuration_and_escaped_strings() {
        let report = sample();
        assert_eq!(report.figures[0].variants[0].at_default().config.opt, OptLevel::Default);
        let j = report.to_json();
        assert!(j.contains("\"schema_version\": 12"));
        assert!(j.contains("band width \\\"8\\\""), "{j}");
        assert!(j.contains(
            "{\"opt_level\": \"none\", \"typed\": false, \"simd\": false, \"instrs\": 120, \
             \"dispatches\": 300, \"stmts\": 12, \"loop_iters\": 4, \"loads\": 8, \
             \"stores\": 4, \"searches\": 1, \"total_work\": 25}"
        ));
        assert!(j.contains(
            "{\"opt_level\": \"default\", \"typed\": true, \"simd\": true, \"instrs\": 90, \
             \"dispatches\": 200, \"stmts\": 10,"
        ));
        assert!(j.contains("\"loads_hoisted\": 2, \"exprs_hoisted\": 5"));
        assert!(j.contains("\"instrs_typed\": 17, \"regs_pretagged\": 5"));
        assert!(j.contains(
            "\"instrs_vectorized\": 12, \"instrs_vectorizable\": 14, \"vector_declined\": \
             {\"not_whitelisted\": 0, \"index_shape\": 1, \"acc_index\": 0, \"effect_shape\": 0, \
             \"loads_mismatch\": 0}, \"copies_forwarded\": 6"
        ));
        assert!(j.contains("\"copies_forwarded\": 6, \"literals_pinned\": 3"));
        assert!(j.contains("\"loops_rotated\": 2, \"advances_predicated\": 1"));
        assert!(j.contains("\"merge_skips\": 1, \"merge_declined\": {\"not_a_step_loop\": 0, "));
        assert!(j.contains("\"single_finger\": 2, "));
        assert!(j.contains("\"non_unit_advance\": 1, \"shared_operand\": 0}, \"ir_stmts_before\""));
        assert!(j.contains("\"typed_instr_fraction\": 0.9375"));
        assert!(j.contains("\"vectorized_fraction\": 0.875"));
        assert!(j.contains("\"work_vs_baseline\": 1"), "the first variant is the baseline");
        assert_balanced(&j);

        let mut report = report;
        report.figures[0].variants[0].vectorized_fraction = None;
        let j = report.to_json();
        assert!(!j.contains("vectorized_fraction"));
        assert_balanced(&j);
    }

    #[test]
    fn serve_report_emits_schema_v5_with_front_end_counters() {
        let stats = finch::ServiceStats {
            queued: 7,
            queue_timeouts: 3,
            breaker_opens: 2,
            breaker_short_circuits: 5,
            served_by_tier: [10, 2],
            ..Default::default()
        };
        let r = ServeReport {
            requests: 16,
            clients: 8,
            deadline_millis: 40,
            soak: true,
            max_queue_depth: 6,
            drained: 2,
            drain_cancelled: false,
            stats,
            ..ServeReport::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"schema_version\": 5"));
        assert!(j.contains("\"deadline_millis\": 40"));
        assert!(j.contains("\"soak\": true"));
        assert!(j.contains("\"max_queue_depth\": 6"));
        assert!(j.contains("\"drained\": 2"));
        assert!(j.contains("\"drain_cancelled\": false"));
        assert!(j.contains("\"queued\": 7"));
        assert!(j.contains("\"queue_timeouts\": 3"));
        assert!(j.contains("\"breaker_opens\": 2"));
        assert!(j.contains("\"breaker_short_circuits\": 5"));
        assert!(!j.contains("batch"));
        assert!(j.contains("\"served_by_tier\": [10, 2]"));
        assert!(j.contains("\"faults_by_tier\": [0, 0]"));
        assert_balanced(&j);
    }

    /// Neither report carries a wall-clock quantity: time is the repo
    /// benchmark's to measure.
    #[test]
    fn no_report_key_names_a_time() {
        let documents = [sample().to_json(), ServeReport::default().to_json()];
        for key in documents.iter().flat_map(|j| keys(j)) {
            let timed = ["_seconds", "_us", "_ms", "_speedup"].iter().any(|s| key.ends_with(s));
            assert!(!timed && key != "qps", "`{key}` names a measured time");
        }
        assert!(keys(&documents[1]).contains(&"slot_waits"), "the scan sees the keys");
    }

    #[test]
    fn non_finite_numbers_are_sanitised() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(1.5), "1.5");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("x\u{1}"), "\"x\\u0001\"");
    }
}
