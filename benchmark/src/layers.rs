//! Per-layer attribution, measured from the benchmark's side of each public
//! call.  `submit` and `compile` are opaque from outside, so a traced run
//! *decomposes* them with shadow calls: the same program is displayed,
//! validated, bound, compiled, re-optimised, run on every tier and read
//! back one call at a time, each under a `shadow` span.  Exact counts
//! (work sums, instruction counts, single-client hits and misses) are taken
//! here, where nothing runs concurrently.
//!
//! Aggregation over a workload's cases: times are the mean over cases of the
//! per-case median (µs per program), counts are sums, ratios are geometric
//! means.  A layer the workload does not exercise reads 0.  Times are scaled
//! to the reference host speed measured at the start of each case (see
//! `host`); the spans in the trace file stay as measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use finch::{CompiledKernel, Engine, OptLevel, Tensor};

use crate::cases::{Case, RUN_KERNELS};
use crate::host;
use crate::measure::{geomean, median_ns, RoundSamples};
use crate::trace::{Tracer, ROOT};
use crate::workloads::{readback, ServeSet};

pub type Metrics = BTreeMap<String, f64>;

/// Repetitions of each shadow call (the median is reported).
fn reps(quick: bool) -> usize {
    if quick {
        3
    } else {
        7
    }
}

/// Time `reps` calls of `f`, each under a span; the median in ns.
fn timed_median(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u32,
    op: u64,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut ns: Vec<u64> = (0..reps).map(|_| tracer.time(name, parent, op, &mut f).1).collect();
    median_ns(&mut ns)
}

/// Median wall time of `run_with(engine)` in ns: at least three runs, more
/// while they stay under ~20 ms in total (small kernels get more samples).
fn run_median(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u32,
    op: u64,
    kernel: &mut CompiledKernel,
    engine: Engine,
) -> f64 {
    kernel.run_with(engine).expect("benchmark kernel runs");
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < 3 || (ns.len() < 25 && start.elapsed().as_millis() < 20) {
        let (ran, t) = tracer.time(name, parent, op, || kernel.run_with(engine));
        ran.expect("benchmark kernel runs");
        ns.push(t);
    }
    median_ns(&mut ns)
}

#[derive(Default)]
struct Acc {
    /// Host speed of the case being decomposed.
    speed: f64,
    /// Per-case values averaged arithmetically (µs).
    mean_us: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts, summed over cases.
    sum: BTreeMap<&'static str, f64>,
    /// Per-case ratios averaged geometrically.
    ratio: BTreeMap<&'static str, Vec<f64>>,
}

impl Acc {
    fn us(&mut self, name: &'static str, ns: f64) {
        self.mean_us.entry(name).or_default().push(ns * self.speed / 1e3);
    }
    fn count(&mut self, name: &'static str, n: f64) {
        *self.sum.entry(name).or_default() += n;
    }
    fn ratio(&mut self, name: &'static str, r: f64) {
        self.ratio.entry(name).or_default().push(r);
    }
}

const PASS_METRICS: [(&str, &str); 8] = [
    ("fold", "opt.fold_us"),
    ("licm", "opt.licm_us"),
    ("dce", "opt.dce_us"),
    ("lower", "bytecode.compile_us"),
    ("peephole", "opt.peephole_us"),
    ("typing", "opt.typing_us"),
    ("vectorize", "opt.vectorize_us"),
    ("shard", "opt.shard_us"),
];

fn read_output(kernel: &CompiledKernel, case: &Case) {
    black_box(readback(kernel, case).expect("the checked output reads back"));
}

fn rebind_all(kernel: &mut CompiledKernel, tensors: &[Tensor]) {
    for t in tensors {
        kernel.rebind_input(t).expect("same-structure rebind succeeds");
    }
}

/// Decompose every case of a workload into its layers.
pub fn decompose(cases: &[Case], tracer: &mut Tracer, quick: bool) -> Metrics {
    let reps = reps(quick);
    let mut acc = Acc::default();
    let mut out = Metrics::new();
    let (mut executed, mut typed_executed) = (0u64, 0u64);
    let (mut vectorized, mut vectorizable) = (0u64, 0u64);
    let mut sharded = 0u32;

    for (k, case) in cases.iter().enumerate() {
        let op = k as u64;
        acc.speed = host::speed_now();
        let shadow = tracer.begin("shadow", ROOT, op);

        // cin: build the program, render it (the service renders it once for
        // the cache key and once more to verify a hit).
        acc.us(
            "cin.build_us",
            timed_median(tracer, "cin.build", shadow, op, reps, || {
                black_box(case.template.program());
            }),
        );
        let program = case.template.program();
        acc.us(
            "cin.display_us",
            timed_median(tracer, "cin.display", shadow, op, reps, || {
                black_box(program.to_string());
            }),
        );

        // formats: construct and validate one request's inputs.
        acc.us(
            "formats.build_us",
            timed_median(tracer, "formats.build", shadow, op, reps, || {
                black_box(case.tensors());
            }),
        );
        let tensors = case.tensors();
        acc.us(
            "formats.validate_us",
            timed_median(tracer, "formats.validate", shadow, op, reps, || {
                for t in &tensors {
                    t.validate().expect("generated tensors are valid");
                }
            }),
        );

        // kernel.bind + compile + first run, `reps` times from scratch.
        let (mut bind, mut compile, mut first_run) = (Vec::new(), Vec::new(), Vec::new());
        let mut pass_ns: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut compiled = None;
        for _ in 0..reps {
            let (kernel, ns) = tracer.time("kernel.bind", shadow, op, || case.bind(&tensors));
            bind.push(ns);
            let (built, ns) =
                tracer.time("kernel.compile", shadow, op, || kernel.compile(&program));
            compile.push(ns);
            let mut built = built.expect("benchmark program compiles");
            let (ran, ns) = tracer.time("vm.first_run", shadow, op, || built.run());
            ran.expect("benchmark kernel runs");
            first_run.push(ns);
            for report in built.pass_reports() {
                pass_ns.entry(report.name).or_default().push(report.transform_nanos);
            }
            compiled = Some(built);
        }
        let mut compiled = compiled.expect("at least one repetition");
        acc.us("kernel.bind_us", median_ns(&mut bind));
        acc.us("vm.first_run_us", median_ns(&mut first_run));
        for (pass, metric) in PASS_METRICS {
            acc.us(metric, pass_ns.get_mut(pass).map_or(0.0, |v| median_ns(v)));
        }

        // opt: the pass pipeline alone (`reoptimized` restarts from the kept
        // pre-optimisation IR); lowering is what is left of `compile`.
        let reopt = timed_median(tracer, "opt.reoptimized", shadow, op, reps, || {
            black_box(compiled.reoptimized(OptLevel::Default));
        });
        acc.us("opt.total_us", reopt);
        acc.us("lower.us", (median_ns(&mut compile) - reopt).max(0.0));
        let mut unoptimised = compiled.reoptimized(OptLevel::None);
        acc.count("lower.ir_lines", unoptimised.code().lines().count() as f64);
        acc.count("opt.ir_lines", compiled.code().lines().count() as f64);
        acc.count("bytecode.code_instrs", compiled.bytecode().code().len() as f64);
        acc.count("bytecode.num_regs", compiled.bytecode().num_regs() as f64);

        // vm: the default tier.
        let run = run_median(tracer, "vm.run", shadow, op, &mut compiled, Engine::Bytecode);
        if RUN_KERNELS.contains(&case.name.as_str()) {
            out.insert(format!("vm.run_us.{}", case.name), run * acc.speed / 1e3);
        }
        let (stats, per_pc) = compiled.profile().expect("profiled run succeeds");
        acc.count("vm.loop_iters", stats.loop_iters as f64);
        acc.count("vm.loads", stats.loads as f64);
        acc.count("vm.stores", stats.stores as f64);
        acc.count("vm.searches", stats.searches as f64);
        acc.ratio("vm.ns_per_work", run * acc.speed / stats.total_work().max(1) as f64);
        executed += per_pc.iter().sum::<u64>();
        typed_executed += per_pc
            .iter()
            .zip(compiled.bytecode().code())
            .filter(|(_, instr)| instr.is_tag_free())
            .map(|(n, _)| n)
            .sum::<u64>();
        let (v, of) = compiled.instrs_vectorized();
        vectorized += v;
        vectorizable += of;

        // kernel: swap the same inputs back in, read the output back.
        acc.us(
            "kernel.rebind_us",
            timed_median(tracer, "kernel.rebind", shadow, op, reps, || {
                rebind_all(&mut compiled, &tensors);
            }),
        );
        acc.us(
            "kernel.readback_us",
            timed_median(tracer, "kernel.readback", shadow, op, reps, || {
                read_output(&compiled, case);
            }),
        );

        // The other tiers, each against the default tier's run time.
        let none_stats = unoptimised.run().expect("unoptimised kernel runs");
        let none =
            run_median(tracer, "vm.run.opt_none", shadow, op, &mut unoptimised, Engine::Bytecode);
        acc.ratio("opt.speedup", none / run);
        acc.ratio(
            "opt.work_ratio",
            stats.total_work() as f64 / none_stats.total_work().max(1) as f64,
        );
        let mut untyped = compiled.reoptimized_typed(OptLevel::Default, false);
        let t = run_median(tracer, "vm.run.untyped", shadow, op, &mut untyped, Engine::Bytecode);
        acc.ratio("vm.typed_speedup", t / run);
        let mut scalar = compiled.reoptimized_simd(OptLevel::Default, true, false);
        let t = run_median(tracer, "vm.run.no_simd", shadow, op, &mut scalar, Engine::Bytecode);
        acc.ratio("vm.simd_speedup", t / run);
        let t = run_median(tracer, "interp.run", shadow, op, &mut compiled, Engine::TreeWalk);
        acc.ratio("interp.slowdown", t / run);
        if compiled.sharded() {
            sharded += 1;
            let mut two = compiled.clone().with_threads(2);
            let t = run_median(tracer, "par.run_2t", shadow, op, &mut two, Engine::Bytecode);
            acc.ratio("par.speedup_2t", run / t);
        }
        tracer.end(shadow);
    }

    for (name, values) in acc.mean_us {
        out.insert(name.to_string(), values.iter().sum::<f64>() / values.len().max(1) as f64);
    }
    for (name, total) in acc.sum {
        out.insert(name.to_string(), total);
    }
    for (name, values) in acc.ratio {
        out.insert(name.to_string(), geomean(values));
    }
    out.insert("vm.typed_fraction".into(), typed_executed as f64 / executed.max(1) as f64);
    out.insert("vm.vectorized_fraction".into(), vectorized as f64 / vectorizable.max(1) as f64);
    out.insert("par.sharded_kernels".into(), f64::from(sharded));
    out
}

/// What the single-client shadow pass of a serve workload found.
pub struct ServeLayers {
    pub metrics: Metrics,
    /// The hit-decomposition table for the report.
    pub text: String,
    pub attempted: u64,
    pub failed: u64,
}

/// The service's layers: a fresh service driven by client 0's schedule
/// alone (exact hit / miss / eviction counts, hit and miss latency, the
/// single-client rate), then the hit path's unexplained remainder — hit
/// latency minus the same request's rebind + run + read-back replayed on a
/// shadow `CompiledKernel` — at the smallest and the largest size.
pub fn serve_layers(
    set: &ServeSet,
    ops_per_s_2c: f64,
    tracer: &mut Tracer,
    quick: bool,
) -> ServeLayers {
    let mut m = Metrics::new();
    let service = set.fresh_service();
    let warm_speed = host::speed_now();
    let warm_misses: Vec<u64> = set
        .warm(&service)
        .into_iter()
        .filter(|(hit, _)| !hit)
        .map(|(_, ns)| (ns as f64 * warm_speed) as u64)
        .collect();
    let before = service.stats();

    let nstruct = set.structures.len();
    let mut hit_ns: Vec<Vec<u64>> = vec![Vec::new(); nstruct];
    let (mut all_hits, mut misses, mut waits) = (Vec::new(), Vec::new(), Vec::new());
    // Enough classes for either class scheme (per structure, or hit / miss).
    let mut samples = RoundSamples::new(nstruct.max(2));
    let (busy_ns, _) =
        set.client_round(&service, 0, &mut samples, Some(&mut *tracer), |r, ns, resp| {
            waits.push(resp.queue_wait.as_nanos() as u64);
            if resp.cache_hit {
                all_hits.push(ns);
                hit_ns[usize::from(set.structure_of[r as usize])].push(ns);
            } else {
                misses.push(ns);
            }
        });
    let after = service.stats();
    let attempted = set.schedules[0].len() as u64;

    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    m.insert("service.hit_us".into(), median_ns(&mut all_hits) / 1e3);
    let mut miss_sample = if misses.is_empty() { warm_misses } else { misses };
    m.insert("service.miss_us".into(), median_ns(&mut miss_sample) / 1e3);
    m.insert("service.hit_rate".into(), (after.hits - before.hits) as f64 / lookups.max(1) as f64);
    m.insert("service.compiles".into(), (after.compiles - before.compiles) as f64);
    m.insert("service.evictions".into(), (after.evictions - before.evictions) as f64);
    let degraded = |s: &finch::ServiceStats| s.served_by_tier[1..].iter().sum::<u64>();
    m.insert("service.degraded".into(), (degraded(&after) - degraded(&before)) as f64);
    m.insert("queue.queued".into(), (after.queued - before.queued) as f64);
    m.insert("queue.shed".into(), (after.shed - before.shed) as f64);
    waits.sort_unstable();
    let p99 = waits.get((waits.len() * 99).div_ceil(100).saturating_sub(1)).copied().unwrap_or(0);
    m.insert("queue.wait_p99_us".into(), p99 as f64 / 1e3);
    let rate_1c = (attempted - samples.failed) as f64 / (busy_ns.max(1) as f64 / 1e9);
    m.insert("service.ops_per_s_1c".into(), rate_1c);
    m.insert("service.scaling_2c".into(), ops_per_s_2c / rate_1c);

    // The unexplained remainder of a hit, smallest and largest size.
    let reps = reps(quick);
    let (small, large) = (
        set.sizes.iter().copied().min().unwrap_or(0),
        set.sizes.iter().copied().max().unwrap_or(0),
    );
    let mut text = format!(
        "where a hit goes, single client (us):\n  {:<24} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}\n",
        "structure", "hit", "rebind", "run", "readback", "2xdisplay", "rest"
    );
    for (metric, n) in [("service.overhead_us.small", small), ("service.overhead_us.large", large)]
    {
        let mut overheads = Vec::new();
        for (s, hits) in hit_ns.iter_mut().enumerate() {
            if set.sizes[s] != n || hits.is_empty() {
                continue;
            }
            let case = &set.structures[s];
            let op = (1 << 48) | s as u64;
            let speed = host::speed_now();
            let shadow = tracer.begin("shadow", ROOT, op);
            let instances: Vec<&Vec<Tensor>> = set
                .request_tensors
                .iter()
                .zip(&set.structure_of)
                .filter(|(_, owner)| usize::from(**owner) == s)
                .map(|(tensors, _)| tensors)
                .collect();
            let program = case.template.program();
            let mut kernel =
                case.bind(instances[0]).compile(&program).expect("benchmark program compiles");
            kernel.run().expect("benchmark kernel runs");
            let (mut rebind, mut run, mut read) = (Vec::new(), Vec::new(), Vec::new());
            for rep in 0..reps * instances.len() {
                let tensors = instances[rep % instances.len()];
                rebind.push(
                    tracer.time("kernel.rebind", shadow, op, || rebind_all(&mut kernel, tensors)).1,
                );
                let (ran, ns) = tracer.time("vm.run", shadow, op, || kernel.run());
                ran.expect("benchmark kernel runs");
                run.push(ns);
                read.push(
                    tracer.time("kernel.readback", shadow, op, || read_output(&kernel, case)).1,
                );
            }
            // The service renders the program once for the key, once to
            // verify the hit; that is part of its overhead, shown beside it.
            let display = 2.0
                * timed_median(tracer, "cin.display", shadow, op, reps, || {
                    black_box(program.to_string());
                });
            tracer.end(shadow);
            let us = |ns: f64| ns * speed / 1e3;
            let parts = [median_ns(&mut rebind), median_ns(&mut run), median_ns(&mut read)].map(us);
            let hit = median_ns(hits) / 1e3;
            let overhead = (hit - parts.iter().sum::<f64>()).max(0.0);
            text += &format!(
                "  {:<24} {hit:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>10.3} {:>9.3}\n",
                case.name,
                parts[0],
                parts[1],
                parts[2],
                us(display),
                (overhead - us(display)).max(0.0)
            );
            overheads.push(overhead);
        }
        m.insert(metric.into(), overheads.iter().sum::<f64>() / overheads.len().max(1) as f64);
    }
    ServeLayers { metrics: m, text, attempted, failed: samples.failed }
}
