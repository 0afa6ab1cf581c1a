//! The five workloads: what set-up builds, what one operation is, and how a
//! round of the fixed schedule is executed and checked.
//!
//! Everything runs in the configuration users get by default
//! (`Engine::Bytecode`, `OptLevel::Default`, typed, simd, `threads = 1`,
//! `ValidationLevel::Off` in release builds, default `ServiceConfig` except
//! `serve_churn`'s `capacity`).

use std::sync::Barrier;
use std::time::Instant;

use finch::{
    CinStmt, CompiledKernel, Engine, KernelService, Request, Response, ServiceConfig, Tensor,
};

use crate::cases::{self, Case};
use crate::host::Pace;
use crate::measure::RoundSamples;
use crate::reference::Expected;
use crate::rng::Rng;
use crate::trace::{Tracer, ROOT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RunMerge,
    RunDense,
    CompileCold,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RunMerge,
        Workload::RunDense,
        Workload::CompileCold,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunMerge => "run_merge",
            Workload::RunDense => "run_dense",
            Workload::CompileCold => "compile_cold",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Operations per class per round.  Committed constants, sized so that a
// round takes about a second at the commit that added the benchmark and
// each class gets a similar share of it; never adapted at run time, so the
// schedule (and every exact count) repeats.
const RUN_MERGE_OPS: [usize; 6] = [190, 80, 190, 40, 40, 48];
const RUN_DENSE_OPS: [usize; 8] = [33, 300, 620, 140, 380, 78, 230, 420];
const COMPILE_OPS_PER_CLASS: usize = 125;
const SERVE_WARM_OPS_PER_CLIENT: usize = 25_000;
const SERVE_CHURN_OPS_PER_CLIENT: usize = 5_500;

/// Closed-loop client threads of the serve workloads (the host has 2 cores;
/// the driver thread only waits for them).
pub const CLIENTS: usize = 2;

const SERVE_WARM_SIZES: [usize; 4] = [64, 256, 1024, 4096];
const SERVE_WARM_INSTANCES: usize = 4;
const SERVE_CHURN_SIZES: usize = 24;
const SERVE_CHURN_INSTANCES: usize = 2;
const SERVE_CHURN_CAPACITY: usize = 16;
const ZIPF_EXPONENT: f64 = 1.1;

/// What a kernel hands back for checking.
pub enum Readback {
    Scalar(f64),
    Tensor(Tensor),
}

/// Read the case's checked output back the way the service does:
/// `output_scalar` for a scalar, `output_tensor` for anything else.
pub fn readback(kernel: &CompiledKernel, case: &Case) -> Option<Readback> {
    match &case.expected {
        Expected::Scalar(_) => kernel.output_scalar(case.read).ok().map(Readback::Scalar),
        _ => kernel.output_tensor(case.read).ok().map(Readback::Tensor),
    }
}

fn matches(expected: &Expected, got: &Option<Readback>) -> bool {
    match got {
        Some(Readback::Scalar(v)) => expected.matches_scalar(*v),
        Some(Readback::Tensor(t)) => expected.matches_tensor(t),
        None => false,
    }
}

fn matches_response(expected: &Expected, resp: &Response) -> bool {
    match expected {
        Expected::Scalar(_) => resp.scalar.is_some_and(|s| expected.matches_scalar(s)),
        _ => resp.tensor.as_ref().is_some_and(|t| expected.matches_tensor(t)),
    }
}

/// Call `f`, under a span when tracing.
fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, op, f).0,
        None => f(),
    }
}

/// Read the checked output back and compare it with the reference.
fn read_and_check(
    kernel: &CompiledKernel,
    case: &Case,
    tracer: &mut Option<&mut Tracer>,
    parent: u32,
    op: u64,
) -> bool {
    let got = spanned(tracer, "kernel.readback", parent, op, || readback(kernel, case));
    spanned(tracer, "check", parent, op, || matches(&case.expected, &got))
}

/// The output bits of the last run, for the engine-parity check.
fn output_bits(kernel: &CompiledKernel, case: &Case) -> Option<Vec<u64>> {
    Some(match readback(kernel, case)? {
        Readback::Scalar(v) => vec![v.to_bits()],
        Readback::Tensor(t) => t.values().iter().map(|x| x.to_bits()).collect(),
    })
}

/// A fixed schedule: class `c` appears `counts[c]` times, in seeded order.
fn shuffled_schedule(counts: &[usize], seed: u64) -> Vec<u16> {
    let mut schedule: Vec<u16> =
        counts.iter().enumerate().flat_map(|(c, &n)| std::iter::repeat_n(c as u16, n)).collect();
    Rng::stream(seed, 100).shuffle(&mut schedule);
    schedule
}

/// `run_merge` / `run_dense`: kernels compiled in set-up, operation = `run()`.
pub struct KernelSet {
    pub cases: Vec<Case>,
    kernels: Vec<CompiledKernel>,
    pub schedule: Vec<u16>,
}

/// `compile_cold`: operation = `Kernel::new()` + binds + `compile`.
pub struct CompileSet {
    pub cases: Vec<Case>,
    programs: Vec<CinStmt>,
    tensors: Vec<Vec<Tensor>>,
    pub schedule: Vec<u16>,
}

/// `serve_warm` / `serve_churn`: operation = `KernelService::submit`.
pub struct ServeSet {
    pub config: ServiceConfig,
    /// One case per structure (its instance 0), in class order for
    /// `serve_warm`.
    pub structures: Vec<Case>,
    /// Size parameter `n` of each structure.
    pub sizes: Vec<usize>,
    requests: Vec<Request>,
    expected: Vec<Expected>,
    /// The tensors of each request, for the shadow replay.
    pub request_tensors: Vec<Vec<Tensor>>,
    pub structure_of: Vec<u16>,
    service: KernelService,
    /// One fixed schedule of request indices per client.
    pub schedules: Vec<Vec<u32>>,
    /// Classes are `hit` / `miss` (serve_churn) instead of the structures.
    by_outcome: bool,
    client_samples: Vec<RoundSamples>,
}

pub enum Prepared {
    Kernels(KernelSet),
    Compile(CompileSet),
    Serve(Box<ServeSet>),
}

/// Checks made during set-up (engine parity), counted like operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupChecks {
    pub attempted: u64,
    pub failed: u64,
}

/// Build everything the timed rounds need: data, tensors, references,
/// pre-compiled kernels or a warmed service, and the schedule.
pub fn setup(workload: Workload, seed: u64, corrupt: bool) -> (Prepared, SetupChecks) {
    let spoil = |cases: &mut [Case]| {
        if corrupt {
            cases.iter_mut().for_each(|c| c.expected.corrupt());
        }
    };
    match workload {
        Workload::RunMerge | Workload::RunDense => {
            let (mut cases, counts): (_, &[usize]) = if workload == Workload::RunMerge {
                (cases::merge_cases(seed, &cases::RUN_SIZES), &RUN_MERGE_OPS)
            } else {
                (cases::dense_cases(seed, &cases::RUN_SIZES), &RUN_DENSE_OPS)
            };
            spoil(&mut cases);
            let mut checks = SetupChecks::default();
            let kernels = cases
                .iter()
                .map(|case| {
                    let mut kernel = case
                        .bind(&case.tensors())
                        .compile(&case.template.program())
                        .expect("benchmark program compiles");
                    // Bit-identical against the tree-walking oracle, once.
                    let oracle = kernel.run_with(Engine::TreeWalk).ok();
                    let oracle_bits = output_bits(&kernel, case);
                    let vm = kernel.run().ok();
                    checks.attempted += 1;
                    if oracle.is_none() || oracle != vm || oracle_bits != output_bits(&kernel, case)
                    {
                        checks.failed += 1;
                    }
                    kernel
                })
                .collect();
            let schedule = shuffled_schedule(counts, seed);
            (Prepared::Kernels(KernelSet { cases, kernels, schedule }), checks)
        }
        Workload::CompileCold => {
            let mut cases = cases::compile_cases(seed);
            spoil(&mut cases);
            let programs: Vec<CinStmt> = cases.iter().map(|c| c.template.program()).collect();
            let tensors: Vec<Vec<Tensor>> = cases.iter().map(Case::tensors).collect();
            // One untimed compile of each program, so the first timed round
            // does not pay for first-touch allocation.
            for ((case, program), tensors) in cases.iter().zip(&programs).zip(&tensors) {
                case.bind(tensors).compile(program).expect("benchmark program compiles");
            }
            let schedule = shuffled_schedule(&vec![COMPILE_OPS_PER_CLASS; cases.len()], seed);
            (
                Prepared::Compile(CompileSet { cases, programs, tensors, schedule }),
                SetupChecks::default(),
            )
        }
        Workload::ServeWarm | Workload::ServeChurn => {
            let set = ServeSet::build(workload == Workload::ServeChurn, seed, corrupt);
            set.warm(&set.service);
            (Prepared::Serve(Box::new(set)), SetupChecks::default())
        }
    }
}

impl ServeSet {
    fn build(churn: bool, seed: u64, corrupt: bool) -> ServeSet {
        // Structures as (template, n), in popularity order for serve_churn:
        // templates cycle through the ranks, so every template has the same
        // share of the traffic whatever the seed, and the seed decides which
        // *size* sits at which rank.
        let (keys, instances): (Vec<(usize, usize)>, usize) = if churn {
            let sizes: Vec<Vec<usize>> = (0..4)
                .map(|t| {
                    let mut sizes: Vec<usize> =
                        (0..SERVE_CHURN_SIZES).map(|k| 32 + 8 * k).collect();
                    Rng::stream(seed, 200 + t).shuffle(&mut sizes);
                    sizes
                })
                .collect();
            let ranks = 0..4 * SERVE_CHURN_SIZES;
            (ranks.map(|r| (r % 4, sizes[r % 4][r / 4])).collect(), SERVE_CHURN_INSTANCES)
        } else {
            let keys = (0..4).flat_map(|t| SERVE_WARM_SIZES.map(|n| (t, n))).collect();
            (keys, SERVE_WARM_INSTANCES)
        };

        let (mut structures, mut sizes) = (Vec::new(), Vec::new());
        let (mut requests, mut expected) = (Vec::new(), Vec::new());
        let (mut request_tensors, mut structure_of) = (Vec::new(), Vec::new());
        for (s, &(t, n)) in keys.iter().enumerate() {
            for instance in 0..instances {
                let mut case = cases::serve_case(seed, t, n, instance);
                if corrupt {
                    case.expected.corrupt();
                }
                let tensors = case.tensors();
                requests.push(case.request(case.template.program(), &tensors));
                expected.push(case.expected.clone());
                request_tensors.push(tensors);
                structure_of.push(s as u16);
                if instance == 0 {
                    structures.push(case);
                    sizes.push(n);
                }
            }
        }

        // Per-client schedules: structures drawn uniformly (serve_warm) or
        // Zipf over the popularity ranks (serve_churn), instances uniformly.
        let weights: Vec<f64> = (0..keys.len())
            .map(|r| if churn { ((r + 1) as f64).powf(-ZIPF_EXPONENT) } else { 1.0 })
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let ops = if churn { SERVE_CHURN_OPS_PER_CLIENT } else { SERVE_WARM_OPS_PER_CLIENT };
        let schedules = (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::stream(seed, 300 + c as u64);
                (0..ops)
                    .map(|_| {
                        let u = rng.unit();
                        let s = cdf.partition_point(|&p| p <= u).min(keys.len() - 1);
                        (s * instances + rng.below(instances)) as u32
                    })
                    .collect()
            })
            .collect();

        let mut config = ServiceConfig::default();
        if churn {
            config.capacity = SERVE_CHURN_CAPACITY;
        }
        ServeSet {
            service: KernelService::new(config.clone()),
            config,
            structures,
            sizes,
            requests,
            expected,
            request_tensors,
            structure_of,
            schedules,
            by_outcome: churn,
            client_samples: (0..CLIENTS).map(|_| RoundSamples::default()).collect(),
        }
    }

    /// A new, empty service in this workload's configuration.
    pub fn fresh_service(&self) -> KernelService {
        KernelService::new(self.config.clone())
    }

    /// Submit every request once, least popular structure first, so the
    /// cache holds the most popular structures when timing starts.  Returns
    /// whether each submit hit the cache, and its latency in ns.
    pub fn warm(&self, service: &KernelService) -> Vec<(bool, u64)> {
        self.requests
            .iter()
            .rev()
            .map(|request| {
                let t0 = Instant::now();
                let resp = service.submit(request);
                let ns = t0.elapsed().as_nanos() as u64;
                (resp.is_ok_and(|r| r.cache_hit), ns)
            })
            .collect()
    }

    /// One closed-loop client: submit the schedule's requests one after the
    /// other against `service`, checking every response.  `on_response`
    /// sees each successful response with its latency (used by the shadow
    /// pass).  Returns the client's normalised busy time in ns and the mean
    /// host speed (see `host`).
    pub fn client_round(
        &self,
        service: &KernelService,
        client: usize,
        samples: &mut RoundSamples,
        mut tracer: Option<&mut Tracer>,
        mut on_response: impl FnMut(u32, u64, &Response),
    ) -> (u64, f64) {
        let mut pace = Pace::start();
        for (k, &r) in self.schedules[client].iter().enumerate() {
            let op = ((client as u64) << 40) | k as u64;
            let root = tracer.as_mut().map_or(ROOT, |t| t.begin("op", ROOT, op));
            let t0 = Instant::now();
            let resp = spanned(&mut tracer, "service.submit", root, op, || {
                service.submit(&self.requests[r as usize])
            });
            let t1 = Instant::now();
            let ns = pace.normalised(t1.duration_since(t0).as_nanos() as u64);
            pace.tick(t1);
            let structure = usize::from(self.structure_of[r as usize]);
            let (class, ok) = match &resp {
                Ok(resp) => {
                    on_response(r, ns, resp);
                    let class =
                        if self.by_outcome { usize::from(!resp.cache_hit) } else { structure };
                    let expected = &self.expected[r as usize];
                    let ok = spanned(&mut tracer, "check", root, op, || {
                        matches_response(expected, resp)
                    });
                    (class, ok)
                }
                // An error or refusal has no outcome class; book it as a miss.
                Err(_) => (if self.by_outcome { 1 } else { structure }, false),
            };
            if let Some(t) = tracer.as_mut() {
                t.end(root);
            }
            samples.per_class[class].push(ns);
            samples.failed += u64::from(!ok);
        }
        pace.finish()
    }

    fn round(&mut self, samples: &mut RoundSamples, tracer: Option<&mut Tracer>) {
        let classes = samples.per_class.len();
        let mut client_samples = std::mem::take(&mut self.client_samples);
        let mut tracers: Vec<Option<Tracer>> =
            (0..CLIENTS).map(|_| tracer.as_ref().map(|t| t.fork())).collect();
        let barrier = Barrier::new(CLIENTS + 1);
        let this = &*self;
        std::thread::scope(|scope| {
            let handles: Vec<_> = client_samples
                .iter_mut()
                .zip(tracers.iter_mut())
                .enumerate()
                .map(|(c, (mine, tracer))| {
                    mine.per_class.resize(classes, Vec::new());
                    mine.per_class.iter_mut().for_each(Vec::clear);
                    mine.failed = 0;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        this.client_round(&this.service, c, mine, tracer.as_mut(), |_, _, _| {})
                    })
                })
                .collect();
            barrier.wait();
            // The clients start together, so the round lasts as long as the
            // busier of them.
            for h in handles {
                let (busy_ns, speed) = h.join().expect("client thread panicked");
                samples.wall_ns = samples.wall_ns.max(busy_ns);
                samples.host_speed += speed / CLIENTS as f64;
            }
        });
        for mine in &client_samples {
            samples.absorb(mine);
        }
        self.client_samples = client_samples;
        if let Some(t) = tracer {
            tracers.into_iter().flatten().for_each(|forked| t.merge(forked));
        }
    }
}

impl KernelSet {
    fn round(&mut self, samples: &mut RoundSamples, mut tracer: Option<&mut Tracer>) {
        let mut pace = Pace::start();
        for (k, &c) in self.schedule.iter().enumerate() {
            let (c, op) = (usize::from(c), k as u64);
            let (kernel, case) = (&mut self.kernels[c], &self.cases[c]);
            let root = tracer.as_mut().map_or(ROOT, |t| t.begin("op", ROOT, op));
            let t0 = Instant::now();
            let ran = spanned(&mut tracer, "vm.run", root, op, || kernel.run());
            let t1 = Instant::now();
            samples.per_class[c].push(pace.normalised(t1.duration_since(t0).as_nanos() as u64));
            pace.tick(t1);
            let ok = ran.is_ok() && read_and_check(kernel, case, &mut tracer, root, op);
            if let Some(t) = tracer.as_mut() {
                t.end(root);
            }
            samples.failed += u64::from(!ok);
        }
        (samples.wall_ns, samples.host_speed) = pace.finish();
    }
}

impl CompileSet {
    fn round(&mut self, samples: &mut RoundSamples, mut tracer: Option<&mut Tracer>) {
        let mut pace = Pace::start();
        for (k, &c) in self.schedule.iter().enumerate() {
            let (c, op) = (usize::from(c), k as u64);
            let (case, program, tensors) = (&self.cases[c], &self.programs[c], &self.tensors[c]);
            let root = tracer.as_mut().map_or(ROOT, |t| t.begin("op", ROOT, op));
            let t0 = Instant::now();
            let kernel = spanned(&mut tracer, "kernel.bind", root, op, || case.bind(tensors));
            let compiled =
                spanned(&mut tracer, "kernel.compile", root, op, || kernel.compile(program));
            let t1 = Instant::now();
            samples.per_class[c].push(pace.normalised(t1.duration_since(t0).as_nanos() as u64));
            pace.tick(t1);
            // The output of a compile is a kernel: run it once and check
            // what it computes (outside the operation's latency).
            let ok = compiled.is_ok_and(|mut kernel| {
                spanned(&mut tracer, "vm.run", root, op, || kernel.run()).is_ok()
                    && read_and_check(&kernel, case, &mut tracer, root, op)
            });
            if let Some(t) = tracer.as_mut() {
                t.end(root);
            }
            samples.failed += u64::from(!ok);
        }
        (samples.wall_ns, samples.host_speed) = pace.finish();
    }
}

impl Prepared {
    /// Class names, in `RoundSamples::per_class` order.
    pub fn classes(&self) -> Vec<String> {
        match self {
            Prepared::Kernels(s) => s.cases.iter().map(|c| c.name.clone()).collect(),
            Prepared::Compile(s) => s.cases.iter().map(|c| c.name.clone()).collect(),
            Prepared::Serve(s) if s.by_outcome => vec!["hit".into(), "miss".into()],
            Prepared::Serve(s) => s.structures.iter().map(|c| c.name.clone()).collect(),
        }
    }

    /// The cases the per-layer decomposition runs over.
    pub fn cases(&self) -> &[Case] {
        match self {
            Prepared::Kernels(s) => &s.cases,
            Prepared::Compile(s) => &s.cases,
            Prepared::Serve(s) => &s.structures,
        }
    }

    /// Execute one round of the fixed schedule.
    pub fn round(&mut self, samples: &mut RoundSamples, tracer: Option<&mut Tracer>) {
        match self {
            Prepared::Kernels(s) => s.round(samples, tracer),
            Prepared::Compile(s) => s.round(samples, tracer),
            Prepared::Serve(s) => s.round(samples, tracer),
        }
    }
}
