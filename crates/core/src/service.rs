//! A resilient, long-lived kernel service.
//!
//! [`KernelService`] owns a bounded LRU cache of [`CompiledKernel`]s keyed by
//! kernel *structure* — the CIN program text, every input's level formats and
//! sizes (not its data) and the requested output formats — all compiled under
//! the one [`ExecConfig`] the service runs.  Requests whose structure matches
//! a cached entry skip compilation entirely: the entry's input buffers are
//! overwritten in place ([`CompiledKernel::rebind_input`]) and the persistent
//! VM re-runs without allocating.
//!
//! # The warm hit path
//!
//! A kernel is compiled once to be run many times, so the path that counts
//! is the healthy cache hit.  Its contract: **no program rendering, no
//! syscall, no allocation of its own, and no waiting for another hit** —
//! `submit` costs what rebinding, running and reading back the kernel cost,
//! plus two short critical sections.  Three things keep it:
//!
//! * **Prepared requests.**  The first submit of a [`Request`] renders its
//!   program to text once and hashes text, input signatures and output
//!   specs once; both are kept with the request (clones share them, and
//!   every builder method that changes the inputs or outputs forgets
//!   them).  Every later submit reads the saved key, and the cached
//!   entry is verified against the saved text — by pointer for the request
//!   that compiled it and its clones, by bytes otherwise — and against the
//!   live tensors' formats, sizes and fills.  Build a request once and
//!   submit it many times; a request rebuilt per submit pays the rendering
//!   again.
//! * **A quiet lock path.**  Every thread that sleeps on the cache's or the
//!   admission queue's condvar counts itself first, and a state change
//!   signals only when the count is nonzero (an unconditional `notify_all`
//!   is a `futex_wake` syscall).  The fault plan's lock is skipped while no rule
//!   is installed, and a run's [`Watch`] is built once and moved into the
//!   engine.
//! * **Readers read, writers change the entry.**  A [`CompiledKernel`] is
//!   an immutable, shared image plus a cheap run state (VM and buffers).
//!   A hit is a *reader*: it borrows one of the entry's run states — the
//!   entry's own, a spare, or a new one made from the image when every
//!   other is lent, so never more than there are requests in flight — and
//!   the entry stays in the table, so any number of hits on one structure
//!   run at once, on either tier (an open breaker's short-circuit runs the
//!   oracle on its borrowed state).  Whatever changes the entry is a
//!   *writer* and takes it out of the table whole, once every lent run
//!   state is back: compilation, quarantine and recompile, and fault
//!   recovery with its oracle fallback.  A hit whose run faults, or that
//!   finds the entry poisoned, gives its state back and becomes a writer;
//!   hits arriving while a writer waits queue behind it.
//!   [`ServiceStats::slot_waits`] counts the requests that slept for any of
//!   this — zero on a fault-free trace of cached structures.
//!
//! The service is hardened along four axes:
//!
//! 1. **Deadlines** — each request may carry a wall-clock deadline, enforced
//!    cooperatively by a [`Watch`] on the VM's step-budget path and while
//!    queueing on a busy cache slot.  Expiry surfaces as the typed
//!    [`RuntimeError::Deadline`], never as a stuck worker.
//! 2. **Panic isolation** — every compile and run is wrapped in
//!    `catch_unwind`.  A panicking entry is quarantined (poisoned), recompiled
//!    once after a short backoff, and evicted if the retry also faults.
//! 3. **The oracle fallback** — a kernel that faults on the fast path
//!    and on its quarantine retry is served by the tree-walk oracle
//!    ([`Tier::Oracle`]): the same compiled image, its optimised IR run by
//!    the interpreter, which shares no code with the bytecode back end.
//!    Falling back compiles nothing, and the response is bit-identical to
//!    the fast path's.
//! 4. **Deadline-aware admission** — past the in-flight limit, requests
//!    queue FIFO-fairly up to their remaining deadline instead of shedding
//!    instantly; behind the bounded queue the typed
//!    [`ServiceError::Overloaded`] still applies, and a waiter whose
//!    deadline expires leaves with the distinct
//!    [`ServiceError::QueueTimeout`].  An optional output allocation budget
//!    bounds memory per request.
//! 5. **Per-structure circuit breakers** — a structure that keeps faulting
//!    trips its breaker ([`crate::BreakerState`]): requests short-circuit
//!    straight to the oracle until a half-open probe proves the structure
//!    healthy again.
//! 6. **Graceful drain** — [`KernelService::drain`] rejects new work with
//!    the typed [`ServiceError::ShuttingDown`], completes (or
//!    deadline-cancels, through every run's cooperative watch) the work in
//!    flight, and leaves the service inspectable via
//!    [`KernelService::health`] and resumable via
//!    [`KernelService::resume`].
//! 7. **Boundary validation** — every [`Request::input`] tensor is
//!    structurally validated; corrupt level arrays surface as the typed
//!    [`ServiceError::InvalidInput`] instead of a downstream panic or a
//!    wrong result.
//!
//! A deterministic [`FaultPlan`] injects panics, budget exhaustion, poisoned
//! entries, deadline expiry, and execution stalls at chosen points so tests
//! (and the `serve` bench's `--faults`/`--soak` modes) can prove that
//! *every* injected fault ends in either a bit-identical degraded result or
//! a typed error.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use finch_cin::CinStmt;
use finch_formats::{Level, LevelOf, LevelSpec, Tensor};
use finch_ir::opt::ValidationLevel;
use finch_ir::{Engine, ExecConfig, ExecStats, RuntimeError, Watch};

use crate::breaker::{BreakerBoard, BreakerDecision};
use crate::error::{CompileError, ServiceError};
use crate::kernel::{CompiledKernel, Kernel};
use crate::queue::{AdmissionQueue, AdmitError, Permit, QuietCondvar, ServiceState, Sleepers};

/// Configuration for a [`KernelService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of cached compiled kernels (LRU-evicted beyond this).
    pub capacity: usize,
    /// Maximum number of requests admitted concurrently; excess requests
    /// queue (up to [`ServiceConfig::queue_depth`]) until a slot frees or
    /// their deadline expires.
    pub max_in_flight: usize,
    /// Maximum number of requests waiting for admission; arrivals behind a
    /// full queue are shed with [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Consecutive tier-faults on one structure before its circuit breaker
    /// opens.  `0` disables the breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker short-circuits before admitting a half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Per-request wall-clock deadline.  `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Per-request VM step budget.  `None` disables the budget.
    pub step_budget: Option<u64>,
    /// Per-request output allocation budget in elements.  `None` disables it.
    pub alloc_budget: Option<u64>,
    /// Pass-manager validation level used when compiling (every kernel is
    /// compiled at [`finch_ir::OptLevel::Default`]).
    pub validation: ValidationLevel,
    /// Backoff slept before recompiling a quarantined entry.
    pub retry_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            capacity: 64,
            max_in_flight: 32,
            queue_depth: 32,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(25),
            deadline: None,
            step_budget: None,
            alloc_budget: None,
            validation: ValidationLevel::Off,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// What a [`Request`] wants read back out of the kernel after it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadBack {
    /// Only execution statistics; no output value is materialised.
    Stats,
    /// The named scalar output (read without allocating).
    Scalar(String),
    /// The named tensor output, assembled into a [`Tensor`].
    Tensor(String),
}

/// One unit of work for a [`KernelService`]: a CIN program plus bound inputs
/// and requested outputs.
///
/// Structurally identical requests — same program text, same input formats
/// and sizes (data may differ), same output formats — share one cached
/// compiled kernel of the service they are submitted to.
#[derive(Debug, Clone)]
pub struct Request {
    program: CinStmt,
    inputs: Vec<Tensor>,
    outputs: Vec<(String, Vec<LevelSpec>)>,
    read: ReadBack,
    /// First boundary-validation failure among the inputs, recorded at bind
    /// time and surfaced by `submit` as [`ServiceError::InvalidInput`].
    invalid: Option<(String, String)>,
    /// The prepared form (see the module docs), computed by the first
    /// submit.  Clones share it; every builder method that changes the
    /// inputs or the outputs forgets it.
    prepared: Arc<OnceLock<Prepared>>,
}

/// What a submit needs of a request's *structure*, computed once per
/// [`Request`] instead of once (or twice) per submit.
#[derive(Debug)]
struct Prepared {
    /// The CIN program rendered to text: the canonical form a cache entry
    /// is verified against on every hit.
    program: Arc<str>,
    /// The cache key: a hash of the program text, every input's signature
    /// and every output's specs.  A service runs one configuration, so the
    /// key says nothing about it: each service has a table of its own.
    key: (u64, u64),
}

impl Prepared {
    fn of(req: &Request) -> Self {
        let program: Arc<str> = req.program.to_string().into();
        let mut h = KeyHasher::new();
        h.bytes(program.as_bytes());
        h.byte(0xfe);
        for t in &req.inputs {
            h.bytes(t.name().as_bytes());
            h.byte(0);
            for level in t.levels() {
                h.bytes(level.format_name().as_bytes());
                h.word(level.size() as u64);
            }
            h.word(t.fill().to_bits());
            h.byte(1);
        }
        for (name, specs) in &req.outputs {
            h.bytes(name.as_bytes());
            h.byte(0);
            for spec in specs {
                h.bytes(spec.format_name().as_bytes());
                h.word(spec.size() as u64);
            }
            h.byte(2);
        }
        Prepared { program, key: h.finish() }
    }
}

impl Request {
    /// A request executing `program`, with no inputs or outputs bound yet.
    pub fn new(program: CinStmt) -> Self {
        Request {
            program,
            inputs: Vec::new(),
            outputs: Vec::new(),
            read: ReadBack::Stats,
            invalid: None,
            prepared: Arc::default(),
        }
    }

    /// The prepared form, computed on first use.
    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| Prepared::of(self))
    }

    /// The cache key of this request's structure.
    fn key(&self) -> (u64, u64) {
        self.prepared().key
    }

    /// The inputs or outputs are about to change: forget the prepared form.
    /// A request that shares it with a clone gets a cell of its own, so the
    /// clone keeps what is still true of *it*.
    fn structure_changes(&mut self) {
        match Arc::get_mut(&mut self.prepared) {
            Some(cell) => {
                cell.take();
            }
            None => self.prepared = Arc::default(),
        }
    }

    /// Bind an input tensor (cloned into the request).
    ///
    /// The tensor is structurally validated ([`Tensor::validate`]): inputs
    /// cross the service's trust boundary here, and a corrupt level array
    /// must surface as the typed [`ServiceError::InvalidInput`] at submit
    /// time, never as a downstream panic or a silently wrong result.
    pub fn input(mut self, tensor: &Tensor) -> Self {
        self.structure_changes();
        if self.invalid.is_none() {
            if let Err(e) = tensor.validate() {
                self.invalid = Some((tensor.name().to_string(), e.to_string()));
            }
        }
        self.inputs.push(tensor.clone());
        self
    }

    /// Bind a scalar output and read it back after the run.
    pub fn output_scalar(mut self, name: &str) -> Self {
        self.structure_changes();
        self.outputs.push((name.to_string(), Vec::new()));
        self.read = ReadBack::Scalar(name.to_string());
        self
    }

    /// Bind a tensor output with the given per-level storage formats and read
    /// it back after the run.
    pub fn output(mut self, name: &str, specs: &[LevelSpec]) -> Self {
        self.structure_changes();
        self.outputs.push((name.to_string(), specs.to_vec()));
        self.read = ReadBack::Tensor(name.to_string());
        self
    }

    /// Read back only execution statistics (no output value), regardless of
    /// which outputs are bound.
    pub fn read_stats(mut self) -> Self {
        self.read = ReadBack::Stats;
        self
    }
}

/// The execution tier a response was served from.  A request falls back
/// from the fast tier to the oracle when the fast tier and its quarantine
/// retry both fault; both run the entry's one compiled image, so their
/// outputs and [`ExecStats`] are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The service's own configuration: typed, vectorized bytecode.
    Fast,
    /// The tree-walking reference interpreter over the same image's
    /// optimised IR.
    Oracle,
}

impl Tier {
    /// Both tiers, fast first — the order a faulting request falls back in.
    pub const ALL: [Tier; 2] = [Tier::Fast, Tier::Oracle];

    /// The tier's position in [`Tier::ALL`] (0 = fast).
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short stable label (`fast` / `oracle`).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Oracle => "oracle",
        }
    }
}

/// A successful service response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Execution statistics of the run that produced the result.
    pub stats: ExecStats,
    /// The tier that served the request ([`Tier::Fast`] unless the request
    /// was degraded by faults).
    pub tier: Tier,
    /// Whether the request was served from a cached compiled kernel.
    pub cache_hit: bool,
    /// The scalar output, when the request asked for [`ReadBack::Scalar`].
    pub scalar: Option<f64>,
    /// The tensor output, when the request asked for [`ReadBack::Tensor`].
    pub tensor: Option<Tensor>,
    /// How long the request waited in the admission queue before an
    /// execution slot freed ([`Duration::ZERO`] on fast-path admission).
    pub queue_wait: Duration,
}

/// Where a [`FaultRule`] strikes in the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectPoint {
    /// At cache lookup, before the entry runs (pairs with
    /// [`FaultKind::PoisonEntry`]).
    Lookup,
    /// After inputs are rebound, immediately before execution.
    PreRun,
    /// Mid-execution, with output buffers mid-append (via
    /// [`Watch::with_fault_at_stmt`]).
    MidRun,
    /// After a successful run, before outputs are read back.
    PostRun,
}

/// What kind of fault a [`FaultRule`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A genuine `panic!`, exercising `catch_unwind` isolation, the
    /// quarantine retry and the oracle fallback.
    Panic,
    /// Step-budget exhaustion: the attempt runs with a budget of 1.
    BudgetExhaustion,
    /// Deadline expiry: the attempt runs with its cancellation flag already
    /// raised.
    DeadlineExpiry,
    /// Mark the cache entry poisoned, exercising quarantine + recompile.
    PoisonEntry,
    /// Deterministically hold the execution slot: the attempt blocks on the
    /// service's stall gate until [`KernelService::release_stalls`], the
    /// request's deadline, or a drain cancellation.  The sleep-free way for
    /// tests to pin `in_flight` while exercising queueing and drain.
    Stall,
}

/// One injected fault: strikes the `request`-th request (by admission order,
/// starting at 0) at the given point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Which request (0-based admission index) the fault strikes.
    pub request: u64,
    /// Where in the lifecycle it strikes.
    pub point: InjectPoint,
    /// What kind of fault it is.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan.  Rules are consumed (removed) as
/// they fire: at most one non-lookup rule per execution attempt, so stacking
/// two panics on one request sends it to the oracle, and three fault it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a rule.
    pub fn push(&mut self, rule: FaultRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Number of rules not yet fired.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules remain.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// A reproducible plan: each of the first `requests` requests is faulted
    /// with probability `permille`/1000, with the point and kind drawn from a
    /// seeded LCG.  The same `(seed, requests, permille)` always produces the
    /// same plan.
    pub fn seeded(seed: u64, requests: u64, permille: u32) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for request in 0..requests {
            let x = next();
            if (x >> 33) % 1000 >= u64::from(permille.min(1000)) {
                continue;
            }
            let point = match (x >> 13) % 4 {
                0 => InjectPoint::Lookup,
                1 => InjectPoint::PreRun,
                2 => InjectPoint::MidRun,
                _ => InjectPoint::PostRun,
            };
            let kind = if point == InjectPoint::Lookup {
                FaultKind::PoisonEntry
            } else {
                match (x >> 23) % 3 {
                    0 => FaultKind::Panic,
                    1 => FaultKind::BudgetExhaustion,
                    _ => FaultKind::DeadlineExpiry,
                }
            };
            plan.push(FaultRule { request, point, kind });
            // Occasionally stack a second panic on the same request so the
            // fast-tier retry also faults and the oracle serves the request
            // (a single rule is always absorbed by the retry).
            if kind == FaultKind::Panic && next() % 4 == 0 {
                plan.push(FaultRule {
                    request,
                    point: InjectPoint::PreRun,
                    kind: FaultKind::Panic,
                });
            }
        }
        plan
    }

    /// Remove and return the first rule for `request`, filtered to lookup
    /// rules (`lookup == true`) or execution rules (`lookup == false`).
    fn take(&mut self, request: u64, lookup: bool) -> Option<FaultRule> {
        let pos = self
            .rules
            .iter()
            .position(|r| r.request == request && (r.point == InjectPoint::Lookup) == lookup)?;
        Some(self.rules.remove(pos))
    }
}

/// A snapshot of the service's counters (see [`KernelService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests submitted (including shed and invalid ones).
    pub requests: u64,
    /// Requests rejected by admission control (in-flight limit and queue
    /// both full).
    pub shed: u64,
    /// Requests that had to wait in the admission queue before admission.
    pub queued: u64,
    /// Requests that blocked on the cache after admission: on a slot a
    /// writer holds (compiling, recompiling, or recovering from a fault),
    /// or — as a writer themselves — on the run states other requests still
    /// hold.  Hits on a healthy entry, short-circuited or not, never do.
    pub slot_waits: u64,
    /// Requests whose deadline expired while waiting in the admission queue.
    pub queue_timeouts: u64,
    /// Times a circuit breaker opened (threshold crossings and failed
    /// half-open probes).
    pub breaker_opens: u64,
    /// Requests short-circuited by an open breaker to the oracle tier.
    pub breaker_short_circuits: u64,
    /// Requests served from a cached compiled kernel.
    pub hits: u64,
    /// Requests that required compilation.
    pub misses: u64,
    /// Kernel compilations performed.
    pub compiles: u64,
    /// Recompilations of quarantined entries.
    pub recompiles: u64,
    /// Times an entry was quarantined (poisoned) pending recompile.
    pub quarantined: u64,
    /// Cache entries evicted (LRU pressure or condemned after faults).
    pub evictions: u64,
    /// Panics caught (compile- or run-time).
    pub panics: u64,
    /// Requests that failed with [`RuntimeError::Deadline`].
    pub deadline_errors: u64,
    /// Requests that failed with [`RuntimeError::StepBudgetExceeded`].
    pub budget_errors: u64,
    /// Requests that failed with [`RuntimeError::AllocBudgetExceeded`].
    pub alloc_errors: u64,
    /// Successful responses per tier, indexed by [`Tier::index`].
    pub served_by_tier: [u64; 2],
    /// Faults observed per tier, indexed by [`Tier::index`].
    pub faults_by_tier: [u64; 2],
}

#[derive(Default)]
struct AtomicStats {
    requests: AtomicU64,
    shed: AtomicU64,
    queued: AtomicU64,
    slot_waits: AtomicU64,
    queue_timeouts: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_short_circuits: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    recompiles: AtomicU64,
    quarantined: AtomicU64,
    evictions: AtomicU64,
    panics: AtomicU64,
    deadline_errors: AtomicU64,
    budget_errors: AtomicU64,
    alloc_errors: AtomicU64,
    served_by_tier: [AtomicU64; 2],
    faults_by_tier: [AtomicU64; 2],
}

impl AtomicStats {
    fn snapshot(&self) -> ServiceStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceStats {
            requests: get(&self.requests),
            shed: get(&self.shed),
            queued: get(&self.queued),
            slot_waits: get(&self.slot_waits),
            queue_timeouts: get(&self.queue_timeouts),
            breaker_opens: get(&self.breaker_opens),
            breaker_short_circuits: get(&self.breaker_short_circuits),
            hits: get(&self.hits),
            misses: get(&self.misses),
            compiles: get(&self.compiles),
            recompiles: get(&self.recompiles),
            quarantined: get(&self.quarantined),
            evictions: get(&self.evictions),
            panics: get(&self.panics),
            deadline_errors: get(&self.deadline_errors),
            budget_errors: get(&self.budget_errors),
            alloc_errors: get(&self.alloc_errors),
            served_by_tier: std::array::from_fn(|i| get(&self.served_by_tier[i])),
            faults_by_tier: std::array::from_fn(|i| get(&self.faults_by_tier[i])),
        }
    }
}

/// Two-lane FNV-style streaming hasher: 128 bits of key material make
/// accidental collisions negligible, and a full structural check on every hit
/// makes even a deliberate collision harmless (it falls back to an uncached
/// compile).
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher { a: 0xcbf2_9ce4_8422_2325, b: 0x9e37_79b9_7f4a_7c15 }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ u64::from(x)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(27);
    }

    fn bytes(&mut self, s: &[u8]) {
        for &x in s {
            self.byte(x);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn finish(&self) -> (u64, u64) {
        (self.a, self.b)
    }
}

/// The structural identity of an input, kept for hit verification: its
/// levels' formats and sizes, with no arrays.
struct InputSig {
    name: String,
    levels: Vec<LevelOf<(), ()>>,
    fill_bits: u64,
}

/// Everything a cache key hashes, stored in full so hits can be verified
/// structurally (a hash collision must not serve the wrong kernel).
struct KeyCheck {
    /// The compiling request's rendered program, shared with its prepared
    /// form: the same request (or a clone of it) verifies by pointer.
    program: Arc<str>,
    inputs: Vec<InputSig>,
    outputs: Vec<(String, Vec<LevelSpec>)>,
}

impl KeyCheck {
    fn of(req: &Request) -> Self {
        KeyCheck {
            program: Arc::clone(&req.prepared().program),
            inputs: req
                .inputs
                .iter()
                .map(|t| InputSig {
                    name: t.name().to_string(),
                    levels: t.levels().iter().map(Level::shape).collect(),
                    fill_bits: t.fill().to_bits(),
                })
                .collect(),
            outputs: req.outputs.clone(),
        }
    }

    /// Whether `req` is structurally the kernel this entry was compiled
    /// for.  Runs under the cache lock on every hit: the program is compared
    /// as saved text (by pointer, then by bytes), never rendered here.
    fn matches(&self, req: &Request) -> bool {
        let program = &req.prepared().program;
        if !(Arc::ptr_eq(&self.program, program) || self.program == *program) {
            return false;
        }
        if self.inputs.len() != req.inputs.len() || self.outputs.len() != req.outputs.len() {
            return false;
        }
        for (sig, t) in self.inputs.iter().zip(&req.inputs) {
            if sig.name != t.name()
                || sig.fill_bits != t.fill().to_bits()
                || sig.levels.len() != t.levels().len()
                || !sig.levels.iter().zip(t.levels()).all(|(s, l)| s.same_shape(l))
            {
                return false;
            }
        }
        self.outputs.iter().zip(&req.outputs).all(|((n, s), (rn, rs))| n == rn && s == rs)
    }
}

/// One cached kernel: the compiled kernel with its run states, quarantine
/// state, and LRU bookkeeping.
///
/// Hits are *readers*, on either tier: each borrows one run state —
/// `base`'s own when it is home, else a spare, else a new one forked from
/// the image — and the entry stays in the table.  Everything that changes
/// the entry (compilation, quarantine and recompile, fault recovery) is a
/// *writer* and takes the whole entry out of the table, which it can only
/// do while no run state is lent.
struct Entry {
    /// The kernel both tiers run.  While its run state is lent this is the
    /// stand-in (same image, no buffers) and `parked` is `None`.  Run states
    /// are boxed: a hit moves one out and back in, by pointer.
    base: Box<CompiledKernel>,
    /// The stand-in that takes `base`'s place while `base` is lent.
    parked: Option<Box<CompiledKernel>>,
    /// Further run states over `base`'s image, made when a hit found none
    /// at home.  At most one per request in flight (every borrower holds an
    /// admission permit, and a state is only made when all are lent), and
    /// dropped with the entry.
    #[allow(clippy::vec_box)] // lent and taken back as the boxes they are
    spares: Vec<Box<CompiledKernel>>,
    /// Run states currently lent to requests.
    lent: usize,
    check: KeyCheck,
    poisoned: bool,
    last_used: u64,
}

impl Entry {
    fn new(base: CompiledKernel, check: KeyCheck) -> Self {
        Entry {
            parked: Some(Box::new(base.stand_in())),
            base: Box::new(base),
            spares: Vec::new(),
            lent: 0,
            check,
            poisoned: false,
            last_used: 0,
        }
    }

    /// Replace the compiled kernel (the writer's recompile).  Run states
    /// over the old image are of no further use.
    fn rebase(&mut self, base: CompiledKernel) {
        debug_assert_eq!(self.lent, 0, "only the writer recompiles");
        self.parked = Some(Box::new(base.stand_in()));
        *self.base = base;
        self.spares.clear();
    }

    /// Lend a run state to a healthy hit.
    fn lend(&mut self) -> Box<CompiledKernel> {
        self.lent += 1;
        match self.parked.take() {
            Some(stand_in) => std::mem::replace(&mut self.base, stand_in),
            None => self.spares.pop().unwrap_or_else(|| Box::new(self.base.fork())),
        }
    }

    /// Take a lent run state back.
    fn take_back(&mut self, state: Box<CompiledKernel>) {
        self.lent -= 1;
        if self.parked.is_none() {
            self.parked = Some(std::mem::replace(&mut self.base, state));
        } else {
            self.spares.push(state);
        }
    }
}

enum SlotState {
    /// The entry is out of the table: still compiling, or checked out
    /// exclusively.  Other requests for the same key wait on the service
    /// condvar.
    Busy,
    /// The entry is in the table; some of its run states may be lent.
    Ready(Box<Entry>),
}

struct CacheInner {
    slots: HashMap<(u64, u64), SlotState>,
    /// How many slots are `Ready`, kept in step with `slots`.
    ready: usize,
    tick: u64,
    /// Keys that a request is waiting to check out exclusively while run
    /// states are still lent.  New hits on such a key wait behind it, or a
    /// steady stream of readers would starve the writer.
    writers: Vec<(u64, u64)>,
    /// Threads asleep on the service condvar.
    sleepers: usize,
}

impl Sleepers for CacheInner {
    fn sleepers(&mut self) -> &mut usize {
        &mut self.sleepers
    }
}

/// How [`KernelService::checkout`] is asked for an entry.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Every request's first checkout: one run state of a healthy resident
    /// entry; the whole entry when it has to be compiled, recompiled or was
    /// not cached.
    Shared,
    /// The whole entry, for a request whose attempt on a lent run state
    /// faulted or found the entry poisoned.  The lookup was counted as a
    /// hit the first time.
    Escalated,
}

/// What [`KernelService::checkout`] hands out.
enum Lease {
    /// One run state; the entry stays in the table.  Goes back through
    /// [`KernelService::release`].
    Shared(Box<CompiledKernel>),
    /// The whole entry.  `cached == false` means it does not own its slot
    /// (a hash collision's one-shot compile) and must not be checked in.
    Exclusive { entry: Box<Entry>, cached: bool },
}

enum AttemptOutcome {
    Ok(Response),
    Typed(RuntimeError),
    Fault(String),
}

/// A long-lived, fault-isolated compiled-kernel cache (see the module docs).
///
/// The service is `Sync`: submit requests from many threads through a shared
/// reference.  Hits run concurrently, on one kernel as on several; only
/// compilation, quarantine and fault recovery take a cache slot whole.
pub struct KernelService {
    cfg: ServiceConfig,
    /// The one configuration this service compiles kernels under; the
    /// oracle tier runs the same images on the tree-walker.
    fast: ExecConfig,
    inner: Mutex<CacheInner>,
    cond: QuietCondvar,
    queue: AdmissionQueue,
    breakers: BreakerBoard,
    /// Raised by an overrun [`KernelService::drain`]; threaded into every
    /// run's cooperative watch so in-flight work aborts with a typed error.
    drain_cancel: Arc<AtomicBool>,
    /// The gate [`FaultKind::Stall`] attempts block on.
    stall: Mutex<StallGate>,
    stall_cond: Condvar,
    next_request: AtomicU64,
    faults: Mutex<FaultPlan>,
    /// `faults.len()`, kept in step under the `faults` lock, so a request
    /// skips that lock altogether when no rule is installed.
    faults_pending: AtomicUsize,
    stats: AtomicStats,
}

#[derive(Default)]
struct StallGate {
    released: bool,
    stalled: usize,
}

/// The outcome of a [`KernelService::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// How long the drain took from call to completion.
    pub waited: Duration,
    /// Whether the drain deadline passed and in-flight work was cancelled
    /// through its cooperative watch.
    pub cancelled: bool,
    /// The service state after the drain (always [`ServiceState::Stopped`]).
    pub state: ServiceState,
}

/// A point-in-time health snapshot (see [`KernelService::health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// The lifecycle state.
    pub state: ServiceState,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Requests admitted and executing.
    pub in_flight: usize,
    /// Ready (cached, not exclusively checked-out) kernels.
    pub cached: usize,
    /// Requests that blocked on the cache after admission so far (see
    /// [`ServiceStats::slot_waits`]).
    pub slot_waits: u64,
    /// Circuit breakers in the closed state.
    pub breakers_closed: usize,
    /// Circuit breakers in the open state.
    pub breakers_open: usize,
    /// Circuit breakers half-open (a probe in flight).
    pub breakers_half_open: usize,
}

impl Default for KernelService {
    fn default() -> Self {
        KernelService::new(ServiceConfig::default())
    }
}

impl KernelService {
    /// A service with the given configuration and an empty cache.
    pub fn new(cfg: ServiceConfig) -> Self {
        let queue = AdmissionQueue::new(cfg.max_in_flight, cfg.queue_depth);
        let breakers = BreakerBoard::new(cfg.breaker_threshold, cfg.breaker_cooldown);
        let fast = ExecConfig {
            validation: cfg.validation,
            step_budget: cfg.step_budget,
            alloc_budget: cfg.alloc_budget,
            ..ExecConfig::default()
        };
        KernelService {
            cfg,
            fast,
            inner: Mutex::new(CacheInner {
                slots: HashMap::new(),
                ready: 0,
                tick: 0,
                writers: Vec::new(),
                sleepers: 0,
            }),
            cond: QuietCondvar::new(),
            queue,
            breakers,
            drain_cancel: Arc::new(AtomicBool::new(false)),
            stall: Mutex::new(StallGate::default()),
            stall_cond: Condvar::new(),
            next_request: AtomicU64::new(0),
            faults: Mutex::new(FaultPlan::new()),
            faults_pending: AtomicUsize::new(0),
            stats: AtomicStats::default(),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }

    /// Number of ready (cached, not exclusively checked-out) kernels.
    pub fn cached(&self) -> usize {
        self.lock_inner().ready
    }

    /// Install a fault-injection plan, replacing any previous one.
    pub fn install_faults(&self, plan: FaultPlan) {
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        self.faults_pending.store(plan.len(), Ordering::SeqCst);
        *faults = plan;
    }

    /// Number of installed fault rules that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.faults.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Execute a request: validate its inputs, admit it (queueing up to its
    /// deadline when saturated), consult the structure's circuit breaker,
    /// look up or compile the kernel, rebind the inputs, run (falling back
    /// to the oracle on faults), and read back the requested output.
    pub fn submit(&self, req: &Request) -> Result<Response, ServiceError> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Some((name, detail)) = &req.invalid {
            return Err(ServiceError::InvalidInput { name: name.clone(), detail: detail.clone() });
        }
        let deadline = self.request_deadline();
        let permit = self.admit(deadline)?;
        let rid = self.next_request.fetch_add(1, Ordering::SeqCst);
        let mut result = self.serve_one(req, req.key(), rid, deadline);
        if let Ok(resp) = &mut result {
            resp.queue_wait = permit.waited;
        }
        result
    }

    /// The breaker + cache + run path of `submit`, after the request holds a
    /// permit and a request id.
    fn serve_one(
        &self,
        req: &Request,
        key: (u64, u64),
        rid: u64,
        deadline: Option<(Instant, u64)>,
    ) -> Result<Response, ServiceError> {
        let (start, probe) = self.breaker_gate(key);
        let (result, faults) = match self.checkout(key, req, deadline, Access::Shared) {
            Ok((Lease::Shared(state), _)) => {
                self.serve_shared(state, req, key, rid, deadline, start)
            }
            Ok((Lease::Exclusive { mut entry, cached }, cache_hit)) => {
                let (result, evict, faults) =
                    self.execute(&mut entry, req, deadline, rid, cache_hit, start, None);
                if cached {
                    self.checkin(key, entry, evict);
                }
                (result, faults)
            }
            Err(err) => {
                if probe {
                    self.breakers.abort_probe(key);
                }
                return Err(err);
            }
        };
        if start == Tier::Fast && self.breakers.record(key, faults, probe) {
            self.stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Serve a hit on a lent run state: one attempt at tier `start` (the
    /// oracle when the breaker short-circuits the request), the state goes
    /// back, done.  Only when that attempt faults — or a lookup-point rule
    /// poisons the entry — does the request give the state back, take the
    /// whole entry and recover from where it stands.  Returns the outcome
    /// and the tier-faults observed.
    fn serve_shared(
        &self,
        mut state: Box<CompiledKernel>,
        req: &Request,
        key: (u64, u64),
        rid: u64,
        deadline: Option<(Instant, u64)>,
        start: Tier,
    ) -> (Result<Response, ServiceError>, u32) {
        let poison =
            self.take_fault(rid, true).is_some_and(|rule| rule.kind == FaultKind::PoisonEntry);
        let first_fault = if poison {
            None
        } else {
            let injected = self.take_fault(rid, false);
            match self.attempt(&mut state, start, req, deadline, injected, true) {
                AttemptOutcome::Ok(resp) => {
                    self.stats.served_by_tier[start.index()].fetch_add(1, Ordering::Relaxed);
                    self.release(key, state);
                    return (Ok(resp), 0);
                }
                AttemptOutcome::Typed(err) => {
                    self.count_runtime(&err);
                    self.release(key, state);
                    return (Err(ServiceError::Runtime(err)), 0);
                }
                AttemptOutcome::Fault(detail) => Some(detail),
            }
        };
        self.release(key, state);
        match self.checkout(key, req, deadline, Access::Escalated) {
            Ok((Lease::Exclusive { mut entry, cached }, cache_hit)) => {
                entry.poisoned |= poison;
                let (result, evict, faults) =
                    self.execute(&mut entry, req, deadline, rid, cache_hit, start, first_fault);
                if cached {
                    self.checkin(key, entry, evict);
                }
                (result, faults)
            }
            Ok((Lease::Shared(_), _)) => unreachable!("an exclusive checkout lends no run state"),
            // Out of deadline before the entry came free (or the entry was
            // evicted meanwhile and would not compile again): the fault
            // already seen still counts.
            Err(err) => {
                let faults = u32::from(first_fault.is_some());
                if faults > 0 {
                    self.stats.faults_by_tier[start.index()].fetch_add(1, Ordering::Relaxed);
                    self.stats.panics.fetch_add(1, Ordering::Relaxed);
                }
                (Err(err), faults)
            }
        }
    }

    /// Consult `key`'s circuit breaker.  Returns the tier the request starts
    /// on — the oracle when the breaker short-circuits it, and then its
    /// outcome is not recorded — and whether it is the half-open probe.
    fn breaker_gate(&self, key: (u64, u64)) -> (Tier, bool) {
        match self.breakers.admit(key) {
            BreakerDecision::Allow { probe } => (Tier::Fast, probe),
            BreakerDecision::ShortCircuit => {
                self.stats.breaker_short_circuits.fetch_add(1, Ordering::Relaxed);
                (Tier::Oracle, false)
            }
        }
    }

    fn request_deadline(&self) -> Option<(Instant, u64)> {
        self.cfg.deadline.map(|d| (Instant::now() + d, (d.as_millis() as u64).max(1)))
    }

    /// Acquire an admission permit, mapping queue rejections to their typed
    /// service errors and keeping the queue counters.
    fn admit(&self, deadline: Option<(Instant, u64)>) -> Result<Permit<'_>, ServiceError> {
        match self.queue.acquire(deadline.map(|(dl, _)| dl)) {
            Ok(permit) => {
                if permit.was_queued {
                    self.stats.queued.fetch_add(1, Ordering::Relaxed);
                }
                Ok(permit)
            }
            Err(AdmitError::Overloaded { in_flight, limit, queued }) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded { in_flight, limit, queued })
            }
            Err(AdmitError::QueueTimeout { waited_ms, depth }) => {
                self.stats.queue_timeouts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::QueueTimeout { waited_ms, depth })
            }
            Err(AdmitError::ShuttingDown { state }) => Err(ServiceError::ShuttingDown { state }),
        }
    }

    /// The service's lifecycle state.
    pub fn state(&self) -> ServiceState {
        self.queue.snapshot().0
    }

    /// Gracefully drain the service: stop admitting work (new submissions
    /// fail with [`ServiceError::ShuttingDown`], queued waiters are woken
    /// out the same way) and wait for in-flight requests to resolve.  Once
    /// `deadline` passes, the remaining runs are cancelled through their
    /// cooperative watch — they resolve with a typed deadline error, never
    /// a stuck thread.  The service ends [`ServiceState::Stopped`];
    /// [`KernelService::resume`] re-opens it.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let (waited, cancelled) = self.queue.drain(deadline, &self.drain_cancel);
        DrainReport { waited, cancelled, state: self.state() }
    }

    /// Accept work again after a [`KernelService::drain`].
    pub fn resume(&self) {
        self.drain_cancel.store(false, Ordering::SeqCst);
        self.queue.resume();
    }

    /// A point-in-time health snapshot: lifecycle state, queue depth,
    /// in-flight count, cache size, slot waits and breaker states (the
    /// per-tier counters are [`KernelService::stats`]').
    pub fn health(&self) -> HealthSnapshot {
        let (state, queued, in_flight) = self.queue.snapshot();
        let (breakers_closed, breakers_open, breakers_half_open) = self.breakers.counts();
        HealthSnapshot {
            state,
            queued,
            in_flight,
            cached: self.cached(),
            slot_waits: self.stats.slot_waits.load(Ordering::Relaxed),
            breakers_closed,
            breakers_open,
            breakers_half_open,
        }
    }

    /// Release every attempt blocked on [`FaultKind::Stall`], now and in
    /// the future (the gate stays open for the service's lifetime).
    pub fn release_stalls(&self) {
        let mut gate = self.stall.lock().unwrap_or_else(|e| e.into_inner());
        gate.released = true;
        drop(gate);
        self.stall_cond.notify_all();
    }

    /// Number of attempts currently blocked on [`FaultKind::Stall`].
    pub fn stalled(&self) -> usize {
        self.stall.lock().unwrap_or_else(|e| e.into_inner()).stalled
    }

    /// Block a [`FaultKind::Stall`] attempt until the gate opens, the
    /// request's deadline passes, or a drain cancels it (the latter two
    /// resolve the attempt with the typed deadline error).
    fn stall_until_released(&self, deadline: Option<(Instant, u64)>) -> Option<RuntimeError> {
        let mut gate = self.stall.lock().unwrap_or_else(|e| e.into_inner());
        gate.stalled += 1;
        let outcome = loop {
            if gate.released {
                break None;
            }
            if self.drain_cancel.load(Ordering::SeqCst) {
                break Some(RuntimeError::Deadline { ms: deadline.map_or(0, |(_, ms)| ms) });
            }
            if let Some((dl, ms)) = deadline {
                if Instant::now() >= dl {
                    break Some(RuntimeError::Deadline { ms });
                }
            }
            gate = self
                .stall_cond
                .wait_timeout(gate, Duration::from_millis(5))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        gate.stalled -= 1;
        outcome
    }

    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Obtain what `access` asks for of `key`'s entry, plus whether it is a
    /// cache hit: a run state of a verified, healthy cached entry
    /// ([`Access::Shared`] only); the verified cached entry itself, taken
    /// out of the table once no run state is lent; a freshly compiled entry
    /// (its slot `Busy` while compiling); or — on a verified hash
    /// collision — an uncached one-shot compile.
    ///
    /// A shared checkout of a healthy entry never sleeps on another shared
    /// checkout.  It waits (counted in `slot_waits`, bounded by `deadline`)
    /// only for a slot that is `Busy` or that a writer is waiting for; a
    /// writer — an escalated checkout, or a shared one that finds the entry
    /// poisoned — also for the run states still lent.
    fn checkout(
        &self,
        key: (u64, u64),
        req: &Request,
        deadline: Option<(Instant, u64)>,
        access: Access,
    ) -> Result<(Lease, bool), ServiceError> {
        /// What the slot's state lets this request do next.
        enum Step {
            Compile,
            Collision,
            Take,
            Wait { as_writer: bool },
        }
        let count = |counter: &AtomicU64| {
            // An escalated checkout was counted as a hit the first time.
            if access != Access::Escalated {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut inner = self.lock_inner();
        // Whether this request is on `inner.writers`.
        let mut registered = false;
        let mut waited = false;
        loop {
            if let Some((dl, ms)) = deadline {
                if Instant::now() >= dl {
                    if registered {
                        inner.unregister_writer(key);
                    }
                    // A waiting writer that leaves lets the hits queued
                    // behind it go ahead.
                    self.cond.wake(inner);
                    self.stats.deadline_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::Runtime(RuntimeError::Deadline { ms }));
                }
            }
            let contested = inner.writers.contains(&key);
            let step = match inner.slots.get_mut(&key) {
                None => Step::Compile,
                Some(SlotState::Busy) => Step::Wait { as_writer: false },
                Some(SlotState::Ready(entry)) if !entry.check.matches(req) => Step::Collision,
                Some(SlotState::Ready(entry)) => {
                    // A poisoned entry is recompiled by whoever meets it.
                    if access == Access::Shared && !entry.poisoned {
                        if contested {
                            Step::Wait { as_writer: false }
                        } else {
                            let state = entry.lend();
                            drop(inner);
                            count(&self.stats.hits);
                            return Ok((Lease::Shared(state), true));
                        }
                    } else if entry.lent == 0 {
                        Step::Take
                    } else {
                        Step::Wait { as_writer: true }
                    }
                }
            };
            if registered && !matches!(step, Step::Wait { .. }) {
                inner.unregister_writer(key);
            }
            match step {
                Step::Compile => {
                    inner.slots.insert(key, SlotState::Busy);
                    drop(inner);
                    count(&self.stats.misses);
                    return match self.compile_entry(req) {
                        Ok(entry) => {
                            Ok((Lease::Exclusive { entry: Box::new(entry), cached: true }, false))
                        }
                        Err(err) => {
                            let mut inner = self.lock_inner();
                            inner.slots.remove(&key);
                            self.cond.wake(inner);
                            Err(err)
                        }
                    };
                }
                Step::Collision => {
                    // Hash collision with a structurally different kernel:
                    // serve this request from a one-shot uncached compile.
                    self.cond.wake(inner);
                    count(&self.stats.misses);
                    return self.compile_entry(req).map(|entry| {
                        (Lease::Exclusive { entry: Box::new(entry), cached: false }, false)
                    });
                }
                Step::Take => {
                    let Some(SlotState::Ready(entry)) = inner.slots.insert(key, SlotState::Busy)
                    else {
                        unreachable!("slot was Ready above");
                    };
                    inner.ready -= 1;
                    drop(inner);
                    count(&self.stats.hits);
                    return Ok((Lease::Exclusive { entry, cached: true }, true));
                }
                Step::Wait { as_writer } => {
                    if as_writer && !registered {
                        inner.writers.push(key);
                        registered = true;
                    }
                    if !waited {
                        waited = true;
                        self.stats.slot_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    let timeout =
                        deadline.map(|(dl, _)| dl.saturating_duration_since(Instant::now()));
                    inner = self.cond.sleep(inner, timeout);
                }
            }
        }
    }

    fn compile_entry(&self, req: &Request) -> Result<Entry, ServiceError> {
        self.stats.compiles.fetch_add(1, Ordering::Relaxed);
        let built = catch_unwind(AssertUnwindSafe(|| build_kernel(req, &self.fast)));
        let base = match built {
            Ok(Ok(kernel)) => kernel,
            Ok(Err(err)) => return Err(ServiceError::Compile(err)),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Faulted {
                    attempts: 0,
                    detail: format!("panic during compilation: {}", panic_message(&payload)),
                });
            }
        };
        Ok(Entry::new(base, KeyCheck::of(req)))
    }

    /// Run the entry for `req` starting at tier `start` (the fast tier, or
    /// the oracle when the structure's breaker short-circuits): a fast-tier
    /// fault quarantines and retries once, a second one falls back to the
    /// oracle.  Returns the outcome, whether the entry is condemned (must be
    /// evicted instead of checked back in), and the number of tier-faults
    /// observed (the breaker's input).
    ///
    /// `first_fault` is the fault of the request's attempt at `start` on a
    /// lent run state ([`KernelService::serve_shared`]): recovery resumes
    /// as if its own first attempt had just faulted that way.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        entry: &mut Entry,
        req: &Request,
        deadline: Option<(Instant, u64)>,
        rid: u64,
        cache_hit: bool,
        start: Tier,
        mut first_fault: Option<String>,
    ) -> (Result<Response, ServiceError>, bool, u32) {
        let mut faults = 0u32;
        // Lookup-point faults poison the entry before it serves.
        if let Some(rule) = self.take_fault(rid, true) {
            if rule.kind == FaultKind::PoisonEntry {
                entry.poisoned = true;
            }
        }
        // With a first fault pending, the quarantine below is the loop's.
        if entry.poisoned && first_fault.is_none() {
            self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
            if let Err(err) = self.backoff(rid, deadline) {
                // Out of deadline before the quarantine retry: leave the
                // entry poisoned for the next request to recompile.
                self.count_runtime(&err);
                return (Err(ServiceError::Runtime(err)), false, faults);
            }
            match self.recompile_base(entry) {
                Ok(()) => entry.poisoned = false,
                Err(detail) => {
                    return (Err(ServiceError::Faulted { attempts: 1, detail }), true, 1);
                }
            }
        }

        let mut attempts = 0u32;
        let mut retried = false;
        let mut evict = false;
        let mut tier = start;
        let detail = loop {
            attempts += 1;
            let outcome = match first_fault.take() {
                Some(detail) => AttemptOutcome::Fault(detail),
                None => {
                    let injected = self.take_fault(rid, false);
                    self.attempt(&mut entry.base, tier, req, deadline, injected, cache_hit)
                }
            };
            let detail = match outcome {
                AttemptOutcome::Ok(resp) => {
                    self.stats.served_by_tier[tier.index()].fetch_add(1, Ordering::Relaxed);
                    return (Ok(resp), evict, faults);
                }
                AttemptOutcome::Typed(err) => {
                    self.count_runtime(&err);
                    return (Err(ServiceError::Runtime(err)), evict, faults);
                }
                AttemptOutcome::Fault(detail) => detail,
            };
            self.stats.faults_by_tier[tier.index()].fetch_add(1, Ordering::Relaxed);
            self.stats.panics.fetch_add(1, Ordering::Relaxed);
            faults += 1;
            if tier == Tier::Oracle {
                break detail;
            }
            if !retried {
                // Quarantine: recompile once with backoff, retry the fast
                // tier.
                retried = true;
                entry.poisoned = true;
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                if let Err(err) = self.backoff(rid, deadline) {
                    self.count_runtime(&err);
                    return (Err(ServiceError::Runtime(err)), false, faults);
                }
                match self.recompile_base(entry) {
                    Ok(()) => {
                        entry.poisoned = false;
                        continue;
                    }
                    Err(_) => faults += 1,
                }
            }
            // The retry (or the recompile) faulted too: condemn the entry
            // and serve from the oracle.
            evict = true;
            tier = Tier::Oracle;
        };
        (Err(ServiceError::Faulted { attempts, detail }), true, faults)
    }

    /// The quarantine backoff, capped by the request's remaining deadline
    /// and jittered by a seeded per-request LCG draw so concurrent retries
    /// do not stampede the recompile path in lockstep.
    ///
    /// Sleeps somewhere in `[retry_backoff / 2, retry_backoff]`, never past
    /// the deadline; a request already past its deadline gets the typed
    /// error back immediately instead of sleeping through it.
    fn backoff(&self, rid: u64, deadline: Option<(Instant, u64)>) -> Result<(), RuntimeError> {
        let base = self.cfg.retry_backoff;
        let mut wait = if base.is_zero() {
            Duration::ZERO
        } else {
            // One LCG step over the request id: deterministic per request,
            // decorrelated across requests.  Same constants as the seeded
            // fault plan.
            let draw = (rid ^ 0x9e37_79b9_7f4a_7c15)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let frac = (draw >> 33) as f64 / (1u64 << 31) as f64;
            Duration::from_nanos((base.as_nanos() as f64 * (0.5 + 0.5 * frac)) as u64)
        };
        if let Some((dl, ms)) = deadline {
            let remaining = dl.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RuntimeError::Deadline { ms });
            }
            wait = wait.min(remaining);
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        Ok(())
    }

    fn recompile_base(&self, entry: &mut Entry) -> Result<(), String> {
        self.stats.recompiles.fetch_add(1, Ordering::Relaxed);
        let rebuilt = catch_unwind(AssertUnwindSafe(|| entry.base.recompiled(&self.fast)));
        match rebuilt {
            Ok(Ok(kernel)) => {
                entry.rebase(kernel);
                Ok(())
            }
            Ok(Err(err)) => Err(format!("recompilation failed: {err}")),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                Err(format!("panic during recompilation: {}", panic_message(&payload)))
            }
        }
    }

    /// One execution attempt at one tier on `kernel`, with any injected
    /// fault applied: the fast tier runs the bytecode, the oracle the same
    /// image's IR on the tree-walker.  Rebinding, the run itself and
    /// readback happen inside `catch_unwind`, so a panic anywhere falls
    /// back instead of crashing the service.
    fn attempt(
        &self,
        kernel: &mut CompiledKernel,
        tier: Tier,
        req: &Request,
        deadline: Option<(Instant, u64)>,
        injected: Option<FaultRule>,
        cache_hit: bool,
    ) -> AttemptOutcome {
        let mut step_budget = self.cfg.step_budget;
        let mut fault_stmt = None;
        let mut pre_panic = false;
        let mut post_panic = false;
        let mut cancelled = false;
        if let Some(rule) = injected {
            match rule.kind {
                FaultKind::Panic => match rule.point {
                    InjectPoint::PreRun => pre_panic = true,
                    InjectPoint::PostRun => post_panic = true,
                    _ => fault_stmt = Some(2),
                },
                FaultKind::BudgetExhaustion => {
                    step_budget = Some(step_budget.map_or(1, |b| b.min(1)))
                }
                FaultKind::DeadlineExpiry => cancelled = true,
                FaultKind::PoisonEntry => {} // handled at lookup
                FaultKind::Stall => {
                    // Park on the stall gate before running.  Released by
                    // `release_stalls`, or converted into the typed deadline
                    // error when the request's deadline (or a drain cancel)
                    // fires first.
                    if let Some(err) = self.stall_until_released(deadline) {
                        return AttemptOutcome::Typed(err);
                    }
                }
            }
        }
        // Every run carries a watch wired to the drain-cancel flag, so a
        // drain past its deadline can cut in-flight work off at the next
        // statement boundary with a typed error.  Built once and moved all
        // the way into the engine: the flag's reference count is a cache
        // line every client shares.
        let mut watch = match deadline {
            Some((dl, dl_ms)) => Watch::until(dl, dl_ms).with_cancel(self.drain_cancel.clone()),
            None => Watch::cancelled_by(self.drain_cancel.clone(), 0),
        };
        if cancelled {
            // An injected expiry pre-raises a private cancel flag (replacing
            // the drain flag) so only this request trips.
            watch = watch.with_cancel(Arc::new(AtomicBool::new(true)));
        }
        if let Some(at) = fault_stmt {
            watch = watch.with_fault_at_stmt(at);
        }
        let engine = match tier {
            Tier::Fast => self.fast.engine,
            Tier::Oracle => Engine::TreeWalk,
        };
        let ran = catch_unwind(AssertUnwindSafe(
            move || -> Result<(ExecStats, Option<f64>, Option<Tensor>), RuntimeError> {
                for tensor in &req.inputs {
                    kernel.rebind_input(tensor)?;
                }
                if pre_panic {
                    panic!("injected fault: panic before execution");
                }
                let stats = kernel.run_watched(watch, step_budget, engine)?;
                if post_panic {
                    panic!("injected fault: panic after execution");
                }
                let (scalar, tensor) = match &req.read {
                    ReadBack::Stats => (None, None),
                    ReadBack::Scalar(name) => (Some(kernel.output_scalar(name)?), None),
                    ReadBack::Tensor(name) => (None, Some(kernel.output_tensor(name)?)),
                };
                Ok((stats, scalar, tensor))
            },
        ));
        match ran {
            Ok(Ok((stats, scalar, tensor))) => AttemptOutcome::Ok(Response {
                stats,
                tier,
                cache_hit,
                queue_wait: Duration::ZERO,
                scalar,
                tensor,
            }),
            Ok(Err(err)) => AttemptOutcome::Typed(err),
            Err(payload) => {
                AttemptOutcome::Fault(format!("{} tier: {}", tier.label(), panic_message(&payload)))
            }
        }
    }

    fn take_fault(&self, rid: u64, lookup: bool) -> Option<FaultRule> {
        if self.faults_pending.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        let rule = faults.take(rid, lookup)?;
        self.faults_pending.store(faults.len(), Ordering::SeqCst);
        Some(rule)
    }

    fn count_runtime(&self, err: &RuntimeError) {
        match err {
            RuntimeError::Deadline { .. } => {
                self.stats.deadline_errors.fetch_add(1, Ordering::Relaxed);
            }
            RuntimeError::StepBudgetExceeded { .. } => {
                self.stats.budget_errors.fetch_add(1, Ordering::Relaxed);
            }
            RuntimeError::AllocBudgetExceeded { .. } => {
                self.stats.alloc_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Return a lent run state to its entry and stamp the entry as used.
    fn release(&self, key: (u64, u64), state: Box<CompiledKernel>) {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        // An entry with a run state out is neither evicted nor taken whole,
        // so it is still there; were it not, the state would go with it.
        if let Some(SlotState::Ready(entry)) = inner.slots.get_mut(&key) {
            if entry.base.shares_image(&state) {
                entry.take_back(state);
                entry.last_used = tick;
            }
        }
        self.cond.wake(inner);
    }

    /// Return an exclusively checked-out entry to the cache (or evict it),
    /// then apply LRU pressure and wake slot waiters.
    fn checkin(&self, key: (u64, u64), mut entry: Box<Entry>, evict: bool) {
        let mut inner = self.lock_inner();
        if evict {
            inner.slots.remove(&key);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.tick += 1;
            entry.last_used = inner.tick;
            inner.slots.insert(key, SlotState::Ready(entry));
            inner.ready += 1;
            let capacity = self.cfg.capacity.max(1);
            while inner.ready > capacity {
                // Least recently used among the entries nobody is using.
                let victim = inner
                    .slots
                    .iter()
                    .filter_map(|(k, s)| match s {
                        SlotState::Ready(e) if *k != key && e.lent == 0 => Some((*k, e.last_used)),
                        _ => None,
                    })
                    .min_by_key(|&(_, used)| used)
                    .map(|(k, _)| k);
                match victim {
                    Some(vk) => {
                        inner.slots.remove(&vk);
                        inner.ready -= 1;
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        self.cond.wake(inner);
    }
}

impl CacheInner {
    /// Take one registration of `key` off the waiting-writers list.
    fn unregister_writer(&mut self, key: (u64, u64)) {
        if let Some(pos) = self.writers.iter().position(|k| *k == key) {
            self.writers.swap_remove(pos);
        }
    }
}

/// Compile `req`'s program against its inputs and outputs under `config`.
fn build_kernel(req: &Request, config: &ExecConfig) -> Result<CompiledKernel, CompileError> {
    let mut kernel = Kernel::with_config(*config);
    for tensor in &req.inputs {
        kernel.bind_input(tensor);
    }
    for (name, specs) in &req.outputs {
        if specs.is_empty() {
            kernel.bind_output_scalar(name);
        } else {
            kernel.bind_output_format(name, specs);
        }
    }
    kernel.compile(&req.program)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch_cin::build::*;
    use finch_formats::Level;

    fn dot_request(a: &Tensor, b: &Tensor) -> Request {
        let i = idx("i");
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access(a.name(), [i.clone()]), access(b.name(), [i]))),
        );
        Request::new(program).input(a).input(b).output_scalar("C")
    }

    fn dense_pair(n: usize, scale: f64) -> (Tensor, Tensor) {
        let av: Vec<f64> = (0..n).map(|k| scale * (k as f64 + 1.0)).collect();
        let bv: Vec<f64> = (0..n).map(|k| 0.5 * (k as f64) - 1.0).collect();
        (Tensor::dense_vector("A", &av), Tensor::dense_vector("B", &bv))
    }

    fn sparse_pair(n: usize) -> (Tensor, Tensor) {
        let av: Vec<f64> = (0..n).map(|k| if k % 3 == 0 { k as f64 + 1.0 } else { 0.0 }).collect();
        let bv: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 2.0 } else { 0.0 }).collect();
        (Tensor::sparse_list_vector("A", &av), Tensor::sparse_list_vector("B", &bv))
    }

    #[test]
    fn structurally_identical_requests_share_one_kernel() {
        let svc = KernelService::default();
        let (a1, b1) = dense_pair(16, 1.0);
        let r1 = svc.submit(&dot_request(&a1, &b1)).unwrap();
        assert!(!r1.cache_hit);

        // Independently rebuilt program, same structure, different data.
        let (a2, b2) = dense_pair(16, -3.0);
        let r2 = svc.submit(&dot_request(&a2, &b2)).unwrap();
        assert!(r2.cache_hit);
        let expected: f64 = a2.values().iter().zip(b2.values()).map(|(x, y)| x * y).sum();
        assert_eq!(r2.scalar.unwrap().to_bits(), expected.to_bits());

        let stats = svc.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.compiles, 1);
        assert_eq!(svc.cached(), 1);
    }

    #[test]
    fn differing_structure_or_flags_miss() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        // Same program, sparse input formats: a different kernel.
        let (sa, sb) = sparse_pair(16);
        svc.submit(&dot_request(&sa, &sb)).unwrap();

        // Same inputs, different output format request.
        let i = idx("i");
        let program = forall(
            i.clone(),
            assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
        );
        svc.submit(
            &Request::new(program)
                .input(&a)
                .input(&b)
                .output("C", &[LevelSpec::Dense { size: 16 }]),
        )
        .unwrap();

        let stats = svc.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.compiles, 3);
    }

    #[test]
    fn two_services_each_compile_one_shared_request() {
        // The prepared hash belongs to the request, the table to the service:
        // a request another service already prepared and cached still misses
        // in a service of its own.
        let (a, b) = dense_pair(16, 1.0);
        let req = dot_request(&a, &b);
        let expected: f64 = a.values().iter().zip(b.values()).map(|(x, y)| x * y).sum();
        for n in 0..2 {
            let svc = KernelService::default();
            assert_eq!(
                svc.fast,
                ExecConfig { validation: ValidationLevel::Off, ..Default::default() }
            );
            let clone = req.clone();
            assert_eq!(clone.key(), req.key());
            let cold = svc.submit(&clone).unwrap();
            let warm = svc.submit(&req).unwrap();
            assert!(!cold.cache_hit && warm.cache_hit, "service {n}");
            assert_eq!(warm.scalar.unwrap().to_bits(), expected.to_bits(), "service {n}");
            assert_eq!(svc.stats().compiles, 1, "service {n}");
            let inner = svc.lock_inner();
            let cached = matches!(inner.slots.get(&req.key()), Some(SlotState::Ready(_)));
            assert!(cached, "service {n}: the kernel is cached under the request's key");
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cfg = ServiceConfig { capacity: 2, ..ServiceConfig::default() };
        let svc = KernelService::new(cfg);
        let (da, db) = dense_pair(8, 1.0);
        let (sa, sb) = sparse_pair(8);
        let (wa, wb) = dense_pair(24, 1.0);

        svc.submit(&dot_request(&da, &db)).unwrap(); // dense in cache
        svc.submit(&dot_request(&sa, &sb)).unwrap(); // sparse in cache
        svc.submit(&dot_request(&da, &db)).unwrap(); // dense now most recent
        svc.submit(&dot_request(&wa, &wb)).unwrap(); // evicts sparse (LRU)
        assert_eq!(svc.cached(), 2);
        assert_eq!(svc.stats().evictions, 1);

        let r = svc.submit(&dot_request(&da, &db)).unwrap();
        assert!(r.cache_hit, "dense survived eviction");
        let r = svc.submit(&dot_request(&sa, &sb)).unwrap();
        assert!(!r.cache_hit, "sparse was evicted");
    }

    #[test]
    fn cache_hits_are_pointer_stable() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(32, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        let ptrs = |svc: &KernelService| -> (*const f64, *const f64) {
            let inner = svc.lock_inner();
            let entry = inner
                .slots
                .values()
                .find_map(|s| match s {
                    SlotState::Ready(e) => Some(e),
                    SlotState::Busy => None,
                })
                .expect("one cached entry");
            let bufs = entry.base.buffers();
            let a_val = bufs.lookup("A_val").expect("input values buffer");
            let c_val = bufs.lookup("C_val").expect("output values buffer");
            (bufs.get(a_val).as_f64().unwrap().as_ptr(), bufs.get(c_val).as_f64().unwrap().as_ptr())
        };
        let before = ptrs(&svc);
        for scale in [2.0, -7.0, 0.25] {
            let (a2, b2) = dense_pair(32, scale);
            let r = svc.submit(&dot_request(&a2, &b2)).unwrap();
            assert!(r.cache_hit);
        }
        let after = ptrs(&svc);
        assert_eq!(before, after, "cache-hit reruns must not reallocate buffers");
    }

    #[test]
    fn a_forced_key_collision_never_serves_the_wrong_kernel() {
        let (a, b) = dense_pair(16, 1.0);
        let dense = dot_request(&a, &b);
        let expected: f64 = a.values().iter().zip(b.values()).map(|(x, y)| x * y).sum();

        // Three intruders that verification tells from `dense` in different
        // places: the same program text over other input formats, or over
        // inputs of another size, and the same inputs under another program
        // text.
        let (sa, sb) = sparse_pair(16);
        let other_formats = dot_request(&sa, &sb);
        let (la, lb) = dense_pair(20, 1.0);
        let other_sizes = dot_request(&la, &lb);
        let i = idx("i");
        let other_program = Request::new(forall(
            i.clone(),
            add_assign(scalar("C"), add(access("A", [i.clone()]), access("B", [i]))),
        ))
        .input(&a)
        .input(&b)
        .output_scalar("C");

        for intruder in [other_formats, other_sizes, other_program] {
            let svc = KernelService::default();
            // Plant the intruder's entry under `dense`'s key.
            let key = dense.key();
            assert_ne!(key, intruder.key());
            let entry = svc.compile_entry(&intruder).unwrap();
            {
                let mut inner = svc.lock_inner();
                inner.slots.insert(key, SlotState::Ready(Box::new(entry)));
                inner.ready += 1;
            }
            // The request itself and a clone (which shares its prepared
            // form) both fall back to an uncached compile.
            for req in [&dense, &dense.clone()] {
                let resp = svc.submit(req).unwrap();
                assert!(!resp.cache_hit);
                assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
            }
            let stats = svc.stats();
            assert_eq!((stats.hits, stats.misses, stats.compiles), (0, 2, 3));
            assert_eq!(svc.cached(), 1, "the planted entry keeps the slot");
        }
    }

    #[test]
    fn a_mutated_clone_keys_to_its_own_entry() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        let expected: f64 = a.values().iter().zip(b.values()).map(|(x, y)| x * y).sum();
        let base = dot_request(&a, &b);
        assert!(!svc.submit(&base).unwrap().cache_hit);
        let key = base.key();

        // An untouched clone shares the prepared form and the entry.
        let clone = base.clone();
        assert!(Arc::ptr_eq(&clone.prepared, &base.prepared));
        assert!(svc.submit(&clone).unwrap().cache_hit);

        // Every builder method that changes the structure forgets the
        // prepared form of the request it is applied to — and only of that
        // one.
        let unused = Tensor::dense_vector("D", &[1.0, 2.0]);
        let mutations: [(&str, Request, Option<f64>); 3] = [
            ("input", base.clone().input(&unused), Some(expected)),
            ("output_scalar", base.clone().output_scalar("E"), Some(0.0)),
            ("output", base.clone().output("F", &[LevelSpec::Dense { size: 2 }]), None),
        ];
        for (n, (what, req, scalar)) in mutations.into_iter().enumerate() {
            assert_ne!(req.key(), key, "{what}");
            let resp = svc.submit(&req).unwrap();
            assert!(!resp.cache_hit, "{what} changes the structure");
            assert_eq!(resp.scalar.map(f64::to_bits), scalar.map(f64::to_bits), "{what}");
            if let Some(t) = &resp.tensor {
                assert_eq!(t.to_dense(), vec![0.0, 0.0], "{what}");
            }
            // Keyed to an entry of its own, not served as a collision.
            assert_eq!(svc.cached(), n + 2, "{what}");
            assert!(svc.submit(&req).unwrap().cache_hit, "{what}");
        }
        assert_eq!(base.key(), key);
        assert!(svc.submit(&base).unwrap().cache_hit);
        assert_eq!(svc.stats().compiles, 4);
    }

    #[test]
    fn fault_ladder_degrades_with_bit_identical_results() {
        let (a, b) = sparse_pair(64);
        let expected = {
            let svc = KernelService::default();
            svc.submit(&dot_request(&a, &b)).unwrap().scalar.unwrap()
        };

        // k injected panics: 1 → fast (after quarantine + recompile), 2 →
        // oracle, 3 → typed Faulted error.  Both tiers return the identical
        // scalar, and falling back compiles nothing.
        let expect_tier = [Tier::Fast, Tier::Oracle];
        let points = [InjectPoint::PreRun, InjectPoint::MidRun, InjectPoint::PostRun];
        for k in 1..=3u64 {
            let svc = KernelService::default();
            svc.submit(&dot_request(&a, &b)).unwrap(); // warm: rid 0
            let mut plan = FaultPlan::new();
            for p in 0..k {
                plan.push(FaultRule {
                    request: 1,
                    point: points[p as usize],
                    kind: FaultKind::Panic,
                });
            }
            svc.install_faults(plan);
            let result = svc.submit(&dot_request(&a, &b));
            let stats = svc.stats();
            assert_eq!(stats.served_by_tier.len(), Tier::ALL.len());
            if k <= 2 {
                let resp = result.unwrap();
                assert_eq!(resp.tier, expect_tier[k as usize - 1], "k = {k}");
                // The warm request on the fast tier, this one on its own.
                let mut served = [1, 0];
                served[resp.tier.index()] += 1;
                assert_eq!(stats.served_by_tier, served, "k = {k}");
                assert_eq!(
                    resp.scalar.unwrap().to_bits(),
                    expected.to_bits(),
                    "degraded result must be bit-identical (k = {k})"
                );
            } else {
                match result {
                    Err(ServiceError::Faulted { attempts, .. }) => assert_eq!(attempts, 3),
                    other => panic!("expected Faulted, got {other:?}"),
                }
            }
            assert_eq!(svc.pending_faults(), 0, "all {k} rules fired");
            assert_eq!(stats.panics, k, "every injected panic was caught");
            let faults: u64 = stats.faults_by_tier.iter().sum();
            assert_eq!(faults, k);
            // One quarantine + recompile as soon as the fast tier faults,
            // and no compile beyond it and the warm request's.
            assert_eq!((stats.quarantined, stats.recompiles, stats.compiles), (1, 1, 1), "k = {k}");
        }
    }

    #[test]
    fn poisoned_entry_is_quarantined_and_recompiled() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        let baseline = svc.submit(&dot_request(&a, &b)).unwrap().scalar.unwrap();

        let mut plan = FaultPlan::new();
        plan.push(FaultRule {
            request: 1,
            point: InjectPoint::Lookup,
            kind: FaultKind::PoisonEntry,
        });
        svc.install_faults(plan);
        let resp = svc.submit(&dot_request(&a, &b)).unwrap();
        assert_eq!(resp.scalar.unwrap().to_bits(), baseline.to_bits());
        assert_eq!(resp.tier, Tier::Fast);
        let stats = svc.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.recompiles, 1);
    }

    #[test]
    fn injected_resource_faults_yield_typed_errors() {
        let svc = KernelService::default();
        let (a, b) = dense_pair(16, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        let mut plan = FaultPlan::new();
        plan.push(FaultRule {
            request: 1,
            point: InjectPoint::MidRun,
            kind: FaultKind::BudgetExhaustion,
        });
        plan.push(FaultRule {
            request: 2,
            point: InjectPoint::PreRun,
            kind: FaultKind::DeadlineExpiry,
        });
        svc.install_faults(plan);

        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::Runtime(RuntimeError::StepBudgetExceeded { budget: 1 })) => {}
            other => panic!("expected step-budget error, got {other:?}"),
        }
        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.budget_errors, 1);
        assert_eq!(stats.deadline_errors, 1);
        // Resource errors don't poison the entry: the next plain request
        // still hits and succeeds.
        let resp = svc.submit(&dot_request(&a, &b)).unwrap();
        assert!(resp.cache_hit);
        assert_eq!(resp.tier, Tier::Fast);
    }

    #[test]
    fn admission_control_sheds_typed_overload() {
        let cfg = ServiceConfig { max_in_flight: 0, ..ServiceConfig::default() };
        let svc = KernelService::new(cfg);
        let (a, b) = dense_pair(8, 1.0);
        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::Overloaded { limit: 0, .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.stats().shed, 1);
    }

    #[test]
    fn compile_errors_are_typed_and_do_not_wedge_the_slot() {
        let svc = KernelService::default();
        let (a, _) = dense_pair(8, 1.0);
        let i = idx("i");
        // References an unbound tensor "Z".
        let program = forall(
            i.clone(),
            add_assign(scalar("C"), mul(access("A", [i.clone()]), access("Z", [i]))),
        );
        let req = Request::new(program).input(&a).output_scalar("C");
        assert!(matches!(svc.submit(&req), Err(ServiceError::Compile(_))));
        // The Busy marker was removed: resubmitting fails the same way
        // instead of deadlocking on the slot.
        assert!(matches!(svc.submit(&req), Err(ServiceError::Compile(_))));
        assert_eq!(svc.cached(), 0);
    }

    #[test]
    fn seeded_fault_plans_are_reproducible() {
        let p1 = FaultPlan::seeded(42, 500, 250);
        let p2 = FaultPlan::seeded(42, 500, 250);
        assert_eq!(p1.rules, p2.rules);
        assert!(!p1.is_empty());
        // Roughly a quarter of requests faulted; exact count is seeded.
        assert!(p1.len() > 50 && p1.len() < 250, "got {}", p1.len());
        let p3 = FaultPlan::seeded(43, 500, 250);
        assert_ne!(p1.rules, p3.rules);
        assert_eq!(FaultPlan::seeded(7, 100, 0).len(), 0);
        // At full rate every request gets at least one rule (panics may
        // stack a second).
        assert!(FaultPlan::seeded(7, 100, 1000).len() >= 100);
    }

    #[test]
    fn deadline_covers_queueing_on_a_busy_slot() {
        use std::sync::atomic::AtomicBool;

        let cfg =
            ServiceConfig { deadline: Some(Duration::from_millis(30)), ..ServiceConfig::default() };
        let svc = Arc::new(KernelService::new(cfg));
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        // Check out the only entry by hand so the slot stays Busy, then
        // submit from another thread: it must time out with Deadline rather
        // than wait forever.
        let req = dot_request(&a, &b);
        let key = req.key();
        let (lease, hit) = svc.checkout(key, &req, None, Access::Escalated).unwrap();
        let Lease::Exclusive { entry, cached } = lease else {
            panic!("an escalated checkout hands out the whole entry");
        };
        assert!(hit && cached);

        let done = Arc::new(AtomicBool::new(false));
        let waiter = {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            let req = dot_request(&a, &b);
            std::thread::spawn(move || {
                let out = svc.submit(&req);
                done.store(true, Ordering::SeqCst);
                out
            })
        };
        let out = waiter.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        match out {
            Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
            other => panic!("expected Deadline while queued, got {other:?}"),
        }
        svc.checkin(key, entry, false);
        // Slot is usable again.
        assert!(svc.submit(&dot_request(&a, &b)).unwrap().cache_hit);
    }

    #[test]
    fn saturated_admission_queues_instead_of_shedding() {
        let cfg = ServiceConfig { max_in_flight: 1, queue_depth: 8, ..ServiceConfig::default() };
        let svc = Arc::new(KernelService::new(cfg));
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap(); // warm: rid 0

        // rid 1 stalls inside its slot, keeping the service saturated.
        let mut plan = FaultPlan::new();
        plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Stall });
        svc.install_faults(plan);
        let stalled = {
            let svc = Arc::clone(&svc);
            let req = dot_request(&a, &b);
            std::thread::spawn(move || svc.submit(&req))
        };
        while svc.stalled() == 0 {
            std::thread::yield_now();
        }

        // The next request queues behind the stalled one instead of being
        // shed, and completes once the stall releases.
        let queued = {
            let svc = Arc::clone(&svc);
            let req = dot_request(&a, &b);
            std::thread::spawn(move || svc.submit(&req))
        };
        while svc.health().queued == 0 {
            std::thread::yield_now();
        }
        svc.release_stalls();
        assert!(stalled.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
        let stats = svc.stats();
        assert_eq!(stats.shed, 0, "saturation queued rather than shed");
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.queue_timeouts, 0);
    }

    #[test]
    fn quarantine_backoff_is_capped_by_the_deadline() {
        // A huge retry backoff with a tiny deadline: the quarantine path
        // must not sleep through the deadline.
        let cfg = ServiceConfig {
            retry_backoff: Duration::from_secs(10),
            deadline: Some(Duration::from_millis(50)),
            ..ServiceConfig::default()
        };
        let svc = KernelService::new(cfg);
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap(); // warm: rid 0

        let mut plan = FaultPlan::new();
        plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
        svc.install_faults(plan);
        let started = Instant::now();
        let result = svc.submit(&dot_request(&a, &b));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "backoff slept {elapsed:?}, ignoring the 50ms deadline"
        );
        // The retry may finish inside the deadline's last statement-check
        // window or trip it; both are typed, neither hangs.
        match result {
            Ok(resp) => assert_eq!(resp.tier, Tier::Fast),
            Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
            other => panic!("expected Ok or Deadline, got {other:?}"),
        }
    }

    #[test]
    fn queue_timeout_is_attributed_to_the_queue_not_execution() {
        let cfg = ServiceConfig {
            max_in_flight: 1,
            queue_depth: 4,
            deadline: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        };
        let svc = KernelService::new(cfg);
        let (a, b) = dense_pair(8, 1.0);
        svc.submit(&dot_request(&a, &b)).unwrap();

        // Hold the only execution slot directly: the next submit spends its
        // entire deadline in the admission queue and must say so.
        let slot = svc.queue.acquire(None).unwrap();
        match svc.submit(&dot_request(&a, &b)) {
            Err(ServiceError::QueueTimeout { waited_ms, .. }) => assert!(waited_ms >= 15),
            other => panic!("expected QueueTimeout, got {other:?}"),
        }
        drop(slot);
        let stats = svc.stats();
        assert_eq!(stats.queue_timeouts, 1);
        assert_eq!(stats.deadline_errors, 0, "the expiry was queue-, not execution-attributed");
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn invalid_inputs_are_rejected_at_the_boundary() {
        let svc = KernelService::default();
        let bad = Tensor::from_raw_parts(
            "A",
            vec![Level::SparseList { size: 4, pos: vec![0, 3], idx: vec![2, 1, 3] }],
            vec![1.0, 2.0, 3.0],
            0.0,
        );
        let i = idx("i");
        let req = Request::new(forall(i.clone(), add_assign(scalar("C"), access("A", [i]))))
            .input(&bad)
            .output_scalar("C");
        match svc.submit(&req) {
            Err(ServiceError::InvalidInput { name, detail }) => {
                assert_eq!(name, "A");
                assert!(!detail.is_empty());
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // Nothing was admitted, compiled, or cached for the bad request.
        let stats = svc.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.compiles, 0);
        assert_eq!(svc.cached(), 0);
    }
}
