//! Random-kernel differential fuzzing with a delta-debugging minimizer.
//!
//! [`gen_case`] draws a random CIN kernel — a handful of independent
//! accumulation statements over two shared input vectors in random formats,
//! protocols and fills (empty and single-entry vectors, and pairs with one
//! support, among them) — and [`check_case`] executes it under **every**
//! compile-side configuration that differs in effect
//! ([`ExecConfig::matrix`]) on both engines, asserting bit-identical
//! outputs everywhere plus engine-identical [`finch::ExecStats`] at each
//! configuration.  Any divergence is a miscompile in some stage of the
//! pipeline.  [`minimize`] then shrinks the offending case with greedy
//! delta debugging over its statement list, and [`render_repro`] prints the
//! minimized case as a runnable `#[test]` the bug can be replayed from.
//!
//! The `fuzz-kernels` binary drives this module from the command line (and
//! from CI's smoke job); the unit tests below drive it with an injected
//! bug to prove the minimizer converges.

use std::time::Instant;

use finch::{
    CompileError, Engine, ExecConfig, Kernel, LevelSpec, RuntimeError, Tensor, ValidationLevel,
    Watch,
};
use finch_baseline::datagen;
use finch_cin::build::*;
use finch_cin::{CinExpr, CinOp, CinStmt, IndexVar, Protocol};
use proptest::test_runner::TestRng;

/// The storage format of one fuzzed input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecFormat {
    /// A plain dense vector.
    Dense,
    /// A `pos`/`idx`/`val` sparse list.
    SparseList,
    /// A contiguous band from the first to the last nonzero.
    Band,
    /// A variable block list: each maximal run of nonzeros one block.
    Vbl,
}

impl VecFormat {
    /// Materialise `data` as a tensor named `name` in this format.
    pub fn build(self, name: &str, data: &[f64]) -> Tensor {
        match self {
            VecFormat::Dense => Tensor::dense_vector(name, data),
            VecFormat::SparseList => Tensor::sparse_list_vector(name, data),
            VecFormat::Band => Tensor::band_vector(name, data),
            VecFormat::Vbl => Tensor::vbl_vector(name, data),
        }
    }

    /// Rust source for the reproducer rendering.
    fn src(self) -> &'static str {
        match self {
            VecFormat::Dense => "VecFormat::Dense",
            VecFormat::SparseList => "VecFormat::SparseList",
            VecFormat::Band => "VecFormat::Band",
            VecFormat::Vbl => "VecFormat::Vbl",
        }
    }
}

/// One independent CIN statement of a fuzzed kernel.  Every variant
/// accumulates into its own output (named after its position in the case),
/// so statements can be deleted freely during minimization without
/// invalidating the rest of the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StmtSpec {
    /// `C{k}[] += A[i] * B[i]` — a reduction to a scalar.
    Dot {
        /// Iteration protocol for `A`.
        pa: Protocol,
        /// Iteration protocol for `B`.
        pb: Protocol,
    },
    /// `y{k}[i] += A[i] * s` — a scaled copy into a dense output.
    Axpy {
        /// Iteration protocol for `A`.
        pa: Protocol,
        /// The scale factor, in quarters (`s = quarters / 4`), kept
        /// exactly representable.
        quarters: i16,
    },
    /// `y{k}[i] += A[i] * B[i]` — an elementwise multiply into a dense
    /// output.
    EwiseMul {
        /// Iteration protocol for `A`.
        pa: Protocol,
        /// Iteration protocol for `B`.
        pb: Protocol,
    },
    /// `S{k}[i] = A[i] where A[i] > t` — a sieve appending into a
    /// sparse-list output (`t = tenths / 10`).
    Threshold {
        /// The threshold, in tenths.
        tenths: u8,
    },
    /// `y{k}[i] += 0.75·A[i] + 0.25·B[i]` — a blend into a dense output.
    Blend,
    /// `C{k}[] op= A[i]` — a plain reduction to a scalar.
    Sum {
        /// The reduction: [`CinOp::Add`] or [`CinOp::Max`].
        op: CinOp,
    },
    /// `y{k}[i] = A[i] where A[i] > B[i]` — a sieve on two operands into a
    /// dense output.
    SieveGt,
    /// `y{k}[i] += coalesce(A[j + i - h], 0) · B[j]` for `j` in `0..width`,
    /// `h = width / 2` — Fig. 9's window dot in one dimension: `A`'s
    /// coordinate is `offset` by `h - i` and `permit`ted past its ends, and
    /// the `coalesce` reads a missing element as zero.
    Window {
        /// The window's width, 1 to 9.
        width: u8,
    },
}

impl StmtSpec {
    fn src(self) -> String {
        let p = |p: Protocol| match p {
            Protocol::Default => "Protocol::Default",
            Protocol::Walk => "Protocol::Walk",
            Protocol::Gallop => "Protocol::Gallop",
            Protocol::Locate => "Protocol::Locate",
        };
        match self {
            StmtSpec::Dot { pa, pb } => format!("StmtSpec::Dot {{ pa: {}, pb: {} }}", p(pa), p(pb)),
            StmtSpec::Axpy { pa, quarters } => {
                format!("StmtSpec::Axpy {{ pa: {}, quarters: {quarters} }}", p(pa))
            }
            StmtSpec::EwiseMul { pa, pb } => {
                format!("StmtSpec::EwiseMul {{ pa: {}, pb: {} }}", p(pa), p(pb))
            }
            StmtSpec::Threshold { tenths } => format!("StmtSpec::Threshold {{ tenths: {tenths} }}"),
            StmtSpec::Blend => "StmtSpec::Blend".to_string(),
            StmtSpec::Sum { op } => format!("StmtSpec::Sum {{ op: finch_cin::CinOp::{op:?} }}"),
            StmtSpec::SieveGt => "StmtSpec::SieveGt".to_string(),
            StmtSpec::Window { width } => format!("StmtSpec::Window {{ width: {width} }}"),
        }
    }
}

/// How many entries a fuzzed input vector stores.  The degenerate fills are
/// what reach a loop's edges: an empty list is a zero-trip merge, one entry
/// a merge whose first step is its last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// No entry at all.
    Empty,
    /// One entry.
    Single,
    /// At least two: `n / per` of them.
    Scattered,
}

impl Fill {
    /// The stored-entry count of a length-`n` vector (`n / per` scattered).
    fn count(self, n: usize, per: usize) -> usize {
        match self {
            Fill::Empty => 0,
            Fill::Single => 1,
            Fill::Scattered => (n / per).max(2),
        }
    }

    /// Rust source for the reproducer rendering.
    fn src(self) -> &'static str {
        match self {
            Fill::Empty => "Fill::Empty",
            Fill::Single => "Fill::Single",
            Fill::Scattered => "Fill::Scattered",
        }
    }
}

/// One fuzzed kernel: the data seed, the shared input vectors' length,
/// formats and fills, and the statement list the CIN program is assembled
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Seed for the deterministic input data.
    pub seed: u64,
    /// Length of both input vectors.
    pub n: usize,
    /// Storage format of input `A`.
    pub a_format: VecFormat,
    /// Storage format of input `B`.
    pub b_format: VecFormat,
    /// How many entries `A` stores (a sixth of `n` when scattered).
    pub a_fill: Fill,
    /// How many entries `B` stores (a quarter of `n` when scattered), unless
    /// `same_support`.
    pub b_fill: Fill,
    /// `B` stores exactly `A`'s coordinates: every step of a merge matches.
    pub same_support: bool,
    /// The kernel's statements, each accumulating into its own output.
    pub stmts: Vec<StmtSpec>,
}

/// A detected miscompile: which configuration diverged and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The [`ExecConfig::label`] of the leg that diverged (or `compile`).
    pub combo: String,
    /// What diverged.
    pub detail: String,
}

fn protocol_index(p: Protocol, v: &IndexVar) -> finch_cin::IndexExpr {
    match p {
        Protocol::Gallop => v.gallop(),
        Protocol::Walk => v.walk(),
        Protocol::Locate => v.locate(),
        Protocol::Default => v.clone().into(),
    }
}

fn build_stmt(spec: StmtSpec, k: usize) -> CinStmt {
    let i = idx("i");
    match spec {
        StmtSpec::Dot { pa, pb } => forall(
            i.clone(),
            add_assign(
                scalar(format!("C{k}").as_str()),
                mul(access("A", [protocol_index(pa, &i)]), access("B", [protocol_index(pb, &i)])),
            ),
        ),
        StmtSpec::Axpy { pa, quarters } => forall(
            i.clone(),
            add_assign(
                access(format!("y{k}").as_str(), [i.clone()]),
                mul(access("A", [protocol_index(pa, &i)]), lit(quarters as f64 * 0.25)),
            ),
        ),
        StmtSpec::EwiseMul { pa, pb } => forall(
            i.clone(),
            add_assign(
                access(format!("y{k}").as_str(), [i.clone()]),
                mul(access("A", [protocol_index(pa, &i)]), access("B", [protocol_index(pb, &i)])),
            ),
        ),
        StmtSpec::Threshold { tenths } => forall(
            i.clone(),
            sieve(
                gt(access("A", [i.clone()]), lit(tenths as f64 * 0.1)),
                assign(access(format!("S{k}").as_str(), [i.clone()]), access("A", [i])),
            ),
        ),
        StmtSpec::Blend => forall(
            i.clone(),
            add_assign(
                access(format!("y{k}").as_str(), [i.clone()]),
                add(mul(lit(0.75), access("A", [i.clone()])), mul(lit(0.25), access("B", [i]))),
            ),
        ),
        StmtSpec::Sum { op } => {
            forall(i.clone(), reduce_assign(scalar(format!("C{k}").as_str()), op, access("A", [i])))
        }
        StmtSpec::SieveGt => forall(
            i.clone(),
            sieve(
                gt(access("A", [i.clone()]), access("B", [i.clone()])),
                assign(access(format!("y{k}").as_str(), [i.clone()]), access("A", [i])),
            ),
        ),
        StmtSpec::Window { width } => {
            let j = idx("j");
            let half = i64::from(width / 2);
            let shifted = j.walk().offset(sub(lit_int(half), CinExpr::Index(i.clone()))).permit();
            let tap = mul(
                coalesce(vec![access("A", [shifted]).into(), lit(0.0)]),
                access("B", [j.clone()]),
            );
            let last = lit_int(i64::from(width) - 1);
            forall(
                i.clone(),
                forall_in(
                    j,
                    lit_int(0),
                    last,
                    add_assign(access(format!("y{k}").as_str(), [i]), tap),
                ),
            )
        }
    }
}

/// Compile one fuzz case at the given validation level (everything else is
/// the default [`ExecConfig`]; [`check_case`] re-derives every other
/// configuration from the result).
///
/// # Errors
///
/// Propagates the [`CompileError`] — under validation, a
/// [`CompileError::ValidationFailed`] here is itself a caught miscompile.
pub fn compile_case(
    case: &FuzzCase,
    validation: ValidationLevel,
) -> Result<finch::CompiledKernel, CompileError> {
    let a_data = datagen::counted_sparse_vector(case.n, case.a_fill.count(case.n, 6), case.seed);
    let b_data = if case.same_support {
        a_data.iter().map(|x| x * 0.5).collect()
    } else {
        let count = case.b_fill.count(case.n, 4);
        datagen::counted_sparse_vector(case.n, count, case.seed ^ 0x9E3779B9)
    };
    let a = case.a_format.build("A", &a_data);
    let b = case.b_format.build("B", &b_data);
    let mut kernel = Kernel::with_config(ExecConfig { validation, ..ExecConfig::default() });
    kernel.bind_input(&a).bind_input(&b);
    for (k, spec) in case.stmts.iter().enumerate() {
        match spec {
            StmtSpec::Dot { .. } | StmtSpec::Sum { .. } => {
                kernel.bind_output_scalar(format!("C{k}").as_str());
            }
            StmtSpec::Axpy { .. }
            | StmtSpec::EwiseMul { .. }
            | StmtSpec::Blend
            | StmtSpec::SieveGt
            | StmtSpec::Window { .. } => {
                kernel.bind_output(&format!("y{k}"), &[case.n], 0.0);
            }
            StmtSpec::Threshold { .. } => {
                kernel.bind_output_format(
                    &format!("S{k}"),
                    &[LevelSpec::SparseList { size: case.n }],
                );
            }
        }
    }
    let program = multi(case.stmts.iter().enumerate().map(|(k, s)| build_stmt(*s, k)).collect());
    kernel.compile(&program)
}

/// Execute one case under every compile-side configuration that differs
/// in effect ([`ExecConfig::matrix`]: unoptimised, untyped, typed scalar,
/// typed with kernel ops) on both engines, and return the first divergence,
/// or `None` when all eight legs agree.
///
/// The correctness contract checked here is the repository's core claim:
/// outputs are bit-identical across every leg, and under any one
/// configuration the two engines report identical work counters — the
/// vectorize stage must also keep the counters scalar-equivalent, so the
/// typed scalar and the vectorized legs share one reference.
///
/// The error-parity axis: when the case is big enough, every leg is re-run
/// under a step budget set strictly below the cheapest configuration's
/// statement count, and must fail with the identical typed
/// [`RuntimeError::StepBudgetExceeded`] — resource faults degrade
/// identically everywhere, never divergently.  Every leg also runs once
/// under a deadline that has already passed, and at each configuration both
/// engines must agree on [`RuntimeError::Deadline`] versus `Ok`: the clock is
/// read once a run reaches [`Watch::TIME_CHECK_PERIOD`] statements, however
/// many of them a kernel op counted at once.
pub fn check_case(case: &FuzzCase, validation: ValidationLevel) -> Option<Divergence> {
    let compiled = match compile_case(case, validation) {
        Ok(k) => k,
        Err(e) => return Some(Divergence { combo: "compile".into(), detail: e.to_string() }),
    };
    let derive = |config: &ExecConfig| {
        compiled
            .reconfigured(config)
            .map_err(|e| Divergence { combo: config.label(), detail: e.to_string() })
    };
    let mut reference: Option<Vec<(String, Vec<u64>)>> = None;
    let mut min_stmts = u64::MAX;
    // The typed scalar run's counters: the vectorized run must report the
    // exact same machine-independent work.
    let mut scalar_stats: Option<finch::ExecStats> = None;
    for config in compiled.config().matrix() {
        let mut k = match derive(&config) {
            Ok(k) => k,
            Err(divergence) => return Some(divergence),
        };
        // The compile-cost contract: register typing settles within
        // three visits per basic block on every generated program.
        let opt = k.opt_stats();
        if opt.typing_block_visits > 3 * opt.typing_blocks {
            return Some(Divergence {
                combo: config.label(),
                detail: format!(
                    "typing visited {} blocks {} times",
                    opt.typing_blocks, opt.typing_block_visits
                ),
            });
        }
        let mut engine_stats = Vec::new();
        for engine in [Engine::TreeWalk, Engine::Bytecode] {
            let combo = ExecConfig { engine, ..config }.label();
            let stats = match k.run_with(engine) {
                Ok(s) => s,
                Err(e) => return Some(Divergence { combo, detail: format!("runtime fault: {e}") }),
            };
            engine_stats.push((combo.clone(), stats));
            min_stmts = min_stmts.min(stats.stmts);
            let outputs: Vec<(String, Vec<u64>)> = k
                .output_names()
                .into_iter()
                .map(|name| {
                    let out = k.output(&name).expect("output reads");
                    (name, out.iter().map(|v| v.to_bits()).collect())
                })
                .collect();
            match &reference {
                None => reference = Some(outputs),
                Some(r) => {
                    for ((name, want), (_, got)) in r.iter().zip(&outputs) {
                        if want != got {
                            return Some(Divergence {
                                combo,
                                detail: format!("output `{name}` diverges from the reference run"),
                            });
                        }
                    }
                }
            }
        }
        let (c0, s0) = &engine_stats[0];
        let (c1, s1) = &engine_stats[1];
        if s0 != s1 {
            return Some(Divergence {
                combo: format!("{c0} vs {c1}"),
                detail: format!("work counters diverge: {s0:?} vs {s1:?}"),
            });
        }
        // The passed-deadline leg.
        k.set_watch(Some(Watch::until(Instant::now(), 0)));
        let mut tripped = [false; 2];
        for (engine, tripped) in [Engine::TreeWalk, Engine::Bytecode].into_iter().zip(&mut tripped)
        {
            match k.run_with(engine) {
                Ok(_) => {}
                Err(RuntimeError::Deadline { .. }) => *tripped = true,
                Err(e) => {
                    return Some(Divergence {
                        combo: ExecConfig { engine, ..config }.label(),
                        detail: format!("wrong typed error past a deadline: {e}"),
                    })
                }
            }
        }
        if tripped[0] != tripped[1] {
            let verdict = |tripped| if tripped { "tripped" } else { "ran to completion" };
            return Some(Divergence {
                combo: config.label(),
                detail: format!(
                    "past a deadline the tree-walker {} and the VM {}",
                    verdict(tripped[0]),
                    verdict(tripped[1])
                ),
            });
        }
        if config.typed && !config.simd {
            scalar_stats = Some(*s0);
        } else if config.simd {
            if let Some(scalar) = &scalar_stats {
                if scalar != s0 {
                    return Some(Divergence {
                        combo: c1.clone(),
                        detail: format!(
                            "vectorized work counters diverge from the scalar run: \
                             {s0:?} vs {scalar:?}"
                        ),
                    });
                }
            }
        }
    }
    // The error-parity axis: a step budget strictly below every
    // configuration's statement count must abort *every* leg — engines and
    // compile-side configurations — with the exact same typed error.  A leg
    // that runs to completion, or faults with a different error, is a
    // divergence like any other.
    if (4..u64::MAX).contains(&min_stmts) {
        let budget = min_stmts / 2;
        let want = RuntimeError::StepBudgetExceeded { budget };
        let trips = |ran: Result<finch::ExecStats, RuntimeError>, leg: ExecConfig| match ran {
            Err(ref e) if *e == want => None,
            Ok(_) => Some(Divergence {
                combo: leg.label(),
                detail: format!("ran to completion under a step budget of {budget}"),
            }),
            Err(e) => Some(Divergence {
                combo: leg.label(),
                detail: format!("wrong typed error under budget {budget}: {e} (want {want})"),
            }),
        };
        for config in compiled.config().matrix() {
            let config = ExecConfig { step_budget: Some(budget), ..config };
            let mut k = match derive(&config) {
                Ok(k) => k,
                Err(divergence) => return Some(divergence),
            };
            for engine in [Engine::TreeWalk, Engine::Bytecode] {
                if let Some(d) = trips(k.run_with(engine), ExecConfig { engine, ..config }) {
                    return Some(d);
                }
            }
        }
    }
    None
}

/// Draw one random case.  `smoke` shrinks the problem size for the CI
/// smoke job.
pub fn gen_case(rng: &mut TestRng, smoke: bool) -> FuzzCase {
    let formats = [VecFormat::Dense, VecFormat::SparseList, VecFormat::Band, VecFormat::Vbl];
    let n = if smoke { rng.below_in(16, 48) } else { rng.below_in(32, 128) };
    let a_format = formats[rng.below_in(0, 4)];
    let b_format = formats[rng.below_in(0, 4)];
    // Protocol annotations are only meaningful on formats with a searchable
    // coordinate list; everything else iterates with the default unfurl.
    let proto = |rng: &mut TestRng, f: VecFormat| match f {
        VecFormat::SparseList => {
            [Protocol::Default, Protocol::Walk, Protocol::Gallop][rng.below_in(0, 3)]
        }
        _ => Protocol::Default,
    };
    // One vector in four is degenerate, one pair in six shares its support.
    let fill = |rng: &mut TestRng| match rng.below_in(0, 8) {
        0 => Fill::Empty,
        1 => Fill::Single,
        _ => Fill::Scattered,
    };
    let (a_fill, b_fill) = (fill(rng), fill(rng));
    let same_support = rng.below_in(0, 6) == 0;
    let count = rng.below_in(1, 9);
    let seed = rng.next_u64();
    // The statements draw from a stream of their own: a new statement shape
    // does not reshuffle which formats and fills a seed covers.
    let rng = &mut TestRng::from_seed(seed);
    let mut stmts = (0..count)
        .map(|_| match rng.below_in(0, 7) {
            0 => StmtSpec::Dot { pa: proto(rng, a_format), pb: proto(rng, b_format) },
            1 => StmtSpec::Axpy {
                pa: proto(rng, a_format),
                quarters: rng.below_in(1, 17) as i16 - 8,
            },
            2 => StmtSpec::EwiseMul { pa: proto(rng, a_format), pb: proto(rng, b_format) },
            3 => StmtSpec::Threshold { tenths: rng.below_in(10, 80) as u8 },
            4 => StmtSpec::Blend,
            5 => StmtSpec::Sum { op: [CinOp::Add, CinOp::Max][rng.below_in(0, 2)] },
            _ => StmtSpec::SieveGt,
        })
        .collect::<Vec<_>>();
    // One case in three also takes a window, drawn from a stream of its own
    // so that it reshuffles none of the statements above.
    let rng = &mut TestRng::from_seed(seed ^ 0x5749_4E44);
    if rng.below_in(0, 3) == 0 {
        stmts.push(StmtSpec::Window { width: rng.below_in(1, 10) as u8 });
    }
    FuzzCase { seed, n, a_format, b_format, a_fill, b_fill, same_support, stmts }
}

/// Greedy delta debugging over the case's statement list: repeatedly drop
/// any statement whose removal keeps `diverges` true, until the case is
/// 1-minimal (no single statement can be removed).  The oracle is a
/// closure so tests can inject a synthetic bug.
pub fn minimize(case: &FuzzCase, diverges: &dyn Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut current = case.clone();
    // First pass: binary chop — try dropping whole halves while the case
    // is large, the classic ddmin fast path.
    loop {
        let len = current.stmts.len();
        if len < 4 {
            break;
        }
        let mut halved = false;
        for keep_front in [false, true] {
            let mut candidate = current.clone();
            if keep_front {
                candidate.stmts.truncate(len / 2);
            } else {
                candidate.stmts.drain(..len / 2);
            }
            if diverges(&candidate) {
                current = candidate;
                halved = true;
                break;
            }
        }
        if !halved {
            break;
        }
    }
    // Second pass: 1-minimality by single-statement removal.
    let mut k = 0;
    while current.stmts.len() > 1 && k < current.stmts.len() {
        let mut candidate = current.clone();
        candidate.stmts.remove(k);
        if diverges(&candidate) {
            current = candidate;
            k = 0;
        } else {
            k += 1;
        }
    }
    current
}

/// Render a minimized case as a runnable `#[test]` function (the
/// reproducer artifact the `fuzz-kernels` binary prints and CI uploads).
pub fn render_repro(case: &FuzzCase, divergence: &Divergence) -> String {
    let mut stmts_src = String::new();
    for s in &case.stmts {
        stmts_src.push_str(&format!("            {},\n", s.src()));
    }
    format!(
        "// Minimized fuzz-kernels reproducer ({} statement(s)).\n\
         // Divergence: [{}] {}\n\
         #[test]\n\
         fn fuzz_divergence_seed_{}() {{\n\
         \x20   use finch::ValidationLevel;\n\
         \x20   use finch_bench::fuzz::{{check_case, Fill, FuzzCase, StmtSpec, VecFormat}};\n\
         \x20   use finch_cin::Protocol;\n\
         \x20   let case = FuzzCase {{\n\
         \x20       seed: {},\n\
         \x20       n: {},\n\
         \x20       a_format: {},\n\
         \x20       b_format: {},\n\
         \x20       a_fill: {},\n\
         \x20       b_fill: {},\n\
         \x20       same_support: {},\n\
         \x20       stmts: vec![\n{}\
         \x20       ],\n\
         \x20   }};\n\
         \x20   let divergence = check_case(&case, ValidationLevel::Off);\n\
         \x20   assert!(divergence.is_none(), \"kernel diverges: {{divergence:?}}\");\n\
         }}\n",
        case.stmts.len(),
        divergence.combo,
        divergence.detail,
        case.seed,
        case.seed,
        case.n,
        case.a_format.src(),
        case.b_format.src(),
        case.a_fill.src(),
        case.b_fill.src(),
        case.same_support,
        stmts_src,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_run_divergence_free() {
        let mut rng = TestRng::from_seed(0xF1C4);
        for _ in 0..12 {
            let case = gen_case(&mut rng, true);
            let verdict = check_case(&case, ValidationLevel::Full);
            assert_eq!(verdict, None, "case {case:?} diverged");
        }
    }

    /// Every pairing of degenerate fills on two walked sparse lists — the
    /// two-finger merge that is never entered, matches on its first step,
    /// ends on its first step, matches on every step — runs divergence-free
    /// on every leg, and the generator draws each of them.  Every drawn
    /// `Dot` or `EwiseMul` over two walked sparse lists emits the
    /// run-ahead's stepper form and runs divergence-free too.  So does a
    /// `Dot` of a walked sparse list against a dense or banded vector, the
    /// lone stepper whose body the gather reduction performs: under every
    /// pairing of fills, and wherever the smoke draw makes one.
    #[test]
    fn degenerate_sparse_list_merges_run_divergence_free_and_are_drawn() {
        let walk = Protocol::Walk;
        let fills = [Fill::Empty, Fill::Single, Fill::Scattered];
        let gathers = |case: &FuzzCase| {
            let kernel = compile_case(case, ValidationLevel::Off).expect("compiles");
            let disasm = kernel.bytecode().disasm();
            assert!(disasm.contains("gather_reduce"), "{case:?}: the gather reduction\n{disasm}");
            assert_eq!(check_case(case, ValidationLevel::Full), None, "{case:?}");
        };
        for b_format in [VecFormat::Dense, VecFormat::Band] {
            for (k, a_fill) in fills.into_iter().enumerate() {
                for b_fill in fills {
                    gathers(&FuzzCase {
                        seed: 51 + k as u64,
                        n: 24,
                        a_format: VecFormat::SparseList,
                        b_format,
                        a_fill,
                        b_fill,
                        same_support: false,
                        stmts: vec![StmtSpec::Dot { pa: walk, pb: Protocol::Default }],
                    });
                }
            }
        }
        for (k, a_fill) in fills.into_iter().enumerate() {
            for b_fill in fills {
                for same_support in [false, true] {
                    let case = FuzzCase {
                        seed: 41 + k as u64,
                        n: 24,
                        a_format: VecFormat::SparseList,
                        b_format: VecFormat::SparseList,
                        a_fill,
                        b_fill,
                        same_support,
                        stmts: vec![
                            StmtSpec::Dot { pa: walk, pb: walk },
                            StmtSpec::EwiseMul { pa: walk, pb: walk },
                        ],
                    };
                    assert_eq!(check_case(&case, ValidationLevel::Full), None, "{case:?}");
                }
            }
        }
        let mut rng = TestRng::from_seed(61954);
        let drawn: Vec<FuzzCase> = (0..200).map(|_| gen_case(&mut rng, true)).collect();
        let lists = |c: &&FuzzCase| {
            (c.a_format, c.b_format) == (VecFormat::SparseList, VecFormat::SparseList)
        };
        let count =
            |pred: fn(&FuzzCase) -> bool| drawn.iter().filter(lists).filter(|c| pred(c)).count();
        assert!(count(|c| c.a_fill == Fill::Empty || c.b_fill == Fill::Empty) > 0);
        assert!(count(|c| c.a_fill == Fill::Single || c.b_fill == Fill::Single) > 0);
        assert!(count(|c| c.same_support) > 0);
        let both_walked = |stmt: &StmtSpec| match *stmt {
            StmtSpec::Dot { pa, pb } | StmtSpec::EwiseMul { pa, pb } => (pa, pb) == (walk, walk),
            _ => false,
        };
        let steps = |line: &str| {
            line.contains("merge_skip")
                && !line.contains(" blocks b")
                && !line.contains(" seeks < b")
        };
        let walked: Vec<&FuzzCase> =
            drawn.iter().filter(lists).filter(|c| c.stmts.iter().any(both_walked)).collect();
        assert!(!walked.is_empty(), "the smoke draw walked no pair of sparse lists");
        for case in walked {
            let kernel = compile_case(case, ValidationLevel::Off).expect("compiles");
            let disasm = kernel.bytecode().disasm();
            assert!(disasm.lines().any(steps), "{case:?}: the stepper form\n{disasm}");
            assert_eq!(check_case(case, ValidationLevel::Full), None, "{case:?}");
        }
        let located = |c: &&FuzzCase| {
            c.a_format == VecFormat::SparseList
                && [VecFormat::Dense, VecFormat::Band].contains(&c.b_format)
                && c.stmts.iter().any(|stmt| {
                    matches!(stmt, StmtSpec::Dot { pa: Protocol::Default | Protocol::Walk, .. })
                })
        };
        let lone: Vec<&FuzzCase> = drawn.iter().filter(located).collect();
        assert!(!lone.is_empty(), "the smoke draw dotted no walked list with a located vector");
        lone.into_iter().for_each(gathers);
    }

    /// VBL against a walked sparse list is the run-ahead's block form: the
    /// smoke draw reaches it, and such cases run divergence-free.
    #[test]
    fn vbl_against_a_sparse_list_draws_the_block_form_run_ahead() {
        let mut rng = TestRng::from_seed(61954);
        let drawn: Vec<FuzzCase> = (0..200).map(|_| gen_case(&mut rng, true)).collect();
        let block_form = drawn.iter().filter(|case| {
            let formats = [case.a_format, case.b_format];
            formats.contains(&VecFormat::Vbl) && formats.contains(&VecFormat::SparseList) && {
                let kernel = compile_case(case, ValidationLevel::Off).expect("compiles");
                kernel.bytecode().disasm().contains(" blocks b")
            }
        });
        let cases: Vec<&FuzzCase> = block_form.collect();
        assert!(!cases.is_empty(), "no smoke case emits the block form");
        for case in cases.into_iter().take(3) {
            assert_eq!(check_case(case, ValidationLevel::Full), None, "{case:?}");
        }
    }

    /// Two galloped fingers — a `Dot` or an `EwiseMul` over two sparse lists,
    /// both `Gallop` — are the run-ahead's jumper form: every such case the
    /// smoke draw makes emits it, and runs divergence-free.
    #[test]
    fn two_galloped_fingers_draw_the_jumper_form_run_ahead() {
        let mut rng = TestRng::from_seed(61954);
        let drawn: Vec<FuzzCase> = (0..200).map(|_| gen_case(&mut rng, true)).collect();
        let gallop = Protocol::Gallop;
        let both_gallop = |stmt: &StmtSpec| match *stmt {
            StmtSpec::Dot { pa, pb } | StmtSpec::EwiseMul { pa, pb } => {
                (pa, pb) == (gallop, gallop)
            }
            _ => false,
        };
        let cases: Vec<&FuzzCase> =
            drawn.iter().filter(|case| case.stmts.iter().any(both_gallop)).collect();
        assert!(!cases.is_empty(), "the smoke draw galloped no pair of fingers");
        for case in cases {
            let kernel = compile_case(case, ValidationLevel::Off).expect("compiles");
            let disasm = kernel.bytecode().disasm();
            assert!(disasm.contains(" seeks < b"), "{case:?}: the jumper form\n{disasm}");
            assert_eq!(check_case(case, ValidationLevel::Full), None, "{case:?}");
        }
    }

    /// A window over a dense `A` and a dense `B` is Fig. 9's window dot:
    /// the smoke draw reaches it, every such case gives its loop the inner
    /// product over the shifted index `v - q` into the register-indexed
    /// `y{k}[i]`, and runs divergence-free on every leg, the passed-deadline
    /// leg among them.
    #[test]
    fn a_dense_window_draws_the_window_dot_kernel_op() {
        let mut rng = TestRng::from_seed(61954);
        let drawn: Vec<FuzzCase> = (0..200).map(|_| gen_case(&mut rng, true)).collect();
        let dense = |case: &&FuzzCase| {
            (case.a_format, case.b_format) == (VecFormat::Dense, VecFormat::Dense)
                && case.stmts.iter().any(|stmt| matches!(stmt, StmtSpec::Window { .. }))
        };
        let cases: Vec<&FuzzCase> = drawn.iter().filter(dense).collect();
        assert!(!cases.is_empty(), "the smoke draw made no dense window");
        for case in cases {
            let kernel = compile_case(case, ValidationLevel::Off).expect("compiles");
            let disasm = kernel.bytecode().disasm();
            // `vmuladd.f64 y[i] += A[v - inv] * B[v]`, `i` being a register.
            let window_dot = |line: &str| {
                line.contains("vmuladd.f64 b") && line.contains("[i") && line.contains("[v-")
            };
            assert!(disasm.lines().any(window_dot), "{case:?}: the window dot\n{disasm}");
            assert_eq!(check_case(case, ValidationLevel::Full), None, "{case:?}");
        }
    }

    /// The acceptance demonstration: inject a synthetic bug (the oracle
    /// flags any case containing a `Dot` statement) into a 24-statement
    /// case and check the minimizer converges to a reproducer of at most
    /// 10 CIN statements — here exactly one.
    #[test]
    fn minimizer_shrinks_an_injected_bug_to_a_tiny_reproducer() {
        let mut stmts = Vec::new();
        for k in 0..24 {
            stmts.push(match k % 4 {
                0 => StmtSpec::Blend,
                1 => StmtSpec::Axpy { pa: Protocol::Walk, quarters: 3 },
                2 if k == 10 => StmtSpec::Dot { pa: Protocol::Walk, pb: Protocol::Default },
                2 => StmtSpec::Threshold { tenths: 30 },
                _ => StmtSpec::EwiseMul { pa: Protocol::Default, pb: Protocol::Default },
            });
        }
        let case = FuzzCase {
            seed: 7,
            n: 32,
            a_format: VecFormat::SparseList,
            b_format: VecFormat::Dense,
            a_fill: Fill::Scattered,
            b_fill: Fill::Scattered,
            same_support: false,
            stmts,
        };
        let buggy = |c: &FuzzCase| c.stmts.iter().any(|s| matches!(s, StmtSpec::Dot { .. }));
        assert!(buggy(&case), "the injected bug must trigger on the full case");
        let minimized = minimize(&case, &buggy);
        assert!(
            minimized.stmts.len() <= 10,
            "minimizer must reach <= 10 statements, got {}",
            minimized.stmts.len()
        );
        assert_eq!(minimized.stmts.len(), 1, "the bug depends on exactly one statement");
        assert!(buggy(&minimized), "the reproducer must still trigger the bug");
        let repro = render_repro(
            &minimized,
            &Divergence { combo: "injected".into(), detail: "synthetic".into() },
        );
        assert!(repro.contains("StmtSpec::Dot"), "reproducer lists the offending statement");
        assert!(repro.contains("#[test]"), "reproducer is a runnable test");
    }

    /// A real end-to-end divergence: a case whose oracle is the actual
    /// differential check, with the "bug" injected by corrupting the
    /// case's own data seed comparison — here we instead assert the real
    /// oracle is stable under minimization plumbing (a non-diverging case
    /// minimizes to itself only via the injected-oracle path).
    #[test]
    fn reproducers_render_protocols_and_formats_verbatim() {
        let case = FuzzCase {
            seed: 99,
            n: 40,
            a_format: VecFormat::Band,
            b_format: VecFormat::SparseList,
            a_fill: Fill::Single,
            b_fill: Fill::Empty,
            same_support: false,
            stmts: vec![
                StmtSpec::Dot { pa: Protocol::Default, pb: Protocol::Gallop },
                StmtSpec::Threshold { tenths: 55 },
                StmtSpec::Sum { op: CinOp::Max },
                StmtSpec::SieveGt,
            ],
        };
        let repro = render_repro(
            &case,
            &Divergence { combo: "TreeWalk/default/typed=true".into(), detail: "x".into() },
        );
        assert!(repro.contains("VecFormat::Band"));
        assert!(repro.contains("a_fill: Fill::Single,") && repro.contains("b_fill: Fill::Empty,"));
        assert!(repro.contains("same_support: false,"));
        assert!(repro.contains("Protocol::Gallop"));
        assert!(repro.contains("StmtSpec::Threshold { tenths: 55 }"));
        assert!(repro.contains("StmtSpec::Sum { op: finch_cin::CinOp::Max }"));
        assert!(repro.contains("StmtSpec::SieveGt,"));
        assert!(repro.contains("fuzz_divergence_seed_99"));
        let vbl = FuzzCase { b_format: VecFormat::Vbl, ..case };
        let repro = render_repro(&vbl, &Divergence { combo: "c".into(), detail: "x".into() });
        assert!(repro.contains("b_format: VecFormat::Vbl,"));
    }
}
