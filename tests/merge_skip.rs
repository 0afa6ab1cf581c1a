//! The step loop op, skipping and reducing, through the real lowerer:
//! budget sweep and degenerate fibers.
//!
//! The two-finger merge loop of `lower_stepped` carries a kernel op
//! (`Instr::IStepLoop`, `Step::Skip`) that skips, natively, the iterations
//! that match nothing — and, where the matched body is a product into a
//! scalar or a sparse list (the dot, the sparse-output product, Fig. 7's
//! two-finger SpMSpV), performs the matches too (`Step::Perform` under
//! `Guard::Both`); the lone stepper of a walked list against a located
//! operand (Fig. 1's list × band, a CSR × dense SpMV) carries the same op
//! folding on every step (`Guard::Every`, `Out::Fold`), which performs every
//! iteration but its last, and so does the run × run loop of two run-length
//! vectors (Fig. 11's product of two runs), over two fingers, and so does
//! the lone stepper of Fig. S's threshold filter, whose guarded append the
//! op performs (`Guard::Cmp`, `Out::Push`).
//! Its exits are where it can go wrong — a loop that is never
//! entered, a match on the first step, a match on the last, a budget that
//! runs out inside a run-ahead — so for the kernels that hold the loop
//! (sparse·sparse `dot`, the elementwise product with a sparse output, and
//! Fig. 7's two-finger and VBL SpMSpV, the last the op's block form; and,
//! for its jumper form, the galloped `dot`, Fig. 7's "gallop both" SpMSpV
//! and Fig. 8's galloped triangle count) over operand pairs that are empty,
//! single-entry, disjoint, identical, interleaved, prefixes of each other,
//! on either side of a block's edges, or at a jumper's own exits, this file
//! runs **every** step budget from 0 to the unbudgeted run's statement
//! count on
//!
//! * the VM with the op (the default configuration),
//! * the VM with `simd` off — the same scalar loop without the op, and
//! * the tree-walker,
//!
//! and requires the three to agree on `Ok` / `StepBudgetExceeded`, on the
//! `ExecStats` of a run that completes, and on every output as the run left
//! it — at a trip, the stores and appends made so far.  (The counters *at*
//! a trip are not in reach from outside a kernel; `finch-ir`'s
//! `opt::op_contract` harness compares them on all three for every kernel
//! op, on every axis, on the same loops.)  The threshold filter is also run under an injected fault
//! at every statement, a passed deadline and every allocation budget.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use finch_bench::{ewise_mul_kernel, threshold_kernel};
use finch_ir::bytecode::{Guard, Out, Step};
use finch_ir::{Instr, MergeForm};
use looplets_repro::baseline::datagen;
use looplets_repro::finch::{CompiledKernel, Engine, ExecConfig, Protocol, Tensor, Watch};

mod common;

const N: usize = 24;

/// A length-`N` vector with the given coordinates stored.
fn vector(coords: &[usize]) -> Vec<f64> {
    let mut dense = vec![0.0; N];
    for (k, &i) in coords.iter().enumerate() {
        dense[i] = 1.5 + k as f64;
    }
    dense
}

/// The operand pairs, by what makes each one degenerate.
fn operand_pairs() -> Vec<(&'static str, Vec<usize>, Vec<usize>)> {
    let evens: Vec<usize> = (0..N).step_by(2).collect();
    let odds: Vec<usize> = (1..N).step_by(2).collect();
    vec![
        ("both empty", vec![], vec![]),
        ("one empty", vec![], vec![3, 9]),
        ("single entries that meet", vec![7], vec![7]),
        ("single entries that miss", vec![4], vec![19]),
        ("a single entry in a long list", vec![N - 1], (0..N).collect()),
        ("disjoint halves", (0..N / 2).collect(), (N / 2..N).collect()),
        ("identical", vec![2, 3, 11, 17, 23], vec![2, 3, 11, 17, 23]),
        ("interleaved", evens, odds),
        ("a prefix of the other", vec![1, 5, 6], vec![1, 5, 6, 8, 13, 20]),
        ("sparse against dense", vec![0, 10, 23], (0..N).collect()),
    ]
}

/// The pairs that leave a galloped merge by the jumper's own exits: a
/// trailer's seek that lands on the leader's coordinate (a match in the
/// fall-back), one that gallops to the last entry of its row (the loop's
/// bound keeps every step at or before each row's last coordinate, so no
/// seek of these kernels runs past it), and an empty last step (the bound
/// is one finger's last coordinate; the other's next is past it).
fn jumper_pairs() -> Vec<(&'static str, Vec<usize>, Vec<usize>)> {
    vec![
        ("a seek that lands on the leader", vec![2, 9], vec![1, 5, 9]),
        ("a seek to its row's last entry", (1..10).chain([22]).collect(), vec![0, 22, 23]),
        ("an empty last step", vec![3, 9], vec![5, 10, 12]),
    ]
}

/// What one run left behind: its verdict (with the counters of a run that
/// completes) and every output, readable or not.
fn observe(kernel: &CompiledKernel, engine: Engine, budget: Option<u64>) -> String {
    let mut kernel = kernel
        .reconfigured(&ExecConfig { step_budget: budget, ..kernel.config() })
        .expect("a budget recompiles nothing");
    let verdict = kernel.run_with(engine);
    let outputs: Vec<String> = kernel
        .output_names()
        .iter()
        .map(|name| format!("{name}: {:?}", kernel.output(name)))
        .collect();
    format!("{verdict:?} {outputs:?}")
}

/// What each step loop op of `kernel` does with a step, and whether it has
/// two fingers.
fn step_ops(kernel: &CompiledKernel) -> Vec<(Step, bool)> {
    let program = kernel.bytecode();
    let op = |i: &Instr| match *i {
        Instr::IStepLoop { q, .. } => Some((*program.step_of(i)?, q.is_some())),
        _ => None,
    };
    program.code().iter().filter_map(op).collect()
}

fn ops(kernel: &CompiledKernel) -> usize {
    step_ops(kernel).len()
}

/// Whether `step` folds on every step: a reduction.
fn reduction(step: &Step) -> bool {
    matches!(step, Step::Perform { guard: Guard::Every, out: Out::Fold { .. }, .. })
}

/// Whether `kernel` carries the gather reduction.
fn gathers(kernel: &CompiledKernel) -> bool {
    step_ops(kernel).iter().any(|(step, _)| reduction(step))
}

/// Whether `kernel` carries the reduction over two fingers.
fn reduces_two(kernel: &CompiledKernel) -> bool {
    step_ops(kernel).iter().any(|(step, two)| reduction(step) && *two)
}

/// Whether `kernel` carries the skip's `form`.
fn skips(kernel: &CompiledKernel, form: fn(&MergeForm) -> bool) -> bool {
    step_ops(kernel).iter().any(|(step, _)| matches!(step, Step::Skip(f) if form(f)))
}

/// Whether `kernel` carries the skip's jumper form.
fn gallops(kernel: &CompiledKernel) -> bool {
    skips(kernel, |form| matches!(form, MergeForm::Gallop { .. }))
}

/// Sweep every budget over the three engines of `kernel`.
fn sweep(kernel: &CompiledKernel, what: &str) {
    let scalar = kernel
        .reconfigured(&ExecConfig { simd: false, ..kernel.config() })
        .expect("the kernel compiles without kernel ops");
    assert!(
        ops(kernel) >= 1,
        "{what}: the merge loop carries its op\n{}",
        kernel.bytecode().disasm()
    );
    assert_eq!(ops(&scalar), 0, "{what}: `simd` off selects no op");
    let total = scalar.clone().run().expect("the unbudgeted run completes").stmts;
    let unbudgeted = observe(&scalar, Engine::Bytecode, None);
    for budget in (0..=total).map(Some).chain([None]) {
        let at = format!("{what} under a budget of {budget:?}");
        let want = observe(&scalar, Engine::Bytecode, budget);
        assert_eq!(observe(kernel, Engine::Bytecode, budget), want, "{at}: with the op");
        assert_eq!(observe(kernel, Engine::TreeWalk, budget), want, "{at}: on the tree-walker");
        let completes = budget.is_none_or(|b| b >= total);
        assert_eq!(want.starts_with("Ok("), completes, "{at}: {want}");
        assert!(completes || want.starts_with("Err(StepBudgetExceeded"), "{at}: {want}");
        if completes {
            assert_eq!(want, unbudgeted, "{at}");
        }
    }
}

#[test]
fn sparse_dot_agrees_under_every_budget_on_every_operand_pair() {
    for (what, a, b) in operand_pairs() {
        let a = Tensor::sparse_list_vector("A", &vector(&a));
        let b = Tensor::sparse_list_vector("B", &vector(&b));
        sweep(&common::dot_kernel(&a, &b, Protocol::Walk, Protocol::Walk), &format!("dot, {what}"));
    }
}

#[test]
fn sparse_output_product_agrees_under_every_budget_on_every_operand_pair() {
    for (what, a, b) in operand_pairs() {
        let a = Tensor::sparse_list_vector("A", &vector(&a));
        let b = Tensor::sparse_list_vector("B", &vector(&b));
        sweep(&ewise_mul_kernel(&a, &b, true), &format!("ewise, {what}"));
    }
}

/// Fig. 7's two-finger SpMSpV: every first operand is a row of one CSR
/// matrix (empty rows among them), every second operand in turn is `x`.
#[test]
fn two_finger_spmspv_agrees_under_every_budget_on_every_operand_pair() {
    let pairs = operand_pairs();
    let rows: Vec<f64> = pairs.iter().flat_map(|(_, a, _)| vector(a)).collect();
    let matrix = Tensor::csr_matrix("A", pairs.len(), N, &rows);
    for (what, _, x) in &pairs {
        let x = Tensor::sparse_list_vector("x", &vector(x));
        let kernel = common::spmspv_kernel(&matrix, &x, Protocol::Walk, Protocol::Walk);
        sweep(&kernel, &format!("spmspv, x = {what}"));
    }
}

/// Fig. 7's VBL SpMSpV, the run-ahead's block form: each row of one VBL
/// matrix is a set of blocks — length-1 blocks, blocks at coordinate 0 and
/// at `N - 1`, blocks as close as `vbl_matrix` keeps them apart (one zero
/// between; touching runs are one block), one long block, an empty row —
/// and `x` in turn sits at every block's start − 1, start, end and end + 1,
/// everywhere, or nowhere.
#[test]
fn vbl_spmspv_agrees_under_every_budget_on_every_operand_pair() {
    let rows: [&[(usize, usize)]; 6] = [
        &[(3, 3), (7, 7), (12, 12)],
        &[(0, 2), (20, N - 1)],
        &[(4, 5), (7, 9), (11, 11)],
        &[],
        &[(5, 18)],
        &[(0, 0), (N - 1, N - 1)],
    ];
    let mut dense = vec![0.0; rows.len() * N];
    for (r, blocks) in rows.iter().enumerate() {
        for &(first, last) in *blocks {
            for c in first..=last {
                dense[r * N + c] = 0.5 + (r * N + c) as f64;
            }
        }
    }
    let matrix = Tensor::vbl_matrix("A", rows.len(), N, &dense);
    let blocks = || rows.iter().flat_map(|blocks| blocks.iter().copied());
    let at = |coord: fn((usize, usize)) -> Option<usize>| {
        let mut coords: Vec<usize> = blocks().filter_map(coord).filter(|&c| c < N).collect();
        coords.sort_unstable();
        coords.dedup();
        coords
    };
    let xs = [
        ("empty", vec![]),
        ("at every block start - 1", at(|(first, _)| first.checked_sub(1))),
        ("at every block start", at(|(first, _)| Some(first))),
        ("at every block end", at(|(_, last)| Some(last))),
        ("at every block end + 1", at(|(_, last)| Some(last + 1))),
        ("everywhere", (0..N).collect()),
    ];
    for (what, x) in xs {
        let x = Tensor::sparse_list_vector("x", &vector(&x));
        let kernel = common::spmspv_kernel(&matrix, &x, Protocol::Walk, Protocol::Walk);
        assert!(
            skips(&kernel, |form| matches!(form, MergeForm::Blocks { .. })),
            "the block form\n{}",
            kernel.bytecode().disasm()
        );
        sweep(&kernel, &format!("vbl spmspv, x {what}"));
    }
}

/// The galloped `dot`: both fingers jump, the later stride leads and the
/// other seeks to it — the op's jumper form.
#[test]
fn gallop_dot_agrees_under_every_budget_on_every_operand_pair() {
    for (what, a, b) in operand_pairs().into_iter().chain(jumper_pairs()) {
        let a = Tensor::sparse_list_vector("A", &vector(&a));
        let b = Tensor::sparse_list_vector("B", &vector(&b));
        let kernel = common::dot_kernel(&a, &b, Protocol::Gallop, Protocol::Gallop);
        assert!(gallops(&kernel), "{what}: the jumper form\n{}", kernel.bytecode().disasm());
        sweep(&kernel, &format!("gallop dot, {what}"));
    }
}

/// Fig. 7's "gallop both" SpMSpV over the rows of the two-finger sweep's
/// matrix (and the jumper pairs'), every second operand in turn `x`.
#[test]
fn gallop_both_spmspv_agrees_under_every_budget_on_every_operand_pair() {
    let pairs: Vec<_> = operand_pairs().into_iter().chain(jumper_pairs()).collect();
    let rows: Vec<f64> = pairs.iter().flat_map(|(_, a, _)| vector(a)).collect();
    let matrix = Tensor::csr_matrix("A", pairs.len(), N, &rows);
    for (what, _, x) in &pairs {
        let x = Tensor::sparse_list_vector("x", &vector(x));
        let kernel = common::spmspv_kernel(&matrix, &x, Protocol::Gallop, Protocol::Gallop);
        assert!(gallops(&kernel), "{what}: the jumper form\n{}", kernel.bytecode().disasm());
        sweep(&kernel, &format!("gallop both spmspv, x = {what}"));
    }
}

/// Fig. 8's galloped triangle count on a small power-law graph: the jumper
/// loop is the innermost of three, entered once per edge.
#[test]
fn gallop_triangles_agree_under_every_budget() {
    let n = 10;
    let adj = datagen::power_law_graph(n, 2, 5);
    let kernel = finch_bench::triangle_kernel(&adj, n, true);
    assert!(gallops(&kernel), "the jumper form\n{}", kernel.bytecode().disasm());
    sweep(&kernel, "gallop triangles");
}

/// Fig. 1's list × band: the list is walked and the band located at each of
/// its coordinates, the lone stepper whose body the gather reduction
/// performs.  The band is each pair's second vector from its first to its
/// last entry: empty, one entry, before, around, inside or after the list.
#[test]
fn list_band_dot_agrees_under_every_budget_on_every_operand_pair() {
    for (what, a, b) in operand_pairs() {
        let a = Tensor::sparse_list_vector("A", &vector(&a));
        let b = Tensor::band_vector("B", &vector(&b));
        let kernel = common::dot_kernel(&a, &b, Protocol::Walk, Protocol::Default);
        assert!(gathers(&kernel), "{what}: the gather reduction\n{}", kernel.bytecode().disasm());
        sweep(&kernel, &format!("list x band dot, {what}"));
    }
}

/// A CSR × dense SpMV: each row of the two-finger sweep's matrix is a lone
/// stepper gathering from `x`, which in turn is every pair's second vector,
/// dense.
#[test]
fn csr_dense_spmv_agrees_under_every_budget_on_every_operand_pair() {
    let pairs = operand_pairs();
    let rows: Vec<f64> = pairs.iter().flat_map(|(_, a, _)| vector(a)).collect();
    let matrix = Tensor::csr_matrix("A", pairs.len(), N, &rows);
    for (what, _, x) in &pairs {
        let x = Tensor::dense_vector("x", &vector(x));
        let kernel = common::spmspv_kernel(&matrix, &x, Protocol::Walk, Protocol::Default);
        assert!(gathers(&kernel), "{what}: the gather reduction\n{}", kernel.bytecode().disasm());
        sweep(&kernel, &format!("csr x dense spmv, x = {what}"));
    }
}

/// Two run-length vectors dotted: the run × run step loop, whose body the
/// two-finger reduction performs on every step but the last.  Every pair's
/// entries are runs of one coordinate between runs of zeros, so the pairs
/// give runs that end together, runs that do not, and one run each.
#[test]
fn run_length_dot_agrees_under_every_budget_on_every_operand_pair() {
    for (what, a, b) in operand_pairs() {
        let a = Tensor::rle_vector("A", &vector(&a));
        let b = Tensor::rle_vector("B", &vector(&b));
        let kernel = common::dot_kernel(&a, &b, Protocol::Default, Protocol::Default);
        assert!(reduces_two(&kernel), "{what}: the reduction\n{}", kernel.bytecode().disasm());
        sweep(&kernel, &format!("run-length dot, {what}"));
    }
}

/// The three ways [`sweep`] runs a kernel: with the op, without it, and on
/// the tree-walker.
fn legs(kernel: &CompiledKernel) -> [(CompiledKernel, Engine); 3] {
    let scalar = kernel
        .reconfigured(&ExecConfig { simd: false, ..kernel.config() })
        .expect("the kernel compiles without kernel ops");
    [
        (kernel.clone(), Engine::Bytecode),
        (scalar, Engine::Bytecode),
        (kernel.clone(), Engine::TreeWalk),
    ]
}

/// What a threshold run left behind: its verdict (with the counters of a run
/// that completes) and the sparse output `C` finalised, its `pos` / `idx` /
/// `val` by `{:?}` (so a NaN kept compares equal to itself).
fn observe_filter(kernel: &mut CompiledKernel, engine: Engine) -> String {
    let verdict = kernel.run_with(engine);
    format!("{verdict:?} {:?}", kernel.output_tensor("C"))
}

/// Run `f` on each leg of `kernel`, require the same observation, and
/// return it.
fn alike(
    kernel: &CompiledKernel,
    what: &str,
    f: impl Fn(&mut CompiledKernel, Engine) -> String,
) -> String {
    let [(mut with_op, bytecode), (mut scalar, _), (mut tree, tree_walk)] = legs(kernel);
    let want = f(&mut scalar, bytecode);
    assert_eq!(f(&mut with_op, bytecode), want, "{what}: with the op");
    assert_eq!(f(&mut tree, tree_walk), want, "{what}: on the tree-walker");
    want
}

/// The stored values of one length-`n` vector: at one coordinate in
/// `one_in`, a value drawn from halves in -3.5..=3.5 (both zeros left
/// unstored), NaN and the infinities.
fn filter_values(n: usize, one_in: u64, rng: &mut u64) -> Vec<f64> {
    let mut draw = |below: u64| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng % below
    };
    (0..n)
        .map(|_| match (draw(one_in), draw(18)) {
            (0, 15) => f64::NAN,
            (0, 16) => f64::INFINITY,
            (0, 17) => f64::NEG_INFINITY,
            (0, k) => k as f64 / 2.0 - 3.5,
            _ => 0.0,
        })
        .collect()
}

/// Whether `kernel` carries the append, on a lone finger.
fn appends(kernel: &CompiledKernel) -> bool {
    let push = |step: &Step| matches!(step, Step::Perform { out: Out::Push { .. }, .. });
    step_ops(kernel).iter().any(|(step, two)| push(step) && !two)
}

/// Fig. S's threshold filter `C[i] = A[i] where A[i] > t` over a sparse
/// list: the empty list, one entry, random lists of every density, under
/// thresholds every value passes, none passes, NaN, both zeros and random.
fn threshold_kernels() -> Vec<(String, CompiledKernel)> {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut lists = vec![("empty".to_string(), vec![0.0; N]), ("one entry".into(), vector(&[9]))];
    for one_in in [1, 2, 3, 5, 8] {
        lists.push((format!("random, one in {one_in}"), filter_values(N, one_in, &mut rng)));
    }
    let thresholds = [-10.0, 10.0, f64::NAN, 0.0, -0.0, 1.0, -1.5];
    let mut kernels = Vec::new();
    for (what, dense) in &lists {
        let a = Tensor::sparse_list_vector("A", dense);
        for t in thresholds {
            let kernel = threshold_kernel(&a, t, true);
            assert!(appends(&kernel), "{what}, > {t}: the append\n{}", kernel.bytecode().disasm());
            kernels.push((format!("threshold > {t}, {what}"), kernel));
        }
    }
    kernels
}

/// The threshold filter with and without the op and on the tree-walker,
/// under every step budget, an injected fault at every statement and every
/// allocation budget from none to twice what the run keeps: the same typed
/// error at the same statement, or the same finalised output and counters.
#[test]
fn threshold_filter_agrees_under_every_budget_fault_and_allocation() {
    for (what, kernel) in threshold_kernels() {
        sweep(&kernel, &what);
        let full = kernel.clone().run().expect("the unbudgeted run completes");
        for at in 1..=full.stmts + 1 {
            alike(&kernel, &format!("{what}, a fault at statement {at}"), |k, engine| {
                k.set_watch(Some(Watch::default().with_fault_at_stmt(at)));
                let ran = catch_unwind(AssertUnwindSafe(|| k.run_with(engine)));
                let verdict = match ran {
                    Ok(verdict) => format!("{verdict:?}"),
                    Err(panic) => panic.downcast_ref::<String>().cloned().unwrap_or_default(),
                };
                format!("{verdict} {:?}", k.output_tensor("C"))
            });
        }
        // Two elements per entry kept, one store each, and one for `pos`.
        let kept = (full.stores - 1) / 2;
        for budget in 0..=2 * kept {
            alike(&kernel, &format!("{what}, an allocation budget of {budget}"), |k, engine| {
                let mut k = k
                    .reconfigured(&ExecConfig { alloc_budget: Some(budget), ..k.config() })
                    .expect("a budget recompiles nothing");
                observe_filter(&mut k, engine)
            });
        }
    }
}

/// Past a deadline, a threshold filter long enough to reach the clock's
/// first check trips alike with the op, without it and on the tree-walker,
/// and one too short to reach it completes alike.
#[test]
fn threshold_filter_agrees_past_a_deadline() {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for (n, one_in) in [(N, 2), (4096, 1), (4096, 3)] {
        let a = Tensor::sparse_list_vector("A", &filter_values(n, one_in, &mut rng));
        for t in [-10.0, 0.0, 1.0] {
            let kernel = threshold_kernel(&a, t, true);
            assert!(appends(&kernel), "the append\n{}", kernel.bytecode().disasm());
            let what = format!("length {n}, > {t}, past a deadline");
            let verdict = alike(&kernel, &what, |k, engine| {
                k.set_watch(Some(Watch::until(Instant::now(), 0)));
                observe_filter(k, engine)
            });
            assert_eq!(verdict.starts_with("Err(Deadline"), n > N, "{what}: {verdict}");
        }
    }
}
