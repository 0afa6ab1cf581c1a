//! Shared helpers for the integration tests: kernel builders for the
//! paper's benchmarks and their programs, the dense meaning every kernel is
//! checked against (`eval`), parity assertions and tolerant float
//! comparison.
#![allow(dead_code)]

/// The kernels of Figs. 1, 7, 10 and 11 (dot product, SpMSpV, alpha blend,
/// all-pairs similarity) and their programs are `finch-bench`'s, and so is
/// the engine-parity assertion.
#[allow(unused_imports)]
pub use finch_bench::{
    all_pairs_kernel, all_pairs_program, assert_engine_parity, blend_kernel, blend_program,
    dot_kernel, dot_program, spmspv_kernel, spmspv_program,
};
use finch_bench::{
    fig01_variants, fig07_variants, fig07_vector, fig08_variants, fig09_variants, fig10_variants,
    fig11_variants, figs_output_groups, outputs, same_outputs, Variant,
};
#[allow(unused_imports)]
pub use looplets_repro::baseline::reference::eval;
use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    Access, CinExpr, CinOp, CinStmt, CompiledKernel, Engine, Kernel, LevelSpec, OptLevel, Protocol,
    Tensor,
};

/// Differential-test a kernel under every compile-side configuration that
/// differs in effect ([`ExecConfig::matrix`]: unoptimised, untyped, typed
/// scalar, typed with kernel ops) on both engines: outputs must be the same
/// for every leg (by `finch::same_f64`: bit-identical but for a NaN's bits),
/// under each configuration the two engines must agree on the `ExecStats`
/// work counters exactly, and at one level every dispatch mode must report
/// the same counters (the typing and vectorize stages are 1:1 rewrites —
/// they may not change any counter).  (The counters may legitimately
/// *shrink* as the level rises — that is what the optimiser is for — so
/// they are never compared across levels.)
pub fn assert_opt_level_parity(kernel: &CompiledKernel, what: &str) {
    let mut reference: Option<Vec<(String, Vec<f64>)>> = None;
    let mut level_stats: Option<(OptLevel, looplets_repro::finch::ExecStats)> = None;
    for config in kernel.config().matrix() {
        let at = config.label();
        let mut k = kernel.reconfigured(&config).expect("the kernel recompiles");
        assert_eq!(k.config(), config);
        assert_engine_parity(&mut k, &format!("{what} under {at}"));
        let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
        let outs = outputs(&k);
        match level_stats {
            Some((level, want)) if level == config.opt => {
                assert_eq!(want, stats, "{what} under {at}: the dispatch mode changed the counters")
            }
            _ => level_stats = Some((config.opt, stats)),
        }
        match &reference {
            None => reference = Some(outs),
            Some(r) => assert!(same_outputs(r, &outs), "{what}: outputs diverge under {at}"),
        }
    }
}

/// `C[] += A[i] * B[i]`'s dense meaning.
pub fn dot_meaning(a: &Tensor, b: &Tensor) -> f64 {
    let program = dot_program(a.name(), b.name(), Protocol::Default, Protocol::Default);
    eval(&program, &[a, b], &[("C", &[], 0.0)]).unwrap()[0][0]
}

/// `y[i] += A[i,j] * x[j]`'s dense meaning.
pub fn spmv_meaning(a: &Tensor, x: &Tensor) -> Vec<f64> {
    let program = spmspv_program(a.name(), x.name(), Protocol::Default, Protocol::Default);
    eval(&program, &[a, x], &[("y", &a.shape()[..1], 0.0)]).unwrap().remove(0)
}

/// Assert two float slices are element-wise equal within a small tolerance.
pub fn assert_close(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length mismatch");
    for (k, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g - e).abs() < 1e-6 * (1.0 + e.abs()),
            "{what}: element {k} differs: got {g}, expected {e}"
        );
    }
}

/// A zero-dimensional tensor read as an expression (e.g. the `o[]` of the
/// all-pairs kernel).
pub fn read_scalar(name: &str) -> CinExpr {
    CinExpr::Access(scalar(name))
}

/// Deterministic data with every `stride`-th entry stored.
pub fn strided(n: usize, stride: usize, phase: usize) -> Vec<f64> {
    (0..n).map(|k| if k % stride == phase { 1.0 + (k % 5) as f64 } else { 0.0 }).collect()
}

/// `y[i] += A[i,j] * x[j]` over a dense `x`.
fn spmv(a: &Tensor) -> CompiledKernel {
    let x = Tensor::dense_vector("x", &strided(a.shape()[1], 1, 0));
    spmspv_kernel(a, &x, Protocol::Default, Protocol::Default)
}

/// `name[i]`.
fn at_i(name: &str) -> Access {
    access(name, [idx("i")])
}

/// A probe kernel, and its one output's value by its program's dense
/// meaning.
pub struct Probe {
    /// The compiled kernel.
    pub kernel: CompiledKernel,
    /// [`eval`] of its program: the output's expected values.
    pub meaning: Vec<f64>,
}

/// Compile `forall i: body` over `inputs` into the output `out` of `levels`
/// (none: a scalar).
fn probe(inputs: &[&Tensor], out: &str, levels: &[LevelSpec], body: CinStmt) -> Probe {
    let program = forall(idx("i"), body);
    let shape: Vec<usize> = levels.iter().map(LevelSpec::size).collect();
    let meaning = eval(&program, inputs, &[(out, &shape, 0.0)]).expect("the probe means");
    let mut kernel = Kernel::new();
    for input in inputs {
        kernel.bind_input(input);
    }
    kernel.bind_output_format(out, levels);
    let kernel = kernel.compile(&program).expect("the probe compiles");
    Probe { kernel, meaning: meaning.into_iter().next().expect("one output") }
}

/// `C[] op= A[i]`: a plain reduction (over a dense `A`, the loop
/// `v_reduce_f64` runs).
pub fn probe_reduce(a: &Tensor, op: CinOp) -> Probe {
    probe(&[a], "C", &[], reduce_assign(scalar("C"), op, at_i("A")))
}

/// `y[i] = A[i]` wherever `cond` holds.
fn probe_sieve(a: &Tensor, b: &Tensor, cond: CinExpr) -> Probe {
    let levels = [LevelSpec::Dense { size: a.shape()[0] }];
    probe(&[a, b], "y", &levels, sieve(cond, assign(at_i("y"), at_i("A"))))
}

/// `sieve(A[i] > B[i], y[i] = A[i])`: a comparison of two loaded floats
/// (over two dense vectors, `f_cmp_branch`).
pub fn probe_sieve_gt(a: &Tensor, b: &Tensor) -> Probe {
    probe_sieve(a, b, gt(at_i("A"), at_i("B")))
}

/// `sieve(A[i] > 2 || B[i] > 1, y[i] = A[i])`: the one condition that
/// short-circuits on a true operand (`jump_if_true`).
pub fn probe_sieve_or(a: &Tensor, b: &Tensor) -> Probe {
    let either = vec![gt(at_i("A"), lit(2.0)), gt(at_i("B"), lit(1.0))];
    probe_sieve(a, b, CinExpr::call(CinOp::Or, either))
}

/// `sieve(A[i] > 2, S[i] = A[i])` into a `SparseList` output (over a dense
/// `A`, the guarded `v_append_range_f64`).
pub fn probe_threshold(a: &Tensor) -> Probe {
    let levels = [LevelSpec::SparseList { size: a.shape()[0] }];
    probe(&[a], "S", &levels, sieve(gt(at_i("A"), lit(2.0)), assign(at_i("S"), at_i("A"))))
}

/// `y[i] += A[i] * 0.75`: a literal scale (`f_arith_imm`).
pub fn probe_axpy(a: &Tensor) -> Probe {
    let levels = [LevelSpec::Dense { size: a.shape()[0] }];
    probe(&[a], "y", &levels, add_assign(at_i("y"), mul(at_i("A"), lit(0.75))))
}

/// The corpus `codegen_identity` records and `isa_reach` takes its census
/// over, each kernel compiled at the default level: every `finch-bench`
/// figure builder at tiny sizes (the two sparse-output kernels among them),
/// one program per input format or protocol the figures leave out
/// (PackBits, Bitmap, Triangular, Symmetric, Ragged, `locate`), and one
/// probe per opcode nothing else reaches.
pub fn corpus() -> Vec<(String, CompiledKernel)> {
    let mut out: Vec<(String, CompiledKernel)> = Vec::new();
    let mut figure = |fig: &str, variants: Vec<Variant>| {
        for v in variants {
            out.push((format!("{fig}/{}", v.label), v.kernel));
        }
    };
    for (_, variants) in fig01_variants(200, 20, &[8]) {
        figure("fig01", variants);
    }
    figure("fig07", fig07_variants(32, &fig07_vector(32, Some(0.2), None, 7), 7));
    figure("fig08", fig08_variants(24, 2, 3));
    for (_, variants) in fig09_variants(12, 3, &[0.1]) {
        figure("fig09", variants);
    }
    figure("fig10", fig10_variants(16, false, 5));
    figure("fig11", fig11_variants(3, 8, "mnist"));
    for (g, group) in figs_output_groups(128, 0.05, 5).into_iter().enumerate() {
        figure(&format!("figS{g}"), group.variants);
    }

    let square = strided(64, 3, 0);
    let list = Tensor::sparse_list_vector("B", &strided(64, 4, 1));
    let dot = |a: &Tensor, at: Protocol| dot_kernel(a, &list, Protocol::Default, at);
    let extras = [
        ("spmv_packbits", spmv(&Tensor::packbits_matrix("A", 1, 64, &strided(64, 7, 2)))),
        ("spmv_triangular", spmv(&Tensor::triangular_matrix("A", 8, &square))),
        ("spmv_symmetric", spmv(&Tensor::symmetric_matrix("A", 8, &square))),
        ("spmv_ragged", spmv(&Tensor::ragged_matrix("A", 8, 8, &square))),
        ("dot_bitmap", dot(&Tensor::bitmap_vector("A", &strided(64, 3, 1)), Protocol::Walk)),
        ("dot_locate", dot(&Tensor::sparse_list_vector("A", &strided(64, 3, 1)), Protocol::Locate)),
    ];
    out.extend(extras.map(|(name, kernel)| (format!("extra/{name}"), kernel)));

    let a = Tensor::dense_vector("A", &strided(64, 3, 1));
    let b = Tensor::dense_vector("B", &strided(64, 4, 1));
    let probes = [
        ("dense_sum", probe_reduce(&a, CinOp::Add)),
        ("sieve_gt", probe_sieve_gt(&a, &b)),
        ("sieve_or", probe_sieve_or(&a, &b)),
        ("threshold_sparse_out", probe_threshold(&a)),
        ("axpy_literal", probe_axpy(&a)),
    ];
    out.extend(probes.map(|(name, probe)| (format!("probe/{name}"), probe.kernel)));
    out
}
