//! Shared helpers for the integration tests: kernel builders for the
//! paper's benchmarks, and tolerant float comparison.
#![allow(dead_code)]

/// The kernels of Figs. 1, 7, 10 and 11 (dot product, SpMSpV, alpha blend,
/// all-pairs similarity) are `finch-bench`'s.
#[allow(unused_imports)]
pub use finch_bench::{all_pairs_kernel, blend_kernel, dot_kernel, spmspv_kernel};
use finch_bench::{
    fig01_variants, fig07_variants, fig07_vector, fig08_variants, fig09_variants, fig10_variants,
    fig11_variants, figs_output_groups, Variant,
};
use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    Access, CinExpr, CinOp, CinStmt, CompiledKernel, Engine, IndexExpr, IndexVar, Kernel,
    LevelSpec, OptLevel, Protocol, Tensor,
};

/// Run a compiled kernel on both execution engines and panic unless the
/// outputs **and** the `ExecStats` work counters are bit-identical (the
/// bytecode VM is differential-tested against the tree-walking oracle).
pub fn assert_engine_parity(kernel: &mut CompiledKernel, what: &str) {
    let tw_stats = kernel.run_with(Engine::TreeWalk).expect("tree-walk runs");
    let tw_outs: Vec<(String, Vec<u64>)> = kernel
        .output_names()
        .into_iter()
        .map(|n| {
            let bits = kernel.output(&n).unwrap().iter().map(|x| x.to_bits()).collect();
            (n, bits)
        })
        .collect();
    let bc_stats = kernel.run_with(Engine::Bytecode).expect("bytecode runs");
    assert_eq!(tw_stats, bc_stats, "{what}: work counters diverge");
    for (name, tw_bits) in tw_outs {
        let bc_bits: Vec<u64> = kernel.output(&name).unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(tw_bits, bc_bits, "{what}: output {name} is not bit-identical");
    }
}

/// Differential-test a kernel under every compile-side configuration that
/// differs in effect ([`ExecConfig::matrix`]: unoptimised, untyped, typed
/// scalar, typed with kernel ops) on both engines: outputs must be
/// bit-identical for every leg, under each configuration the two engines
/// must agree on the `ExecStats` work counters exactly, and at one level
/// every dispatch mode must report the same counters (the typing and
/// vectorize stages are 1:1 rewrites — they may not change any counter).
/// (The counters may legitimately *shrink* as the level rises — that is
/// what the optimiser is for — so they are never compared across levels.)
pub fn assert_opt_level_parity(kernel: &CompiledKernel, what: &str) {
    /// Bit-patterns of every output, keyed by output name.
    type OutputBits = Vec<(String, Vec<u64>)>;
    let mut reference: Option<OutputBits> = None;
    let mut level_stats: Option<(OptLevel, looplets_repro::finch::ExecStats)> = None;
    for config in kernel.config().matrix() {
        let at = config.label();
        let mut k = kernel.reconfigured(&config).expect("the kernel recompiles");
        assert_eq!(k.config(), config);
        assert_engine_parity(&mut k, &format!("{what} under {at}"));
        let stats = k.run_with(Engine::Bytecode).expect("bytecode runs");
        let outs: OutputBits = k
            .output_names()
            .into_iter()
            .map(|n| {
                let bits = k.output(&n).unwrap().iter().map(|x| x.to_bits()).collect();
                (n, bits)
            })
            .collect();
        match level_stats {
            Some((level, want)) if level == config.opt => {
                assert_eq!(want, stats, "{what} under {at}: the dispatch mode changed the counters")
            }
            _ => level_stats = Some((config.opt, stats)),
        }
        match &reference {
            None => reference = Some(outs),
            Some(r) => assert_eq!(r, &outs, "{what}: outputs diverge under {at}"),
        }
    }
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

/// Compile the triangle counting kernel
/// `C[] += A[i,j] * A2[j,k] * At[i,k]` (the paper transposes the last
/// argument so that every access is concordant).
pub fn triangle_kernel(a: &Tensor, a2: &Tensor, at: &Tensor, gallop: bool) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(a2).bind_input(at).bind_output_scalar("C");
    let (i, j, k) = (idx("i"), idx("j"), idx("k"));
    let inner = |v: &IndexVar| if gallop { v.gallop() } else { v.walk() };
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            forall(
                k.clone(),
                add_assign(
                    scalar("C"),
                    mul3(
                        access(a.name(), [IndexExpr::from(i.clone()), IndexExpr::from(j.clone())]),
                        access(a2.name(), [IndexExpr::from(j), inner(&k)]),
                        access(at.name(), [IndexExpr::from(i), inner(&k)]),
                    ),
                ),
            ),
        ),
    );
    kernel.compile(&program).expect("triangle kernel compiles")
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

/// Compile `forall i: body` over `inputs` into the output `out` of `levels`
/// (none: a scalar).
fn probe(inputs: &[&Tensor], out: &str, levels: &[LevelSpec], body: CinStmt) -> CompiledKernel {
    let mut kernel = Kernel::new();
    for input in inputs {
        kernel.bind_input(input);
    }
    kernel.bind_output_format(out, levels);
    kernel.compile(&forall(idx("i"), body)).expect("the probe compiles")
}

/// `C[] op= A[i]`: a plain reduction (over a dense `A`, the loop
/// `v_reduce_f64` runs).
pub fn probe_reduce(a: &Tensor, op: CinOp) -> CompiledKernel {
    probe(&[a], "C", &[], reduce_assign(scalar("C"), op, at_i("A")))
}

/// `y[i] = A[i]` wherever `cond` holds.
fn probe_sieve(a: &Tensor, b: &Tensor, cond: CinExpr) -> CompiledKernel {
    let levels = [LevelSpec::Dense { size: a.shape()[0] }];
    probe(&[a, b], "y", &levels, sieve(cond, assign(at_i("y"), at_i("A"))))
}

/// `sieve(A[i] > B[i], y[i] = A[i])`: a comparison of two loaded floats
/// (over two dense vectors, `f_cmp_branch`).
pub fn probe_sieve_gt(a: &Tensor, b: &Tensor) -> CompiledKernel {
    probe_sieve(a, b, gt(at_i("A"), at_i("B")))
}

/// `sieve(A[i] > 2 || B[i] > 1, y[i] = A[i])`: the one condition that
/// short-circuits on a true operand (`jump_if_true`).
pub fn probe_sieve_or(a: &Tensor, b: &Tensor) -> CompiledKernel {
    let either = vec![gt(at_i("A"), lit(2.0)), gt(at_i("B"), lit(1.0))];
    probe_sieve(a, b, CinExpr::call(CinOp::Or, either))
}

/// `sieve(A[i] > 2, S[i] = A[i])` into a `SparseList` output (over a dense
/// `A`, the guarded `v_append_range_f64`).
pub fn probe_threshold(a: &Tensor) -> CompiledKernel {
    let levels = [LevelSpec::SparseList { size: a.shape()[0] }];
    probe(&[a], "S", &levels, sieve(gt(at_i("A"), lit(2.0)), assign(at_i("S"), at_i("A"))))
}

/// `y[i] += A[i] * 0.75`: a literal scale (`f_arith_imm`).
pub fn probe_axpy(a: &Tensor) -> CompiledKernel {
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
    out.extend(probes.map(|(name, kernel)| (format!("probe/{name}"), kernel)));
    out
}
