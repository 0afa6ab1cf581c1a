//! Differential tests between the two execution engines: every kernel of
//! the five `examples/` (and the remaining figure kernels) must produce
//! bit-identical outputs **and** bit-identical `ExecStats` work counters on
//! the tree-walking interpreter and the flat register bytecode VM.

mod common;

use common::assert_engine_parity;
use looplets_repro::baseline::datagen;
use looplets_repro::finch::Protocol;
use looplets_repro::finch::{Engine, ExecConfig, Tensor};

/// The quickstart example: sparse list × sparse band dot product.
#[test]
fn quickstart_dot_list_x_band_parity() {
    let a_data = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
    let b_data = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
    let a = Tensor::sparse_list_vector("A", &a_data);
    let b = Tensor::band_vector("B", &b_data);
    let mut k = common::dot_kernel(&a, &b, Protocol::Default, Protocol::Default);
    assert_engine_parity(&mut k, "quickstart");
}

/// The galloping example: gallop × gallop sparse dot product (exercises the
/// Seek instruction).
#[test]
fn galloping_dot_parity() {
    let a_data = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
    let b_data = vec![0.0, 0.0, 0.0, 3.7, 0.0, 9.2, 0.0, 8.7, 0.0, 0.0, 5.0];
    let a = Tensor::sparse_list_vector("A", &a_data);
    let b = Tensor::sparse_list_vector("B", &b_data);
    let mut k = common::dot_kernel(&a, &b, Protocol::Gallop, Protocol::Gallop);
    let stats = k.run().unwrap();
    assert!(stats.searches > 0, "galloping must binary search");
    assert_engine_parity(&mut k, "galloping");
}

/// The spmspv example: CSR matrix times sparse vector, all protocol
/// combinations of Figure 7.
#[test]
fn spmspv_parity_across_protocols() {
    let n = 48;
    let dense_a = datagen::scientific_matrix(n, 2, 4, 0.004, 42);
    let xv = datagen::counted_sparse_vector(n, 6, 9);
    let a = Tensor::csr_matrix("A", n, n, &dense_a);
    let x = Tensor::sparse_list_vector("x", &xv);
    for (pa, px) in [
        (Protocol::Walk, Protocol::Walk),
        (Protocol::Gallop, Protocol::Walk),
        (Protocol::Walk, Protocol::Gallop),
        (Protocol::Gallop, Protocol::Gallop),
    ] {
        let mut k = common::spmspv_kernel(&a, &x, pa, px);
        assert_engine_parity(&mut k, &format!("spmspv {pa:?}/{px:?}"));
    }
}

/// The convolution example: masked sparse convolution (exercises `permit`,
/// missing propagation and `coalesce` on both engines).
#[test]
fn convolution_parity_dense_and_sparse() {
    let size = 14;
    let ksize = 3;
    let grid = datagen::sparse_grid(size, size, 0.12, 77);
    let filter: Vec<f64> = (0..ksize * ksize).map(|v| 0.5 + (v % 5) as f64 * 0.1).collect();
    for sparse in [false, true] {
        let mut k = finch_bench::conv_kernel(&grid, size, ksize, &filter, sparse);
        assert_engine_parity(&mut k, if sparse { "conv sparse" } else { "conv dense" });
    }
}

/// The image blend example: `A = round(αB + βC)` over dense, CSR and RLE
/// formats (exercises the Round unary and plain stores).
#[test]
fn image_blend_parity_across_formats() {
    let size = 16;
    let fg = datagen::stroke_image(size, 3, 5);
    let bg = datagen::stroke_image(size, 2, 6);
    type MatrixBuilder = fn(&str, usize, usize, &[f64]) -> Tensor;
    let builders: [(&str, MatrixBuilder); 3] = [
        ("dense", |n, r, c, d| Tensor::dense_matrix(n, r, c, d)),
        ("csr", |n, r, c, d| Tensor::csr_matrix(n, r, c, d)),
        ("rle", |n, r, c, d| Tensor::rle_matrix(n, r, c, d)),
    ];
    for (fmt, build) in builders {
        let b = build("B", size, size, &fg);
        let c = build("Cimg", size, size, &bg);
        let mut k = finch_bench::blend_kernel(&b, &c, 0.6, 0.4);
        assert_engine_parity(&mut k, &format!("blend {fmt}"));
    }
}

/// The remaining figure kernels: triangle counting and all-pairs image
/// similarity (deep loop nests, `where`-bound temporaries, sqrt).
#[test]
fn triangle_and_all_pairs_parity() {
    let adj = datagen::power_law_graph(24, 2, 3);
    for gallop in [false, true] {
        let mut k = finch_bench::triangle_kernel(&adj, 24, gallop);
        assert_engine_parity(&mut k, if gallop { "triangles gallop" } else { "triangles walk" });
    }
    for mut v in finch_bench::fig11_variants(3, 8, "mnist") {
        assert_engine_parity(&mut v.kernel, &format!("all-pairs {}", v.label));
    }
}

/// Sparse output assembly: both engines must append bit-identical
/// `pos`/`idx`/`val` arrays with identical work counters, and the dense
/// materialisation must equal the dense-output run of the same program.
#[test]
fn sparse_output_assembly_parity() {
    for g in finch_bench::figs_output_groups(96, 0.08, 13) {
        let mut dense_results = Vec::new();
        for mut v in g.variants {
            let tw_stats = v.kernel.run_with(Engine::TreeWalk).expect("tree-walk runs");
            let tw_tensor = v.kernel.output_tensor("C").expect("tree-walk output finalizes");
            let bc_stats = v.kernel.run_with(Engine::Bytecode).expect("bytecode runs");
            let bc_tensor = v.kernel.output_tensor("C").expect("bytecode output finalizes");
            assert_eq!(tw_stats, bc_stats, "{}: work counters diverge", v.label);
            assert_eq!(tw_tensor, bc_tensor, "{}: assembled levels diverge", v.label);
            let bits: Vec<(u64, u64)> = tw_tensor
                .values()
                .iter()
                .zip(bc_tensor.values())
                .map(|(a, b)| (a.to_bits(), b.to_bits()))
                .collect();
            assert!(bits.iter().all(|(a, b)| a == b), "{}: values are not bit-identical", v.label);
            dense_results.push(bc_tensor.to_dense());
        }
        // The sparse-output variant materialises to the dense-output run.
        assert_eq!(dense_results[0], dense_results[1], "{}: formats disagree", g.group);
    }
}

/// Every example kernel shape, differential-tested across every opt level
/// and both engines: outputs bit-identical for all (level, engine)
/// combinations, work counters identical across engines at each level.
#[test]
fn opt_levels_preserve_outputs_across_kernel_shapes() {
    let a_data = vec![0.0, 1.9, 0.0, 3.0, 0.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0];
    let b_data = vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0];
    let a = Tensor::sparse_list_vector("A", &a_data);
    let b = Tensor::band_vector("B", &b_data);
    let k = common::dot_kernel(&a, &b, Protocol::Default, Protocol::Default);
    common::assert_opt_level_parity(&k, "dot list x band");

    let bl = Tensor::sparse_list_vector("B", &b_data);
    let k = common::dot_kernel(&a, &bl, Protocol::Gallop, Protocol::Gallop);
    common::assert_opt_level_parity(&k, "galloping dot");

    let n = 32;
    let dense_a = datagen::scientific_matrix(n, 2, 4, 0.004, 42);
    let xv = datagen::counted_sparse_vector(n, 6, 9);
    let am = Tensor::csr_matrix("A", n, n, &dense_a);
    let x = Tensor::sparse_list_vector("x", &xv);
    let k = common::spmspv_kernel(&am, &x, Protocol::Walk, Protocol::Walk);
    common::assert_opt_level_parity(&k, "spmspv");

    let size = 12;
    let grid = datagen::sparse_grid(size, size, 0.12, 77);
    let filter: Vec<f64> = (0..9).map(|v| 0.5 + (v % 5) as f64 * 0.1).collect();
    let k = finch_bench::conv_kernel(&grid, size, 3, &filter, true);
    common::assert_opt_level_parity(&k, "masked sparse convolution");

    let fg = datagen::stroke_image(16, 3, 5);
    let bg = datagen::stroke_image(16, 2, 6);
    let k = finch_bench::blend_kernel(
        &Tensor::rle_matrix("B", 16, 16, &fg),
        &Tensor::rle_matrix("Cimg", 16, 16, &bg),
        0.6,
        0.4,
    );
    common::assert_opt_level_parity(&k, "RLE alpha blend");
}

/// Sparse output assembly across configurations: the assembled `pos`/`idx`/
/// `val` arrays (not just the dense materialisation) must be identical
/// under every compile-side configuration on both engines.
#[test]
fn opt_levels_preserve_sparse_output_assembly() {
    for g in finch_bench::figs_output_groups(96, 0.08, 13) {
        for v in g.variants {
            let mut reference = None;
            for config in v.kernel.config().matrix() {
                let mut k = v.kernel.reconfigured(&config).expect("the kernel recompiles");
                for engine in [Engine::TreeWalk, Engine::Bytecode] {
                    k.run_with(engine).expect("kernel runs");
                    let t = k.output_tensor("C").expect("output finalizes");
                    match &reference {
                        None => reference = Some(t),
                        Some(r) => assert_eq!(
                            r,
                            &t,
                            "{}: assembly diverges under {} on {engine:?}",
                            v.label,
                            config.label()
                        ),
                    }
                }
            }
        }
    }
}

/// A step budget interrupts both engines at the same statement count.
#[test]
fn step_budget_trips_identically_on_both_engines() {
    let a = Tensor::dense_vector("A", &vec![1.0; 128]);
    let b = Tensor::dense_vector("B", &vec![2.0; 128]);
    let k = common::dot_kernel(&a, &b, Protocol::Default, Protocol::Default);
    let mut k = k.reconfigured(&ExecConfig { step_budget: Some(50), ..k.config() }).unwrap();
    let tw = k.run_with(Engine::TreeWalk).unwrap_err();
    let bc = k.run_with(Engine::Bytecode).unwrap_err();
    assert_eq!(format!("{tw}"), format!("{bc}"));
}
