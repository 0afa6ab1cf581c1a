use super::*;

/// Every figure's kernels compiled in linear time — register typing
/// inferred each program once and settled within three visits per basic
/// block — and run alike on both engines.  (`Report::build` asserts the
/// parity again under every configuration; this is the default one, by
/// name.)
#[test]
fn every_figure_builder_produces_runnable_kernels_on_both_engines() {
    for table in figure_tables(true) {
        for mut v in table.variants {
            let what = format!("{} ({}) `{}`", table.figure, table.group, v.label);
            let opt = v.kernel.opt_stats();
            assert!(
                opt.typing_blocks > 0 && opt.typing_block_visits <= 3 * opt.typing_blocks,
                "{what}: typing visited {} blocks {} times",
                opt.typing_blocks,
                opt.typing_block_visits
            );
            assert_engine_parity(&mut v.kernel, &what);
        }
    }
}

#[test]
fn sparse_output_assembly_matches_the_dense_baseline() {
    for g in figs_output_groups(200, 0.08, 11) {
        g.assert_assembly();
    }
}

/// The compile-latency guard, and the workspace's only one: a full
/// `Kernel::compile` and a recompilation under every compile-side
/// configuration must stay far below human-noticeable latency, so new
/// optimiser passes cannot silently blow up compilation time.  The bound
/// is generous so CI machines never flake, while still catching an
/// accidentally quadratic pass.
#[test]
fn kernel_compile_stays_fast_under_every_configuration() {
    use std::time::Instant;
    const BUDGET: f64 = 2.0;

    let n = 32;
    let dense_a = datagen::scientific_matrix(n, 2, 4, 0.004, 7);
    let x_data = fig07_vector(n, Some(0.2), None, 7);
    let a = Tensor::csr_matrix("A", n, n, &dense_a);
    let x = Tensor::sparse_list_vector("x", &x_data);

    let start = Instant::now();
    let kernel = spmspv_kernel(&a, &x, Protocol::Gallop, Protocol::Gallop);
    let full_compile = start.elapsed().as_secs_f64();
    assert!(full_compile < BUDGET, "Kernel::compile took {full_compile:.3}s");

    for config in kernel.config().matrix() {
        let start = Instant::now();
        let k = kernel.reconfigured(&config).expect("recompiles");
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed < BUDGET, "{} took {elapsed:.3}s", config.label());
        assert_eq!(k.config(), config);
    }
}

/// The optimiser must actually shrink the executed program: fewer
/// bytecode instructions and less counted work at `Default` than at
/// `None`, with identical outputs.
#[test]
fn default_opt_level_shrinks_instructions_and_work() {
    use finch::OptLevel;
    let a_data = datagen::counted_sparse_vector(400, 40, 101);
    let b_data = datagen::counted_sparse_vector(400, 40, 102);
    let a = Tensor::sparse_list_vector("A", &a_data);
    let b = Tensor::sparse_list_vector("B", &b_data);
    let opt = dot_kernel(&a, &b, Protocol::Walk, Protocol::Walk);
    let mut none = opt.reoptimized(OptLevel::None);
    let mut opt = opt.reoptimized(OptLevel::Default);
    assert!(
        opt.bytecode().code().len() < none.bytecode().code().len(),
        "default must emit fewer instructions: {} vs {}",
        opt.bytecode().code().len(),
        none.bytecode().code().len()
    );
    let stats = opt.opt_stats();
    assert!(stats.movs_eliminated > 0 && stats.instrs_fused > 0, "{stats:?}");
    let none_stats = none.run().expect("unoptimised kernel runs");
    let opt_stats = opt.run().expect("optimised kernel runs");
    assert!(
        opt_stats.total_work() <= none_stats.total_work(),
        "optimisation must not add work: {opt_stats:?} vs {none_stats:?}"
    );
    let (a, b) = (none.output_scalar("C").unwrap(), opt.output_scalar("C").unwrap());
    assert_eq!(a.to_bits(), b.to_bits(), "outputs must be bit-identical");
}

#[test]
fn spmspv_strategies_agree_with_each_other() {
    let n = 48;
    let xv = fig07_vector(n, None, Some(6), 9);
    let mut outputs = Vec::new();
    for mut v in fig07_variants(n, &xv, 9) {
        v.kernel.run().expect("variant runs");
        outputs.push((v.label, v.kernel.output("y").unwrap()));
    }
    let (first_label, first) = &outputs[0];
    for (label, out) in &outputs[1..] {
        for (a, b) in first.iter().zip(out) {
            assert!((a - b).abs() < 1e-6, "{label} disagrees with {first_label}");
        }
    }
}
