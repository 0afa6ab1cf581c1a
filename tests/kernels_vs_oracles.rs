//! The paper's evaluation kernels (Figures 7, 8, 10 and 11) and the
//! corpus' probe kernels, each checked against its program's dense meaning
//! (`finch_baseline::reference::eval`).

mod common;

use common::{
    all_pairs_kernel, all_pairs_program, assert_close, assert_opt_level_parity, blend_kernel,
    blend_program, eval, probe_axpy, probe_reduce, probe_sieve_gt, probe_sieve_or, probe_threshold,
    spmspv_kernel, spmv_meaning, Probe,
};
use looplets_repro::baseline::datagen;
use looplets_repro::finch::{CinOp, Protocol, Tensor};

#[test]
fn spmspv_all_strategies_match_the_dense_oracle() {
    let n = 48;
    let dense_a = datagen::scientific_matrix(n, 2, 3, 0.01, 41);
    let xv = datagen::random_sparse_vector(n, 0.2, 42);

    let strategies: Vec<(&str, Tensor, Protocol, Protocol)> = vec![
        ("csr-follower", Tensor::csr_matrix("A", n, n, &dense_a), Protocol::Walk, Protocol::Walk),
        ("csr-leader", Tensor::csr_matrix("A", n, n, &dense_a), Protocol::Gallop, Protocol::Walk),
        (
            "csr-gallop-both",
            Tensor::csr_matrix("A", n, n, &dense_a),
            Protocol::Gallop,
            Protocol::Gallop,
        ),
        ("vbl", Tensor::vbl_matrix("A", n, n, &dense_a), Protocol::Walk, Protocol::Walk),
        (
            "dense-locate",
            Tensor::dense_matrix("A", n, n, &dense_a),
            Protocol::Locate,
            Protocol::Walk,
        ),
    ];
    let x_sparse = Tensor::sparse_list_vector("x", &xv);
    for (name, a, pa, px) in strategies {
        let mut k = spmspv_kernel(&a, &x_sparse, pa, px);
        k.run().unwrap_or_else(|e| panic!("{name} failed to run: {e}\n{}", k.code()));
        assert_close(&k.output("y").unwrap(), &spmv_meaning(&a, &x_sparse), name);
    }
}

#[test]
fn spmspv_with_very_sparse_x_skips_most_of_the_matrix() {
    // Figure 7b's situation: x has a constant number of nonzeros, so a
    // strategy that leads with x (or can randomly access A's rows) should do
    // much less work than scanning all of A.
    let n = 96;
    let dense_a = datagen::scientific_matrix(n, 2, 2, 0.01, 43);
    let xv = datagen::counted_sparse_vector(n, 4, 44);
    let x = Tensor::sparse_list_vector("x", &xv);

    let a_walk = Tensor::csr_matrix("A", n, n, &dense_a);
    let expect = spmv_meaning(&a_walk, &x);
    let mut follower = spmspv_kernel(&a_walk, &x, Protocol::Walk, Protocol::Walk);
    let follower_stats = follower.run().expect("follower runs");
    assert_close(&follower.output("y").unwrap(), &expect, "follower");

    let a_gallop = Tensor::csr_matrix("A", n, n, &dense_a);
    let mut gallop = spmspv_kernel(&a_gallop, &x, Protocol::Gallop, Protocol::Gallop);
    let gallop_stats = gallop.run().expect("gallop runs");
    assert_close(&gallop.output("y").unwrap(), &expect, "gallop");

    assert!(
        gallop_stats.loop_iters < follower_stats.loop_iters,
        "galloping should visit fewer positions when x is very sparse: {} vs {}",
        gallop_stats.loop_iters,
        follower_stats.loop_iters
    );
}

#[test]
fn triangle_counting_matches_the_merge_oracle() {
    let n = 40;
    let adj = datagen::power_law_graph(n, 3, 45);
    // The graph is undirected, so `At`, the pre-transposed last argument, is
    // the adjacency matrix itself.
    let inputs = ["A", "A2", "At"].map(|name| Tensor::csr_matrix(name, n, n, &adj));
    let [a, a2, at] = &inputs;
    let meaning = eval(&finch_bench::triangle_program(false), &[a, a2, at], &[("C", &[], 0.0)]);
    let expect = meaning.unwrap()[0][0];

    for gallop in [false, true] {
        let mut k = finch_bench::triangle_kernel(&adj, n, gallop);
        k.run().unwrap_or_else(|e| panic!("triangle kernel failed: {e}\n{}", k.code()));
        let got = k.output_scalar("C").unwrap();
        assert!(
            (got - expect).abs() < 1e-9,
            "triangles (gallop={gallop}): got {got}, expected {expect}"
        );
    }
}

#[test]
fn alpha_blending_matches_the_dense_oracle_across_formats() {
    let size = 24;
    let b_img = datagen::stroke_image(size, 2, 46);
    let c_img = datagen::stroke_image(size, 3, 47);
    let (alpha, beta) = (0.6, 0.4);

    let cases: Vec<(&str, Tensor, Tensor)> = vec![
        (
            "dense",
            Tensor::dense_matrix("B", size, size, &b_img),
            Tensor::dense_matrix("Cimg", size, size, &c_img),
        ),
        (
            "sparse-list",
            Tensor::csr_matrix("B", size, size, &b_img),
            Tensor::csr_matrix("Cimg", size, size, &c_img),
        ),
        (
            "rle",
            Tensor::rle_matrix("B", size, size, &b_img),
            Tensor::rle_matrix("Cimg", size, size, &c_img),
        ),
        (
            "packbits",
            Tensor::packbits_matrix("B", size, size, &b_img),
            Tensor::packbits_matrix("Cimg", size, size, &c_img),
        ),
    ];
    for (name, b, c) in cases {
        let mut k = blend_kernel(&b, &c, alpha, beta);
        k.run().unwrap_or_else(|e| panic!("blend {name} failed to run: {e}"));
        let expect = blend_meaning(&b, &c, alpha, beta);
        assert_close(&k.output("A").unwrap(), &expect, &format!("alpha blend over {name}"));
    }
}

/// `A[i,j] = round(α·B[i,j] + β·C[i,j])`'s dense meaning.
fn blend_meaning(b: &Tensor, c: &Tensor, alpha: f64, beta: f64) -> Vec<f64> {
    let program = blend_program(b.name(), c.name(), alpha, beta);
    eval(&program, &[b, c], &[("A", &b.shape(), 0.0)]).unwrap().remove(0)
}

#[test]
fn rle_blending_of_flat_images_does_less_work_than_dense() {
    // Two images that are mostly flat: RLE processes runs, the dense kernel
    // processes pixels.
    let size = 32;
    let mut b_img = vec![10.0; size * size];
    let mut c_img = vec![200.0; size * size];
    for k in 0..size {
        b_img[k * size + k] = 55.0;
        c_img[k * size + (size - 1 - k)] = 77.0;
    }
    let dense_b = Tensor::dense_matrix("B", size, size, &b_img);
    let dense_c = Tensor::dense_matrix("Cimg", size, size, &c_img);
    let expect = blend_meaning(&dense_b, &dense_c, 0.5, 0.5);
    let mut dense_kernel = blend_kernel(&dense_b, &dense_c, 0.5, 0.5);
    let dense_stats = dense_kernel.run().expect("dense blend runs");
    assert_close(&dense_kernel.output("A").unwrap(), &expect, "dense blend");

    let rle_b = Tensor::rle_matrix("B", size, size, &b_img);
    let rle_c = Tensor::rle_matrix("Cimg", size, size, &c_img);
    let mut rle_kernel = blend_kernel(&rle_b, &rle_c, 0.5, 0.5);
    let rle_stats = rle_kernel.run().expect("rle blend runs");
    assert_close(&rle_kernel.output("A").unwrap(), &expect, "rle blend");

    // NOTE: the output is still written densely, so the win shows up in
    // loads (input traffic), not in stores.
    assert!(
        rle_stats.loads < dense_stats.loads,
        "RLE blending should read fewer values: {} vs {}",
        rle_stats.loads,
        dense_stats.loads
    );
}

#[test]
fn all_pairs_similarity_matches_the_dense_oracle() {
    let count = 6;
    let size = 12;
    let batch = datagen::image_batch(count, size, 48, datagen::blob_image);
    let m = size * size;

    for (name, a, a2) in [
        (
            "sparse-list",
            Tensor::csr_matrix("A", count, m, &batch),
            Tensor::csr_matrix("A2", count, m, &batch),
        ),
        (
            "vbl",
            Tensor::vbl_matrix("A", count, m, &batch),
            Tensor::vbl_matrix("A2", count, m, &batch),
        ),
        (
            "rle",
            Tensor::rle_matrix("A", count, m, &batch),
            Tensor::rle_matrix("A2", count, m, &batch),
        ),
    ] {
        let mut k = all_pairs_kernel(&a, &a2);
        k.run().unwrap_or_else(|e| panic!("all-pairs {name} failed to run: {e}"));
        let outputs = [("R", &[count][..], 0.0), ("O", &[count, count], 0.0), ("o", &[], 0.0)];
        let meaning = eval(&all_pairs_program("A", "A2"), &[&a, &a2], &outputs).unwrap();
        assert_close(&k.output("O").unwrap(), &meaning[1], &format!("all-pairs over {name}"));
    }
}

/// Lengths that leave a vectorized loop nothing, only its scalar tail, one
/// bulk iteration, an odd bulk, and whole unrolled blocks.
const PROBE_LENGTHS: [usize; 5] = [0, 1, 2, 9, 64];

/// Values in `0.0..=5.0` in halves, every third one (from `phase`) zero.
fn probe_data(n: usize, phase: usize) -> Vec<f64> {
    (0..n).map(|k| if k % 3 == phase { 0.0 } else { ((k * 7 + phase) % 11) as f64 * 0.5 }).collect()
}

/// Every configuration and both engines agree, and the output is the
/// probe's dense meaning.
fn check_probe(probe: Probe, output: &str, what: &str) {
    let Probe { mut kernel, meaning } = probe;
    assert_opt_level_parity(&kernel, what);
    kernel.run().unwrap_or_else(|e| panic!("{what} failed to run: {e}\n{}", kernel.code()));
    assert_close(&kernel.output(output).unwrap(), &meaning, what);
}

#[test]
fn one_operand_probes_match_their_loops_at_every_length() {
    for n in PROBE_LENGTHS {
        let a = Tensor::dense_vector("A", &probe_data(n, 1));
        check_probe(probe_reduce(&a, CinOp::Add), "C", &format!("sum, n = {n}"));
        check_probe(probe_reduce(&a, CinOp::Max), "C", &format!("max, n = {n}"));
        check_probe(probe_axpy(&a), "y", &format!("axpy, n = {n}"));
        check_probe(probe_threshold(&a), "S", &format!("threshold, n = {n}"));
    }
}

#[test]
fn two_operand_and_disjunctive_sieves_match_their_loops_across_formats() {
    type Build = fn(&str, &[f64]) -> Tensor;
    let formats: [(&str, Build); 3] = [
        ("dense", |name, data| Tensor::dense_vector(name, data)),
        ("sparse-list", |name, data| Tensor::sparse_list_vector(name, data)),
        ("bitmap", |name, data| Tensor::bitmap_vector(name, data)),
    ];
    for n in PROBE_LENGTHS {
        let (av, bv) = (probe_data(n, 0), probe_data(n, 1));
        for (a_name, a_build) in formats {
            for (b_name, b_build) in formats {
                let (a, b) = (a_build("A", &av), b_build("B", &bv));
                let over = format!("{a_name} x {b_name}, n = {n}");
                check_probe(probe_sieve_gt(&a, &b), "y", &format!("A > B over {over}"));
                check_probe(probe_sieve_or(&a, &b), "y", &format!("or-sieve over {over}"));
            }
        }
    }
}
