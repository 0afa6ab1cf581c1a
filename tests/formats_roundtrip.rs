//! Experiment E8 (paper Figure 3): every level format can be iterated by
//! the compiler and produces exactly the same values as the program's dense
//! meaning, both on its own (a reduction) and when coiterated with other
//! formats (a dot product / SpMV).

mod common;

use common::{assert_close, dot_kernel, dot_meaning, eval, spmspv_kernel, spmv_meaning};
use looplets_repro::finch::build::*;
use looplets_repro::finch::{Kernel, Protocol, Tensor};

/// The clustered example data of the paper's Figure 1c / Figure 3.
fn sample_vector() -> Vec<f64> {
    vec![0.0, 1.9, 0.0, 3.0, 2.7, 0.0, 0.0, 0.0, 5.5, 0.0, 0.0]
}

fn banded_vector() -> Vec<f64> {
    vec![0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.7, 0.0, 0.0, 0.0]
}

fn repeated_vector() -> Vec<f64> {
    vec![3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 2.0, 4.0]
}

fn vector_formats(data: &[f64]) -> Vec<Tensor> {
    vec![
        Tensor::dense_vector("V", data),
        Tensor::sparse_list_vector("V", data),
        Tensor::vbl_vector("V", data),
        Tensor::band_vector("V", data),
        Tensor::rle_vector("V", data),
        Tensor::packbits_vector("V", data),
        Tensor::bitmap_vector("V", data),
    ]
}

#[test]
fn every_vector_format_sums_to_the_dense_total() {
    let i = idx("i");
    let program = forall(i.clone(), add_assign(scalar("S"), access("V", [i])));
    for data in [sample_vector(), banded_vector(), repeated_vector()] {
        for t in vector_formats(&data) {
            let expect = eval(&program, &[&t], &[("S", &[], 0.0)]).unwrap()[0][0];
            let mut kernel = Kernel::new();
            kernel.bind_input(&t).bind_output_scalar("S");
            let mut compiled = kernel.compile(&program).unwrap_or_else(|e| {
                panic!("sum over {} failed to compile: {e}", t.levels()[0].format_name())
            });
            compiled.run().expect("sum runs");
            let got = compiled.output_scalar("S").unwrap();
            assert!(
                (got - expect).abs() < 1e-9,
                "sum over {} format: got {got}, expected {expect}\n{}",
                t.levels()[0].format_name(),
                compiled.code()
            );
        }
    }
}

#[test]
fn every_pair_of_vector_formats_coiterates_correctly() {
    let a_data = sample_vector();
    let b_data = banded_vector();
    for a in vector_formats(&a_data) {
        let a = a.with_name("A");
        for b in vector_formats(&b_data) {
            let b = b.with_name("B");
            let expect = dot_meaning(&a, &b);
            let mut k = dot_kernel(&a, &b, Protocol::Default, Protocol::Default);
            k.run().expect("dot runs");
            let got = k.output_scalar("C").unwrap();
            assert!(
                (got - expect).abs() < 1e-9,
                "dot of {} x {}: got {got}, expected {expect}\n{}",
                a.levels()[0].format_name(),
                b.levels()[0].format_name(),
                k.code()
            );
        }
    }
}

#[test]
fn protocol_choices_do_not_change_results() {
    let a = Tensor::sparse_list_vector("A", &sample_vector());
    let b = Tensor::sparse_list_vector("B", &banded_vector());
    let expect = dot_meaning(&a, &b);
    for pa in [Protocol::Walk, Protocol::Gallop] {
        for pb in [Protocol::Walk, Protocol::Gallop, Protocol::Locate] {
            let mut k = dot_kernel(&a, &b, pa, pb);
            k.run().expect("dot runs");
            let got = k.output_scalar("C").unwrap();
            assert!(
                (got - expect).abs() < 1e-9,
                "dot with protocols {pa:?} x {pb:?}: got {got}, expected {expect}\n{}",
                k.code()
            );
        }
    }
}

#[test]
fn matrix_formats_spmv_matches_dense_reference() {
    let nrows = 9;
    let ncols = 11;
    // Build a clustered matrix by stacking shifted copies of the sample rows.
    let mut data = Vec::new();
    for r in 0..nrows {
        let src = if r % 3 == 0 {
            sample_vector()
        } else if r % 3 == 1 {
            banded_vector()
        } else {
            vec![0.0; ncols]
        };
        data.extend(src.iter().map(|&v| v * (r as f64 + 1.0)));
    }
    let xv: Vec<f64> = (0..ncols).map(|c| if c % 2 == 0 { c as f64 * 0.5 } else { 0.0 }).collect();

    let matrices = vec![
        Tensor::dense_matrix("A", nrows, ncols, &data),
        Tensor::csr_matrix("A", nrows, ncols, &data),
        Tensor::vbl_matrix("A", nrows, ncols, &data),
        Tensor::band_matrix("A", nrows, ncols, &data),
        Tensor::rle_matrix("A", nrows, ncols, &data),
        Tensor::packbits_matrix("A", nrows, ncols, &data),
        Tensor::bitmap_matrix("A", nrows, ncols, &data),
        Tensor::ragged_matrix("A", nrows, ncols, &data),
    ];
    let x_formats = vec![
        Tensor::dense_vector("x", &xv),
        Tensor::sparse_list_vector("x", &xv),
        Tensor::rle_vector("x", &xv),
    ];
    for a in &matrices {
        for x in &x_formats {
            let mut k = spmspv_kernel(a, x, Protocol::Default, Protocol::Default);
            k.run().expect("spmv runs");
            let y = k.output("y").unwrap();
            assert_close(
                &y,
                &spmv_meaning(a, x),
                &format!(
                    "spmv over {} x {}",
                    a.levels()[1].format_name(),
                    x.levels()[0].format_name()
                ),
            );
        }
    }
}

#[test]
fn triangular_and_symmetric_formats_reduce_correctly() {
    let n = 6;
    let mut lower = vec![0.0; n * n];
    let mut sym = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..=r {
            let v = ((r * 7 + c * 3) % 5) as f64;
            lower[r * n + c] = v;
            sym[r * n + c] = v;
            sym[c * n + r] = v;
        }
    }
    let cases = vec![
        (Tensor::triangular_matrix("A", n, &lower), lower.clone()),
        (Tensor::symmetric_matrix("A", n, &sym), sym.clone()),
    ];
    for (t, dense) in cases {
        let xv: Vec<f64> = (0..n).map(|c| c as f64 + 1.0).collect();
        let x = Tensor::dense_vector("x", &xv);
        assert_eq!(t.to_dense(), dense, "{}", t.levels()[1].format_name());
        let mut k = spmspv_kernel(&t, &x, Protocol::Default, Protocol::Default);
        k.run().expect("spmv runs");
        assert_close(
            &k.output("y").unwrap(),
            &spmv_meaning(&t, &x),
            &format!("spmv over {}", t.levels()[1].format_name()),
        );
    }
}
