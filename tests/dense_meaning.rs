//! Two facts about the dense meaning (`finch_baseline::reference::eval`)
//! that decide how compiled kernels are compared with it.

mod common;

use common::{eval, probe_reduce};
use looplets_repro::baseline::reference::same_value;
use looplets_repro::finch::build::*;
use looplets_repro::finch::{CinOp, Kernel, Tensor};

/// `C[] max= A[i]` over stored values that are all negative counts the
/// implicit zeros, in every format, as the meaning does: the maximum is
/// `0.0` and the minimum `-0.5`.
#[test]
fn max_and_min_reductions_count_the_implicit_zeros() {
    let data = [0.0, -0.5, 0.0, -0.25, 0.0];
    let formats = [
        Tensor::sparse_list_vector("A", &data),
        Tensor::dense_vector("A", &data),
        Tensor::rle_vector("A", &data),
    ];
    for a in &formats {
        for (op, want) in [(CinOp::Max, 0.0), (CinOp::Min, -0.5)] {
            let what = format!("{op:?} over {}", a.levels()[0].format_name());
            let probe = probe_reduce(a, op);
            assert_eq!(probe.meaning, [want], "{what}: the meaning");
            let mut kernel = probe.kernel;
            kernel.run().expect("the reduction runs");
            assert_eq!(kernel.output_scalar("C").unwrap(), want, "{what}: the kernel");
        }
    }
}

/// The compiler's `x * 0 → 0` makes the sign of a zero depend on the input
/// format: `S[i] = A[i] * B[i]` gives `-0.0` where a dense `A` stores a zero
/// and `B` is negative, and `+0.0` where a sparse-list `A` leaves it out.
/// Both equal the meaning, because `same_value` counts `±0` as one value.
#[test]
fn the_sign_of_a_zero_depends_on_the_format_and_is_one_value() {
    let (av, bv) = ([0.0, 1.0, 0.0, 2.0], [-0.5, 1.0, -2.0, 0.0]);
    let i = idx("i");
    let program = forall(
        i.clone(),
        assign(access("S", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
    );
    let b = Tensor::dense_vector("B", &bv);
    let run = |a: &Tensor| {
        let mut kernel = Kernel::new();
        kernel.bind_input(a).bind_input(&b).bind_output("S", &[4], 0.0);
        let mut kernel = kernel.compile(&program).expect("the product compiles");
        kernel.run().expect("the product runs");
        let meaning = eval(&program, &[a, &b], &[("S", &[4], 0.0)]).unwrap().remove(0);
        let got = kernel.output("S").unwrap();
        let same = got.iter().zip(&meaning).all(|(&g, &m)| same_value(g, m));
        assert!(same && got.len() == 4, "{got:?} against the meaning {meaning:?}");
        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    let dense = run(&Tensor::dense_vector("A", &av));
    let sparse = run(&Tensor::sparse_list_vector("A", &av));
    let bits = |v: [f64; 4]| v.map(f64::to_bits).to_vec();
    assert_eq!(dense, bits([-0.0, 1.0, -0.0, 0.0]));
    assert_eq!(sparse, bits([0.0, 1.0, 0.0, 0.0]));
}
