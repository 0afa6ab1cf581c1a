//! Index modifiers (paper §8): windowing, shifting (`offset`), padding
//! (`permit`), concatenation and convolution over structured inputs, plus
//! the `sieve` statement.  Each program's dense meaning (`eval`) is checked
//! too: against the literal a small case spells out, and it is the oracle of
//! the convolutions.

mod common;

use common::{assert_close, eval};
use looplets_repro::baseline::datagen;
use looplets_repro::finch::build::*;
use looplets_repro::finch::{CinExpr, CinStmt, CompileError, Kernel, Tensor};

#[test]
fn window_sums_a_slice() {
    let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let a = Tensor::sparse_list_vector("A", &data);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_output_scalar("S");
    let k = idx("k");
    // S += A[window(2, 4)[k]]  for k in 0..=2, i.e. A[2] + A[3] + A[4].
    let program = forall_in(
        k.clone(),
        lit_int(0),
        lit_int(2),
        add_assign(scalar("S"), access("A", [k.walk().window(lit_int(2), lit_int(4))])),
    );
    let mut compiled = kernel.compile(&program).expect("window kernel compiles");
    compiled.run().expect("window kernel runs");
    assert_eq!(compiled.output_scalar("S").unwrap(), 3.0 + 4.0 + 5.0);
    assert_eq!(eval(&program, &[&a], &[("S", &[], 0.0)]).unwrap(), [[3.0 + 4.0 + 5.0]]);
    // `k = 3` reads past the slice: no meaning, as past the end of `A`, and
    // no kernel, in either format, however far the loop runs past it.
    for hi in [3, 4] {
        let past = forall_in(
            k.clone(),
            lit_int(0),
            lit_int(hi),
            add_assign(scalar("S"), access("A", [k.walk().window(lit_int(2), lit_int(4))])),
        );
        assert!(eval(&past, &[&a], &[("S", &[], 0.0)]).is_err());
        for a in [a.clone(), Tensor::dense_vector("A", &data)] {
            let mut kernel = Kernel::new();
            kernel.bind_input(&a).bind_output_scalar("S");
            let err = kernel.compile(&past).expect_err("a read past the window");
            assert!(err.to_string().contains("reads `A` at coordinates it has only in 0..=2"));
        }
    }
}

#[test]
fn a_read_past_a_window_whose_bounds_move_is_a_compile_error_in_every_format() {
    let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let (i, k) = (idx("i"), idx("k"));
    // S += A[window(i, i + 2)[k]] for `i` in `0..=1`: the window is three
    // coordinates wide wherever it starts, so `k` in `0..=3` reads past it.
    let sum = |last| {
        let window =
            k.walk().window(CinExpr::Index(i.clone()), add(CinExpr::Index(i.clone()), lit_int(2)));
        let body = add_assign(scalar("S"), access("A", [window]));
        forall_in(
            i.clone(),
            lit_int(0),
            lit_int(1),
            forall_in(k.clone(), lit_int(0), lit_int(last), body),
        )
    };
    for a in [Tensor::sparse_list_vector("A", &data), Tensor::dense_vector("A", &data)] {
        let compile = |program: &CinStmt| {
            let mut kernel = Kernel::new();
            kernel.bind_input(&a).bind_output_scalar("S");
            kernel.compile(program)
        };
        let past = sum(3);
        assert!(eval(&past, &[&a], &[("S", &[], 0.0)]).is_err());
        let err = compile(&past).expect_err("a read past the window");
        assert!(matches!(err, CompileError::Unsupported { .. }), "{err}");
        // Inside the window the kernel runs: A[0..=2] + A[1..=3].
        let mut inside = compile(&sum(2)).expect("a read inside the window compiles");
        inside.run().expect("runs");
        assert_eq!(inside.output_scalar("S").unwrap(), 6.0 + 9.0);
        assert_eq!(eval(&sum(2), &[&a], &[("S", &[], 0.0)]).unwrap(), [[6.0 + 9.0]]);
    }
}

#[test]
fn a_read_past_an_inputs_extent_is_a_compile_error_in_every_format() {
    let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let k = idx("k");
    let sum = |lo, hi, ix| {
        forall_in(k.clone(), lit_int(lo), lit_int(hi), add_assign(scalar("S"), access("A", [ix])))
    };
    let formats = [
        ("sparse-list", Tensor::sparse_list_vector("A", &data)),
        ("dense", Tensor::dense_vector("A", &data)),
    ];
    for (format, a) in formats {
        let compile = |program: CinStmt| {
            let mut kernel = Kernel::new();
            kernel.bind_input(&a).bind_output_scalar("S");
            kernel.compile(&program).map(|mut compiled| {
                compiled.run().expect("a read inside the extent runs");
                compiled.output_scalar("S").unwrap()
            })
        };
        // `A[k]` for `k` in `0..=8` reads `A[7]` and `A[8]`, which `A` does
        // not have; `A[offset(2)[k]]` reads `A[k - 2]`, from `A[-2]` on.
        for past in [sum(0, 8, k.walk()), sum(0, 6, k.walk().offset(lit_int(2)))] {
            assert!(eval(&past, &[&a], &[("S", &[], 0.0)]).is_err());
            assert!(compile(past).is_err(), "{format}");
        }
        // Inside the extent the kernel runs.
        assert_eq!(compile(sum(0, 6, k.walk())), Ok(28.0), "{format}");
        assert_eq!(compile(sum(2, 8, k.walk().offset(lit_int(2)))), Ok(28.0), "{format}");
    }
}

#[test]
fn offset_shifts_the_coordinate_system() {
    let data = vec![10.0, 20.0, 30.0, 40.0];
    let a = Tensor::dense_vector("A", &data);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_output("y", &[2], 0.0);
    let i = idx("i");
    // y[i] = A[offset(-2)[i]] = A[i + 2]  for i in 0..=1.
    let program = forall_in(
        i.clone(),
        lit_int(0),
        lit_int(1),
        assign(access("y", [i.clone()]), access("A", [i.walk().offset(lit_int(-2))])),
    );
    let mut compiled = kernel.compile(&program).expect("offset kernel compiles");
    compiled.run().expect("offset kernel runs");
    assert_eq!(compiled.output("y").unwrap(), vec![30.0, 40.0]);
    assert_eq!(eval(&program, &[&a], &[("y", &[2], 0.0)]).unwrap(), [[30.0, 40.0]]);
}

#[test]
fn permit_reads_out_of_bounds_as_missing() {
    let data = vec![5.0, 7.0];
    let a = Tensor::sparse_list_vector("A", &data);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_output("y", &[4], 0.0);
    let i = idx("i");
    // y[i] = coalesce(A[permit[offset(1)[i]]], -1)  for i in 0..=3:
    // reads A[i - 1], so out-of-bounds positions take the default -1.
    let program = forall_in(
        i.clone(),
        lit_int(0),
        lit_int(3),
        assign(
            access("y", [i.clone()]),
            coalesce(vec![access("A", [i.walk().offset(lit_int(1)).permit()]).into(), lit(-1.0)]),
        ),
    );
    let mut compiled = kernel.compile(&program).expect("permit kernel compiles");
    compiled.run().expect("permit kernel runs");
    assert_eq!(compiled.output("y").unwrap(), vec![-1.0, 5.0, 7.0, -1.0]);
    let meaning = eval(&program, &[&a], &[("y", &[4], 0.0)]).unwrap();
    assert_eq!(meaning, [[-1.0, 5.0, 7.0, -1.0]]);
}

#[test]
fn concatenation_via_permit_and_offset() {
    // C[i] = coalesce(A[permit[i]], B[permit[offset(|A|)[i]]])   (paper §8)
    let a_data = vec![1.0, 0.0, 3.0];
    let b_data = vec![7.0, 8.0];
    let a = Tensor::sparse_list_vector("A", &a_data);
    let b = Tensor::sparse_list_vector("B", &b_data);
    let total = a_data.len() + b_data.len();
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&b).bind_output("C", &[total], 0.0);
    let i = idx("i");
    let program = forall_in(
        i.clone(),
        lit_int(0),
        lit_int(total as i64 - 1),
        assign(
            access("C", [i.clone()]),
            coalesce(vec![
                access("A", [i.walk().permit()]).into(),
                access("B", [i.walk().offset(lit_int(a_data.len() as i64)).permit()]).into(),
                lit(0.0),
            ]),
        ),
    );
    let mut compiled = kernel.compile(&program).expect("concat kernel compiles");
    compiled.run().expect("concat kernel runs");
    let expect: Vec<f64> = a_data.iter().chain(b_data.iter()).copied().collect();
    assert_eq!(compiled.output("C").unwrap(), expect);
    assert_eq!(eval(&program, &[&a, &b], &[("C", &[total], 0.0)]).unwrap(), [expect]);
}

#[test]
fn one_dimensional_convolution_over_a_sparse_input() {
    // B[i] += coalesce(A[permit[offset(1 - i)[j]]], 0) * F[j]
    // with a length-3 filter: B[i] = Σ_j A[i + j - 1] * F[j].
    let a_data = vec![0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0];
    let f_data = vec![1.0, 10.0, 100.0];
    let n = a_data.len();
    let a = Tensor::sparse_list_vector("A", &a_data);
    let f = Tensor::dense_vector("F", &f_data);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&f).bind_output("B", &[n], 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let a_index = j.walk().offset(sub(lit_int(1), CinExpr::Index(i.clone()))).permit();
    let program = forall(
        i.clone(),
        forall_in(
            j.clone(),
            lit_int(0),
            lit_int(2),
            add_assign(
                access("B", [i.clone()]),
                mul(coalesce(vec![access("A", [a_index]).into(), lit(0.0)]), access("F", [j])),
            ),
        ),
    );
    let mut compiled = kernel.compile(&program).expect("1d conv compiles");
    compiled.run().expect("1d conv runs");
    let got = compiled.output("B").unwrap();
    let meaning = eval(&program, &[&a, &f], &[("B", &[n], 0.0)]).unwrap();
    assert_close(&got, &meaning[0], "1d convolution");
}

#[test]
fn masked_two_dimensional_convolution_matches_the_oracle() {
    // The paper's Figure 9 kernel (3×3 filter on a small grid):
    // C[i,k] += (A[i,k] != 0) * coalesce(A[...offset...permit...], 0)
    //                         * coalesce(F[permit[j], permit[l]], 0)
    let size = 10;
    let grid = datagen::sparse_grid(size, size, 0.15, 77);
    let filter: Vec<f64> = (0..9).map(|v| (v as f64) * 0.25 + 0.5).collect();

    let a = Tensor::csr_matrix("A", size, size, &grid);
    let aw = Tensor::csr_matrix("Aw", size, size, &grid);
    let f = Tensor::dense_matrix("F", 3, 3, &filter);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&aw).bind_input(&f).bind_output("C", &[size, size], 0.0);

    let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
    let row_index = j.walk().offset(sub(lit_int(1), CinExpr::Index(i.clone()))).permit();
    let col_index = l.walk().offset(sub(lit_int(1), CinExpr::Index(k.clone()))).permit();
    let program = forall(
        i.clone(),
        forall(
            k.clone(),
            forall_in(
                j.clone(),
                lit_int(0),
                lit_int(2),
                forall_in(
                    l.clone(),
                    lit_int(0),
                    lit_int(2),
                    add_assign(
                        access("C", [i.clone(), k.clone()]),
                        mul3(
                            nonzero_mask(access("A", [i.clone(), k.clone()])),
                            coalesce(vec![access("Aw", [row_index, col_index]).into(), lit(0.0)]),
                            access("F", [j, l]),
                        ),
                    ),
                ),
            ),
        ),
    );
    let mut compiled = kernel.compile(&program).expect("2d conv compiles");
    compiled.run().expect("2d conv runs");
    let meaning = eval(&program, &[&a, &aw, &f], &[("C", &[size, size], 0.0)]).unwrap();
    assert_close(&compiled.output("C").unwrap(), &meaning[0], "masked 2d convolution");
}

#[test]
fn sieve_statements_guard_scatter_like_updates() {
    // Count the entries of A larger than 2 using a sieve.
    let data = vec![1.0, 3.0, 0.0, 5.0, 2.0, 7.0];
    let a = Tensor::dense_vector("A", &data);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_output_scalar("count");
    let i = idx("i");
    let program = forall(
        i.clone(),
        sieve(
            CinExpr::call(
                looplets_repro::finch::CinOp::Gt,
                vec![access("A", [i]).into(), lit(2.0)],
            ),
            add_assign(scalar("count"), lit(1.0)),
        ),
    );
    let mut compiled = kernel.compile(&program).expect("sieve kernel compiles");
    compiled.run().expect("sieve kernel runs");
    assert_eq!(compiled.output_scalar("count").unwrap(), 3.0);
    assert_eq!(eval(&program, &[&a], &[("count", &[], 0.0)]).unwrap(), [[3.0]]);
}

#[test]
fn convolution_work_scales_with_input_sparsity() {
    // The asymptotic claim behind Figure 9: the masked sparse convolution
    // does work proportional to the number of nonzero inputs.
    let size = 24;
    let sparse = datagen::sparse_grid(size, size, 0.02, 5);
    let denser = datagen::sparse_grid(size, size, 0.30, 5);
    let filter = vec![1.0; 9];

    let run = |grid: &[f64]| {
        let a = Tensor::csr_matrix("A", size, size, grid);
        let aw = Tensor::csr_matrix("Aw", size, size, grid);
        let f = Tensor::dense_matrix("F", 3, 3, &filter);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_input(&aw).bind_input(&f).bind_output("C", &[size, size], 0.0);
        let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
        let row_index = j.walk().offset(sub(lit_int(1), CinExpr::Index(i.clone()))).permit();
        let col_index = l.walk().offset(sub(lit_int(1), CinExpr::Index(k.clone()))).permit();
        let program = forall(
            i.clone(),
            forall(
                k.clone(),
                forall_in(
                    j.clone(),
                    lit_int(0),
                    lit_int(2),
                    forall_in(
                        l.clone(),
                        lit_int(0),
                        lit_int(2),
                        add_assign(
                            access("C", [i.clone(), k.clone()]),
                            mul3(
                                nonzero_mask(access("A", [i.clone(), k.clone()])),
                                coalesce(vec![
                                    access("Aw", [row_index, col_index]).into(),
                                    lit(0.0),
                                ]),
                                access("F", [j, l]),
                            ),
                        ),
                    ),
                ),
            ),
        );
        let mut compiled = kernel.compile(&program).expect("conv compiles");
        let stats = compiled.run().expect("conv runs");
        stats.total_work()
    };
    let sparse_work = run(&sparse);
    let dense_work = run(&denser);
    assert!(
        sparse_work * 3 < dense_work,
        "sparser input should do much less work: {sparse_work} vs {dense_work}"
    );
}
