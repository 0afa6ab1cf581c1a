//! Rebinding a compiled kernel's input, for every level format: a tensor of
//! the compiled structure with other stored entries gives the new data's
//! dense meaning, and a tensor of another structure (an unknown name, or
//! another fill, rank, format or size) is refused with
//! `RuntimeError::BadInputRebind` and leaves the kernel computing over the
//! data it had.

use looplets_repro::baseline::reference::{eval, same_value};
use looplets_repro::finch::build::*;
use looplets_repro::finch::{CinStmt, CompiledKernel, Kernel, Level, RuntimeError, Tensor};

/// One format's row: the data the kernel is compiled against, data of the
/// same structure with other stored entries, and one tensor per way a
/// rebind is refused.
struct Row {
    what: &'static str,
    compiled: Tensor,
    rebound: Tensor,
    refused: Vec<(&'static str, Tensor)>,
}

/// Vectors of eleven entries with different stored coordinates, counts,
/// runs and bands.
const V1: [f64; 11] = [0.0, 1.9, 0.0, 3.0, 2.7, 0.0, 0.0, 0.0, 5.5, 0.0, 0.0];
const V2: [f64; 11] = [4.0, 0.0, 0.0, 1.5, 1.5, 1.5, 1.5, 0.0, 2.0, 7.0, 7.0];

/// 4 × 4 matrices, row-major, whose rows store different prefixes and
/// patterns.
const M1: [f64; 16] =
    [1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0, 5.0, 0.0];
const M2: [f64; 16] =
    [0.0, 0.0, 0.0, 6.0, 7.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 1.5, 2.5];

type Vector = fn(&[f64]) -> Tensor;

/// The seven vector formats, each with the one it is refused as.
fn vector_rows() -> Vec<Row> {
    let formats: [(&str, Vector); 7] = [
        ("dense", |d| Tensor::dense_vector("V", d)),
        ("sparse-list", |d| Tensor::sparse_list_vector("V", d)),
        ("sparse-band", |d| Tensor::band_vector("V", d)),
        ("sparse-vbl", |d| Tensor::vbl_vector("V", d)),
        ("rle", |d| Tensor::rle_vector("V", d)),
        ("packbits", |d| Tensor::packbits_vector("V", d)),
        ("bitmap", |d| Tensor::bitmap_vector("V", d)),
    ];
    let longer: Vec<f64> = V2.iter().copied().chain([0.0]).collect();
    formats
        .into_iter()
        .map(|(what, make)| {
            let other: Vector = if what == "dense" {
                |d| Tensor::sparse_list_vector("V", d)
            } else {
                |d| Tensor::dense_vector("V", d)
            };
            Row {
                what,
                compiled: make(&V1),
                rebound: make(&V2),
                refused: vec![
                    ("name", make(&V2).with_name("W")),
                    ("fill", make(&V2).with_fill(1.0)),
                    ("rank", Tensor::dense_matrix("V", 1, 11, &V2)),
                    ("format", other(&V2)),
                    ("size", make(&longer)),
                ],
            }
        })
        .collect()
}

type Matrix = fn(usize, &[f64]) -> Tensor;

/// CSR and the triangular, symmetric and ragged matrices: their first level
/// is dense, so a format or size refused on the second is found past a level
/// that matches.
fn matrix_rows() -> Vec<Row> {
    let formats: [(&str, Matrix, Matrix); 4] = [
        ("csr", |n, d| Tensor::csr_matrix("A", n, n, d), |n, d| Tensor::dense_matrix("A", n, n, d)),
        (
            "triangular",
            |n, d| Tensor::triangular_matrix("A", n, d),
            |n, d| Tensor::symmetric_matrix("A", n, d),
        ),
        (
            "symmetric",
            |n, d| Tensor::symmetric_matrix("A", n, d),
            |n, d| Tensor::triangular_matrix("A", n, d),
        ),
        (
            "ragged",
            |n, d| Tensor::ragged_matrix("A", n, n, d),
            |n, d| Tensor::csr_matrix("A", n, n, d),
        ),
    ];
    let wider: Vec<f64> = (0..25).map(|k| if k % 3 == 0 { 1.0 + k as f64 } else { 0.0 }).collect();
    formats
        .into_iter()
        .map(|(what, make, other)| Row {
            what,
            compiled: make(4, &M1),
            rebound: make(4, &M2),
            refused: vec![
                ("name", make(4, &M2).with_name("B")),
                ("fill", make(4, &M2).with_fill(1.0)),
                ("rank", Tensor::dense_vector("A", &M2)),
                ("format", other(4, &M2)),
                ("size", make(5, &wider)),
            ],
        })
        .collect()
}

/// `Y[i...] += T[i...]` over the row's tensor: every stored entry and every
/// fill shows in the output.
fn copy_program(t: &Tensor) -> CinStmt {
    let ix: Vec<_> = ["i", "j"].iter().take(t.ndim()).map(|name| idx(name)).collect();
    let body = add_assign(access("Y", ix.clone()), access(t.name(), ix.clone()));
    ix.into_iter().rev().fold(body, |body, i| forall(i, body))
}

/// Run `kernel` and check its output against `want`, a dense meaning.
fn expect(kernel: &mut CompiledKernel, want: &[f64], what: &str) {
    kernel.run().unwrap_or_else(|e| panic!("{what}: the kernel runs: {e}"));
    let got = kernel.output("Y").unwrap();
    assert_eq!(got.len(), want.len(), "{what}");
    assert!(
        got.iter().zip(want).all(|(&g, &w)| same_value(g, w)),
        "{what}: got {got:?}, the dense meaning is {want:?}"
    );
}

fn check(row: &Row) {
    let program = copy_program(&row.compiled);
    let shape = row.compiled.shape();
    let meaning = |t: &Tensor| eval(&program, &[t], &[("Y", &shape, 0.0)]).unwrap().remove(0);
    let (compiled, rebound) = (meaning(&row.compiled), meaning(&row.rebound));
    assert_ne!(compiled, rebound, "{}: the data differ", row.what);
    let mut kernel = Kernel::new();
    kernel.bind_input(&row.compiled).bind_output("Y", &shape, 0.0);
    let mut kernel = kernel.compile(&program).expect("the copy compiles");
    expect(&mut kernel, &compiled, &format!("{}, compiled", row.what));

    kernel.rebind_input(&row.rebound).unwrap_or_else(|e| panic!("{}: {e}", row.what));
    expect(&mut kernel, &rebound, &format!("{}, rebound", row.what));
    for (why, t) in &row.refused {
        let what = format!("{}, another {why}", row.what);
        match kernel.rebind_input(t) {
            Err(RuntimeError::BadInputRebind { .. }) => {}
            other => panic!("{what}: {other:?}"),
        }
        expect(&mut kernel, &rebound, &format!("{what}: the data it had"));
    }
    // Back to the compiled data, whose arrays are shorter than the rebound's.
    kernel.rebind_input(&row.compiled).unwrap_or_else(|e| panic!("{}: {e}", row.what));
    expect(&mut kernel, &compiled, &format!("{}, bound back", row.what));
}

#[test]
fn every_vector_format_rebinds_and_refuses_another_structure() {
    for row in vector_rows() {
        check(&row);
    }
}

#[test]
fn every_matrix_format_rebinds_and_refuses_another_structure() {
    for row in matrix_rows() {
        check(&row);
    }
}

/// Which format `level` is.  The match is exhaustive, so a new format
/// does not compile here until it is numbered and given a row.
fn format_number(level: &Level) -> usize {
    match level {
        Level::Dense { .. } => 0,
        Level::SparseList { .. } => 1,
        Level::SparseBand { .. } => 2,
        Level::SparseVbl { .. } => 3,
        Level::RunLength { .. } => 4,
        Level::PackBits { .. } => 5,
        Level::Bitmap { .. } => 6,
        Level::Triangular { .. } => 7,
        Level::Symmetric { .. } => 8,
        Level::Ragged { .. } => 9,
    }
}

#[test]
fn the_rows_cover_every_level_format() {
    let mut covered = [false; 10];
    for row in vector_rows().iter().chain(&matrix_rows()) {
        for level in row.compiled.levels() {
            covered[format_number(level)] = true;
        }
    }
    assert_eq!(covered, [true; 10]);
}
