//! # finch-bench — the experiment harness for the Looplets evaluation
//!
//! This crate prepares the workloads and compiled kernels of every figure of
//! the paper's evaluation (§9): [`figure_tables`] states each figure's sweep
//! once, at full and at `--tiny` size.  The `figures` binary runs them and
//! prints one table per figure of *exact* quantities — instruction counts,
//! `profile()` dispatches and the `ExecStats` work counters under every
//! [`finch::ExecConfig::matrix`] configuration, with tree-walk parity and a
//! fully validated recompilation asserted — and emits the machine-readable
//! `BENCH_figures.json` (see [`report`]).  It measures no wall clock: the
//! report is a pure function of the code, `tests/figures_golden.rs` pins its
//! `--tiny` form byte for byte, and timing is the repo benchmark's job
//! (`benchmark/`).
//!
//! Problem sizes are scaled down from the paper (the substrate is an
//! instrumented VM, not native code); the *relative* shapes of the work
//! counters are what EXPERIMENTS.md compares against the paper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod report;
pub mod trace;

use finch::{same_f64, CompiledKernel, Engine, ExecStats, Kernel, LevelSpec, Tensor};
use finch_baseline::datagen;
use finch_cin::build::*;
use finch_cin::{CinExpr, CinStmt, IndexVar, Protocol};

/// One prepared experiment variant: a label and a compiled kernel ready to
/// be run repeatedly.
pub struct Variant {
    /// Human-readable strategy/format label.
    pub label: String,
    /// The compiled kernel.
    pub kernel: CompiledKernel,
}

impl Variant {
    fn new(label: &str, kernel: CompiledKernel) -> Self {
        Variant { label: label.to_string(), kernel }
    }
}

/// Every output of `kernel`, by name.
pub fn outputs(kernel: &CompiledKernel) -> Vec<(String, Vec<f64>)> {
    let read = |name: String| (name.clone(), kernel.output(&name).expect("a bound output reads"));
    kernel.output_names().into_iter().map(read).collect()
}

/// Whether two [`outputs`] readings hold the same values by
/// [`finch::same_f64`]: a NaN's sign and payload do not count, ±0 do.
pub fn same_outputs(a: &[(String, Vec<f64>)], b: &[(String, Vec<f64>)]) -> bool {
    let same =
        |x: &[f64], y: &[f64]| x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| same_f64(p, q));
    a.len() == b.len() && a.iter().zip(b).all(|((n, x), (m, y))| n == m && same(x, y))
}

/// Run `kernel` on the tree-walk oracle and on the bytecode VM and assert
/// that the work counters are identical and every output the same by
/// [`same_outputs`] — what lets a report print one set of counters per
/// configuration.  Returns them.
pub fn assert_engine_parity(kernel: &mut CompiledKernel, what: &str) -> ExecStats {
    let oracle = kernel.run_with(Engine::TreeWalk).unwrap_or_else(|e| panic!("{what}: {e}"));
    let expected = outputs(kernel);
    let stats = kernel.run_with(Engine::Bytecode).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(oracle, stats, "{what}: the engines' work counters diverge");
    assert!(same_outputs(&expected, &outputs(kernel)), "{what}: the engines' outputs diverge");
    stats
}

pub(crate) fn protocol_index(p: Protocol, v: &IndexVar) -> finch_cin::IndexExpr {
    match p {
        Protocol::Gallop => v.gallop(),
        Protocol::Walk => v.walk(),
        Protocol::Locate => v.locate(),
        Protocol::Default => v.clone().into(),
    }
}

// ---------------------------------------------------------------------------
// Figure 1: the motivating dot product (sparse list × sparse band)
// ---------------------------------------------------------------------------

/// Figure 1: dot products of a scattered sparse list against a single dense
/// band, for a sweep of band widths.  Returns `(band_width, variants)`.
pub fn fig01_variants(n: usize, nnz: usize, band_widths: &[usize]) -> Vec<(usize, Vec<Variant>)> {
    band_widths
        .iter()
        .map(|&w| {
            let a_data = datagen::counted_sparse_vector(n, nnz, 101);
            let mut b_data = vec![0.0; n];
            let start = n / 3;
            for k in 0..w.min(n - start) {
                b_data[start + k] = 1.0 + (k % 7) as f64;
            }
            let a = Tensor::sparse_list_vector("A", &a_data);
            let b_band = Tensor::band_vector("B", &b_data);
            let b_list = Tensor::sparse_list_vector("B", &b_data);
            let variants = vec![
                Variant::new(
                    "looplets: list x band",
                    dot_kernel(&a, &b_band, Protocol::Walk, Protocol::Default),
                ),
                Variant::new(
                    "iterator-over-nonzeros",
                    dot_kernel(&a, &b_list, Protocol::Walk, Protocol::Walk),
                ),
            ];
            (w, variants)
        })
        .collect()
}

/// `C[] += A[i] * B[i]` under the given protocols.
pub fn dot_kernel(a: &Tensor, b: &Tensor, pa: Protocol, pb: Protocol) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(b).bind_output_scalar("C");
    kernel.compile(&dot_program(a.name(), b.name(), pa, pb)).expect("dot kernel compiles")
}

/// [`dot_kernel`]'s program over the inputs named `a` and `b`.
pub fn dot_program(a: &str, b: &str, pa: Protocol, pb: Protocol) -> CinStmt {
    let i = idx("i");
    forall(
        i.clone(),
        add_assign(
            scalar("C"),
            mul(access(a, [protocol_index(pa, &i)]), access(b, [protocol_index(pb, &i)])),
        ),
    )
}

// ---------------------------------------------------------------------------
// Figure 7: SpMSpV
// ---------------------------------------------------------------------------

/// The SpMSpV kernel `y[i] += A[i,j] * x[j]`.
pub fn spmspv_kernel(a: &Tensor, x: &Tensor, pa: Protocol, px: Protocol) -> CompiledKernel {
    let nrows = a.shape()[0];
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(x).bind_output("y", &[nrows], 0.0);
    kernel.compile(&spmspv_program(a.name(), x.name(), pa, px)).expect("spmspv kernel compiles")
}

/// [`spmspv_kernel`]'s program over the inputs named `a` and `x`.
pub fn spmspv_program(a: &str, x: &str, pa: Protocol, px: Protocol) -> CinStmt {
    let (i, j) = (idx("i"), idx("j"));
    forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(
                    access(a, [i.into(), protocol_index(pa, &j)]),
                    access(x, [protocol_index(px, &j)]),
                ),
            ),
        ),
    )
}

/// The SpMSpV strategies of Figure 7 for one matrix/vector pair.  The first
/// variant ("two-finger") is the TACO stand-in that speedups are measured
/// against.
pub fn fig07_variants(n: usize, xv: &[f64], seed: u64) -> Vec<Variant> {
    let dense_a = datagen::scientific_matrix(n, 2, 4, 0.004, seed);
    let x = Tensor::sparse_list_vector("x", xv);
    let csr = || Tensor::csr_matrix("A", n, n, &dense_a);
    let vbl = Tensor::vbl_matrix("A", n, n, &dense_a);
    vec![
        Variant::new(
            "two-finger (TACO-style)",
            spmspv_kernel(&csr(), &x, Protocol::Walk, Protocol::Walk),
        ),
        Variant::new(
            "A leads (gallop)",
            spmspv_kernel(&csr(), &x, Protocol::Gallop, Protocol::Walk),
        ),
        Variant::new(
            "x leads (gallop)",
            spmspv_kernel(&csr(), &x, Protocol::Walk, Protocol::Gallop),
        ),
        Variant::new("gallop both", spmspv_kernel(&csr(), &x, Protocol::Gallop, Protocol::Gallop)),
        Variant::new("VBL", spmspv_kernel(&vbl, &x, Protocol::Walk, Protocol::Walk)),
    ]
}

/// Figure 7a: `x` has a fraction of nonzeros; Figure 7b: `x` has a fixed
/// count of nonzeros.
pub fn fig07_vector(
    n: usize,
    dense_fraction: Option<f64>,
    count: Option<usize>,
    seed: u64,
) -> Vec<f64> {
    match (dense_fraction, count) {
        (Some(f), _) => datagen::random_sparse_vector(n, f, seed),
        (_, Some(c)) => datagen::counted_sparse_vector(n, c, seed),
        _ => datagen::random_sparse_vector(n, 0.1, seed),
    }
}

// ---------------------------------------------------------------------------
// Figure 8: triangle counting
// ---------------------------------------------------------------------------

/// The triangle counting kernel over a pre-transposed last argument.
pub fn triangle_kernel(adj: &[f64], n: usize, gallop: bool) -> CompiledKernel {
    let a = Tensor::csr_matrix("A", n, n, adj);
    let a2 = Tensor::csr_matrix("A2", n, n, adj);
    // The adjacency matrix is symmetric, so its transpose is itself; bind it
    // under a separate name the way the paper pre-transposes the argument.
    let at = Tensor::csr_matrix("At", n, n, adj);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&a2).bind_input(&at).bind_output_scalar("C");
    kernel.compile(&triangle_program(gallop)).expect("triangle kernel compiles")
}

/// [`triangle_kernel`]'s program, `C[] += A[i,j] * A2[j,k] * At[i,k]`.
pub fn triangle_program(gallop: bool) -> CinStmt {
    let (i, j, k) = (idx("i"), idx("j"), idx("k"));
    let inner = |v: &IndexVar| if gallop { v.gallop() } else { v.walk() };
    forall(
        i.clone(),
        forall(
            j.clone(),
            forall(
                k.clone(),
                add_assign(
                    scalar("C"),
                    mul3(
                        access("A", [i.clone(), j.clone()]),
                        access("A2", [j.into(), inner(&k)]),
                        access("At", [i.into(), inner(&k)]),
                    ),
                ),
            ),
        ),
    )
}

/// Figure 8 variants for one power-law graph.
pub fn fig08_variants(n: usize, edges_per_node: usize, seed: u64) -> Vec<Variant> {
    let adj = datagen::power_law_graph(n, edges_per_node, seed);
    vec![
        Variant::new("two-finger (TACO-style)", triangle_kernel(&adj, n, false)),
        Variant::new("gallop", triangle_kernel(&adj, n, true)),
    ]
}

// ---------------------------------------------------------------------------
// Figure 9: convolution
// ---------------------------------------------------------------------------

/// The masked sparse convolution kernel of Figure 9 (square filter of odd
/// size `ksize`).
pub fn conv_kernel(
    grid: &[f64],
    size: usize,
    ksize: usize,
    filter: &[f64],
    sparse: bool,
) -> CompiledKernel {
    let (a, aw) = if sparse {
        (Tensor::csr_matrix("A", size, size, grid), Tensor::csr_matrix("Aw", size, size, grid))
    } else {
        (Tensor::dense_matrix("A", size, size, grid), Tensor::dense_matrix("Aw", size, size, grid))
    };
    let f = Tensor::dense_matrix("F", ksize, ksize, filter);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&aw).bind_input(&f).bind_output("C", &[size, size], 0.0);
    let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
    let half = (ksize / 2) as i64;
    let row_index = j.walk().offset(sub(lit_int(half), CinExpr::Index(i.clone()))).permit();
    let col_index = l.walk().offset(sub(lit_int(half), CinExpr::Index(k.clone()))).permit();
    let body = if sparse {
        add_assign(
            access("C", [i.clone(), k.clone()]),
            mul3(
                nonzero_mask(access("A", [i.clone(), k.clone()])),
                coalesce(vec![access("Aw", [row_index, col_index]).into(), lit(0.0)]),
                access("F", [j.clone(), l.clone()]),
            ),
        )
    } else {
        add_assign(
            access("C", [i.clone(), k.clone()]),
            mul(
                coalesce(vec![access("Aw", [row_index, col_index]).into(), lit(0.0)]),
                access("F", [j.clone(), l.clone()]),
            ),
        )
    };
    let program = forall(
        i,
        forall(
            k,
            forall_in(
                j,
                lit_int(0),
                lit_int(ksize as i64 - 1),
                forall_in(l, lit_int(0), lit_int(ksize as i64 - 1), body),
            ),
        ),
    );
    kernel.compile(&program).expect("convolution kernel compiles")
}

/// Figure 9: dense vs sparse convolution over a density sweep.  Returns
/// `(density, variants)`.
pub fn fig09_variants(size: usize, ksize: usize, densities: &[f64]) -> Vec<(f64, Vec<Variant>)> {
    let filter: Vec<f64> = (0..ksize * ksize).map(|v| 0.5 + (v % 5) as f64 * 0.1).collect();
    densities
        .iter()
        .map(|&d| {
            let grid = datagen::sparse_grid(size, size, d, 900 + (d * 1000.0) as u64);
            let variants = vec![
                Variant::new(
                    "dense (OpenCV-style)",
                    conv_kernel(&grid, size, ksize, &filter, false),
                ),
                Variant::new(
                    "sparse (masked, CSR)",
                    conv_kernel(&grid, size, ksize, &filter, true),
                ),
            ];
            (d, variants)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10: alpha blending
// ---------------------------------------------------------------------------

/// The alpha blending kernel `A[i,j] = round(α·B[i,j] + β·C[i,j])`.
pub fn blend_kernel(b: &Tensor, c: &Tensor, alpha: f64, beta: f64) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(b).bind_input(c).bind_output("A", &b.shape(), 0.0);
    kernel.compile(&blend_program(b.name(), c.name(), alpha, beta)).expect("blend kernel compiles")
}

/// [`blend_kernel`]'s program over the inputs named `b` and `c`.
pub fn blend_program(b: &str, c: &str, alpha: f64, beta: f64) -> CinStmt {
    let (i, j) = (idx("i"), idx("j"));
    forall(
        i.clone(),
        forall(
            j.clone(),
            assign(
                access("A", [i.clone(), j.clone()]),
                round_u8(add(
                    mul(lit(alpha), access(b, [i.clone(), j.clone()])),
                    mul(lit(beta), access(c, [i, j])),
                )),
            ),
        ),
    )
}

/// Figure 10: blending variants over a dataset generator ("omniglot"-like
/// strokes or "sketches"-like dense drawings).
pub fn fig10_variants(size: usize, sketches: bool, seed: u64) -> Vec<Variant> {
    let (fg, bg) = if sketches {
        (datagen::sketch_image(size, seed), datagen::sketch_image(size, seed + 1))
    } else {
        (datagen::stroke_image(size, 3, seed), datagen::stroke_image(size, 2, seed + 1))
    };
    let (alpha, beta) = (0.6, 0.4);
    vec![
        Variant::new(
            "dense (OpenCV-style)",
            blend_kernel(
                &Tensor::dense_matrix("B", size, size, &fg),
                &Tensor::dense_matrix("Cimg", size, size, &bg),
                alpha,
                beta,
            ),
        ),
        Variant::new(
            "sparse list",
            blend_kernel(
                &Tensor::csr_matrix("B", size, size, &fg),
                &Tensor::csr_matrix("Cimg", size, size, &bg),
                alpha,
                beta,
            ),
        ),
        Variant::new(
            "run-length (RLE)",
            blend_kernel(
                &Tensor::rle_matrix("B", size, size, &fg),
                &Tensor::rle_matrix("Cimg", size, size, &bg),
                alpha,
                beta,
            ),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Figure 11: all-pairs image similarity
// ---------------------------------------------------------------------------

/// The all-pairs image similarity kernel of Figure 11 over a batch of
/// linearised images.
pub fn all_pairs_kernel(a: &Tensor, a2: &Tensor) -> CompiledKernel {
    let n = a.shape()[0];
    let mut kernel = Kernel::new();
    kernel
        .bind_input(a)
        .bind_input(a2)
        .bind_output("R", &[n], 0.0)
        .bind_output("O", &[n, n], 0.0)
        .bind_output_scalar("o");
    kernel.compile(&all_pairs_program(a.name(), a2.name())).expect("all-pairs kernel compiles")
}

/// [`all_pairs_kernel`]'s program over the inputs named `a` and `a2`.
pub fn all_pairs_program(a: &str, a2: &str) -> CinStmt {
    let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
    let squares = forall(
        k.clone(),
        forall(
            ij.clone(),
            add_assign(
                access("R", [k.clone()]),
                mul(access(a, [k.clone(), ij.clone()]), access(a, [k.clone(), ij])),
            ),
        ),
    );
    let pairwise = forall(
        k.clone(),
        forall(
            l.clone(),
            where_(
                assign(
                    access("O", [k.clone(), l.clone()]),
                    sqrt(add(
                        add(access("R", [k.clone()]), access("R", [l.clone()])),
                        mul(lit(-2.0), CinExpr::Access(scalar("o"))),
                    )),
                ),
                forall(
                    ij2.clone(),
                    add_assign(
                        scalar("o"),
                        mul(access(a, [k.clone(), ij2.clone()]), access(a2, [l.clone(), ij2])),
                    ),
                ),
            ),
        ),
    );
    multi(vec![squares, pairwise])
}

/// Figure 11: format variants over one image batch.  `dataset` selects the
/// generator: "mnist" (blobs), "emnist" (blobs, different seed), "omniglot"
/// (strokes).
pub fn fig11_variants(count: usize, img: usize, dataset: &str) -> Vec<Variant> {
    let m = img * img;
    let batch = match dataset {
        "omniglot" => {
            datagen::image_batch(count, img, 311, |s, seed| datagen::stroke_image(s, 2, seed))
        }
        "emnist" => datagen::image_batch(count, img, 251, datagen::blob_image),
        _ => datagen::image_batch(count, img, 211, datagen::blob_image),
    };
    let build = |name: &str, a: Tensor, a2: Tensor| Variant::new(name, all_pairs_kernel(&a, &a2));
    vec![
        build(
            "dense",
            Tensor::dense_matrix("A", count, m, &batch),
            Tensor::dense_matrix("A2", count, m, &batch),
        ),
        build(
            "sparse list",
            Tensor::csr_matrix("A", count, m, &batch),
            Tensor::csr_matrix("A2", count, m, &batch),
        ),
        build(
            "VBL",
            Tensor::vbl_matrix("A", count, m, &batch),
            Tensor::vbl_matrix("A2", count, m, &batch),
        ),
        build(
            "run-length (RLE)",
            Tensor::rle_matrix("A", count, m, &batch),
            Tensor::rle_matrix("A2", count, m, &batch),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Sparse output assembly (figS): elementwise multiply and threshold filter
// ---------------------------------------------------------------------------

/// The sparse·sparse elementwise multiply `C[i] = A[i] * B[i]`, with the
/// result either written into a preallocated dense buffer (the baseline
/// paying O(n) write traffic) or append-assembled as a sparse list (O(nnz)).
pub fn ewise_mul_kernel(a: &Tensor, b: &Tensor, sparse_out: bool) -> CompiledKernel {
    let n = a.shape()[0];
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(b);
    if sparse_out {
        kernel.bind_output_format("C", &[LevelSpec::SparseList { size: n }]);
    } else {
        kernel.bind_output("C", &[n], 0.0);
    }
    let i = idx("i");
    let program = forall(
        i.clone(),
        assign(access("C", [i.clone()]), mul(access(a.name(), [i.clone()]), access(b.name(), [i]))),
    );
    kernel.compile(&program).expect("elementwise multiply compiles")
}

/// The threshold filter `C[i] = A[i] where A[i] > t`, keeping only entries
/// above the threshold; output format as in [`ewise_mul_kernel`].
pub fn threshold_kernel(a: &Tensor, threshold: f64, sparse_out: bool) -> CompiledKernel {
    let n = a.shape()[0];
    let mut kernel = Kernel::new();
    kernel.bind_input(a);
    if sparse_out {
        kernel.bind_output_format("C", &[LevelSpec::SparseList { size: n }]);
    } else {
        kernel.bind_output("C", &[n], 0.0);
    }
    let i = idx("i");
    let program = forall(
        i.clone(),
        sieve(
            gt(access(a.name(), [i.clone()]), lit(threshold)),
            assign(access("C", [i.clone()]), access(a.name(), [i])),
        ),
    );
    kernel.compile(&program).expect("threshold filter compiles")
}

/// One sparse-output workload group: its label, its dense-output baseline
/// and sparse-output variants (in that order), and the stored-entry count
/// the sparse assembly must produce (the dense oracle's nnz).
pub struct OutputGroup {
    /// Group label for the table and the JSON report.
    pub group: String,
    /// Dense-output baseline first, `SparseList`-output variant second.
    pub variants: Vec<Variant>,
    /// Expected stored entries of the sparse output, from the dense oracle.
    pub oracle_nnz: usize,
}

impl OutputGroup {
    /// Run both variants once (on clones, so the group's kernels are left
    /// untouched) and assert the assembly's values: the sparse output
    /// stores exactly the oracle's nnz and materialises to the dense
    /// baseline's result.  (That it also *writes* less is a shape of the
    /// work counters, asserted with the paper's other shapes in
    /// `tests/figures_golden.rs`.)
    ///
    /// # Panics
    ///
    /// Panics when either is violated — used by [`figure_tables`] and the
    /// unit tests, so a `figures` run checks the assembly it reports on.
    pub fn assert_assembly(&self) {
        let mut dense = self.variants[0].kernel.clone();
        let mut sparse = self.variants[1].kernel.clone();
        dense.run().expect("dense baseline runs");
        sparse.run().expect("sparse assembly runs");
        let t = sparse.output_tensor("C").expect("sparse output finalizes");
        assert_eq!(
            t.stored(),
            self.oracle_nnz,
            "{}: sparse output stored-entry count diverges from the oracle",
            self.group
        );
        assert_eq!(
            t.to_dense(),
            dense.output("C").expect("dense output reads"),
            "{}: sparse output materialisation diverges from the dense run",
            self.group
        );
    }
}

/// The sparse-output assembly workloads (figS): a sparse·sparse elementwise
/// multiply and a threshold filter over vectors of the given density.
pub fn figs_output_groups(n: usize, density: f64, seed: u64) -> Vec<OutputGroup> {
    let av = datagen::random_sparse_vector(n, density, seed);
    // B shares roughly half of A's support (so the multiply's intersection
    // is nonempty at any density) plus its own random scatter.
    let mut bv = datagen::random_sparse_vector(n, density, seed + 1);
    for (k, &v) in av.iter().enumerate() {
        if v != 0.0 && k % 2 == 0 {
            bv[k] = 0.25 + (k % 7) as f64;
        }
    }
    let a = Tensor::sparse_list_vector("A", &av);
    let b = Tensor::sparse_list_vector("B", &bv);

    let mul_nnz = av.iter().zip(&bv).filter(|(x, y)| *x * *y != 0.0).count();
    let threshold = 5.0; // datagen values are uniform in 0.5..10.0
    let filter_nnz = av.iter().filter(|&&v| v > threshold).count();

    vec![
        OutputGroup {
            group: format!("elementwise multiply (density {density})"),
            variants: vec![
                Variant::new("dense output", ewise_mul_kernel(&a, &b, false)),
                Variant::new("sparse-list output", ewise_mul_kernel(&a, &b, true)),
            ],
            oracle_nnz: mul_nnz,
        },
        OutputGroup {
            group: format!("threshold filter (density {density})"),
            variants: vec![
                Variant::new("dense output", threshold_kernel(&a, threshold, false)),
                Variant::new("sparse-list output", threshold_kernel(&a, threshold, true)),
            ],
            oracle_nnz: filter_nnz,
        },
    ]
}

// ---------------------------------------------------------------------------
// The evaluation's sweep: every figure, at full and at `--tiny` size
// ---------------------------------------------------------------------------

/// One table of one figure: the variants compared at one point of the
/// figure's sweep.  A group's first variant is its baseline.
pub struct FigureTable {
    /// Figure identifier, as the report names it (`fig01`, `fig07a`, ...).
    pub figure: &'static str,
    /// What the figure shows and at which sizes (one line per figure).
    pub heading: String,
    /// The parameter point or dataset of this table.
    pub group: String,
    /// The compared variants, baseline first.
    pub variants: Vec<Variant>,
}

/// Every table of the evaluation, in print order: the one place that states
/// each figure's sizes, seeds and swept parameters — at the sizes
/// EXPERIMENTS.md discusses, or (`tiny`) at the smoke sizes the committed
/// `tests/figures_tiny.golden` and `tests/dispatch_budget.rs` are taken at.
///
/// # Panics
///
/// Panics when a Figure S sparse output does not hold the values of its
/// dense twin ([`OutputGroup::assert_assembly`]).
pub fn figure_tables(tiny: bool) -> Vec<FigureTable> {
    let mut tables = Vec::new();
    let mut table = |figure, heading: &str, group: String, variants| {
        tables.push(FigureTable { figure, heading: heading.to_string(), group, variants });
    };

    let (n, nnz, widths): (usize, usize, &[usize]) =
        if tiny { (200, 20, &[8]) } else { (20_000, 400, &[50, 400, 3_000]) };
    let heading = format!(
        "Figure 1 — motivating dot product: sparse list x sparse band (n = {n}, {nnz} nonzeros)"
    );
    for (width, variants) in fig01_variants(n, nnz, widths) {
        table("fig01", &heading, format!("band width {width}"), variants);
    }

    let n = if tiny { 32 } else { 128 };
    let seeds: &[u64] = if tiny { &[1] } else { &[1, 2, 3] };
    let heading =
        format!("Figure 7a — SpMSpV over synthetic HB-like {n}x{n} matrices, x with 10% nonzeros");
    for &seed in seeds {
        let x = fig07_vector(n, Some(0.10), None, 70 + seed);
        table("fig07a", &heading, format!("matrix #{seed}"), fig07_variants(n, &x, seed));
    }
    let heading =
        format!("Figure 7b — SpMSpV over synthetic HB-like {n}x{n} matrices, x with 10 nonzeros");
    for &seed in seeds {
        let x = fig07_vector(n, None, Some(10), 80 + seed);
        table("fig07b", &heading, format!("matrix #{seed}"), fig07_variants(n, &x, seed));
    }

    let graphs: &[(usize, usize, u64)] =
        if tiny { &[(24, 2, 3)] } else { &[(64, 3, 11), (96, 4, 12), (128, 3, 13)] };
    for &(n, edges, seed) in graphs {
        table(
            "fig08",
            "Figure 8 — triangle counting on power-law graphs",
            format!("{n} vertices, ~{edges} edges/vertex"),
            fig08_variants(n, edges, seed),
        );
    }

    let (size, ksize) = if tiny { (12, 3) } else { (48, 5) };
    let densities: &[f64] = if tiny { &[0.1] } else { &[0.002, 0.01, 0.05, 0.15, 0.40] };
    let heading = format!(
        "Figure 9 — dense vs sparse convolution as density increases \
         (grid {size}x{size}, filter {ksize}x{ksize})"
    );
    for (density, variants) in fig09_variants(size, ksize, densities) {
        table("fig09", &heading, format!("density {density}"), variants);
    }

    let size = if tiny { 16 } else { 64 };
    let heading = format!("Figure 10 — alpha blending of {size}x{size} images");
    table("fig10", &heading, "omniglot-like strokes".into(), fig10_variants(size, false, 5));
    table("fig10", &heading, "humansketches-like".into(), fig10_variants(size, true, 6));

    let (count, img) = if tiny { (3, 8) } else { (16, 20) };
    let datasets: &[&str] = if tiny { &["mnist"] } else { &["mnist", "emnist", "omniglot"] };
    let heading = format!("Figure 11 — all-pairs image similarity ({count} images of {img}x{img})");
    for dataset in datasets {
        table("fig11", &heading, dataset.to_string(), fig11_variants(count, img, dataset));
    }

    let (n, density) = if tiny { (512, 0.02) } else { (20_000, 0.001) };
    let heading =
        format!("Figure S — sparse output assembly: dense vs sparse-list result (n = {n})");
    for g in figs_output_groups(n, density, 71) {
        g.assert_assembly();
        table("figS", &heading, g.group, g.variants);
    }
    tables
}

#[cfg(test)]
mod tests;
