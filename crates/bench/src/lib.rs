//! # finch-bench — the experiment harness for the Looplets evaluation
//!
//! Each module of this crate prepares the workloads and compiled kernels of
//! one figure of the paper's evaluation (§9).  The `figures` binary times
//! them — on both execution engines, tree-walk and bytecode, side by side —
//! prints one table per figure (wall-clock plus machine-independent work
//! counters), and emits the machine-readable `BENCH_figures.json` (see
//! [`report`]).
//!
//! Problem sizes are scaled down from the paper (the substrate is an
//! instrumented VM, not native code); the *relative* shapes are what
//! EXPERIMENTS.md compares against the paper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod report;
pub mod trace;

use std::time::Instant;

use finch::{CompiledKernel, Engine, Kernel, LevelSpec, Tensor};
use finch_baseline::datagen;
use finch_cin::build::*;
use finch_cin::{CinExpr, IndexVar, Protocol};

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

/// Median wall-clock seconds of `runs` executions of a compiled kernel on
/// an explicitly chosen engine, together with the work counters of one
/// execution.  Used by the `figures` binary to report tree-walk and
/// bytecode timings side by side.
pub fn time_kernel_with(
    kernel: &mut CompiledKernel,
    runs: usize,
    engine: Engine,
) -> (f64, finch::ExecStats) {
    // One untimed warmup: the first run after a (re)compile allocates the
    // persistent VM and faults the buffers in; timed runs see steady state.
    let stats = kernel.run_with(engine).expect("benchmark kernel runs");
    // Microsecond kernels are unmeasurable one run at a time (clock
    // granularity and scheduler noise swamp the signal), so size each
    // timed sample to span at least ~200µs and report per-run seconds.
    let start = Instant::now();
    kernel.run_with(engine).expect("benchmark kernel runs");
    let estimate = start.elapsed().as_secs_f64();
    let batch = ((2e-4 / estimate.max(1e-9)) as usize).clamp(1, 1024);
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        for _ in 0..batch {
            kernel.run_with(engine).expect("benchmark kernel runs");
        }
        times.push(start.elapsed().as_secs_f64() / batch as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (times[times.len() / 2], stats)
}

fn protocol_index(p: Protocol, v: &IndexVar) -> finch_cin::IndexExpr {
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
    let i = idx("i");
    let program = forall(
        i.clone(),
        add_assign(
            scalar("C"),
            mul(
                access(a.name(), [protocol_index(pa, &i)]),
                access(b.name(), [protocol_index(pb, &i)]),
            ),
        ),
    );
    kernel.compile(&program).expect("dot kernel compiles")
}

// ---------------------------------------------------------------------------
// Figure 7: SpMSpV
// ---------------------------------------------------------------------------

/// The SpMSpV kernel `y[i] += A[i,j] * x[j]`.
pub fn spmspv_kernel(a: &Tensor, x: &Tensor, pa: Protocol, px: Protocol) -> CompiledKernel {
    let nrows = a.shape()[0];
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(x).bind_output("y", &[nrows], 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(
                    access(a.name(), [i.into(), protocol_index(pa, &j)]),
                    access(x.name(), [protocol_index(px, &j)]),
                ),
            ),
        ),
    );
    kernel.compile(&program).expect("spmspv kernel compiles")
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
                        access(
                            "A",
                            [
                                finch_cin::IndexExpr::from(i.clone()),
                                finch_cin::IndexExpr::from(j.clone()),
                            ],
                        ),
                        access("A2", [finch_cin::IndexExpr::from(j), inner(&k)]),
                        access("At", [finch_cin::IndexExpr::from(i), inner(&k)]),
                    ),
                ),
            ),
        ),
    );
    kernel.compile(&program).expect("triangle kernel compiles")
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
    let shape = b.shape();
    let mut kernel = Kernel::new();
    kernel.bind_input(b).bind_input(c).bind_output("A", &shape, 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            assign(
                access("A", [i.clone(), j.clone()]),
                round_u8(add(
                    mul(lit(alpha), access(b.name(), [i.clone(), j.clone()])),
                    mul(lit(beta), access(c.name(), [i, j])),
                )),
            ),
        ),
    );
    kernel.compile(&program).expect("blend kernel compiles")
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
    let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
    let squares = forall(
        k.clone(),
        forall(
            ij.clone(),
            add_assign(
                access("R", [k.clone()]),
                mul(access(a.name(), [k.clone(), ij.clone()]), access(a.name(), [k.clone(), ij])),
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
                        mul(
                            access(a.name(), [k.clone(), ij2.clone()]),
                            access(a2.name(), [l.clone(), ij2]),
                        ),
                    ),
                ),
            ),
        ),
    );
    kernel.compile(&multi(vec![squares, pairwise])).expect("all-pairs kernel compiles")
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
    /// Run both variants once (on clones, so the timed kernels are left
    /// untouched) and assert the assembly contract: the sparse output
    /// stores exactly the oracle's nnz, materialises to the dense
    /// baseline's result, and writes strictly less than the dense variant.
    ///
    /// # Panics
    ///
    /// Panics when any part of the contract is violated — used by both the
    /// `figures` binary (before timing) and the unit tests, so the CI smoke
    /// run checks correctness, not just timing.
    pub fn assert_assembly(&self) {
        let mut dense = self.variants[0].kernel.clone();
        let mut sparse = self.variants[1].kernel.clone();
        let dense_stats = dense.run().expect("dense baseline runs");
        let sparse_stats = sparse.run().expect("sparse assembly runs");
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
        assert!(
            sparse_stats.stores < dense_stats.stores,
            "{}: sparse assembly must store strictly less ({} vs {})",
            self.group,
            sparse_stats.stores,
            dense_stats.stores
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a variant on both engines and assert outputs and work counters
    /// are bit-identical (the bench harness relies on this when printing
    /// one shared work column).
    fn assert_engine_parity(v: &mut Variant, what: &str) {
        // Compiling it was linear: register typing inferred the program
        // once and settled within three visits per basic block.
        let opt = v.kernel.opt_stats();
        assert!(
            opt.typing_blocks > 0 && opt.typing_block_visits <= 3 * opt.typing_blocks,
            "{what} `{}`: typing visited {} blocks {} times",
            v.label,
            opt.typing_blocks,
            opt.typing_block_visits
        );
        let tw = v.kernel.run_with(Engine::TreeWalk).expect("tree-walk runs");
        let tw_outs: Vec<(String, Vec<f64>)> = v
            .kernel
            .output_names()
            .into_iter()
            .map(|n| {
                let out = v.kernel.output(&n).unwrap();
                (n, out)
            })
            .collect();
        let bc = v.kernel.run_with(Engine::Bytecode).expect("bytecode runs");
        assert_eq!(tw, bc, "{what} `{}`: work counters diverge", v.label);
        for (name, tw_out) in tw_outs {
            let bc_out = v.kernel.output(&name).unwrap();
            let same = tw_out.len() == bc_out.len()
                && tw_out.iter().zip(&bc_out).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{what} `{}`: output {name} diverges", v.label);
        }
    }

    #[test]
    fn every_figure_builder_produces_runnable_kernels_on_both_engines() {
        for (_, variants) in fig01_variants(200, 20, &[8]) {
            for mut v in variants {
                assert_engine_parity(&mut v, "fig01");
            }
        }
        let xv = fig07_vector(32, Some(0.2), None, 7);
        for mut v in fig07_variants(32, &xv, 7) {
            assert_engine_parity(&mut v, "fig07");
        }
        for mut v in fig08_variants(24, 2, 3) {
            assert_engine_parity(&mut v, "fig08");
        }
        for (_, variants) in fig09_variants(12, 3, &[0.1]) {
            for mut v in variants {
                assert_engine_parity(&mut v, "fig09");
            }
        }
        for mut v in fig10_variants(16, false, 5) {
            assert_engine_parity(&mut v, "fig10");
        }
        for mut v in fig11_variants(3, 8, "mnist") {
            assert_engine_parity(&mut v, "fig11");
        }
        for g in figs_output_groups(128, 0.05, 5) {
            for mut v in g.variants {
                assert_engine_parity(&mut v, "figS");
            }
        }
    }

    #[test]
    fn sparse_output_assembly_matches_the_dense_baseline() {
        for g in figs_output_groups(200, 0.08, 11) {
            g.assert_assembly();
        }
    }

    /// The compile-latency guard: a full `Kernel::compile` and a
    /// recompilation under every compile-side configuration must stay well
    /// under the budget the `figures` binary enforces, so new optimiser
    /// passes cannot silently blow up compilation time.
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
}
