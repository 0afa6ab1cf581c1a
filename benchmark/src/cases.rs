//! The benchmark's programs and inputs.  A [`Case`] is one CIN program with
//! its seeded inputs, requested outputs and reference result; every workload
//! is a list of cases plus an operation applied to them (run / compile /
//! submit).  The same case can therefore be bound to a `Kernel` or wrapped in
//! a service `Request`, and the per-layer decomposition is generic over it.

use std::sync::Arc;

use finch::build::*;
use finch::{
    CinExpr, CinStmt, IndexExpr, IndexVar, Kernel, Level, LevelSpec, Protocol, Request, Tensor,
};

use crate::data;
use crate::reference::{self as refs, Expected};
use crate::rng::Rng;

/// The CIN program family of a case (tensor names are fixed per family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Template {
    /// `C[] += A[i] * B[i]`
    Dot { a: Protocol, b: Protocol },
    /// `y[i] += A[i, j] * x[j]`
    Spmv { a: Protocol, x: Protocol },
    /// `C[] += A[i, j] * A2[j, k] * At[i, k]`
    Triangles { gallop: bool },
    /// Fig. 9: `C[i, k] += [mask(A[i, k]) *] Aw[i + j - h, k + l - h] * F[j, l]`
    Conv { ksize: usize, masked: bool },
    /// Fig. 10: `A[i, j] = round(alpha * B[i, j] + beta * Cimg[i, j])`
    Blend { alpha: f64, beta: f64 },
    /// Fig. 11: row norms, then `O[k, l] = sqrt(R[k] + R[l] - 2 * o) where o += A[k, ij] * A2[l, ij]`
    AllPairs,
    /// `C[i] = A[i] * B[i]`
    EwiseMul,
    /// `C[i] = A[i] where A[i] > t`
    Threshold { t: f64 },
}

fn at(p: Protocol, v: &IndexVar) -> IndexExpr {
    match p {
        Protocol::Gallop => v.gallop(),
        Protocol::Walk => v.walk(),
        Protocol::Locate => v.locate(),
        Protocol::Default => v.clone().into(),
    }
}

impl Template {
    /// Build the program with `finch::build` (timed as `cin.build_us`).
    pub fn program(&self) -> CinStmt {
        match *self {
            Template::Dot { a, b } => {
                let i = idx("i");
                forall(
                    i.clone(),
                    add_assign(
                        scalar("C"),
                        mul(access("A", [at(a, &i)]), access("B", [at(b, &i)])),
                    ),
                )
            }
            Template::Spmv { a, x } => {
                let (i, j) = (idx("i"), idx("j"));
                forall(
                    i.clone(),
                    forall(
                        j.clone(),
                        add_assign(
                            access("y", [i.clone()]),
                            mul(access("A", [i.into(), at(a, &j)]), access("x", [at(x, &j)])),
                        ),
                    ),
                )
            }
            Template::Triangles { gallop } => {
                let (i, j, k) = (idx("i"), idx("j"), idx("k"));
                let inner = if gallop { Protocol::Gallop } else { Protocol::Walk };
                let plain = |v: &IndexVar| IndexExpr::from(v.clone());
                forall(
                    i.clone(),
                    forall(
                        j.clone(),
                        forall(
                            k.clone(),
                            add_assign(
                                scalar("C"),
                                mul3(
                                    access("A", [plain(&i), plain(&j)]),
                                    access("A2", [plain(&j), at(inner, &k)]),
                                    access("At", [plain(&i), at(inner, &k)]),
                                ),
                            ),
                        ),
                    ),
                )
            }
            Template::Conv { ksize, masked } => {
                let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
                let half = (ksize / 2) as i64;
                let shifted = |tap: &IndexVar, centre: &IndexVar| {
                    tap.walk().offset(sub(lit_int(half), CinExpr::Index(centre.clone()))).permit()
                };
                let window: CinExpr = coalesce(vec![
                    access("Aw", [shifted(&j, &i), shifted(&l, &k)]).into(),
                    lit(0.0),
                ]);
                let tap = access("F", [j.clone(), l.clone()]);
                let rhs = if masked {
                    mul3(nonzero_mask(access("A", [i.clone(), k.clone()])), window, tap)
                } else {
                    mul(window, tap)
                };
                let last = lit_int(ksize as i64 - 1);
                forall(
                    i.clone(),
                    forall(
                        k.clone(),
                        forall_in(
                            j,
                            lit_int(0),
                            last.clone(),
                            forall_in(l, lit_int(0), last, add_assign(access("C", [i, k]), rhs)),
                        ),
                    ),
                )
            }
            Template::Blend { alpha, beta } => {
                let (i, j) = (idx("i"), idx("j"));
                forall(
                    i.clone(),
                    forall(
                        j.clone(),
                        assign(
                            access("A", [i.clone(), j.clone()]),
                            round_u8(add(
                                mul(lit(alpha), access("B", [i.clone(), j.clone()])),
                                mul(lit(beta), access("Cimg", [i, j])),
                            )),
                        ),
                    ),
                )
            }
            Template::AllPairs => {
                let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
                let norms = forall(
                    k.clone(),
                    forall(
                        ij.clone(),
                        add_assign(
                            access("R", [k.clone()]),
                            mul(access("A", [k.clone(), ij.clone()]), access("A", [k.clone(), ij])),
                        ),
                    ),
                );
                let distance = sqrt(add(
                    add(access("R", [k.clone()]), access("R", [l.clone()])),
                    mul(lit(-2.0), CinExpr::Access(scalar("o"))),
                ));
                let inner = forall(
                    ij2.clone(),
                    add_assign(
                        scalar("o"),
                        mul(access("A", [k.clone(), ij2.clone()]), access("A2", [l.clone(), ij2])),
                    ),
                );
                let pairs = forall(
                    k.clone(),
                    forall(l.clone(), where_(assign(access("O", [k, l]), distance), inner)),
                );
                multi(vec![norms, pairs])
            }
            Template::EwiseMul => {
                let i = idx("i");
                forall(
                    i.clone(),
                    assign(
                        access("C", [i.clone()]),
                        mul(access("A", [i.clone()]), access("B", [i])),
                    ),
                )
            }
            Template::Threshold { t } => {
                let i = idx("i");
                forall(
                    i.clone(),
                    sieve(
                        gt(access("A", [i.clone()]), lit(t)),
                        assign(access("C", [i.clone()]), access("A", [i])),
                    ),
                )
            }
        }
    }
}

/// The storage format an input is built in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    DenseVec,
    ListVec,
    BandVec,
    BitmapVec,
    DenseMat,
    Csr,
    Vbl,
    Rle,
    PackBits,
    Triangular,
    Symmetric,
    Ragged,
}

/// Where an input's entries come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Dense row-major data, converted by the public `Tensor` constructor
    /// of the spec's [`Format`].
    Dense(Arc<Vec<f64>>),
    /// CSR arrays used as they are (large serve matrices).
    Csr { pos: Vec<i64>, idx: Vec<i64>, val: Vec<f64> },
}

/// One named input of a case: enough to (re)build its `Tensor`.
#[derive(Debug, Clone)]
pub struct InputSpec {
    pub name: &'static str,
    pub format: Format,
    pub rows: usize,
    pub cols: usize,
    pub source: Source,
}

impl InputSpec {
    fn vector(name: &'static str, format: Format, data: Arc<Vec<f64>>) -> Self {
        InputSpec { name, format, rows: 1, cols: data.len(), source: Source::Dense(data) }
    }

    fn matrix(
        name: &'static str,
        format: Format,
        rows: usize,
        cols: usize,
        data: Arc<Vec<f64>>,
    ) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data must match its shape");
        InputSpec { name, format, rows, cols, source: Source::Dense(data) }
    }

    /// The dense data of a [`Source::Dense`] input.
    pub fn dense(&self) -> &[f64] {
        match &self.source {
            Source::Dense(d) => d,
            Source::Csr { .. } => panic!("input `{}` has no dense form", self.name),
        }
    }

    /// Build the tensor (timed as `formats.build_us`).
    pub fn build(&self) -> Tensor {
        let (name, r, c) = (self.name, self.rows, self.cols);
        let d = match &self.source {
            Source::Dense(d) => d.as_slice(),
            Source::Csr { pos, idx, val } => {
                let levels = vec![
                    Level::Dense { size: r },
                    Level::SparseList { size: c, pos: pos.clone(), idx: idx.clone() },
                ];
                return Tensor::new(name, levels, val.clone(), 0.0)
                    .expect("generated CSR arrays are well-formed");
            }
        };
        match self.format {
            Format::DenseVec => Tensor::dense_vector(name, d),
            Format::ListVec => Tensor::sparse_list_vector(name, d),
            Format::BandVec => Tensor::band_vector(name, d),
            Format::BitmapVec => Tensor::bitmap_vector(name, d),
            Format::DenseMat => Tensor::dense_matrix(name, r, c, d),
            Format::Csr => Tensor::csr_matrix(name, r, c, d),
            Format::Vbl => Tensor::vbl_matrix(name, r, c, d),
            Format::Rle => Tensor::rle_matrix(name, r, c, d),
            Format::PackBits => Tensor::packbits_matrix(name, r, c, d),
            Format::Triangular => Tensor::triangular_matrix(name, r, d),
            Format::Symmetric => Tensor::symmetric_matrix(name, r, d),
            Format::Ragged => Tensor::ragged_matrix(name, r, c, d),
        }
    }
}

/// One program with its inputs, outputs and reference result.
#[derive(Debug, Clone)]
pub struct Case {
    /// The class / kernel name (`vm.run_us.<name>` for the run kernels).
    pub name: String,
    pub template: Template,
    pub inputs: Vec<InputSpec>,
    /// Bound outputs, outermost level first; an empty stack is a scalar.
    pub outputs: Vec<(&'static str, Vec<LevelSpec>)>,
    /// The output that is read back and checked.
    pub read: &'static str,
    pub expected: Expected,
}

impl Case {
    /// Build every input tensor.
    pub fn tensors(&self) -> Vec<Tensor> {
        self.inputs.iter().map(InputSpec::build).collect()
    }

    /// A default-configured `Kernel` with the case's inputs and outputs
    /// bound (timed as `kernel.bind_us`).
    pub fn bind(&self, tensors: &[Tensor]) -> Kernel {
        let mut kernel = Kernel::new();
        for t in tensors {
            kernel.bind_input(t);
        }
        for (name, specs) in &self.outputs {
            kernel.bind_output_format(name, specs);
        }
        kernel
    }

    /// The case as a service request reading back [`Case::read`].
    pub fn request(&self, program: CinStmt, tensors: &[Tensor]) -> Request {
        let mut req = Request::new(program);
        for t in tensors {
            req = req.input(t);
        }
        // `Request::output*` makes the last-bound output the one read back.
        assert_eq!(self.outputs.last().map(|(name, _)| *name), Some(self.read));
        for (name, specs) in &self.outputs {
            req = if specs.is_empty() { req.output_scalar(name) } else { req.output(name, specs) };
        }
        req
    }
}

fn dense_out(shape: &[usize]) -> Vec<LevelSpec> {
    shape.iter().map(|&size| LevelSpec::Dense { size }).collect()
}

fn share(data: Vec<f64>) -> Arc<Vec<f64>> {
    Arc::new(data)
}

fn dot_case(name: &str, a: InputSpec, b: InputSpec, pa: Protocol, pb: Protocol) -> Case {
    let expected = Expected::Scalar(refs::dot(a.dense(), b.dense()));
    Case {
        name: name.to_string(),
        template: Template::Dot { a: pa, b: pb },
        inputs: vec![a, b],
        outputs: vec![("C", vec![])],
        read: "C",
        expected,
    }
}

fn spmv_case(name: &str, a: InputSpec, x: InputSpec, pa: Protocol, px: Protocol) -> Case {
    let y = match &a.source {
        Source::Dense(d) => refs::spmv(a.rows, a.cols, d, x.dense()),
        Source::Csr { pos, idx, val } => refs::spmv_csr(pos, idx, val, x.dense()),
    };
    let rows = a.rows;
    Case {
        name: name.to_string(),
        template: Template::Spmv { a: pa, x: px },
        inputs: vec![a, x],
        outputs: vec![("y", dense_out(&[rows]))],
        read: "y",
        expected: Expected::Dense { values: y, exact: false },
    }
}

fn triangles_case(name: &str, n: usize, adj: Arc<Vec<f64>>, gallop: bool) -> Case {
    // The adjacency matrix is symmetric, so the pre-transposed last argument
    // of the paper's kernel is the matrix itself under a third name.
    let inputs =
        ["A", "A2", "At"].map(|nm| InputSpec::matrix(nm, Format::Csr, n, n, adj.clone())).to_vec();
    Case {
        name: name.to_string(),
        template: Template::Triangles { gallop },
        inputs,
        outputs: vec![("C", vec![])],
        read: "C",
        expected: Expected::Scalar(refs::triangles(n, &adj)),
    }
}

fn conv_case(name: &str, size: usize, ksize: usize, grid: Arc<Vec<f64>>, masked: bool) -> Case {
    let filter: Vec<f64> = (0..ksize * ksize).map(|v| 0.5 + (v % 5) as f64 * 0.1).collect();
    let expected = refs::conv(size, ksize, &grid, &filter, masked);
    let fmt = if masked { Format::Csr } else { Format::DenseMat };
    Case {
        name: name.to_string(),
        template: Template::Conv { ksize, masked },
        inputs: vec![
            InputSpec::matrix("A", fmt, size, size, grid.clone()),
            InputSpec::matrix("Aw", fmt, size, size, grid),
            InputSpec::matrix("F", Format::DenseMat, ksize, ksize, share(filter)),
        ],
        outputs: vec![("C", dense_out(&[size, size]))],
        read: "C",
        expected: Expected::Dense { values: expected, exact: false },
    }
}

fn blend_case(name: &str, size: usize, fg: Arc<Vec<f64>>, bg: Arc<Vec<f64>>, fmt: Format) -> Case {
    let (alpha, beta) = (0.6, 0.4);
    let expected = refs::blend(&fg, &bg, alpha, beta);
    Case {
        name: name.to_string(),
        template: Template::Blend { alpha, beta },
        inputs: vec![
            InputSpec::matrix("B", fmt, size, size, fg),
            InputSpec::matrix("Cimg", fmt, size, size, bg),
        ],
        outputs: vec![("A", dense_out(&[size, size]))],
        read: "A",
        expected: Expected::Dense { values: expected, exact: true },
    }
}

fn all_pairs_case(name: &str, count: usize, m: usize, batch: Arc<Vec<f64>>, fmt: Format) -> Case {
    let expected = refs::all_pairs(count, m, &batch);
    Case {
        name: name.to_string(),
        template: Template::AllPairs,
        inputs: vec![
            InputSpec::matrix("A", fmt, count, m, batch.clone()),
            InputSpec::matrix("A2", fmt, count, m, batch),
        ],
        outputs: vec![("R", dense_out(&[count])), ("O", dense_out(&[count, count])), ("o", vec![])],
        read: "O",
        expected: Expected::Dense { values: expected, exact: false },
    }
}

fn ewise_case(name: &str, a: InputSpec, b: InputSpec, sparse_out: bool) -> Case {
    let n = a.cols;
    let product = refs::ewise_mul(a.dense(), b.dense());
    let (spec, expected) = if sparse_out {
        (vec![LevelSpec::SparseList { size: n }], refs::sparse_list(&product, |v| v != 0.0))
    } else {
        (dense_out(&[n]), Expected::Dense { values: product, exact: true })
    };
    Case {
        name: name.to_string(),
        template: Template::EwiseMul,
        inputs: vec![a, b],
        outputs: vec![("C", spec)],
        read: "C",
        expected,
    }
}

fn threshold_case(name: &str, a: InputSpec, t: f64) -> Case {
    let n = a.cols;
    let expected = refs::sparse_list(a.dense(), |v| v > t);
    Case {
        name: name.to_string(),
        template: Template::Threshold { t },
        inputs: vec![a],
        outputs: vec![("C", vec![LevelSpec::SparseList { size: n }])],
        read: "C",
        expected,
    }
}

/// Problem sizes of the fourteen figure kernels.
#[derive(Debug, Clone, Copy)]
pub struct FigureSizes {
    /// Fig. 1 dot: vector length, list nonzeros, band width.
    pub dot: (usize, usize, usize),
    /// Fig. 7 SpMSpV: matrix order, blocks per row, block length, scattered
    /// nonzeros per row, nonzeros of `x`.
    pub spmspv: (usize, usize, usize, usize, usize),
    /// Fig. 8 triangles: vertices, edges added per vertex.
    pub triangles: (usize, usize),
    /// Fig. 9 convolution: grid side, filter side, grid nonzeros (sparse variant).
    pub conv: (usize, usize, usize),
    /// Fig. 10 blend: image side, strokes per image.
    pub blend: (usize, usize),
    /// Fig. 11 all-pairs: images, image side, strokes per image.
    pub all_pairs: (usize, usize, usize),
    /// Sparse-output kernels: vector length, nonzeros per operand.
    pub sparse_out: (usize, usize),
}

/// Sizes at which one `run()` takes 0.1–5 ms on the bytecode VM.
pub const RUN_SIZES: FigureSizes = FigureSizes {
    dot: (400_000, 40_000, 120_000),
    spmspv: (400, 2, 6, 4, 80),
    triangles: (256, 5),
    conv: (48, 5, 230),
    blend: (160, 10),
    all_pairs: (14, 24, 4),
    sparse_out: (60_000, 6_000),
};

/// Sizes for `compile_cold` (n ≈ 64): compile time is structural, so small
/// tensors keep binding and the post-compile check run negligible.
pub const COMPILE_SIZES: FigureSizes = FigureSizes {
    dot: (64, 12, 20),
    spmspv: (64, 1, 4, 2, 12),
    triangles: (48, 3),
    conv: (12, 3, 20),
    blend: (16, 3),
    all_pairs: (4, 8, 2),
    sparse_out: (64, 16),
};

/// Two sparse vectors of `nnz` nonzeros each whose supports share exactly
/// `nnz / 2` positions, so an elementwise product has the same number of
/// entries for every seed.
fn overlapping_pair(n: usize, nnz: usize, rng: &mut Rng) -> (Arc<Vec<f64>>, Arc<Vec<f64>>) {
    let only = nnz - nnz / 2;
    let mut support = rng.distinct_sorted(n, nnz + only);
    rng.shuffle(&mut support);
    let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
    for (k, &i) in support.iter().enumerate() {
        if k < nnz {
            a[i] = rng.range(0.5, 10.0);
        }
        if k >= only {
            b[i] = rng.range(0.5, 10.0);
        }
    }
    (share(a), share(b))
}

/// The six merge-driven kernels of Figs. 1, 7, 8.
pub fn merge_cases(seed: u64, s: &FigureSizes) -> Vec<Case> {
    let (n, nnz, width) = s.dot;
    let a = share(data::sparse_vector(n, nnz, &mut Rng::stream(seed, 1)));
    let b = share(data::band_vector(n, n / 3, width, &mut Rng::stream(seed, 2)));
    let mut cases = vec![dot_case(
        "dot_list_band",
        InputSpec::vector("A", Format::ListVec, a),
        InputSpec::vector("B", Format::BandVec, b),
        Protocol::Walk,
        Protocol::Default,
    )];

    let (n, blocks, block_len, scatter, x_nnz) = s.spmspv;
    let m =
        share(data::clustered_matrix(n, n, blocks, block_len, scatter, &mut Rng::stream(seed, 3)));
    let x = share(data::sparse_vector(n, x_nnz, &mut Rng::stream(seed, 4)));
    for (name, fmt, p) in [
        ("spmspv_walk", Format::Csr, Protocol::Walk),
        ("spmspv_gallop", Format::Csr, Protocol::Gallop),
        ("spmspv_vbl", Format::Vbl, Protocol::Walk),
    ] {
        cases.push(spmv_case(
            name,
            InputSpec::matrix("A", fmt, n, n, m.clone()),
            InputSpec::vector("x", Format::ListVec, x.clone()),
            p,
            p,
        ));
    }

    let (n, edges) = s.triangles;
    let adj = share(data::power_law_graph(n, edges, &mut Rng::stream(seed, 5)));
    cases.push(triangles_case("triangles_walk", n, adj.clone(), false));
    cases.push(triangles_case("triangles_gallop", n, adj, true));
    cases
}

/// The eight dense / run-structured / output-writing kernels of Figs. 9–11
/// and the sparse-output pair.
pub fn dense_cases(seed: u64, s: &FigureSizes) -> Vec<Case> {
    let (size, ksize, nnz) = s.conv;
    let grid = share(data::sparse_vector(size * size, nnz, &mut Rng::stream(seed, 6)));
    let mut cases = vec![
        conv_case("conv_dense", size, ksize, grid.clone(), false),
        conv_case("conv_sparse", size, ksize, grid, true),
    ];

    let (size, strokes) = s.blend;
    let fg = share(data::stroke_image(size, strokes, &mut Rng::stream(seed, 7)));
    let bg = share(data::stroke_image(size, strokes, &mut Rng::stream(seed, 8)));
    cases.push(blend_case("blend_dense", size, fg.clone(), bg.clone(), Format::DenseMat));
    cases.push(blend_case("blend_rle", size, fg, bg, Format::Rle));

    let (count, side, strokes) = s.all_pairs;
    let batch = share(data::image_batch(count, side, strokes, &mut Rng::stream(seed, 9)));
    let m = side * side;
    cases.push(all_pairs_case("allpairs_dense", count, m, batch.clone(), Format::DenseMat));
    cases.push(all_pairs_case("allpairs_rle", count, m, batch, Format::Rle));

    let (n, nnz) = s.sparse_out;
    let (a, b) = overlapping_pair(n, nnz, &mut Rng::stream(seed, 10));
    cases.push(ewise_case(
        "ewise_sparse_out",
        InputSpec::vector("A", Format::ListVec, a.clone()),
        InputSpec::vector("B", Format::ListVec, b),
        true,
    ));
    cases.push(threshold_case(
        "threshold_sparse_out",
        InputSpec::vector("A", Format::ListVec, a),
        5.0,
    ));
    cases
}

/// The fourteen run kernels' names, in `merge_cases` then `dense_cases`
/// order (the `vm.run_us.<kernel>` rows).
pub const RUN_KERNELS: [&str; 14] = [
    "dot_list_band",
    "spmspv_walk",
    "spmspv_gallop",
    "spmspv_vbl",
    "triangles_walk",
    "triangles_gallop",
    "conv_dense",
    "conv_sparse",
    "blend_dense",
    "blend_rle",
    "allpairs_dense",
    "allpairs_rle",
    "ewise_sparse_out",
    "threshold_sparse_out",
];

/// `compile_cold`'s programs: the figure kernels at small sizes plus one
/// program per input level format they leave out (PackBits, Bitmap,
/// Triangular, Symmetric, Ragged) and the `locate` protocol, so that all
/// ten input formats, walk / gallop / locate, a `where` temporary and both
/// output formats are compiled.
pub fn compile_cases(seed: u64) -> Vec<Case> {
    let s = &COMPILE_SIZES;
    let mut cases = merge_cases(seed, s);
    cases.extend(dense_cases(seed, s));

    let n = 64;
    let x = share(data::dense_vector(n, &mut Rng::stream(seed, 20)));
    let xs = |fmt| InputSpec::vector("x", fmt, x.clone());
    let packed = share(data::image_batch(1, 8, 3, &mut Rng::stream(seed, 21)));
    cases.push(spmv_case(
        "spmv_packbits",
        InputSpec::matrix("A", Format::PackBits, 1, n, packed),
        xs(Format::DenseVec),
        Protocol::Default,
        Protocol::Default,
    ));
    let a = share(data::sparse_vector(n, 16, &mut Rng::stream(seed, 22)));
    let b = share(data::sparse_vector(n, 16, &mut Rng::stream(seed, 23)));
    cases.push(dot_case(
        "dot_bitmap",
        InputSpec::vector("A", Format::BitmapVec, a.clone()),
        InputSpec::vector("B", Format::ListVec, b.clone()),
        Protocol::Default,
        Protocol::Walk,
    ));
    let side = 16;
    let xt = share(data::dense_vector(side, &mut Rng::stream(seed, 24)));
    for (name, fmt, m) in [
        (
            "spmv_triangular",
            Format::Triangular,
            data::lower_triangle(side, &mut Rng::stream(seed, 25)),
        ),
        ("spmv_symmetric", Format::Symmetric, data::symmetric(side, &mut Rng::stream(seed, 26))),
        ("spmv_ragged", Format::Ragged, data::ragged(side, side, &mut Rng::stream(seed, 27))),
    ] {
        cases.push(spmv_case(
            name,
            InputSpec::matrix("A", fmt, side, side, share(m)),
            InputSpec::vector("x", Format::DenseVec, xt.clone()),
            Protocol::Default,
            Protocol::Default,
        ));
    }
    cases.push(dot_case(
        "dot_locate",
        InputSpec::vector("A", Format::ListVec, a),
        InputSpec::vector("B", Format::ListVec, b),
        Protocol::Walk,
        Protocol::Locate,
    ));
    cases
}

/// The four request templates of the serve workloads.
pub const SERVE_TEMPLATES: [&str; 4] = ["dot", "ewise_dense", "ewise_sparse", "spmv"];

/// One serve structure: template `t` (index into [`SERVE_TEMPLATES`]) at
/// size `n`, with data instance `instance`.  Instances of one structure
/// share formats and sizes (one cached kernel) and differ in their entries.
pub fn serve_case(seed: u64, t: usize, n: usize, instance: usize) -> Case {
    let tag = 1000 + ((t * 100_000 + n) * 16 + instance) as u64 * 4;
    let nnz = n / 8;
    let list = |name, k| {
        let v = data::sparse_vector(n, nnz, &mut Rng::stream(seed, tag + k));
        InputSpec::vector(name, Format::ListVec, share(v))
    };
    let dense = |name, k| {
        let v = data::dense_vector(n, &mut Rng::stream(seed, tag + k));
        InputSpec::vector(name, Format::DenseVec, share(v))
    };
    let name = format!("{}.n{n}", SERVE_TEMPLATES[t]);
    match t {
        0 => dot_case(&name, list("A", 0), dense("B", 1), Protocol::Default, Protocol::Default),
        1 => ewise_case(&name, list("A", 0), dense("B", 1), false),
        2 => {
            let (a, b) = overlapping_pair(n, nnz, &mut Rng::stream(seed, tag));
            let list = |name, v| InputSpec::vector(name, Format::ListVec, v);
            ewise_case(&name, list("A", a), list("B", b), true)
        }
        3 => {
            // n/8 rows of 4 nonzeros over n columns: the request carries
            // about as many entries as the vector templates at the same n,
            // and the run stays comparable to the service's own cost.
            let rows = (n / 8).max(4);
            let (pos, idx, val) = data::csr_rows(rows, n, 4, &mut Rng::stream(seed, tag));
            let a = InputSpec {
                name: "A",
                format: Format::Csr,
                rows,
                cols: n,
                source: Source::Csr { pos, idx, val },
            };
            spmv_case(&name, a, dense("x", 1), Protocol::Default, Protocol::Default)
        }
        _ => panic!("no serve template {t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_kernels_names_the_figure_cases_in_order() {
        let mut cases = merge_cases(1, &COMPILE_SIZES);
        cases.extend(dense_cases(1, &COMPILE_SIZES));
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, RUN_KERNELS);
    }
}
