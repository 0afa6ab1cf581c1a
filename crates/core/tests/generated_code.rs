//! Structural and asymptotic properties of the generated code: these tests
//! check that the lowering reproduces the *shape* of the code listings in
//! the paper (Figures 1b and 6) and the asymptotic behaviour those shapes
//! exist to deliver.

use finch::build::*;
use finch::{CinExpr, CompiledKernel, ExecConfig, IndexVar, Kernel, OptLevel, Protocol, Tensor};

fn dot(a: &Tensor, b: &Tensor, pa: Protocol, pb: Protocol) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(b).bind_output_scalar("C");
    let i = idx("i");
    let with = |p: Protocol, v: &finch::IndexVar| match p {
        Protocol::Gallop => v.gallop(),
        Protocol::Walk => v.walk(),
        Protocol::Locate => v.locate(),
        Protocol::Default => v.clone().into(),
    };
    let program = forall(
        i.clone(),
        add_assign(
            scalar("C"),
            mul(access(a.name(), [with(pa, &i)]), access(b.name(), [with(pb, &i)])),
        ),
    );
    kernel.compile(&program).expect("dot compiles")
}

#[test]
fn two_finger_merge_has_the_figure_1_shape() {
    // Two sparse lists walked together: the generated code must contain a
    // while loop, a min over the two declared strides, and guarded
    // position increments — the classic two-finger merge.
    let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0, 0.0, 3.0]);
    let b = Tensor::sparse_list_vector("B", &[4.0, 0.0, 5.0, 0.0, 0.0, 6.0]);
    let k = dot(&a, &b, Protocol::Walk, Protocol::Walk);
    let code = k.code();
    assert!(code.contains("while"), "{code}");
    assert!(code.contains("min("), "{code}");
    assert!(code.contains("A_idx0["), "{code}");
    assert!(code.contains("B_idx0["), "{code}");
    // Guarded advancement: each list only advances when its stride was the
    // chosen boundary.
    assert!(code.matches("if (stride").count() >= 2, "{code}");
}

#[test]
fn galloping_merge_uses_max_and_binary_search() {
    let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0, 0.0, 3.0]);
    let b = Tensor::sparse_list_vector("B", &[4.0, 0.0, 5.0, 0.0, 0.0, 6.0]);
    let k = dot(&a, &b, Protocol::Gallop, Protocol::Gallop);
    let code = k.code();
    assert!(code.contains("max("), "leaders use the largest stride:\n{code}");
    assert!(code.contains("search("), "seek functions binary search:\n{code}");
    // The galloping nest's switch produces an if/else on whether this list's
    // next coordinate is exactly the region boundary.
    assert!(code.contains("} else {"), "{code}");
}

#[test]
fn dense_times_sparse_skips_nothing_but_visits_only_nonzeros_of_the_list() {
    let n = 1000;
    let mut a_data = vec![0.0; n];
    for k in (0..n).step_by(97) {
        a_data[k] = 1.0;
    }
    let b_data: Vec<f64> = (0..n).map(|x| x as f64).collect();
    let a = Tensor::sparse_list_vector("A", &a_data);
    let b = Tensor::dense_vector("B", &b_data);
    let mut k = dot(&a, &b, Protocol::Walk, Protocol::Locate);
    let stats = k.run().expect("runs");
    let expect: f64 = a_data.iter().zip(&b_data).map(|(x, y)| x * y).sum();
    assert_eq!(k.output_scalar("C").unwrap(), expect);
    // Work is proportional to the number of stored nonzeros of A (11), not
    // to the dense dimension (1000).
    assert!(stats.loop_iters < 100, "iterations {}", stats.loop_iters);
}

#[test]
fn rle_reduction_collapses_runs_with_the_invariant_loop_rule() {
    // Summing a run-length-encoded vector should do work proportional to
    // the number of runs, because `C[] += v` over a run of length L is
    // rewritten to `C[] += v * L`.
    let n = 4096;
    let mut data = vec![1.5; n];
    for k in 0..8 {
        data[k * 512] = (k + 2) as f64;
    }
    let t = Tensor::rle_vector("V", &data);
    assert!(t.stored() < 32, "few runs expected");
    let mut kernel = Kernel::new();
    kernel.bind_input(&t).bind_output_scalar("S");
    let i = idx("i");
    let program = forall(i.clone(), add_assign(scalar("S"), access("V", [i])));
    let mut compiled = kernel.compile(&program).expect("sum compiles");
    let stats = compiled.run().expect("sum runs");
    let expect: f64 = data.iter().sum();
    assert!((compiled.output_scalar("S").unwrap() - expect).abs() < 1e-6);
    assert!(
        stats.loop_iters < 64,
        "work should scale with runs, not elements: {} iterations\n{}",
        stats.loop_iters,
        compiled.code()
    );
    // The generated code contains the collapsed multiplication by the run
    // length rather than a per-element loop over each run.
    assert!(compiled.code().contains("max("), "{}", compiled.code());
}

#[test]
fn zero_regions_are_deleted_not_executed() {
    // A sparse list multiplied by an all-zero band: after simplification
    // nothing at all should execute inside the loop nest.
    let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 0.0, 2.0]);
    let b = Tensor::band_vector("B", &[0.0, 0.0, 0.0, 0.0]);
    let mut k = dot(&a, &b, Protocol::Walk, Protocol::Default);
    let stats = k.run().expect("runs");
    assert_eq!(k.output_scalar("C").unwrap(), 0.0);
    assert!(
        stats.loop_iters <= 1,
        "zero band should produce no iteration: {stats:?}\n{}",
        k.code()
    );
}

#[test]
fn bitmap_switch_specialises_the_zero_case() {
    let data = vec![0.0, 3.0, 0.0, 0.0, 7.0, 0.0];
    let a = Tensor::bitmap_vector("A", &data);
    let b = Tensor::dense_vector("B", &[1.0; 6]);
    let mut k = dot(&a, &b, Protocol::Locate, Protocol::Locate);
    k.run().expect("runs");
    assert_eq!(k.output_scalar("C").unwrap(), 10.0);
    // The bitmap's zero check appears in the generated code.
    assert!(k.code().contains("A_tbl0["), "{}", k.code());
}

#[test]
fn generated_code_for_spmspv_nests_the_row_loop_outside_the_merge() {
    let data = vec![
        0.0, 1.0, 0.0, 2.0, //
        3.0, 0.0, 0.0, 0.0, //
        0.0, 0.0, 4.0, 0.0,
    ];
    let a = Tensor::csr_matrix("A", 3, 4, &data);
    let x = Tensor::sparse_list_vector("x", &[1.0, 0.0, 2.0, 3.0]);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&x).bind_output("y", &[3], 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(access("A", [i.into(), j.walk()]), access("x", [j.walk()])),
            ),
        ),
    );
    let mut compiled = kernel.compile(&program).expect("spmspv compiles");
    compiled.run().expect("spmspv runs");
    assert_eq!(compiled.output("y").unwrap(), vec![6.0, 3.0, 8.0]);
    let code = compiled.code();
    // The outer dense row loop is a for; the inner coiteration is a while.
    let for_pos = code.find("for i").expect("outer for loop");
    let while_pos = code.find("while").expect("inner merge loop");
    assert!(for_pos < while_pos, "{code}");
}

#[test]
fn compiled_kernels_can_be_rerun_and_are_deterministic() {
    let a = Tensor::sparse_list_vector("A", &[0.0, 1.0, 2.0, 0.0, 4.0]);
    let b = Tensor::sparse_list_vector("B", &[1.0, 1.0, 0.0, 1.0, 0.5]);
    let mut k = dot(&a, &b, Protocol::Walk, Protocol::Walk);
    let s1 = k.run().expect("first run");
    let v1 = k.output_scalar("C");
    let s2 = k.run().expect("second run");
    let v2 = k.output_scalar("C");
    assert_eq!(v1, v2, "outputs must be reset between runs");
    assert_eq!(s1, s2, "work counters are deterministic");
}

// ---------------------------------------------------------------------------
// The finalized bytecode of the figure kernels' hot loops: what loop-invariant
// code motion and the register-valued fill leave per innermost iteration.
// ---------------------------------------------------------------------------

/// Fig. 9's dense convolution `C[i,k] += coalesce(A[i+j-h, k+l-h], 0) * F[j,l]`.
fn dense_convolution(size: usize, ksize: usize) -> CompiledKernel {
    let grid: Vec<f64> =
        (0..size * size).map(|v| if v % 7 == 3 { 1.0 + (v % 4) as f64 } else { 0.0 }).collect();
    let filter: Vec<f64> = (0..ksize * ksize).map(|v| 0.5 + (v % 5) as f64 * 0.1).collect();
    let mut kernel = Kernel::new();
    kernel
        .bind_input(&Tensor::dense_matrix("A", size, size, &grid))
        .bind_input(&Tensor::dense_matrix("F", ksize, ksize, &filter))
        .bind_output("C", &[size, size], 0.0);
    let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
    let half = (ksize / 2) as i64;
    let shifted = |tap: &IndexVar, centre: &IndexVar| {
        tap.walk().offset(sub(lit_int(half), CinExpr::Index(centre.clone()))).permit()
    };
    let window: CinExpr =
        coalesce(vec![access("A", [shifted(&j, &i), shifted(&l, &k)]).into(), lit(0.0)]);
    let last = lit_int(ksize as i64 - 1);
    let taps = forall_in(
        l.clone(),
        lit_int(0),
        last.clone(),
        add_assign(access("C", [i.clone(), k.clone()]), mul(window, access("F", [j.clone(), l]))),
    );
    let program = forall(i, forall(k, forall_in(j, lit_int(0), last, taps)));
    kernel.compile(&program).expect("convolution compiles")
}

/// Two images of flat regions: bands of `band` rows, `b` in blocks of 32
/// columns and `c` constant along each row.
fn flat_images(size: usize, band: usize) -> (Vec<f64>, Vec<f64>) {
    let at = |f: &dyn Fn(usize, usize) -> bool| -> Vec<f64> {
        (0..size * size).map(|v| if f(v / size, v % size) { 200.0 } else { 40.0 }).collect()
    };
    (at(&|r, c| (r / band + c / 32).is_multiple_of(2)), at(&|r, _| (r / band) % 2 == 1))
}

/// Fig. 10's alpha blend `A[i,j] = round_u8(0.6 * B[i,j] + 0.4 * Cimg[i,j])`.
fn blend(b: &Tensor, c: &Tensor) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(b).bind_input(c).bind_output("A", &b.shape(), 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let value = round_u8(add(
        mul(lit(0.6), access("B", [i.clone(), j.clone()])),
        mul(lit(0.4), access("Cimg", [i.clone(), j.clone()])),
    ));
    let program = forall(i.clone(), forall(j.clone(), assign(access("A", [i, j]), value)));
    kernel.compile(&program).expect("blend compiles")
}

/// The disassembly lines of the loop over `var`, head to bottom test.
fn loop_lines<'a>(disasm: &'a str, var: &str) -> Vec<&'a str> {
    let lines: Vec<&str> = disasm.lines().collect();
    let head = lines
        .iter()
        .position(|l| l.contains(&format!(": for {var} = ")))
        .unwrap_or_else(|| panic!("no loop over `{var}`:\n{disasm}"));
    let back = lines[head..]
        .iter()
        .position(|l| l.contains(&format!(": next {var} = ")))
        .unwrap_or_else(|| panic!("no bottom test of `{var}`:\n{disasm}"));
    lines[head..=head + back].to_vec()
}

/// A disassembly line without its pc and its statement count.
fn op(line: &str) -> &str {
    let line = line.split("  ;").next().unwrap();
    line.split_once(": ").unwrap().1
}

#[test]
fn dense_convolution_inner_loop_keeps_only_what_changes_per_tap() {
    let kernel = dense_convolution(12, 3);
    let disasm = kernel.bytecode().disasm();
    let inner = loop_lines(&disasm, "l");
    // Head, the window index (`l - inv`, `inv + ..`), its load (typed, so
    // the `coalesce` behind it is decided and gone), the tap index,
    // multiply-load, accumulate, bottom test: the row and tap bases
    // (`i * 12 + k`, `(j - (1 - i)) * 12`, `1 - k`, `j * 3`) are read in
    // place, and evaluated where they change, not per tap.
    assert!(inner.len() <= 8, "{} instructions:\n{}", inner.len(), inner.join("\n"));
    for line in &inner {
        assert!(!line.contains("const.i"), "an integer literal per tap:\n{}", inner.join("\n"));
        assert!(
            !(line.contains(" * ") && line.contains("(i64)")),
            "an integer multiply per tap:\n{}",
            inner.join("\n")
        );
    }
    let code = kernel.code();
    assert!(code.contains(" = (i * 12);\n"), "the output row base leaves `k`, `j`, `l`:\n{code}");
    assert!(code.contains(") * 12);\n"), "the window row base leaves `l`:\n{code}");
}

#[test]
fn rle_blend_fills_each_run_from_a_register() {
    let (size, band) = (64, 8);
    let (b, c) = flat_images(size, band);
    let mut kernel = blend(
        &Tensor::rle_matrix("B", size, size, &b),
        &Tensor::rle_matrix("Cimg", size, size, &c),
    );
    let disasm = kernel.bytecode().disasm();
    let lines: Vec<&str> = disasm.lines().collect();
    let fill = lines
        .iter()
        .position(|l| l.contains("vfill.f64") && l.contains("= hoisted for v in"))
        .unwrap_or_else(|| panic!("no register-valued fill:\n{disasm}"));
    // The blend is computed once per run, in front of a slice fill; the
    // scalar remainder is an index add and a store.
    let golden = [
        "hoisted = round_u8(t7) (f64)",
        "t2 = step_start (i64)",
        "t3 = step_stop (i64)",
        "vfill.f64 b6[inv*1+v] = hoisted for v in [t2, t3) (x8)",
        "for j = t2 while <= t3 (i64) else -> 43",
        "t4 = inv + j (i64)",
        "b6[t4] = hoisted (f64)",
        "next j = t2 + 1 while <= t3 (i64) -> 40",
    ];
    let got: Vec<&str> = lines[fill - 3..fill + 5].iter().map(|l| op(l)).collect();
    assert_eq!(got, golden, "\n{disasm}");
    assert_eq!(loop_lines(&disasm, "j").len(), 4);

    // Work per run, not per pixel: with `runs` entries of the per-run loop
    // and one row set-up per row, far fewer dispatches than pixels.
    let (_, counts) = kernel.profile().expect("runs");
    let (runs, rows) = (counts[fill], size as u64);
    assert_eq!(runs, rows * 2, "two runs per row");
    let dispatched: u64 =
        counts[fill - 3..].iter().sum::<u64>() + counts[..fill - 3].iter().sum::<u64>();
    let pixels = (size * size) as u64;
    assert!(
        dispatched < 40 * runs + 40 * rows && dispatched < 3 * pixels,
        "{dispatched} dispatches for {runs} runs in {rows} rows ({pixels} pixels)\n{disasm}"
    );
    let want: Vec<f64> = b.iter().zip(&c).map(|(b, c)| (0.6 * b + 0.4 * c).round()).collect();
    assert_eq!(kernel.output("A").unwrap(), want);
}

#[test]
fn dense_blend_still_maps_each_row_in_one_instruction() {
    let (size, band) = (64, 8);
    let (b, c) = flat_images(size, band);
    let mut kernel = blend(
        &Tensor::dense_matrix("B", size, size, &b),
        &Tensor::dense_matrix("Cimg", size, size, &c),
    );
    let disasm = kernel.bytecode().disasm();
    // Hoisting `i * 64` leaves `inv + j`, which the vectorizer reads as a
    // unit-stride row base.
    let maps: Vec<usize> = disasm
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("vmap.f64"))
        .map(|(n, _)| n)
        .collect();
    assert_eq!(maps.len(), 1, "\n{disasm}");
    let map = disasm.lines().nth(maps[0]).unwrap();
    assert!(map.contains("b2[inv*1+v] = round_u8(0.6 * b0[inv*1+v] + 0.4 * b1[inv*1+v])"), "{map}");
    let (_, counts) = kernel.profile().expect("runs");
    assert_eq!(counts[maps[0]], size as u64, "one map per row");
    let (vectorized, vectorizable) = kernel.instrs_vectorized();
    assert_eq!(vectorized, vectorizable);
}

#[test]
fn a_register_fill_never_changes_what_a_run_computes_or_counts() {
    // The kernel-level view of the fill's fallbacks: with the kernel ops on
    // and off the RLE blend produces the same output and the same work
    // counters, and under every step budget the same error at the same
    // point — short runs, budget-limited runs and whole-row runs alike.
    let size = 32;
    let (b, c) = flat_images(size, 4);
    // Column blocks of 5 on top: runs below the op's minimum trip too.
    let b: Vec<f64> = b.iter().enumerate().map(|(v, x)| x + ((v % size) / 5 % 2) as f64).collect();
    let kernel = blend(
        &Tensor::rle_matrix("B", size, size, &b),
        &Tensor::rle_matrix("Cimg", size, size, &c),
    );
    let with = kernel.reoptimized_simd(OptLevel::Default, true, true);
    let without = kernel.reoptimized_simd(OptLevel::Default, true, false);
    assert!(with.bytecode().disasm().contains("vfill.f64 b6[inv*1+v] = hoisted"));
    assert!(!without.bytecode().disasm().contains("= hoisted for v in"));
    let full = without.clone().run().expect("runs").stmts;
    for budget in (0..full + 50).step_by(37) {
        let budgeted = |k: &CompiledKernel| {
            k.reconfigured(&ExecConfig { step_budget: Some(budget), ..k.config() }).unwrap()
        };
        let (mut with, mut without) = (budgeted(&with), budgeted(&without));
        let (a, b) = (with.run(), without.run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "budget {budget}");
        assert_eq!(with.output("A").unwrap(), without.output("A").unwrap(), "budget {budget}");
    }
}
