//! A cold compile used to be allocation-bound (the service pays it
//! in-request on every cache miss), so the number of heap allocations one
//! `Kernel::compile` makes is pinned here, per program of a small corpus,
//! as a share of what the commit before the block-level typing rewrite
//! allocated.
//!
//! `cargo test --test compile_allocs -- --nocapture` is the allocation
//! probe: it prints, per program, the allocations and the bytes requested.
//!
//! This is a test binary of its own with a single `#[test]`: the counting
//! allocator is process-global, and a second test running on another
//! harness thread would be counted too.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::read_scalar;
use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    CinStmt, ExecConfig, IndexExpr, IndexVar, Kernel, LevelSpec, Tensor, ValidationLevel,
};

/// Every `alloc` and `realloc` call the process makes, and the bytes they
/// ask for.  Relaxed: the counts publish no other data and are only read on
/// the test's own thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter in front.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are those of `System::alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Deterministic data with every `stride`-th entry stored.
fn strided(n: usize, stride: usize, phase: usize) -> Vec<f64> {
    (0..n).map(|k| if k % stride == phase { 1.0 + (k % 5) as f64 } else { 0.0 }).collect()
}

/// A kernel with its inputs and outputs bound, validation off (the release
/// default and what the service compiles at), and the program to compile.
type Case = (&'static str, Kernel, CinStmt);

/// An empty kernel that compiles without post-pass checks, as a release
/// build does: the budget is for the compiler, not for its validator.
fn unvalidated() -> Kernel {
    Kernel::with_config(ExecConfig { validation: ValidationLevel::Off, ..ExecConfig::default() })
}

/// A kernel over the 8 × 8 CSR matrix `A` and the vector `x`, with the dense
/// output `y` bound.
fn matrix_vector(x: &Tensor) -> Kernel {
    let a = Tensor::csr_matrix("A", 8, 8, &strided(64, 3, 0));
    let mut kernel = unvalidated();
    kernel.bind_input(&a).bind_input(x).bind_output("y", &[8], 0.0);
    kernel
}

/// `y[i] += A[i,j] * x[j]` with `j` read through `at` on both sides.
fn matrix_vector_program(at: impl Fn(&IndexVar) -> IndexExpr) -> CinStmt {
    let (i, j) = (idx("i"), idx("j"));
    forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(access("A", [IndexExpr::from(i), at(&j)]), access("x", [at(&j)])),
            ),
        ),
    )
}

/// Figure 7's SpMSpV: each row of `A` merged with the sparse `x`, walking
/// both or galloping both.
fn spmspv_merge(name: &'static str, gallop: bool) -> Case {
    let x = Tensor::sparse_list_vector("x", &strided(8, 2, 1));
    let at = move |j: &IndexVar| if gallop { j.gallop() } else { j.walk() };
    (name, matrix_vector(&x), matrix_vector_program(at))
}

fn csr_spmv() -> Case {
    let x = Tensor::dense_vector("x", &strided(8, 1, 0));
    ("csr_spmv", matrix_vector(&x), matrix_vector_program(|j| j.clone().into()))
}

/// Figure 11's all-pairs similarity, with its `where` temporary.
fn all_pairs() -> Case {
    let a = Tensor::dense_matrix("A", 4, 16, &strided(64, 2, 0));
    let a2 = Tensor::dense_matrix("A2", 4, 16, &strided(64, 2, 0));
    let mut kernel = unvalidated();
    kernel
        .bind_input(&a)
        .bind_input(&a2)
        .bind_output("R", &[4], 0.0)
        .bind_output("O", &[4, 4], 0.0)
        .bind_output_scalar("o");
    let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
    let squares = forall(
        k.clone(),
        forall(
            ij.clone(),
            add_assign(
                access("R", [k.clone()]),
                mul(access("A", [k.clone(), ij.clone()]), access("A", [k.clone(), ij])),
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
                        mul(lit(-2.0), read_scalar("o")),
                    )),
                ),
                forall(
                    ij2.clone(),
                    add_assign(
                        scalar("o"),
                        mul(access("A", [k.clone(), ij2.clone()]), access("A2", [l.clone(), ij2])),
                    ),
                ),
            ),
        ),
    );
    ("all_pairs_where", kernel, multi(vec![squares, pairwise]))
}

/// The threshold filter `C[i,j] = A[i,j] where A[i,j] > 2` over a CSR
/// matrix, assembled row by row into a CSR-shaped (dense rows of sparse
/// lists) output.
fn sparse_output() -> Case {
    let a = Tensor::csr_matrix("A", 8, 8, &strided(64, 3, 0));
    let mut kernel = unvalidated();
    kernel.bind_input(&a).bind_output_format(
        "C",
        &[LevelSpec::Dense { size: 8 }, LevelSpec::SparseList { size: 8 }],
    );
    let (i, j) = (idx("i"), idx("j"));
    let at = |t: &str| access(t, [i.clone(), j.clone()]);
    let program = forall(
        i.clone(),
        forall(j.clone(), sieve(gt(at("A"), lit(2.0)), assign(at("C"), at("A")))),
    );
    ("csr_threshold_sparse_out", kernel, program)
}

/// Figure 1's dot product of two sparse lists: one loop, one merge.
fn vector_dot() -> Case {
    let a = Tensor::sparse_list_vector("A", &strided(64, 3, 1));
    let b = Tensor::sparse_list_vector("B", &strided(64, 4, 1));
    let mut kernel = unvalidated();
    kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
    let i = idx("i");
    let program = forall(
        i.clone(),
        add_assign(scalar("C"), mul(access("A", [i.walk()]), access("B", [i.walk()]))),
    );
    ("vector_dot", kernel, program)
}

/// The share, in percent, of its recorded count a program may allocate now.
/// Register typing went block-level (PR 13: 57–78 % left), then the
/// compiler's trees became shared and lowering, the rewriter and the passes
/// stopped copying them (PR 14: 8–16 % left).
const BUDGET_PERCENT: u64 = 25;

/// The corpus with, per program, the allocations `Kernel::compile` alone
/// made at the parent of the block-level typing rewrite (PR 12, commit
/// 376abda; a debug and a release build count the same to within four).
fn corpus() -> Vec<(Case, u64)> {
    vec![
        (spmspv_merge("spmspv_walk_merge", false), 5935),
        (spmspv_merge("spmspv_gallop_merge", true), 17807),
        (csr_spmv(), 3415),
        (all_pairs(), 4283),
        (sparse_output(), 3066),
        (vector_dot(), 3569),
    ]
}

#[test]
fn a_cold_compile_stays_within_its_allocation_budget() {
    let mut over = Vec::new();
    println!("{:<26} {:>11} {:>9} {:>8}", "program", "allocations", "of PR 12", "bytes");
    for ((name, kernel, program), parent) in corpus() {
        let before = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        let compiled = kernel.compile(&program);
        let count = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
        let bytes = BYTES.load(Ordering::Relaxed) - before.1;
        compiled.expect("corpus program compiles").run().expect("corpus kernel runs");
        println!(
            "{name:<26} {count:>11} {:>7.1} % {bytes:>8}",
            100.0 * count as f64 / parent as f64
        );
        if count * 100 > parent * BUDGET_PERCENT {
            over.push(format!("{name}: {count} > {BUDGET_PERCENT} % of {parent}"));
        }
    }
    assert!(over.is_empty(), "Kernel::compile allocates more than its budget: {over:?}");
}
