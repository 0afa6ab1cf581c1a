//! A healthy cache hit allocates nothing of its own: `KernelService::submit`
//! of a warm structure renders no program, rebinds into the entry's buffers
//! in place, reruns the persistent VM and — for a tensor read-back — builds
//! the response tensor and nothing else.  The heap allocations one warm
//! `submit` makes are pinned here, per read-back kind.
//!
//! `cargo test --test hit_allocs -- --nocapture` prints the counts.
//!
//! This is a test binary of its own with a single `#[test]`, like
//! `compile_allocs`: the counting allocator is process-global, and a second
//! test running on another harness thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use looplets_repro::finch::build::*;
use looplets_repro::finch::{KernelService, LevelSpec, Request, Tensor};

/// Every `alloc` and `realloc` call the process makes.  Relaxed: the count
/// publishes no other data and is only read on the test's own thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter in front.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are those of `System::alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread's watch.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Every `stride`-th of `n` entries stored, scaled so instances differ.
fn strided(n: usize, stride: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|k| if k % stride == 0 { scale * (1.0 + (k % 5) as f64) } else { 0.0 }).collect()
}

const N: usize = 48;

/// Two data instances of one structure: `C` over a sparse list `A` and a
/// dense `B`, read back as a scalar (`C += A[i] * B[i]`) or as a tensor in
/// the given format (`C[i] = A[i] * B[i]`).
fn instances(output: Option<LevelSpec>) -> [Request; 2] {
    [1.0, -2.5].map(|scale| {
        let a = Tensor::sparse_list_vector("A", &strided(N, 3, scale));
        let b = Tensor::dense_vector("B", &strided(N, 1, 0.5));
        let i = idx("i");
        let product = mul(access("A", [i.clone()]), access("B", [i.clone()]));
        match &output {
            None => Request::new(forall(i, add_assign(scalar("C"), product)))
                .input(&a)
                .input(&b)
                .output_scalar("C"),
            Some(spec) => Request::new(forall(i.clone(), assign(access("C", [i]), product)))
                .input(&a)
                .input(&b)
                .output("C", std::slice::from_ref(spec)),
        }
    })
}

#[test]
fn a_warm_hit_allocates_only_its_response_tensor() {
    let cases = [
        ("scalar", None),
        ("dense tensor", Some(LevelSpec::Dense { size: N })),
        ("sparse-list tensor", Some(LevelSpec::SparseList { size: N })),
    ];
    let service = KernelService::default();
    println!("{:<20} {:>11} {:>17}", "read-back", "allocations", "of them response");
    for (what, output) in cases {
        let requests = instances(output);
        // Compile, then hit once with each instance: the first submit of a
        // request prepares it, and the entry's buffers reach their size.
        assert!(!service.submit(&requests[0]).expect("compiles").cache_hit);
        for request in &requests {
            assert!(service.submit(request).expect("warms").cache_hit);
        }
        for request in &requests {
            let (response, allocations) = allocations_of(|| service.submit(request));
            let response = response.expect("a warm hit is served");
            assert!(response.cache_hit, "{what}");
            // What the response owns is what cloning it allocates.
            let (_, owned) = allocations_of(|| response.tensor.clone());
            println!("{what:<20} {allocations:>11} {owned:>17}");
            assert_eq!(response.tensor.is_some(), what != "scalar");
            assert_eq!(allocations, owned, "a warm {what} hit allocates beyond its response");
        }
    }
    let stats = service.stats();
    assert_eq!((stats.compiles, stats.hits, stats.slot_waits), (3, 12, 0));
}
