//! Differential kernel fuzzer: generate random CIN kernels, execute each
//! under every effectively distinct compile-side configuration
//! (`ExecConfig::matrix`) on both engines, and minimize any divergence to a
//! runnable reproducer.
//!
//! ```bash
//! cargo run --release -p finch-bench --bin fuzz-kernels -- --cases 500
//! cargo run --release -p finch-bench --bin fuzz-kernels -- --smoke --cases 200 --seed 7
//! cargo run --release -p finch-bench --bin fuzz-kernels -- --validate   # per-pass validation on
//! ```
//!
//! Every case asserts the repository's correctness contract: the same
//! outputs across all eight legs and equal to the program's dense meaning
//! (`fuzz::check_case`), engine-identical work counters at each
//! configuration, and scalar-identical work counters between the SIMD
//! kernel-op tier and the typed scalar run.  With `--validate`, kernels
//! compile at `ValidationLevel::Full`, so each optimisation pass is
//! additionally translation-validated on witness inputs during compilation.
//!
//! On a divergence the case is delta-debugged down to a 1-minimal
//! statement list, printed as a `#[test]` function, and written under
//! `--out` (default `fuzz-repros/`) for CI to upload as an artifact.  The
//! process exits nonzero when any divergence was found.

#![forbid(unsafe_code)]

use finch::ValidationLevel;
use finch_bench::fuzz::{check_case, gen_case, minimize, render_repro};
use proptest::test_runner::TestRng;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_after(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|k| args.get(k + 1).cloned())
}

fn main() {
    let cases: u64 = arg_after("--cases").and_then(|v| v.parse().ok()).unwrap_or(200);
    let seed: u64 = arg_after("--seed").and_then(|v| v.parse().ok()).unwrap_or(0xF1C4);
    let smoke = flag("--smoke");
    let validation = if flag("--validate") { ValidationLevel::Full } else { ValidationLevel::Off };
    let out_dir = arg_after("--out").unwrap_or_else(|| "fuzz-repros".to_string());

    println!(
        "fuzz-kernels: {cases} cases (seed {seed}, {} sizes, validation {validation})",
        if smoke { "smoke" } else { "full" }
    );

    let mut rng = TestRng::from_seed(seed);
    let mut divergences = 0u64;
    for case_no in 0..cases {
        let case = gen_case(&mut rng, smoke);
        if let Some(divergence) = check_case(&case, validation) {
            divergences += 1;
            eprintln!(
                "case {case_no}: DIVERGENCE [{}] {} — minimizing {} statement(s)",
                divergence.combo,
                divergence.detail,
                case.stmts.len()
            );
            let minimized = minimize(&case, &|c| check_case(c, validation).is_some());
            let verdict = check_case(&minimized, validation).unwrap_or_else(|| divergence.clone());
            let repro = render_repro(&minimized, &verdict);
            println!("{repro}");
            if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| {
                std::fs::write(
                    format!("{out_dir}/repro_seed{}_case{case_no}.rs", minimized.seed),
                    &repro,
                )
            }) {
                eprintln!("warning: could not write reproducer under {out_dir}: {e}");
            }
        } else if (case_no + 1) % 50 == 0 {
            println!("  {} / {cases} cases checked, {divergences} divergence(s)", case_no + 1);
        }
    }

    println!(
        "fuzz-kernels: {cases} cases, {divergences} divergence(s){}",
        if divergences > 0 { " — reproducers written" } else { "" }
    );
    if divergences > 0 {
        std::process::exit(1);
    }
}
