//! Codegen identity: a refactor of the compiler must emit the same program.
//!
//! A fixed corpus — every `finch-bench` figure builder at tiny sizes (the two
//! sparse-output kernels among them) plus one program per input format or
//! protocol the figures leave out (PackBits, Bitmap, Triangular, Symmetric,
//! Ragged, `locate`) — is compiled at both [`OptLevel`]s, and for each kernel
//! an FNV-1a hash of its generated code, its bytecode disassembly and its
//! register count, pretags and optimiser counters is compared
//! with `codegen_identity.golden`, recorded at the commit before the
//! compiler's trees became shared (PR 13, 6612a6d).
//!
//! The golden file also keeps one character per line of each text (six bits
//! of the line's hash), so a mismatch names the kernel and, for each text,
//! the first line that differs.  A PR that *means* to change codegen replaces
//! the golden file with the table this test prints when it fails, and says so.

use finch_bench::{
    fig01_variants, fig07_variants, fig07_vector, fig08_variants, fig09_variants, fig10_variants,
    fig11_variants, figs_output_groups, Variant,
};
use looplets_repro::finch::build::*;
use looplets_repro::finch::{CompiledKernel, IndexExpr, Kernel, OptLevel, OptStats, Tensor};

const GOLDEN: &str = include_str!("codegen_identity.golden");

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One character per line: six bits of the line's hash.
fn fingerprint(text: &str) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    text.lines().map(|line| ALPHABET[(fnv1a(line) & 63) as usize] as char).collect()
}

/// Deterministic data with every `stride`-th entry stored.
fn strided(n: usize, stride: usize, phase: usize) -> Vec<f64> {
    (0..n).map(|k| if k % stride == phase { 1.0 + (k % 5) as f64 } else { 0.0 }).collect()
}

/// `y[i] += A[i,j] * x[j]` over a dense `x`.
fn spmv(a: &Tensor) -> CompiledKernel {
    let shape = a.shape();
    let x = Tensor::dense_vector("x", &strided(shape[1], 1, 0));
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(&x).bind_output("y", &[shape[0]], 0.0);
    let (i, j) = (idx("i"), idx("j"));
    let program = forall(
        i.clone(),
        forall(
            j.clone(),
            add_assign(
                access("y", [i.clone()]),
                mul(access("A", [i, j.clone()]), access("x", [j])),
            ),
        ),
    );
    kernel.compile(&program).expect("spmv compiles")
}

/// `C[] += A[i] * B[i]` with `B` read through `at`.
fn dot(a: &Tensor, b: &Tensor, at: IndexExpr) -> CompiledKernel {
    let mut kernel = Kernel::new();
    kernel.bind_input(a).bind_input(b).bind_output_scalar("C");
    let program =
        forall(idx("i"), add_assign(scalar("C"), mul(access("A", [idx("i")]), access("B", [at]))));
    kernel.compile(&program).expect("dot compiles")
}

/// The corpus, each kernel compiled at the default level.
fn corpus() -> Vec<(String, CompiledKernel)> {
    let mut out: Vec<(String, CompiledKernel)> = Vec::new();
    let mut figure = |fig: &str, variants: Vec<Variant>| {
        for v in variants {
            out.push((format!("{fig}/{}", v.label), v.kernel));
        }
    };
    for (_, variants) in fig01_variants(200, 20, &[8]) {
        figure("fig01", variants);
    }
    figure("fig07", fig07_variants(32, &fig07_vector(32, Some(0.2), None, 7), 7));
    figure("fig08", fig08_variants(24, 2, 3));
    for (_, variants) in fig09_variants(12, 3, &[0.1]) {
        figure("fig09", variants);
    }
    figure("fig10", fig10_variants(16, false, 5));
    figure("fig11", fig11_variants(3, 8, "mnist"));
    for (g, group) in figs_output_groups(128, 0.05, 5).into_iter().enumerate() {
        figure(&format!("figS{g}"), group.variants);
    }

    let square = strided(64, 3, 0);
    let list = Tensor::sparse_list_vector("B", &strided(64, 4, 1));
    let extras = [
        ("spmv_packbits", spmv(&Tensor::packbits_matrix("A", 1, 64, &strided(64, 7, 2)))),
        ("spmv_triangular", spmv(&Tensor::triangular_matrix("A", 8, &square))),
        ("spmv_symmetric", spmv(&Tensor::symmetric_matrix("A", 8, &square))),
        ("spmv_ragged", spmv(&Tensor::ragged_matrix("A", 8, 8, &square))),
        (
            "dot_bitmap",
            dot(&Tensor::bitmap_vector("A", &strided(64, 3, 1)), &list, idx("i").walk()),
        ),
        (
            "dot_locate",
            dot(&Tensor::sparse_list_vector("A", &strided(64, 3, 1)), &list, idx("i").locate()),
        ),
    ];
    out.extend(extras.map(|(name, kernel)| (format!("extra/{name}"), kernel)));
    out
}

/// The three texts compared per kernel: generated code, disassembly, and
/// everything else the compiler decided (one fact per line).
fn texts(kernel: &CompiledKernel) -> [(&'static str, String); 3] {
    let program = kernel.bytecode();
    // These counters were added to `OptStats` after the golden file was first
    // recorded: each is listed only where it counts something, so that the
    // records it does not concern (every `none` record among them) stay
    // byte for byte what they were.
    const LATER_COUNTERS: [&str; 6] = [
        "exprs_hoisted",
        "copies_forwarded",
        "literals_pinned",
        "loops_rotated",
        "advances_predicated",
        "merge_skips",
    ];
    // Why a loop was given no run-ahead op is a reason, not generated code.
    let decided = OptStats { merge_declined: Default::default(), ..kernel.opt_stats() };
    let opt_stats = LATER_COUNTERS
        .iter()
        .fold(format!("{decided:?}"), |text, name| text.replace(&format!(" {name}: 0,"), ""))
        .replace(&format!(" merge_declined: {:?},", decided.merge_declined), "");
    let meta = format!(
        "num_regs {}\npretags {:?}\nopt_stats {opt_stats}\n",
        program.num_regs(),
        program.pretags(),
    );
    [("code", kernel.code().to_string()), ("disasm", program.disasm()), ("meta", meta)]
}

/// One golden record: `name \t level \t hash \t fingerprint × 3`.
fn record(name: &str, level: OptLevel, texts: &[(&'static str, String); 3]) -> String {
    let all: String = texts.iter().map(|(what, t)| format!("== {what}\n{t}")).collect();
    let prints: Vec<String> = texts.iter().map(|(_, t)| fingerprint(t)).collect();
    format!("{name}\t{level}\t{:016x}\t{}", fnv1a(&all), prints.join("\t"))
}

#[test]
fn the_corpus_compiles_to_the_recorded_code_at_every_opt_level() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut golden = GOLDEN.lines();
    for (name, kernel) in corpus() {
        // The two ends of the configuration matrix: unoptimised, and the
        // full default pipeline.  (The untyped and scalar legs between them
        // are run against these two by the parity tests.)
        let [none, .., full] = kernel.config().matrix();
        for config in [none, full] {
            let level = config.opt;
            let derived = kernel.reoptimized_simd(level, config.typed, config.simd);
            let texts = texts(&derived);
            if level == kernel.opt_level() {
                // Re-deriving from the kept raw IR is the same pipeline run.
                assert_eq!(kernel.code(), texts[0].1, "{name}: reoptimized({level}) diverges");
            }
            let got = record(&name, level, &texts);
            let want = golden.next().unwrap_or("");
            if got != want {
                mismatches.push(describe(&name, level, &texts, want));
            }
            table.push_str(&got);
            table.push('\n');
        }
    }
    if golden.next().is_some() {
        mismatches.push("the golden file has records the corpus no longer produces".to_string());
    }
    if !mismatches.is_empty() {
        println!("---- new tests/codegen_identity.golden ----\n{table}---- end ----");
        panic!("generated code changed:\n{}", mismatches.join("\n"));
    }
}

/// Name the kernel and, per text, the first line whose fingerprint differs.
fn describe(
    name: &str,
    level: OptLevel,
    texts: &[(&'static str, String); 3],
    want: &str,
) -> String {
    let fields: Vec<&str> = want.split('\t').collect();
    if fields.len() != 6 || fields[0] != name || fields[1] != level.label() {
        return format!("`{name}` at {level}: no golden record in this position (found `{want}`)");
    }
    let mut out = format!("`{name}` at {level}:");
    for ((what, text), recorded) in texts.iter().zip(&fields[3..]) {
        let now = fingerprint(text);
        let Some(line) = now
            .bytes()
            .zip(recorded.bytes())
            .position(|(a, b)| a != b)
            .or_else(|| (now.len() != recorded.len()).then_some(now.len().min(recorded.len())))
        else {
            continue;
        };
        out.push_str(&format!(
            "\n  {what}: {} lines (recorded {}), first difference at line {}: `{}`",
            now.len(),
            recorded.len(),
            line + 1,
            text.lines().nth(line).unwrap_or("<end of text>")
        ));
    }
    out
}
