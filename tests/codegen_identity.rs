//! Codegen identity: a refactor of the compiler must emit the same program.
//!
//! A fixed corpus (`common::corpus`, shared with `isa_reach`) — every
//! `finch-bench` figure builder at tiny sizes, one program per input format
//! or protocol the figures leave out, one probe per opcode nothing else
//! reaches — is compiled at both [`OptLevel`]s, and for each kernel
//! an FNV-1a hash of its generated code, its bytecode disassembly and its
//! register count, pretags and optimiser counters is compared
//! with `codegen_identity.golden`, recorded at the commit before the
//! compiler's trees became shared (PR 13, 6612a6d; the `probe/*` records
//! joined in PR 23).
//!
//! The golden file also keeps one character per line of each text (six bits
//! of the line's hash), so a mismatch names the kernel and, for each text,
//! the first line that differs.  A PR that *means* to change codegen replaces
//! the golden file with the table this test prints when it fails, and says so.

mod common;

use common::corpus;
use looplets_repro::finch::{CompiledKernel, OptLevel, OptStats};

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
    // Why a loop was given no kernel op is a reason, not generated code.
    let decided = OptStats {
        merge_declined: Default::default(),
        vector_declined: Default::default(),
        ..kernel.opt_stats()
    };
    let opt_stats = LATER_COUNTERS
        .iter()
        .fold(format!("{decided:?}"), |text, name| text.replace(&format!(" {name}: 0,"), ""))
        .replace(&format!(" merge_declined: {:?},", decided.merge_declined), "")
        .replace(&format!(" vector_declined: {:?},", decided.vector_declined), "");
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
