//! ISA reach: nothing exists below the lowerer that the lowerer cannot
//! produce.
//!
//! Every kernel of the shared corpus (`common::corpus`, the one
//! `codegen_identity` records) is compiled through the real front end under
//! each configuration of `ExecConfig::matrix`, and every row of the `isa!`
//! table in `crates/ir/src/isa.rs` must be emitted by at least one of them.
//! An opcode no kernel reaches is deleted, or the kernel that reaches it
//! joins the corpus; there is no allow-list.  The one named exception is
//! `nop`, the tombstone the typing pass leaves for `finalize` to strip: it
//! must appear in *no* compiled program.
//!
//! With `--nocapture`, and on a failure, the test prints the census: per
//! opcode and configuration, the instructions emitted over the corpus and
//! the dispatches `profile()` counts in one run of each kernel.

mod common;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The mnemonic of every row of the `isa!` table, in table order, read off
/// the rows themselves (`Name = "mnemonic" Lane "template"`, the template
/// perhaps on the next line): `finch-ir` exports no list of its opcodes, and
/// needs none.
fn table_rows() -> Vec<&'static str> {
    let rows: Vec<&str> = include_str!("../crates/ir/src/isa.rs")
        .lines()
        .filter_map(|line| {
            let (_, row) = line.trim_end_matches([' ', ',', '{']).split_once(" = \"")?;
            let (mnemonic, rest) = row.split_once("\" ")?;
            let lane = rest.split(' ').next()?;
            matches!(lane, "Generic" | "TagFree" | "Kernel").then_some(mnemonic)
        })
        .collect();
    assert!(rows.contains(&"nop") && rows.contains(&"i_step_loop"), "misread table: {rows:?}");
    rows
}

/// (emitted, dispatched) under each configuration, and who emitted it first.
type Reach = ([(u64, u64); 4], String);

#[test]
fn every_opcode_is_emitted_by_a_front_end_kernel() {
    const LEGS: [&str; 4] = ["none", "default/untyped", "default/typed", "default/simd"];
    let rows = table_rows();
    let mut census: BTreeMap<&str, Reach> = BTreeMap::new();
    for (name, kernel) in common::corpus() {
        for (leg, config) in kernel.config().matrix().iter().enumerate() {
            let mut k = kernel.reconfigured(config).expect("the kernel recompiles");
            let (_, dispatches) = k.profile().expect("the kernel runs");
            for (instr, dispatched) in k.bytecode().code().iter().zip(dispatches) {
                let opcode = instr.opcode();
                assert!(rows.contains(&opcode), "`{opcode}` ({name}) is not a row of the table");
                let (counts, _) = census
                    .entry(opcode)
                    .or_insert_with(|| (Default::default(), format!("{name} at {}", LEGS[leg])));
                counts[leg].0 += 1;
                counts[leg].1 += dispatched;
            }
        }
    }

    let mut table = format!("{:<20}", "opcode");
    for leg in LEGS {
        let _ = write!(table, " {leg:>18}");
    }
    table.push_str("  first emitted by\n");
    for row in &rows {
        let (counts, first) = census.get(row).cloned().unwrap_or_default();
        let _ = write!(table, "{row:<20}");
        for (emitted, dispatched) in counts {
            let _ = write!(table, " {:>18}", format!("{emitted} / {dispatched}"));
        }
        let _ = writeln!(table, "  {first}");
    }
    println!("---- emitted / dispatched per configuration, over the corpus ----\n{table}");

    let unreached: Vec<&str> =
        rows.iter().copied().filter(|&row| row != "nop" && !census.contains_key(row)).collect();
    assert!(
        unreached.is_empty(),
        "no corpus kernel emits {unreached:?} under any configuration: delete the opcode, or add \
         the kernel that reaches it to `common::corpus`\n{table}"
    );
    if let Some((_, first)) = census.get("nop") {
        panic!("`nop` survives `finalize` in {first}\n{table}");
    }
}
