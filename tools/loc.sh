#!/usr/bin/env bash
# Non-comment, non-blank, non-test lines of every file under crates/ir/src, and
# their total: the count every line-count target in ROADMAP.md and
# EXPERIMENTS.md is measured with.
#
# usage: tools/loc.sh [checkout]   (default: the current directory)
#
# To compare two commits, run it on a `git archive` of each.
cd "${1:-.}" || exit 1
total=0
for f in $(find crates/ir/src -name '*.rs' ! -name irgen.rs ! -name mutation_tests.rs \
         ! -name op_contract.rs | sort); do
  # cut each file at its first column-0 `#[cfg(test)]` that is followed by a `mod` or `fn`
  # item (the test module; in typing.rs the test-only oracle in front of it), then drop
  # blank lines and `//` lines (`///` and `//!` included)
  n=$(awk 'prev == "#[cfg(test)]" && /^(pub(\([a-z]+\))? )?(mod|fn) .*\{$/ { cut = 1; exit }
           { if (NR > 1) print prev; prev = $0 }
           END { if (!cut) print prev }' "$f" | grep -c -v -E '^[[:space:]]*(//|$)')
  printf '%6d %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%6d total\n' "$total"
