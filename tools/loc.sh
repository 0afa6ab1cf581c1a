#!/usr/bin/env bash
# Non-comment, non-blank, non-test lines of every file under each source
# directory given (default: crates/ir/src, the count every line-count target in
# ROADMAP.md and EXPERIMENTS.md is measured with), a total per directory, and a
# grand total when more than one directory is given.
#
# usage: tools/loc.sh [checkout [dir...]]   (default: the current directory, crates/ir/src)
#
# To compare two commits, run it on a `git archive` of each.
cd "${1:-.}" || exit 1
[ $# -gt 0 ] && shift
[ $# -gt 0 ] || set -- crates/ir/src
grand=0
for dir in "$@"; do
  total=0
  for f in $(find "$dir" -name '*.rs' ! -name irgen.rs ! -name mutation_tests.rs \
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
  if [ $# -eq 1 ]; then printf '%6d total\n' "$total"; else printf '%6d total %s\n' "$total" "$dir"; fi
  grand=$((grand + total))
done
[ $# -eq 1 ] || printf '%6d total, all\n' "$grand"
