#!/usr/bin/env bash
# The code size of every `finch_ir::vm::` symbol of a release binary, read by
# `nm -C -S`: one line per name with its copies and their bytes, largest
# first, then the total.  Given two binaries (say a parent's and a change's),
# the two side by side with the change in bytes; `-` marks a name one of them
# lacks.  A change to crates/ir/src/vm.rs records this table: nothing pins
# which helpers `Vm::dispatch` inlines, and a new caller elsewhere in the file
# can outline one from it.
#
# usage: tools/vm_syms.sh <binary> [<binary>]
#   e.g. tools/vm_syms.sh benchmark/target/release/finch-benchmark
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <binary> [<binary>]" >&2
  exit 2
fi

# `copies <TAB> bytes <TAB> name` of each `finch_ir::vm::` name in "$1".
syms() {
  nm -C -S --radix=d "$1" | awk '
    NF >= 4 && $2 ~ /^[0-9]+$/ {
      name = $4
      for (i = 5; i <= NF; i++) name = name " " $i
      if (name ~ /finch_ir::vm::/) { bytes[name] += $2; copies[name]++ }
    }
    END { for (n in bytes) printf "%d\t%d\t%s\n", copies[n], bytes[n], n }'
}

a=$(mktemp)
b=$(mktemp)
trap 'rm -f "$a" "$b"' EXIT
syms "$1" >"$a"
if [ $# -eq 1 ]; then
  printf '%7s %8s  %s\n' copies bytes symbol
  sort -t "$(printf '\t')" -k2,2nr -k3 "$a" | awk -F '\t' '
    { printf "%7d %8d  %s\n", $1, $2, $3; n += $1; total += $2 }
    END { printf "%7d %8d  total\n", n, total }'
  exit 0
fi
syms "$2" >"$b"
printf '%7s %8s %7s %8s %8s  %s\n' copies bytes copies bytes change symbol
awk -F '\t' '
  NR == FNR { ca[$3] = $1; ba[$3] = $2; names[$3] = 1; next }
  { cb[$3] = $1; bb[$3] = $2; names[$3] = 1 }
  END {
    for (n in names) {
      x = (n in ba) ? ba[n] : 0; y = (n in bb) ? bb[n] : 0
      printf "%d\t%s\t%s\t%s\t%s\t%+d\t%s\n", (x > y ? x : y), \
        (n in ca) ? ca[n] : "-", (n in ba) ? ba[n] : "-", \
        (n in cb) ? cb[n] : "-", (n in bb) ? bb[n] : "-", y - x, n
      na += ca[n]; ta += x; nb += cb[n]; tb += y
    }
    printf "-1\t%d\t%d\t%d\t%d\t%+d\ttotal\n", na, ta, nb, tb, tb - ta
  }' "$a" "$b" | sort -t "$(printf '\t')" -k1,1nr -k7 | cut -f2- |
  awk -F '\t' '{ printf "%7s %8s %7s %8s %8s  %s\n", $1, $2, $3, $4, $5, $6 }'
