#!/usr/bin/env bash
# The ten-pair protocol of ROADMAP.md ("The repo benchmark is the only
# admissible perf evidence") in one command: build a parent and a change of
# the repo benchmark in ONE directory, run alternating pairs on unseen seeds
# and print EXPERIMENTS.md's verdict table.
#
# usage: tools/pairs.sh <parent-checkout> <change-checkout> <workload>[,<workload>...] [pairs] [seconds] [first-seed]
#   pairs 10, seconds 15, first-seed 1 by default; pair k runs seed first-seed + k - 1,
#   the parent first in odd pairs and the change first in even ones; the workloads run
#   one after another on the same two binaries, each with its own table.
#   PAIRS_DIR=<dir>   keep the build directory, the binaries and every result line
#                     there (default: a temporary directory, removed at exit)
#   ALIGNED=1         also build both sides with every function on a 64-byte boundary
#                     (RUSTFLAGS="-C llvm-args=-align-all-functions=6") and run the
#                     same pairs on those: the code-placement control
#
# Both sides are built in one directory, because the same source built in two
# directories reads apart by up to 15 %: the parent's files are copied in and
# built, the binary copied out, then the files the change adds, edits or
# deletes are applied to the same directory (edited files touched, so that
# cargo sees them) and it is built again.  A checkout's files are what `git
# ls-files` lists in it (tracked and untracked-but-not-ignored, as they are on
# disk), so a working tree with uncommitted edits can be either side.
#
# The table has one row per end-to-end metric of BENCHMARK.json: each side's
# median [Q1, Q3], the change in %, how many pairs the change won (a tie
# counts for neither side), the parent's IQR (Q3 - Q1, in % of its median),
# the bound, the per-pair ratio change / parent as median [Q1, Q3], and a
# verdict:
#   gain        won at least 9 pairs in 10 and the medians sit further apart
#               than the parent's IQR
#   worse       the change's median is worse than the parent's by more than
#               the bound
#   unresolved  the parent's IQR is wider than the bound, and some run of the
#               change does not read better than every run of the parent
#   same        otherwise
# The ratio column is attribution only; the verdict does not read it.  Under
# the table: each run's host speed (the median of the benchmark's per-round
# reading) and the runs with a failed operation.
set -eu
if [ $# -lt 3 ] || [ $# -gt 6 ]; then
  sed -n 's/^# usage: /usage: /p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workloads=$3
pairs=${4:-10}
seconds=${5:-15}
first_seed=${6:-1}
bench_json=$change/BENCHMARK.json

if [ -n "${PAIRS_DIR:-}" ]; then
  work=$PAIRS_DIR
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
work=$(cd "$work" && pwd)
src=$work/src

# The files of checkout "$1", one a line, relative to it.
files() {
  git -C "$1" ls-files --cached --others --exclude-standard |
    while IFS= read -r f; do [ -f "$1/$f" ] && printf '%s\n' "$f"; done | sort
}

# Build "$src"'s benchmark, plain into its own target and, with ALIGNED=1,
# aligned into "$work/aligned-target"; copy the binaries to "$work/$1.bin"
# and "$work/$1.aligned.bin".
build() {
  echo "building the $1 in $src" >&2
  cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml"
  cp "$src/benchmark/target/release/finch-benchmark" "$work/$1.bin"
  if [ "${ALIGNED:-0}" = 1 ]; then
    RUSTFLAGS="-C llvm-args=-align-all-functions=6" CARGO_TARGET_DIR="$work/aligned-target" \
      cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml"
    cp "$work/aligned-target/release/finch-benchmark" "$work/$1.aligned.bin"
  fi
}

rm -rf "$src"
mkdir -p "$src"
files "$parent" >"$work/parent.files"
files "$change" >"$work/change.files"
(cd "$parent" && tar -cf - -T "$work/parent.files") | tar -xf - -C "$src"
build parent
# The change over the same directory: its new and edited files, then the
# parent's files it does not have.
while IFS= read -r f; do
  if ! cmp -s "$change/$f" "$src/$f"; then
    mkdir -p "$(dirname "$src/$f")"
    cp "$change/$f" "$src/$f"
    touch "$src/$f"
  fi
done <"$work/change.files"
comm -23 "$work/parent.files" "$work/change.files" | while IFS= read -r f; do rm -f "$src/$f"; done
build change

# One run of binary "$1" on seed "$2" of "$workload"; its result line lands
# in "$3".
run() {
  if ! (cd "$work" && "$1" --workload "$workload" --seed "$2" --seconds "$seconds") >"$3.out"; then
    echo "run failed: $1 --workload $workload --seed $2 (output in $3.out)" >&2
    exit 1
  fi
  tail -n 1 "$3.out" >"$3"
}

# The pairs of one kind of build ("" or ".aligned") on "$workload", then
# their table.
pairs() {
  local kind=$1 runs=$work/runs$1.$workload k seed
  rm -rf "$runs"
  mkdir -p "$runs"
  for k in $(seq 1 "$pairs"); do
    seed=$((first_seed + k - 1))
    if [ $((k % 2)) = 1 ]; then
      run "$work/parent$kind.bin" "$seed" "$runs/parent.$k"
      run "$work/change$kind.bin" "$seed" "$runs/change.$k"
    else
      run "$work/change$kind.bin" "$seed" "$runs/change.$k"
      run "$work/parent$kind.bin" "$seed" "$runs/parent.$k"
    fi
    echo "$workload: pair $k of $pairs done (seed $seed)" >&2
  done
  python3 - "$runs" "$pairs" "$workload" "$bench_json" "$first_seed" "${kind:-plain}" <<'EOF'
import json, re, sys

runs, pairs, workload, bench_json, first_seed, kind = sys.argv[1:]
pairs, first_seed = int(pairs), int(first_seed)
metrics = json.load(open(bench_json))["end_to_end"]

def value(side, k, name):
    line = open(f"{runs}/{side}.{k}").read()
    m = re.search(r'"%s": \{"value": ([^,]+),' % re.escape(name), line)
    return float(m.group(1)) if m else None

def quartiles(xs):
    """Median and quartiles, linear between order statistics."""
    xs = sorted(xs)
    def q(p):
        at = p * (len(xs) - 1)
        lo = int(at)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)
    return q(0.5), q(0.25), q(0.75)

def fmt(x):
    digits = 0 if abs(x) >= 1000 else 1 if abs(x) >= 100 else 2 if abs(x) >= 1 else 4
    return f"{x:,.{digits}f}".replace(",", " ")

print(f"`{workload}`, {pairs} pairs, seeds {first_seed}-{first_seed + pairs - 1}, {kind} builds")
print()
print("| workload, metric | parent median [Q1, Q3] | change median [Q1, Q3] | change | won "
      "| parent IQR | bound | ratio median [Q1, Q3] | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
need = -(-9 * pairs // 10)
for m in metrics:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p = [value("parent", k, name) for k in range(1, pairs + 1)]
    c = [value("change", k, name) for k in range(1, pairs + 1)]
    if None in p or None in c:
        continue
    (pm, p1, p3), (cm, c1, c3) = quartiles(p), quartiles(c)
    won = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    iqr = p3 - p1
    rel = (cm - pm) / pm if pm else 0.0
    worse = rel > bound if lower else -rel > bound
    better = (cm < pm) if lower else (cm > pm)
    if worse:
        verdict = "worse"
    elif pm and iqr / pm > bound and not (max(c) < min(p) if lower else min(c) > max(p)):
        verdict = "unresolved"
    elif won >= need and better and abs(cm - pm) > iqr:
        verdict = "gain"
    else:
        verdict = "same"
    ratios = [y / x for x, y in zip(p, c) if x]
    rm, r1, r3 = quartiles(ratios) if ratios else (0, 0, 0)
    print(f"| `{workload}` `{name}` | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
          f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {rel * 100:+.1f} % | {won} / {pairs} "
          f"| {iqr / pm * 100 if pm else 0:.1f} % | {bound * 100:.0f} % "
          f"| {rm:.3f} [{r1:.3f}, {r3:.3f}] | {verdict} |")
print()
def host_speed(side, k):
    """The median of a run's `host speed by round` line."""
    for line in open(f"{runs}/{side}.{k}.out"):
        if line.strip().startswith("host speed by round"):
            return f"{quartiles([float(x) for x in line.split(':', 1)[1].split()])[0]:.2f}"
    return "?"

print("host speed, median over a run's rounds, by pair (parent / change): " + "; ".join(
    f"{k}: {host_speed('parent', k)} / {host_speed('change', k)}" for k in range(1, pairs + 1)))
failed = [(side, k) for side in ("parent", "change") for k in range(1, pairs + 1)
          if '"failed": 0,' not in open(f"{runs}/{side}.{k}").read()]
print("runs with a failed operation: " + (", ".join(f"{s} {k}" for s, k in failed) or "none"))
EOF
}

for workload in ${workloads//,/ }; do
  pairs ""
  echo
  if [ "${ALIGNED:-0}" = 1 ]; then
    pairs ".aligned"
    echo
  fi
done
