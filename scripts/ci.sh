#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): build, tests, formatting, lints.
# Usage: scripts/ci.sh [extra cargo args...]
# Needs no preparation: `.cargo/config.toml` resolves the external crates to
# the in-tree stand-ins. CARGO selects a different cargo binary or wrapper.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"

echo "==> cargo build --release"
"$CARGO" build --release --workspace "$@"

echo "==> cargo test -q"
"$CARGO" test -q --workspace "$@"

echo "==> chaos matrix (fixed seeds)"
"$CARGO" test -q -p sparklet --test chaos_tests "$@"

# Recovery matrix: executor crash during map / during reduce fetch and a
# slowdown-induced speculation cell on all four backends, plus the
# byte-identical same-seed recovery timeline check.
echo "==> recovery matrix (stage resubmission + speculation)"
"$CARGO" test -q -p sparklet --test recovery_chaos_tests "$@"

# AQE matrix: adaptive plans (coalesce / split / two-phase aggregation)
# must be oracle-equivalent to static execution on all four backends,
# including under a crash-during-fetch replan, and the planner properties
# must hold.
echo "==> AQE matrix (adaptive vs static oracle + planner properties)"
"$CARGO" test -q -p sparklet --test aqe_tests "$@"

# Partial-result matrix: approximate actions with never-firing deadlines
# must equal the exact actions on all four backends, and a mid-recovery
# deadline must yield a deterministic interval that brackets the truth.
echo "==> partial matrix (JobHandle + approximate actions)"
"$CARGO" test -q -p sparklet --test partial_tests "$@"

# Randomized-seed smoke: every run exercises a fresh fault schedule. The
# seed is printed up front — replaying a failure is
# `CHAOS_SEED=<seed> scripts/ci.sh` (the whole run is a pure function of
# the seed).
#
# Seed derivation must be portable: $RANDOM is a bash/zsh-ism that silently
# expands to an empty string under dash/posh, which used to yield
# CHAOS_SEED="" and an arithmetic error (or, worse, seed 0 every run).
derive_seed() {
  seed="$(od -vAn -N6 -tu8 /dev/urandom 2>/dev/null | tr -d '[:space:]')"
  if [ -z "$seed" ]; then
    # No usable /dev/urandom (some minimal containers): fall back to the
    # clock. Coarse, but still a fresh schedule per run.
    seed="$(date +%s%N 2>/dev/null | tr -cd '0-9')"
  fi
  printf '%s' "$seed"
}
if [ -z "${CHAOS_SEED:-}" ]; then
  CHAOS_SEED="$(derive_seed)"
fi
if [ -z "$CHAOS_SEED" ]; then
  echo "error: could not derive CHAOS_SEED (no /dev/urandom, no date); set it explicitly" >&2
  exit 1
fi
echo "==> chaos smoke (randomized seed: CHAOS_SEED=$CHAOS_SEED)"
CHAOS_SEED="$CHAOS_SEED" "$CARGO" test -q --release -p sparklet --test chaos_tests "$@" -- --ignored

# Traced smoke: one small cell with the timeline exporter on, run twice.
# The binary validates the JSON in-process; the `cmp` pins the exporter's
# byte-stability guarantee (same program ⇒ identical trace bytes).
echo "==> traced smoke (timeline export, double run + byte compare)"
TRACE_TMP="${TMPDIR:-/tmp}/mpi4spark-trace-$$"
rm -rf "$TRACE_TMP"
SPARK_TRACE_DIR="$TRACE_TMP/a" "$CARGO" run -q --release -p mpi4spark-bench --bin traced_smoke "$@"
SPARK_TRACE_DIR="$TRACE_TMP/b" "$CARGO" run -q --release -p mpi4spark-bench --bin traced_smoke "$@"
cmp "$TRACE_TMP/a/GroupByTest-MPI-2w.json" "$TRACE_TMP/b/GroupByTest-MPI-2w.json" || {
  echo "error: timeline export is not byte-stable across identical runs" >&2
  exit 1
}
rm -rf "$TRACE_TMP"

# Recovery smoke: the recovery-overhead bench at small scale. The binary
# asserts speculation is free on a fault-free run, that the crash cells
# recover through speculation / stage resubmission, and that speculation
# measurably cuts the slowdown cell's virtual job time.
echo "==> recovery smoke (crash + slowdown cells, small scale)"
"$CARGO" run -q --release -p mpi4spark-bench --bin bench_recovery "$@" -- --scale small

# AQE smoke: the zipfian-GroupBy skew bench at small scale. The binary
# asserts AQE-off cells never plan, adaptive cells split the hot bucket,
# results match the static oracle on every backend, and the MPI cell's
# GroupBy job improves at least 2x.
echo "==> AQE smoke (zipfian GroupBy, static vs adaptive, small scale)"
"$CARGO" run -q --release -p mpi4spark-bench --bin bench_aqe "$@" -- --scale small

# Partial smoke: the deadline sweep on a straggler fabric at small scale.
# The binary asserts unbounded runs count exactly, budgets bound the job's
# virtual time, coverage grows with the budget, intervals with >= 2 folded
# partitions bracket the true group count, and a same-seed bounded re-run
# is byte-identical.
echo "==> partial smoke (deadline sweep on straggler fabric, small scale)"
"$CARGO" run -q --release -p mpi4spark-bench --bin bench_partial "$@" -- --scale small

echo "==> detlint (determinism D1-D6, lock-order L1, protocol P1-P3)"
"$CARGO" run -q --release -p detlint

# detlint throughput bench: times the two-pass workspace analysis on this
# tree and re-checks cleanliness; writes BENCH_detlint.json at the root.
echo "==> detlint throughput bench (writes BENCH_detlint.json)"
"$CARGO" run -q --release -p mpi4spark-bench --bin bench_detlint "$@"

# The repo benchmark (BENCHMARK.json) is a workspace of its own that builds
# against these crates' public items and may not be edited to follow them:
# an API change that breaks it must fail here, not in the pipeline.
echo "==> benchmark harness (builds against the public API, 12 tests)"
(cd benchmark && "$CARGO" test -q --release --offline)

echo "==> cargo fmt --check"
"$CARGO" fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
"$CARGO" clippy --workspace --all-targets "$@" -- -D warnings

echo "CI gate passed."
