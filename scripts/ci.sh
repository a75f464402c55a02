#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): build, tests, formatting, lints.
# Usage: scripts/ci.sh [extra cargo args...]
# Needs no preparation: `.cargo/config.toml` resolves the external crates to
# the in-tree stand-ins. CARGO selects a different cargo binary or wrapper.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"
CI_TMP="$(mktemp -d "${TMPDIR:-/tmp}/mpi4spark-ci.XXXXXX")"
trap 'rm -rf "$CI_TMP"' EXIT

echo "==> cargo build --release"
"$CARGO" build --release --workspace "$@"

# The determinism rules are `clippy.toml` (DESIGN.md §5): they run here, before
# the minutes of tests and ledger runs, and cover tests and examples too.
# clippy checks the file itself (a path that names nothing "does not refer to
# a reachable type"), but as a plain warning `-D warnings` does not reach.
echo "==> clippy (-D warnings; determinism D1–D5, D7 via clippy.toml)"
"$CARGO" clippy --workspace --all-targets "$@" -- -D warnings 2>&1 | tee "$CI_TMP/clippy.log"
if grep -q '^warning' "$CI_TMP/clippy.log"; then
  echo "error: clippy warned about its own configuration (clippy.toml)" >&2
  exit 1
fi

# Rustdoc's lints (a link to a deleted or private item, a redundant link
# target) are warnings by default: denied here, so a stale link fails.
echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" "$CARGO" doc -q --workspace --no-deps "$@"

echo "==> cargo test -q"
"$CARGO" test -q --workspace "$@"

# `simt::coro` is the workspace's one `unsafe` module, and what it must survive
# is the optimiser: register allocation around `simt_switch`, frames landing on
# a stack the previous green thread left as it was.
echo "==> cargo test -q --release -p simt"
"$CARGO" test -q --release -p simt "$@"

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

# The ledger gate: every suite (figures, ablations, and the recovery bench,
# each asserting its own contracts) at small scale must regenerate
# the committed small-scale records byte for byte. The ledger holds only
# deterministic columns, so a difference is a behaviour change:
# explain it and re-record (README "Regenerating the paper's figures").
echo "==> ledger (repro all --scale small, cmp against results/ledger.json)"
"$CARGO" run -q --release -p mpi4spark-bench "$@" -- all --scale small > "$CI_TMP/ledger.json"
grep '"scale":"small"' results/ledger.json > "$CI_TMP/committed.json"
cmp -s "$CI_TMP/committed.json" "$CI_TMP/ledger.json" || {
  echo "error: the small-scale records differ from results/ledger.json" >&2
  echo "first differing lines (- committed, + regenerated):" >&2
  diff -u "$CI_TMP/committed.json" "$CI_TMP/ledger.json" | head -n 20 >&2 || true
  exit 1
}

# The suites that run in seconds at full scale are gated at that scale too
# (63 records): the figure cells at paper size, the recovery bench, the
# traced cell with its engine counters, and the real-data cell.
# The slow figure suites (fig09–fig12, ablation-batching) stay a manual gate.
FAST_FULL="fig08 table4 recovery traced realdata"
echo "==> ledger (repro $FAST_FULL --scale full, cmp against results/ledger.json)"
# shellcheck disable=SC2086 # the suite list is split on purpose
"$CARGO" run -q --release -p mpi4spark-bench "$@" -- $FAST_FULL --scale full > "$CI_TMP/ledger-full.json"
grep '"scale":"full"' results/ledger.json \
  | grep -E "^\{\"suite\":\"(${FAST_FULL// /|})\"," > "$CI_TMP/committed-full.json"
cmp -s "$CI_TMP/committed-full.json" "$CI_TMP/ledger-full.json" || {
  echo "error: the fast full-scale records differ from results/ledger.json" >&2
  echo "first differing lines (- committed, + regenerated):" >&2
  diff -u "$CI_TMP/committed-full.json" "$CI_TMP/ledger-full.json" | head -n 20 >&2 || true
  exit 1
}

# Traced smoke: one small cell with the timeline exporter on, in two
# processes. The suite validates the JSON in-process; the `cmp` pins the
# exporter's byte-stability guarantee (same program ⇒ identical trace bytes).
echo "==> traced smoke (timeline export, two processes + byte compare)"
for run in a b; do
  "$CARGO" run -q --release -p mpi4spark-bench "$@" -- \
    traced --scale small --trace-dir "$CI_TMP/$run" > /dev/null
done
cmp "$CI_TMP/a/GroupByTest-MPI-2w.json" "$CI_TMP/b/GroupByTest-MPI-2w.json" || {
  echo "error: timeline export is not byte-stable across identical runs" >&2
  exit 1
}

# The repo benchmark (BENCHMARK.json) is a workspace of its own that builds
# against these crates' public items and may not be edited to follow them:
# an API change that breaks it must fail here, not in the pipeline.
echo "==> benchmark harness (builds against the public API, 12 tests)"
(cd benchmark && "$CARGO" test -q --release --offline)
# Its Cargo.lock is frozen with it and still lists `parking_lot` under the
# crates that dropped it, so cargo rewrites the file on every build there: put
# the committed one back (a no-op outside a git checkout). No clippy here: its
# probes time the host with `Instant` by design.
git checkout -q -- benchmark/Cargo.lock 2>/dev/null || true

echo "==> cargo fmt --check"
"$CARGO" fmt --all -- --check

echo "CI gate passed."
