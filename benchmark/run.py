#!/usr/bin/env python3
"""Build the benchmark and run it; this is the command in BENCHMARK.json.

  python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload in one process; the last line of output is the result object.
  python3 benchmark/run.py
      all four workloads, traced, so that every metric is printed.
  python3 benchmark/run.py --check [--runs N] [--seed <n>] [--seconds <s>]
      the run-to-run gate: two sets of runs of the same code must agree.

Cargo reads `.cargo/config.toml` from the working directory upwards, and the
one beside this file replaces the root's `/tmp/shims` patches, so cargo and
the binary both run from this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
# A relative CARGO_TARGET_DIR is relative to where the caller stands, not to HERE.
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
ENV = dict(os.environ, CARGO_TARGET_DIR=TARGET)
DEFAULT_SEED = 0x05B05B  # `OhbConfig::paper`'s seed


def build():
    # Cargo's own output goes to stderr: stdout ends with the result object.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"], cwd=HERE, env=ENV, stdout=sys.stderr
    )
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(TARGET, "release", "benchmark")


def run(binary, workload, seed, seconds, trace, capture=False):
    argv = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=HERE, env=ENV, stdout=subprocess.PIPE if capture else None, text=True)


def result_of(done):
    """The parsed result object of a captured run; exits if the run failed."""
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(f"benchmark exited with code {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return result["correct"], {name: m["value"] for name, m in result["metrics"].items()}


def spans_nest(workload):
    """Every harness span's children fit inside it on the host clock."""
    with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as f:
        spans = json.load(f)["spans"]
    child_time = {}
    for s in spans:
        child_time[s["parent"]] = child_time.get(s["parent"], 0) + s["host_end"] - s["host_start"]
    return all(child_time.get(s["id"], 0) <= s["host_end"] - s["host_start"] for s in spans)


def is_exact(name, unit):
    """Virtual times, counts and what is derived from them repeat bit for bit."""
    return "virtual" in name or unit in ("count", "B") or name.startswith("paper.") or name == "error_rate"


def check(binary, spec, runs, seed, seconds):
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []

    def one_set():
        out = {}
        for w in workloads:
            for trace, seeds in ((0, range(seed, seed + runs)), (1, [seed])):
                for s in seeds:
                    correct, metrics = result_of(run(binary, w, s, seconds, trace, capture=True))
                    if not correct:
                        problems.append(f"{w} seed {s} trace {trace}: a cell failed")
                    expected = spec["per_layer"] if trace else spec["end_to_end"]
                    if set(metrics) != {m["name"] for m in expected}:
                        problems.append(f"{w} trace {trace}: metric names differ from BENCHMARK.json")
                    out[w, s, trace] = metrics
            if not spans_nest(w):
                problems.append(f"{w}: a harness span's children outlast it")
        return out

    first, second = one_set(), one_set()
    print(f"\n--check: {runs} seed(s) per workload, two sets")
    for key in first:
        for name, a in first[key].items():
            if is_exact(name, units[name]) and a != second[key][name]:
                problems.append(f"{key} {name}: {a} then {second[key][name]}, must be bit-equal")
    for w in workloads:
        for name, bound in bounds.items():
            sets = [[s[w, x, 0][name] for x in range(seed, seed + runs)] for s in (first, second)]
            a, b = (statistics.median(v) for v in sets)
            line = f"{w:<18}{name:<24} median {a:.6g} then {b:.6g} ({(b - a) / a:+.1%}, bound {bound:.0%})"
            if runs >= 2:
                q = statistics.quantiles(sets[0], n=4)
                line += f", spread {(q[2] - q[0]) / a:.1%}"
            print(line)
            if not is_exact(name, units[name]) and abs(b - a) / a > bound:
                problems.append(f"{w} {name}: medians {a:.6g} and {b:.6g} differ by more than {bound:.0%}")
    for p in problems:
        print("CHECK FAILED:", p)
    return 1 if problems else 0


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="default: all of them, one process each")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--runs", type=int, default=1, help="seeds per workload and set under --check")
    args = ap.parse_args()

    binary = build()
    if args.check:
        return check(binary, spec, args.runs, args.seed, args.seconds)
    for w in [args.workload] if args.workload else names:
        code = run(binary, w, args.seed, args.seconds, args.trace).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
