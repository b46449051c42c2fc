#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the BMF fitting stack.

Run from the repository root:

    python3 wallbench/run.py --workload fit_wide --seed 1 --seconds 20 --trace 0
    python3 wallbench/run.py all --seed 1 --seconds 20 --trace 0
    python3 wallbench/run.py compare wallbench/results/A.json wallbench/results/B.json
    python3 wallbench/run.py spread --workload serve_mix --seeds 1-10

The first form builds the benchmark (an untraced build, and a traced
build with the counting allocator) and runs one workload; the last line
of its output is the JSON result. `all` runs every workload in turn and
fails if any check fails. `compare` prints two saved reports
side by side and refuses reports whose configuration hashes differ.
`spread` runs one workload on several seeds and prints, per end-to-end
metric, the quartile spread as a share of the median next to the bound
in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RESULTS = os.path.join(HERE, "results")


def target_base():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir]
    if features:
        cmd += ["--features", features]
    # Cargo's own output goes to stderr so the result stays the last
    # line of standard output.
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def binaries():
    """Builds both variants; returns (untraced, traced) paths or None."""
    base = target_base()
    plain = os.path.join(base, "wallbench-plain")
    counting = os.path.join(base, "wallbench-counting")
    if not (build(plain, None) and build(counting, "counting")):
        return None
    exe = "wallbench.exe" if os.name == "nt" else "wallbench"
    return (os.path.join(plain, "release", exe),
            os.path.join(counting, "release", exe))


def run_workload(argv):
    built = binaries()
    if built is None:
        print("wallbench: build failed", file=sys.stderr)
        return 1
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    binary = built[1] if traced else built[0]
    scratch = os.path.join(target_base(), "wallbench-scratch")
    cmd = [binary] + argv + ["--scratch", scratch, "--results", RESULTS]
    return subprocess.run(cmd).returncode


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(paths):
    if len(paths) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = load(paths[0]), load(paths[1])
    ha, hb = a["meta"]["config_hash"], b["meta"]["config_hash"]
    if ha != hb:
        print(f"refusing to compare: configuration hashes differ ({ha} vs {hb})",
              file=sys.stderr)
        return 2
    for block in ("end_to_end", "detail", "per_layer"):
        for name, m in a[block].items():
            other = b[block].get(name)
            if other is None or m["value"] is None or other["value"] is None:
                continue
            base = m["value"]
            ratio = other["value"] / base if base else float("nan")
            print(f"{block:10} {name:34} {base:>14.6g} {other['value']:>14.6g} "
                  f"{ratio:8.3f}x {m['unit']}")
    return 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    workload = args.get("--workload")
    seeds = parse_seeds(args.get("--seeds", "1-10"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.get("--seconds", str(bench["run_seconds"]))
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(last)
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q3 - q1) / med if med else float("inf")
        print(f"{metric['name']:20} median {med:12.6g}  spread {share:7.4f}  "
              f"bound {metric['bound']}  {'ok' if share <= metric['bound'] / 3 else 'WIDE'}")
    return 0


def run_all(argv):
    """Runs every workload in BENCHMARK.json with the given flags."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = 0
    for workload in workloads:
        print(f"## {workload}", flush=True)
        failed += run_workload(["--workload", workload] + argv) != 0
    return 1 if failed else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["spread"]:
        return spread(argv[1:])
    if argv[:1] == ["all"]:
        return run_all(argv[1:])
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main())
