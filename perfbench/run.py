#!/usr/bin/env python3
"""Builds and runs the mpicp repository benchmark.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the libraries under src/ from source in Release mode into
.bench_build/perfbench, then runs one workload. The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list. `--workload all` runs every workload in turn and prints
each one's output. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "serve_grid", "serve_offgrid")
REQUIRED = ("src/CMakeLists.txt", "data/d4.csv", "data/d6.csv",
            "data/d2.gam.models")
# A run must end within 180 s; the incremental build check takes a few.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / target).resolve()
    if ROOT not in path.parents and path != ROOT:
        path = ROOT / ".bench_build"
    return path / "perfbench"


def build(out):
    """Configures once, then rebuilds incrementally; output to stderr."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "perfbench"


def source_stamp():
    """git SHA when the tree is a checkout with history, else a digest
    of the library and benchmark sources."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for base in (ROOT / "src", BENCH_DIR / "cpp"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-sha1-" + h.hexdigest()[:16]


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def self_test(exe):
    """Helper self-tests in the binary, then its metric lists against
    BENCHMARK.json."""
    ok = subprocess.run([str(exe), "--self-test"], cwd=ROOT).returncode == 0
    listed = subprocess.run([str(exe), "--list-metrics"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    program = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name = line.split()
        program[kind].append(name)
    contract = load_contract()
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in contract[kind]]
        if names != program[kind]:
            print(f"self-test FAILED: {kind} list differs from BENCHMARK.json")
            ok = False
        bad = [n for n in names if not NAME_RE.match(n)]
        if bad:
            print(f"self-test FAILED: bad metric names {bad}")
            ok = False
    print("self-test (metric lists):", "ok" if ok else "FAILED")
    return 0 if ok else 1


def check_result(line, trace):
    """The result line must carry exactly the contract's metrics, with
    their units; returns a list of problems."""
    result = json.loads(line)
    contract = load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys")
    got = result.get("metrics", {})
    if list(got) != [m["name"] for m in wanted]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        if got.get(m["name"], {}).get("unit") != m["unit"]:
            problems.append(f"unit of {m['name']}")
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        log(f"missing inputs {missing}: run from a full checkout")
        return 2

    out = build_dir()
    exe = build(out)
    if args.self_test:
        return self_test(exe)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(exe, out, workload, args))
    return status


def run_workload(exe, out, workload, args):
    """Runs one workload; prints its output, the checked result last."""
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(ROOT / "data"), "--scratch", str(out / "scratch"),
           "--git-sha", source_stamp()]
    try:
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(child.stderr)
    ledger = results / f"{workload}-seed{args.seed}-trace{args.trace}.log"
    ledger.write_text(child.stdout)
    lines = child.stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        sys.stdout.write(child.stdout)
        log(f"{workload} failed with exit code {child.returncode}")
        return child.returncode or 1
    result, problems = check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if child.returncode != 0 or not result["correct"]:
        log(f"{workload}: a correctness gate failed")
        return child.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
