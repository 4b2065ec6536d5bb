#!/usr/bin/env python3
"""Build and run the closed-loop Proust benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload map|sched|ledger|all --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench at the repository root, runs the workload and
echoes its report. The last line of a single-workload run is its JSON
result. --smoke is the benchmark's own test: every workload at tiny size,
untraced and traced, checked against BENCHMARK.json.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "proust_perfbench"
WORKLOADS = ("map", "sched", "ledger")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then build incrementally. Build output goes to
    stderr so that stdout ends with the result line."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_one(workload, seed, seconds, trace, smoke=False):
    """Run the benchmark binary once; returns (exit code, stdout)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch-dir", str(BUILD / "scratch")]
    if trace:
        cmd += ["--spans-out", str(BUILD / f"spans-{workload}.bin")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def result_of(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check_output(workload, trace, code, out, spec_metrics):
    """Problems with one smoke run's output (empty when it is fine)."""
    where = f"{workload} trace={trace}"
    result = result_of(out)
    if code != 0 or result is None:
        return [f"{where}: exit code {code}, result {result!r}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    if "check: ok" not in out.splitlines():
        problems.append(f"{where}: end-of-run check did not pass")
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in spec_metrics}
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name)
        if not NAME_RE.fullmatch(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if not isinstance(m, dict) or m.get("unit") != unit or \
                not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {m!r}, unit {unit}")
        line = re.compile(rf"^{re.escape(workload)}/{re.escape(name)} "
                          rf"-?[0-9.eE+-]+ {re.escape(unit)}(\s|$)", re.M)
        if not line.search(out):
            problems.append(f"{where}: no report line for {name} [{unit}]")
    if not trace and not re.search(
            rf"^{re.escape(workload)}/failed_ratio 0 ratio", out, re.M):
        problems.append(f"{where}: failed_ratio line missing or nonzero")
    return problems


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run_one(workload, seed=1, seconds=0.4, trace=trace,
                                smoke=True)
            found = check_output(workload, trace, code, out, metrics)
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print("  " + p)
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, checked against "
                             "BENCHMARK.json")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            code, out = run_one(workload, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        sys.stdout.write(out)
        sys.stdout.flush()
        if result_of(out) is None:
            print(f"perfbench: {workload} printed no result (exit {code})",
                  file=sys.stderr)
            return code or 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
