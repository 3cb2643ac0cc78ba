#!/usr/bin/env python3
"""Repo benchmark: host cost of the xUI simulator on four workloads.

Builds the benchmark binary from source (into .bench_build/perfbench)
and runs it. Run from the repository root:

  python3 perfbench/run.py --workload cycle_stall --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                      # all four workloads, summary table
  python3 perfbench/run.py --self-test          # the benchmark's own tests
  python3 perfbench/run.py --write-reference 0-10   # regenerate reference pins

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
REFERENCE = HERE / "reference.json"
WORKLOADS = ["cycle_stall", "cycle_busy", "des_server", "verify_sweep"]
# A single run may not outlive this many seconds beyond its budget.
GRACE_S = 150


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_sources():
    for rel in ("src/CMakeLists.txt", "cmake/build_info.hh.in"):
        if not (ROOT / rel).is_file():
            fail(f"simulator sources missing: {rel} not found under {ROOT}")


def build(targets):
    """Configure once, then build `targets` incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", *targets])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build failed: {' '.join(cmd)}", 1)


def source_digest():
    """SHA-256 over the simulator and benchmark sources (provenance)."""
    h = hashlib.sha256()
    for base in ("src", "cmake", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt", ".in"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(args, seconds, capture):
    cmd = [str(BUILD / "perfbench"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, text=True, timeout=seconds + GRACE_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: no result within {seconds + GRACE_S} s", 1)
    return proc.returncode, proc.stdout if capture else ""


def workload_args(name, seed, seconds, trace, digest):
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--reference", str(REFERENCE),
            "--source-digest", digest]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(TRACES / f"{name}-seed{seed}.json")]
    return args


def run_all(seed, seconds, trace, digest):
    """Every workload in its own process, then one summary."""
    rows, total_attempted, total_failed, merged, correct = [], 0, 0, {}, True
    for name in WORKLOADS:
        code, out = run_binary(workload_args(name, seed, seconds, trace, digest),
                               seconds, capture=True)
        sys.stdout.write(out)
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            fail(f"{name}: no result line", 1)
        correct = correct and code == 0 and result["correct"]
        total_attempted += result["attempted"]
        total_failed += result["failed"]
        for key, metric in result["metrics"].items():
            merged[f"{name}.{key}"] = metric
        frac = result["failed"] / result["attempted"]
        rows.append((name, result["metrics"], frac))
    if not trace:
        print("\nsummary (medians over passes; fail_frac = failed / attempted cells)")
        print(f"{'workload':<14}{'wall_s':>12}{'cpu_s':>12}{'setup_s':>12}"
              f"{'peak_rss_mb':>14}{'fail_frac':>11}")
        for name, m, frac in rows:
            print(f"{name:<14}{m['wall_s']['value']:>12.4f}{m['cpu_s']['value']:>12.4f}"
                  f"{m['setup_s']['value']:>12.4f}{m['peak_rss_mb']['value']:>14.1f}"
                  f"{frac:>11.4f}")
        print("units: wall_s s, cpu_s s, setup_s s, peak_rss_mb MiB, fail_frac ratio")
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": merged}))
    return 0 if correct else 1


def parse_seeds(text):
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def write_reference(seeds):
    """Regenerate reference.json: one untraced pass per workload and seed."""
    cells = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        for seed in seeds:
            for name in WORKLOADS:
                out = Path(tmp) / f"{name}-{seed}.json"
                code, _ = run_binary(["--workload", name, "--seed", str(seed),
                                      "--reference", str(REFERENCE),
                                      "--dump-pins", str(out)], 60, capture=False)
                if code != 0:
                    fail(f"{name} seed {seed}: a cell failed its checks", 1)
                for s, by_cell in json.loads(out.read_text()).items():
                    cells.setdefault(s, {}).update(by_cell)
                print(f"pinned {name} seed {seed}", file=sys.stderr)
    # One line per cell keeps the table reviewable as a diff.
    note = ("Per-cell simulated results pinned by perfbench; regenerate with "
            "python3 perfbench/run.py --write-reference SEEDS only when a "
            "change is meant to alter simulated behaviour.")
    lines = ['{"format": 1,', f' "note": {json.dumps(note)},', ' "cells": {']
    seed_keys = sorted(cells, key=int)
    for i, seed in enumerate(seed_keys):
        lines.append(f'  "{seed}": {{')
        names = sorted(cells[seed])
        for j, name in enumerate(names):
            comma = "," if j + 1 < len(names) else ""
            lines.append(f'   {json.dumps(name)}: '
                         f'{json.dumps(cells[seed][name], sort_keys=True)}{comma}')
        lines.append("  }" + ("," if i + 1 < len(seed_keys) else ""))
    lines.append(" }\n}\n")
    REFERENCE.write_text("\n".join(lines))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", metavar="SEEDS")
    opts = ap.parse_args()
    if opts.seed < 0 or not 1 <= opts.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    check_sources()
    if opts.self_test:
        build(["perfbench_selftest"])
        return subprocess.run([str(BUILD / "perfbench_selftest")], cwd=ROOT).returncode
    build(["perfbench"])
    if opts.write_reference:
        return write_reference(parse_seeds(opts.write_reference))
    digest = source_digest()
    if opts.workload == "all":
        return run_all(opts.seed, opts.seconds, opts.trace, digest)
    code, _ = run_binary(workload_args(opts.workload, opts.seed, opts.seconds,
                                       opts.trace, digest),
                         opts.seconds, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
