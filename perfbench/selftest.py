#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Runs the cheapest workload with the shortest run length and checks that:
  - --trace 0 prints every end_to_end metric of BENCHMARK.json with its
    unit, on a "metric" line and in the final JSON line, with no failures;
  - --trace 1 does the same for every per_layer metric;
  - a planted wrong expected answer makes fail_frac positive and "correct"
    false, while a second process with the same seed prints the same
    answer digest;
  - in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
Exits 0 when all hold.  Scratch files go under .bench_build/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "garside_nf"


def run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "7", "--seconds", "0.1", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(proc: subprocess.CompletedProcess, specs: list[dict]) -> dict:
    out = result(proc)
    lines = proc.stdout.splitlines()
    for spec in specs:
        got = out["metrics"].get(spec["name"])
        assert got is not None, f"{spec['name']} missing from the result"
        assert got["unit"] == spec["unit"], f"{spec['name']}: unit {got['unit']} != {spec['unit']}"
        prefix = f"metric {spec['name']} = "
        line = next((ln for ln in lines if ln.startswith(prefix)), None)
        assert line is not None and line.split()[4] == spec["unit"], f"no '{prefix}... {spec['unit']}' line"
    assert set(out["metrics"]) == {s["name"] for s in specs}, "metrics beyond BENCHMARK.json"
    return out


def digest_line(proc: subprocess.CompletedProcess) -> str:
    return next(ln for ln in proc.stdout.splitlines() if ln.startswith("digest "))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    first = run(ROOT, "--trace", "0")
    out = check_metrics(first, bench["end_to_end"])
    assert out["correct"] and out["failed"] == 0, out
    print(f"ok: trace 0 prints {len(bench['end_to_end'])} end-to-end metrics, {out['attempted']} jobs all correct")

    out = check_metrics(run(ROOT, "--trace", "1"), bench["per_layer"])
    assert out["correct"] and out["failed"] == 0, out
    print(f"ok: trace 1 prints {len(bench['per_layer'])} per-layer metrics")

    proc = run(ROOT, "--trace", "0", "--plant-failure")
    out = result(proc)
    fail_frac = next(ln for ln in proc.stdout.splitlines() if ln.startswith("metric fail_frac"))
    assert out["failed"] > 0 and not out["correct"] and float(fail_frac.split()[3]) > 0, fail_frac
    print(f"ok: a planted wrong expectation gives {fail_frac.strip()}")
    assert digest_line(proc) == digest_line(first), (digest_line(proc), digest_line(first))
    print(f"ok: the same seed in another process gives the same {digest_line(first)}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--trace", "0")
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout[-500:]
    shutil.rmtree(bare)
    print(f"ok: without the library the benchmark exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
