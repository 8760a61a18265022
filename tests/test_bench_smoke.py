"""Short runs of the benchmark's workloads.

`perfbench/workloads.py` reads fields such as `gen_perms`, `degree` and
`order()` off what the library builds; a renamed field would otherwise
surface only as a failed benchmark run.  This runs each workload for one
minimal round set, with the library under src/, and checks every answer it
reports; `cosets` runs once more under the tracer.  Each run also checks that
repeated argvs print byte-identical stdout, which a CLI that leaked state
from one `main` call into the next would fail.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: str) -> list[str]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0.1", "--trace", trace]
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    return lines


def test_cosets_workload_answers_correctly():
    _run("cosets", "0")


@pytest.mark.parametrize("workload", ["garside_nf", "arrangements", "cyclo_groups"])
def test_workload_answers_correctly(workload):
    _run(workload, "0")


def test_traced_cosets_run_is_sound():
    # the tracer folds a quotient's recursive build of its parabolic into one
    # span: the traced replay must give the same answers, keep the predicted
    # zeros, and account for all of the traced job time
    lines = _run("cosets", "1")
    zeros = [line for line in lines if line.startswith("predicted zero")]
    assert len(zeros) == 2 and all(": holds (" in line for line in zeros), zeros
    (accounting,) = [line for line in lines if line.startswith("accounting:")]
    layer, bench, total, traced = map(float, re.findall(r"(\d+\.\d+) s", accounting))
    assert abs(layer + bench - total) <= 2e-4 and abs(total - traced) <= 2e-4, accounting
