"""A short run of the benchmark's quotient workload.

`perfbench/workloads.py` reads `gen_perms`, `degree` and `order()` off the
quotients that `fpgroups` builds; a renamed field would otherwise surface
only as a failed benchmark run.  This runs `cosets` for one minimal round
set, with the library under src/, and checks every answer it reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cosets_workload_answers_correctly():
    argv = [sys.executable, "perfbench/run.py", "--workload", "cosets", "--seed", "3"]
    argv += ["--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
