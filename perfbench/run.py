#!/usr/bin/env python3
"""The reflbench benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses the library under src/.
It drives reflbench in-process as a closed loop with one client, one job at
a time: a job goes through `reflbench.cli.main(argv)` when the query has a
CLI subcommand and calls the public function otherwise.  Rounds of jobs
(see workloads.py) run until `--seconds` have passed and at least
MIN_ROUNDS rounds are done.  Every answer is checked against an
independent value (oracles.py).

--trace 0 prints the end-to-end metrics.  jobs_per_s is jobs divided by
the summed job wall time (input generation and answer checks are not
timed); set-up time is the median wall time of SETUP_PROBES fresh
processes that import reflbench and run the workload's warm-up pass.  The
timing metrics are scaled to a nominal host speed (see REF_NOMINAL_S);
the unscaled ones are printed on the "unscaled" line.
--trace 1 runs rounds untraced for a third of the time, replays the same
rounds with the layer wrappers of tracer.py installed, and prints the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

MIN_ROUNDS = 2
SETUP_PROBES = 5
# Host speed: on a shared VM the same pure-Python work runs up to 25% faster
# or slower from one run to the next.  A fixed loop is timed before every job
# and around every set-up probe, and the timing metrics are scaled by
# REF_NOMINAL_S over the run's median loop time: they read as at a host
# where the loop takes REF_NOMINAL_S.  The unscaled figures are printed too.
# This assumes the program leaves no work running between jobs (it is
# single-threaded), since such work would slow the loop and flatter it.
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.002
LADDER = (500, 750, 900, 950, 990, 999)  # percentiles, in tenths
MODULES = (
    "cli", "cyclo", "errors", "linalg", "mpoly", "matgroup", "invariants",
    "arrangement", "fpgroups", "garside", "gtaction", "monodromy",
)  # fmt: skip
# layer -> (workloads where its calls must be 0, job kinds allowed to call it)
PREDICTED_ZEROS = [
    ("cyclo.", ("cosets", "garside_nf"), ("monodromy",)),
    ("garside.normal_form", ("cyclo_groups", "arrangements", "cosets"), ()),
    ("fpgroups.todd_coxeter", ("cyclo_groups", "arrangements"), ()),
]


def load_library() -> SimpleNamespace:
    """Import reflbench from this checkout's src/, never from elsewhere."""
    if not (SRC / "reflbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no reflbench sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    pkg = importlib.import_module("reflbench")
    if Path(pkg.__file__).resolve().parent != SRC / "reflbench":
        sys.exit(f"perfbench: imported reflbench from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"reflbench.{m}") for m in MODULES})


def setup(workload: str) -> SimpleNamespace:
    rb = load_library()
    W.ROUNDS[workload][1](rb)
    return rb


def reference_time() -> float:
    """Wall time of a fixed pure-Python loop: a probe of the host's speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def probe_setup(workload: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes doing exactly the set-up a run does,
    and the reference loop times taken around them."""
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs += [reference_time() for _ in range(5)]
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times, refs


# ---------------------------------------------------------------------------


def run_jobs(jobs: list[W.Job], tracer=None) -> list[dict]:
    records = []
    for job in jobs:
        problems: list[str] = []
        answer = None
        ref = reference_time()
        t0 = time.perf_counter()
        try:
            out = tracer.run_job(job.kind, job.call) if tracer else job.call()
        except Exception:  # a job that raises or overruns a budget fails; the run goes on
            seconds = time.perf_counter() - t0
            problems.append(traceback.format_exc())
        else:
            seconds = time.perf_counter() - t0
            try:
                answer = job.check(out, problems)
            except Exception:  # malformed output
                problems.append("check raised " + traceback.format_exc())
            # a large answer (a listed quotient) must not stay alive into
            # the next job and inflate its memory peak
            del out
        records.append(
            {"kind": job.kind, "props": job.props, "seconds": seconds, "ref": ref, "problems": problems, "answer": answer}
        )
    return records


def run_rounds(ctx, workload: str, seed: int, seconds: float, min_rounds: int) -> list[list[dict]]:
    rounds: list[list[dict]] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(run_jobs(W.make_round(ctx, workload, seed, len(rounds))))
    return rounds


def tail_percentile(jobs_per_round: int) -> float:
    """Highest ladder percentile with >= 10 jobs beyond it in MIN_ROUNDS
    rounds; fixed by the mix, so it does not move with speed."""
    n = MIN_ROUNDS * jobs_per_round
    return max(p for p in LADDER if n * (1000 - p) >= 10 * 1000) / 10


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def digest(rounds: list[list[dict]]) -> str:
    answers = [[r["kind"], r["answer"]] for rnd in rounds for r in rnd]
    return hashlib.sha256(json.dumps(answers, sort_keys=True, default=str).encode()).hexdigest()


def commit_id() -> str:
    """HEAD of the checkout's own git repository, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "reflbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "no-git; src sha256 " + h.hexdigest()[:16]


def print_header(args) -> None:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    header = {
        "commit": commit_id(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "ru_maxrss_unit": "KiB" if sys.platform.startswith("linux") else "bytes",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("header " + json.dumps(header, sort_keys=True))


def print_traffic(records: list[dict]) -> None:
    n = len(records)
    kinds = Counter(r["kind"] for r in records)
    print(f"traffic jobs={n} kind " + json.dumps({k: f"{c} ({100 * c / n:.1f}%)" for k, c in sorted(kinds.items())}))
    keys = sorted({k for r in records for k in r["props"]})
    for key in keys:
        counts = Counter(str(r["props"].get(key, "-")) for r in records)
        shares = {v: f"{c} ({100 * c / n:.1f}%)" for v, c in sorted(counts.items())}
        print(f"traffic {key} " + json.dumps(shares))


def report_failures(records: list[dict]) -> int:
    failed = [r for r in records if r["problems"]]
    for r in failed[:10]:
        print(f"FAILED {r['kind']}: {'; '.join(r['problems'])[-2000:]}", file=sys.stderr)
    return len(failed)


def rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1024 if sys.platform.startswith("linux") else rss / 2**20


# ---------------------------------------------------------------------------


def end_to_end(args) -> int:
    rb = setup(args.workload)
    setup_times, setup_refs = probe_setup(args.workload)
    ctx = W.Context(rb, plant=args.plant_failure)
    rounds = run_rounds(ctx, args.workload, args.seed, args.seconds, MIN_ROUNDS)
    records = [r for rnd in rounds for r in rnd]
    times = sorted(r["seconds"] for r in records)
    refs = [r["ref"] for r in records]
    failed = report_failures(records)
    pct = tail_percentile(len(rounds[0]))

    def timing(job_scale: float, setup_scale: float) -> dict:
        return {
            "jobs_per_s": (len(times) / sum(times) / job_scale, "1/s"),
            "job_p50_ms": (statistics.median(times) * 1000 * job_scale, "ms"),
            "job_tail_ms": (nearest_rank(times, pct) * 1000 * job_scale, "ms"),
            "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
        }

    print_header(args)
    print_traffic(records)
    print(f"digest rounds=0..{MIN_ROUNDS - 1} jobs={sum(len(r) for r in rounds[:MIN_ROUNDS])} sha256={digest(rounds[:MIN_ROUNDS])}")
    print(f"cli repeated argvs checked for identical stdout: {ctx.cli_repeats}")
    job_scale = REF_NOMINAL_S / statistics.median(refs)
    setup_scale = REF_NOMINAL_S / statistics.median(setup_refs)
    print(
        f"host speed: reference loop median {statistics.median(refs) * 1000:.3f} ms during jobs,"
        f" {statistics.median(setup_refs) * 1000:.3f} ms during set-up (nominal {REF_NOMINAL_S * 1000:g} ms)"
    )
    wall = timing(1.0, 1.0)
    print("unscaled " + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in wall.items()))
    print("setup_s probes (unscaled) " + " ".join(f"{t:.4f}" for t in setup_times))
    metrics = timing(job_scale, setup_scale)
    metrics["peak_rss_mb"] = (rss_mb(), "MB")
    metrics["ok_frac"] = ((len(records) - failed) / len(records), "ratio")
    for name, (value, unit) in metrics.items():
        note = f"  (p{pct:g} of {len(records)} jobs)" if name == "job_tail_ms" else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(f"metric fail_frac = {failed / len(records):.6g} ratio  ({failed} of {len(records)} jobs failed)")
    print(f"rounds={len(rounds)} job_seconds={sum(times):.3f}")
    return emit(len(records), failed, metrics)


def traced(args) -> int:
    from tracer import LAYERS, Tracer, per_layer_metrics

    rb = setup(args.workload)
    ctx = W.Context(rb, plant=args.plant_failure)
    # a third of the time untraced, then the same rounds traced, which run
    # up to twice as long: the run as a whole stays near --seconds
    rounds = run_rounds(ctx, args.workload, args.seed, args.seconds / 3, 1)
    untraced = [r for rnd in rounds for r in rnd]

    tr = Tracer()
    tr.install()
    try:
        replay = [run_jobs(W.make_round(ctx, args.workload, args.seed, i), tr) for i in range(len(rounds))]
    finally:
        tr.uninstall()
    traced_records = [r for rnd in replay for r in rnd]
    out_path = ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}.bin"
    tr.write(out_path)

    records = untraced + traced_records
    failed = report_failures(records)
    same = digest(rounds) == digest(replay)
    if not same:
        print("FAILED traced replay gave different answers from the untraced rounds", file=sys.stderr)
        failed += 1

    print_header(args)
    print_traffic(traced_records)
    print(f"digest rounds=0..{len(rounds) - 1} untraced={digest(rounds)} traced={digest(replay)} same={same}")
    print(f"cli repeated argvs checked for identical stdout: {ctx.cli_repeats}")
    untraced_jps = len(untraced) / sum(r["seconds"] for r in untraced)
    job_s = sum(r["seconds"] for r in traced_records)
    metrics = per_layer_metrics(tr)
    metrics.update(
        {
            "trace.jobs_per_s": (len(traced_records) / job_s, "1/s"),
            "trace.untraced_jobs_per_s": (untraced_jps, "1/s"),
            "trace.slowdown": (untraced_jps * job_s / len(traced_records), "ratio"),
            "trace.job_s": (job_s, "s"),
            "trace.spans": (len(tr.span_name), "count"),
        }
    )
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    layer_s = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    root_s = sum(tr.span_end[i] - tr.span_start[i] for i in range(len(tr.span_name)) if tr.span_parent[i] == -1)
    print(
        f"accounting: layer self {layer_s:.4f} s + benchmark self {metrics['bench.self_s'][0]:.4f} s"
        f" = {layer_s + metrics['bench.self_s'][0]:.4f} s of {root_s:.4f} s traced job time"
    )
    kinds = {r["kind"] for r in traced_records}
    for prefix, zero_on, allowed in PREDICTED_ZEROS:
        if args.workload not in zero_on:
            continue
        total = tr.calls_in(prefix)
        rest = tr.calls_in(prefix, kinds - set(allowed))
        by_kind = {k: tr.calls_in(prefix, {k}) for k in sorted(kinds) if tr.calls_in(prefix, {k})}
        verdict = "holds" if rest == 0 else "VIOLATED"
        note = f" outside job kinds {list(allowed)}" if allowed else ""
        print(f"predicted zero {prefix}* calls on {args.workload}{note}: {verdict} (total {total}, by kind {json.dumps(by_kind)})")
    print(f"spans written to {out_path.relative_to(ROOT)}")
    return emit(len(records), failed, metrics)


def emit(attempted: int, failed: int, metrics: dict) -> int:
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="only import and warm up (set-up timing)")
    ap.add_argument("--plant-failure", action="store_true", help="plant one wrong expected answer (self-test)")
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup(args.workload)
        return 0
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
