"""Spans and counts around reflbench's layer boundaries, installed from outside.

`Tracer.install()` replaces each target below with a wrapper: on the class
for methods, and in every reflbench module that holds the same function
object (so names imported with `from ... import` are wrapped too).
`uninstall()` puts the originals back.

A wrapper records one span (name, start, end, parent, job) per call and
adds its duration to the parent's child time, so self time (duration minus
the time child spans cover) is exact.  A direct recursive call of a wrapped
function into itself (CycNum.__mul__ swapping its operands) is folded into
the outer span.  Spans live in flat arrays and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _rational_operands(tr, args, result):
    other = args[1]
    if args[0].order == 1 and getattr(other, "order", 1) == 1:
        tr.count("cyclo.rational_ops")


def _elements(tr, args, result):
    tr.count("matgroup.elements", len(result.elements))


def _flats(tr, args, result):
    tr.count("arrangement.flats", len(result.flats))


def _modular(tr, args, result):
    if result:
        tr.count("arrangement.modular")


def _cosets(tr, args, result):
    if result.status == "complete":
        tr.count("fpgroups.cosets", result.index())


def _normal_form(tr, args, result):
    tr.count("garside.letters", sum(abs(e) for _, e in args[1]))
    tr.count("garside.factors", len(result.factors))


# (span name, module, attribute or Class.attribute, hook run after the call)
TARGETS = [
    ("cyclo.add", "cyclo", "CycNum.__add__", _rational_operands),
    ("cyclo.mul", "cyclo", "CycNum.__mul__", _rational_operands),
    ("cyclo.inverse", "cyclo", "CycNum.inverse", None),
    ("linalg.rref", "linalg", "rref", None),
    ("linalg.det", "linalg", "det", None),
    ("linalg.invert", "linalg", "invert", None),
    ("mpoly.mul", "mpoly", "MPoly.__mul__", None),
    ("mpoly.compose", "mpoly", "MPoly.compose", None),
    ("mpoly.poly_square_root", "mpoly", "poly_square_root", None),
    ("mpoly.jacobian", "mpoly", "jacobian", None),
    ("mpoly.proportional", "mpoly", "proportional", None),
    ("matgroup.build_monomial_group", "matgroup", "build_monomial_group", None),
    ("matgroup.build_catalog_group", "matgroup", "build_catalog_group", None),
    ("matgroup.enumerate_closure", "matgroup", "enumerate_closure", _elements),
    ("matgroup.rmatrix_mul", "matgroup", "RMatrix.__mul__", None),
    ("matgroup.rmatrix_inverse", "matgroup", "RMatrix.inverse", None),
    ("matgroup.reflections", "matgroup", "reflections", None),
    ("matgroup.hyperplanes", "matgroup", "hyperplanes", None),
    ("matgroup.field_of_definition", "matgroup", "field_of_definition", None),
    ("matgroup.invariant_hermitian_form", "matgroup", "invariant_hermitian_form", None),
    ("matgroup.center", "matgroup", "center", None),
    ("matgroup.galois_image", "matgroup", "galois_image", None),
    ("invariants.molien_series", "invariants", "molien_series", None),
    ("invariants.molien_degrees", "invariants", "molien_degrees", None),
    ("invariants.reynolds", "invariants", "reynolds", None),
    ("invariants.is_invariant", "invariants", "is_invariant", None),
    ("invariants.catalog_invariant_pair", "invariants", "catalog_invariant_pair", None),
    ("arrangement.arrangement_of", "arrangement", "arrangement_of", None),
    ("arrangement.from_json", "arrangement", "from_json", None),
    ("arrangement.intersection_lattice", "arrangement", "intersection_lattice", _flats),
    ("arrangement.is_modular", "arrangement", "is_modular", _modular),
    ("arrangement.is_supersolvable", "arrangement", "is_supersolvable", None),
    ("arrangement.bruteforce", "arrangement", "is_supersolvable_bruteforce", None),
    ("arrangement.discriminant_poly", "arrangement", "discriminant_poly", None),
    ("fpgroups.parse_word", "fpgroups", "parse_word", None),
    ("fpgroups.todd_coxeter", "fpgroups", "todd_coxeter", _cosets),
    ("fpgroups.coxeter_quotient", "fpgroups", "coxeter_quotient", None),
    ("fpgroups.torsion_quotient", "fpgroups", "torsion_quotient", None),
    ("fpgroups.eval_word", "fpgroups", "PermQuotient.eval_word", None),
    ("fpgroups.quotient_order", "fpgroups", "PermQuotient.order", None),
    ("fpgroups.hom_bijective_on", "fpgroups", "hom_bijective_on", None),
    ("fpgroups.verify_hom", "fpgroups", "verify_hom", None),
    ("fpgroups.schreier_data", "fpgroups", "schreier_data", None),
    ("fpgroups.schreier_rewrite", "fpgroups", "schreier_rewrite", None),
    ("garside.context", "garside", "context", None),
    ("garside.normal_form", "garside", "GarsideContext.normal_form", _normal_form),
    ("garside.nf_mul", "garside", "GarsideContext.nf_mul", None),
    ("garside.equal", "garside", "GarsideContext.equal", None),
    ("garside.commutes", "garside", "GarsideContext.commutes", None),
    ("garside.delta_word", "garside", "GarsideContext.delta_word", None),
    ("garside.nf_to_json", "garside", "nf_to_json", None),
    ("gtaction.drinfeld_images", "gtaction", "drinfeld_images", None),
    ("gtaction.act_on_quotient", "gtaction", "act_on_quotient", None),
    ("gtaction.stabilizes_bn_subgroup", "gtaction", "stabilizes_bn_subgroup", None),
    ("gtaction.matsumoto_commutation_report", "gtaction", "matsumoto_commutation_report", None),
    ("monodromy.braid_loop_images", "monodromy", "braid_loop_images", None),
    ("monodromy.monodromy_profile", "monodromy", "monodromy_profile", None),
    ("monodromy.order_based_profile", "monodromy", "order_based_profile", None),
    ("cli.main", "cli", "main", None),
]

LAYERS = [
    "cyclo",
    "linalg",
    "mpoly",
    "matgroup",
    "invariants",
    "arrangement",
    "fpgroups",
    "garside",
    "gtaction",
    "monodromy",
    "cli",
]

JOB_SPAN = "bench.job"


class Tracer:
    """Span store plus aggregated calls, self time and named counts."""

    def __init__(self):
        self.names = [JOB_SPAN] + [t[0] for t in TARGETS]
        self.kinds: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = {}
        self.calls_by_kind: dict[tuple[str, str], int] = {}
        self.stack: list[list] = []  # [name id, child seconds, span index]
        self.job = -1
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- spans ----------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][2] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [nid, 0.0, idx]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        self.stack.pop()
        nid, child, idx = frame
        dur = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][1] += dur
        key = (self.names[nid], self.kinds[self.job])
        self.calls_by_kind[key] = self.calls_by_kind.get(key, 0) + 1

    def run_job(self, kind: str, fn):
        """Run one job inside a root span, so its time not covered by any
        layer span is the benchmark's own."""
        self.kinds.append(kind)
        self.job = len(self.kinds) - 1
        frame = self._enter(0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._exit(frame, t0, perf_counter())

    def _wrap(self, nid: int, fn, hook):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            if not stack or stack[-1][0] == nid:
                return fn(*args, **kwargs)
            frame = tr._enter(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._exit(frame, t0, perf_counter())
            if hook is not None:
                hook(tr, args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("reflbench.")]
        for nid, (name, mod_name, attr, hook) in enumerate(TARGETS, start=1):
            mod = importlib.import_module(f"reflbench.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[method]
                self._set(owner, method, self._wrap(nid, original, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(nid, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as five little-endian arrays (name, parent, job: int32;
        start, end: float64 seconds) after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "kinds": self.kinds,
            "spans": len(self.span_name),
            "arrays": ["name:i4", "parent:i4", "job:i4", "start:f8", "end:f8"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_job, self.span_start, self.span_end):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)

    def stat(self, name: str) -> tuple[int, float]:
        nid = self.names.index(name)
        return self.calls[nid], self.self_s[nid]

    def layer_self(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n.split(".")[0] == layer)

    def calls_in(self, prefix: str, kinds=None) -> int:
        return sum(
            c
            for (name, kind), c in self.calls_by_kind.items()
            if name.startswith(prefix) and (kinds is None or kind in kinds)
        )


def per_layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric named in BENCHMARK.json, by (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def calls(name: str) -> None:
        out[f"{name}.calls"] = (tr.stat(name)[0], "count")

    def self_s(name: str) -> None:
        out[f"{name}.self_s"] = (tr.stat(name)[1], "s")

    for name in ("cyclo.mul", "cyclo.add", "cyclo.inverse"):
        calls(name)
        self_s(name)
    addmul = tr.stat("cyclo.add")[0] + tr.stat("cyclo.mul")[0]
    out["cyclo.rational_frac"] = (tr.counts.get("cyclo.rational_ops", 0) / addmul if addmul else 0.0, "ratio")
    calls("linalg.rref")
    self_s("linalg.rref")
    calls("linalg.det")
    calls("mpoly.mul")
    calls("mpoly.compose")
    self_s("mpoly.compose")
    self_s("matgroup.enumerate_closure")
    out["matgroup.elements"] = (tr.counts.get("matgroup.elements", 0), "count")
    calls("matgroup.rmatrix_mul")
    self_s("matgroup.reflections")
    self_s("invariants.molien_series")
    calls("invariants.reynolds")
    self_s("invariants.reynolds")
    self_s("arrangement.intersection_lattice")
    out["arrangement.flats"] = (tr.counts.get("arrangement.flats", 0), "count")
    calls("arrangement.is_modular")
    tests = tr.stat("arrangement.is_modular")[0]
    out["arrangement.modular_frac"] = (tr.counts.get("arrangement.modular", 0) / tests if tests else 0.0, "ratio")
    self_s("arrangement.is_supersolvable")
    self_s("arrangement.bruteforce")
    calls("fpgroups.todd_coxeter")
    self_s("fpgroups.todd_coxeter")
    out["fpgroups.cosets"] = (tr.counts.get("fpgroups.cosets", 0), "count")
    calls("fpgroups.eval_word")
    self_s("fpgroups.eval_word")
    self_s("fpgroups.hom_bijective_on")
    self_s("fpgroups.verify_hom")
    calls("garside.normal_form")
    out["garside.letters"] = (tr.counts.get("garside.letters", 0), "count")
    self_s("garside.normal_form")
    calls("garside.nf_mul")
    self_s("garside.nf_mul")
    out["garside.factors"] = (tr.counts.get("garside.factors", 0), "count")
    self_s("gtaction.act_on_quotient")
    self_s("gtaction.stabilizes_bn_subgroup")
    self_s("gtaction.matsumoto_commutation_report")
    self_s("monodromy.monodromy_profile")
    self_s("monodromy.order_based_profile")
    calls("cli.main")
    self_s("cli.main")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.layer_self(layer), "s")
    out["bench.self_s"] = (tr.stat(JOB_SPAN)[1], "s")
    return out

