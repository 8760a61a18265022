"""The four workloads as rounds of jobs.

A round is a fixed multiset of job templates in a seeded order; the seed
draws the random inputs inside each template (polynomials, cyclotomic
coefficients, words, GT pairs, hyperplane order) but never the template
mix, so every seed runs the same mix of kinds and varied properties.  A job
is one query a user would make: `call` is the timed part, and `check`
(untimed) compares its answer with a value from `oracles` and returns the
canonical answer that goes into the digest.

Which paper criterion feeds which workload:
  cyclo_groups  criteria 1-3, 11, 12 (field axioms, Reynolds, Molien identities)
  arrangements  criterion 10
  cosets        criteria 4, 6-8 and the act_on_quotient part of 9
  garside_nf    criterion 5, the Matsumoto part of 9, 12 (normal-form canonicity)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import Any, Callable

import oracles as O

@dataclass
class Job:
    kind: str
    props: dict  # varied properties, for the traffic shares
    call: Callable[[], Any]
    check: Callable[[Any, list], Any]  # appends failed checks, returns the canonical answer


class Context:
    """State shared by one run's jobs: the library modules, the stdout seen
    for each CLI argv (a repeated argv must print the same bytes), and a
    pending planted wrong expectation for the self-test."""

    def __init__(self, rb: SimpleNamespace, plant: bool = False):
        self.rb = rb
        self.cli_seen: dict[tuple, tuple[int, str]] = {}
        self.cli_repeats = 0
        self.plant = plant

    def cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rb.cli.main(list(argv))
        return code, buf.getvalue()

    def cli_payload(self, argv: list[str], out: tuple[int, str], problems: list, code: int = 0) -> dict:
        key = tuple(argv)
        seen = self.cli_seen.setdefault(key, out)
        if seen is not out:
            self.cli_repeats += 1
            if seen != out:
                problems.append(f"repeated argv {argv} printed different stdout")
        self.expect(problems, f"exit code of {argv}", out[0], code)
        return json.loads(out[1])

    def expect(self, problems: list, what: str, got, want) -> None:
        if self.plant:
            self.plant = False
            want = ("planted wrong expectation", want)
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_job(ctx: Context, kind: str, props: dict, argv: list[str], verify, code: int = 0) -> Job:
    """A job answered by `reflbench ARGV`; `verify(payload, problems)` checks it."""

    def check(out, problems):
        payload = ctx.cli_payload(argv, out, problems, code)
        verify(payload, problems)
        return {"argv": argv, "code": out[0], "stdout": digest_text(out[1])}

    return Job(kind, props, lambda: ctx.cli(argv), check)


# ---------------------------------------------------------------------------
# cyclo_groups

PAPER_CONDUCTORS = (1, 3, 4, 5, 8, 12)
EXTENDED_CONDUCTORS = (7, 9, 15, 16, 24)


def _conductor_bucket(conductor: int) -> str:
    return "paper" if conductor in PAPER_CONDUCTORS else "extended"


def _group_argv(g) -> list[str]:
    return ["--catalog", g] if isinstance(g, str) else ["--monomial", ",".join(map(str, g))]


def _group_facts(g) -> dict:
    if isinstance(g, str):
        return O.CATALOG[g]
    d, e, n = g
    return {
        "order": O.monomial_order(d, e, n),
        "reflections": O.monomial_reflections(d, e, n),
        "hyperplanes": O.monomial_hyperplanes(d, e, n),
        "degrees": O.monomial_degrees(d, e, n),
        "center": O.monomial_center(d, e, n),
        "field": O.monomial_field_of_definition(d, e, n),
        "e_H": [2] + ([d // e] if d // e > 2 else []),
    }


def _build(rb, g):
    if isinstance(g, str):
        return rb.matgroup.build_catalog_group(g)
    return rb.matgroup.build_monomial_group(*g)


def _group_props(g) -> dict:
    facts = _group_facts(g)
    order = facts["order"]
    size = "order<100" if order < 100 else "order<1000" if order < 1000 else "order>=1000"
    return {"conductor": _conductor_bucket(facts["field"]["conductor"]), "size": size}


GROUP_INFO = [
    "G4", "S3_paper", (3, 3, 2), (4, 4, 2), (5, 5, 2), (8, 8, 2), (12, 12, 2), (3, 1, 2),
    (4, 1, 2), (2, 1, 3), (2, 2, 3), (3, 3, 3), (4, 4, 3), (1, 1, 4), (2, 2, 4),
    (7, 7, 2), (9, 9, 2), (15, 15, 2), (24, 24, 2),
]  # fmt: skip
MOLIEN = [
    "G4", "S3_paper", (2, 1, 2), (3, 3, 2), (5, 5, 2), (8, 8, 2), (3, 1, 2), (2, 1, 3),
    (2, 2, 3), (3, 3, 3), (4, 4, 3), (2, 2, 4), (7, 7, 2), (9, 9, 2), (15, 15, 2),
]  # fmt: skip
LARGE_GROUP = (3, 1, 4)
# order triples for the field-axiom batches; fixed so that every seed pays
# the same field sizes, with coefficients drawn from the seed
PAPER_TRIPLES = [
    (12, 8, 5), (3, 4, 5), (8, 12, 1), (5, 5, 3), (4, 12, 8),
    (1, 3, 12), (5, 8, 4), (12, 12, 3), (8, 1, 5), (3, 5, 12),
]  # fmt: skip
EXTENDED_TRIPLES = [(7, 9, 7), (16, 24, 16)]
# the monomials of the random polynomials for the Reynolds checks; fixed so
# that every seed pays the same degrees, with coefficients drawn from the seed
REYNOLDS_MONOMIALS = ((3, 1), (2, 2), (0, 3))


def _group_info_job(ctx: Context, g) -> Job:
    facts = _group_facts(g)

    def verify(p, problems):
        ctx.expect(problems, "order", p["order"], facts["order"])
        ctx.expect(problems, "reflections", p["reflections"], facts["reflections"])
        ctx.expect(problems, "hyperplanes", p["hyperplanes"], facts["hyperplanes"])
        ctx.expect(problems, "e_H", p["e_H"], facts["e_H"])
        ctx.expect(problems, "center order", p["center_order"], facts["center"])
        ctx.expect(problems, "field of definition", p["field_of_definition"], facts["field"])
        ctx.expect(problems, "positive definite", p["hermitian_form_positive_definite"], True)

    return cli_job(ctx, "group_info", _group_props(g), ["group", "info", *_group_argv(g)], verify)


def _molien_job(ctx: Context, g) -> Job:
    facts = _group_facts(g)
    rb = ctx.rb

    def check(degrees, problems):
        ctx.expect(problems, "Molien degrees", sorted(degrees), facts["degrees"])
        ctx.expect(problems, "sum(d_i - 1) = reflections", sum(d - 1 for d in degrees), facts["reflections"])
        prod = 1
        for d in degrees:
            prod *= d
        ctx.expect(problems, "prod(d_i) = |G|", prod, facts["order"])
        return {"group": str(g), "degrees": sorted(degrees)}

    return Job("molien", _group_props(g), lambda: rb.invariants.molien_degrees(_build(rb, g)), check)


def _large_group_job(ctx: Context) -> Job:
    g = LARGE_GROUP
    facts = _group_facts(g)
    rb = ctx.rb

    def call():
        grp = _build(rb, g)
        return grp.order(), rb.matgroup.field_of_definition(grp)

    def check(out, problems):
        order, fod = out
        ctx.expect(problems, "order", order, facts["order"])
        got = {"conductor": fod.conductor, "fixing_subgroup": list(fod.fixing_subgroup), "degree": fod.degree}
        ctx.expect(problems, "field of definition", got, facts["field"])
        return {"group": str(g), "order": order, "field": got}

    return Job("group_build", _group_props(g), call, check)


def _reynolds_job(ctx: Context, rng: random.Random, name: str) -> Job:
    rb = ctx.rb
    terms = {exps: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for exps in REYNOLDS_MONOMIALS}
    p = rb.mpoly.MPoly(2, terms)

    def call():
        g = rb.matgroup.build_catalog_group(name)
        r = rb.invariants.reynolds(g, p)
        return r, rb.invariants.reynolds(g, r), rb.invariants.is_invariant(g, r)

    def check(out, problems):
        r, rr, invariant = out
        ctx.expect(problems, "Reynolds idempotent", rr == r, True)
        ctx.expect(problems, "Reynolds image invariant", invariant, True)
        return rb.mpoly.to_json(r)

    return Job("reynolds", _group_props(name), call, check)


def _invariants_check_job(ctx: Context, name: str) -> Job:
    def verify(p, problems):
        if name == "G12":
            ctx.expect(problems, "square root degree", p["square_root_degree"], 12)
            ctx.expect(problems, "12 distinct linear factors", p["squarefree_distinct_roots"], True)
            ctx.expect(problems, "Jacobian proportional to the root", p["jacobian_proportional"], True)
        else:
            ctx.expect(problems, "pair invariant", p["pair_invariant"], True)
            ctx.expect(problems, "discriminant proportional", p["discriminant_proportional_to_p1^3-p2^2"], True)
            ctx.expect(problems, "Molien degrees", p["molien_degrees"], O.CATALOG[name]["degrees"])

    props = {"conductor": "paper", "size": "order<100"}
    return cli_job(ctx, "invariants_check", props, ["invariants", "check", "--catalog", name], verify)


def _axioms_job(ctx: Context, rng: random.Random, triples, bucket: str) -> Job:
    rb = ctx.rb

    def draw(order: int) -> list[Fraction]:
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(O.euler_phi(order))]

    inputs = [[(o, draw(o)) for o in orders] for orders in triples]

    def call():
        out = []
        for (oa, ca), (ob, cb), (oc, cc) in inputs:
            a, b, c = rb.cyclo.CycNum(oa, ca), rb.cyclo.CycNum(ob, cb), rb.cyclo.CycNum(oc, cc)
            ab = a * b
            axioms = (
                (a + b) + c == a + (b + c),
                a * (b + c) == ab + a * c,
                ab * c == a * (b * c),
                not b or (a / b) * b == a,
            )
            out.append((axioms, ab))
        return out

    def check(out, problems):
        answer = []
        for ((oa, ca), (ob, cb), _), (axioms, ab) in zip(inputs, out):
            ctx.expect(problems, "field axioms", axioms, (True, True, True, True))
            want = O.embed(oa, ca) * O.embed(ob, cb)
            got = O.embed(ab.order, ab.coeffs)
            ctx.expect(problems, "a*b matches the complex embedding", abs(got - want) <= 1e-9 * (1 + abs(want)), True)
            answer.append(rb.cyclo.to_json(ab))
        return answer

    return Job("cyc_axioms", {"conductor": bucket}, call, check)


def cyclo_groups_round(ctx: Context, rng: random.Random) -> list[Job]:
    jobs = [_group_info_job(ctx, g) for g in GROUP_INFO]
    jobs += [_molien_job(ctx, g) for g in MOLIEN]
    jobs.append(_large_group_job(ctx))
    jobs += [_reynolds_job(ctx, rng, name) for name in ("G4", "S3_paper") * 4]
    jobs += [_invariants_check_job(ctx, name) for name in ("G12", "G4", "S3_paper")]
    jobs += [_axioms_job(ctx, rng, PAPER_TRIPLES, "paper") for _ in range(12)]
    jobs += [_axioms_job(ctx, rng, EXTENDED_TRIPLES, "extended") for _ in range(2)]
    return jobs


def cyclo_groups_warm(rb) -> None:
    # the lazy cyclotomic tables: Phi_n, reduction rows and descent systems
    # for every conductor a job reaches, products included
    orders = set(PAPER_CONDUCTORS + EXTENDED_CONDUCTORS) | {2, 6}
    for triple in PAPER_TRIPLES + EXTENDED_TRIPLES:
        for a in triple:
            for b in triple:
                orders.add(a * b // gcd(a, b))
    for n in sorted(orders):
        z = rb.cyclo.root_of_unity(n, 1)
        ((z + 3) * (z + 2)).inverse()


# ---------------------------------------------------------------------------
# arrangements

SUPERSOLVABLE = [
    "G4", "S3_paper", (2, 1, 2), (3, 3, 2), (5, 5, 2), (3, 1, 2), (1, 1, 3),
    (1, 1, 4), (2, 2, 3), (2, 1, 3), (3, 3, 3), (2, 2, 4),
]  # fmt: skip
# the brute-force oracle always checks the 6- and 9-hyperplane verdicts, and
# a seeded 3 of the rank-2 ones, whose oracle costs about the same
ORACLE_ALWAYS = {(1, 1, 4), (2, 2, 3), (2, 1, 3), (3, 3, 3)}
ORACLE_POOL = ["G4", "S3_paper", (2, 1, 2), (3, 3, 2), (5, 5, 2), (3, 1, 2), (1, 1, 3)]
ORACLE_PICKS = 3
LATTICE = [
    (1, 1, 3), (2, 1, 2), (3, 3, 2), (4, 4, 2), (5, 5, 2), (6, 6, 2), (3, 1, 2), (4, 1, 2),
    (1, 1, 4), (2, 2, 3), (2, 1, 3), (3, 3, 3),
]  # fmt: skip
DISCRIMINANT = [
    "G4", "S3_paper", (2, 1, 2), (3, 3, 2), (5, 5, 2), (8, 8, 2), (3, 1, 2), (4, 1, 2),
    (1, 1, 3), (1, 1, 4), (2, 2, 3), (2, 1, 3), (3, 3, 3), (4, 4, 3), (2, 2, 4),
]  # fmt: skip
# the arrangements with at most 8 hyperplanes run twice as often as the
# larger ones, so that the mix has enough short jobs for a p90 tail
SMALL = 8


def _arrangement_props(g, **extra) -> dict:
    hyps = _group_facts(g)["hyperplanes"]
    bucket = "3-4" if hyps <= 4 else "5-8" if hyps <= 8 else "9-12"
    return {"hyperplanes": bucket, **extra}


def _supersolvable_job(ctx: Context, g, oracle: bool) -> Job:
    facts = _group_facts(g)
    want = True if isinstance(g, str) else O.monomial_supersolvable(*g)
    argv = ["arrangement", "supersolvable", *_group_argv(g)] + (["--oracle"] if oracle else [])

    def verify(p, problems):
        ctx.expect(problems, "hyperplanes", p["hyperplanes"], facts["hyperplanes"])
        ctx.expect(problems, "supersolvable", p["supersolvable"], want)
        ctx.expect(problems, "chain given iff supersolvable", p["modular_chain"] is not None, want)
        if oracle:
            ctx.expect(problems, "brute-force oracle agrees", p["oracle_agrees"], True)

    props = _arrangement_props(g, oracle="yes" if oracle else "no")
    return cli_job(ctx, "supersolvable", props, argv, verify)


def _cyc_json(order: int, k: int, sign: int) -> dict:
    return {"order": order, "coeffs": [[str(sign * c), "1"] for c in O.root_of_unity_coeffs(order, k)]}


def _lattice_job(ctx: Context, rng: random.Random, g) -> Job:
    d, e, n = g
    forms = O.monomial_arrangement_forms(d, e, n)
    rng.shuffle(forms)
    hyperplanes = []
    for sparse, _ in forms:
        # a random rational multiple of the form: the same hyperplane
        scale = rng.choice((1, 2, 3, -1, -2))
        row = [{"order": 1, "coeffs": [["0", "1"]]}] * n
        for coord, k, sign in sparse:
            row[coord] = _cyc_json(d, k, sign * scale)
        hyperplanes.append(row)
    data = {"dim": n, "hyperplanes": hyperplanes, "mult": [m for _, m in forms]}
    want = O.char_poly_from_exponents(O.monomial_exponents(d, e, n))
    rb = ctx.rb

    def call():
        return rb.arrangement.intersection_lattice(rb.arrangement.from_json(data))

    def check(lat, problems):
        flats = [(f.hyperplane_set, f.rank) for f in lat.flats]
        got = O.char_poly_from_flats(n, flats)
        ctx.expect(problems, "characteristic polynomial", got, want)
        ctx.expect(problems, "rank-1 flats", sum(1 for _, r in flats if r == 1), len(forms))
        return {"group": str(g), "char_poly": got, "flats": len(flats)}

    return Job("lattice", _arrangement_props(g), call, check)


def _discriminant_job(ctx: Context, g) -> Job:
    facts = _group_facts(g)

    def verify(p, problems):
        # Delta = prod alpha_H^(e_H), and sum e_H = reflections + hyperplanes
        ctx.expect(problems, "degree", p["degree"], facts["reflections"] + facts["hyperplanes"])
        ctx.expect(problems, "hyperplanes", len(p["arrangement"]["hyperplanes"]), facts["hyperplanes"])

    argv = ["arrangement", "discriminant", *_group_argv(g)]
    return cli_job(ctx, "discriminant", _arrangement_props(g), argv, verify)


def arrangements_round(ctx: Context, rng: random.Random) -> list[Job]:
    picked = set(map(str, rng.sample(ORACLE_POOL, ORACLE_PICKS)))
    jobs = [
        _supersolvable_job(ctx, g, g in ORACLE_ALWAYS or str(g) in picked) for g in SUPERSOLVABLE
    ]
    small = lambda g: _group_facts(g)["hyperplanes"] <= SMALL  # noqa: E731
    jobs += [_lattice_job(ctx, rng, g) for g in LATTICE + [g for g in LATTICE if small(g)]]
    jobs += [_discriminant_job(ctx, g) for g in DISCRIMINANT + [g for g in DISCRIMINANT if small(g)]]
    return jobs


def arrangements_warm(rb) -> None:
    for n in (1, 2, 3, 4, 5, 6, 8):
        z = rb.cyclo.root_of_unity(n, 1)
        ((z + 3) * (z + 2)).inverse()


# ---------------------------------------------------------------------------
# cosets

COXETER = [(3, 3), (3, 4), (3, 5), (4, 3)]
LARGE_COXETER = (5, 3)
TORSION = ["CP3,3", "CP3,4", "CP4,3", "CP4,4", "CP5,3", "CP6,3", "G12", "G13"]
MAPS = {
    "g12_conj": ("G12", "g12_braid_presentation", "g12_conjugation", ()),
    "g13_conj": ("G13", "g13_braid_presentation", "g13_conjugation", ()),
    "cp_conj_3_3": ("CP3,3", "corran_picantin_presentation", "cp_conjugation", (3, 3)),
    "cp_conj_4_4": ("CP4,4", "corran_picantin_presentation", "cp_conjugation", (4, 4)),
}
BIJECTIVE = [
    ("G12", "g12_braid_presentation", "g12_conjugation", ()),
    ("G13", "g13_braid_presentation", "g13_conjugation", ()),
    ("CP3,3", "corran_picantin_presentation", "cp_conjugation", (3, 3)),
    ("CP4,3", "corran_picantin_presentation", "cp_conjugation", (4, 3)),
    ("CP3,4", "corran_picantin_presentation", "cp_conjugation", (3, 4)),
    ("CP4,4", "corran_picantin_presentation", "cp_conjugation", (4, 4)),
]
ORDERS = ["G13", "CP4,3", "CP3,4"]
GT_LAMBDAS = (1, -1, 3, -3, 5)
GT_COMMUTATORS = ((1, 1), (2, 1), (1, -1), (1, 2), (-1, 1))


def _torsion_order(name: str) -> int:
    if name in O.TORSION_ORDERS:
        return O.TORSION_ORDERS[name]
    e, n = (int(x) for x in name[2:].split(","))
    return O.cp_quotient_order(e, n)


def _index_bucket(index: int) -> str:
    return "<100" if index < 100 else "<1000" if index < 1000 else "<10000" if index < 10000 else ">=10000"


def _coset_props(index: int, listing: bool) -> dict:
    return {"index": _index_bucket(index), "lists_group": "yes" if listing else "no"}


def _coxeter_job(ctx: Context, nk) -> Job:
    want = O.COXETER_QUOTIENT_ORDERS[nk]

    def verify(p, problems):
        ctx.expect(problems, "quotient order", p["order"], want)

    argv = ["present", "quotient", "--coxeter", f"{nk[0]},{nk[1]}"]
    return cli_job(ctx, "coxeter_quotient", _coset_props(want, False), argv, verify)


def _torsion_job(ctx: Context, name: str) -> Job:
    want = _torsion_order(name)

    def verify(p, problems):
        ctx.expect(problems, "quotient order", p["order"], want)

    argv = ["present", "quotient", "--catalog", name, "--torsion", "2"]
    return cli_job(ctx, "torsion_quotient", _coset_props(want, False), argv, verify)


def _verify_map_job(ctx: Context, name: str) -> Job:
    target = MAPS[name][0]

    def verify(p, problems):
        ctx.expect(problems, "consistent", p["consistent"], True)

    argv = ["present", "verify-map", "--map", name, "--backend", "torsion:2"]
    return cli_job(ctx, "verify_map", _coset_props(_torsion_order(target), False), argv, verify)


def _bijective_job(ctx: Context, spec) -> Job:
    name, pres_fn, hom_fn, args = spec
    rb = ctx.rb
    want_order = _torsion_order(name)

    def call():
        q = rb.fpgroups.torsion_quotient(getattr(rb.fpgroups, pres_fn)(*args), 2)
        hom = getattr(rb.fpgroups, hom_fn)(*args)
        return rb.fpgroups.hom_bijective_on(hom, q), q, hom

    def check(out, problems):
        bijective, q, hom = out
        ctx.expect(problems, "quotient order", q.degree, want_order)
        images = [O.perm_of_word(q.gen_perms, w) for w in hom.images.values()]
        ctx.expect(problems, "bijective (orbit oracle)", bijective, O.transitive(images, q.degree))
        ctx.expect(problems, "bijective", bijective, True)
        return {"map": hom.label, "bijective": bijective}

    return Job("hom_bijective", _coset_props(want_order, True), call, check)


def _order_job(ctx: Context, name: str) -> Job:
    rb = ctx.rb
    want = _torsion_order(name)
    if name in O.TORSION_ORDERS:
        pres = lambda: getattr(rb.fpgroups, f"{name.lower()}_braid_presentation")()  # noqa: E731
    else:
        e, n = (int(x) for x in name[2:].split(","))
        pres = lambda: rb.fpgroups.corran_picantin_presentation(e, n)  # noqa: E731

    def check(order, problems):
        ctx.expect(problems, "listed order", order, want)
        return {"quotient": name, "order": order}

    return Job("quotient_order", _coset_props(want, True), lambda: rb.fpgroups.torsion_quotient(pres(), 2).order(), check)


def _bn_subgroup_job(ctx: Context, n: int) -> Job:
    sub = ",".join(["s1^2"] + [f"s{i}" for i in range(2, n + 1)])

    def verify(p, problems):
        ctx.expect(problems, "index of the type-B subgroup", p["index"], n + 1)

    argv = ["present", "tc", "--catalog", f"Br{n + 1}", "--subgroup", sub]
    return cli_job(ctx, "bn_subgroup", _coset_props(n + 1, False), argv, verify)


def _random_f(rng: random.Random) -> list[tuple[str, int]]:
    """A product of 0-2 commutators [x^a, y^b], so f lies in [F2, F2]."""
    f = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(GT_COMMUTATORS)
        f += [("x", a), ("y", b), ("x", -a), ("y", -b)]
    return f


def _f_text(f) -> str:
    return "".join(f"[x^{f[i][1]},y^{f[i + 1][1]}]" for i in range(0, len(f), 4))


def _gt_act_job(ctx: Context, rng: random.Random) -> Job:
    lam = rng.choice(GT_LAMBDAS)
    f = _random_f(rng)
    want = O.gt_action_on_sl23(lam, f)
    argv = ["gt", "act", "--n", "3", "--lambda", str(lam), "--f", _f_text(f), "--backend", "coxeter:3,3"]

    def verify(p, problems):
        ctx.expect(problems, "well defined", p["well_defined"], want["well_defined"])
        ctx.expect(problems, "bijective", p["bijective"], want["bijective"])
        images = {g: O.eval_sl23(O.parse_word_text(w)) for g, w in p["images"].items()}
        ctx.expect(problems, "images in SL(2,3)", images, want["images"])

    code = 0 if want["well_defined"] else 1
    return cli_job(ctx, "gt_act", _coset_props(24, False), argv, verify, code)


def _stabilize_job(ctx: Context, rng: random.Random, n: int) -> Job:
    lam = rng.choice(GT_LAMBDAS)
    f = _random_f(rng)
    argv = ["gt", "stabilize", "--n", str(n), "--lambda", str(lam), "--f", _f_text(f)]

    def verify(p, problems):
        # every image is s_i^lam or s1^(2 lam) times pure braids (f of squares),
        # so its permutation fixes the first strand: all lie in the subgroup
        ctx.expect(problems, "index", p["index"], n + 1)
        ctx.expect(problems, "all images in the subgroup", p["all_in"], True)

    return cli_job(ctx, "stabilize", _coset_props(n + 1, False), argv, verify)


def _monodromy_job(ctx: Context) -> Job:
    rb = ctx.rb
    argv = ["monodromy", "profile", "--catalog", "G4_paper"]

    def call():
        out = ctx.cli(argv)
        return out, rb.monodromy.order_based_profile(rb.monodromy.braid_loop_images("G4_paper"))

    def check(result, problems):
        out, order_profile = result
        p = ctx.cli_payload(argv, out, problems)
        want = {k: sorted([ln, ct] for ln, ct in v.items()) for k, v in order_profile.points.items()}
        ctx.expect(problems, "orbit profile = order-based profile", p["points"], want)
        ctx.expect(problems, "degree", p["degree"], 24)
        ctx.expect(problems, "transitive", p["transitive"], True)
        return {"argv": argv, "stdout": digest_text(out[1])}

    return Job("monodromy", _coset_props(24, True), call, check)


def _nofar_job(ctx: Context, e: int) -> Job:
    rb = ctx.rb

    def call():
        pres = rb.fpgroups.corran_picantin_presentation(e, 4, include_far_commutations=False)
        try:
            return {"status": "closed", "order": rb.fpgroups.torsion_quotient(pres, 2, limit=30_000).degree}
        except rb.errors.BudgetExceededError:
            return {"status": "budget_exceeded"}

    def check(out, problems):
        ctx.expect(problems, "without far commutations", out, {"status": "budget_exceeded"})
        return out

    return Job("budget_exceeded", _coset_props(30_000, False), call, check)


def cosets_round(ctx: Context, rng: random.Random) -> list[Job]:
    # 50 jobs: the p90 tail of two rounds then falls among the four
    # budget-exceeded enumerations, not between jobs of unlike cost
    jobs = [_coxeter_job(ctx, nk) for nk in COXETER]
    jobs.append(_coxeter_job(ctx, LARGE_COXETER))
    jobs += [_torsion_job(ctx, name) for name in TORSION]
    jobs += [_verify_map_job(ctx, name) for name in MAPS]
    jobs += [_bijective_job(ctx, spec) for spec in BIJECTIVE]
    jobs += [_order_job(ctx, name) for name in ORDERS]
    jobs += [_bn_subgroup_job(ctx, n) for n in (2, 3, 4, 5)]
    jobs += [_gt_act_job(ctx, rng) for _ in range(9)]
    jobs += [_stabilize_job(ctx, rng, n) for n in (2, 3, 4, 5) * 2]
    jobs.append(_monodromy_job(ctx))
    jobs += [_nofar_job(ctx, e) for e in (3, 4)]
    return jobs


def cosets_warm(rb) -> None:
    # the monodromy job builds G4 over Q(zeta_3)
    z = rb.cyclo.root_of_unity(3, 1)
    ((z + 1) * (z + 2)).inverse()


# ---------------------------------------------------------------------------
# garside_nf

# (type, word length, sign mix)
PAIRS = [
    ("A3", 10, "mixed"), ("A3", 30, "pos"), ("A4", 20, "mixed"), ("A5", 40, "pos"),
    ("A6", 20, "mixed"), ("A8", 10, "mixed"), ("A8", 60, "pos"), ("B3", 10, "mixed"),
    ("B3", 60, "pos"), ("B4", 20, "mixed"), ("B5", 30, "pos"), ("B6", 10, "mixed"),
    ("B8", 20, "pos"), ("D4", 10, "mixed"), ("D4", 40, "mixed"), ("D5", 20, "pos"),
    ("D6", 40, "mixed"), ("D6", 60, "pos"), ("D7", 10, "mixed"), ("D8", 20, "pos"),
    ("I2(5)", 30, "mixed"), ("I2(6)", 60, "mixed"), ("I2(8)", 40, "pos"), ("I2(12)", 60, "mixed"),
]  # fmt: skip
NF = [("A4", 30, "mixed"), ("B5", 20, "mixed"), ("D5", 30, "mixed"), ("D7", 20, "pos"), ("I2(7)", 40, "mixed"), ("A7", 20, "pos")]
UNEQUAL = [("A5", 20, "mixed"), ("B4", 20, "mixed"), ("D6", 20, "mixed"), ("I2(9)", 30, "mixed")]
DELTA = ["A3", "B4", "D5", "I2(7)"]
MATSUMOTO = [(1, ""), (3, "[x,y]")]
FAR = [("A6", 10), ("B5", 10), ("D6", 10)]


def _split_type(t: str) -> tuple[str, int]:
    if t.startswith("I2"):
        return "I2", int(t[3:-1])
    return t[0], int(t[1:])


def _garside_props(t: str, length: int, sign: str) -> dict:
    family, rank = _split_type(t)
    rank_bucket = "2" if family == "I2" else "3-4" if rank <= 4 else "5-6" if rank <= 6 else "7-8"
    length_bucket = "<=20" if length <= 20 else "21-40" if length <= 40 else ">40"
    return {"family": family, "rank": rank_bucket, "length": length_bucket, "signs": sign}


def _random_word(rng: random.Random, t: str, length: int, sign: str) -> list[tuple[str, int]]:
    gens = O.coxeter_generators(*_split_type(t))
    return [(rng.choice(gens), 1 if sign == "pos" else rng.choice((1, -1))) for _ in range(length)]


def _with_relator(rng: random.Random, t: str, word) -> list[tuple[str, int]]:
    family, rank = _split_type(t)
    rel = rng.choice(O.artin_relators(family, rank))
    g = rng.choice(O.coxeter_generators(family, rank))
    pos = rng.randrange(len(word) + 1)
    return word[:pos] + rel + [(g, 1), (g, -1)] + word[pos:]


def _pair_job(ctx: Context, rng: random.Random, t: str, length: int, sign: str) -> Job:
    u = _random_word(rng, t, length, sign)
    v = _with_relator(rng, t, u)

    def verify(p, problems):
        ctx.expect(problems, "relator-inserted copy is equal", p["equal"], True)

    argv = ["garside", "equal", "--type", t, "--u", O.word_text(u), "--v", O.word_text(v)]
    return cli_job(ctx, "nf_pair", _garside_props(t, length, sign), argv, verify)


def _unequal_job(ctx: Context, rng: random.Random, t: str, length: int, sign: str) -> Job:
    u = _random_word(rng, t, length, sign)
    v = u + [(rng.choice(O.coxeter_generators(*_split_type(t))), 1)]

    def verify(p, problems):
        # the exponent sums differ by one, so the elements differ
        ctx.expect(problems, "one extra letter is unequal", p["equal"], False)

    argv = ["garside", "equal", "--type", t, "--u", O.word_text(u), "--v", O.word_text(v)]
    return cli_job(ctx, "nf_unequal", _garside_props(t, length, sign), argv, verify, code=1)


def _nf_job(ctx: Context, rng: random.Random, t: str, length: int, sign: str) -> Job:
    w = _random_word(rng, t, length, sign)
    dlen = O.delta_length(*_split_type(t))

    def verify(p, problems):
        factors = p["factors"]
        lengths = sum(len(f) for f in factors)
        # the exponent sum is a homomorphism to Z: Delta has length dlen
        ctx.expect(problems, "exponent sum", p["delta_power"] * dlen + lengths, O.exponent_sum(w))
        ctx.expect(problems, "factors are proper simples", all(0 < len(f) < dlen for f in factors), True)

    argv = ["garside", "nf", "--type", t, "--word", O.word_text(w)]
    return cli_job(ctx, "nf", _garside_props(t, length, sign), argv, verify)


def _delta_job(ctx: Context, t: str) -> Job:
    dlen = O.delta_length(*_split_type(t))

    def verify(p, problems):
        ctx.expect(problems, "Delta length", p["length"], dlen)
        ctx.expect(problems, "Delta^2 central", p["delta_squared_central"], True)

    return cli_job(ctx, "delta", _garside_props(t, dlen, "pos"), ["garside", "delta", "--type", t], verify)


def _w(r: int) -> tuple:
    return tuple([("s1", 1), ("s1p", 1)] + [(f"s{i}", 1) for i in range(2, r + 1)])


def _eta(r: int) -> tuple:
    return tuple(
        [(f"s{i}", 1) for i in range(r - 1, 1, -1)] + [("s1", 1), ("s1p", 1)] + [(f"s{i}", 1) for i in range(2, r)]
    )


def _inv(w) -> tuple:
    return tuple((s, -e) for s, e in reversed(w))


def _lemma_jobs(ctx: Context, rng: random.Random) -> list[Job]:
    """Criterion-5 instances in type D, each true by a lemma of the paper."""
    rb = ctx.rb
    cases = []
    for r in (3, 4, 5):
        # w_(r+1) s_(r-1) = s_r w_(r+1) in D_(r+2)
        cases.append((f"D{r + 2}", "equal", _w(r + 1) + ((f"s{r - 1}", 1),), ((f"s{r}", 1),) + _w(r + 1)))
    for r in (3, 4):
        eta = _eta(r)
        for _ in range(2):
            x = rng.choice(((("s1", 1),), (("s1p", 1),), (("s1", 1), ("s1p", 1))))
            m = rng.choice((-2, -1, 1, 2))
            em = eta * m if m > 0 else _inv(eta) * -m
            comm = em + x + _inv(em) + _inv(x)
            for s in ("s1", "s1p"):
                cases.append((f"D{r}", "commutes", comm, ((s, 1),)))
    for r in (3, 4):
        # f(eta_r, s_r^2) centralizes s1 and s1p in D_(r+1)
        eta, sr2 = _eta(r), ((f"s{r}", 2),)
        img = eta + sr2 + _inv(eta) + _inv(sr2)
        for s in ("s1", "s1p"):
            cases.append((f"D{r + 1}", "commutes", img, ((s, 1),)))
    jobs = []
    for t, op, u, v in cases:
        ctx_t = rb.garside.context(rb.garside.parse_type(t))
        fn = getattr(ctx_t, op)

        def check(out, problems, op=op):
            ctx.expect(problems, f"lemma ({op})", out, True)
            return out

        length = sum(abs(e) for _, e in u + v)
        props = _garside_props(t, length, "pos" if op == "equal" else "mixed")
        jobs.append(Job(f"lemma_{op}", props, lambda fn=fn, u=u, v=v: fn(u, v), check))
    return jobs


def _matsumoto_job(ctx: Context, lam: int, f: str) -> Job:
    rb = ctx.rb

    def check(report, problems):
        ctx.expect(problems, "Matsumoto D5 commutations", report["all_hold"], True)
        return [[name, ok] for name, ok in report["checks"]]

    call = lambda: rb.gtaction.matsumoto_commutation_report(5, rb.gtaction.parse_pair(lam, f))  # noqa: E731
    return Job("matsumoto", _garside_props("D5", 60, "mixed"), call, check)


def _far_job(ctx: Context, rng: random.Random, t: str, length: int) -> Job:
    """u over generators that commute with every generator of v."""
    family, rank = _split_type(t)
    gens = O.coxeter_generators(family, rank)
    left = gens[:2]
    right = [g for g in gens if all(O.coxeter_m(family, rank, g, h) == 2 for h in left)]
    u = tuple((rng.choice(left), rng.choice((1, -1))) for _ in range(length))
    v = tuple((rng.choice(right), rng.choice((1, -1))) for _ in range(length))
    ctx_t = ctx.rb.garside.context(ctx.rb.garside.parse_type(t))

    def check(out, problems):
        ctx.expect(problems, "far-apart words commute", out, True)
        return out

    return Job("commutes", _garside_props(t, 2 * length, "mixed"), lambda: ctx_t.commutes(u, v), check)


def garside_nf_round(ctx: Context, rng: random.Random) -> list[Job]:
    jobs = [_pair_job(ctx, rng, *spec) for spec in PAIRS * 2]
    jobs += [_unequal_job(ctx, rng, *spec) for spec in UNEQUAL * 2]
    jobs += [_nf_job(ctx, rng, *spec) for spec in NF * 2]
    jobs += [_delta_job(ctx, t) for t in DELTA]
    jobs += _lemma_jobs(ctx, rng)
    jobs += [_matsumoto_job(ctx, lam, f) for lam, f in MATSUMOTO]
    jobs += [_far_job(ctx, rng, t, length) for t, length in FAR * 2]
    return jobs


def garside_nf_warm(rb) -> None:
    types = {t for t, _, _ in PAIRS + NF + UNEQUAL} | set(DELTA) | {f"D{r}" for r in range(3, 8)}
    types |= {t for t, _ in FAR}
    for t in sorted(types):
        rb.garside.context(rb.garside.parse_type(t))


ROUNDS = {
    "cyclo_groups": (cyclo_groups_round, cyclo_groups_warm),
    "arrangements": (arrangements_round, arrangements_warm),
    "cosets": (cosets_round, cosets_warm),
    "garside_nf": (garside_nf_round, garside_nf_warm),
}


WORKLOADS = tuple(ROUNDS)


def make_round(ctx: Context, workload: str, seed: int, index: int) -> list[Job]:
    """Round `index` of a workload: the same jobs and inputs for the same seed."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = ROUNDS[workload][0](ctx, rng)
    rng.shuffle(jobs)
    return jobs
