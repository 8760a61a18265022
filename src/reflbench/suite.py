"""The verification suite: one callable per acceptance criterion.

Each criterion function returns a `CriterionResult`: `details` maps
sub-check names to booleans (and a few recorded values), and `defects` lists
notes on sub-checks that are *expected* to fail because the source value they
encode is provably inconsistent (documented upstream defects: the claimed
genus of the degree-24 cover contradicts its own ramification profile under
Riemann-Hurwitz).  A criterion passes iff none of its sub-checks is False, so
one with only defect failures has passed=False and its failures fully
annotated; nothing is silently weakened.  `run_suite` turns the results into
report dicts with keys id, title, passed, details, defects.

Every sub-check is exact: none has a tolerance.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import arrangement as arr_mod
from . import cyclo, fpgroups, garside, gtaction, invariants, matgroup, monodromy
from .errors import BudgetExceededError
from .fpgroups import (
    braid_presentation,
    coxeter_quotient,
    parse_word,
    single,
    todd_coxeter,
    torsion_quotient,
    verify_hom,
    word_mul,
    word_pow,
)
from .garside import CoxeterType, context, eta_word, w_word
from .gtaction import parse_pair
from .mpoly import MPoly, jacobian, poly_square_root, proportional, squarefree_linear_factor_check


@dataclass(frozen=True)
class CriterionResult:
    """What one criterion found: named sub-check values, and the notes that
    explain the sub-checks expected to fail (documented source defects)."""

    details: dict
    defects: list[str] = field(default_factory=list)

    @property
    def failing(self) -> list[str]:
        """The sub-checks that came out False."""
        return [k for k, v in self.details.items() if v is False]

    @property
    def passed(self) -> bool:
        return not self.failing


def _check(details: dict, key: str, value: bool) -> bool:
    details[key] = bool(value)
    return bool(value)


def criterion_1_g4_end_to_end():
    details: dict = {}
    g4 = matgroup.build_catalog_group("G4")
    _check(details, "order_24", g4.order() == 24)
    hyps = matgroup.hyperplanes(g4)
    _check(details, "8_reflections", matgroup.reflections(g4) == 8)
    _check(details, "4_hyperplanes", len(hyps) == 4)
    _check(details, "eH_3", all(e == 3 for _, e in hyps))
    g1, g2 = invariants.catalog_invariant_pair("G4")
    _check(details, "g1_invariant", invariants.is_invariant(g4, g1))
    _check(details, "g2_invariant", invariants.is_invariant(g4, g2))
    delta = arr_mod.discriminant_poly(arr_mod.arrangement_of(g4))
    prop, scalar = proportional(delta, g1**3 - g2**2)
    _check(details, "delta_prop_g1cubed_minus_g2squared", prop)
    details["delta_scalar"] = repr(scalar)
    _check(details, "molien_4_6", invariants.molien_degrees(g4) == [4, 6])
    return CriterionResult(details)


def criterion_2_s3():
    details: dict = {}
    s3 = matgroup.build_catalog_group("S3_paper")
    f1, f2 = invariants.catalog_invariant_pair("S3_paper")
    _check(details, "f1_invariant", invariants.is_invariant(s3, f1))
    _check(details, "f2_invariant", invariants.is_invariant(s3, f2))
    delta = arr_mod.discriminant_poly(arr_mod.arrangement_of(s3))
    prop, _ = proportional(delta, f1**3 - f2**2)
    _check(details, "delta_prop_f1cubed_minus_f2squared", prop)
    _check(details, "molien_2_3", invariants.molien_degrees(s3) == [2, 3])
    return CriterionResult(details)


def criterion_3_g12_model_free():
    details: dict = {}
    alpha, beta = invariants.catalog_invariant_pair("G12")
    diff = beta**3 - (alpha**4).scale(27)
    root = poly_square_root(diff)
    _check(details, "square_root_exists", root is not None)
    if root is not None:
        _check(details, "square_root_degree_12", root.total_degree() == 12)
        _check(details, "squarefree_12_distinct_roots", squarefree_linear_factor_check(root))
        jac = jacobian([alpha, beta])
        prop, scalar = proportional(jac, root)
        _check(details, "jacobian_proportional_to_root", prop)
        details["jacobian_scalar"] = repr(scalar)
    return CriterionResult(details)


def criterion_4_monodromy():
    details: dict = {}
    defects: list[str] = []
    spec = monodromy.braid_loop_images("G4_paper")
    prof = monodromy.monodromy_profile(spec)
    _check(details, "degree_24", prof.degree == 24)
    _check(details, "profile_0_8x3", prof.points["0"] == {3: 8})
    _check(details, "profile_1_8x3", prof.points["1"] == {3: 8})
    _check(details, "profile_inf_4x6", prof.points["inf"] == {6: 4})
    order_prof = monodromy.order_based_profile(spec)
    _check(details, "orbit_and_order_computations_agree", prof.points == order_prof.points)
    genus = monodromy.riemann_hurwitz_genus(prof)
    details["computed_genus"] = genus
    stated = _check(details, "genus_equals_4_as_stated", genus == 4)
    if not stated:
        defects.append(
            "the claimed genus 4 contradicts the claimed profile {8x3, 8x3, 4x6}: "
            "2 - 2g = 2*24 - (16+16+20) = -4 forces g = 3 (equivalently "
            "chi = 24*chi(P^1 minus 3 points) + 20 cusps = -4); the source's "
            "Riemann-Hurwitz arithmetic is off by one"
        )
        details["genus_equals_3_faithful_formula"] = genus == 3
    return CriterionResult(details, defects)


def criterion_5_garside_lemmas():
    details: dict = {}
    t = True
    for r in range(3, 8):
        ctx = context(CoxeterType("D", r + 2))
        t &= ctx.equal(
            word_mul(w_word(r + 1), single(f"s{r-1}")),
            word_mul(single(f"s{r}"), w_word(r + 1)),
        )
    _check(details, "w_shift_lemma_r_3_to_7", t)
    t = True
    for r in range(4, 8):
        ctx = context(CoxeterType("D", r + 2))
        for i in range(3, r):
            lhs = word_mul(w_word(r + 1), *[single(f"s{j}") for j in range(r - 1, i - 1, -1)])
            rhs = word_mul(*[single(f"s{j}") for j in range(r, i, -1)], w_word(r + 1))
            t &= ctx.equal(lhs, rhs)
    _check(details, "w_shift_chain_lemma", t)
    t = True
    for r in range(2, 8):
        big = context(CoxeterType("D", r + 1))
        small = context(CoxeterType("D", r))
        t &= big.equal(word_mul(small.delta_word(), eta_word(r + 1)), big.delta_word())
    _check(details, "delta_eta_recursion_r_2_to_7", t)
    t = True
    for r in range(2, 7):
        ctx = context(CoxeterType("D", r))
        t &= ctx.is_central(word_pow(ctx.delta_word(), 2))
    _check(details, "delta_squared_central_r_le_6", t)
    # commutator-centralizer checks
    t = True
    for r in (3, 4):
        ctx = context(CoxeterType("D", r))
        eta = eta_word(r)
        for xw in (single("s1"), single("s1p"), word_mul(single("s1"), single("s1p"))):
            for m in range(-2, 3):
                em = word_pow(eta, m)
                comm = word_mul(em, xw, fpgroups.word_inverse(em), fpgroups.word_inverse(xw))
                t &= ctx.commutes(comm, single("s1")) and ctx.commutes(comm, single("s1p"))
    _check(details, "eta_commutator_centralizes", t)
    t = True
    fwords = ["[x,y]", "[x,y]^2", "[x^2,y]"]
    for r in (3, 4, 5):
        ctx = context(CoxeterType("D", r + 1))
        eta = eta_word(r)
        sr2 = word_pow(single(f"s{r}"), 2)
        for ftext in fwords:
            f = parse_word(ftext, ("x", "y"))
            img = fpgroups.substitute(f, {"x": eta, "y": sr2})
            t &= ctx.commutes(img, single("s1")) and ctx.commutes(img, single("s1p"))
    _check(details, "f_eta_s2_centralizes", t)
    # recorded verdict for the power relation between Delta_r and w_(r-1)
    powers = {}
    for r in range(3, 8):
        ctx = context(CoxeterType("D", r))
        target = ctx.normal_form(ctx.delta_word())
        powers[f"D{r}"] = next(
            (k for k in range(1, 2 * r + 1) if ctx.normal_form(word_pow(w_word(r - 1), k)) == target),
            None,
        )
    details["delta_as_power_of_w"] = powers
    _check(details, "delta_power_recorded", all(v is not None for v in powers.values()))
    return CriterionResult(details)


def criterion_6_presentation_maps():
    details: dict = {}
    q12 = torsion_quotient(fpgroups.g12_braid_presentation(), 2)
    _check(details, "g12_quotient_order_48", q12.degree == 48)
    v = verify_hom(fpgroups.g12_conjugation(), q12)
    _check(details, "g12_conjugation_consistent", v.consistent)
    _check(
        details, "g12_conjugation_bijective", fpgroups.hom_bijective_on(fpgroups.g12_conjugation(), q12)
    )
    for e in (3, 4):
        for n in (3, 4):
            expected = e ** (n - 1) * math.factorial(n)
            q = torsion_quotient(fpgroups.corran_picantin_presentation(e, n), 2)
            _check(details, f"cp_{e}_{n}_order_{expected}", q.degree == expected)
            hom = fpgroups.cp_conjugation(e, n)
            v = verify_hom(hom, q)
            _check(details, f"cp_{e}_{n}_conjugation_consistent", v.consistent)
            _check(details, f"cp_{e}_{n}_bijective", fpgroups.hom_bijective_on(hom, q))
    # the flagged variant without the far commutations, n = 4: verdict recorded
    for e in (3, 4):
        try:
            qn = torsion_quotient(
                fpgroups.corran_picantin_presentation(e, 4, include_far_commutations=False),
                2,
                limit=30_000,
            )
            details[f"cp_{e}_4_without_far_commutations"] = f"order {qn.degree}"
        except BudgetExceededError:
            details[f"cp_{e}_4_without_far_commutations"] = (
                "budget_exceeded at 30000 cosets (quotient does not close without them)"
            )
    q13 = torsion_quotient(fpgroups.g13_braid_presentation(), 2)
    _check(details, "g13_quotient_order_96", q13.degree == 96)
    v13 = verify_hom(fpgroups.g13_conjugation(), q13)
    _check(details, "g13_conjugation_consistent", v13.consistent)
    iso = fpgroups.i26_to_g13_iso()
    _check(details, "i26_iso_consistent", verify_hom(iso, q13).consistent)
    # outer-class identity, exact on the dihedral Garside backend
    ctx = context(CoxeterType("I2", 6))
    trans = fpgroups.i26_transported_conjugation()
    mirror_ad = fpgroups.i26_mirror_conjugated_by_bab()
    exact_same = all(
        ctx.equal(trans.images[g], mirror_ad.images[g]) for g in ("a", "b")
    )
    _check(details, "transported_equals_Ad_bab_mirror_exactly", exact_same)
    _check(details, "transported_conjugation_is_hom_exact", verify_hom(trans, ctx).consistent)
    conj13 = fpgroups.g13_conjugation()
    agree = all(
        q13.eval_word(iso.apply(trans.images[g])) == q13.eval_word(conj13.apply(iso.images[g]))
        for g in ("a", "b")
    )
    _check(details, "transport_diagram_commutes_on_96", agree)
    return CriterionResult(details)


def criterion_7_coxeter_quotients():
    details: dict = {}
    for n, k, order in ((3, 3, 24), (3, 4, 96), (4, 3, 648)):
        got = coxeter_quotient(n, k).degree
        _check(details, f"br{n}_s{k}_order_{order}", got == order)
    for name, pres, order in (
        ("g12", fpgroups.g12_braid_presentation(), 48),
        ("g13", fpgroups.g13_braid_presentation(), 96),
    ):
        got = torsion_quotient(pres, 2).degree
        _check(details, f"{name}_torsion_{order}", got == order)
    return CriterionResult(details)


def criterion_8_artin_b_embedding():
    details: dict = {}
    for n in range(2, 5):
        emb = fpgroups.artin_b_embedding(n)
        table = todd_coxeter(emb.target, list(emb.images.values()))
        _check(details, f"index_in_br{n+1}_is_{n+1}", table.index() == n + 1)
    pairs = [parse_pair(1, ""), parse_pair(-1, ""), parse_pair(3, "[x,y]"), parse_pair(-1, "[x^2,y]")]
    t = True
    for n in range(2, 5):
        for pair in pairs:
            out = gtaction.stabilizes_bn_subgroup(n, pair)
            t &= out["all_in"]
    _check(details, "drinfeld_images_stay_in_subgroup", t)
    return CriterionResult(details)


def criterion_9_gt_formulas():
    details: dict = {}
    pair = parse_pair(3, "[x,y]")
    images = gtaction.drinfeld_images(3, pair)
    # frozen hand expansion of f(s2^2, s1^2) s2^3 f(s1^2, s2^2) for f = [x,y]
    expected_s2 = (
        ("s2", 2), ("s1", 2), ("s2", -2), ("s1", -2),
        ("s2", 3),
        ("s1", 2), ("s2", 2), ("s1", -2), ("s2", -2),
    )
    _check(details, "br3_formula_textual_match", images["s2"] == expected_s2)
    _check(details, "y2_equals_s1_squared", gtaction.y_word(2) == (("s1", 2),))
    ident = parse_pair(1, "")
    q = coxeter_quotient(3, 3)
    rep = gtaction.act_on_quotient(q, ident)
    _check(
        details,
        "identity_pair_acts_as_identity",
        rep.well_defined and all(w == single(g) for g, w in rep.images.items()),
    )
    repneg = gtaction.act_on_quotient(q, parse_pair(-1, ""))
    details["minus_one_verdicts"] = {
        "well_defined": repneg.well_defined,
        "bijective": repneg.bijective,
    }
    _check(details, "minus_one_pair_computed_over_24", repneg.well_defined is not None)
    t = True
    for p in (parse_pair(1, ""), parse_pair(3, "[x,y]"), parse_pair(-1, "[x^2,y]")):
        t &= gtaction.matsumoto_commutation_report(5, p)["all_hold"]
    _check(details, "matsumoto_d5_commutations_exact", t)
    omega4 = parse_word("(s1 s2 s3)^4", braid_presentation(4).generators)
    _check(details, "omega4_exponent_sum_12", fpgroups.exponent_sum(omega4) == 12)

    def omega4_image_sum(images) -> int:
        return fpgroups.exponent_sum(fpgroups.substitute(omega4, images))

    # on the abelianization Z of Br_4 an f in [F2, F2] adds nothing, so the
    # image of omega_4 has exponent sum 12 lambda
    _check(
        details,
        "omega4_image_exponent_sum_12_lambda",
        all(
            omega4_image_sum(gtaction.drinfeld_images(4, parse_pair(lam, ftext))) == 12 * lam
            for lam, ftext in ((1, ""), (3, "[x,y]"), (-5, "[x^2,y]"), (7, "[x,y]^2"))
        ),
    )
    # f = x is outside [F2, F2]: s2 and s3 gain 4 and 6, the sum 12 + 40
    _check(
        details,
        "omega4_image_sum_differs_for_f_outside_commutator",
        omega4_image_sum(gtaction.drinfeld_formula(4, 1, single("x"))) != 12,
    )
    return CriterionResult(details)


def criterion_10_arrangements():
    details: dict = {}
    g4 = matgroup.build_catalog_group("G4")
    s3 = matgroup.build_catalog_group("S3_paper")
    t = True
    for g in (g4, s3, matgroup.build_monomial_group(2, 1, 2)):
        verdict, _ = arr_mod.is_supersolvable(arr_mod.arrangement_of(g))
        t &= verdict
    _check(details, "rank_2_always_supersolvable", t)
    b3 = arr_mod.arrangement_of(matgroup.build_monomial_group(2, 1, 3))
    verdict, chain = arr_mod.is_supersolvable(b3)
    _check(details, "g213_supersolvable", verdict and chain is not None)
    details["g213_modular_chain"] = chain
    d4 = arr_mod.arrangement_of(matgroup.build_monomial_group(2, 2, 4))
    verdict_main, _ = arr_mod.is_supersolvable(d4)
    verdict_oracle, _ = arr_mod.is_supersolvable_bruteforce(d4)
    _check(details, "g224_not_supersolvable", verdict_main is False)
    _check(details, "g224_oracle_agrees", verdict_oracle is False)
    verdict_oracle_b3, _ = arr_mod.is_supersolvable_bruteforce(b3)
    _check(details, "g213_oracle_agrees", verdict_oracle_b3 is True)
    return CriterionResult(details)


def criterion_11_field_of_definition():
    details: dict = {}
    defects: list[str] = []
    t = True
    for n in range(2, 6):
        fod = matgroup.field_of_definition(matgroup.build_monomial_group(1, 1, n))
        t &= fod.conductor == 1
    _check(details, "g11n_conductor_1", t)
    fod4 = matgroup.field_of_definition(matgroup.build_catalog_group("G4"))
    _check(
        details, "g4_conductor_3_trivial_fixing", fod4.conductor == 3 and fod4.fixing_subgroup == (1,)
    )
    # the criterion names G(4,4,2), but that group is the rank-2 Weyl group
    # (dihedral of order 8) whose trace field is Q; the stated output
    # (conductor 8, fixing subgroup {1,-1}, i.e. Q(sqrt(2))) is the dihedral
    # group of order 16 = G(8,8,2).  Both facts are asserted.
    fod88 = matgroup.field_of_definition(matgroup.build_monomial_group(8, 8, 2))
    _check(
        details,
        "g882_conductor_8_fixing_pm1",
        fod88.conductor == 8 and fod88.fixing_subgroup == (1, 7),
    )
    fod44 = matgroup.field_of_definition(matgroup.build_monomial_group(4, 4, 2))
    _check(details, "g442_is_weyl_conductor_1", fod44.conductor == 1)
    details["note"] = (
        "criterion text says G(4,4,2), but that group is the B2 Weyl group with "
        "trace field Q; the stated conductor-8/{+-1} answer holds for G(8,8,2)"
    )
    return CriterionResult(details)


def criterion_12_property_suites(seed: int = 20240901):
    details: dict = {}
    rng = random.Random(seed)

    def rand_cyc():
        order = rng.choice([1, 3, 4, 5, 8, 12])
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cyclo.euler_phi(order))]
        return cyclo.CycNum(order, coeffs)

    t = True
    for _ in range(1000):
        a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
        t &= (a + b) + c == a + (b + c)
        t &= a * (b + c) == a * b + a * c
        t &= (a * b) * c == a * (b * c)
        if b:
            t &= (a / b) * b == a
    _check(details, "cycnum_field_axioms_1000_triples", t)

    t = True
    for name in ("G4", "S3_paper"):
        g = matgroup.build_catalog_group(name)
        for _ in range(100):
            p = MPoly(
                2,
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
                    for _ in range(3)
                },
            )
            r = invariants.reynolds(g, p)
            t &= invariants.reynolds(g, r) == r
    _check(details, "reynolds_idempotent_100_polys_per_group", t)

    t = True
    type_pres = {
        "A3": braid_presentation(4),
        "B3": fpgroups.artin_b_presentation(3),
        "D4": fpgroups.artin_d_presentation(4),
        "I2(6)": fpgroups.artin_i2_presentation(6),
    }
    for tname, pres in type_pres.items():
        ctx = context(garside.parse_type(tname))
        for _ in range(500):
            w = tuple((rng.choice(ctx.gen_list), rng.choice([1, -1])) for _ in range(10))
            rel = rng.choice(pres.relators)
            pos = rng.randrange(len(w) + 1)
            g = rng.choice(ctx.gen_list)
            w2 = fpgroups.free_reduce(w[:pos] + rel + ((g, 1), (g, -1)) + w[pos:])
            t &= ctx.normal_form(w) == ctx.normal_form(w2)
    _check(details, "nf_canonicity_500_pairs_per_type", t)

    t = True
    for g in (
        matgroup.build_catalog_group("G4"),
        matgroup.build_catalog_group("S3_paper"),
        matgroup.build_monomial_group(2, 1, 2),
        matgroup.build_monomial_group(3, 3, 2),
        matgroup.build_monomial_group(2, 2, 3),
    ):
        degs = invariants.molien_degrees(g)
        t &= sum(d - 1 for d in degs) == matgroup.reflections(g)
        prod = 1
        for d in degs:
            prod *= d
        t &= prod == g.order()
    _check(details, "molien_consistency_identities", t)
    return CriterionResult(details)


CRITERIA = [
    (1, "catalogued 24-element rank-2 group end to end", criterion_1_g4_end_to_end),
    (2, "catalogued symmetric-group model invariants", criterion_2_s3),
    (3, "order-48 rank-2 group, model-free discriminant", criterion_3_g12_model_free),
    (4, "degree-24 cover monodromy profile and genus", criterion_4_monodromy),
    (5, "type-D Garside lemmas, exact normal forms", criterion_5_garside_lemmas),
    (6, "presentation maps on finite and exact backends", criterion_6_presentation_maps),
    (7, "finite braid-group quotient orders", criterion_7_coxeter_quotients),
    (8, "type-B subgroup embedding and stabilization", criterion_8_artin_b_embedding),
    (9, "Drinfeld/Matsumoto formulas and abelianization", criterion_9_gt_formulas),
    (10, "supersolvability verdicts with oracle", criterion_10_arrangements),
    (11, "fields of definition", criterion_11_field_of_definition),
    (12, "randomized property suites", criterion_12_property_suites),
]


def run_suite(ids=None, seed: int = 20240901):
    """Run the acceptance criteria; returns (all_passed, list of reports).

    The reports hold no timings, so they are deterministic; the wall time of
    each criterion goes to stderr, one line per criterion.
    """
    reports = []
    for cid, title, fn in CRITERIA:
        if ids and cid not in ids:
            continue
        start = time.perf_counter()
        result = fn(seed) if fn is criterion_12_property_suites else fn()
        print(f"criterion {cid}: {time.perf_counter() - start:.2f}s", file=sys.stderr)
        reports.append(
            {
                "id": cid,
                "title": title,
                "passed": result.passed,
                "details": result.details,
                "defects": result.defects,
            }
        )
    strict_ok = all(r["passed"] for r in reports)
    return strict_ok, reports
