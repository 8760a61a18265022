import random

import pytest

from reflbench.errors import InputError
from reflbench.fpgroups import (
    CosetTable,
    alternating_word,
    artin_b_presentation,
    artin_i2_presentation,
    braid_presentation,
    coxeter_quotient,
    parse_word,
    schreier_data,
    schreier_rewrite,
    single,
    substitute,
    torsion_quotient,
    word_inverse,
    word_mul,
    word_pow,
    word_str,
)
from reflbench.garside import CoxeterType, context, parse_type
from reflbench.gtaction import (
    GTPair,
    act_on_quotient,
    check_gd_pair,
    drinfeld_images,
    matsumoto_commutation_report,
    matsumoto_d_images,
    parse_pair,
    stabilizes_bn_subgroup,
    y_word,
)
from reflbench.orbit import orbit


def test_pair_validation():
    with pytest.raises(InputError):
        parse_pair(1, "x")  # nonzero exponent sum
    p = parse_pair(3, "[x,y]")
    assert p.lam == 3
    assert parse_pair(2, "").lambda_parity_note is not None
    assert parse_pair(3, "").lambda_parity_note is None


def test_y_convention():
    assert y_word(2) == word_pow(single("s1"), 2)
    assert y_word(3) == parse_word("s2 s1 s1 s2", ("s1", "s2"))


def test_drinfeld_images_match_printed_br3_formula():
    # frozen n=3 instance: s2 -> f(s2^2, s1^2) s2^lam f(s1^2, s2^2), f = [x,y]
    images = drinfeld_images(3, parse_pair(5, "[x,y]"))
    assert images["s1"] == word_pow(single("s1"), 5)
    assert images["s2"] == (
        ("s2", 2), ("s1", 2), ("s2", -2), ("s1", -2),
        ("s2", 5),
        ("s1", 2), ("s2", 2), ("s1", -2), ("s2", -2),
    )


def test_trivial_pairs():
    assert drinfeld_images(4, parse_pair(1, "")) == {
        "s1": single("s1"),
        "s2": single("s2"),
        "s3": single("s3"),
    }
    neg = drinfeld_images(4, parse_pair(-1, ""))
    assert all(w == word_pow(single(g), -1) for g, w in neg.items())


def test_act_on_quotient():
    q = coxeter_quotient(3, 3)  # order 24
    assert q.order() == 24
    rep = act_on_quotient(q, parse_pair(1, ""))
    assert rep.well_defined and rep.bijective
    repneg = act_on_quotient(q, parse_pair(-1, ""))
    assert repneg.well_defined and repneg.bijective is True
    rep3 = act_on_quotient(q, parse_pair(3, "[x,y]"))
    # verdicts are data: lambda = 3 kills the generators in Br3/s^3
    assert rep3.well_defined is True and rep3.bijective is False


def test_lambda_only_pairs_act_as_power_map():
    q = coxeter_quotient(3, 4)
    for lam in (1, -1, 5):
        rep = act_on_quotient(q, parse_pair(lam, ""))
        assert all(w == word_pow(single(g), lam) for g, w in rep.images.items())


def test_stabilizes_bn_subgroup():
    for n in (2, 3, 4):
        for pair in (parse_pair(1, ""), parse_pair(-1, ""), parse_pair(3, "[x,y]"), parse_pair(-1, "[x^2,y]")):
            out = stabilizes_bn_subgroup(n, pair)
            assert out["index"] == n + 1
            assert out["all_in"], (n, pair)


def test_matsumoto_identity_pair():
    rep = matsumoto_commutation_report(4, parse_pair(1, ""))
    assert rep["all_hold"]
    images = matsumoto_d_images(4, parse_pair(1, ""))
    assert images["s1"] == single("s1") and images["s2"] == single("s2")


def test_matsumoto_sample_pairs_exact():
    for pair in (parse_pair(3, "[x,y]"), parse_pair(-1, "[x^2,y]")):
        rep = matsumoto_commutation_report(5, pair)
        assert rep["all_hold"], pair


def test_gd_identity_pair():
    rep = check_gd_pair(6, 1, ())
    assert rep["all_exact_conditions"] and rep["cond1_bijective_on_W"]


def test_gd_minus_one():
    rep = check_gd_pair(6, -1, ())
    assert rep["cond3_delta_image"] is True
    assert rep["cond4_delta2_image"] is True
    assert rep["relator_preserved_exact"] is True


def test_gd_m5_with_commutator_g():
    g = parse_word("[a^2, b^2]", ("a", "b"))
    rep = check_gd_pair(5, 3, g)
    # full report computed; verdicts are data, not assumptions
    for key in ("cond3_delta_image", "cond4_delta2_image", "relator_preserved_exact"):
        assert isinstance(rep[key], bool)


def test_gd_rejects_g_outside_kernel():
    with pytest.raises(InputError):
        check_gd_pair(6, 1, single("a"))


def test_gd_rejects_g_outside_derived_subgroup():
    # a^2 lies in the kernel but has nonzero abelianized class
    with pytest.raises(InputError):
        check_gd_pair(6, 1, word_pow(single("a"), 2))


def _element_words(quotient):
    """A defining word in the generators for every element of a quotient
    acting regularly on its elements, keyed by its point: the Schreier tree
    of point 0."""
    names = quotient.presentation.generators
    edges = orbit(0, quotient.columns[::2], lambda p, g: g[p])
    words = {}
    for point, edge in edges.items():
        words[point] = () if edge is None else word_mul(words[edge[0]], single(names[edge[1]]))
    return words


def composed_action_agrees(quotient, pair1, pair2) -> bool:
    """Whether the maps induced on a quotient numbered over <g1> compose as
    functions: applying the word-level composition of generator images
    agrees, on every element (its image of the point 0), with applying the
    two induced endomorphisms in sequence."""
    assert quotient.base is None  # the action on the elements is regular
    n = len(quotient.presentation.generators) + 1
    img1 = drinfeld_images(n, pair1)
    img2 = drinfeld_images(n, pair2)
    words = _element_words(quotient)

    def endo(images):
        return {p: quotient.eval_word(substitute(w, images))[0] for p, w in words.items()}

    f1, f2 = endo(img1), endo(img2)
    composed_images = {g: substitute(w, img2) for g, w in img1.items()}
    f21 = endo(composed_images)
    return all(f2[f1[p]] == f21[p] for p in f1)


def test_composition_as_functions():
    q = coxeter_quotient(3, 3)
    assert composed_action_agrees(q, parse_pair(-1, ""), parse_pair(3, "[x,y]"))
    assert composed_action_agrees(q, parse_pair(3, "[x,y]"), parse_pair(-1, "[x,y]"))
    # negative control: s_i -> s_i^2 breaks the braid relation in Br3/s^4, so
    # applying it after s_i -> s_i^3 disagrees with the composed images
    assert not composed_action_agrees(coxeter_quotient(3, 4), parse_pair(3, ""), parse_pair(2, ""))


def _schreier_abelianized_by_names(data, w, start=0):
    """The exponent vector of w rewritten over the Schreier generators, each
    symbol's column found by name; None when w moves coset `start`."""
    rewritten = schreier_rewrite(data, w, start)
    if rewritten is None:
        return None
    vec = [0] * len(data.names)
    for sym, exp in rewritten:
        vec[data.names.index(sym)] += exp
    return vec


def _row_span_by_full_reduction(rows, vec):
    """Whether vec lies in the integer row span of rows, by a Hermite
    reduction in which every gcd step updates whole rows and re-sorts the
    rows nonzero in the column."""
    mat = [list(r) for r in rows if any(r)]
    work = list(vec)
    ncols = len(vec)
    col = 0
    while col < ncols and mat:
        if not [r for r in mat if r[col]]:
            col += 1
            continue
        while True:
            nonzero = sorted((r for r in mat if r[col]), key=lambda r: abs(r[col]))
            if len(nonzero) <= 1:
                break
            a, b = nonzero[0], nonzero[1]
            q = b[col] // a[col]
            for i in range(ncols):
                b[i] -= q * a[i]
            mat = [r for r in mat if any(r)]
        piv = [r for r in mat if r[col]][0]
        if work[col] % piv[col] == 0:
            q = work[col] // piv[col]
            for i in range(ncols):
                work[i] -= q * piv[i]
        mat = [r for r in mat if r is not piv and any(r)]
        col += 1
    return all(v == 0 for v in work)


def _derived_kernel_oracle(pres):
    """w -> whether w lies in [P, P], for P the kernel of pres -> W, W its
    torsion quotient, by Reidemeister-Schreier: rewrite w over the Schreier
    generators of P on W's coset table, then test its exponent vector against
    the abelianized relators of P (each ambient relator read at each coset)."""
    tq = torsion_quotient(pres, 2)
    data = schreier_data(CosetTable(pres, (), tq.columns, "complete", tq.degree))
    rows = [_schreier_abelianized_by_names(data, r, alpha) for alpha in range(tq.degree) for r in pres.relators]

    def in_derived_subgroup(w):
        vec = _schreier_abelianized_by_names(data, w)
        assert vec is not None, "the word is not in the kernel"
        return _row_span_by_full_reduction(rows, vec)

    return in_derived_subgroup


def _check_gd_pair_inline(m, lam, g):
    """The report as computed before `check_gd_pair` went through
    `verify_hom` and the Coxeter model: inline relator checks, and the kernel
    and W read off the coset table of W."""
    ctx = context(CoxeterType("I2", m))
    pres = artin_i2_presentation(m)
    if ctx.image_in_w(g) != ctx.one:
        raise InputError("g does not lie in the kernel of the reflection quotient")
    if not _derived_kernel_oracle(pres)(g):
        raise InputError("g is not in the derived subgroup of the kernel (abelianized class nonzero)")
    a, b = single("a"), single("b")
    images = {"a": word_pow(a, lam), "b": word_mul(word_inverse(g), word_pow(b, lam), g)}

    def apply(w):
        return substitute(w, images)

    delta = alternating_word("a", "b", m)
    report = {"m": m, "lambda": lam, "g": word_str(g)}
    report["cond2_images"] = {k: word_str(v) for k, v in images.items()}
    target3 = word_mul(word_pow(delta, lam), g) if m % 2 else word_pow(delta, lam)
    report["cond3_delta_image"] = ctx.equal(apply(delta), target3)
    report["cond4_delta2_image"] = ctx.equal(apply(word_pow(delta, 2)), word_pow(delta, 2 * lam))
    relator_ok = all(ctx.equal(apply(r), ()) for r in pres.relators)
    report["relator_preserved_exact"] = relator_ok
    if relator_ok:
        tq = torsion_quotient(pres, 2)
        img_perms = [tq.eval_word(apply(single(name))) for name in pres.generators]
        report["cond1_bijective_on_W"] = tq.subgroup_order(img_perms) == tq.order()
    else:
        report["cond1_bijective_on_W"] = False
    report["all_exact_conditions"] = bool(
        report["cond3_delta_image"] and report["cond4_delta2_image"] and relator_ok
    )
    return report


def test_gd_pair_report_matches_inline_checks():
    # a^2, a^2 b^2 and (a b)^m = Delta^2 are pure braids outside [P, P]
    gs = ["", "[a^2,b^2]", "[b^2,a^-2]", "[a^2, b a^2 b^-1]", "a^2", "a^2 b^2", "(a b)^{m}"]
    seen = {"relator": set(), "bijective": set(), "refused": 0}
    for m in range(3, 13):
        for lam in (-3, -1, 1, 2, 3, 5):
            for text in gs:
                g = parse_word(text.format(m=m), ("a", "b"))
                try:
                    expected = _check_gd_pair_inline(m, lam, g)
                except InputError as exc:
                    with pytest.raises(InputError) as got:
                        check_gd_pair(m, lam, g)
                    assert str(got.value) == str(exc), (m, lam, text)
                    seen["refused"] += 1
                    continue
                rep = check_gd_pair(m, lam, g)
                assert rep == expected, (m, lam, text)
                # the JSON report prints bools as bools: True == 1 is not enough
                assert [type(v) for v in rep.values()] == [type(v) for v in expected.values()]
                seen["relator"].add(rep["relator_preserved_exact"])
                seen["bijective"].add(rep["cond1_bijective_on_W"])
    assert seen == {"relator": {True, False}, "bijective": {True, False}, "refused": 3 * 10 * 6}


def _random_pure_word(rng, ctx, letters):
    """A random word of the pure braid group: random letters, then a word
    back to 1 in W."""
    w = tuple((rng.choice(ctx.gen_list), rng.choice((-1, 1))) for _ in range(letters))
    return word_mul(w, word_inverse(ctx.word_of_simple(ctx.image_in_w(w))))


REFLECTION_COUNT_TYPES = [(f"I2({m})", artin_i2_presentation, m) for m in range(3, 17)]
REFLECTION_COUNT_TYPES += [("A3", braid_presentation, 4), ("B3", artin_b_presentation, 3)]


@pytest.mark.parametrize(
    "name, presentation, n", REFLECTION_COUNT_TYPES, ids=[name for name, _, _ in REFLECTION_COUNT_TYPES]
)
def test_reflection_counts_decide_the_derived_subgroup_of_p(name, presentation, n):
    """Zero reflection counts and the Schreier-plus-Hermite oracle agree on
    pure braids: random ones, commutators of them, and x p x^-1 p^-1 with x
    any braid, which lies in [P, P] only when x fixes p's counts."""
    ctx = context(parse_type(name))
    in_derived_subgroup = _derived_kernel_oracle(presentation(n))
    rng = random.Random(f"reflection counts {name}")
    seen = {True: 0, False: 0}
    for _ in range(50):
        p = _random_pure_word(rng, ctx, rng.randint(1, 6))
        x = (
            _random_pure_word(rng, ctx, rng.randint(1, 6))
            if rng.random() < 0.3
            else tuple((rng.choice(ctx.gen_list), rng.choice((-1, 1))) for _ in range(rng.randint(0, 4)))
        )
        w = rng.choice((p, word_mul(x, p, word_inverse(x), word_inverse(p))))
        assert ctx.image_in_w(w) == ctx.one
        expected = in_derived_subgroup(w)
        assert (not any(ctx.reflection_counts(w).values())) == expected, (name, word_str(w))
        seen[expected] += 1
    assert min(seen.values()) >= 10, seen


def _act_on_quotient_inline(quotient, pair):
    """`act_on_quotient` as computed before it went through `GroupHom` and
    `hom_bijective_on`: inline relator loop and subgroup order."""
    from reflbench.fpgroups import braid_presentation, substitute, word_str
    from reflbench.gtaction import ActionReport

    n = len(quotient.presentation.generators) + 1
    images = drinfeld_images(n, pair)
    verdicts = []
    ok = True
    for r in braid_presentation(n).relators:
        holds = quotient.eval_word(substitute(r, images)) == quotient.identity()
        verdicts.append((word_str(r), holds))
        ok = ok and holds
    bij = None
    if ok:
        image_perms = [quotient.eval_word(w) for w in images.values()]
        bij = quotient.subgroup_order(image_perms) == quotient.order()
    notes = [pair.lambda_parity_note] if pair.lambda_parity_note else []
    return ActionReport(quotient.label, images, verdicts, ok, bij, notes)


@pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (3, 5), (4, 3)])
def test_act_on_quotient_matches_inline_checks(n, k):
    q = coxeter_quotient(n, k)
    pairs = [(1, ""), (-1, ""), (2, ""), (3, ""), (3, "[x,y]"), (2, "[x,y]"), (-1, "[x^2,y]"), (5, "[x,y^-1]")]
    seen = set()
    for lam, f in pairs:
        rep = act_on_quotient(q, parse_pair(lam, f))
        assert rep == _act_on_quotient_inline(q, parse_pair(lam, f)), (lam, f)
        seen.add(rep.bijective)
    # ill-defined (None) and bijective pairs on every quotient, and on k = 3
    # also well-defined maps that are not onto
    assert seen == ({None, True, False} if k == 3 else {None, True})
