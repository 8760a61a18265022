import random

import pytest

from reflbench import matgroup
from reflbench.errors import InputError
from reflbench.fpgroups import parse_word
from reflbench.matgroup import RMatrix, build_catalog_group, build_monomial_group
from reflbench.monodromy import (
    RamificationProfile,
    _evaluate,
    braid_loop_images,
    coset_cover,
    cover_from_spec,
    monodromy_profile,
    order_based_profile,
    profile_to_json,
    regular_cover,
    riemann_hurwitz_genus,
)


def test_g4_paper_cover_spec():
    spec = braid_loop_images("G4_paper")
    assert spec.degree() == 24
    assert spec.x_image.order() == 3
    assert spec.y_image.order() == 3
    assert spec.z_image.order() == 6
    assert spec.x_image != spec.y_image


def test_g4_paper_profile():
    spec = braid_loop_images("G4_paper")
    prof = monodromy_profile(spec)
    assert prof.degree == 24 and prof.transitive
    assert prof.points["0"] == {3: 8}
    assert prof.points["1"] == {3: 8}
    assert prof.points["inf"] == {6: 4}
    # Riemann-Hurwitz on this profile: 2 - 2g = 48 - (16+16+20) = -4, so g = 3.
    # (The source text asserts genus 4 for the same profile; that arithmetic
    # is off by one -- see the acceptance suite, which records the defect.)
    assert riemann_hurwitz_genus(prof) == 3


def test_order_based_profile_agrees():
    spec = braid_loop_images("G4_paper")
    assert order_based_profile(spec).points == monodromy_profile(spec).points


def test_s3_cover():
    s3 = build_monomial_group(1, 1, 3)
    x, y = s3.generators  # the transpositions (12), (23)
    prof = monodromy_profile(regular_cover(s3, x, y, "S3"))
    assert prof.points == {"0": {2: 3}, "1": {2: 3}, "inf": {3: 2}}
    assert riemann_hurwitz_genus(prof) == 0


def test_trivial_cover():
    triv = matgroup.enumerate_closure([RMatrix.identity(1)], "trivial")
    prof = monodromy_profile(regular_cover(triv, triv.elements[0], triv.elements[0], "trivial"))
    assert riemann_hurwitz_genus(prof) == 0
    assert all(c == {1: 1} for c in prof.points.values())


def test_profile_conjugation_invariance():
    g4 = build_catalog_group("G4")
    spec = braid_loop_images("G4_paper")
    base = monodromy_profile(spec).points
    rng = random.Random(2)
    for _ in range(5):
        g = g4.elements[rng.randrange(g4.order())]
        conj = regular_cover(
            g4, g * spec.x_image * g.inverse(), g * spec.y_image * g.inverse(), "conj"
        )
        assert monodromy_profile(conj).points == base


def test_regular_cycles_match_element_orders():
    # every cycle of a loop image has length = element order, count = N/order
    g4 = build_catalog_group("G4")
    rng = random.Random(4)
    for _ in range(8):
        x = g4.elements[rng.randrange(24)]
        y = g4.elements[rng.randrange(24)]
        spec = regular_cover(g4, x, y, "random")
        prof = monodromy_profile(spec)
        for key, el in (("0", x), ("1", y), ("inf", spec.z_image)):
            k = el.order()
            assert prof.points[key] == {k: 24 // k}


def test_euler_characteristic_integrality():
    g4 = build_catalog_group("G4")
    rng = random.Random(8)
    for _ in range(10):
        x = g4.elements[rng.randrange(24)]
        y = g4.elements[rng.randrange(24)]
        prof = monodromy_profile(regular_cover(g4, x, y, "rand"))
        chi = 2 * prof.degree - prof.total_ramification()
        assert chi % 2 == 0


def test_inconsistent_profile_rejected():
    bad = RamificationProfile(degree=3, points={"0": {2: 1, 1: 1}, "1": {3: 1}, "inf": {3: 1}}, transitive=True)
    with pytest.raises(InputError):
        riemann_hurwitz_genus(bad)  # chi odd


def test_coset_cover():
    g4 = build_catalog_group("G4")
    s1, s2 = g4.generators
    # subgroup generated by s1 has order 3, so 8 cosets
    sub = [RMatrix.identity(2), s1, s1 * s1]
    spec = coset_cover(g4, sub, s1 * s1, s2 * s2, "cosets")
    assert spec.degree() == 8
    prof = monodromy_profile(spec)
    assert sum(ln * ct for ln, ct in prof.points["0"].items()) == 8
    # the same cover with the subgroup given by a generating word
    data = {
        "group": {"kind": "catalog", "name": "G4"},
        "fiber": {"subgroup": ["g1"]},
        "x": "g1^2",
        "y": "g2^2",
    }
    from_spec = cover_from_spec(data)
    assert from_spec.degree() == 8
    assert monodromy_profile(from_spec) == prof


@pytest.mark.parametrize(
    "words", [[], ["g1"], ["g2^2"], ["g1", "g2"], ["g1 g2"], ["g1 g2 g1", "g1^-1"]]
)
def test_cover_from_spec_fibres_match_product_closure(words):
    g4 = build_catalog_group("G4")
    s1, s2 = g4.generators
    data = {
        "group": {"kind": "catalog", "name": "G4"},
        "fiber": {"subgroup": words},
        "x": "g1^2",
        "y": "g2^2",
    }
    # the subgroup by breadth-first products, the trivial one when no words
    names = ["g1", "g2"]
    sub_gens = [_evaluate(g4, names, parse_word(w, names)) for w in words]
    sub = [RMatrix.identity(2)]
    for m in sub:
        for s in sub_gens:
            if m * s not in sub:
                sub.append(m * s)
    expected = coset_cover(g4, sub, s1 * s1, s2 * s2, "cover")
    spec = cover_from_spec(data)
    assert spec.fiber == expected.fiber
    assert spec.degree() == 24 // len(sub)
    assert monodromy_profile(spec) == monodromy_profile(expected)


def test_intransitive_cover_detected():
    g4 = build_catalog_group("G4")
    s1 = g4.generators[0]
    # <x, y> = <g1> has order 3, so it cannot reach all 24 sheets
    prof = monodromy_profile(regular_cover(g4, s1, s1, "x=y=g1"))
    assert prof.transitive is False
    assert prof.points["0"] == {3: 8}


def test_cover_from_spec_json():
    data = {
        "group": {"kind": "catalog", "name": "G4"},
        "fiber": "regular",
        "x": "g1^2",
        "y": "g2^2",
    }
    spec = cover_from_spec(data)
    prof = monodromy_profile(spec)
    assert prof.points == monodromy_profile(braid_loop_images("G4_paper")).points
    with pytest.raises(InputError):
        cover_from_spec({"group": {"kind": "catalog", "name": "G4"}})


def test_unknown_catalog_cover():
    with pytest.raises(InputError):
        braid_loop_images("nope")
