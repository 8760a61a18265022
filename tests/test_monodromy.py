import random

import pytest

from reflbench import matgroup
from reflbench.errors import InputError
from reflbench.fpgroups import parse_word, word_letters
from reflbench.matgroup import RMatrix, _row_times, build_catalog_group, build_monomial_group
from reflbench.monodromy import (
    RamificationProfile,
    braid_loop_images,
    coset_cover,
    cover_from_spec,
    cycle_type,
    monodromy_profile,
    order_based_profile,
    profile_from_json,
    profile_to_json,
    riemann_hurwitz_genus,
)
from reflbench.orbit import orbit


def _index_of(g, m):
    """The element index of m, read off its rows; KeyError if m is not in g."""
    return g.element_index[tuple(map(g.point_index.__getitem__, m.rows))]


def _permutation(group, m):
    """m's permutation of the group's points, one row-times-matrix pass."""
    sparse = m.sparse_rows()
    return tuple(group.point_index[_row_times(v, sparse)] for v in group.points)


def regular_cover(group, x, y, label):
    """The regular cover with loops acting by the matrices x, y."""
    return coset_cover(group, (), _permutation(group, x), _permutation(group, y), label)


def _evaluate(group, names, word):
    """The group element a word over g1..gk names, by matrix products."""
    m = RMatrix.identity(group.dim)
    for sym, step in word_letters(word):
        gen = group.generators[names.index(sym)]
        m = m * (gen if step > 0 else gen.inverse())
    return m


def _left_action_profile(group, subgroup_gens, x, y):
    """The earlier construction, kept as a reference: the fibre is the left
    cosets gH as sets of matrices, H closed under products, and a loop acts
    by left multiplication, one matrix product per coset element."""
    sub = [RMatrix.identity(group.dim)]
    seen = set(sub)
    for m in sub:
        for s in subgroup_gens:
            if m * s not in seen:
                seen.add(m * s)
                sub.append(m * s)
    fiber = list(dict.fromkeys(frozenset(g * h for h in sub) for g in group.elements))
    index = {c: i for i, c in enumerate(fiber)}

    def translation(a):
        return [index[frozenset(a * h for h in c)] for c in fiber]

    perms = {"0": translation(x), "1": translation(y), "inf": translation((x * y).inverse())}
    reached = orbit(0, (perms["0"], perms["1"]), lambda i, p: p[i])
    return RamificationProfile(
        degree=len(fiber),
        points={k: cycle_type(p) for k, p in perms.items()},
        transitive=len(reached) == len(fiber),
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
    x, y = _permutation(g4, s1 * s1), _permutation(g4, s2 * s2)
    spec = coset_cover(g4, [g4.generator_perms[0]], x, y, "cosets")
    assert spec.degree() == 8
    assert all(len(c) == 3 for c in spec.fiber)
    prof = monodromy_profile(spec)
    assert sum(ln * ct for ln, ct in prof.points["0"].items()) == 8
    assert prof == _left_action_profile(g4, [s1], s1 * s1, s2 * s2)
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
    with pytest.raises(InputError):
        order_based_profile(from_spec)


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
    expected = _left_action_profile(g4, sub_gens, s1 * s1, s2 * s2)
    spec = cover_from_spec(data)
    assert spec.degree() == expected.degree
    assert len({len(c) for c in spec.fiber}) == 1
    assert spec.degree() * len(spec.fiber[0]) == 24
    assert monodromy_profile(spec) == expected


@pytest.mark.parametrize(
    "group",
    [("G4",), (2, 1, 3), (3, 3, 3), (2, 2, 4)],
    ids=lambda g: "-".join(map(str, g)),
)
def test_right_coset_covers_match_left_action(group):
    # x acts on G/H as x^-1 on H\G, so the profiles must be the same
    g = build_catalog_group(*group) if len(group) == 1 else build_monomial_group(*group)
    rng = random.Random(repr(group))
    pick = lambda: g.elements[rng.randrange(g.order())]  # noqa: E731
    for n_sub in (0, 1, 2, 3, 1, 2):
        x, y = pick(), pick()
        sub = [pick() for _ in range(n_sub)]
        sub_perms = [_permutation(g, h) for h in sub]
        spec = coset_cover(g, sub_perms, _permutation(g, x), _permutation(g, y), "random")
        assert spec.x_image == x and spec.y_image == y
        assert monodromy_profile(spec) == _left_action_profile(g, sub, x, y)


def test_spec_cover_runs_no_matrix_product(monkeypatch):
    data = {
        "group": {"kind": "monomial", "d": 2, "e": 1, "n": 3},
        "fiber": {"subgroup": ["g1", "g3 g2^-1"]},
        "x": "g1 g2",
        "y": "g3^-1 g2 g2",
    }
    expected = monodromy_profile(cover_from_spec(data))

    def refuse(*args):
        raise AssertionError("a matrix product or inverse ran")

    monkeypatch.setattr(RMatrix, "__mul__", refuse)
    monkeypatch.setattr(RMatrix, "inverse", refuse)
    spec = cover_from_spec(data)
    assert len(spec.fiber[0]) > 1
    assert monodromy_profile(spec) == expected
    assert monodromy_profile(braid_loop_images("G4_paper")).degree == 24


def test_spec_words_name_their_elements():
    # a word's point permutation is that of the matrix product it names,
    # inverse letters of order-3 generators and 9,999-letter words included
    cases = [
        ({"kind": "catalog", "name": "G4"}, [("g1^-1 g2", "(g1 g2^-1 g1)^-3"), ("G2 g1^9999", "[g1, g2]")]),
        ({"kind": "monomial", "d": 3, "e": 1, "n": 2}, [("g1 g2^-1", "g2^-2 g1"), ("(g1 G2)^5", "g2^9998")]),
    ]
    for group, pairs in cases:
        g = matgroup.group_from_spec(group)
        names = [f"g{i + 1}" for i in range(len(g.generators))]
        for x, y in pairs:
            spec = cover_from_spec({"group": group, "x": x, "y": y})
            for word, perm in ((x, spec.x), (y, spec.y)):
                m = _evaluate(g, names, parse_word(word, names))
                assert perm == _permutation(g, m)
                assert g.elements[_index_of(g, m)] == m


def test_profile_json_round_trip():
    prof = monodromy_profile(braid_loop_images("G4_paper"))
    assert profile_from_json(profile_to_json(prof)) == prof
    bad_profiles = [{"points": {}}, {"degree": 3, "points": {"0": [[2]]}}, {"degree": 3, "points": []}, []]
    # profiles that no cover has: a degree < 1, a length or count < 1, a
    # repeated length, or cycles at some point that do not partition the degree
    bad_profiles += [
        {"degree": 0, "points": {}},
        {"degree": -2, "points": {"0": [[1, -2]]}},
        {"degree": 1, "points": {"0": [[3, 2]]}},
        {"degree": 3, "points": {"0": [[0, 1], [3, 1]]}},
        {"degree": 3, "points": {"0": [[3, 0], [1, 3]]}},
        {"degree": 4, "points": {"0": [[2, 1], [2, 1]]}},
        {"degree": 4, "points": {"0": [[2, 2]], "1": [[3, 1]]}},
    ]
    # a point that is not a list of [length, count] pairs, whose keys or
    # characters would otherwise be read as lengths and counts
    bad_profiles += [
        {"degree": 6, "points": {"0": {"61": 1}, "1": {"61": 1}, "inf": {"16": 1}}},
        {"degree": 2, "points": {"0": ["12"]}},
    ]
    for bad in bad_profiles:
        with pytest.raises(InputError):
            profile_from_json(bad)


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
