import dataclasses
import functools
import random

import pytest

from reflbench import cyclo, linalg, matgroup
from reflbench.errors import BudgetExceededError, InputError
from reflbench.matgroup import (
    RMatrix,
    _row_times,
    build_catalog_group,
    build_monomial_group,
    center,
    enumerate_closure,
    field_of_definition,
    galois_image,
    hermitian_is_positive_definite,
    hyperplanes,
    invariant_hermitian_form,
    reflections,
)


def _index_of(g, m):
    """The element index of m, read off its rows; KeyError if m is not in g."""
    return g.element_index[tuple(map(g.point_index.__getitem__, m.rows))]


def test_monomial_orders():
    # order formula d^n n!/e on Shephard-Todd labels
    assert build_monomial_group(1, 1, 3).order() == 6
    assert build_monomial_group(2, 1, 2).order() == 8
    assert build_monomial_group(3, 3, 2).order() == 6
    assert build_monomial_group(4, 4, 2).order() == 8
    assert build_monomial_group(2, 2, 4).order() == 192


def test_monomial_rejects_bad_labels():
    with pytest.raises(InputError):
        build_monomial_group(4, 3, 2)  # e must divide d


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        build_monomial_group(2, 1, 3, budget=10)
    # exactly `budget` elements are allowed: G(2,1,3) has order 48
    g = build_monomial_group(2, 1, 3, budget=48)
    assert enumerate_closure(list(g.generators), "B3", budget=48).elements == g.elements
    with pytest.raises(BudgetExceededError, match="group enumeration for 'B3' exceeded budget 47"):
        enumerate_closure(list(g.generators), "B3", budget=47)
    with pytest.raises(BudgetExceededError):
        build_monomial_group(2, 1, 3, budget=47)


def test_catalog_groups():
    g4 = build_catalog_group("G4")
    assert g4.order() == 24
    s1, s2 = g4.generators
    assert (s1 * s1 * s1).is_identity()
    assert (s2 * s2 * s2).is_identity()
    assert build_catalog_group("S3_paper").order() == 6
    with pytest.raises(InputError):
        build_catalog_group("nope")


def test_closure_idempotent():
    for g in (build_monomial_group(3, 3, 2), build_catalog_group("G4")):
        again = enumerate_closure(list(g.elements), "closure-of-closure")
        assert set(again.elements) == set(g.elements)
        assert again.elements == _product_closure(list(g.elements))


def test_reflection_counts():
    s3 = build_catalog_group("S3_paper")
    assert reflections(s3) == 3
    assert [e for _, e in hyperplanes(s3)] == [2, 2, 2]

    g4 = build_catalog_group("G4")
    assert reflections(g4) == 8
    assert [e for _, e in hyperplanes(g4)] == [3, 3, 3, 3]

    b2 = build_monomial_group(2, 1, 2)
    assert reflections(b2) == 4 and len(hyperplanes(b2)) == 4


def test_reflections_fix_their_hyperplane_pointwise():
    g4 = build_catalog_group("G4")
    table, hyps = _scan_every_element(g4)
    assert hyps == hyperplanes(g4) and len(table) == 8
    for i, h in table:
        # kernel basis of the defining form, checked fixed exactly
        a, b = hyps[h][0]
        if a.is_zero():
            v = (cyclo.ONE, cyclo.ZERO)
        else:
            v = (-b / a, cyclo.ONE)
        image = tuple(
            sum((g4.elements[i].rows[k][j] * v[j] for j in range(2)), cyclo.ZERO)
            for k in range(2)
        )
        assert image == v


def test_field_of_definition_weyl_and_cyclotomic():
    assert field_of_definition(build_monomial_group(1, 1, 4)).conductor == 1
    fod4 = field_of_definition(build_catalog_group("G4"))
    assert fod4.conductor == 3 and fod4.fixing_subgroup == (1,) and fod4.degree == 2
    fod8 = field_of_definition(build_monomial_group(8, 8, 2))
    assert fod8.conductor == 8 and fod8.fixing_subgroup == (1, 7) and fod8.degree == 2
    # G(4,4,2) is the Weyl group of B2: defined over Q
    assert field_of_definition(build_monomial_group(4, 4, 2)).conductor == 1


def test_field_of_definition_traces_live_in_reported_field():
    for g in (build_catalog_group("G4"), build_monomial_group(8, 8, 2)):
        fod = field_of_definition(g)
        for m in g.elements:
            assert fod.conductor % m.trace().order == 0


def _field_of_definition_over_all_elements(group):
    """`field_of_definition` as computed before it took one trace per
    conjugacy class and read the conductor off the lcm of the trace orders:
    the traces of every element, and the least divisor f of that lcm whose
    units congruent to 1 mod f fix them all."""
    from math import gcd

    traces = sorted({m.trace() for m in group.elements}, key=lambda t: (t.order, t.coeffs))
    big = 1
    for t in traces:
        big = big * t.order // gcd(big, t.order)

    def fixing(modulus):
        if modulus == 1:
            return [1]
        units = [k for k in range(1, modulus + 1) if gcd(k, modulus) == 1]
        return [
            k
            for k in units
            if all(cyclo.galois(t, k % t.order if t.order > 1 else 1) == t for t in traces)
        ]

    fix_big = set(fixing(big))
    units_big = [k for k in range(1, big + 1) if gcd(k, big) == 1]
    conductor = big
    for f in sorted(d for d in range(1, big + 1) if big % d == 0):
        if f % 4 != 2 and all(k in fix_big for k in units_big if k % f == 1 % f):
            conductor = f
            break
    fix = tuple(sorted(fixing(conductor)))
    return matgroup.FieldOfDefinition(
        conductor=conductor, fixing_subgroup=fix, degree=cyclo.euler_phi(conductor) // len(fix)
    )


def test_field_of_definition_matches_traces_of_every_element():
    # the group-info groups of the benchmark, two rank-5/rank-4 groups, the
    # groups of the field-of-definition criterion, every G(d,e,n) of order
    # <= 2,000 with d <= 12, and two explicit groups, one over Q(zeta_5)
    monomial = [
        (3, 3, 2), (4, 4, 2), (5, 5, 2), (8, 8, 2), (12, 12, 2), (3, 1, 2), (4, 1, 2),
        (2, 1, 3), (2, 2, 3), (3, 3, 3), (4, 4, 3), (1, 1, 4), (2, 2, 4), (7, 7, 2),
        (9, 9, 2), (15, 15, 2), (24, 24, 2), (3, 1, 4), (2, 2, 5),
        (1, 1, 2), (1, 1, 3), (1, 1, 5),
    ]  # fmt: skip
    monomial += [deg for deg in SCAN_GROUPS if deg[0] <= 12 and deg not in monomial]
    groups = [ORBIT_GROUPS[name]() for name in ("G4", "S3_paper", "explicit-twisted-swap", "explicit-G4-dense")]
    groups += [build_monomial_group(*deg) for deg in monomial]
    conductors = set()
    for g in groups:
        fod = field_of_definition(g)
        assert fod == _field_of_definition_over_all_elements(g)
        conductors.add(fod.conductor)
    assert {1, 3, 5, 8, 15, 24} <= conductors


def test_galois_image_identity_and_reality():
    g = build_monomial_group(1, 1, 3)
    assert galois_image(g, 1) == _galois_image_by_matrices(g, 1) == list(range(g.order()))
    # real entries
    assert galois_image(g, -1) == _galois_image_by_matrices(g, -1) == list(range(g.order()))


def test_galois_image_g4_is_automorphism():
    g4 = build_catalog_group("G4")
    perm = galois_image(g4, -1)
    assert perm == _galois_image_by_matrices(g4, -1) and perm != list(range(g4.order()))
    # the induced permutation respects products on generators x elements
    for a in g4.generators:
        ia = _index_of(g4, a)
        for i, b in enumerate(g4.elements):
            lhs = perm[_index_of(g4, a * b)]
            rhs = _index_of(g4, g4.elements[perm[ia]] * g4.elements[perm[i]])
            assert lhs == rhs


def test_hermitian_form():
    groups = [build_catalog_group(label) for label in ("G4", "S3_paper")]
    groups += [
        build_monomial_group(*den)
        for den in (
            (2, 1, 2), (3, 3, 2), (5, 5, 2), (8, 8, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3),
            (3, 3, 3), (4, 4, 3), (2, 2, 4), (7, 7, 2), (9, 9, 2), (15, 15, 2),
            (3, 1, 4), (2, 1, 5), (2, 2, 5), (3, 3, 5), (2, 2, 6),
        )
    ]  # fmt: skip
    for g in groups:
        h = invariant_hermitian_form(g)
        assert h.conjugate().transpose() == h
        for w in g.elements:
            assert w.conjugate().transpose() * h * w == h
        assert hermitian_is_positive_definite(h)
    # monomial groups are unitary in the standard form
    assert invariant_hermitian_form(build_monomial_group(3, 3, 2)).is_identity()
    hs3 = invariant_hermitian_form(build_catalog_group("S3_paper"))
    assert all(e.is_rational() for row in hs3.rows for e in row)


def test_positive_definite_by_leading_minors():
    r2 = cyclo.sqrt_rational(2)
    i = cyclo.root_of_unity(4)

    def definite(rows):
        return hermitian_is_positive_definite(RMatrix(rows))

    assert definite([[1, 0], [0, 2 - r2]])  # irrational minor 2 - sqrt(2)
    assert definite([[2, i], [-i, 2]])
    assert not definite([[1, 2], [2, 1]])  # indefinite
    assert not definite([[1, 1], [1, 1]])  # semidefinite: minor 0
    assert not definite([[-1, 0], [0, -1]])  # positive determinant, first minor -1
    assert not definite([[r2 - 2]])
    with pytest.raises(ValueError, match="Hermitian"):
        definite([[1, i], [i, 1]])
    # 3880899 - 2744210 sqrt(2) is about 1.3e-7, below its rounding bound
    with pytest.raises(RuntimeError, match="not decided"):
        definite([[3880899 - 2744210 * r2]])
    # 665857 - 470832 sqrt(2) is about 7.5e-7, above its bound
    assert definite([[665857 - 470832 * r2]])


def test_centers():
    assert len(center(build_monomial_group(1, 1, 3))) == 1
    assert len(center(build_catalog_group("G4"))) == 2
    assert len(center(build_monomial_group(2, 1, 2))) == 2


def test_group_spec_json():
    g = matgroup.group_from_spec({"kind": "monomial", "d": 3, "e": 3, "n": 2})
    assert g.order() == 6
    g2 = matgroup.group_from_spec({"kind": "catalog", "name": "G4"})
    assert g2.order() == 24
    flat = [cyclo.to_json(e) for row in g2.generators[0].rows for e in row]
    g3 = matgroup.group_from_spec(
        {"kind": "explicit", "generators": [flat], "label": "cyclic"}
    )
    assert g3.order() == 3
    with pytest.raises(InputError):
        matgroup.group_from_spec({"kind": "unknown"})


def test_matrix_det_inverse_roundtrip():
    g4 = build_catalog_group("G4")
    for m in g4.elements[:8]:
        assert (m * m.inverse()).is_identity()
        d = linalg.det([list(r) for r in m.rows])
        assert d * linalg.det([list(r) for r in m.inverse().rows]) == cyclo.ONE


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_catalog_group("G4"),
        lambda: build_monomial_group(4, 1, 3),
        lambda: build_monomial_group(3, 3, 3),
    ],
    ids=["G4", "G(4,1,3)", "G(3,3,3)"],
)
def test_product_matches_dense_triple_sum(build):
    g = build()
    n = g.dim

    def dense(a, b):
        return [
            [sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), cyclo.ZERO) for j in range(n)]
            for i in range(n)
        ]

    def entrywise_sum(a, b):
        # leaves the group, so the operands also have several nonzeros per row
        return RMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])

    rng = random.Random(20240917)
    # one right operand reused by every product, so its sparse rows are read
    # many times after the first product fills them
    fixed = entrywise_sum(g.generators[0], g.generators[-1])
    for _ in range(40):
        a, b, c = (rng.choice(g.elements) for _ in range(3))
        for x, y in (
            (a, b),
            (entrywise_sum(a, c), b),
            (a, entrywise_sum(b, c)),
            (a, fixed),
            (entrywise_sum(b, c), fixed),
            (c, a * b),
            (a * b, entrywise_sum(b, c) * c),
        ):
            product = x * y
            assert product == RMatrix(dense(x, y))
            assert hash(product) == hash(RMatrix(dense(x, y)))
            assert all(isinstance(e, cyclo.CycNum) for row in product.rows for e in row)


# ---------------------------------------------------------------------------
# Differential test of the rank-one reflection test against the earlier
# elimination: the one row of the reduced echelon form of m - 1


def _rref_hyperplane_form(m):
    rows = [
        [m.rows[i][j] - (cyclo.ONE if i == j else cyclo.ZERO) for j in range(m.dim)]
        for i in range(m.dim)
    ]
    reduced, _pivots = linalg.rref(rows)
    if len(reduced) != 1:
        return None
    return tuple(reduced[0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_catalog_group("G4"),
        lambda: build_catalog_group("S3_paper"),
        lambda: build_monomial_group(2, 1, 3),
        lambda: build_monomial_group(4, 2, 3),
        lambda: build_monomial_group(3, 1, 3),
        lambda: build_monomial_group(2, 2, 4),
        lambda: build_monomial_group(6, 6, 2),
    ],
    ids=["G4", "S3_paper", "G(2,1,3)", "G(4,2,3)", "G(3,1,3)", "G(2,2,4)", "G(6,6,2)"],
)
def test_hyperplane_form_matches_elimination(build):
    g = build()
    found = 0
    for m in g.elements:
        form = matgroup._hyperplane_form(m)
        assert form == _rref_hyperplane_form(m)
        found += form is not None
    assert found == reflections(g) > 0


def _plus_identity(rows):
    return RMatrix([[x + (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(rows)])


Z3 = cyclo.root_of_unity(3, 1)
HAND_BUILT_MINUS_ONE = {
    "first-row-zero": [[0, 0, 0], [0, 2, -4], [0, 1, -2]],
    "first-row-zero-rank-two": [[0, 0, 0], [0, 2, -4], [0, 1, 2]],
    "equal-support-not-proportional": [[1, 1], [1, 2]],
    "equal-support-proportional": [[1, 2], [2, 4]],
    "larger-support-later": [[1, 0, 0], [1, 1, 0], [0, 0, 0]],
    "smaller-support-later": [[1, 1, 0], [1, 0, 0], [0, 0, 0]],
    "later-row-zero-first-nonzero": [[0, 0, 0], [0, 0, 0], [3, 0, 6]],
    "cyclotomic-multiple": [[Z3, 1, 0], [Z3 * Z3, Z3, 0], [0, 0, 0]],
    "cyclotomic-not-multiple": [[Z3, 1, 0], [Z3 * Z3, Z3 * Z3, 0], [0, 0, 0]],
    "dim-1": [[Z3 - 1]],
    "dim-1-identity": [[0]],
    "identity": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_MINUS_ONE))
def test_hyperplane_form_hand_built_cases(name):
    m = _plus_identity(HAND_BUILT_MINUS_ONE[name])
    expected = {
        "first-row-zero": (cyclo.ZERO, cyclo.ONE, cyclo.rational(-2)),
        "equal-support-proportional": (cyclo.ONE, cyclo.rational(2)),
        "later-row-zero-first-nonzero": (cyclo.ONE, cyclo.ZERO, cyclo.rational(2)),
        "cyclotomic-multiple": (cyclo.ONE, Z3.inverse(), cyclo.ZERO),
        "dim-1": (cyclo.ONE,),
    }.get(name)
    assert matgroup._hyperplane_form(m) == expected == _rref_hyperplane_form(m)


def test_one_hyperplane_form_per_seed(monkeypatch):
    from reflbench import invariants

    calls = []
    form = matgroup._hyperplane_form
    monkeypatch.setattr(matgroup, "_hyperplane_form", lambda m: calls.append(m) or form(m))
    g = build_monomial_group(4, 2, 3)
    hyps = hyperplanes(g)
    degrees = invariants.molien_degrees(g)
    # the seeds are s_1, s_2, s_1' and diag(-1, 1, 1), one form each; the
    # other hyperplanes are their images
    assert calls == list(g.generating_reflections) and len(calls) == 4
    assert degrees == [4, 6, 8] and reflections(g) == len(hyps) == 15
    # every call returns a fresh copy of the stored result
    hyps.clear()
    assert hyperplanes(g) == hyperplanes(g) != []
    assert hyperplanes(g) is not hyperplanes(g)
    assert len(calls) == 4
    # a second group object seeds again: nothing is kept across groups
    again = build_monomial_group(4, 2, 3)
    assert reflections(again) == reflections(g) and hyperplanes(again) == hyperplanes(g)
    assert len(calls) == 8
    # a group from bare generators tests one element of each class
    bare = enumerate_closure(list(g.generators), "G(4,2,3) as a spec")
    assert hyperplanes(bare) == hyperplanes(g)
    assert calls[8:] == [bare.elements[c[0]] for c in bare.classes]


# ---------------------------------------------------------------------------
# Differential tests of the basis-orbit representation against the earlier
# matrix-product computations


def _product_closure(generators):
    """The earlier closure: breadth-first products element * generator."""
    ident = RMatrix.identity(generators[0].dim)
    seen = {ident}
    queue = [ident]
    for m in queue:
        for g in generators:
            p = m * g
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return tuple(queue)


def _explicit(generators):
    flat = [[cyclo.to_json(e) for row in RMatrix(rows).rows for e in row] for rows in generators]
    return matgroup.group_from_spec({"kind": "explicit", "generators": flat})


Z5 = cyclo.root_of_unity(5, 1)
ORBIT_GROUPS = {
    "G4": lambda: build_catalog_group("G4"),
    "S3_paper": lambda: build_catalog_group("S3_paper"),
    "G(1,1,1)": lambda: build_monomial_group(1, 1, 1),
    "G(3,1,1)": lambda: build_monomial_group(3, 1, 1),
    "G(4,1,1)": lambda: build_monomial_group(4, 1, 1),
    "G(2,1,2)": lambda: build_monomial_group(2, 1, 2),
    "G(6,6,2)": lambda: build_monomial_group(6, 6, 2),
    "G(4,2,2)": lambda: build_monomial_group(4, 2, 2),
    "G(3,3,3)": lambda: build_monomial_group(3, 3, 3),
    "G(2,1,3)": lambda: build_monomial_group(2, 1, 3),
    "G(4,2,3)": lambda: build_monomial_group(4, 2, 3),
    "G(1,1,4)": lambda: build_monomial_group(1, 1, 4),
    "G(2,2,4)": lambda: build_monomial_group(2, 2, 4),
    "G(3,1,4)": lambda: build_monomial_group(3, 1, 4),
    "G(2,2,5)": lambda: build_monomial_group(2, 2, 5),
    # a cyclic group that sigma_2 does not map to itself
    "explicit-twisted-swap": lambda: _explicit([[[0, Z5], [1, 0]]]),
    # S3_paper beside a sign, and G4's dense generator beside a scalar
    "explicit-3x3": lambda: _explicit(
        [[[1, -1, 0], [0, -1, 0], [0, 0, -1]], [[-1, 0, 0], [-1, 1, 0], [0, 0, 1]]]
    ),
    "explicit-G4-dense": lambda: _explicit(
        [build_catalog_group("G4").generators[1].rows, [[Z5, 0], [0, Z5]]]
    ),
}

SMALL_ORBIT_GROUPS = [
    name for name in ORBIT_GROUPS if name not in ("G(3,1,4)", "G(2,2,5)", "G(2,2,4)", "G(4,2,3)")
]


@pytest.mark.parametrize("name", sorted(ORBIT_GROUPS))
def test_closure_matches_product_bfs(name):
    g = ORBIT_GROUPS[name]()
    assert g.elements == _product_closure(list(g.generators))
    # the representation itself: basis first, rows read through the frame
    n = g.dim
    frame = g.images[0]
    assert g.points[:n] == RMatrix.identity(n).rows
    assert frame[:n] == tuple(range(n)) and len(set(frame)) == len(frame)
    assert set(frame) == set(range(n)) | {i for gp in g.generator_perms for i in gp[:n]}
    assert len(g.images) == g.order() and len(set(g.images)) == g.order()
    for m, x in zip(g.elements, g.images):
        assert m.rows == tuple(g.points[i] for i in x[:n])
    for gen, gp in zip(g.generators, g.generator_perms):
        assert g.images[_index_of(g, gen)] == tuple(gp[i] for i in frame)
        for i, v in enumerate(g.points):
            image = tuple(
                sum((v[k] * gen.rows[k][j] for k in range(n)), cyclo.ZERO) for j in range(n)
            )
            assert g.points[gp[i]] == image


def _conjugated(group, q):
    """The generators of Q G Q^-1, whose basis rows e_k move as the rows of Q
    move under G."""
    q_inv = q.inverse()
    return [q * g * q_inv for g in group.generators]


def test_regular_basis_orbits_keep_records_small():
    # the rows of Q have nonzero entries of distinct sizes, so none lies on a
    # reflecting hyperplane x_i = 0 or x_i = +-x_j of G(2,1,3) and no two
    # share an orbit: the points are three regular orbits of |G| each
    q = RMatrix([[1, 2, 4], [3, -5, 7], [2, 9, -6]])
    gens = _conjugated(build_monomial_group(2, 1, 3), q)
    g = enumerate_closure(gens, "conjugate")
    assert g.elements == _product_closure(gens)
    assert g.order() == 48 and len(g.points) == 3 * 48
    # an element is kept as its images of the basis and the generators' rows,
    # not as a permutation of all 144 points
    assert len(g.images[0]) <= 3 * (1 + len(gens))
    assert all(len(x) == len(g.images[0]) for x in g.images)
    expected = [m for m in g.elements if all(m * s == s * m for s in gens)]
    assert center(g) == expected and len(expected) == 2
    classes = matgroup.conjugacy_classes(g)
    inverses = [h.inverse() for h in g.elements]
    for cls in classes:
        m = g.elements[cls[0]]
        assert {_index_of(g, h_inv * m * h) for h, h_inv in zip(g.elements, inverses)} == set(cls)
    assert sorted(i for cls in classes for i in cls) == list(range(48)) and len(classes) == 10
    # dim * budget points are allowed, one more element is not
    assert enumerate_closure(gens, "conjugate", budget=48).elements == g.elements
    with pytest.raises(BudgetExceededError, match="'conjugate' exceeded budget 47$"):
        enumerate_closure(gens, "conjugate", budget=47)


@pytest.mark.parametrize("name", SMALL_ORBIT_GROUPS)
def test_center_matches_products(name):
    g = ORBIT_GROUPS[name]()
    expected = [m for m in g.elements if all(m * s == s * m for s in g.generators)]
    assert center(g) == expected


@pytest.mark.parametrize("name", SMALL_ORBIT_GROUPS + ["G(2,2,4)"])
def test_hermitian_form_matches_element_sum(name):
    from fractions import Fraction

    g = ORBIT_GROUPS[name]()
    n = g.dim
    total = [[cyclo.ZERO] * n for _ in range(n)]
    for w in g.elements:
        m = w.conjugate().transpose() * w
        total = [[total[i][j] + m.rows[i][j] for j in range(n)] for i in range(n)]
    scale = cyclo.rational(Fraction(1, g.order()))
    assert invariant_hermitian_form(g) == RMatrix([[scale * x for x in row] for row in total])


@pytest.mark.parametrize("name", SMALL_ORBIT_GROUPS + ["G(2,2,4)"])
def test_conjugacy_classes_partition_and_are_closed(name):
    g = ORBIT_GROUPS[name]()
    classes = matgroup.conjugacy_classes(g)
    members = sorted(i for cls in classes for i in cls)
    assert members == list(range(g.order()))
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    assert all(g.order() % len(cls) == 0 for cls in classes)
    owner = {i: k for k, cls in enumerate(classes) for i in cls}
    inverses = [s.inverse() for s in g.generators]
    for k, cls in enumerate(classes):
        for i in cls:
            m = g.elements[i]
            for s, s_inv in zip(g.generators, inverses):
                assert owner[_index_of(g, s_inv * m * s)] == k
    # classes are found once per group; each call returns a fresh list
    classes.clear()
    assert matgroup.conjugacy_classes(g) == matgroup.conjugacy_classes(g) != []


@pytest.mark.parametrize("name", ["G4", "G(2,1,3)", "G(3,3,3)", "explicit-G4-dense"])
def test_conjugacy_classes_are_full_classes(name):
    g = ORBIT_GROUPS[name]()
    inverses = [h.inverse() for h in g.elements]
    for cls in matgroup.conjugacy_classes(g):
        m = g.elements[cls[0]]
        full = {_index_of(g, h_inv * m * h) for h, h_inv in zip(g.elements, inverses)}
        assert full == set(cls)


@pytest.mark.parametrize("name", ["G4", "explicit-twisted-swap", "G(3,3,3)"])
def test_closure_budget_is_exact(name):
    g = ORBIT_GROUPS[name]()
    gens = list(g.generators)
    assert enumerate_closure(gens, "H", budget=g.order()).elements == g.elements
    with pytest.raises(
        BudgetExceededError, match=f"group enumeration for 'H' exceeded budget {g.order() - 1}$"
    ):
        enumerate_closure(gens, "H", budget=g.order() - 1)


def test_too_many_points_raise_before_any_element(monkeypatch):
    calls = []
    real_orbit = matgroup.orbit
    monkeypatch.setattr(matgroup, "orbit", lambda *a: calls.append(a) or real_orbit(*a))
    rotation = RMatrix([[cyclo.root_of_unity(7, 1)]])  # seven points on the line
    assert enumerate_closure([rotation], "C7", budget=7).order() == 7
    assert len(calls) == 1
    with pytest.raises(BudgetExceededError, match="group enumeration for 'C7' exceeded budget 6$"):
        enumerate_closure([rotation], "C7", budget=6)
    # seven points > 1 * 6 prove |G| > 6 before the elements are enumerated
    assert len(calls) == 1


@pytest.mark.parametrize("budget", [1, 2, 10, 50])
def test_infinite_group_exceeds_budget(budget):
    shear = RMatrix([[1, 1], [0, 1]])
    message = f"group enumeration for 'shear' exceeded budget {budget}$"
    with pytest.raises(BudgetExceededError, match=message):
        enumerate_closure([shear], "shear", budget)


def test_singular_generator_is_input_error():
    with pytest.raises(InputError, match="generator 2 of 'monoid' is not invertible"):
        enumerate_closure([RMatrix([[0, 1], [1, 0]]), RMatrix([[1, 0], [0, 0]])], "monoid")


def _permutation(group, m):
    """m's permutation of the group's points, one row-times-matrix pass."""
    sparse = m.sparse_rows()
    return tuple(group.point_index[_row_times(v, sparse)] for v in group.points)


@pytest.mark.parametrize("name", sorted(ORBIT_GROUPS))
def test_element_index_and_point_permutations(name):
    g = ORBIT_GROUPS[name]()
    assert [_index_of(g, m) for m in g.elements] == list(range(g.order()))
    assert tuple(_permutation(g, s) for s in g.generators) == g.generator_perms
    for m, x in zip(g.elements, g.images):
        assert _permutation(g, m)[: g.dim] == x[: g.dim]
    double = RMatrix([[2 if i == j else 0 for j in range(g.dim)] for i in range(g.dim)])
    with pytest.raises(KeyError):
        _index_of(g, double)
    with pytest.raises(KeyError):
        _permutation(g, double)


def _galois_image_by_matrices(group, k):
    """The earlier galois_image: sigma_k on every element, membership by
    hashing; the permutation of element indices, or None."""
    from math import gcd

    order_lcm = 1
    for m in group.elements:
        for row in m.rows:
            for e in row:
                order_lcm = order_lcm * e.order // gcd(order_lcm, e.order)
    if gcd(k % order_lcm if order_lcm > 1 else 1, order_lcm) != 1:
        raise InputError(f"sigma_{k} is not defined on entries of order lcm {order_lcm}")
    members = {m: i for i, m in enumerate(group.elements)}
    images = [m.galois(k) for m in group.elements]
    return [members[m] for m in images] if all(m in members for m in images) else None


@pytest.mark.parametrize(
    "name",
    ["G4", "S3_paper", "G(6,6,2)", "G(4,2,2)", "G(3,3,3)", "G(4,2,3)", "G(3,1,1)"]
    + ["explicit-twisted-swap", "explicit-G4-dense"],
)
def test_galois_image_matches_per_element_images(name):
    import re

    g = ORBIT_GROUPS[name]()
    outcomes = set()
    for k in (-1, 1, 2, 3, 5, 7, 11, 13, -7):
        try:
            expected = _galois_image_by_matrices(g, k)
        except InputError as exc:
            with pytest.raises(InputError, match=re.escape(str(exc))):
                galois_image(g, k)
            outcomes.add("undefined")
            continue
        assert galois_image(g, k) == expected
        outcomes.add(expected is not None)
    assert True in outcomes
    if name == "explicit-twisted-swap":
        assert False in outcomes


@pytest.mark.parametrize("name", ["G4", "G(3,3,3)", "explicit-twisted-swap"])
def test_galois_image_builds_no_matrix(monkeypatch, name):
    g = ORBIT_GROUPS[name]()
    expected = [_galois_image_by_matrices(g, k) for k in (-1, 2)]
    monkeypatch.setattr(RMatrix, "_trusted", classmethod(lambda cls, rows: pytest.fail("built an RMatrix")))
    monkeypatch.setattr(RMatrix, "__init__", lambda self, rows: pytest.fail("built an RMatrix"))
    assert [galois_image(g, k) for k in (-1, 2)] == expected


def _scan_every_element(group):
    """The earlier reflection scan, rank(g - 1) = 1 tested at every element:
    (reflection index, hyperplane position) pairs, ordered by hyperplane and
    then by index, and the hyperplanes with their e_H, 1 + the number of
    reflections on H."""
    by_hyperplane = {}
    for i, m in enumerate(group.elements):
        form = matgroup._hyperplane_form(m)
        if form is not None:
            by_hyperplane.setdefault(form, []).append(i)
    forms = sorted(by_hyperplane, key=lambda f: [repr(c) for c in f])
    table = [(i, h) for h, form in enumerate(forms) for i in by_hyperplane[form]]
    return table, [(form, len(by_hyperplane[form]) + 1) for form in forms]


# every G(d,e,n) of order <= 2,000: from rank 3 on, d^(n-1) n! <= d^n n!/e
# bounds d by 18; at ranks 1 and 2 a fixed order admits ever larger d, so
# those run to d = 12
SCAN_GROUPS = [
    (d, e, n)
    for n in range(1, 7)
    for d in range(1, 13 if n <= 2 else 19)
    for e in range(1, d + 1)
    if d % e == 0 and matgroup.monomial_order(d, e, n) <= 2000
]


SCAN_BUILDS = [functools.partial(build_monomial_group, *t) for t in SCAN_GROUPS] + [
    functools.partial(build_catalog_group, name) for name in ("G4", "S3_paper")
]
SCAN_IDS = ["G({},{},{})".format(*t) for t in SCAN_GROUPS] + ["G4", "S3_paper"]


@pytest.mark.parametrize(
    "build",
    SCAN_BUILDS
    # a cyclic group without reflections: diag(i, -i) has no eigenvalue 1
    + [lambda: _explicit([[[cyclo.root_of_unity(4, 1), 0], [0, cyclo.root_of_unity(4, 3)]]])]
    # seeded by its classes: diag(i, -i) generates it and is no reflection
    + [lambda: enumerate_closure(list(build_monomial_group(4, 2, 2).generators), "G(4,2,2) as a spec")],
    ids=SCAN_IDS + ["explicit-diag-i", "explicit-G(4,2,2)"],
)
def test_hyperplane_orbit_matches_the_scan_of_every_element(build):
    g = build()
    table, hyps = _scan_every_element(g)
    assert (reflections(g), hyperplanes(g)) == (len(table), hyps)
    # generator g sends H to the hyperplane of g^-1 r g, r a reflection on H
    position = {form: h for h, (form, _) in enumerate(hyps)}
    first = {h: i for i, h in reversed(table)}
    for s, perm in zip(g.generators, g.hyperplane_orbits[2]):
        moved = [matgroup._hyperplane_form(s.inverse() * g.elements[first[h]] * s) for h in range(len(hyps))]
        assert list(perm) == [position[form] for form in moved]


@pytest.mark.parametrize("build", SCAN_BUILDS, ids=SCAN_IDS)
def test_reflections_on_a_hyperplane_have_every_nontrivial_eigenvalue(build):
    # the reflections fixing H and 1 form a cyclic group of order e_H, so
    # their determinants, the nontrivial eigenvalues, are the e_H - 1
    # nontrivial e_H-th roots of unity, each once
    g = build()
    table, hyps = _scan_every_element(g)
    assert hyps == hyperplanes(g)
    on = {}
    for i, h in table:
        on.setdefault(h, []).append(linalg.det([list(r) for r in g.elements[i].rows]))
    assert sorted(on) == list(range(len(hyps)))
    for h, (_, e) in enumerate(hyps):
        roots = {cyclo.root_of_unity(e, k) for k in range(1, e)}
        assert len(on[h]) == len(set(on[h])) == e - 1 and set(on[h]) == roots


def test_the_generating_reflections_reach_hyperplanes_no_generator_does():
    # G(4,2,2) is generated by a swap, diag(i, -i) and diag(-1, 1), and the
    # middle one is no reflection: the hyperplanes x = +-i y are the orbit of
    # s_1' = swap diag(i, -i) alone
    g = build_monomial_group(4, 2, 2)
    assert [matgroup._hyperplane_form(s) is not None for s in g.generators] == [True, False, True]
    assert all(matgroup._hyperplane_form(s) is not None for s in g.generating_reflections)
    assert (reflections(g), len(hyperplanes(g))) == (6, 6)
    generators_only = dataclasses.replace(g, generating_reflections=(g.generators[0], g.generators[2]))
    assert (reflections(generators_only), len(hyperplanes(generators_only))) == (4, 4)


@pytest.mark.parametrize("seeded", [False, True], ids=["class-seeds", "generating-reflections"])
def test_e_H_is_the_lcm_of_the_seed_orders(seeded):
    # diag(-1, 1) and diag(i, 1) fix the one hyperplane x = 0; the first seed
    # has order 2 and e_H = 4
    gens = [RMatrix([[-1, 0], [0, 1]]), RMatrix([[cyclo.root_of_unity(4, 1), 0], [0, 1]])]
    g = enumerate_closure(gens, "mu_4", generating_reflections=tuple(gens) if seeded else None)
    assert g.order() == 4 and matgroup._hyperplane_form(g.elements[1]) == (cyclo.ONE, cyclo.ZERO)
    assert hyperplanes(g) == [((cyclo.ONE, cyclo.ZERO), 4)] and reflections(g) == 3
