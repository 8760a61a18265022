import random

import pytest

from reflbench import cyclo, linalg, matgroup
from reflbench.errors import BudgetExceededError, InputError
from reflbench.matgroup import (
    RMatrix,
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
    g = build_monomial_group(3, 3, 2)
    again = enumerate_closure(list(g.elements), "closure-of-closure")
    assert set(again.elements) == set(g.elements)


def test_reflection_counts():
    s3 = build_catalog_group("S3_paper")
    refl = reflections(s3)
    assert len(refl) == 3 and len(hyperplanes(s3)) == 3
    assert all(r.order_eH == 2 for r in refl)

    g4 = build_catalog_group("G4")
    refl4 = reflections(g4)
    assert len(refl4) == 8 and len(hyperplanes(g4)) == 4
    assert all(r.order_eH == 3 for r in refl4)

    b2 = build_monomial_group(2, 1, 2)
    assert len(reflections(b2)) == 4 and len(hyperplanes(b2)) == 4


def test_reflections_fix_their_hyperplane_pointwise():
    g4 = build_catalog_group("G4")
    for r in reflections(g4):
        # kernel basis of the defining form, checked fixed exactly
        a, b = r.hyperplane
        if a.is_zero():
            v = (cyclo.ONE, cyclo.ZERO)
        else:
            v = (-b / a, cyclo.ONE)
        image = tuple(
            sum((r.element.rows[i][j] * v[j] for j in range(2)), cyclo.ZERO)
            for i in range(2)
        )
        assert image == v


def test_distinguished_reflections_biject_with_hyperplanes():
    for g in (build_catalog_group("G4"), build_catalog_group("S3_paper"), build_monomial_group(3, 3, 2)):
        refl = reflections(g)
        dist = [r for r in refl if r.distinguished]
        assert len(dist) == len(hyperplanes(g))
        assert len({r.hyperplane for r in dist}) == len(dist)
        zeta = {r.hyperplane: cyclo.root_of_unity(r.order_eH, 1) for r in dist}
        assert all(r.nontrivial_eigenvalue == zeta[r.hyperplane] for r in dist)


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


def test_galois_image_identity_and_reality():
    g = build_monomial_group(1, 1, 3)
    _, same, perm = galois_image(g, 1)
    assert same and perm == list(range(g.order()))
    _, same_conj, perm_conj = galois_image(g, -1)
    assert same_conj and perm_conj == list(range(g.order()))  # real entries


def test_galois_image_g4_is_automorphism():
    g4 = build_catalog_group("G4")
    images, same, perm = galois_image(g4, -1)
    assert same
    # the induced permutation respects products on generators x elements
    for a in g4.generators:
        ia = g4.index_of(a)
        for i, b in enumerate(g4.elements):
            lhs = perm[g4.index_of(a * b)]
            rhs = g4.index_of(g4.elements[perm[ia]] * g4.elements[perm[i]])
            assert lhs == rhs


def test_hermitian_form():
    for label in ("G4", "S3_paper"):
        g = build_catalog_group(label)
        h = invariant_hermitian_form(g)
        assert h.conjugate().transpose() == h
        for w in g.elements:
            assert w.conjugate().transpose() * h * w == h
        assert hermitian_is_positive_definite(h, tol=1e-9)
    # monomial groups are unitary in the standard form
    assert invariant_hermitian_form(build_monomial_group(3, 3, 2)).is_identity()
    hs3 = invariant_hermitian_form(build_catalog_group("S3_paper"))
    assert all(e.is_rational() for row in hs3.rows for e in row)


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
        d = m.det()
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
    for _ in range(40):
        a, b, c = (rng.choice(g.elements) for _ in range(3))
        for x, y in ((a, b), (entrywise_sum(a, c), b), (a, entrywise_sum(b, c))):
            product = x * y
            assert product == RMatrix(dense(x, y))
            assert hash(product) == hash(RMatrix(dense(x, y)))
            assert all(isinstance(e, cyclo.CycNum) for row in product.rows for e in row)
