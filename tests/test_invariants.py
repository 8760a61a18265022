import random
from fractions import Fraction

import pytest

from reflbench import cyclo, invariants, linalg, matgroup
from reflbench.arrangement import Arrangement, arrangement_of, discriminant_poly
from reflbench.invariants import (
    MolienError,
    _monomials,
    _scalar_cosets,
    act_matrix,
    catalog_invariant_pair,
    fundamental_invariants,
    g12_alpha_beta,
    invariant_space,
    is_invariant,
    molien_degrees,
    molien_series,
    reynolds,
)
from reflbench.matgroup import (
    RMatrix,
    build_catalog_group,
    build_monomial_group,
    group_from_spec,
    hyperplanes,
    reflections,
)
from reflbench.mpoly import (
    MPoly,
    jacobian,
    poly_square_root,
    proportional,
    squarefree_linear_factor_check,
)

Z1 = MPoly.variable(2, 0)
Z2 = MPoly.variable(2, 1)


def _index_of(g, m):
    """The element index of m, read off its rows; KeyError if m is not in g."""
    return g.element_index[tuple(map(g.point_index.__getitem__, m.rows))]


def test_printed_invariants_are_invariant():
    g4 = build_catalog_group("G4")
    g1, g2 = catalog_invariant_pair("G4")
    assert is_invariant(g4, g1) and is_invariant(g4, g2)
    s3 = build_catalog_group("S3_paper")
    f1, f2 = catalog_invariant_pair("S3_paper")
    assert is_invariant(s3, f1) and is_invariant(s3, f2)
    # composing with a generator literally reproduces the polynomial
    assert act_matrix(g1, g4.generators[0]) == g1
    assert act_matrix(f2, s3.generators[0]) == f2


def test_molien_degrees():
    assert molien_degrees(build_catalog_group("G4")) == [4, 6]
    assert molien_degrees(build_catalog_group("S3_paper")) == [2, 3]
    assert molien_degrees(build_monomial_group(2, 1, 2)) == [2, 4]


def test_molien_series_matches_invariant_space_dims():
    # independent cross-check of two code paths
    g4 = build_catalog_group("G4")
    series = molien_series(g4, 9)
    for d in range(6):
        assert series[d] == len(invariant_space(g4, d)), d


def test_reynolds_idempotent_and_projects():
    g4 = build_catalog_group("G4")
    rng = random.Random(11)
    for _ in range(25):
        p = MPoly(
            2,
            {
                (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-3, 3))
                for _ in range(3)
            },
        )
        r = reynolds(g4, p)
        assert reynolds(g4, r) == r
    g1, _ = catalog_invariant_pair("G4")
    assert reynolds(g4, g1) == g1
    r = reynolds(g4, Z1**4)
    ok, c = proportional(r, g1)
    assert ok and c

    s3 = build_catalog_group("S3_paper")
    f1, _ = catalog_invariant_pair("S3_paper")
    ok, _ = proportional(reynolds(s3, Z1**2), f1)
    assert ok


def test_invariant_space_dimensions():
    g4 = build_catalog_group("G4")
    assert len(invariant_space(g4, 4)) == 1
    assert len(invariant_space(g4, 5)) == 0
    assert len(invariant_space(g4, 0)) == 1
    g1, _ = catalog_invariant_pair("G4")
    ok, _ = proportional(invariant_space(g4, 4)[0], g1)
    assert ok


def _reynolds_invariant_space(group, degree):
    """The earlier invariant_space: the Reynolds image of every degree-d
    monomial, a sum over all of the group, then the same rref and monic."""
    monos = _monomials(group.dim, degree)
    images = [reynolds(group, MPoly(group.dim, {e: 1})) for e in monos]
    rows = [[p.terms.get(e, cyclo.ZERO) for e in monos] for p in images if not p.is_zero()]
    reduced, _ = linalg.rref(rows)
    return [_monic(MPoly(group.dim, {e: c for e, c in zip(monos, row) if c})) for row in reduced]


def _monic(p):
    """p scaled so that its graded-lex leading coefficient is 1."""
    return p if p.is_zero() else p.scale(p.leading_term()[1].inverse())


def _group(g):
    return build_catalog_group(g) if isinstance(g, str) else build_monomial_group(*g)


def _group_id(g):
    return g if isinstance(g, str) else "G(%d,%d,%d)" % g


@pytest.mark.parametrize(
    "group", ["G4", "S3_paper", (3, 3, 3), (8, 8, 2), (1, 1, 1), (2, 1, 1), (1, 1, 3)], ids=_group_id
)
def test_invariant_space_equals_reynolds_oracle(group):
    # the kernel over the generators and the Reynolds images over every
    # element span one space, and its reduced basis is unique; G(1,1,1) is
    # trivial, so its block is zero and every monomial is a free column
    g = _group(group)
    for d in range(max(molien_degrees(g)) + 1):
        assert invariant_space(g, d) == _reynolds_invariant_space(g, d), d


def test_invariant_space_reads_no_elements(monkeypatch):
    from reflbench.matgroup import RGroup

    g = build_monomial_group(2, 2, 3)
    space = invariant_space(g, 4)
    walked = property(lambda self: pytest.fail("invariant_space walked the group"))
    monkeypatch.setattr(RGroup, "elements", walked, raising=False)
    assert invariant_space(g, 4) == space


# ---------------------------------------------------------------------------
# Reynolds averaging over G/Z against the sum over every element


def _reynolds_by_elements(group, p):
    """The earlier `reynolds`: (1/|G|) sum of p o g over every element."""
    total = MPoly.zero(p.nvars)
    for g in group.elements:
        total = total + act_matrix(p, g)
    return total.scale(Fraction(1, group.order()))


def _explicit_with_minus_one():
    """G2 on its root lattice (order 12, w0 = -I) with the scalar zeta_3 I
    added: order 36, and its scalars are the sixth roots of unity."""
    r, z3 = cyclo.rational, cyclo.CycNum(3, [0, 1])
    gens = [[r(-1), r(0), r(1), r(1)], [r(1), r(3), r(0), r(-1)], [z3, r(0), r(0), z3]]
    spec = {"kind": "explicit", "generators": [[cyclo.to_json(c) for c in m] for m in gens]}
    return group_from_spec(spec)


# with |Z| = 2, 1, 3, 2, 2, 3, 2, 2, 2, 1, 5, 2, 1, 2, 3 and 6
REYNOLDS_GROUPS = [
    "G4", "S3_paper", (3, 3, 3), (2, 1, 3), (4, 4, 2), (3, 1, 2), (2, 2, 4), (6, 3, 2), (4, 2, 3),
    (1, 1, 4), (5, 1, 2), (6, 6, 2), (1, 1, 1), (2, 1, 1), (3, 1, 1), "explicit",
]  # fmt: skip


def _reynolds_group(label):
    return _explicit_with_minus_one() if label == "explicit" else _group(label)


def _random_poly(rng, nvars):
    """A mixed-degree polynomial with rational and cyclotomic coefficients."""
    top = 5 if nvars <= 2 else 3
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, top)):
            exps[rng.randrange(nvars)] += 1
        order = rng.choice((1, 3, 4, 5))
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cyclo.euler_phi(order))]
        terms[tuple(exps)] = cyclo.CycNum(order, coeffs)
    return MPoly(nvars, terms)


@pytest.mark.parametrize("label", REYNOLDS_GROUPS, ids=_group_id)
def test_reynolds_matches_the_sum_over_every_element(label):
    g = _reynolds_group(label)
    rng = random.Random(f"reynolds:{_group_id(label)}")
    polys = [MPoly.zero(g.dim), MPoly.constant(g.dim, Fraction(-7, 3))]
    polys += [_random_poly(rng, g.dim) for _ in range(12)]
    for p in polys:
        r = reynolds(g, p)
        assert r == _reynolds_by_elements(g, p), p
        assert reynolds(g, r) == r
    assert reynolds(g, polys[1]) == polys[1]


@pytest.mark.parametrize("label", REYNOLDS_GROUPS, ids=_group_id)
def test_scalar_cosets_partition_the_group(label):
    # Z is read off the matrices here, T must meet each coset of Z once
    g = _reynolds_group(label)
    z, transversal = _scalar_cosets(g)
    n = g.dim
    lam_i = [RMatrix([[m.rows[0][0] * (i == j) for j in range(n)] for i in range(n)]) for m in g.elements]
    scalars = [m for m, s in zip(g.elements, lam_i) if m == s]
    assert z == len(scalars) and len(transversal) * z == g.order()
    covered = sorted(_index_of(g, g.elements[t] * s) for t in transversal for s in scalars)
    assert covered == list(range(g.order()))
    assert transversal == sorted(transversal) and transversal[0] == 0


@pytest.mark.parametrize(
    "label,z", [("G4", 2), ("S3_paper", 1), ((3, 3, 3), 3), ((5, 1, 2), 5), ("explicit", 6)], ids=str
)
def test_reynolds_composes_once_per_coset(monkeypatch, label, z):
    calls = []
    images = invariants.monomial_images
    monkeypatch.setattr(invariants, "monomial_images", lambda *a: calls.append(a) or images(*a))
    monkeypatch.setattr(matgroup, "conjugacy_classes", lambda g: pytest.fail("reynolds ran the class scan"))
    g = _reynolds_group(label)
    dim = g.dim
    # one composition per element of T, none for the degree z does not divide
    mixed = MPoly(dim, {(z,) + (0,) * (dim - 1): 2, (0,) * (dim - 1) + (z + 1,): 3})
    r = reynolds(g, mixed)
    assert len(calls) == g.order() // z
    assert all(monos == [e for e in mixed.terms if sum(e) % z == 0] for monos, _ in calls)
    assert r == _reynolds_by_elements(g, mixed)
    if z > 1:
        calls.clear()
        off = MPoly(dim, {(1,) + (0,) * (dim - 1): 1, (0,) * (dim - 1) + (z + 1,): 1})
        assert reynolds(g, off).is_zero()
        assert calls == []
        assert _reynolds_by_elements(g, off).is_zero()


def test_reynolds_refuses_a_polynomial_of_another_arity():
    g4 = build_catalog_group("G4")
    for p in (MPoly.variable(3, 0), MPoly.zero(1), MPoly.constant(3, 1)):
        with pytest.raises(ValueError, match="arity"):
            reynolds(g4, p)


@pytest.mark.parametrize(
    "group", ["G4", "S3_paper", (3, 1, 3), (4, 2, 3), (2, 2, 4), (3, 3, 3)], ids=_group_id
)
def test_jacobian_is_steinberg_product(group):
    # Steinberg: the Jacobian of basic invariants is, up to a scalar, the
    # product of alpha_H^(e_H - 1) over the reflecting hyperplanes
    g = _group(group)
    jac = jacobian(list(fundamental_invariants(g).generators))
    product = MPoly.constant(g.dim, 1)
    for form, e in hyperplanes(g):
        product = product * MPoly.linear_form(form) ** (e - 1)
    ok, _ = proportional(jac, product)
    assert ok


def test_fundamental_invariants():
    basis = fundamental_invariants(build_catalog_group("G4"))
    assert basis.degrees == (4, 6)
    assert not jacobian(list(basis.generators)).is_zero()
    g4 = build_catalog_group("G4")
    assert all(is_invariant(g4, p) for p in basis.generators)
    assert all(p.leading_term()[1] == 1 * p.leading_term()[1] and p == _monic(p) for p in basis.generators)


def test_discriminant_relations_exact():
    from reflbench import cyclo

    g4 = build_catalog_group("G4")
    g1, g2 = catalog_invariant_pair("G4")
    ok, scalar = proportional(discriminant_poly(arrangement_of(g4)), g1**3 - g2**2)
    # frozen: with RREF-normalized hyperplane forms the exact scalar is -1/8
    assert ok and scalar == cyclo.rational(Fraction(-1, 8))
    s3 = build_catalog_group("S3_paper")
    f1, f2 = catalog_invariant_pair("S3_paper")
    ok, scalar = proportional(discriminant_poly(arrangement_of(s3)), f1**3 - f2**2)
    assert ok and scalar == cyclo.rational(Fraction(4, 27))


def test_jacobian_squared_vs_reduced_discriminant():
    # jac(basic invariants)^2 is proportional to prod alpha_H^(2(e_H - 1))
    for label in ("G4", "S3_paper"):
        g = build_catalog_group(label)
        arr = arrangement_of(g)
        pair = catalog_invariant_pair(label)
        jac = jacobian(list(pair))
        reduced = Arrangement(
            dim=arr.dim,
            hyperplanes=arr.hyperplanes,
            multiplicities=tuple(2 * (e - 1) for e in arr.multiplicities),
        )
        ok, _ = proportional(jac * jac, discriminant_poly(reduced))
        assert ok, label


def test_g12_model_free_checks():
    alpha, beta = g12_alpha_beta()
    assert alpha.total_degree() == 6 and beta.total_degree() == 8
    diff = beta**3 - (alpha**4).scale(27)
    root = poly_square_root(diff)
    assert root is not None and root.total_degree() == 12
    assert root * root == diff
    assert squarefree_linear_factor_check(root)
    jac = jacobian([alpha, beta])
    assert jac.total_degree() == 12 and not jac.is_zero()
    ok, scalar = proportional(jac, root)
    # frozen: jac = 16*sqrt(-2) * root, with sqrt(-2) = zeta8 + zeta8^3
    from reflbench import cyclo

    sqrt_m2 = cyclo.root_of_unity(8, 1) + cyclo.root_of_unity(8, 3)
    assert ok and scalar == cyclo.rational(16) * sqrt_m2


def test_jacobian_s3_degree_three_nonzero():
    f1, f2 = catalog_invariant_pair("S3_paper")
    j = jacobian([f1, f2])
    assert j.total_degree() == 3 and not j.is_zero()


def test_molien_consistency_identities():
    for g in (
        build_catalog_group("G4"),
        build_catalog_group("S3_paper"),
        build_monomial_group(2, 1, 2),
        build_monomial_group(3, 3, 2),
        build_monomial_group(2, 2, 3),
        build_monomial_group(2, 2, 4),
    ):
        degs = molien_degrees(g)
        assert sum(d - 1 for d in degs) == len(reflections(g))
        prod = 1
        for d in degs:
            prod *= d
        assert prod == g.order()


# ---------------------------------------------------------------------------
# Differential test against the earlier det(1 - t g): a Leibniz expansion over
# all dim! permutations, each term a product of linear polynomials in t


def _leibniz_det_one_minus_tg(m):
    from itertools import permutations

    from reflbench import cyclo

    dim = m.dim
    coeffs = [cyclo.ZERO] * (dim + 1)

    def sign(perm):
        s = 1
        seen = [False] * dim
        for i in range(dim):
            if seen[i]:
                continue
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                s = -s
        return s

    for perm in permutations(range(dim)):
        sgn = sign(perm)
        # product over i of (delta - t*g)[i][perm[i]], each a linear poly in t
        prod = [cyclo.ONE if sgn > 0 else -cyclo.ONE]
        for i in range(dim):
            const = cyclo.ONE if perm[i] == i else cyclo.ZERO
            lin = -m.rows[i][perm[i]]
            if not const and not lin:
                prod = None
                break
            nxt = [cyclo.ZERO] * (len(prod) + 1)
            for k, c in enumerate(prod):
                if c:
                    if const:
                        nxt[k] = nxt[k] + c * const
                    if lin:
                        nxt[k + 1] = nxt[k + 1] + c * lin
            prod = nxt
        if prod:
            for k, c in enumerate(prod):
                coeffs[k] = coeffs[k] + c
    return coeffs


@pytest.mark.parametrize(
    "group",
    ["G4", "S3_paper", (2, 1, 3), (4, 4, 3), (2, 2, 4), (2, 1, 4)],
    ids=lambda g: g if isinstance(g, str) else "G(%d,%d,%d)" % g,
)
def test_molien_denominators_match_leibniz_expansion(group, monkeypatch):
    from reflbench import invariants

    g = build_catalog_group(group) if isinstance(group, str) else build_monomial_group(*group)
    for m in g.elements:
        assert invariants._det_one_minus_tg(m) == _leibniz_det_one_minus_tg(m)
    series = molien_series(g, 14)
    monkeypatch.setattr(invariants, "_det_one_minus_tg", _leibniz_det_one_minus_tg)
    assert molien_series(g, 14) == series


def _per_element_molien_series(group, nterms):
    """The earlier Molien sum: one power-series inversion per element, on the
    Leibniz denominators."""
    from reflbench import cyclo

    total = [cyclo.ZERO] * nterms
    for g in group.elements:
        den = _leibniz_det_one_minus_tg(g)
        inv = [cyclo.ONE] + [cyclo.ZERO] * (nterms - 1)
        for k in range(1, nterms):
            for j in range(1, min(k, len(den) - 1) + 1):
                inv[k] = inv[k] - den[j] * inv[k - j]
        total = [t + c for t, c in zip(total, inv)]
    return [c.as_fraction() / group.order() for c in total]


@pytest.mark.parametrize(
    "group",
    ["G4", "S3_paper", (4, 2, 3), (3, 1, 3), (3, 1, 1), (3, 3, 3), (2, 2, 4), (1, 1, 4)],
    ids=lambda g: g if isinstance(g, str) else "G(%d,%d,%d)" % g,
)
def test_molien_series_matches_per_element_sum(group, monkeypatch):
    from reflbench import invariants, matgroup

    g = build_catalog_group(group) if isinstance(group, str) else build_monomial_group(*group)
    calls = []
    det = invariants._det_one_minus_tg
    monkeypatch.setattr(invariants, "_det_one_minus_tg", lambda m: calls.append(m) or det(m))
    assert molien_series(g, 16) == _per_element_molien_series(g, 16)
    # one denominator per conjugacy class, read off its first element
    classes = matgroup.conjugacy_classes(g)
    assert calls == [g.elements[cls[0]] for cls in classes]
