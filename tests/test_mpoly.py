import random
from fractions import Fraction

import pytest

from reflbench import cyclo
from reflbench.matgroup import build_catalog_group
from reflbench.mpoly import (
    MPoly,
    from_json,
    jacobian,
    monomial_images,
    poly_square_root,
    proportional,
    squarefree_linear_factor_check,
    to_json,
)

Z1 = MPoly.variable(2, 0)
Z2 = MPoly.variable(2, 1)


def test_compose_square_of_sum():
    p = Z1**2
    q = p.compose([Z1 + Z2, Z2])
    assert q == (Z1 + Z2) ** 2


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        (Z1 + Z2).compose([Z1])


def _compose_oracle(p: MPoly, substitution: list[MPoly]) -> MPoly:
    """The earlier `MPoly.compose`: a power table of its own, and each term
    expanded as its coefficient times the powers of its variables' images."""
    if len(substitution) != p.nvars:
        raise ValueError("substitution arity mismatch")
    if not substitution:
        return p
    m = substitution[0].nvars
    if any(s.nvars != m for s in substitution):
        raise ValueError("substitution polynomials have mixed arities")
    powers: list[dict[int, MPoly]] = [dict() for _ in range(p.nvars)]

    def power(i: int, k: int) -> MPoly:
        cache = powers[i]
        if k not in cache:
            cache[k] = MPoly.constant(m, 1) if k == 0 else power(i, k - 1) * substitution[i]
        return cache[k]

    result = MPoly.zero(m)
    for exps, c in p.terms.items():
        part = MPoly.constant(m, c)
        for i, e in enumerate(exps):
            if e:
                part = part * power(i, e)
        result = result + part
    return result


def _random_poly(rng: random.Random, nvars: int, nterms: int, degree: int) -> MPoly:
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)), cyclo.root_of_unity(3, 1), cyclo.root_of_unity(4, 3)]
    return MPoly(
        nvars,
        {tuple(rng.randint(0, degree) for _ in range(nvars)): rng.choice(coeffs) for _ in range(nterms)},
    )


def test_compose_matches_the_earlier_expansion():
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        p = _random_poly(rng, n, rng.randint(0, 6), 4)
        substitution = [_random_poly(rng, m, rng.randint(0, 3), 2) for _ in range(n)]
        assert p.compose(substitution) == _compose_oracle(p, substitution)
    with pytest.raises(ValueError, match="mixed arities"):
        (Z1 + Z2).compose([Z1, MPoly.variable(3, 0)])
    constant = MPoly.constant(0, 5)
    assert constant.compose([]) == _compose_oracle(constant, []) == constant


def test_monomial_images_match_products_of_powers():
    # the reference multiplies z_i^0 = 1 in, once per variable of each monomial
    rng = random.Random(29)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        substitution = [_random_poly(rng, m, rng.randint(1, 3), 2) for _ in range(n)]
        monos = list({tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 6))})
        for e, image in zip(monos, monomial_images(monos, substitution)):
            reference = MPoly.constant(m, 1)
            for s, k in zip(substitution, e):
                reference = reference * s**k
            assert image == reference


def test_monomial_images_never_multiply_by_one(monkeypatch):
    # s0^2, s0^3 and s1^2 are the powers, then one product per monomial
    g = build_catalog_group("G4").generators[0]
    substitution = [MPoly.linear_form(row) for row in g.rows]
    expected = monomial_images([(3, 1), (2, 2)], substitution)
    calls = []
    multiply = MPoly.__mul__
    monkeypatch.setattr(MPoly, "__mul__", lambda a, b: calls.append(b) or multiply(a, b))
    assert monomial_images([(3, 1), (2, 2)], substitution) == expected
    assert len(calls) == 5
    assert monomial_images([(1, 0), (0, 0)], substitution) == [substitution[0], MPoly.constant(2, 1)]
    assert len(calls) == 5


def test_jacobian_of_coordinates():
    assert jacobian([Z1, Z2]) == MPoly.constant(2, 1)


def test_proportional():
    ok, c = proportional(Z1.scale(2), Z1)
    assert ok and c == cyclo.rational(2)
    ok, _ = proportional(Z1, Z2)
    assert not ok
    ok, c = proportional(MPoly.zero(2), MPoly.zero(2))
    assert ok


def test_square_root_basic():
    p = (Z1 * Z2) ** 2
    assert poly_square_root(p) == Z1 * Z2
    assert poly_square_root(Z1**3) is None
    assert poly_square_root(MPoly.zero(2)).is_zero()


def test_square_root_with_nonsquare_scalar():
    # 2*(z1+z2)^2 has the cyclotomic square root sqrt(2)*(z1+z2)
    p = ((Z1 + Z2) ** 2).scale(2)
    r = poly_square_root(p)
    assert r is not None and r * r == p


def test_square_root_random_squares():
    rng = random.Random(5)
    for _ in range(20):
        q = MPoly(
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
                for _ in range(4)
            },
        )
        p = q * q
        r = poly_square_root(p)
        assert r is not None and r * r == p


def test_squarefree_linear_factor_check():
    p = Z1 * Z2 * (Z1 - Z2)
    assert squarefree_linear_factor_check(p)
    assert not squarefree_linear_factor_check(Z1**2 * Z2)


def test_squarefree_is_decided_exactly():
    # two distinct roots 1e-10 apart: a root-separation test at 1e-8 rejected this
    p = (Z1 - Z2) * (Z1 - Z2.scale(1 + Fraction(1, 10**10)))
    assert squarefree_linear_factor_check(p)
    assert not squarefree_linear_factor_check((Z1 - Z2) ** 2)
    # u(t) = p(t, 1) = t is squarefree, but [1:0] is a double root of X Y^2
    assert not squarefree_linear_factor_check(Z1 * Z2**2)
    assert squarefree_linear_factor_check(Z2 * (Z1 - Z2))


def test_squarefree_rejects_nonbinary():
    with pytest.raises(ValueError):
        squarefree_linear_factor_check(MPoly.variable(3, 0))


def test_graded_lex_leading_term():
    p = Z1 * Z2 + Z2**3 + Z1
    exps, _ = p.leading_term()
    assert exps == (0, 3)  # degree dominates
    p2 = Z1 * Z2 + Z1**2
    assert p2.leading_term()[0] == (2, 0)  # then lex with z1 > z2


def test_json_roundtrip_and_term_order():
    p = (Z1 + Z2.scale(Fraction(1, 2))) ** 3
    blob = to_json(p)
    degrees = [sum(t["exps"]) for t in blob["terms"]]
    assert degrees == sorted(degrees, reverse=True)
    assert from_json(blob) == p


@pytest.mark.parametrize(
    "change", [{"nvars": 2.0}, {"nvars": True}, {"exps": [1.5, 0]}, {"exps": [False, 1]}],
    ids=["float-nvars", "bool-nvars", "float-exponent", "bool-exponent"],
)
def test_from_json_reads_exact_integers_only(change):
    blob = to_json(Z1 * Z2 + Z1)
    blob["nvars"] = change.get("nvars", blob["nvars"])
    blob["terms"][0]["exps"] = change.get("exps", blob["terms"][0]["exps"])
    with pytest.raises(ValueError, match="malformed"):
        from_json(blob)
