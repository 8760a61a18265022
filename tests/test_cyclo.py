import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from reflbench import cyclo, linalg
from reflbench.cyclo import CycNum, embed_complex, from_json, galois, rational, root_of_unity, to_json


def test_sum_of_cube_roots_is_zero_like():
    # 1 + z3 + z3^2 = 0, so z3 + z3^2 = -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == rational(-1)


def test_sqrt_minus_three_squares_to_minus_three():
    s = root_of_unity(3, 1) - root_of_unity(3, 2)
    assert s * s == rational(-3)


def test_zeta4_squared():
    assert root_of_unity(4, 2) == rational(-1)


def test_field_inverse():
    a = rational(2) + root_of_unity(5)
    assert a * a.inverse() == rational(1)


def test_sqrt_minus_three_inverse():
    s = root_of_unity(3, 1) - root_of_unity(3, 2)
    assert (rational(1) / s) * s == rational(1)


def test_order_minimization_on_product():
    assert root_of_unity(8) * root_of_unity(8) == root_of_unity(4)
    z6 = root_of_unity(6)
    assert z6.order == 3  # zeta_6 = 1 + zeta_3 lives in Q(zeta_3)


def test_multiplicative_order_contract():
    for n in (1, 2, 3, 4, 6, 8, 12):
        for k in range(0, n):
            z = root_of_unity(n, k)
            expected = n // gcd(n, k) if k else 1
            p = z
            order = 1
            while p != rational(1):
                p = p * z
                order += 1
                assert order <= n
            assert order == expected


def test_galois_conjugation():
    z3 = root_of_unity(3)
    assert galois(z3, -1) == root_of_unity(3, 2)
    s = z3 - root_of_unity(3, 2)
    assert galois(s, -1) == -s  # conjugate of sqrt(-3)
    a = rational(Fraction(7, 3)) + root_of_unity(8, 3)
    assert galois(a, 1) == a


def test_galois_rejects_noncoprime():
    with pytest.raises(ValueError):
        galois(root_of_unity(8), 2)


def test_galois_composition_and_involution():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([5, 7, 8, 9, 12])
        a = CycNum(n, [Fraction(rng.randint(-3, 3)) for _ in range(cyclo.euler_phi(n))])
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        k1, k2 = rng.choice(units), rng.choice(units)
        m = a.order
        if m == 1:
            continue
        u1 = k1 % m if gcd(k1, m) == 1 else 1
        u2 = k2 % m if gcd(k2, m) == 1 else 1
        assert galois(galois(a, u1), u2) == galois(a, (u1 * u2) % m)
        assert galois(galois(a, -1), -1) == a


def test_embed_floats():
    assert embed_complex(rational(1)) == 1.0 + 0j
    assert abs(embed_complex(root_of_unity(4)) - 1j) < 1e-12
    s = root_of_unity(3) - root_of_unity(3, 2)
    assert abs(embed_complex(s) - 1.7320508075688772j) < 1e-9


def test_field_axioms_random_triples():
    rng = random.Random(42)

    def rand():
        n = rng.choice([1, 3, 4, 5, 8, 12])
        return CycNum(
            n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cyclo.euler_phi(n))]
        )

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        if b:
            assert (a / b) * b == a


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        rational(1) / rational(0)


def test_normalization_idempotent():
    a = CycNum(12, [Fraction(1), Fraction(0), Fraction(2), Fraction(0)])
    b = CycNum(a.order, a.coeffs)
    assert a == b and a.order == b.order and a.coeffs == b.coeffs


def test_json_roundtrip_bit_exact():
    values = [
        rational(Fraction(-22, 7)),
        root_of_unity(8, 3) + rational(2),
        root_of_unity(3) - root_of_unity(3, 2),
        cyclo.ZERO,
    ]
    for v in values:
        blob = json.dumps(to_json(v), sort_keys=True)
        again = from_json(json.loads(blob))
        assert again == v
        assert json.dumps(to_json(again), sort_keys=True) == blob


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json({"order": 5, "coeffs": [["1", "1"]]})  # wrong length


def test_json_order_cap():
    n = cyclo.MAX_JSON_ORDER + 1
    ones = [["1", "1"]] * cyclo.euler_phi(n)
    with pytest.raises(ValueError, match="exceeds the limit"):
        from_json({"order": n, "coeffs": ones})
    z = root_of_unity(63, 5)
    assert from_json(to_json(z)) == z


def test_sqrt_rational():
    for q in (2, 3, 5, -1, -3, 12, Fraction(9, 4), Fraction(-27, 2)):
        r = cyclo.sqrt_rational(q)
        assert r * r == rational(q)


# ---------------------------------------------------------------------------
# Differential test against the earlier order-minimisation path: every value
# reduced by long division, and every descent Q(zeta_n) -> Q(zeta_(n/p)) one
# fresh Gaussian elimination on the augmented matrix [columns | vector].


def _old_reduce(n, dense):
    poly = cyclo.cyclotomic_poly(n)
    phi = len(poly) - 1
    d = [Fraction(c) for c in dense]
    for e in range(len(d) - 1, phi - 1, -1):
        c = d[e]
        if c:
            for i, pc in enumerate(poly):
                d[e - phi + i] -= c * pc
    d = d[:phi]
    return d + [Fraction(0)] * (phi - len(d))


@lru_cache(maxsize=None)
def _old_columns(n, m):
    step = n // m
    cols = []
    for j in range(cyclo.euler_phi(m)):
        dense = [0] * (j * step + 1)
        dense[j * step] = 1
        cols.append(_old_reduce(n, dense))
    return tuple(cols)


def _old_solve(cols, vec):
    ncols, nrows = len(cols), len(vec)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [vec[i]] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pr = next((r for r in range(row, nrows) if aug[r][col]), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    if any(aug[r][ncols] for r in range(row, nrows)):
        return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def _old_normalize(order, dense):
    coeffs = _old_reduce(order, dense)
    n = order
    changed = True
    while changed and n > 1:
        changed = False
        if all(c == 0 for c in coeffs[1:]):
            return 1, (coeffs[0],)
        for p in cyclo._prime_factors(n):
            m = n // p
            if m == 1:
                continue
            sol = _old_solve(_old_columns(n, m), coeffs)
            if sol is not None:
                n, coeffs = m, sol
                changed = True
                break
    if n == 1:
        return 1, (coeffs[0],)
    return n, tuple(coeffs)


def _old_lift(a, n):
    step = n // a.order
    dense = [Fraction(0)] * ((len(a.coeffs) - 1) * step + 1)
    dense[::step] = a.coeffs
    return _old_reduce(n, dense)


def _old_add(a, b):
    n = a.order * b.order // gcd(a.order, b.order)
    return _old_normalize(n, [x + y for x, y in zip(_old_lift(a, n), _old_lift(b, n))])


def _old_mul(a, b):
    n = a.order * b.order // gcd(a.order, b.order)
    x, y = _old_lift(a, n), _old_lift(b, n)
    conv = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, ca in enumerate(x):
        for j, cb in enumerate(y):
            conv[i + j] += ca * cb
    return _old_normalize(n, conv)


def _old_inverse(a):
    # solve a * y = 1: column j of the system is a * zeta^j
    n, phi = a.order, len(a.coeffs)
    cols = []
    for j in range(phi):
        dense = [Fraction(0)] * j + list(a.coeffs)
        cols.append(_old_reduce(n, dense))
    one = [Fraction(1)] + [Fraction(0)] * (phi - 1)
    return _old_normalize(n, _old_solve(cols, one))


def _old_galois(a, k):
    n = a.order
    dense = [Fraction(0)] * n
    for i, c in enumerate(a.coeffs):
        dense[(i * k) % n] += c
    return _old_normalize(n, dense)


def _random_dense(rng, n, full=False):
    # an element of Q(zeta_n), or of a random subfield Q(zeta_m), m | n,
    # written over zeta_n
    m = rng.choice([n, rng.choice([d for d in range(1, n + 1) if n % d == 0])])
    m = n if full else m
    step = n // m
    dense = [Fraction(0)] * n
    for _ in range(rng.randint(1, 4) + (n if full else 0)):
        dense[step * rng.randrange(m)] += Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return dense


def _same(value, expected):
    order, coeffs = expected
    assert (value.order, value.coeffs) == (order, coeffs)
    assert all(type(c) is Fraction for c in value.coeffs)
    assert hash(value) == hash((order, coeffs))
    blob = {"order": order, "coeffs": [[str(c.numerator), str(c.denominator)] for c in coeffs]}
    assert json.dumps(to_json(value), sort_keys=True) == json.dumps(blob, sort_keys=True)


def test_arithmetic_matches_elimination_per_descent():
    rng = random.Random(20240917)
    orders = list(range(1, 64))
    values = []
    for n, full in [(n, False) for n in orders] + [(n, True) for n in (16, 24, 48, 60, 63)]:
        dense = _random_dense(rng, n, full)
        value = CycNum(n, dense)
        _same(value, _old_normalize(n, dense))
        values.append(value)
    assert len({v.order for v in values}) > 20
    assert {16, 24, 48, 60, 63} <= {v.order for v in values}
    for a in values:
        k = rng.choice([k for k in range(1, a.order + 1) if gcd(k, a.order) == 1])
        _same(galois(a, k), _old_galois(a, k))
        _same(-a, (a.order, tuple(-c for c in a.coeffs)))
        # the oracle's inverse is one phi x phi elimination: skip large fields
        if a and len(a.coeffs) <= 16:
            _same(a.inverse(), _old_inverse(a))
    _same(values[-1].inverse(), _old_inverse(values[-1]))  # order 63, phi 36
    # mixed-order operands whose common field stays small enough for the oracle
    pairs = 0
    while pairs < 200:
        a, b = rng.choice(values), rng.choice(values)
        if a.order * b.order // gcd(a.order, b.order) > 60:
            continue
        pairs += 1
        _same(a + b, _old_add(a, b))
        _same(a - b, _old_add(a, -b))
        _same(a * b, _old_mul(a, b))
    # values that meet again in a subfield: x + y - y and x * y / y
    for _ in range(60):
        a, b = rng.choice(values), rng.choice(values)
        if a.order * b.order // gcd(a.order, b.order) > 60 or not b:
            continue
        _same((a + b) - b, (a.order, a.coeffs))
        _same((a * b) * b.inverse(), (a.order, a.coeffs))


def test_descent_projections_invert_the_descent_columns():
    """For every descent Q(zeta_n) -> Q(zeta_m) that is not a support check:
    the solution rows times the columns C give den * I, the consistency rows
    annihilate C, and they are phi(n) - phi(m) independent rows, so they cut
    out exactly the image of Q(zeta_m)."""
    pairs = [
        (n, n // p)
        for n in range(2, 121)
        for p in cyclo._prime_factors(n)
        if n != p and (n // p) % p
    ]
    assert len(pairs) > 100
    for n, m in pairs:
        sol, den, cons = cyclo._descent_projection(n, m)
        cols = cyclo._descent_columns(n, m)
        phi_n, phi_m = cyclo.euler_phi(n), cyclo.euler_phi(m)
        assert len(sol) == len(cols) == phi_m
        assert len(cons) == phi_n - phi_m
        for j, col in enumerate(cols):
            for i, row in enumerate(sol):
                assert sum(c * col[k] for k, c in row) == (den if i == j else 0), (n, m)
            for row in cons:
                assert sum(c * col[k] for k, c in row) == 0, (n, m)
        dense = [[Fraction(0)] * phi_n for _ in cons]
        for dense_row, row in zip(dense, cons):
            for k, c in row:
                dense_row[k] = Fraction(c)
        assert linalg.rank(dense) == len(cons), (n, m)
