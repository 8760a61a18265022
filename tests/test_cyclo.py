import json
import random
import sys
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
    bad = [
        {"order": 5, "coeffs": [["1", "1"]]},  # wrong length
        {"order": 1, "coeffs": [["1", "0"]]},  # zero denominator
        {"order": 1, "coeffs": [[-1.5, 1]]},  # a float would be truncated
        {"order": 1, "coeffs": [["1", 2.0]]},
        {"order": 1, "coeffs": [[True, 1]]},
        {"order": 2.5, "coeffs": [["1", "1"]]},
        {"order": 1, "coeffs": [["1/2", "1"]]},
    ]
    for data in bad:
        with pytest.raises(ValueError):
            from_json(data)
    # JSON integers and decimal strings are both exact
    assert from_json({"order": "1", "coeffs": [[-3, "2"]]}) == rational(Fraction(-3, 2))


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


def test_factorization_and_euler_phi_match_brute_force():
    limit = 3000
    is_prime = [False, False] + [True] * (limit - 1)
    for p in range(2, limit + 1):
        for k in range(2 * p, limit + 1, p):
            is_prime[k] = False
    for n in range(1, limit + 1):
        pairs = cyclo.factorization(n)
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes)) and all(is_prime[p] for p in primes), n
        assert all(e >= 1 and n % p**e == 0 and n % p ** (e + 1) for p, e in pairs), n
        assert [p for p in range(2, n + 1) if is_prime[p] and n % p == 0] == primes, n
        assert cyclo._prime_factors(n) == tuple(primes)
        assert cyclo.euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n
    with pytest.raises(ValueError):
        cyclo.factorization(0)


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


def _least_field(n, dense):
    """The least m such that every sigma_k with k = 1 mod m, k prime to
    lcm(m, n), fixes the value of dense over zeta_n.  On Q(zeta_n), sigma_k
    sends zeta_n^i to zeta_n^(ik mod n), so each k moves the coefficients
    of dense and no `galois` call runs."""
    x = CycNum(n, dense)
    for m in range(1, n + 1):
        big = m * n // gcd(m, n)
        residues = {k % n for k in range(1, big + 1, m) if gcd(k, big) == 1}
        for k in residues:
            moved = [Fraction(0)] * n
            for i, c in enumerate(dense):
                moved[i * k % n] += c
            if CycNum(n, moved) != x:
                break
        else:
            return m


def test_order_is_the_least_field_by_galois_oracle():
    # values of small support in Q(zeta_n), n <= 60, about half of them lifted
    # from a subfield Q(zeta_m), m | n: the order a value is stored at is the
    # least m with the value in Q(zeta_m), which `field_of_definition` relies on
    rng = random.Random(35)
    orders = set()
    for n in range(1, 61):
        for _ in range(3):
            dense = _random_dense(rng, n)
            order = CycNum(n, dense).order
            assert order == _least_field(n, dense), (n, dense)
            assert order % 4 != 2
            orders.add(order)
    assert len(orders) > 30


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
        assert len(linalg.rref(dense)[0]) == len(cons), (n, m)  # independent


# ---------------------------------------------------------------------------
# Differential test against the Fraction-stored CycNum that the integer
# representation replaced: the same canonical values with coefficients kept as
# a tuple of Fractions, and every operation converting them to integer
# numerators and back.


def _ref_numerators(coeffs):
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1 and den % d:
            den = den // gcd(den, d) * d
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _ref_fractions(nums, den):
    return tuple(Fraction(a, den) for a in nums)


class _FracCycNum:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        nums, den = _ref_numerators([Fraction(c) for c in coeffs])
        x = _ref_minimal(order, cyclo._reduce_mod_cyclotomic(order, nums), den)
        self.order, self.coeffs = x.order, x.coeffs

    def _lifted(self, n):
        nums, den = _ref_numerators(self.coeffs)
        if n == self.order:
            return nums, den
        step = n // self.order
        dense = [0] * ((len(nums) - 1) * step + 1)
        dense[::step] = nums
        return cyclo._reduce_mod_cyclotomic(n, dense), den

    def __add__(self, other):
        other = _ref_coerce(other)
        if self.order == 1:
            self, other = other, self
        if other.order == 1:
            if not other.coeffs[0]:
                return self
            c = self.coeffs
            return _ref_make(self.order, (c[0] + other.coeffs[0],) + c[1:])
        n = self.order * other.order // gcd(self.order, other.order)
        (a, da), (b, db) = self._lifted(n), other._lifted(n)
        den = da * db // gcd(da, db)
        return _ref_minimal(n, [x * (den // da) + y * (den // db) for x, y in zip(a, b)], den)

    def __neg__(self):
        return _ref_make(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_ref_coerce(other))

    def __mul__(self, other):
        other = _ref_coerce(other)
        if self.order == 1:
            q = self.coeffs[0]
            if not q:
                return _ref_make(1, (Fraction(0),))
            return _ref_make(other.order, tuple(q * c for c in other.coeffs))
        if other.order == 1:
            return other * self
        n = self.order * other.order // gcd(self.order, other.order)
        (a, da), (b, db) = self._lifted(n), other._lifted(n)
        return _ref_minimal(n, cyclo._product(n, a, b), da * db)

    def inverse(self):
        if self.order == 1:
            return _ref_make(1, (1 / self.coeffs[0],))
        n = self.order
        a, den = _ref_numerators(self.coeffs)
        others = [1] + [0] * (len(a) - 1)
        for k in cyclo._units(n)[1:]:
            others = cyclo._product(n, others, cyclo._conjugate(n, a, k))
        norm = cyclo._product(n, a, others)[0]
        return _ref_make(n, tuple(Fraction(c * den, norm) for c in others))

    def __truediv__(self, other):
        return self * _ref_coerce(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = _ref_make(1, (Fraction(1),))
        for _ in range(k):
            result = result * self
        return result

    def galois(self, k):
        n = self.order
        k %= n
        if n == 1 or k == 1:
            return self
        nums, den = _ref_numerators(self.coeffs)
        return _ref_make(n, _ref_fractions(cyclo._conjugate(n, nums, k), den))

    def __eq__(self, other):
        if isinstance(other, _FracCycNum):
            return self.order == other.order and self.coeffs == other.coeffs
        return self.order == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def to_json(self):
        return {"order": self.order, "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs]}

    def __repr__(self):
        if self.order == 1:
            return f"CycNum({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{i}" if i > 1 else "")
                terms.append(f"{c}*{z}" if c != 1 else z)
        return "CycNum(" + (" + ".join(terms) or "0") + ")"


def _ref_make(order, coeffs):
    x = object.__new__(_FracCycNum)
    x.order, x.coeffs = order, coeffs
    return x


def _ref_coerce(x):
    return x if isinstance(x, _FracCycNum) else _ref_make(1, (Fraction(x),))


def _ref_minimal(n, nums, den):
    while n > 1:
        if not any(nums[1:]):
            return _ref_make(1, (Fraction(nums[0], den),))
        for p in cyclo._prime_factors(n):
            if n == p:
                continue
            step = cyclo._descend(n, p, nums)
            if step is not None:
                n //= p
                nums, scale = step
                den *= scale
                break
        else:
            break
    return _ref_make(n, _ref_fractions(nums, den))


DIFF_ORDERS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 24)


def _check_pair(new, ref):
    key = (new.order, new.coeffs)
    assert key == (ref.order, ref.coeffs)
    assert all(type(c) is Fraction for c in new.coeffs)
    assert hash(new) == hash(ref) == hash(key)
    assert to_json(new) == ref.to_json()
    assert repr(new) == repr(ref)


def _diff_values(rng, count):
    # values of every order, some lying in a subfield of their written order,
    # some with integer coefficients only, and a few rationals
    out = []
    for i in range(count):
        n = DIFF_ORDERS[i % len(DIFF_ORDERS)]
        m = rng.choice([d for d in range(1, n + 1) if n % d == 0] + [n] * 3)
        step = n // m
        dense = [Fraction(0)] * n
        for _ in range(rng.randint(1, 2 * cyclo.euler_phi(m))):
            den = 1 if i % 3 == 0 else rng.randint(1, 6)
            dense[step * rng.randrange(m)] += Fraction(rng.randint(-9, 9), den)
        out.append((CycNum(n, dense), _FracCycNum(n, dense)))
    return out


def test_integer_representation_matches_fraction_reference():
    rng = random.Random(15)
    values = _diff_values(rng, 66)
    values += [(rational(q), _FracCycNum(1, [q])) for q in (Fraction(0), Fraction(1), Fraction(-7, 4))]
    for new, ref in values:
        _check_pair(new, ref)
        _check_pair(-new, -ref)
        units = [k for k in range(1, max(new.order, 2)) if gcd(k, new.order) == 1]
        k = rng.choice(units)
        _check_pair(galois(new, k), ref.galois(k))
        if new:
            _check_pair(new.inverse(), ref.inverse())
            e = rng.choice([-2, -1, 2, 3])
            _check_pair(new**e, ref**e)
        _check_pair(new**0, ref**0)
    for _ in range(400):
        (a, ra), (b, rb) = rng.choice(values), rng.choice(values)
        _check_pair(a + b, ra + rb)
        _check_pair(a - b, ra - rb)
        _check_pair(a * b, ra * rb)
        if b:
            _check_pair(a / b, ra / rb)
        assert (a == b) == (ra == rb) and (a != b) == (not ra == rb)
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        _check_pair(a + q, ra + q)
        _check_pair(a * q, ra * q)
        assert (a == q) == (ra == q) and (a == q.numerator) == (ra == q.numerator)
    # values equal to each other keep equal keys whatever order built them
    a, ra = values[7]
    _check_pair((a + a) - a, ra)
    # the (order, coeffs) sort key orders both representations alike
    new_sorted = sorted((v for v, _ in values), key=lambda t: (t.order, t.coeffs))
    ref_sorted = sorted((r for _, r in values), key=lambda t: (t.order, t.coeffs))
    assert [repr(v) for v in new_sorted] == [repr(r) for r in ref_sorted]


def test_hash_of_denominator_without_inverse_mod_the_hash_modulus():
    # Fraction gives a denominator divisible by the hash modulus an infinite hash
    m = sys.hash_info.modulus
    for order, coeffs in [(1, [Fraction(1, m)]), (3, [0, Fraction(2, m)]), (4, [Fraction(3, 2 * m), Fraction(1, 2)])]:
        x = CycNum(order, coeffs)
        assert x._den % m == 0
        assert hash(x) == hash((x.order, x.coeffs))


class _NoFraction:
    """Stands in for fractions.Fraction: isinstance works, building one fails."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built on the arithmetic path")


def test_arithmetic_builds_no_fraction(monkeypatch):
    z8, z12, z5 = root_of_unity(8), root_of_unity(12), root_of_unity(5)
    a = z8 * rational(Fraction(2, 3)) + rational(Fraction(1, 5))
    b = z12 + rational(Fraction(-3, 4))
    c = z5 * rational(7) - rational(2)
    q, r = rational(Fraction(5, 6)), rational(-4)

    def run():
        out = []
        for x, y in [(a, b), (b, c), (a, c), (c, c), (q, a), (b, q), (q, r), (r, q)]:
            out += [x + y, x - y, y - x, x * y, x / y, -x, x.inverse(), x**2, x**-1, galois(x, -1)]
            out += [x + 1, 2 * x, x - 1, 1 - x, 1 / x, x / 3]
        return out

    expected = run()  # fills the cached descent projections
    with monkeypatch.context() as m:
        m.setattr(cyclo, "Fraction", _NoFraction)
        got = run()
        hashes = [hash(x) for x in got]
        truth = [bool(x) for x in got]
        zero = [x.is_zero() for x in got]
        assert got == expected
        assert a != b and q == q and r == -4 and not (q == a)
        assert all((x - x).is_zero() and not (x - x) for x in got)
    assert hashes == [hash((x.order, x.coeffs)) for x in got]
    assert truth == [any(x.coeffs) for x in got] == [not z for z in zero]
    assert any(zero) and not all(zero)


def test_float_is_not_a_rational():
    with pytest.raises(TypeError):
        CycNum(3, [1.5, 0])
    with pytest.raises(TypeError):
        rational(0.5)
