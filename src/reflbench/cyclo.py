"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum stores an order n, a tuple of phi(n) integer numerators and one
positive common denominator: the value is sum(nums[i] * z^i) / den over the
power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), with z = exp(2*pi*i/n),
reduced by the n-th cyclotomic polynomial.  Every value is kept in a canonical
normal form:

- the numerators are reduced mod Phi_n after each operation, and
  gcd(den, *nums) = 1;
- the order is minimal: a value lying in a proper cyclotomic subfield
  Q(zeta_m), m | n, is stored with order m (so e.g. zeta_6 is stored as
  -zeta_3^2 with order 3, and any rational is stored with order 1).

Because the form is canonical, equality and hashing are structural, which is
what makes matrix-group element deduplication cheap.  The hash is that of
(order, coeffs), computed on the integers.

The arithmetic reads and writes integers only.  Fractions appear at the
edges: `CycNum.coeffs` builds them on demand, for `repr` and ordering.
Order minimisation tries one prime p of n at a time: when p^2 | n the descent
to Q(zeta_(n/p)) is a support check, and otherwise it applies a projection
computed once per (n, n/p) and cached.  Adding a rational, inverting and
Galois conjugation never change the order, so they skip the descent.

Values are immutable; all operations return fresh values.

>>> z = root_of_unity(6)  # zeta_6 = -zeta_3^2 = 1 + zeta_3
>>> z.order, z.coeffs
(3, (Fraction(1, 1), Fraction(1, 1)))
>>> (z + rational(Fraction(1, 2))).coeffs
(Fraction(3, 2), Fraction(1, 1))
"""

from __future__ import annotations

import cmath
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from . import linalg

__all__ = [
    "CycNum",
    "rational",
    "root_of_unity",
    "galois",
    "embed_complex",
    "sqrt_rational",
    "to_json",
    "from_json",
]


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, low degree first)


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic; exact integer arithmetic
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    while len(num) - 1 >= deg_d and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < deg_d:
            break
        shift = len(num) - 1 - deg_d
        c = num[-1]
        quot[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial (constant term first).

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorisation ((p, e), ...) of n >= 1, p increasing."""
    if n < 1:
        raise ValueError(f"no prime factorisation of {n}")
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factorization(n))


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorization(n))


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # row e-phi(n) = the nonzero (index, coefficient) pairs of x^e mod Phi_n,
    # for phi(n) <= e < n
    phi = euler_phi(n)
    poly = cyclotomic_poly(n)
    rows: list[list[int]] = []
    # x^phi = x^phi - Phi_n (Phi_n monic of degree phi)
    cur = [-c for c in poly[:phi]]
    rows.append(cur)
    for _ in range(phi + 1, n):
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(phi):
                nxt[i] += lead * rows[0][i]
        cur = nxt
        rows.append(cur)
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _reduce_mod_cyclotomic(n: int, dense: list[int]) -> list[int]:
    """Reduce a dense integer coefficient vector (any length) to length phi(n)."""
    phi = euler_phi(n)
    # first fold exponents >= n using x^n = 1
    if len(dense) > n:
        folded = [0] * n
        for e, c in enumerate(dense):
            if c:
                folded[e % n] += c
        dense = folded
    out = dense[:phi]
    if len(out) < phi:
        out += [0] * (phi - len(out))
    if len(dense) > phi:
        rows = _reduction_rows(n)
        for e in range(phi, len(dense)):
            c = dense[e]
            if c:
                for i, r in rows[e - phi]:
                    out[i] += c * r
    return out


# ---------------------------------------------------------------------------
# integer kernels: a value is a vector of integer numerators over one positive
# common denominator; Fractions are built only for `CycNum.coeffs`


def _numerators(coeffs) -> tuple[list[int], int]:
    """The numerators of the rationals coeffs over their least common denominator."""
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot interpret {c!r} as a rational coefficient")
        d = c.denominator
        if d != 1 and den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(a, den) for a in nums)


def _product(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b in Q(zeta_n), both reduced, on integer vectors."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y
    return _reduce_mod_cyclotomic(n, conv)


def _conjugate(n: int, nums: Sequence[int], k: int) -> list[int]:
    """The substitution zeta_n -> zeta_n^k (k prime to n) on an integer vector."""
    dense = [0] * n
    for i, c in enumerate(nums):
        dense[(i * k) % n] = c
    return _reduce_mod_cyclotomic(n, dense)


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, n) if gcd(k, n) == 1)


def _lifted(x: "CycNum", n: int) -> Sequence[int]:
    """The numerators of x inside Q(zeta_n) (x.order | n), over x._den."""
    nums = x._nums
    if n == x.order:
        return nums
    step = n // x.order
    dense = [0] * ((len(nums) - 1) * step + 1)
    dense[::step] = nums
    return _reduce_mod_cyclotomic(n, dense)


# ---------------------------------------------------------------------------
# order minimisation: one cached projection per descent Q(zeta_n) -> Q(zeta_m)


@lru_cache(maxsize=None)
def _descent_columns(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    # column j = coefficients of zeta_n^(j*n/m) in the power basis of Q(zeta_n)
    step = n // m
    cols = []
    for j in range(euler_phi(m)):
        dense = [0] * (j * step + 1)
        dense[j * step] = 1
        cols.append(tuple(_reduce_mod_cyclotomic(n, dense)))
    return tuple(cols)


@lru_cache(maxsize=None)
def _descent_projection(n: int, m: int):
    """(solution rows, their denominator, consistency rows) of the descent
    from Q(zeta_n) to Q(zeta_m).

    The reduced row echelon form of [C | I], with C the columns of
    `_descent_columns(n, m)`, is [L C | L] for an invertible L with
    L C = [I; 0].  A vector v lies in Q(zeta_m) iff every consistency row (the
    rows of L below the first len(C)) annihilates it, and then its
    coordinates are the solution rows (the first len(C)) applied to v.  Rows are
    sparse tuples of (index, integer coefficient): the solution rows are
    scaled by one common denominator, each consistency row by its own.
    """
    cols = _descent_columns(n, m)
    ncols, nrows = len(cols), euler_phi(n)
    aug = [
        [Fraction(c[i]) for c in cols] + [Fraction(int(i == r)) for r in range(nrows)]
        for i in range(nrows)
    ]
    reduced, pivots = linalg.rref(aug)
    # the images of a basis of Q(zeta_m) are independent: every column of C pivots
    assert pivots[:ncols] == list(range(ncols))
    left = [row[ncols:] for row in reduced]

    def scaled(row, den):
        return tuple((i, int(c * den)) for i, c in enumerate(row) if c)

    den = lcm(*(c.denominator for row in left[:ncols] for c in row))
    sol = tuple(scaled(row, den) for row in left[:ncols])
    cons = tuple(scaled(row, lcm(*(c.denominator for c in row))) for row in left[ncols:])
    return sol, den, cons


def _descend(n: int, p: int, nums: list[int]):
    """(numerators, extra denominator) of nums (power basis of Q(zeta_n)) over
    the power basis of Q(zeta_(n/p)), or None if it does not lie there."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): Q(zeta_m) is spanned by the powers zeta_n^(p*j)
        if any(any(nums[r::p]) for r in range(1, p)):
            return None
        return nums[::p], 1
    sol_rows, den, cons_rows = _descent_projection(n, m)
    for row in cons_rows:
        if sum(c * nums[i] for i, c in row):
            return None
    return [sum(c * nums[i] for i, c in row) for row in sol_rows], den


# ---------------------------------------------------------------------------


class CycNum:
    """An element of some Q(zeta_n), in canonical (order-minimal) form.

    The value is sum(_nums[i] * zeta_order^i) / _den with _den > 0 and
    gcd(_den, *_nums) == 1, so equal values have equal fields.
    """

    __slots__ = ("order", "_nums", "_den", "_hash")

    order: int
    _nums: tuple[int, ...]
    _den: int

    def __init__(self, order: int, coeffs):
        # reduce the dense coefficients over zeta_order to canonical form
        nums, den = _numerators(coeffs)
        x = _minimal(order, _reduce_mod_cyclotomic(order, nums), den)
        self.order = x.order
        self._nums = x._nums
        self._den = x._den
        self._hash = None

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients over the power basis of Q(zeta_order), as Fractions."""
        return _fractions(self._nums, self._den)

    def is_zero(self) -> bool:
        return self.order == 1 and not self._nums[0]

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self._nums[0], self._den)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "CycNum":
        if other.__class__ is not CycNum:
            other = _coerce(other)
        if self.order == 1:
            self, other = other, self
        # adding a rational only moves the coefficient of 1, and the order of
        # x + q is the order of x
        if other.order == 1:
            q = other._nums[0]
            if not q:
                return self
            qd, nums, den = other._den, self._nums, self._den
            if qd == 1:
                # gcd(den, nums) = 1 survives adding a multiple of den
                return _make(self.order, (nums[0] + q * den,) + nums[1:], den)
            return _reduced(self.order, [nums[0] * qd + q * den] + [c * qd for c in nums[1:]], den * qd)
        n = lcm(self.order, other.order)
        a, b = _lifted(self, n), _lifted(other, n)
        da, db = self._den, other._den
        if da == db:
            nums, den = [x + y for x, y in zip(a, b)], da
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            nums = [x * fa + y * fb for x, y in zip(a, b)]
        return _minimal(n, nums, den)

    def __radd__(self, other) -> "CycNum":
        return self.__add__(other)

    def __neg__(self) -> "CycNum":
        return _make(self.order, tuple([-c for c in self._nums]), self._den)

    def __sub__(self, other) -> "CycNum":
        return self.__add__(-_coerce(other))

    def __rsub__(self, other) -> "CycNum":
        return (-self).__add__(other)

    def __mul__(self, other) -> "CycNum":
        if other.__class__ is not CycNum:
            other = _coerce(other)
        if self.order == 1:
            q = self._nums[0]
            if not q:
                return ZERO
            qd = self._den
            if q == qd:  # q / qd == 1
                return other
            return _reduced(other.order, [q * c for c in other._nums], qd * other._den)
        if other.order == 1:
            return other.__mul__(self)
        n = lcm(self.order, other.order)
        a, b = _lifted(self, n), _lifted(other, n)
        return _minimal(n, _product(n, a, b), self._den * other._den)

    def __rmul__(self, other) -> "CycNum":
        return self.__mul__(other)

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        a, den = self._nums, self._den
        if self.order == 1:
            return _make(1, (den,), a[0]) if a[0] > 0 else _make(1, (-den,), -a[0])
        # with x = a / den and P the product of the other Galois conjugates
        # of a, a * P is the norm N(a), a rational: 1/x = den * P / N(a)
        n = self.order
        others = [1] + [0] * (len(a) - 1)
        for k in _units(n)[1:]:  # every unit but 1
            others = _product(n, others, _conjugate(n, a, k))
        norm = _product(n, a, others)[0]
        if norm < 0:
            norm, den = -norm, -den
        # 1/x lies in exactly the cyclotomic fields that x lies in
        return _reduced(n, [c * den for c in others], norm)

    def __truediv__(self, other) -> "CycNum":
        return self.__mul__(_coerce(other).inverse())

    def __rtruediv__(self, other) -> "CycNum":
        if other == 1:  # 1 / x, the pivot inverse of linalg.rref and det
            return self.inverse()
        return _coerce(other).__mul__(self.inverse())

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CycNum):
            return self.order == other.order and self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self._nums[0] == other.numerator and self._den == other.denominator
        return NotImplemented

    def __hash__(self):
        # hash((order, coeffs)), computed on the integers: a Fraction a / d
        # hashes as a * pow(d, -1, M) mod M with the sign of a (M the
        # hash modulus), and the reduced and unreduced forms of a / _den agree
        if self._hash is None:
            den = self._den
            if den == 1:
                self._hash = hash((self.order, self._nums))
            elif den % _HASH_MODULUS:
                dinv = pow(den, -1, _HASH_MODULUS)
                self._hash = hash((self.order, tuple([_fraction_hash(a, dinv) for a in self._nums])))
            else:  # no inverse mod M: Fraction's own rule for infinite hashes
                self._hash = hash((self.order, self.coeffs))
        return self._hash

    def __bool__(self) -> bool:
        return self.order != 1 or bool(self._nums[0])

    def __repr__(self) -> str:
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

    def conjugate(self) -> "CycNum":
        """Complex conjugation, i.e. the Galois substitution zeta -> zeta^-1."""
        return galois(self, -1)


_HASH_MODULUS = sys.hash_info.modulus


def _fraction_hash(a: int, dinv: int) -> int:
    # hash(Fraction(a, d)) for dinv = pow(d, -1, _HASH_MODULUS)
    h = abs(a) * dinv % _HASH_MODULUS
    if a < 0:
        h = -h
    return -2 if h == -1 else h


def _make(order: int, nums: tuple[int, ...], den: int) -> CycNum:
    # a CycNum from data already in canonical form
    x = object.__new__(CycNum)
    x.order = order
    x._nums = nums
    x._den = den
    x._hash = None
    return x


def _reduced(order: int, nums: Sequence[int], den: int) -> CycNum:
    """The CycNum nums / den (order minimal, den > 0), divided by the common
    factor of nums and den."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    return _make(order, tuple(nums), den)


def _coerce(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")


def _minimal(n: int, nums: list[int], den: int) -> CycNum:
    """The canonical CycNum of nums / den (reduced, power basis of Q(zeta_n)):
    descend one prime at a time until no descent applies."""
    while n > 1:
        if not any(nums[1:]):
            return _reduced(1, nums[:1], den)
        for p in _prime_factors(n):
            if n == p:
                continue  # the rational case is the test above
            step = _descend(n, p, nums)
            if step is not None:
                n //= p
                nums, scale = step
                den *= scale
                break
        else:
            break
    return _reduced(n, nums, den)


# ---------------------------------------------------------------------------
# public operations


ZERO = _make(1, (0,), 1)
ONE = _make(1, (1,), 1)


def rational(q) -> CycNum:
    """The rational number q as a CycNum."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"cannot interpret {q!r} as a rational number")
    return _make(1, (q.numerator,), q.denominator)


def root_of_unity(n: int, k: int = 1) -> CycNum:
    """zeta_n^k in canonical form; the result has multiplicative order n/gcd(n,k).

    >>> root_of_unity(4, 2) == rational(-1)
    True
    """
    if n < 1:
        raise ValueError("order of a root of unity must be >= 1")
    k %= n
    dense = [0] * (k + 1)
    dense[k] = 1
    return CycNum(n, dense)


def galois(a: CycNum, k: int) -> CycNum:
    """Apply the Galois substitution zeta_n -> zeta_n^k (k prime to n = order of a)."""
    n = a.order
    k %= n
    if gcd(k, n) != 1:
        raise ValueError(f"galois exponent {k} is not coprime to the order {n}")
    if n == 1 or k == 1:
        return a
    # a Galois conjugate lies in exactly the cyclotomic fields that a lies in,
    # and the substitution is an automorphism of Z[zeta_n], so it keeps
    # gcd(den, *nums) = 1
    return _make(n, tuple(_conjugate(n, a._nums, k)), a._den)


def embed_complex(a: CycNum) -> complex:
    """Approximate complex value, evaluating zeta_n at exp(2*pi*i/n)."""
    z = cmath.exp(2j * cmath.pi / a.order)
    den = a._den
    total = 0j
    p = 1 + 0j
    for c in a._nums:
        if c:
            # int / int rounds correctly, as float(Fraction(c, den)) does
            total += (c / den) * p
        p *= z
    return total


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CycNum:
    """An exact square root of the prime p inside a cyclotomic field."""
    if p == 2:
        return root_of_unity(8, 1) + root_of_unity(8, 7)
    g = ZERO
    for k in range(1, p):
        g = g + rational(_legendre(k, p)) * root_of_unity(p, k)
    if p % 4 == 1:
        root = g  # g^2 = p
    else:
        root = g * root_of_unity(4, 3)  # g^2 = -p, divide by i
    assert root * root == rational(p)
    return root


def sqrt_rational(q) -> CycNum:
    """An exact cyclotomic square root of the rational q (deterministic choice).

    Every rational has one by Kronecker-Weber; e.g. sqrt(-3) = zeta_3 - zeta_3^2.
    """
    q = Fraction(q)
    if q == 0:
        return ZERO
    root = rational(Fraction(1, q.denominator))
    for p, e in factorization(abs(q.numerator) * q.denominator):
        root = root * rational(p ** (e // 2))
        if e % 2:
            root = root * _sqrt_prime(p)
    if q < 0:
        root = root * root_of_unity(4, 1)
    assert root * root == rational(q)
    return root


# ---------------------------------------------------------------------------
# JSON encoding: {"order": n, "coeffs": [["num","den"], ...]}


def to_json(a: CycNum) -> dict:
    # each coefficient in lowest terms, as `Fraction` would give it
    den = a._den
    if den == 1:
        coeffs = [[str(c), "1"] for c in a._nums]
    else:
        coeffs = []
        for c in a._nums:
            g = gcd(c, den)
            coeffs.append([str(c // g), str(den // g)])
    return {"order": a.order, "coeffs": coeffs}


# Largest order `from_json` accepts.  The groups and checks here reach orders
# up to 120 (products in the field-axiom checks; 48 and 63 in the extended
# ones).  Building cyclotomic_poly(n) and the descent projections costs
# superlinearly in n, so a decoded order is bounded before any of them is built.
MAX_JSON_ORDER = 1000


def json_int(v) -> int:
    """An integer field of an input file: a JSON integer or a decimal string.
    A float or a bool is not exact input and raises TypeError."""
    if v.__class__ is bool or not isinstance(v, (int, str)):
        raise TypeError(f"expected an integer or a string, got {v!r}")
    return int(v)


def from_json(data: dict) -> CycNum:
    try:
        order = json_int(data["order"])
        coeffs = [(json_int(num), json_int(den)) for num, den in data["coeffs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed CycNum encoding: {data!r}") from exc
    if any(den == 0 for _, den in coeffs):
        raise ValueError(f"CycNum encoding has a zero denominator: {data!r}")
    if order > MAX_JSON_ORDER:
        raise ValueError(f"CycNum order {order} exceeds the limit {MAX_JSON_ORDER}")
    if order < 1 or len(coeffs) != euler_phi(order):
        raise ValueError(f"CycNum encoding has wrong coefficient count: {data!r}")
    return CycNum(order, [Fraction(num, den) for num, den in coeffs])
