"""Multivariate polynomials with exact cyclotomic coefficients.

Terms are stored as a dict from exponent tuples to nonzero CycNum
coefficients.  The canonical term order everywhere is graded lexicographic
(total degree first, then exponent tuples with z1 > z2 > ...), which fixes
serialization and the leading-term conventions used by the square-root and
proportionality routines.
"""

from __future__ import annotations

from fractions import Fraction

from . import cyclo
from .cyclo import CycNum


def _key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class MPoly:
    """A polynomial in nvars variables over cyclotomic numbers."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], CycNum] = {}
        if terms:
            for exps, coef in (terms.items() if isinstance(terms, dict) else terms):
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has arity != {nvars}")
                if not isinstance(coef, CycNum):
                    coef = cyclo.rational(coef)
                if coef:
                    acc = clean.get(exps)
                    coef = coef if acc is None else acc + coef
                    if coef:
                        clean[exps] = coef
                    elif exps in clean:
                        del clean[exps]
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        exps = [0] * nvars
        exps[i] = 1
        return MPoly(nvars, {tuple(exps): 1})

    @staticmethod
    def linear_form(coeffs) -> "MPoly":
        coeffs = list(coeffs)
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exps = [0] * n
            exps[i] = 1
            terms[tuple(exps)] = c
        return MPoly(n, terms)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CycNum]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: _key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], CycNum]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=_key)
        return exps, self.terms[exps]

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch between polynomials")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            s = c if acc is None else acc + c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        out = MPoly.__new__(MPoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    def __neg__(self) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self.__add__(-other)

    def scale(self, c) -> "MPoly":
        if not isinstance(c, CycNum):
            c = cyclo.rational(c)
        if not c:
            return MPoly.zero(self.nvars)
        out = MPoly.__new__(MPoly)
        out.nvars = self.nvars
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        self._check(other)
        terms: dict[tuple[int, ...], CycNum] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = terms.get(e)
                s = c if acc is None else acc + c
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        out = MPoly.__new__(MPoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    def __rmul__(self, other) -> "MPoly":
        return self.scale(other)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"z{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            cc = repr(c)[7:-1]  # strip CycNum(...)
            bits.append(f"({cc})*{mono}" if mono else f"({cc})")
        return "MPoly(" + " + ".join(bits) + ")"

    # -- calculus / composition ------------------------------------------------

    def diff(self, i: int) -> "MPoly":
        terms = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                k = e[i]
                e[i] -= 1
                terms[tuple(e)] = c * k
        return MPoly(self.nvars, terms)

    def compose(self, substitution: list["MPoly"]) -> "MPoly":
        """Substitute variable i by substitution[i]; exact expansion."""
        if len(substitution) != self.nvars:
            raise ValueError("substitution arity mismatch")
        if not substitution:
            return self
        result = MPoly.zero(substitution[0].nvars)
        for image, c in zip(monomial_images(list(self.terms), substitution), self.terms.values()):
            result = result + image.scale(c)
        return result


# ---------------------------------------------------------------------------
# free-standing operations


def monomial_images(monos: list[tuple[int, ...]], substitution: list[MPoly]) -> list[MPoly]:
    """The image of each monomial z^e in monos under z_i -> substitution[i]:
    each substituted polynomial is raised to each power once, for all monos,
    and nothing is multiplied by the constant 1.  Images may share objects
    with the substitution and with each other; no MPoly operation mutates."""
    m = substitution[0].nvars
    if any(s.nvars != m for s in substitution):
        raise ValueError("substitution polynomials have mixed arities")
    one, powers = MPoly.constant(m, 1), []
    for i, s in enumerate(substitution):
        pw = [one, s]
        for _ in range(max((e[i] for e in monos), default=0) - 1):
            pw.append(pw[-1] * s)
        powers.append(pw)
    images = []
    for e in monos:
        image = None
        for pw, k in zip(powers, e):
            if k:
                image = pw[k] if image is None else image * pw[k]
        images.append(one if image is None else image)
    return images


def jacobian(ps: list[MPoly]) -> MPoly:
    """Determinant of the matrix of partial derivatives of a square system."""
    n = len(ps)
    if any(p.nvars != n for p in ps):
        raise ValueError("jacobian needs as many variables as polynomials")
    rows = [[p.diff(j) for j in range(n)] for p in ps]

    def det(rs: list[list[MPoly]]) -> MPoly:
        k = len(rs)
        if k == 1:
            return rs[0][0]
        total = MPoly.zero(n)
        for j in range(k):
            minor = [[row[jj] for jj in range(k) if jj != j] for row in rs[1:]]
            piece = rs[0][j] * det(minor)
            total = total + (piece if j % 2 == 0 else -piece)
        return total

    return det(rows)


def proportional(p: MPoly, q: MPoly) -> tuple[bool, CycNum | None]:
    """Whether p = c*q for a nonzero scalar c; returns (verdict, c)."""
    if p.nvars != q.nvars:
        return False, None
    if q.is_zero():
        return (p.is_zero(), cyclo.ONE if p.is_zero() else None)
    if p.is_zero():
        return False, None
    ep, cp = p.leading_term()
    eq, cq = q.leading_term()
    if ep != eq:
        return False, None
    c = cp / cq
    return (p == q.scale(c), c) if c else (False, None)


def poly_square_root(p: MPoly) -> MPoly | None:
    """An exact q with q*q = p, or None.

    The sign is fixed deterministically: the graded-lex leading coefficient of
    the result is the canonical square root produced by the coefficient-level
    square-root construction (rational leading coefficients only; a
    non-rational leading coefficient makes the routine answer None).
    """
    if p.is_zero():
        return MPoly.zero(p.nvars)
    exps0, c0 = p.leading_term()
    if any(e % 2 for e in exps0):
        return None
    if not c0.is_rational():
        return None
    q0 = c0.as_fraction()
    num, den = q0.numerator, q0.denominator
    root0 = cyclo.sqrt_rational(q0)
    half_exps = tuple(e // 2 for e in exps0)
    q = MPoly(p.nvars, {half_exps: root0})
    two_lead = root0 * 2
    r = p - q * q
    # each accepted term strictly decreases the graded-lex position, and the
    # candidate monomials for q are bounded by deg(p)/2
    max_terms = _monomial_count(p.nvars, p.total_degree() // 2) + 1
    steps = 0
    while not r.is_zero():
        steps += 1
        if steps > max_terms:
            return None
        er, cr = r.leading_term()
        texps = tuple(a - b for a, b in zip(er, half_exps))
        if any(e < 0 for e in texps):
            return None
        if _key(texps) >= _key(half_exps):
            return None
        t = MPoly(p.nvars, {texps: cr / two_lead})
        q = q + t
        r = p - q * q
    return q


def _monomial_count(nvars: int, deg: int) -> int:
    from math import comb

    return comb(deg + nvars, nvars)


def squarefree_linear_factor_check(p: MPoly) -> bool:
    """True iff the binary form p is a product of pairwise distinct linear forms.

    Over C, p(X, Y) splits into deg(p) linear forms, one per root [x:y] on
    the projective line counted with multiplicity. They are pairwise distinct
    iff the dehomogenization u(t) = p(t, 1) is squarefree (gcd(u, u')
    constant), which covers the roots with y != 0, and the root [1:0] has
    multiplicity deg(p) - deg(u) <= 1. Both tests are exact.
    """
    if p.nvars != 2:
        raise ValueError("squarefree factor check needs a binary form")
    if p.is_zero():
        return False
    if not p.is_homogeneous():
        raise ValueError("squarefree factor check needs a homogeneous form")
    d = p.total_degree()
    if d == 0:
        return False
    # u(t) = p(t,1) as dense list of CycNum, index = power of t
    u = [cyclo.ZERO] * (d + 1)
    for (e1, _e2), c in p.terms.items():
        u[e1] = u[e1] + c
    while u and u[-1].is_zero():
        u.pop()
    dprime = len(u) - 1
    if d - dprime > 1:
        return False  # [1:0] is a repeated root
    du = [u[i] * i for i in range(1, len(u))]
    return len(_poly_gcd(u, du)) == 1


def _poly_gcd(a: list[CycNum], b: list[CycNum]) -> list[CycNum]:
    """Monic gcd of dense univariate polynomials over the cyclotomic field."""

    def trim(p):
        p = list(p)
        while p and p[-1].is_zero():
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] = r[shift + i] - c * bc
            r.pop()
            r = trim(r)
            if not r:
                break
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a if a else [cyclo.ONE * 0]


# ---------------------------------------------------------------------------
# JSON encoding: {"nvars": n, "terms": [{"exps": [...], "coef": CycNum}, ...]}
# terms serialized in descending graded-lex order.


def to_json(p: MPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [
            {"exps": list(exps), "coef": cyclo.to_json(c)}
            for exps, c in p.sorted_terms()
        ],
    }


def from_json(data: dict) -> MPoly:
    try:
        nvars = cyclo.json_int(data["nvars"])
        exps = [tuple(map(cyclo.json_int, t["exps"])) for t in data["terms"]]
        terms = [(e, cyclo.from_json(t["coef"])) for e, t in zip(exps, data["terms"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial encoding: {data!r}") from exc
    return MPoly(nvars, terms)
