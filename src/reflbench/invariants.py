"""Invariant theory of the matrix groups: Molien series, Reynolds averaging,
graded invariant spaces, fundamental invariants, and the catalogued printed
polynomials (the 2x2 models' basic invariants and the rank-2 order-48 group's
alpha/beta pair used by the model-free discriminant checks).

A graded invariant space is the common kernel of p -> p o g - p over the
generators.  Only the Molien class scan walks the whole group; `reynolds`
composes with one element per coset of the scalars Z, in degrees |Z| divides.

Molien degrees are extracted by expanding (1/|G|) * sum 1/det(1 - t g) far
enough to peel off factors 1/(1 - t^d), smallest d first; the truncation
order #reflections + dim + 2 always suffices since sum(d_i) = #reflections + dim.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import cyclo, linalg, matgroup
from .cyclo import CycNum
from .errors import BudgetExceededError
from .matgroup import RGroup, RMatrix
from .mpoly import MPoly, jacobian, monomial_images, proportional

MAX_MOLIEN_DIM = 4
DEFAULT_MONOMIAL_BUDGET = 5000


class MolienError(RuntimeError):
    """The Molien series did not factor as a product of 1/(1 - t^d_i)."""


# ---------------------------------------------------------------------------
# group action on polynomials


def act_matrix(p: MPoly, m: RMatrix) -> MPoly:
    """(p o m)(z) = p(m z): substitute z_i -> sum_j m[i][j] z_j."""
    subs = [MPoly.linear_form(row) for row in m.rows]
    return p.compose(subs)


def reynolds(group: RGroup, p: MPoly) -> MPoly:
    """(1/|G|) sum over g of p o g; the exact projector onto invariants.  On
    the scalars Z = {lambda I in G}, cyclic of order z, z^e o (lambda g) =
    lambda^|e| (z^e o g), so R(z^e) = 0 unless z divides |e|, and otherwise it
    is the mean of z^e o t over a transversal T of G/Z."""
    if p.nvars != group.dim:
        raise ValueError("substitution arity mismatch")
    z, transversal = group.scalar_cosets
    if not (wanted := [e for e in p.terms if sum(e) % z == 0]):
        return MPoly.zero(p.nvars)
    sums = [MPoly.zero(p.nvars)] * len(wanted)
    for t in transversal:
        subs = [MPoly.linear_form(row) for row in group.elements[t].rows]
        sums = list(map(MPoly.__add__, sums, monomial_images(wanted, subs)))
    total = sum((s.scale(p.terms[e]) for e, s in zip(wanted, sums)), MPoly.zero(p.nvars))
    return total.scale(Fraction(1, len(transversal)))


def is_invariant(group: RGroup, p: MPoly) -> bool:
    return all(act_matrix(p, g) == p for g in group.generators)


# ---------------------------------------------------------------------------
# Molien series


def _det_one_minus_tg(m: RMatrix) -> list[CycNum]:
    """Coefficients of det(1 - t*g), degree <= dim: (-1)^k e_k, where the
    elementary symmetric functions e_k of the eigenvalues come from the power
    sums p_i = tr(g^i) by Newton's identities, k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i.
    The last power sum needs no product: tr(g^dim) = sum_ij (g^(dim-1))_ij g_ji."""
    dim = m.dim
    powers = [m]
    while len(powers) < dim - 1:
        powers.append(powers[-1] * m)
    p = [g.trace() for g in powers]
    if dim > 1:
        # the entries (g^(dim-1))_ij beside the entries g_ji
        pairs = zip(chain.from_iterable(powers[-1].rows), chain.from_iterable(zip(*m.rows)))
        p.append(sum((a * b for a, b in pairs if a and b), cyclo.ZERO))
    e = [cyclo.ONE]
    for k in range(1, dim + 1):
        acc = cyclo.ZERO
        for i in range(1, k + 1):
            term = e[k - i] * p[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc * Fraction(1, k))
    return [-c if k % 2 else c for k, c in enumerate(e)]


def molien_series(group: RGroup, nterms: int) -> list[Fraction]:
    """Power-series coefficients of the Molien series, as exact rationals.

    det(1 - t*g) is a class function, so it is computed once per conjugacy
    class, and classes with the same denominator share one series inversion."""
    counts: Counter = Counter()
    for members in matgroup.conjugacy_classes(group):
        counts[tuple(_det_one_minus_tg(group.elements[members[0]]))] += len(members)
    total = [cyclo.ZERO] * nterms
    for den, count in counts.items():
        inv = [cyclo.ZERO] * nterms
        inv[0] = cyclo.ONE
        for k in range(1, nterms):
            acc = cyclo.ZERO
            for j in range(1, min(k, len(den) - 1) + 1):
                if den[j]:
                    acc = acc + den[j] * inv[k - j]
            inv[k] = -acc
        for k in range(nterms):
            total[k] = total[k] + inv[k] * count
    out = []
    scale = Fraction(1, group.order())
    for c in total:
        if not c.is_rational():
            raise MolienError(f"non-rational Molien coefficient {c!r}")
        out.append(c.as_fraction() * scale)
    return out


def molien_degrees(group: RGroup) -> list[int]:
    """Degrees {d_i} of basic invariants, from factoring the Molien series.

    Cross-checks product(d_i) == |G| and raises MolienError on any failure.
    """
    dim = group.dim
    if dim > MAX_MOLIEN_DIM:
        raise BudgetExceededError(f"Molien extraction limited to dim <= {MAX_MOLIEN_DIM}")
    nterms = matgroup.reflections(group) + dim + 2
    series = molien_series(group, nterms)
    degrees: list[int] = []
    for _ in range(dim):
        d = next((k for k in range(1, nterms) if series[k] > 0), None)
        if d is None:
            raise MolienError("ran out of positive coefficients while factoring")
        degrees.append(d)
        # multiply by (1 - t^d)
        nxt = list(series)
        for k in range(d, nterms):
            nxt[k] = series[k] - series[k - d]
        series = nxt
        if series[0] != 1 or any(c < 0 for c in series):
            raise MolienError("series is not a product of 1/(1 - t^d_i)")
    if any(series[k] != 0 for k in range(1, nterms)):
        raise MolienError("leftover terms after removing dim factors")
    prod = math.prod(degrees)
    if prod != group.order():
        raise MolienError(f"degree product {prod} != group order {group.order()}")
    return sorted(degrees)


# ---------------------------------------------------------------------------
# graded invariant spaces and fundamental invariants


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def _check_monomial_budget(nvars: int, degree: int) -> None:
    count = math.comb(degree + nvars - 1, nvars - 1)
    if count > DEFAULT_MONOMIAL_BUDGET:
        raise BudgetExceededError(f"{count} monomials exceed budget {DEFAULT_MONOMIAL_BUDGET}")


def invariant_space(group: RGroup, degree: int) -> list[MPoly]:
    """Basis of the degree-d invariants: the common kernel of p -> p o g - p
    over the generators, in reduced echelon form over the monomials, monic.

    Each generator's block of equations joins the rows reduced so far, so at
    most two blocks are alive at once.  A space has one reduced basis, so it
    does not depend on the generators or on how the kernel was found."""
    nvars = group.dim
    _check_monomial_budget(nvars, degree)
    monos = _monomials(nvars, degree)
    # column j is monos[~j]: `linalg.kernel` returns, per free column f, a
    # vector that is 1 at f, with its other nonzeros only at pivot columns
    # < f, so the reversed list is already the reduced echelon basis over
    # monos, with leading coefficient 1, and needs no second rref
    rows: list[list] = []
    for g in group.generators:
        images = monomial_images(monos, [MPoly.linear_form(row) for row in g.rows])
        moved = [p - MPoly(nvars, {e: 1}) for p, e in zip(images, monos)]
        rows = linalg.rref(rows)[0] + [[p.terms.get(e, cyclo.ZERO) for p in reversed(moved)] for e in monos]
    return [MPoly(nvars, {monos[~j]: c for j, c in vec}) for vec in reversed(linalg.kernel(rows))]


@dataclass(frozen=True)
class InvariantBasis:
    label: str
    degrees: tuple[int, ...]
    generators: tuple[MPoly, ...]


def fundamental_invariants(group: RGroup) -> InvariantBasis:
    """A system of basic invariants matching the Molien degrees.

    Candidates at each Molien degree are chosen outside the span of products
    of lower-degree picks; the Jacobian is verified nonzero at the end.
    Leading coefficients are normalized to 1 (graded-lex), so comparisons with
    any printed normalization go through `proportional`.
    """
    degrees = molien_degrees(group)
    nvars = group.dim
    for d in sorted(set(degrees)):  # every degree, before the first is solved
        _check_monomial_budget(nvars, d)
    chosen: list[MPoly] = []
    for d in sorted(set(degrees)):
        count = degrees.count(d)
        space = invariant_space(group, d)
        # reduced span of degree-d products of already chosen invariants; a
        # candidate is new iff it makes the reduced span grow
        monos = _monomials(nvars, d)
        products = _algebra_slice(chosen, d, nvars)
        span, _ = linalg.rref([[p.terms.get(e, cyclo.ZERO) for e in monos] for p in products])
        picked = 0
        for cand in space:
            if picked == count:
                break
            grown, _ = linalg.rref(span + [[cand.terms.get(e, cyclo.ZERO) for e in monos]])
            if len(grown) > len(span):
                chosen.append(cand)
                span = grown
                picked += 1
        if picked != count:
            raise MolienError(f"could not find {count} new invariants in degree {d}")
    jac = jacobian(chosen)
    if jac.is_zero():
        raise MolienError("chosen invariants have vanishing Jacobian")
    return InvariantBasis(
        label=group.label, degrees=tuple(degrees), generators=tuple(chosen)
    )


def _algebra_slice(gens: list[MPoly], degree: int, nvars: int) -> list[MPoly]:
    """All products of gens of total degree exactly `degree`."""
    out: list[MPoly] = []

    def walk(i: int, current: MPoly, deg: int):
        if deg == degree:
            out.append(current)
            return
        if i == len(gens) or deg > degree:
            return
        gd = gens[i].total_degree()
        k = 0
        power = current
        while deg + k * gd <= degree:
            if k > 0:
                power = power * gens[i]
            walk(i + 1, power, deg + k * gd)
            k += 1

    # walk appends only at exactly `degree`, and a product of nonzero
    # polynomials is nonzero, so every product has that total degree
    walk(0, MPoly.constant(nvars, 1), 0)
    return out


# ---------------------------------------------------------------------------
# catalogued printed polynomials


def catalog_invariant_pair(name: str) -> tuple[MPoly, MPoly]:
    """The printed basic-invariant pairs for the catalogued 2x2 models."""
    x1 = MPoly.variable(2, 0)
    x2 = MPoly.variable(2, 1)
    half = Fraction(1, 2)
    if name == "G4":
        g1 = x1**4 - x1 * x2**3
        g2 = x1**6 + (x1**3 * x2**3).scale(Fraction(5, 2)) - (x2**6).scale(Fraction(1, 8))
        return g1, g2
    if name == "S3_paper":
        f1 = x1**2 - x1 * x2 + x2**2
        f2 = (
            x1**3
            - (x1**2 * x2).scale(Fraction(3, 2))
            - (x1 * x2**2).scale(Fraction(3, 2))
            + x2**3
        )
        return f1, f2
    if name == "G12":
        return g12_alpha_beta()
    raise KeyError(f"no catalogued invariant pair for {name!r}")


def g12_alpha_beta() -> tuple[MPoly, MPoly]:
    """Exact degree-6/degree-8 basic invariants of the rank-2 order-48 group
    with 12 order-2 reflections, in the coordinates where two orthogonal
    mirrors are the axes:

        alpha = (x1^2 - 2 x2^2) (x1^4 + 12 x1^2 x2^2 + 4 x2^4)
        beta  = (x1^2 - 4 x1 x2 - 2 x2^2)(x1^2 + 4 x1 x2 - 2 x2^2)
                (3 x1^4 + 4 x1^2 x2^2 + 12 x2^4)

    With this normalization the discriminantal relation holds on the nose:
    beta^3 - 27 alpha^4 = -32 * (product of the 12 mirror forms)^2, so the
    difference has an exact cyclotomic square root of degree 12.
    """
    x1 = MPoly.variable(2, 0)
    x2 = MPoly.variable(2, 1)
    alpha = (x1**2 - (x2**2).scale(2)) * (
        x1**4 + (x1**2 * x2**2).scale(12) + (x2**4).scale(4)
    )
    beta = (
        (x1**2 - (x1 * x2).scale(4) - (x2**2).scale(2))
        * (x1**2 + (x1 * x2).scale(4) - (x2**2).scale(2))
        * ((x1**4).scale(3) + (x1**2 * x2**2).scale(4) + (x2**4).scale(12))
    )
    return alpha, beta
