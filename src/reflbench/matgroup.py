"""Finite matrix groups over cyclotomic fields.

Covers the monomial family G(de,e,n) (labelled here by the Shephard-Todd
triple, so ``build_monomial_group(4, 4, 2)`` is the group usually written
G(4,4,2) of order 4^2*2!/4 = 8), two explicit catalogued 2x2 models, group
enumeration, pseudo-reflection data, entrywise Galois stability, invariant
Hermitian forms, centers and the field of definition.

Enumeration is breadth-first with deterministic ordering: elements are
discovered in (element discovery order) x (generator index) order, so element
indices are reproducible and can back permutation actions downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from . import cyclo, linalg
from .cyclo import CycNum
from .errors import BudgetExceededError, InputError
from .orbit import orbit

DEFAULT_ELEMENT_BUDGET = 200_000


class RMatrix:
    """Square matrix of CycNum entries; immutable and hashable."""

    # _sparse: the nonzero (column, entry) pairs of each row, filled the first
    # time the matrix is a right operand of a product
    __slots__ = ("dim", "rows", "_hash", "_sparse")

    def __init__(self, rows):
        rows = tuple(
            tuple(e if isinstance(e, CycNum) else cyclo.rational(e) for e in row)
            for row in rows
        )
        self.dim = len(rows)
        if any(len(r) != self.dim for r in rows):
            raise ValueError("matrix is not square")
        self.rows = rows
        self._hash = None
        self._sparse = None

    @staticmethod
    def identity(dim: int) -> "RMatrix":
        return RMatrix(
            [[cyclo.ONE if i == j else cyclo.ZERO for j in range(dim)] for i in range(dim)]
        )

    def __mul__(self, other: "RMatrix") -> "RMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        # row i of the product is the sum of a * (row k of other) over the
        # nonzero entries a = self[i][k]; only nonzero products are added
        sparse = other._sparse
        if sparse is None:
            sparse = other._sparse = tuple(
                [(j, b) for j, b in enumerate(row) if b] for row in other.rows
            )
        zero = cyclo.ZERO
        rows = []
        for row in self.rows:
            acc = [zero] * self.dim
            for k, a in enumerate(row):
                if a:
                    for j, b in sparse[k]:
                        acc[j] = acc[j] + a * b
            rows.append(tuple(acc))
        return RMatrix._trusted(tuple(rows))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[CycNum, ...], ...]) -> "RMatrix":
        # rows already square and made of CycNum entries
        m = object.__new__(cls)
        m.dim = len(rows)
        m.rows = rows
        m._hash = None
        m._sparse = None
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self) -> str:
        return f"RMatrix({[[repr(e)[7:-1] for e in row] for row in self.rows]})"

    def trace(self) -> CycNum:
        return sum((self.rows[i][i] for i in range(self.dim)), cyclo.ZERO)

    def det(self) -> CycNum:
        return linalg.det([list(r) for r in self.rows])

    def inverse(self) -> "RMatrix":
        return RMatrix(linalg.invert([list(r) for r in self.rows]))

    def transpose(self) -> "RMatrix":
        return RMatrix(list(zip(*self.rows)))

    def conjugate(self) -> "RMatrix":
        return self.galois(-1)

    def galois(self, k: int) -> "RMatrix":
        return RMatrix([[cyclo.galois(e, k) for e in row] for row in self.rows])

    def is_identity(self) -> bool:
        return self == RMatrix.identity(self.dim)

    def order(self, cap: int = 10_000) -> int:
        p = self
        for k in range(1, cap + 1):
            if p.is_identity():
                return k
            p = p * self
        raise RuntimeError("element order exceeds cap; matrix may not have finite order")


@dataclass(frozen=True)
class RGroup:
    """A finite matrix group given by generators plus its full element list."""

    label: str
    generators: tuple[RMatrix, ...]
    elements: tuple[RMatrix, ...]

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def order(self) -> int:
        return len(self.elements)

    def index_of(self, m: RMatrix) -> int:
        return self._index()[m]

    def __contains__(self, m: RMatrix) -> bool:
        return m in self._index()

    def _index(self) -> dict[RMatrix, int]:
        # lazily cached on the instance (bypassing frozen) so distinct groups
        # can never share an index table
        cache = getattr(self, "_idx", None)
        if cache is None:
            cache = {m: i for i, m in enumerate(self.elements)}
            object.__setattr__(self, "_idx", cache)
        return cache


def enumerate_closure(
    generators: list[RMatrix], label: str, budget: int = DEFAULT_ELEMENT_BUDGET
) -> RGroup:
    """Breadth-first closure with deterministic element indices."""
    if not generators:
        raise InputError("a group needs at least one generator (or use the trivial identity)")
    ident = RMatrix.identity(generators[0].dim)
    elements = orbit(
        ident, generators, RMatrix.__mul__, budget, f"group enumeration for {label!r}"
    )
    return RGroup(label=label, generators=tuple(generators), elements=tuple(elements))


# ---------------------------------------------------------------------------
# constructions


def monomial_order(d: int, e: int, n: int) -> int:
    """Order of G(d,e,n) (Shephard-Todd labels, e | d): d^n * n! / e."""
    return d**n * factorial(n) // e


def build_monomial_group(
    d: int, e: int, n: int, budget: int = DEFAULT_ELEMENT_BUDGET
) -> RGroup:
    """The monomial group G(d,e,n): n x n monomial matrices with entries in
    mu_d and entry product in mu_(d/e).  Requires e | d."""
    if d < 1 or e < 1 or n < 1 or d % e:
        raise InputError(f"invalid monomial parameters G({d},{e},{n}); need e | d")
    predicted = monomial_order(d, e, n)
    if predicted > budget:
        raise BudgetExceededError(
            f"G({d},{e},{n}) has order {predicted}, beyond budget {budget}"
        )
    small = d // e  # the paper's 'd' when the label is written G(de,e,n)
    gens: list[RMatrix] = []

    def diag(values) -> RMatrix:
        return RMatrix(
            [[values[i] if i == j else cyclo.ZERO for j in range(n)] for i in range(n)]
        )

    for i in range(n - 1):
        rows = [[cyclo.ONE if r == c else cyclo.ZERO for c in range(n)] for r in range(n)]
        rows[i][i] = cyclo.ZERO
        rows[i + 1][i + 1] = cyclo.ZERO
        rows[i][i + 1] = cyclo.ONE
        rows[i + 1][i] = cyclo.ONE
        gens.append(RMatrix(rows))
    if d > 1 and n >= 2:
        vals = [cyclo.ONE] * n
        vals[0] = cyclo.root_of_unity(d, 1)
        vals[1] = cyclo.root_of_unity(d, -1)
        gens.append(diag(vals))
    if small > 1:
        vals = [cyclo.ONE] * n
        vals[0] = cyclo.root_of_unity(small, 1)
        gens.append(diag(vals))
    if not gens:
        gens = [RMatrix.identity(n)]
    group = enumerate_closure(gens, f"G({d},{e},{n})", budget)
    if group.order() != predicted:
        raise RuntimeError(
            f"G({d},{e},{n}) enumeration produced {group.order()} elements, expected {predicted}"
        )
    return group


def _g4_generators() -> list[RMatrix]:
    j = cyclo.root_of_unity(3, 1)
    j2 = cyclo.root_of_unity(3, 2)
    sqrt_m3 = j - j2
    inv = sqrt_m3.inverse()
    s1 = RMatrix([[cyclo.ONE, cyclo.ZERO], [cyclo.ZERO, j]])
    s2 = RMatrix(
        [
            [inv * cyclo.rational(-1), inv * j],
            [inv * cyclo.rational(2), inv * j],
        ]
    )
    return [s1, s2]


def _s3_paper_generators() -> list[RMatrix]:
    s1 = RMatrix([[1, -1], [0, -1]])
    s2 = RMatrix([[-1, 0], [-1, 1]])
    return [s1, s2]


CATALOG_BUILDERS = {
    "G4": _g4_generators,
    "S3_paper": _s3_paper_generators,
}


def build_catalog_group(name: str, budget: int = DEFAULT_ELEMENT_BUDGET) -> RGroup:
    """One of the explicitly catalogued 2x2 matrix models ("G4", "S3_paper")."""
    if name not in CATALOG_BUILDERS:
        raise InputError(f"unknown catalog group {name!r}; have {sorted(CATALOG_BUILDERS)}")
    return enumerate_closure(CATALOG_BUILDERS[name](), name, budget)


# ---------------------------------------------------------------------------
# reflections


@dataclass(frozen=True)
class ReflectionData:
    element: RMatrix
    hyperplane: tuple[CycNum, ...]  # normalized linear form, first nonzero = 1
    order_eH: int
    distinguished: bool
    nontrivial_eigenvalue: CycNum


def _hyperplane_form(m: RMatrix) -> tuple[CycNum, ...] | None:
    """Normalized defining form of Ker(m - 1) when that kernel is a hyperplane.

    The kernel is a hyperplane iff m - 1 has rank one: with r its first
    nonzero row and p the first nonzero column of r, every later row is zero
    or has r's support and s[j] r[p] = r[j] s[p].  The form is then r / r[p],
    the one row of the reduced echelon form of m - 1.
    """
    minus_one = -cyclo.ONE
    r = None
    for i, row in enumerate(m.rows):
        s = list(row)
        s[i] = s[i] + minus_one
        support = [j for j, x in enumerate(s) if x]
        if not support:
            continue
        if r is None:
            r, p, r_support = s, support[0], support
        elif support != r_support or any(s[j] * r[p] != r[j] * s[p] for j in support):
            return None
    if r is None:
        return None
    inv = 1 / r[p]
    return tuple(x * inv for x in r)


def reflections(group: RGroup) -> list[ReflectionData]:
    """All pseudo-reflections, with per-hyperplane orders and distinguished flags.

    The nontrivial eigenvalue of a pseudo-reflection equals its determinant;
    the distinguished one on each hyperplane is the generator of the pointwise
    stabilizer with eigenvalue exp(2*pi*i/e_H).  The group is scanned once;
    the result is kept on the group object.
    """
    cache = getattr(group, "_refl", None)
    if cache is None:
        cache = _scan_reflections(group)
        object.__setattr__(group, "_refl", cache)
    return list(cache)


def _scan_reflections(group: RGroup) -> tuple[ReflectionData, ...]:
    by_hyperplane: dict[tuple[CycNum, ...], list[RMatrix]] = {}
    for m in group.elements:
        form = _hyperplane_form(m)
        if form is not None:
            by_hyperplane.setdefault(form, []).append(m)
    result: list[ReflectionData] = []
    for form in sorted(by_hyperplane, key=lambda f: [repr(c) for c in f]):
        elems = by_hyperplane[form]
        e_h = len(elems) + 1
        zeta = cyclo.root_of_unity(e_h, 1)
        for m in elems:
            eig = m.det()
            result.append(
                ReflectionData(
                    element=m,
                    hyperplane=form,
                    order_eH=e_h,
                    distinguished=(eig == zeta),
                    nontrivial_eigenvalue=eig,
                )
            )
    return tuple(result)


def hyperplanes(group: RGroup) -> list[tuple[tuple[CycNum, ...], int]]:
    """Distinct reflecting hyperplanes with their e_H, in deterministic order."""
    seen: dict[tuple[CycNum, ...], int] = {}
    for refl in reflections(group):
        seen[refl.hyperplane] = refl.order_eH
    return sorted(seen.items(), key=lambda kv: [repr(c) for c in kv[0]])


# ---------------------------------------------------------------------------
# Galois stability, Hermitian form, center


def galois_image(group: RGroup, k: int):
    """Apply sigma_k entrywise.  Returns (image matrices, same_set, permutation).

    When the image set equals the group's element set, the permutation of
    element indices induced by sigma_k is returned (it is then an
    automorphism of the group); otherwise permutation is None.
    """
    order_lcm = 1
    for m in group.elements:
        for row in m.rows:
            for e in row:
                order_lcm = order_lcm * e.order // gcd(order_lcm, e.order)
    if gcd(k % order_lcm if order_lcm > 1 else 1, order_lcm) != 1:
        raise InputError(f"sigma_{k} is not defined on entries of order lcm {order_lcm}")
    images = [m.galois(k) for m in group.elements]
    same_set = all(m in group for m in images)
    perm = [group.index_of(m) for m in images] if same_set else None
    return images, same_set, perm


def invariant_hermitian_form(group: RGroup) -> RMatrix:
    """H = (1/|G|) * sum of conj(w)^T w; exact G-invariant Hermitian form.

    Raises if exact invariance or Hermitian symmetry fails; positive
    definiteness is checked numerically (tolerance 1e-9) by the caller via
    `hermitian_is_positive_definite`.
    """
    dim = group.dim
    total = [[cyclo.ZERO] * dim for _ in range(dim)]
    for w in group.elements:
        m = w.conjugate().transpose() * w
        for i in range(dim):
            for j in range(dim):
                total[i][j] = total[i][j] + m.rows[i][j]
    scale = cyclo.rational(Fraction(1, group.order()))
    h = RMatrix([[scale * total[i][j] for j in range(dim)] for i in range(dim)])
    if h.conjugate().transpose() != h:
        raise RuntimeError("averaged form is not Hermitian")
    for w in group.generators:
        if w.conjugate().transpose() * h * w != h:
            raise RuntimeError("averaged form is not exactly invariant")
    return h


def hermitian_is_positive_definite(h: RMatrix, tol: float = 1e-9) -> bool:
    import numpy as np

    arr = np.array(
        [[complex(cyclo.embed_complex(e)) for e in row] for row in h.rows]
    )
    eig = np.linalg.eigvalsh(arr)
    return bool(eig.min() > tol)


def center(group: RGroup) -> list[RMatrix]:
    """Elements commuting with every generator."""
    return [
        m
        for m in group.elements
        if all(m * g == g * m for g in group.generators)
    ]


# ---------------------------------------------------------------------------
# field of definition


@dataclass(frozen=True)
class FieldOfDefinition:
    conductor: int
    fixing_subgroup: tuple[int, ...]  # residues in (Z/f)^x fixing all traces
    degree: int  # [K : Q]


def field_of_definition(group: RGroup) -> FieldOfDefinition:
    """Smallest conductor f with all traces in Q(zeta_f), plus the exact
    subgroup of (Z/f)^x fixing every trace."""
    traces = sorted({m.trace() for m in group.elements}, key=lambda t: (t.order, t.coeffs))
    big = 1
    for t in traces:
        big = big * t.order // gcd(big, t.order)

    def fixing(modulus: int) -> list[int]:
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
    for f in sorted(_divisors(big)):
        if f % 4 == 2:
            continue  # Q(zeta_f) = Q(zeta_(f/2)); never a minimal conductor
        # K lies in Q(zeta_f) iff the kernel of (Z/big)^x -> (Z/f)^x fixes K
        if all(k in fix_big for k in units_big if k % f == 1 % f):
            conductor = f
            break
    fix = tuple(sorted(fixing(conductor)))
    phi = cyclo.euler_phi(conductor)
    return FieldOfDefinition(conductor=conductor, fixing_subgroup=fix, degree=phi // len(fix))


def _divisors(n: int) -> list[int]:
    out = []
    for k in range(1, int(n**0.5) + 1):
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
    return sorted(out)


# ---------------------------------------------------------------------------
# JSON group specs


def group_from_spec(spec: dict, budget: int = DEFAULT_ELEMENT_BUDGET) -> RGroup:
    """Build a group from the JSON spec format.

    {"kind":"monomial","d":..,"e":..,"n":..} (Shephard-Todd labels)
    {"kind":"catalog","name":".."}
    {"kind":"explicit","generators":[[CycNum,...], ...]} with each generator a
    row-major flat list of dim*dim entries, all of one dim.
    A missing or malformed field raises InputError.
    """
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "monomial":
        d, e, n = (_spec_field(spec, k, int) for k in ("d", "e", "n"))
        return build_monomial_group(d, e, n, budget)
    if kind == "catalog":
        return build_catalog_group(_spec_field(spec, "name", str), budget)
    if kind == "explicit":
        gens = _spec_field(spec, "generators", lambda gs: [_flat_square_matrix(g) for g in gs])
        if len({g.dim for g in gens}) > 1:
            raise InputError("explicit generators have different dimensions")
        return enumerate_closure(gens, spec.get("label", "explicit"), budget)
    raise InputError(f"unknown group spec kind {kind!r}")


def _spec_field(spec: dict, key: str, convert):
    try:
        return convert(spec[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"group spec field {key!r} missing or malformed: {exc}") from exc


def _flat_square_matrix(flat) -> RMatrix:
    entries = [cyclo.from_json(e) for e in flat]
    dim = round(len(entries) ** 0.5)
    if dim < 1 or dim * dim != len(entries):
        raise InputError("explicit generator is not a flattened square matrix")
    return RMatrix([entries[i * dim : (i + 1) * dim] for i in range(dim)])
