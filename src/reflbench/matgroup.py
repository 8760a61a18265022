"""Finite matrix groups over cyclotomic fields.

Covers the monomial family G(de,e,n) (labelled here by the Shephard-Todd
triple, so ``build_monomial_group(4, 4, 2)`` is the group usually written
G(4,4,2) of order 4^2*2!/4 = 8), two explicit catalogued 2x2 models, group
enumeration, pseudo-reflection data, entrywise Galois stability, invariant
Hermitian forms, centers and the field of definition.

Enumeration is breadth-first with deterministic ordering: elements are
discovered in (element discovery order) x (generator index) order, so element
indices are reproducible and can back permutation actions downstream.

A group is enumerated as a permutation group on the orbit of the standard
basis rows e_1..e_n under v -> v g (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 4).  The generators are kept as
permutations of the whole orbit; an element is kept only as the points it
sends the frame to, the frame being the basis rows and the generators' rows.
The basis images fix the element (row k of it is the image of e_k), so the
action is faithful, and the generators' rows are what the center and the
conjugacy classes read.  An element's record has at most dim * (1 +
#generators) entries however large the orbit is.  A group keeps one point
index and one element index (basis images -> element).  Closure, center, the
Hermitian form, the Galois images, the conjugacy classes and the covers of
`monodromy` look up points in them; no matrix product runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import factorial, gcd

from . import cyclo, linalg
from .cyclo import CycNum
from .errors import BudgetExceededError, InputError
from .orbit import orbit

DEFAULT_ELEMENT_BUDGET = 200_000
ORDER_CAP = 10_000  # RMatrix.order gives up past this many powers


class RMatrix:
    """Square matrix of CycNum entries; immutable and hashable."""

    # _sparse: filled by sparse_rows()
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
        sparse = other.sparse_rows()
        return RMatrix._trusted(tuple(_row_times(row, sparse) for row in self.rows))

    def sparse_rows(self) -> tuple[list[tuple[int, CycNum]], ...]:
        """The nonzero (column, entry) pairs of each row, kept once computed."""
        if self._sparse is None:
            self._sparse = tuple([(j, b) for j, b in enumerate(row) if b] for row in self.rows)
        return self._sparse

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

    def order(self) -> int:
        p = self
        for k in range(1, ORDER_CAP + 1):
            if p.is_identity():
                return k
            p = p * self
        raise RuntimeError("element order exceeds cap; matrix may not have finite order")


def _row_times(v, sparse) -> tuple[CycNum, ...]:
    """The row vector v times the matrix whose sparse rows are given: the sum
    of a * (row k) over the nonzero entries a = v[k]; only nonzero products
    are added."""
    acc = [cyclo.ZERO] * len(v)
    for k, a in enumerate(v):
        if a:
            for j, b in sparse[k]:
                acc[j] = acc[j] + a * b
    return tuple(acc)


def then(x: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The images of (element x) * (element g): v -> v x g, with x given by
    the points it sends some vectors to and g by its permutation of the
    points."""
    return tuple(map(g.__getitem__, x))


@dataclass(frozen=True)
class RGroup:
    """A finite matrix group given by generators plus its full element list.

    `points` is the orbit of the basis rows under v -> v g, with e_k point
    k and `point_index` the inverse map, and `generator_perms` are the
    generators' permutations of it (point p goes to generator_perms[j][p]).
    The frame is the basis points followed by the other points the
    generators send them to, and `images[i]` lists the points elements[i]
    sends the frame to; `images[0]`, the identity's, is the frame itself.
    """

    label: str
    generators: tuple[RMatrix, ...]
    elements: tuple[RMatrix, ...]
    points: tuple[tuple[CycNum, ...], ...] = field(repr=False, compare=False)
    point_index: dict[tuple[CycNum, ...], int] = field(repr=False, compare=False)
    generator_perms: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    images: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_index(self) -> dict[tuple[int, ...], int]:
        """An element's basis images -> its index in `elements`."""
        dim = self.dim
        return {x[:dim]: i for i, x in enumerate(self.images)}

    def index_of(self, m: RMatrix) -> int:
        """The element index of m, read off its rows; KeyError if m is not in the group."""
        return self.element_index[tuple(map(self.point_index.__getitem__, m.rows))]


def enumerate_closure(
    generators: list[RMatrix], label: str, budget: int = DEFAULT_ELEMENT_BUDGET
) -> RGroup:
    """Breadth-first closure with deterministic element indices.

    The orbit of the basis rows comes first, each generator acting once on
    each point.  Every basis vector's orbit has at most |G| points, so more
    than dim * budget points proves |G| > budget.  The elements are then the
    orbit of the frame under the generators' permutations; the basis images
    fix an element, so they come in the order that the products element *
    generator would find them, and row k of an element is the point it
    sends e_k to.
    """
    if not generators:
        raise InputError("a group needs at least one generator (or use the trivial identity)")
    what = f"group enumeration for {label!r}"
    dim = generators[0].dim
    if any(g.dim != dim for g in generators):
        raise ValueError("dimension mismatch")
    points = list(RMatrix.identity(dim).rows)
    index = {p: i for i, p in enumerate(points)}
    sparse = [g.sparse_rows() for g in generators]
    images: list[list[int]] = [[] for _ in generators]
    for v in points:  # the loop reaches the points appended below
        for sp, image in zip(sparse, images):
            w = _row_times(v, sp)
            i = index.get(w)
            if i is None:
                if budget is not None and len(points) >= dim * budget:
                    raise BudgetExceededError(f"{what} exceeded budget {budget}")
                i = index[w] = len(points)
                points.append(w)
            image.append(i)
    gen_perms = tuple(map(tuple, images))
    for k, p in enumerate(gen_perms):
        # the points span the space and g maps them into themselves, so g is
        # invertible iff it permutes them
        if len(set(p)) < len(p):
            raise InputError(f"generator {k + 1} of {label!r} is not invertible")
    frame = list(range(dim))
    for p in gen_perms:
        frame += [i for i in p[:dim] if i not in frame]
    images = tuple(orbit(tuple(frame), gen_perms, then, budget, what))
    points = tuple(points)
    elements = tuple(RMatrix._trusted(tuple([points[i] for i in x[:dim]])) for x in images)
    return RGroup(
        label=label,
        generators=tuple(generators),
        elements=elements,
        points=points,
        point_index=index,
        generator_perms=gen_perms,
        images=images,
    )


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
    automorphism of the group); otherwise permutation is None.  The rows of
    the elements are the basis orbit's points, so sigma_k is applied once per
    point, and an image is in the group iff its rows are points whose indices
    are some element's basis images.
    """
    order_lcm = 1
    for p in group.points:
        for e in p:
            order_lcm = order_lcm * e.order // gcd(order_lcm, e.order)
    if gcd(k % order_lcm if order_lcm > 1 else 1, order_lcm) != 1:
        raise InputError(f"sigma_{k} is not defined on entries of order lcm {order_lcm}")
    dim = group.dim
    moved = [tuple(cyclo.galois(e, k) for e in p) for p in group.points]
    moved_index = [group.point_index.get(q) for q in moved]
    matrices = []
    perm = []
    for x in group.images:
        matrices.append(RMatrix._trusted(tuple([moved[i] for i in x[:dim]])))
        perm.append(group.element_index.get(tuple([moved_index[i] for i in x[:dim]])))
    same_set = None not in perm
    return matrices, same_set, perm if same_set else None


def invariant_hermitian_form(group: RGroup) -> RMatrix:
    """H = (1/|G|) * sum of conj(w)^T w; exact G-invariant Hermitian form.

    Row k of w runs over the orbit O_k of e_k, meeting each point |G|/|O_k|
    times, so H = sum_k (1/|O_k|) sum over p in O_k of conj(p)^T p: one outer
    product per orbit point, and basis vectors in one orbit share its sum.
    Raises if exact invariance or Hermitian symmetry fails; the caller decides
    positive definiteness with `hermitian_is_positive_definite`.
    """
    dim = group.dim
    weights: dict[frozenset[int], int] = {}  # orbit of e_k -> basis vectors in it
    for k in range(dim):
        orb = next((o for o in weights if k in o), None)
        if orb is None:
            orb = frozenset(orbit(k, group.generator_perms, lambda i, g: g[i]))
        weights[orb] = weights.get(orb, 0) + 1
    total = [[cyclo.ZERO] * dim for _ in range(dim)]
    for orb, count in weights.items():
        acc = [[cyclo.ZERO] * dim for _ in range(dim)]
        for i in orb:
            p = group.points[i]
            support = [(j, x) for j, x in enumerate(p) if x]
            for a, x in support:
                cx = cyclo.galois(x, -1)
                for b, y in support:
                    acc[a][b] = acc[a][b] + cx * y
        scale = cyclo.rational(Fraction(count, len(orb)))
        for a in range(dim):
            for b in range(dim):
                total[a][b] = total[a][b] + scale * acc[a][b]
    h = RMatrix._trusted(tuple(map(tuple, total)))
    if h.conjugate().transpose() != h:
        raise RuntimeError("averaged form is not Hermitian")
    for w in group.generators:
        if w.conjugate().transpose() * h * w != h:
            raise RuntimeError("averaged form is not exactly invariant")
    return h


def hermitian_is_positive_definite(h: RMatrix) -> bool:
    """Sylvester's criterion (Horn and Johnson, Matrix Analysis, Thm 7.2.5): a
    Hermitian h is positive definite iff its leading principal minors, exact and
    real, are all positive. A rational minor's sign is exact; any other minor is
    nonzero, and its sign is read off `embed_complex` outside the bound below.
    Raises ValueError if h is not Hermitian, RuntimeError if a sign is undecided."""
    if h.conjugate().transpose() != h:
        raise ValueError("positive definiteness needs a Hermitian matrix")
    for k in range(1, h.dim + 1):
        m = linalg.det([list(r[:k]) for r in h.rows[:k]])
        if m.is_rational():
            value = m.as_fraction()
        else:
            # u = 2^-53: zeta_n is rounded to ~7u and zeta_n^i takes i rounded
            # products (<= sqrt(5)u each), so it is off by <= 10iu, i < n; the
            # terms and their sum add <= (n + 2)u sum|c_i|. The total is under
            # sum|c_i| * n * 2^-49, and the bound doubles that.
            value = cyclo.embed_complex(m).real
            bound = sum(abs(c) for c in m.coeffs) * m.order * 2.0**-48
            if abs(value) <= bound:
                raise RuntimeError(f"sign of leading minor {k} is not decided: {value!r}")
        if value <= 0:
            return False
    return True


def center(group: RGroup) -> list[RMatrix]:
    """The elements whose conjugacy class is a singleton, in index order: an
    element is central iff it commutes with every generator."""
    return [group.elements[c[0]] for c in conjugacy_classes(group) if len(c) == 1]


def conjugacy_classes(group: RGroup) -> list[tuple[int, ...]]:
    """Element indices of each conjugacy class, in order of first element.

    A class is the orbit of an element under conjugation g x g^-1 by the
    generators, whose basis images e_k g x g^-1 are read at the frame points
    e_k g.  The classes are found once per group and kept on the group
    object; each call returns a fresh list.
    """
    cache = getattr(group, "_classes", None)
    if cache is None:
        cache = _scan_classes(group)
        object.__setattr__(group, "_classes", cache)
    return list(cache)


def _scan_classes(group: RGroup) -> tuple[tuple[int, ...], ...]:
    dim = group.dim
    images = group.images
    index = group.element_index
    position = {p: s for s, p in enumerate(images[0])}
    conjugators = []
    for g in group.generator_perms:
        inverse = [0] * len(g)
        for a, b in enumerate(g):
            inverse[b] = a
        conjugators.append((inverse, [position[i] for i in g[:dim]]))

    def conjugate(i, conjugator):
        inverse, at = conjugator
        x = images[i]
        return index[tuple([inverse[x[s]] for s in at])]

    done = [False] * len(images)
    classes = []
    for i in range(len(images)):
        if not done[i]:
            members = tuple(orbit(i, conjugators, conjugate))
            for j in members:
                done[j] = True
            classes.append(members)
    return tuple(classes)


# ---------------------------------------------------------------------------
# field of definition


@dataclass(frozen=True)
class FieldOfDefinition:
    conductor: int
    fixing_subgroup: tuple[int, ...]  # residues in (Z/f)^x fixing all traces
    degree: int  # [K : Q]


def field_of_definition(group: RGroup) -> FieldOfDefinition:
    """Smallest conductor f with all traces in Q(zeta_f), plus the exact
    subgroup of (Z/f)^x fixing every trace.  The trace is a class function,
    so one element of each conjugacy class gives every trace."""
    elements = group.elements
    traces = sorted(
        {elements[c[0]].trace() for c in conjugacy_classes(group)}, key=lambda t: (t.order, t.coeffs)
    )
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
