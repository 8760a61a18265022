"""Monodromy of finite coverings of the thrice-punctured line.

A cover is specified by a finite group G, a subgroup H (trivial for regular
covers) and images of the two free loop generators x, y; the loop around
infinity is always derived as z = (x y)^-1.  The fiber is the right cosets
H\\G, each the set of its elements' basis images (see `matgroup`), and a
loop acts by right multiplication, Hg -> Hgx, moving those images by x's
permutation of the points: no matrix product runs.  gH -> Hg^-1 carries x
on G/H to x^-1 on H\\G, which has the same cycle type, so the profiles are
those of the left action (left translation for regular covers).
Ramification profiles list, per branch point, the multiset of cycle lengths
of the loop image acting on the fiber, and the genus comes from
Riemann-Hurwitz: 2 - 2g = 2N - sum (length - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matgroup
from .errors import InputError
from .fpgroups import PermQuotient, Presentation, parse_word
from .matgroup import RGroup, RMatrix, then
from .orbit import orbit


@dataclass(frozen=True)
class CoverSpec:
    group: RGroup
    fiber: tuple[frozenset[tuple[int, ...]], ...]  # right cosets, by basis images
    x: tuple[int, ...]  # the loops' permutations of group.points
    y: tuple[int, ...]
    label: str

    @property
    def x_image(self) -> RMatrix:
        return self.group.elements[self.group.element_index[self.x[: self.group.dim]]]

    @property
    def y_image(self) -> RMatrix:
        return self.group.elements[self.group.element_index[self.y[: self.group.dim]]]

    @property
    def z_image(self) -> RMatrix:
        return (self.x_image * self.y_image).inverse()

    def degree(self) -> int:
        return len(self.fiber)


def _coset_times(coset: frozenset, perm) -> frozenset:
    return frozenset(then(x, perm) for x in coset)


def coset_cover(group: RGroup, subgroup, x, y, label: str) -> CoverSpec:
    """The cover on the right cosets H\\G, with H generated by the point
    permutations `subgroup` (none: H = 1, the regular cover) and the loops
    acting by the point permutations x, y.  H is the orbit of the identity's
    basis images, the fiber the orbit of H under G."""
    # H lies in G, which was enumerated under the element budget
    sub = frozenset(orbit(tuple(range(group.dim)), subgroup, then))
    fiber = tuple(orbit(sub, group.generator_perms, _coset_times))
    return CoverSpec(group=group, fiber=fiber, x=x, y=y, label=label)


def cycle_type(perm: list[int]) -> dict[int, int]:
    """Map cycle length -> number of cycles of that length."""
    seen = [False] * len(perm)
    out: dict[int, int] = {}
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        out[ln] = out.get(ln, 0) + 1
    return out


@dataclass(frozen=True)
class RamificationProfile:
    degree: int
    points: dict  # label in {"0","1","inf"} -> dict {cycle length: count}
    transitive: bool

    def total_ramification(self) -> int:
        total = 0
        for cycles in self.points.values():
            for length, count in cycles.items():
                total += (length - 1) * count
        return total


def monodromy_profile(spec: CoverSpec) -> RamificationProfile:
    """Cycle structure of x, y and z = (xy)^-1 on the fiber; z's permutation
    is the inverse of x's followed by y's."""
    index = {c: i for i, c in enumerate(spec.fiber)}
    x, y = ([index[_coset_times(c, perm)] for c in spec.fiber] for perm in (spec.x, spec.y))
    n = spec.degree()
    z = [0] * n
    for i in range(n):
        z[y[x[i]]] = i
    # transitivity of <x, y> on the fiber; the group is finite, so forward
    # images alone reach the whole orbit
    reached = orbit(0, (x, y), lambda i, p: p[i])
    return RamificationProfile(
        degree=n,
        points={k: cycle_type(p) for k, p in (("0", x), ("1", y), ("inf", z))},
        transitive=(len(reached) == n),
    )


def order_based_profile(spec: CoverSpec) -> RamificationProfile:
    """Independent computation for regular covers: every cycle of a loop image
    has length equal to the element's order, with N/order cycles."""
    n = spec.degree()
    if n != spec.group.order():
        raise InputError("order-based profile applies to regular covers only")
    points = {}
    for key, el in (("0", spec.x_image), ("1", spec.y_image), ("inf", spec.z_image)):
        k = el.order()
        if n % k:
            raise RuntimeError("element order does not divide the degree")
        points[key] = {k: n // k}
    return RamificationProfile(degree=n, points=points, transitive=True)


def riemann_hurwitz_genus(profile: RamificationProfile) -> int:
    """g with 2 - 2g = 2*degree - total ramification; must be a nonnegative integer."""
    chi = 2 * profile.degree - profile.total_ramification()
    if chi % 2:
        raise InputError("Euler characteristic 2N - sum(e-1) is odd; profile inconsistent")
    g = (2 - chi) // 2
    if g < 0:
        raise InputError(f"negative genus {g}; profile inconsistent")
    return g


# ---------------------------------------------------------------------------
# catalogued cover


def braid_loop_images(name: str) -> CoverSpec:
    """Catalogued covers; "G4_paper" is the regular degree-24 cover where the
    free generators x, y act by the squares of the catalogued generators."""
    if name != "G4_paper":
        raise InputError(f"unknown cover catalog entry {name!r}")
    return cover_from_spec(
        {"group": {"kind": "catalog", "name": "G4"}, "x": "g1^2", "y": "g2^2", "label": name}
    )


# ---------------------------------------------------------------------------
# JSON


def profile_to_json(p: RamificationProfile) -> dict:
    return {
        "degree": p.degree,
        "transitive": p.transitive,
        "points": {
            k: sorted([ln, ct] for ln, ct in cycles.items())
            for k, cycles in p.points.items()
        },
    }


def profile_from_json(data: dict) -> RamificationProfile:
    """The inverse of `profile_to_json` ("transitive" defaults to true); raises InputError."""
    try:
        return RamificationProfile(
            degree=int(data["degree"]),
            points={k: {int(ln): int(ct) for ln, ct in v} for k, v in data["points"].items()},
            transitive=bool(data.get("transitive", True)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed ramification profile: {exc}") from exc


def cover_from_spec(data: dict, budget: int = matgroup.DEFAULT_ELEMENT_BUDGET) -> CoverSpec:
    """{"group": <group spec>, "fiber": "regular"|{"subgroup":[words]},
    "x": <word>, "y": <word>} with words over g1..gk naming the generators.
    A word is evaluated on the points, as a composition of the generators'
    point permutations."""
    try:
        group = matgroup.group_from_spec(data["group"], budget)
        names = tuple(f"g{i+1}" for i in range(len(group.generators)))
        on_points = PermQuotient(
            group.label, Presentation(group.label, names, ()),
            dict(zip(names, group.generator_perms)), len(group.points),
        )
        x, y = (on_points.eval_word(parse_word(data[k], names)) for k in ("x", "y"))
        fiber = data.get("fiber", "regular")
        # no words give the trivial subgroup, the regular cover's
        words = [] if fiber == "regular" else fiber["subgroup"]
        sub = [on_points.eval_word(parse_word(w, names)) for w in words]
        return coset_cover(group, sub, x, y, data.get("label", "cover"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cover spec: {exc}") from exc
