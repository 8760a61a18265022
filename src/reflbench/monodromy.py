"""Monodromy of finite coverings of the thrice-punctured line.

A cover is specified by a finite group, a fiber (the group itself for regular
covers, or the cosets of a subgroup), and images of the two free loop
generators x, y; the loop around infinity is always derived as z = (x y)^-1.
Ramification profiles list, per branch point, the multiset of cycle lengths
of the loop image acting on the fiber (left translation for regular covers),
and the genus comes from Riemann-Hurwitz: 2 - 2g = 2N - sum (length - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matgroup
from .errors import InputError
from .fpgroups import Word, parse_word, word_letters
from .matgroup import RGroup, RMatrix
from .orbit import orbit


@dataclass(frozen=True)
class CoverSpec:
    group: RGroup
    fiber: tuple  # tuple of fiber points (group elements or frozensets of them)
    point_index: dict
    x_image: RMatrix
    y_image: RMatrix
    label: str

    @property
    def z_image(self) -> RMatrix:
        return (self.x_image * self.y_image).inverse()

    def degree(self) -> int:
        return len(self.fiber)


def regular_cover(group: RGroup, x: RMatrix, y: RMatrix, label: str) -> CoverSpec:
    fiber = tuple(group.elements)
    return CoverSpec(
        group=group,
        fiber=fiber,
        point_index={el: i for i, el in enumerate(fiber)},
        x_image=x,
        y_image=y,
        label=label,
    )


def coset_cover(group: RGroup, subgroup_elements, x: RMatrix, y: RMatrix, label: str) -> CoverSpec:
    sub = list(subgroup_elements)
    seen: set = set()
    fiber = []
    for g in group.elements:
        coset = frozenset(g * h for h in sub)
        if coset not in seen:
            seen.add(coset)
            fiber.append(coset)
    return CoverSpec(
        group=group,
        fiber=tuple(fiber),
        point_index={c: i for i, c in enumerate(fiber)},
        x_image=x,
        y_image=y,
        label=label,
    )


def _translation_permutation(spec: CoverSpec, g: RMatrix) -> list[int]:
    perm = []
    for pt in spec.fiber:
        if isinstance(pt, frozenset):
            image = frozenset(g * h for h in pt)
        else:
            image = g * pt
        perm.append(spec.point_index[image])
    return perm


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
    """Cycle structure of x, y and z = (xy)^-1 on the fiber."""
    perms = {
        "0": _translation_permutation(spec, spec.x_image),
        "1": _translation_permutation(spec, spec.y_image),
        "inf": _translation_permutation(spec, spec.z_image),
    }
    n = spec.degree()
    # sanity: x y z = identity on the fiber
    xy = [perms["0"][perms["1"][i]] for i in range(n)]
    xyz = [xy[perms["inf"][i]] for i in range(n)]
    if xyz != list(range(n)):
        raise RuntimeError("loop images do not compose to the identity")
    # transitivity of <x, y> on the fiber; the group is finite, so forward
    # images alone reach the whole orbit
    reached = orbit(0, (perms["0"], perms["1"]), lambda i, p: p[i])
    profile = RamificationProfile(
        degree=n,
        points={k: cycle_type(p) for k, p in perms.items()},
        transitive=(len(reached) == n),
    )
    for cycles in profile.points.values():
        if sum(ln * ct for ln, ct in cycles.items()) != n:
            raise RuntimeError("cycle lengths do not add up to the degree")
    return profile


def order_based_profile(spec: CoverSpec) -> RamificationProfile:
    """Independent computation for regular covers: every cycle of a loop image
    has length equal to the element's order, with N/order cycles."""
    if any(isinstance(pt, frozenset) for pt in spec.fiber):
        raise InputError("order-based profile applies to regular covers only")
    n = spec.degree()
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
    group = matgroup.build_catalog_group("G4")
    s1, s2 = group.generators
    return regular_cover(group, s1 * s1, s2 * s2, "G4_paper")


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


def cover_from_spec(data: dict, budget: int = matgroup.DEFAULT_ELEMENT_BUDGET) -> CoverSpec:
    """{"group": <group spec>, "fiber": "regular"|{"subgroup":[words]},
    "x": <word>, "y": <word>} with words over g1..gk naming the generators."""
    try:
        group = matgroup.group_from_spec(data["group"], budget)
        names = [f"g{i+1}" for i in range(len(group.generators))]
        x = _evaluate(group, names, parse_word(data["x"], names))
        y = _evaluate(group, names, parse_word(data["y"], names))
        fiber = data.get("fiber", "regular")
        if fiber == "regular":
            return regular_cover(group, x, y, data.get("label", "cover"))
        sub_gens = [_evaluate(group, names, parse_word(t, names)) for t in fiber["subgroup"]]
        # no words give the trivial subgroup
        sub = matgroup.enumerate_closure(
            sub_gens or [RMatrix.identity(group.dim)], "fiber subgroup", budget
        )
        return coset_cover(group, sub.elements, x, y, data.get("label", "cover"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed cover spec: {exc}") from exc


def _evaluate(group: RGroup, names: list[str], word: Word) -> RMatrix:
    """The group element a word over g1..gk names."""
    m = RMatrix.identity(group.dim)
    for sym, step in word_letters(word):
        gen = group.generators[names.index(sym)]
        m = m * (gen if step > 0 else gen.inverse())
    return m
