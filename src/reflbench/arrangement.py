"""Reflection arrangements: intersection lattices, supersolvability, discriminants.

Flats of the (central) intersection lattice are identified with the full set
of hyperplane indices containing the flat's subspace; rank = codimension of
the subspace.  The lattice order is reverse inclusion of subspaces, i.e.
inclusion of hyperplane index sets.  The covers of a flat X are the
hyperplanes of its restriction {X ∩ H : H ⊉ X}, and X ∩ H = X ∩ H' iff the
two forms restricted to X are proportional (Orlik and Terao, *Arrangements
of Hyperplanes*, 1992, ch. 1): one pass that normalises the restricted forms
finds every cover, and one pivot step restricts the forms to a cover.  A
group's arrangement keeps each generator's permutation of the hyperplanes,
and covers are found at one flat per orbit: the others are its images.
Meets are intersections of index sets, which are closed already; a join is
the first flat, in rank order, above both.
Supersolvability is decided top-down by modular coatoms, each tested with
the rank-2 flats the lattice already holds.

A slower oracle that enumerates *all* maximal chains is provided for
cross-checking on small instances.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import cyclo, matgroup
from .cyclo import CycNum
from .errors import BudgetExceededError, InputError
from .mpoly import MPoly
from .orbit import orbit

# the lattice's and the discriminant's budget; the slowest discriminants it
# accepts took 6.8-7.9 s (G(3,3,6)) and 4-5.5 s (G(2,1,6), G(2,2,6)) on 2 vCPUs
MAX_DIM = 6
MAX_HYPERPLANES = 60
BRUTEFORCE_HYPERPLANES = 14  # the supersolvability oracle lists every maximal chain


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[tuple[CycNum, ...], ...]  # normalized pairwise non-proportional forms
    multiplicities: tuple[int, ...]  # e_H per hyperplane, aligned
    # permutations of the hyperplane indices under which the arrangement is
    # invariant, one per group generator; an arrangement read from JSON has none
    symmetries: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.hyperplanes) != len(self.multiplicities):
            raise InputError("hyperplane/multiplicity lists misaligned")
        if any(m < 2 for m in self.multiplicities):
            raise InputError("multiplicities e_H must be >= 2")
        if self.dim < 1:
            raise InputError("an arrangement needs dim >= 1")
        if any(len(form) != self.dim for form in self.hyperplanes):
            raise InputError(f"every linear form needs exactly dim = {self.dim} coefficients")
        if any(next((c for c in form if c), None) != cyclo.ONE for form in self.hyperplanes):
            raise InputError("linear forms must be normalized: first nonzero coefficient 1")
        if len(set(self.hyperplanes)) != len(self.hyperplanes):
            raise InputError("two linear forms are proportional (one hyperplane listed twice)")
        if any(sorted(p) != list(range(len(self.hyperplanes))) for p in self.symmetries):
            raise InputError("a symmetry must permute the hyperplane indices")

    @functools.cached_property
    def lattice(self) -> "FlatLattice":
        """The intersection lattice, built once and kept on the arrangement."""
        return intersection_lattice(self)


def normalize_form(form) -> tuple[CycNum, ...]:
    form = [c if isinstance(c, CycNum) else cyclo.rational(c) for c in form]
    lead = next((c for c in form if c), None)
    if lead is None:
        raise InputError("zero linear form is not a hyperplane")
    inv = lead.inverse()
    return tuple(inv * c for c in form)


def arrangement_of(group: matgroup.RGroup) -> Arrangement:
    """The reflection arrangement of a matrix group with its e_H multiplicities.
    Generator g permutes the hyperplanes: H goes to the hyperplane of g r g^-1
    for a reflection r on H, read off element indices."""
    hyps = matgroup.hyperplanes(group)
    hyperplane_of = matgroup.reflections(group)
    one = {h: i for i, h in hyperplane_of.items()}
    conjugators, conjugate = matgroup.conjugation(group)
    return Arrangement(
        dim=group.dim,
        hyperplanes=tuple(form for form, _ in hyps),
        multiplicities=tuple(e for _, e in hyps),
        symmetries=tuple(
            tuple(hyperplane_of[conjugate(one[h], c)] for h in range(len(hyps)))
            for c in conjugators
        ),
    )


# ---------------------------------------------------------------------------
# intersection lattice


@dataclass(frozen=True)
class Flat:
    hyperplane_set: frozenset[int]
    rank: int


@dataclass
class FlatLattice:
    arrangement: Arrangement
    flats: list[Flat]  # deterministic order: by (rank, sorted hyperplane set)
    by_set: dict[frozenset[int], Flat] = field(default_factory=dict)

    def rank(self) -> int:
        return max(f.rank for f in self.flats)

    def meet(self, a: Flat, b: Flat) -> Flat:
        # the hyperplanes containing both flats are closed already
        return self.by_set[a.hyperplane_set & b.hyperplane_set]

    def join(self, a: Flat, b: Flat) -> Flat:
        # every other flat above both has a larger rank than the least one
        both = a.hyperplane_set | b.hyperplane_set
        return next(f for f in self.flats if both <= f.hyperplane_set)


def _check_budget(arr: Arrangement, what: str) -> None:
    if arr.dim > MAX_DIM or len(arr.hyperplanes) > MAX_HYPERPLANES:
        raise BudgetExceededError(
            f"{what} budget is dim <= {MAX_DIM} and <= {MAX_HYPERPLANES} hyperplanes"
        )


def _permute(hyperplane_set: frozenset[int], perm: tuple[int, ...]) -> frozenset[int]:
    return frozenset(map(perm.__getitem__, hyperplane_set))


def _covers(base: frozenset[int], rows: dict[int, tuple]) -> dict[frozenset[int], tuple]:
    """Each cover of the flat `base`, with the class key of its new hyperplanes.

    `rows` holds, for every hyperplane off the flat, its form restricted to
    the flat on a fixed basis of it.  The key of a class of proportional rows
    is the row divided by its first nonzero entry, canonical as CycNum is; a
    flat of dimension 1 is one class.
    """
    inverse: dict[CycNum, CycNum] = {}
    classes: dict[tuple, list[int]] = {}
    for i, row in rows.items():
        if len(row) == 1:
            key = (cyclo.ONE,)
        else:
            lead = next(c for c in row if c)
            inv = inverse.get(lead) or inverse.setdefault(lead, lead.inverse())
            key = tuple(inv * c for c in row)
        classes.setdefault(key, []).append(i)
    return {base.union(members): key for key, members in classes.items()}


def _pivot(row: tuple, key: tuple, lead: int) -> tuple:
    """`row` on the basis of the cover cut out by `key`, whose column `lead` is 1."""
    f = row[lead]
    return tuple(c - f * b if f and b else c for k, (c, b) in enumerate(zip(row, key)) if k != lead)


def intersection_lattice(arr: Arrangement) -> FlatLattice:
    """All flats, breadth-first by rank from the whole space, up to symmetry.

    Only one flat per orbit under the symmetries is a base: every flat covers
    some flat, so some image of it covers that flat's orbit representative.
    A base carries the rows of the hyperplanes off it (the forms themselves
    at rank 0), and a new representative gets its rows by one pivot step.
    """
    _check_budget(arr, "lattice")
    rank: dict[frozenset[int], int] = {frozenset(): 0}
    frontier = [(frozenset(), dict(enumerate(arr.hyperplanes)))]  # (orbit representative, its rows)
    while frontier:
        nxt = []
        for base, rows in frontier:
            for cover, key in _covers(base, rows).items():
                if cover not in rank:
                    rank.update((s, rank[base] + 1) for s in orbit(cover, arr.symmetries, _permute))
                    lead = next(k for k, c in enumerate(key) if c)
                    restricted = {i: _pivot(r, key, lead) for i, r in rows.items() if i not in cover}
                    nxt.append((cover, restricted))
        frontier = nxt
    ordered = sorted(rank, key=lambda s: (rank[s], sorted(s)))
    flats = [Flat(hyperplane_set=s, rank=rank[s]) for s in ordered]
    return FlatLattice(arrangement=arr, flats=flats, by_set={f.hyperplane_set: f for f in flats})


def is_modular(lat: FlatLattice, f: Flat) -> bool:
    for g in lat.flats:
        if lat.meet(f, g).rank + lat.join(f, g).rank != f.rank + g.rank:
            return False
    return True


def is_supersolvable(arr: Arrangement):
    """Top-down search for a maximal chain of modular flats, by modular coatoms.

    It rests on three facts:
    - A is supersolvable iff it has a modular coatom X with A_X
      supersolvable (Björner, Edelman and Ziegler, DCG 5, 1990).
    - A coatom X is modular iff it meets every rank-2 flat: each pair of
      hyperplanes outside X lies in a rank-2 flat holding a hyperplane of X
      (Brylawski's criterion).
    - An element modular in [0, X], with X modular, is modular in L
      (Stanley, *Supersolvable lattices*, 1972).  So the witness is a chain
      of modular flats of L.
    The rank-2 flat of each pair of hyperplanes is read off the lattice.
    Returns (verdict, witness) where the witness is the chain of hyperplane
    index sets from the bottom flat to the top, or None.
    """
    lat = arr.lattice
    pair_flat = {
        pair: f.hyperplane_set
        for f in lat.flats
        if f.rank == 2
        for pair in itertools.combinations(sorted(f.hyperplane_set), 2)
    }

    def modular_in(x: Flat, top: Flat) -> bool:
        outside = sorted(top.hyperplane_set - x.hyperplane_set)
        return all(pair_flat[p] & x.hyperplane_set for p in itertools.combinations(outside, 2))

    @functools.cache
    def chain(top: Flat):
        if top.rank == 0:
            return [top]
        for x in lat.flats:
            if x.rank == top.rank - 1 and x.hyperplane_set < top.hyperplane_set:
                below = modular_in(x, top) and chain(x)
                if below:
                    return below + [top]
        return None

    found = chain(lat.flats[-1])
    if found is None:
        return False, None
    return True, [sorted(f.hyperplane_set) for f in found]


def is_supersolvable_bruteforce(arr: Arrangement):
    """Oracle: enumerate ALL maximal chains, test every flat of each for
    modularity.  Exponential; only for up to BRUTEFORCE_HYPERPLANES."""
    if len(arr.hyperplanes) > BRUTEFORCE_HYPERPLANES:
        raise BudgetExceededError(
            f"brute-force oracle limited to {BRUTEFORCE_HYPERPLANES} hyperplanes"
        )
    lat = arr.lattice
    top_rank = lat.rank()
    modular = functools.cache(lambda f: is_modular(lat, f))

    def chains(chain: list[Flat]):
        last = chain[-1]
        if last.rank == top_rank:
            yield chain
            return
        for f in lat.flats:
            if f.rank == last.rank + 1 and last.hyperplane_set < f.hyperplane_set:
                yield from chains(chain + [f])

    for chain in chains([lat.flats[0]]):
        if all(modular(f) for f in chain):
            return True, [sorted(f.hyperplane_set) for f in chain]
    return False, None


# ---------------------------------------------------------------------------
# discriminant


def discriminant_poly(arr: Arrangement) -> MPoly:
    """Delta = product over hyperplanes of alpha_H^(e_H), exact expansion.

    The forms are multiplied in blocks keyed by (|support|, support, e_H),
    each block's product is raised to e_H, and the blocks meet in key order:
    the d forms z_i - zeta^k z_j of a pair of G(de,e,n) give z_i^d - z_j^d
    first, so the partial products stay small and mostly rational."""
    _check_budget(arr, "discriminant")
    result = MPoly.constant(arr.dim, 1)
    blocks: dict[tuple, MPoly] = {}
    for form, mult in zip(arr.hyperplanes, arr.multiplicities):
        support = tuple(i for i, c in enumerate(form) if c)
        key = (len(support), support, mult)
        blocks[key] = blocks.get(key, result) * MPoly.linear_form(form)
    for key in sorted(blocks):
        result = result * blocks[key] ** key[2]
    return result


# ---------------------------------------------------------------------------
# JSON: {"dim":n, "hyperplanes":[[CycNum,...],...], "mult":[e_H,...]}


def to_json(arr: Arrangement) -> dict:
    return {
        "dim": arr.dim,
        "hyperplanes": [[cyclo.to_json(c) for c in h] for h in arr.hyperplanes],
        "mult": list(arr.multiplicities),
    }


def from_json(data: dict) -> Arrangement:
    """Decode an arrangement; forms of the wrong length, zero or proportional
    forms raise InputError (through `Arrangement`)."""
    try:
        dim = cyclo.json_int(data["dim"])
        hyps = tuple(
            normalize_form([cyclo.from_json(c) for c in h]) for h in data["hyperplanes"]
        )
        mult = tuple(map(cyclo.json_int, data["mult"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed arrangement encoding: {exc}") from exc
    return Arrangement(dim=dim, hyperplanes=hyps, multiplicities=mult)
