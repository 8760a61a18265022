"""Reflection arrangements: intersection lattices, supersolvability, discriminants.

Flats of the (central) intersection lattice are identified with the full set
of hyperplane indices containing the flat's subspace; rank = codimension of
the subspace.  The lattice order is reverse inclusion of subspaces, i.e.
inclusion of hyperplane index sets.  A closure is one elimination of
independent forms: the kernel basis read off its pivots spans the flat, and
a hyperplane contains the flat iff its form annihilates that basis.  Meets
are intersections of index sets, which are closed already; a join is the
first flat, in rank order, above both.
Supersolvability is decided top-down by modular coatoms, each tested with
the rank-2 flats the lattice already holds.

A slower oracle that enumerates *all* maximal chains is provided for
cross-checking on small instances.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import cyclo, linalg, matgroup
from .cyclo import CycNum
from .errors import BudgetExceededError, InputError
from .mpoly import MPoly

MAX_DIM = 6
MAX_HYPERPLANES = 60


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[tuple[CycNum, ...], ...]  # normalized pairwise non-proportional forms
    multiplicities: tuple[int, ...]  # e_H per hyperplane, aligned

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
    """The reflection arrangement of a matrix group with its e_H multiplicities."""
    hyps = matgroup.hyperplanes(group)
    return Arrangement(
        dim=group.dim,
        hyperplanes=tuple(form for form, _ in hyps),
        multiplicities=tuple(e for _, e in hyps),
    )


# ---------------------------------------------------------------------------
# intersection lattice


@dataclass(frozen=True)
class Flat:
    hyperplane_set: frozenset[int]
    rank: int


def _close(forms, idx_set: frozenset[int]) -> tuple[frozenset[int], int]:
    """The hyperplanes containing the flat cut out by `idx_set`, and its rank.

    One elimination of the chosen forms gives a kernel basis of the flat's
    subspace, one sparse vector per free column; a hyperplane contains the
    flat iff its form annihilates every kernel vector.
    """
    if not idx_set:
        return frozenset(), 0
    reduced, pivots = linalg.rref([list(forms[i]) for i in sorted(idx_set)])
    kernel = [
        [(c, -row[f]) for c, row in zip(pivots, reduced) if row[f]] + [(f, cyclo.ONE)]
        for f in range(len(reduced[0]))
        if f not in pivots
    ]
    members = frozenset(
        j
        for j, form in enumerate(forms)
        if j in idx_set
        or not any(sum((form[c] * x for c, x in vec if form[c]), cyclo.ZERO) for vec in kernel)
    )
    return members, len(reduced)


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


def intersection_lattice(arr: Arrangement) -> FlatLattice:
    """All flats, breadth-first by rank from the whole space.

    Each flat is reached as the closure of an independent set of hyperplanes
    (its base's basis plus one), kept as the flat's basis, so every
    elimination has rank + 1 rows.  From one base, a hyperplane that already
    lies in a cover found from that base is skipped: adding it gives the same
    cover, since one hyperplane raises the rank by at most one.
    """
    if arr.dim > MAX_DIM or len(arr.hyperplanes) > MAX_HYPERPLANES:
        raise BudgetExceededError(
            f"lattice budget is dim <= {MAX_DIM} and <= {MAX_HYPERPLANES} hyperplanes"
        )
    forms = arr.hyperplanes
    found: dict[frozenset[int], tuple[int, frozenset[int]]] = {frozenset(): (0, frozenset())}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for base in frontier:
            basis = found[base][1]
            covered = set(base)
            for j in range(len(forms)):
                if j in covered:
                    continue
                closed, rk = _close(forms, basis | {j})
                covered |= closed
                if closed not in found:
                    found[closed] = rk, basis | {j}
                    nxt.append(closed)
        frontier = nxt
    ordered = sorted(found, key=lambda s: (found[s][0], sorted(s)))
    flats = [Flat(hyperplane_set=s, rank=found[s][0]) for s in ordered]
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


def is_supersolvable_bruteforce(arr: Arrangement, max_hyperplanes: int = 14):
    """Oracle: enumerate ALL maximal chains, test every flat of each for
    modularity.  Exponential; only for small instances."""
    if len(arr.hyperplanes) > max_hyperplanes:
        raise BudgetExceededError(
            f"brute-force oracle limited to {max_hyperplanes} hyperplanes"
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
    """Delta = product over hyperplanes of alpha_H^(e_H), exact expansion."""
    result = MPoly.constant(arr.dim, 1)
    for form, mult in zip(arr.hyperplanes, arr.multiplicities):
        result = result * (MPoly.linear_form(form) ** mult)
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
        dim = int(data["dim"])
        hyps = tuple(
            normalize_form([cyclo.from_json(c) for c in h]) for h in data["hyperplanes"]
        )
        mult = tuple(int(m) for m in data["mult"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed arrangement encoding: {exc}") from exc
    return Arrangement(dim=dim, hyperplanes=hyps, multiplicities=mult)
