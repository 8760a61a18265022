"""Breadth-first orbits: the one closure loop of the workbench.

Group enumeration, permutation-group orders, Schreier spanning trees and
cover fibres are all the orbit of a start point under a list of generators.
`orbit` visits the points in breadth-first order, trying the generators in
the order given, and records for each point the edge that first reached it
(a Schreier vector; Holt, Eick and O'Brien, Handbook of Computational Group
Theory, ch. 4).  Dict insertion order is discovery order, so indices built
from it are reproducible.
"""

from __future__ import annotations

from .errors import BudgetExceededError


def orbit(start, gens, act, budget=None, what="orbit") -> dict:
    """Map each point reachable from `start` to (previous point, generator
    index), with `start` mapped to None; `act(point, gen)` is the image.

    Raises BudgetExceededError instead of adding a point beyond `budget`.
    """
    gens = list(gens)
    edges = {start: None}
    queue = [start]
    i = 0
    while i < len(queue):
        point = queue[i]
        i += 1
        for k, g in enumerate(gens):
            image = act(point, g)
            if image not in edges:
                if budget is not None and len(edges) >= budget:
                    raise BudgetExceededError(f"{what} exceeded budget {budget}")
                edges[image] = (point, k)
                queue.append(image)
    return edges
