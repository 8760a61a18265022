import random

import pytest

from reflbench import cyclo, linalg
from reflbench.arrangement import (
    Arrangement,
    arrangement_of,
    discriminant_poly,
    from_json,
    intersection_lattice,
    is_modular,
    is_supersolvable,
    is_supersolvable_bruteforce,
    to_json,
)
from reflbench.errors import BudgetExceededError, InputError
from reflbench.invariants import act_matrix
from reflbench.matgroup import build_catalog_group, build_monomial_group
from reflbench.mpoly import MPoly, proportional


def test_arrangement_of_counts():
    s3 = arrangement_of(build_catalog_group("S3_paper"))
    assert len(s3.hyperplanes) == 3 and s3.multiplicities == (2, 2, 2)
    g4 = arrangement_of(build_catalog_group("G4"))
    assert len(g4.hyperplanes) == 4 and g4.multiplicities == (3, 3, 3, 3)
    b2 = arrangement_of(build_monomial_group(2, 1, 2))
    assert len(b2.hyperplanes) == 4


def test_generic_two_lines_lattice():
    arr = Arrangement(
        dim=2,
        hyperplanes=((cyclo.ONE, cyclo.ZERO), (cyclo.ZERO, cyclo.ONE)),
        multiplicities=(2, 2),
    )
    lat = intersection_lattice(arr)
    assert len(lat.flats) == 4  # whole space, two lines, origin
    assert sorted(f.rank for f in lat.flats) == [0, 1, 1, 2]


def test_braid_arrangement_lattice():
    arr = arrangement_of(build_monomial_group(1, 1, 3))
    lat = intersection_lattice(arr)
    atoms = [f for f in lat.flats if f.rank == 1]
    tops = lat.top_flats()
    assert len(atoms) == 3 and len(tops) == 1 and tops[0].rank == 2


def test_d4_arrangement_has_12_atoms():
    arr = arrangement_of(build_monomial_group(2, 2, 4))
    lat = intersection_lattice(arr)
    assert len([f for f in lat.flats if f.rank == 1]) == 12


def test_lattice_ranks_equal_codimension():
    arr = arrangement_of(build_monomial_group(2, 1, 3))
    lat = intersection_lattice(arr)
    for f in lat.flats:
        rows = [list(arr.hyperplanes[i]) for i in sorted(f.hyperplane_set)]
        assert f.rank == (linalg.rank(rows) if rows else 0)


def test_rank_two_always_supersolvable():
    for g in ("G4", "S3_paper"):
        verdict, chain = is_supersolvable(arrangement_of(build_catalog_group(g)))
        assert verdict and chain is not None
    verdict, _ = is_supersolvable(arrangement_of(build_monomial_group(4, 4, 2)))
    assert verdict


def test_g213_supersolvable_with_witness():
    arr = arrangement_of(build_monomial_group(2, 1, 3))
    verdict, chain = is_supersolvable(arr)
    assert verdict
    assert len(chain) == 4  # ranks 0..3
    overdict, _ = is_supersolvable_bruteforce(arr)
    assert overdict


def test_g224_not_supersolvable_matches_oracle():
    arr = arrangement_of(build_monomial_group(2, 2, 4))
    verdict, chain = is_supersolvable(arr)
    assert verdict is False and chain is None
    overdict, _ = is_supersolvable_bruteforce(arr)
    assert overdict is False


def test_bruteforce_budget():
    arr = arrangement_of(build_monomial_group(2, 1, 3))
    with pytest.raises(BudgetExceededError):
        is_supersolvable_bruteforce(arr, max_hyperplanes=5)


def test_lattice_dimension_budget():
    forms = tuple(
        tuple(cyclo.ONE if i == j else cyclo.ZERO for j in range(7)) for i in range(7)
    )
    arr = Arrangement(dim=7, hyperplanes=forms, multiplicities=(2,) * 7)
    with pytest.raises(BudgetExceededError):
        intersection_lattice(arr)


def test_discriminant_degrees():
    g4 = arrangement_of(build_catalog_group("G4"))
    assert discriminant_poly(g4).total_degree() == 12
    single = Arrangement(dim=2, hyperplanes=((cyclo.ONE, cyclo.ZERO),), multiplicities=(2,))
    assert discriminant_poly(single) == MPoly.variable(2, 0) ** 2


def test_discriminant_invariant_up_to_scalar():
    for label in ("G4", "S3_paper"):
        g = build_catalog_group(label)
        delta = discriminant_poly(arrangement_of(g))
        for gen in g.generators:
            moved = act_matrix(delta, gen)
            ok, scalar = proportional(moved, delta)
            assert ok and scalar


def test_json_roundtrip():
    arr = arrangement_of(build_catalog_group("S3_paper"))
    again = from_json(to_json(arr))
    assert again.hyperplanes == arr.hyperplanes
    assert again.multiplicities == arr.multiplicities


def _two_forms_json(second, dim=2):
    one, zero = cyclo.to_json(cyclo.ONE), cyclo.to_json(cyclo.ZERO)
    return {"dim": dim, "hyperplanes": [[one, zero], second], "mult": [2, 2]}


@pytest.mark.parametrize(
    "data",
    [
        _two_forms_json([cyclo.to_json(cyclo.ONE)]),
        _two_forms_json([cyclo.to_json(cyclo.ZERO), cyclo.to_json(cyclo.ONE)], dim=3),
        _two_forms_json([cyclo.to_json(cyclo.rational(2)), cyclo.to_json(cyclo.ZERO)]),
    ],
    ids=["ragged", "shorter-than-dim", "proportional"],
)
def test_from_json_rejects_bad_shapes(data):
    with pytest.raises(InputError):
        from_json(data)


@pytest.mark.parametrize(
    "forms,dim",
    [
        (((cyclo.ONE, cyclo.ZERO), (cyclo.ONE,)), 2),
        (((cyclo.ONE, cyclo.ZERO), (cyclo.ZERO, cyclo.ONE)), 3),
        (((cyclo.ONE, cyclo.ZERO), (cyclo.ONE, cyclo.ZERO)), 2),
        (((cyclo.rational(2), cyclo.ZERO),), 2),
    ],
    ids=["ragged", "shorter-than-dim", "proportional", "not-normalized"],
)
def test_arrangement_rejects_bad_shapes(forms, dim):
    with pytest.raises(InputError):
        Arrangement(dim=dim, hyperplanes=forms, multiplicities=(2,) * len(forms))


# ---------------------------------------------------------------------------
# differential tests: the kernel-basis closure against one rank per hyperplane

DIFFERENTIAL = [("G4",), (3, 3, 3), (2, 1, 3), (2, 2, 4)]
# the supersolvability cases of the benchmark; all have at most 14 hyperplanes
BENCHMARK_GROUPS = [
    ("G4",), ("S3_paper",), (2, 1, 2), (3, 3, 2), (5, 5, 2), (3, 1, 2), (1, 1, 3),
    (1, 1, 4), (2, 2, 3), (2, 1, 3), (3, 3, 3), (2, 2, 4),
]  # fmt: skip


def _arrangement(label):
    if len(label) == 1:
        return arrangement_of(build_catalog_group(label[0]))
    return arrangement_of(build_monomial_group(*label))


def _closure_by_rank(forms, idx_set):
    """Reference closure: a form is a member iff adding it keeps the rank."""
    if not idx_set:
        return frozenset()
    reduced, _ = linalg.rref([list(forms[i]) for i in sorted(idx_set)])
    rk = len(reduced)
    return frozenset(
        j for j in range(len(forms)) if linalg.rank(reduced + [list(forms[j])]) == rk
    )


def _flats_by_rank(forms):
    """Reference lattice: close every flat with every hyperplane until no new set."""
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for base in frontier:
            for j in set(range(len(forms))) - base:
                closed = _closure_by_rank(forms, base | {j})
                if closed not in found:
                    found.add(closed)
                    nxt.append(closed)
        frontier = nxt
    return found


@pytest.mark.parametrize("label", DIFFERENTIAL, ids=str)
def test_closure_matches_rank_per_hyperplane(label):
    arr = _arrangement(label)
    lat = intersection_lattice(arr)
    rng = random.Random(str(label))
    n = len(arr.hyperplanes)
    for _ in range(25):
        subset = frozenset(rng.sample(range(n), rng.randint(1, n)))
        flat = lat.closure(subset)
        assert flat.hyperplane_set == _closure_by_rank(arr.hyperplanes, subset)
        rows = [list(arr.hyperplanes[i]) for i in sorted(subset)]
        assert flat.rank == linalg.rank(rows)
    assert set(lat.by_set) == _flats_by_rank(arr.hyperplanes)


@pytest.mark.parametrize("label", BENCHMARK_GROUPS, ids=str)
def test_verdict_matches_bruteforce_and_witness_is_modular(label):
    arr = _arrangement(label)
    verdict, chain = is_supersolvable(arr)
    assert verdict == is_supersolvable_bruteforce(arr)[0]
    assert (chain is not None) == verdict
    if chain:
        lat = intersection_lattice(arr)
        assert [lat.by_set[frozenset(s)].rank for s in chain] == list(range(lat.rank() + 1))
        assert all(is_modular(lat, lat.by_set[frozenset(s)]) for s in chain)
