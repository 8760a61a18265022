import functools
import random

import pytest

from reflbench import cyclo, linalg
from reflbench.arrangement import (
    Arrangement,
    _close,
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
    tops = [f for f in lat.flats if f.rank == lat.rank()]
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
        members, rk = _close(arr.hyperplanes, subset)
        assert members == _closure_by_rank(arr.hyperplanes, subset)
        rows = [list(arr.hyperplanes[i]) for i in sorted(subset)]
        assert rk == linalg.rank(rows)
        assert lat.by_set[members].rank == rk
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


# ---------------------------------------------------------------------------
# the modular-coatom search against the earlier bottom-up search and the
# classification


def _dfs_supersolvable(arr):
    """The earlier search: depth-first from the bottom flat through flats
    that `is_modular` accepts in the whole lattice."""
    lat = intersection_lattice(arr)
    top_rank = lat.rank()
    modular = functools.cache(lambda f: is_modular(lat, f))

    def extend(chain):
        last = chain[-1]
        if last.rank == top_rank:
            return chain
        for f in lat.flats:
            if f.rank == last.rank + 1 and last.hyperplane_set < f.hyperplane_set and modular(f):
                got = extend(chain + [f])
                if got:
                    return got
        return None

    bottom = lat.flats[0]
    return modular(bottom) and extend([bottom]) is not None


def _differential_cases():
    yield pytest.param(Arrangement(dim=2, hyperplanes=(), multiplicities=()), id="empty")
    for label in BENCHMARK_GROUPS:
        yield pytest.param(_arrangement(label), id=str(label))
    rng = random.Random(2014)
    for label in ((2, 2, 4), (3, 1, 3), (4, 4, 3)):
        arr = _arrangement(label)
        for k in range(8):
            picks = sorted(rng.sample(range(len(arr.hyperplanes)), rng.randint(4, 12)))
            sub = Arrangement(
                dim=arr.dim,
                hyperplanes=tuple(arr.hyperplanes[i] for i in picks),
                multiplicities=tuple(arr.multiplicities[i] for i in picks),
            )
            yield pytest.param(sub, id=f"{label}-sub{k}")


@pytest.mark.parametrize("arr", _differential_cases())
def test_coatom_search_matches_depth_first_search(arr):
    verdict, chain = is_supersolvable(arr)
    assert verdict == _dfs_supersolvable(arr)
    assert (chain is not None) == verdict
    if chain:
        lat = intersection_lattice(arr)
        flats = [lat.by_set[frozenset(s)] for s in chain]
        assert [f.rank for f in flats] == list(range(lat.rank() + 1))
        assert all(is_modular(lat, f) for f in flats)


@pytest.mark.parametrize("label", DIFFERENTIAL, ids=str)
def test_join_is_the_closure_of_the_union(label):
    arr = _arrangement(label)
    lat = intersection_lattice(arr)
    rng = random.Random(str(label))
    for _ in range(40):
        a, b = rng.choice(lat.flats), rng.choice(lat.flats)
        union = a.hyperplane_set | b.hyperplane_set
        assert lat.join(a, b).hyperplane_set == _close(arr.hyperplanes, union)[0]


# every G(d,e,n) with n >= 3 and at most 20 hyperplanes
VERDICT_TABLE = [
    (1, 1, 3), (2, 2, 3), (2, 1, 3), (3, 3, 3), (3, 1, 3), (4, 4, 3), (4, 2, 3),
    (4, 1, 3), (5, 5, 3), (5, 1, 3), (6, 6, 3), (1, 1, 4), (2, 2, 4), (2, 1, 4),
    (3, 3, 4), (1, 1, 5), (2, 2, 5), (1, 1, 6),
]  # fmt: skip


def _mobius_char_poly(lat):
    """sum over flats X of mu(0, X) t^(dim - rank X), constant term first."""
    mu = {}
    for f in lat.flats:  # ordered by rank, so every flat below f comes first
        below = [g for g in mu if g.hyperplane_set < f.hyperplane_set]
        mu[f] = 1 if f.rank == 0 else -sum(mu[g] for g in below)
    dim = lat.arrangement.dim
    poly = [0] * (dim + 1)
    for f, m in mu.items():
        poly[dim - f.rank] += m
    return poly


def _product_poly(roots):
    """prod (t - b) over the roots, constant term first."""
    poly = [1]
    for b in roots:
        poly = [x - b * y for x, y in zip([0] + poly, poly + [0])]
    return poly


@pytest.mark.parametrize("label", VERDICT_TABLE, ids=str)
def test_verdict_matches_hoge_roehrle(label):
    """G(d,e,n), n >= 3, is supersolvable iff d = 1, e < d or it is D3 = A3
    (Hoge and Röhrle, Proc. AMS 142, 2014)."""
    d, e, n = label
    verdict, _ = is_supersolvable(_arrangement(label))
    assert verdict == (d == 1 or e < d or label == (2, 2, 3))


@pytest.mark.parametrize("label", VERDICT_TABLE, ids=str)
def test_characteristic_polynomial_factors_over_exponents(label):
    """chi(A, t) = prod (t - b_i) over the Orlik-Solomon exponents of G(d,e,n)."""
    d, e, n = label
    if e < d:
        exponents = [k * d + 1 for k in range(n)]
    else:
        exponents = [k * d + 1 for k in range(n - 1)] + [(n - 1) * (d - 1)]
    lat = intersection_lattice(_arrangement(label))
    assert _mobius_char_poly(lat) == _product_poly(exponents)
