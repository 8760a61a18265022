import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from reflbench import arrangement, cyclo, linalg
from reflbench.arrangement import (
    Arrangement,
    Flat,
    FlatLattice,
    _permute,
    arrangement_of,
    discriminant_poly,
    from_json,
    intersection_lattice,
    is_modular,
    is_supersolvable,
    is_supersolvable_bruteforce,
    normalize_form,
    to_json,
)
from reflbench.errors import BudgetExceededError, InputError
from reflbench.invariants import act_matrix
from reflbench.matgroup import build_catalog_group, build_monomial_group
from reflbench.mpoly import MPoly, proportional
from reflbench.orbit import orbit


def _rank(rows):
    return len(linalg.rref(rows)[0])


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
        assert f.rank == (_rank(rows) if rows else 0)


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
    # G(m,m,2) has m lines and G(2,2,5) 20 planes: up to 14 hyperplanes are
    # listed, more are refused before any lattice is built
    assert arrangement.BRUTEFORCE_HYPERPLANES == 14
    assert is_supersolvable_bruteforce(arrangement_of(build_monomial_group(14, 14, 2)))[0]
    for group in (build_monomial_group(15, 15, 2), build_monomial_group(2, 2, 5)):
        arr = arrangement_of(group)
        with pytest.raises(BudgetExceededError, match="limited to 14 hyperplanes"):
            is_supersolvable_bruteforce(arr)
        assert "lattice" not in arr.__dict__


def test_lattice_dimension_budget():
    forms = tuple(
        tuple(cyclo.ONE if i == j else cyclo.ZERO for j in range(7)) for i in range(7)
    )
    arr = Arrangement(dim=7, hyperplanes=forms, multiplicities=(2,) * 7)
    with pytest.raises(BudgetExceededError):
        intersection_lattice(arr)
    with pytest.raises(BudgetExceededError):
        discriminant_poly(arr)


def test_discriminant_degrees():
    g4 = arrangement_of(build_catalog_group("G4"))
    assert discriminant_poly(g4).total_degree() == 12
    single = Arrangement(dim=2, hyperplanes=((cyclo.ONE, cyclo.ZERO),), multiplicities=(2,))
    assert discriminant_poly(single) == MPoly.variable(2, 0) ** 2


# G(d,e,n) with n <= 4, with and without coordinate hyperplanes
CLOSED_FORM_GROUPS = [
    (2, 1, 2), (3, 1, 2), (3, 3, 2), (4, 1, 2), (4, 2, 2), (4, 4, 2), (5, 5, 2), (6, 2, 2),
    (6, 3, 2), (8, 8, 2), (1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 3, 3), (4, 2, 3),
    (4, 4, 3), (5, 1, 3), (6, 3, 3), (1, 1, 4), (2, 1, 4), (2, 2, 4), (3, 3, 4),
]  # fmt: skip


@pytest.mark.parametrize("label", CLOSED_FORM_GROUPS, ids=str)
def test_discriminant_matches_the_closed_form(label):
    # the d forms z_i - zeta^k z_j multiply to z_i^d - z_j^d, each with e_H = 2,
    # and for d/e >= 2 each coordinate hyperplane z_i has e_H = d/e
    d, e, n = label
    z = [MPoly.variable(n, i) for i in range(n)]
    want = MPoly.constant(n, 1)
    for i, j in itertools.combinations(range(n), 2):
        want = want * (z[i] ** d - z[j] ** d) ** 2
    if d // e >= 2:
        for zi in z:
            want = want * zi ** (d // e)
    assert discriminant_poly(arrangement_of(build_monomial_group(d, e, n))) == want


def _discriminant_one_by_one(arr):
    """Reference: each alpha_H^(e_H) joins the product in the listed order."""
    result = MPoly.constant(arr.dim, 1)
    for form, mult in zip(arr.hyperplanes, arr.multiplicities):
        result = result * MPoly.linear_form(form) ** mult
    return result


def _random_arrangement_json(rng):
    """A random arrangement whose forms share few supports, with rational and
    cyclotomic entries, unnormalized scales and mixed e_H."""
    dim = rng.randint(2, 4)
    entries = [cyclo.rational(q) for q in (1, -1, 2, Fraction(1, 3), Fraction(-5, 2))]
    entries += [cyclo.root_of_unity(n, k) for n, k in ((3, 1), (4, 1), (5, 2), (8, 3), (6, 5))]
    entries += [cyclo.root_of_unity(3, 1) + 2, cyclo.root_of_unity(12, 1) * Fraction(1, 2)]
    supports = [
        sorted(rng.sample(range(dim), rng.randint(1, dim))) for _ in range(rng.randint(1, 3))
    ]
    forms, seen = [], set()
    for _ in range(rng.randint(1, 9 - dim)):
        form = [cyclo.ZERO] * dim
        for i in rng.choice(supports):
            form[i] = rng.choice(entries)
        scale, normal = rng.choice(entries), normalize_form(form)
        if normal not in seen:
            seen.add(normal)
            forms.append([cyclo.to_json(scale * c) for c in form])
    mult = [rng.choice((2, 2, 3, 4)) for _ in forms]
    return {"dim": dim, "hyperplanes": forms, "mult": mult}


@pytest.mark.parametrize("seed", range(40))
def test_discriminant_matches_the_one_by_one_product(seed):
    arr = from_json(_random_arrangement_json(random.Random(f"discriminant:{seed}")))
    assert discriminant_poly(arr) == _discriminant_one_by_one(arr)


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
        {**_two_forms_json([cyclo.to_json(cyclo.ZERO), cyclo.to_json(cyclo.ONE)]), "dim": 2.5},
        {**_two_forms_json([cyclo.to_json(cyclo.ZERO), cyclo.to_json(cyclo.ONE)]), "mult": [2, 2.7]},
        {**_two_forms_json([cyclo.to_json(cyclo.ZERO), cyclo.to_json(cyclo.ONE)]), "mult": [2, True]},
    ],
    ids=["ragged", "shorter-than-dim", "proportional", "float-dim", "float-mult", "bool-mult"],
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
        j for j in range(len(forms)) if _rank(reduced + [list(forms[j])]) == rk
    )


def _close(forms, idx_set):
    """The hyperplanes containing the flat cut out by `idx_set`, and its rank.

    The closure the lattice used before it restricted forms: one elimination
    of the chosen forms gives a kernel basis of the flat's subspace, one
    sparse vector per free column; a hyperplane contains the flat iff its
    form annihilates every kernel vector.
    """
    if not idx_set:
        return frozenset(), 0
    kernel = linalg.kernel([list(forms[i]) for i in sorted(idx_set)])
    members = frozenset(
        j
        for j, form in enumerate(forms)
        if j in idx_set
        or not any(sum((form[c] * x for c, x in vec if form[c]), cyclo.ZERO) for vec in kernel)
    )
    return members, len(forms[0]) - len(kernel)


def _lattice_by_closure(arr):
    """The lattice as built before restriction: breadth-first from orbit
    representatives, each cover the closure of its base's basis plus one
    hyperplane, skipping hyperplanes of a cover already found from the base."""
    forms = arr.hyperplanes
    rank = {frozenset(): 0}
    frontier = [(frozenset(), frozenset())]  # (orbit representative, its basis)
    while frontier:
        nxt = []
        for base, basis in frontier:
            covered = set(base)
            for j in range(len(forms)):
                if j in covered:
                    continue
                closed, rk = _close(forms, basis | {j})
                covered |= closed
                if closed not in rank:
                    rank.update((s, rk) for s in orbit(closed, arr.symmetries, _permute))
                    nxt.append((closed, basis | {j}))
        frontier = nxt
    ordered = sorted(rank, key=lambda s: (rank[s], sorted(s)))
    flats = [Flat(hyperplane_set=s, rank=rank[s]) for s in ordered]
    return FlatLattice(arrangement=arr, flats=flats, by_set={f.hyperplane_set: f for f in flats})


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
        members = _closure_by_rank(arr.hyperplanes, subset)
        rows = [list(arr.hyperplanes[i]) for i in sorted(subset)]
        assert lat.by_set[members].rank == _rank(rows)
        # the oracle of the lattice differential tests agrees
        assert _close(arr.hyperplanes, subset) == (members, _rank(rows))
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


def _sub_arrangements(seed, shuffle=False):
    """Eight random sub-arrangements of 4 to 12 hyperplanes from each of three
    groups; with `shuffle`, the first three of each avoid the last coordinate
    (so they are not essential) and the hyperplanes are listed in random order."""
    rng = random.Random(seed)
    for label in ((2, 2, 4), (3, 1, 3), (4, 4, 3)):
        arr = _arrangement(label)
        for k in range(8):
            pool = range(len(arr.hyperplanes))
            if shuffle and k < 3:
                pool = [i for i in pool if not arr.hyperplanes[i][-1]]
            picks = sorted(rng.sample(pool, rng.randint(4, min(12, len(pool)))))
            if shuffle:
                rng.shuffle(picks)
            sub = Arrangement(
                dim=arr.dim,
                hyperplanes=tuple(arr.hyperplanes[i] for i in picks),
                multiplicities=tuple(arr.multiplicities[i] for i in picks),
            )
            yield pytest.param(sub, id=f"{label}-sub{k}")


def _differential_cases():
    yield pytest.param(Arrangement(dim=2, hyperplanes=(), multiplicities=()), id="empty")
    for label in BENCHMARK_GROUPS:
        yield pytest.param(_arrangement(label), id=str(label))
    yield from _sub_arrangements(2014)


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
        assert lat.join(a, b).hyperplane_set == _closure_by_rank(arr.hyperplanes, union)


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


# ---------------------------------------------------------------------------
# the lattice up to symmetry against the lattice built at every flat

# the groups of the `arrangements` workload, and three of 403 to 648 flats
SYMMETRY_GROUPS = BENCHMARK_GROUPS + [
    (4, 4, 2), (6, 6, 2), (4, 1, 2), (8, 8, 2), (4, 4, 3), (2, 2, 5), (2, 1, 5), (3, 3, 4),
]  # fmt: skip


@pytest.mark.parametrize("label", SYMMETRY_GROUPS, ids=str)
def test_lattice_up_to_symmetry_matches_the_lattice_without(label):
    arr = _arrangement(label)
    assert arr.symmetries and all(len(p) == len(arr.hyperplanes) for p in arr.symmetries)
    plain = dataclasses.replace(arr, symmetries=())
    assert plain == arr and plain.symmetries == ()
    lat, full = intersection_lattice(arr), intersection_lattice(plain)
    assert lat.flats == full.flats and lat.by_set == full.by_set


def _orbit_count(arr, lat):
    seen, count = set(), 0
    for f in lat.flats:
        if f.hyperplane_set not in seen:
            count += 1
            seen.update(orbit(f.hyperplane_set, arr.symmetries, _permute))
    return count


def test_lattice_eliminates_at_orbit_representatives(monkeypatch):
    # covers are found once per orbit representative, and with no elimination
    calls = []
    covers = arrangement._covers
    monkeypatch.setattr(arrangement, "_covers", lambda *a: calls.append(a) or covers(*a))
    monkeypatch.setattr(linalg, "rref", lambda rows: pytest.fail("the lattice eliminated"))
    arr = _arrangement((2, 2, 6))
    lat = intersection_lattice(arr)
    orbits = _orbit_count(arr, lat)
    assert (len(lat.flats), orbits, len(arr.hyperplanes)) == (2546, 26, 30)
    assert len(calls) == orbits
    assert len({base for base, _ in calls}) == orbits


def test_a_permutation_that_is_no_symmetry_is_refused_or_changes_the_lattice():
    arr = _arrangement((2, 2, 4))
    full = intersection_lattice(dataclasses.replace(arr, symmetries=()))
    n = len(arr.hyperplanes)
    for bad in [(0,) * n, tuple(range(n - 1)), tuple(range(1, n + 1))]:
        with pytest.raises(InputError, match="permute"):
            dataclasses.replace(arr, symmetries=(bad,))
    # a transposition of two hyperplanes that sends some flat to a set that
    # is no flat
    flats = set(full.by_set)
    swaps = [tuple(k if h == 0 else 0 if h == k else h for h in range(n)) for k in range(1, n)]
    swap = next(p for p in swaps if any(_permute(s, p) not in flats for s in flats))
    wrong = intersection_lattice(dataclasses.replace(arr, symmetries=(swap,)))
    assert wrong.flats != full.flats


# ---------------------------------------------------------------------------
# the lattice by restriction against the lattice by closure

# the lattices the `arrangements` workload reads from JSON
WORKLOAD_LATTICES = [
    (1, 1, 3), (2, 1, 2), (3, 3, 2), (4, 4, 2), (5, 5, 2), (6, 6, 2), (3, 1, 2), (4, 1, 2),
    (1, 1, 4), (2, 2, 3), (2, 1, 3), (3, 3, 3),
]  # fmt: skip


def _assert_same_lattice(arr, oracle=None):
    lat, want = intersection_lattice(arr), _lattice_by_closure(oracle or arr)
    assert lat.flats == want.flats and lat.by_set == want.by_set


def _rescaled_json(arr, rng):
    """`arr` written to JSON with its forms shuffled, each times a random
    rational, and read back."""
    scales = [cyclo.rational(q) for q in (2, 3, -1, -2, Fraction(1, 3), Fraction(-5, 2))]
    forms = list(zip(arr.hyperplanes, arr.multiplicities))
    rng.shuffle(forms)
    hyperplanes = []
    for form, _ in forms:
        scale = rng.choice(scales)
        hyperplanes.append([cyclo.to_json(scale * c) for c in form])
    return from_json({"dim": arr.dim, "hyperplanes": hyperplanes, "mult": [e for _, e in forms]})


@pytest.mark.parametrize("label", WORKLOAD_LATTICES, ids=str)
def test_lattice_by_restriction_matches_closure_on_json(label):
    arr = _arrangement(label)
    for seed in range(3):
        moved = _rescaled_json(arr, random.Random(f"{label}:{seed}"))
        assert not moved.symmetries
        _assert_same_lattice(moved)


@pytest.mark.parametrize("arr", _sub_arrangements(1992, shuffle=True))
def test_lattice_by_restriction_matches_closure_on_sub_arrangements(arr):
    _assert_same_lattice(arr)


def test_lattice_sub_arrangements_include_non_essential_ones():
    subs = [p.values[0] for p in _sub_arrangements(1992, shuffle=True)]
    assert len(subs) == 24 and all(4 <= len(a.hyperplanes) <= 12 for a in subs)
    ranks = [intersection_lattice(a).rank() for a in subs]
    assert any(r < a.dim for r, a in zip(ranks, subs))
    assert any(r == a.dim for r, a in zip(ranks, subs))


def test_lattice_by_restriction_of_the_empty_arrangement_and_dim_1():
    empty = Arrangement(dim=3, hyperplanes=(), multiplicities=())
    line = Arrangement(dim=1, hyperplanes=((cyclo.ONE,),), multiplicities=(2,))
    for arr in (empty, line):
        _assert_same_lattice(arr)
    assert [(set(f.hyperplane_set), f.rank) for f in intersection_lattice(line).flats] == [
        (set(), 0),
        ({0}, 1),
    ]


@pytest.mark.parametrize("label", SYMMETRY_GROUPS + [(2, 2, 6), (3, 3, 5)], ids=str)
def test_lattice_by_restriction_matches_closure_with_and_without_symmetries(label):
    arr = _arrangement(label)
    _assert_same_lattice(arr)
    # without its symmetries the lattice restricts at every flat; the oracle
    # keeps them, which is the same lattice at a fraction of the eliminations
    _assert_same_lattice(dataclasses.replace(arr, symmetries=()), oracle=arr)


def _covers_keyed_on_raw_rows(base, rows):
    """`arrangement._covers` with one mutation: its classes are keyed on the
    rows as they are, not divided by their first nonzero entry."""
    classes = {}
    for i, row in rows.items():
        classes.setdefault(row, []).append(i)
    return {base.union(members): key for key, members in classes.items()}


@pytest.mark.parametrize("label", WORKLOAD_LATTICES, ids=str)
def test_lattice_differential_fails_on_classes_keyed_on_raw_rows(monkeypatch, label):
    # split classes give sets that are no flats, or leave a hyperplane of a
    # cover outside it with a zero row, which has no first nonzero entry
    monkeypatch.setattr(arrangement, "_covers", _covers_keyed_on_raw_rows)
    with pytest.raises((AssertionError, StopIteration)):
        _assert_same_lattice(_rescaled_json(_arrangement(label), random.Random(f"{label}:0")))
