import copy
import dataclasses
import math
import random
from collections import deque

import pytest

from reflbench import fpgroups
from reflbench.errors import BudgetExceededError, InputError
from reflbench.orbit import orbit
from reflbench.fpgroups import (
    CosetTable,
    GroupHom,
    PermQuotient,
    Presentation,
    artin_b_embedding,
    artin_i2_presentation,
    braid_presentation,
    corran_picantin_presentation,
    coxeter_quotient,
    exponent_sum,
    free_reduce,
    g12_braid_presentation,
    g12_conjugation,
    g13_braid_presentation,
    g13_conjugation,
    hom_bijective_on,
    i26_mirror_conjugated_by_bab,
    i26_to_g13_iso,
    i26_transported_conjugation,
    is_in_derived_f2,
    parse_word,
    permutation_table,
    schreier_data,
    schreier_rewrite,
    single,
    todd_coxeter,
    torsion_quotient,
    _validate_table,
    verify_hom,
    word_inverse,
    word_length,
    word_letters,
    word_mul,
    word_pow,
    word_str,
    _parabolic_quotient,
    _power_presentation,
)
from reflbench.gtaction import drinfeld_images, parse_pair


def test_parse_free_reduction():
    assert parse_word("s1 s1^-1", ("s1",)) == ()
    assert parse_word("[x,y]", ("x", "y")) == (("x", 1), ("y", 1), ("x", -1), ("y", -1))


def test_parse_longest_match_and_juxtaposition():
    g12 = g12_braid_presentation()
    assert parse_word("stus", g12.generators) == (("s", 1), ("t", 1), ("u", 1), ("s", 1))
    assert parse_word("tust", g12.generators) == (("t", 1), ("u", 1), ("s", 1), ("t", 1))
    # s1p must win over s1
    assert parse_word("s1p s1", ("s1", "s1p")) == (("s1p", 1), ("s1", 1))
    # uppercase = inverse sugar
    assert parse_word("s t s T S T", ("s", "t")) == parse_word("s t s t^-1 s^-1 t^-1", ("s", "t"))


def test_parse_errors():
    with pytest.raises(InputError):
        parse_word("q", ("s",))
    with pytest.raises(InputError):
        parse_word("s^", ("s",))
    with pytest.raises(InputError):
        parse_word("(s", ("s",))
    # exponents are ASCII digits: str.isdigit also takes an Arabic-Indic three,
    # which int() reads, and a superscript two, which it refuses
    for text in ("s1^\u0663", "s1^\u00b2", "s1^-\u0663"):
        with pytest.raises(InputError, match="malformed exponent at position 3"):
            parse_word(text, ("s1",))
    with pytest.raises(InputError, match="unknown symbol at position 4"):
        parse_word("s1^3\u0663", ("s1",))
    # 1 is the empty word only as the whole text
    with pytest.raises(InputError, match="unknown symbol at position 1"):
        parse_word("s1", ("s",))
    with pytest.raises(InputError, match="unknown symbol at position 2"):
        parse_word("s 1", ("s",))


def test_nesting_bound_counts_open_brackets_only():
    bound = fpgroups.MAX_WORD_NESTING
    assert parse_word("(" * bound + "s" + ")" * bound, ("s",)) == (("s", 1),)
    # a commutator nests its two halves one level down
    inner = "(" * (bound - 1) + "s" + ")" * (bound - 1)
    assert parse_word(f"[{inner},t]", ("s", "t")) == (("s", 1), ("t", 1), ("s", -1), ("t", -1))
    for text in ("(" * (bound + 1) + "s" + ")" * (bound + 1), f"[({inner}),t]", "(" * 1000):
        with pytest.raises(InputError, match=f"nested more than {bound} deep at position {bound}"):
            parse_word(text, ("s", "t"))
    # side by side, brackets do not add up
    assert parse_word("(s)" * 1000, ("s",)) == (("s", 1000),)
    assert parse_word("[s,t]" * 500, ("s", "t")) == (("s", 1), ("t", 1), ("s", -1), ("t", -1)) * 500


def test_one_is_the_empty_word():
    for text in ("1", " 1", "\t1 \n"):
        assert parse_word(text, ("s",)) == ()
    # a generator named 1 keeps its name
    assert parse_word("1", ("1", "s")) == (("1", 1),)


def test_word_str_roundtrip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    alphabets = [gens for gens, abbreviations in PARSE_ALPHABETS if not abbreviations]
    letters = st.tuples(st.sampled_from(sorted({g for gens in alphabets for g in gens})), st.integers(-40, 40))

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(alphabets), st.lists(letters, max_size=12))
    def check(gens, raw):
        w = free_reduce((sym, e) for sym, e in raw if sym in gens)
        assert parse_word(word_str(w), gens) == w

    check()
    assert parse_word(word_str(()), ("s",)) == ()


def test_exponent_sums():
    br4 = braid_presentation(4)
    omega4 = parse_word("(s1 s2 s3)^4", br4.generators)
    assert exponent_sum(omega4) == 12
    comm = parse_word("[s1, s2]", br4.generators)
    assert exponent_sum(comm) == 0
    assert exponent_sum(parse_word("s1^3", br4.generators)) == 3


def test_is_in_derived_f2():
    assert is_in_derived_f2(parse_word("[x,y]", ("x", "y")))
    assert not is_in_derived_f2(parse_word("x y", ("x", "y")))
    # total exponent sum 0, but not per generator
    assert not is_in_derived_f2(parse_word("x y^-1", ("x", "y")))
    w = word_mul(
        parse_word("[x^2,y]", ("x", "y")), word_pow(parse_word("[y,x]", ("x", "y")), 3)
    )
    assert is_in_derived_f2(w)


def test_todd_coxeter_indices():
    br4 = braid_presentation(4)
    sub = [parse_word(t, br4.generators) for t in ("s1^2", "s2", "s3")]
    assert todd_coxeter(br4, sub).index() == 4

    s3 = Presentation(
        "S3",
        ("a", "b"),
        (
            word_pow(single("a"), 2),
            word_pow(single("b"), 2),
            word_pow(parse_word("ab", ("a", "b")), 3),
        ),
    )
    assert todd_coxeter(s3, [single("a")]).index() == 3

    br3 = braid_presentation(3)
    assert todd_coxeter(br3, [single("s1"), single("s2")]).index() == 1


def test_todd_coxeter_relator_order_invariance():
    br4 = braid_presentation(4)
    sub = [parse_word(t, br4.generators) for t in ("s1^2", "s2", "s3")]
    rng = random.Random(3)
    base = todd_coxeter(br4, sub).index()
    for _ in range(5):
        rel = list(br4.relators)
        rng.shuffle(rel)
        shuffled = Presentation("Br4-shuffled", br4.generators, tuple(rel))
        assert todd_coxeter(shuffled, sub).index() == base


def test_todd_coxeter_budget_status():
    br3 = braid_presentation(3)
    table = todd_coxeter(br3, [], limit=50)  # Br3 is infinite
    assert table.status == "budget_exceeded"


def test_coxeter_quotients():
    assert coxeter_quotient(3, 3).degree == 24
    assert coxeter_quotient(3, 2).degree == 6
    assert coxeter_quotient(3, 4).degree == 96
    assert coxeter_quotient(4, 3).degree == 648
    # the label is printed by `present quotient` and `gt act`
    assert coxeter_quotient(3, 4).label == coxeter_quotient(3, 4).presentation.label == "Br3/s^4"


def test_torsion_quotients():
    assert torsion_quotient(g12_braid_presentation(), 2).degree == 48
    q13 = torsion_quotient(g13_braid_presentation(), 2)
    assert q13.label == q13.presentation.label == "B(G13)+torsion"
    assert torsion_quotient(g13_braid_presentation(), 2).degree == 96
    assert torsion_quotient(artin_i2_presentation(6), 2).degree == 12


def test_braid_torsion_symmetric_groups():
    for n in range(2, 6):
        q = torsion_quotient(braid_presentation(n), 2)
        assert q.degree == math.factorial(n)


def test_cp_quotient_orders():
    for e in (3, 4):
        for n in (3, 4):
            q = torsion_quotient(corran_picantin_presentation(e, n), 2)
            assert q.degree == e ** (n - 1) * math.factorial(n)


def test_cp_without_far_commutations_does_not_close():
    for e, limit in ((3, 20_000), (4, 30_000)):
        pres = corran_picantin_presentation(e, 4, include_far_commutations=False)
        with pytest.raises(BudgetExceededError):
            torsion_quotient(pres, 2, limit=limit)


def _orbit_order(q):
    """|Q| as one orbit's size: of the base under the generators on a
    parabolic, else of the point 0 in the regular action."""
    return q.subgroup_order(q.columns[::2])


@pytest.fixture(autouse=True)
def _orders_are_orbit_sizes(monkeypatch):
    # every torsion and Coxeter quotient a test builds: once the test is done,
    # the order proved at its build is the orbit that counts the group
    built = []
    for name in ("torsion_quotient", "coxeter_quotient"):

        def build(*args, _build=globals()[name], **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setitem(globals(), name, build)
    yield
    for q in built:
        assert q.order() == _orbit_order(q)


def quotient_from_table(label, table):
    """The regular quotient read straight off a table of the trivial subgroup."""
    assert table.status == "complete" and table.subgroup == ()
    return PermQuotient(label, table)


def _permutation_isomorphic(q1, q2) -> bool:
    """Simultaneous BFS from point 0 in generator order: the map it builds
    must be a bijection that commutes with every generator."""
    gens = q1.presentation.generators
    if q2.presentation.generators != gens or q1.degree != q2.degree:
        return False
    phi = {0: 0}
    queue = deque([0])
    while queue:
        point = queue.popleft()
        for g in gens:
            image, image2 = q1.gen_perms[g][point], q2.gen_perms[g][phi[point]]
            if image not in phi:
                phi[image] = image2
                queue.append(image)
            elif phi[image] != image2:
                return False
    return len(phi) == q1.degree and len(set(phi.values())) == q1.degree


def _coxeter_case(n, k):
    return f"Br{n}/s^{k}", lambda: braid_presentation(n), k, lambda: coxeter_quotient(n, k)


def _torsion_case(name, pres):
    return name, pres, 2, lambda: torsion_quotient(pres(), 2)


# (id, presentation, k, quotient): the catalogued power quotients of degree <= 20,000
POWER_QUOTIENTS = [_coxeter_case(n, k) for n, k in ((3, 3), (3, 4), (3, 5), (4, 3))]
POWER_QUOTIENTS += [
    _torsion_case(f"CP({e},{e},{n})+2", lambda e=e, n=n: corran_picantin_presentation(e, n))
    for e in (3, 4)
    for n in (3, 4)
]
POWER_QUOTIENTS += [
    _torsion_case(f"{name}+2", p)
    for name, p in (
        ("G12", g12_braid_presentation),
        ("G13", g13_braid_presentation),
        ("I2(6)", lambda: artin_i2_presentation(6)),
    )
]
POWER_QUOTIENTS += [
    _torsion_case(f"Br{n}+2", lambda n=n: braid_presentation(n)) for n in range(2, 6)
]
POWER_QUOTIENT_IDS = [case[0] for case in POWER_QUOTIENTS]
# the power quotients numbered over <g1>; Br4/s^3 is built on a parabolic
REGULAR_QUOTIENTS = [case for case in POWER_QUOTIENTS if case[0] != "Br4/s^3"]


@pytest.mark.parametrize("build", [case[3] for case in REGULAR_QUOTIENTS], ids=[case[0] for case in REGULAR_QUOTIENTS])
def test_power_quotient_matches_trivial_subgroup_enumeration(build):
    # the cyclic-subgroup quotient against HLT over the trivial subgroup
    q = build()
    oracle = quotient_from_table(q.label, todd_coxeter(q.presentation, []))
    assert q.degree == oracle.degree <= 20_000
    assert _permutation_isomorphic(q, oracle)


@pytest.mark.parametrize("pres, k, build", [case[1:] for case in POWER_QUOTIENTS], ids=POWER_QUOTIENT_IDS)
def test_power_quotient_order_matches_trivial_subgroup_enumeration(pres, k, build):
    pres = pres()
    powers = tuple(word_pow(single(g), k) for g in pres.generators)
    oracle = todd_coxeter(Presentation("Q", pres.generators, pres.relators + powers), [])
    q = build()
    assert q.degree == oracle.index() <= 20_000
    # the order is read off the subgroup table: no regular table was built
    assert "columns" not in q.__dict__


def test_permutation_isomorphism_check_rejects_a_wrong_generator():
    q = torsion_quotient(braid_presentation(3), 2)
    perms = {"s1": q.gen_perms["s1"], "s2": q.gen_perms["s1"]}
    wrong = PermQuotient(q.label, permutation_table(q.label, perms))
    assert _permutation_isomorphic(q, q)
    assert not _permutation_isomorphic(q, wrong)


def test_br5_s3_acts_on_240_cosets():
    q = coxeter_quotient(5, 3)
    assert q.degree == 155_520
    assert "columns" not in q.__dict__
    assert q.base == tuple(range(8))
    assert len(q.gen_perms["s1"]) == len(q.identity()) == 240


COXETER_CASES = [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3), (3, -3)] + [(n, 2) for n in range(3, 7)]
# Br3/s^k is one enumeration over <s1>; for n >= 4 it is built on a parabolic
CYCLIC_CASES = [(n, k) for n, k in COXETER_CASES if n == 3]
PARABOLIC_CASES = [(n, k) for n, k in COXETER_CASES if n >= 4]


@pytest.mark.parametrize("n, k", CYCLIC_CASES, ids=[f"Br{n}/s^{k}" for n, k in CYCLIC_CASES])
def test_coxeter_quotient_matches_the_cyclic_subgroup_construction(n, k):
    # the order off the chain of parabolics against one enumeration over <s1>,
    # which also numbers the elements of both
    q = coxeter_quotient(n, k)
    oracle = torsion_quotient(braid_presentation(n), k)
    assert q.table.subgroup == tuple(((f"s{i}", 1),) for i in range(1, n - 1))
    assert q.m == coxeter_quotient(n - 1, k).degree
    assert q.degree == oracle.degree
    assert q.columns == oracle.columns


GT_LAMBDAS = (1, -1, 3, -3, 5)  # the lambdas of the cosets workload's GT jobs


@pytest.mark.parametrize("n, k", PARABOLIC_CASES, ids=[f"Br{n}/s^{k}" for n, k in PARABOLIC_CASES])
def test_coxeter_quotient_on_a_parabolic_matches_the_quotient_over_s1(n, k):
    # the quotient acts faithfully on its N cosets, the oracle, one enumeration
    # over <s1>, regularly on its elements: the same word problem, the same orders
    q = coxeter_quotient(n, k)
    oracle = torsion_quotient(braid_presentation(n), k)
    # the oracle's words act on 155,520 points for Br5/s^3: fewer and shorter checks there
    words, subsets, fs = (60, 4, ("",)) if (n, k) == (5, 3) else (300, 10, ("", "[x,y]"))
    assert q.table.subgroup == tuple(((f"s{i}", 1),) for i in range(1, n - 1))
    assert q.m == coxeter_quotient(n - 1, k).degree
    assert q.degree == oracle.degree
    assert q.columns is q.table.columns
    assert len(q.identity()) == q.table.degree == {(4, 3): 27, (5, 3): 240}.get((n, k), n)
    assert _orbit_order(q) == q.degree
    rng = random.Random(1957 + 10 * n + k)
    gens, relators = q.presentation.generators, q.presentation.relators

    def word(length):
        return free_reduce((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, length)))

    trivial = 0
    for i in range(words):
        w = word(6)
        if i % 2:  # a conjugate of a relator
            w = word_mul(w, rng.choice(relators), word_inverse(w))
        on_q = q.eval_word(w) == q.identity()
        assert on_q == (oracle.eval_word(w) == oracle.identity()), word_str(w)
        trivial += on_q
    assert 0 < trivial < words
    for _ in range(subsets):
        subset = [word(6) for _ in range(rng.randint(1, 3))]
        assert q.subgroup_order(list(map(q.eval_word, subset))) == oracle.subgroup_order(
            list(map(oracle.eval_word, subset))
        )
    # lam enters a map only as s_i^lam, and s_i^k = 1 in Q, so only lam mod |k|
    # counts; (1, "") is the identity, bijective as q.order() == q.degree
    maps = {(lam % abs(k), f): (lam, f) for f in fs for lam in GT_LAMBDAS[::-1]}
    maps.pop((1 % abs(k), ""))
    for lam, f in maps.values():
        hom = GroupHom(f"Drinfeld({lam})", braid_presentation(n), drinfeld_images(n, parse_pair(lam, f)))
        verdict, expected = verify_hom(hom, q), verify_hom(hom, oracle)
        assert verdict.consistent == expected.consistent
        assert (verdict.falsifier or (0, 0))[1] == (expected.falsifier or (0, 0))[1]
        if verdict.consistent:
            assert hom_bijective_on(hom, q) == hom_bijective_on(hom, oracle)


def test_one_coset_is_no_base():
    # the base the squeeze proves is needed: coset 0 alone has an orbit of N points, not |Q|
    q = copy.copy(coxeter_quotient(4, 3))
    assert q.base == (0, 1, 2, 3)
    q.base = (0,)
    assert q.subgroup_order(q.columns[::2]) == q.table.degree == 27 != q.degree


def test_coxeter_quotients_of_order_two_are_symmetric_groups():
    for n in range(2, 9):
        assert coxeter_quotient(n, 2).degree == math.factorial(n)


FINITE_COXETER_ORDERS = {(3, 3): 24, (3, 4): 96, (3, 5): 600, (4, 3): 648, (5, 3): 155_520}


def test_coxeter_quotients_on_the_finite_side_of_the_criterion_keep_their_orders():
    # 1/n + 1/|k| > 1/2: the five exceptional cases, then (2, k), (n, 2), (n, +-1)
    for (n, k), order in FINITE_COXETER_ORDERS.items():
        assert coxeter_quotient(n, k).degree == coxeter_quotient(n, -k).degree == order
    for k in range(1, 13):
        assert coxeter_quotient(2, k).degree == coxeter_quotient(2, -k).degree == k
    for n in range(3, 9):
        assert coxeter_quotient(n, -2).degree == math.factorial(n)
        assert coxeter_quotient(n, 1).degree == coxeter_quotient(n, -1).degree == 1


@pytest.mark.parametrize("n, k", [(3, 6), (4, 4), (6, 3), (3, -6)])
def test_coxeter_quotients_past_the_criterion_are_refused(n, k):
    with pytest.raises(BudgetExceededError, match=r"infinite, as .* <= 1/2 \(Coxeter\)"):
        coxeter_quotient(n, k)
    # the oracle: the enumeration over <s1> does not close within 20,000 cosets
    quot = _power_presentation(braid_presentation(n), "Q", k)
    assert todd_coxeter(quot, [single("s1")], 20_000).status == "budget_exceeded"


def test_br3_quotients_are_one_enumeration_over_s1(monkeypatch):
    # for n = 3 the parabolic <s1> is <g1>: one table serves the order and the permutations
    calls = []
    enumerate_cosets = fpgroups.todd_coxeter
    monkeypatch.setattr(fpgroups, "todd_coxeter", lambda *a: calls.append(a[1]) or enumerate_cosets(*a))
    q = coxeter_quotient(3, 4)
    assert q.order() == q.degree == 96
    assert calls == [[single("s1")]]


def test_presentation_rejects_a_generator_named_twice():
    with pytest.raises(InputError, match="names a generator twice"):
        Presentation("P", ("a", "b", "a"), ())


def test_a_map_carries_its_target():
    assert i26_to_g13_iso().target == g13_braid_presentation()
    assert artin_b_embedding(3).target == braid_presentation(4)
    hom = g12_conjugation()
    assert hom.target is hom.source


def test_parabolic_order_that_the_cosets_do_not_prove_raises():
    # (s1 s2)^3 kills the center of P~ = Br3/s^3: the true order is 12, the index
    # 1 and the count 1, so without the count the degree would read 24
    br4 = braid_presentation(4)
    extra = word_pow(parse_word("s1 s2", br4.generators), 3)
    pres = Presentation("Br4+(s1s2)^3", br4.generators, br4.relators + (extra,))
    quot = _power_presentation(pres, "Q", 3)
    assert todd_coxeter(quot, []).index() == 12
    with pytest.raises(RuntimeError, match="cannot prove"):
        _parabolic_quotient(quot, coxeter_quotient(3, 3), 10_000)


@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (5, 2), (4, -2)])
def test_parabolic_claiming_one_element_too_many_raises(n, k):
    # no orbit of a tuple of cosets can reach |P~| + 1, not even at the full tuple
    parabolic = coxeter_quotient(n - 1, k)
    table = dataclasses.replace(parabolic.table, degree=parabolic.degree + 1)
    claimed = PermQuotient(parabolic.label, table)
    assert claimed.degree == parabolic.degree + 1
    quot = _power_presentation(braid_presentation(n), f"Br{n}/s^{k}", k)
    with pytest.raises(RuntimeError, match="cannot prove"):
        _parabolic_quotient(quot, claimed, 1_000_000)


BASE_COUNT_CASES = [(4, 3), (5, 3)] + [(n, k) for n in range(4, 9) for k in (2, -2, 1, -1)]


@pytest.mark.parametrize("n, k", BASE_COUNT_CASES, ids=[f"Br{n}/s^{k}" for n, k in BASE_COUNT_CASES])
def test_squeeze_on_a_base_matches_the_full_tuple_count(n, k):
    # the squeeze stops at the first prefix of cosets whose orbit reaches |P~|;
    # the orbit of the tuple of all N cosets is the order of <perms> itself
    q = coxeter_quotient(n, k)
    perms = [q.table.columns[q.table.column(f"s{i}", 1)] for i in range(1, n - 1)]
    full = orbit(tuple(range(q.table.degree)), perms, lambda images, g: tuple(g[x] for x in images))
    assert len(full) == q.m == coxeter_quotient(n - 1, k).degree


@pytest.mark.parametrize("k", [10_001, -10_001])
def test_power_exponents_past_the_word_cap_are_input_errors(k):
    # the relator g^k has |k| letters: refused before it is built
    assert abs(k) == fpgroups.MAX_WORD_LETTERS + 1
    with pytest.raises(InputError, match=r"needs \|k\| <= 10000"):
        coxeter_quotient(2, k)
    with pytest.raises(InputError, match=r"needs \|k\| <= 10000"):
        torsion_quotient(g12_braid_presentation(), k)
    with pytest.raises(InputError, match=r"needs \|k\| <= 10000"):
        _power_presentation(braid_presentation(5), "Q", k)


def test_power_exponents_at_the_word_cap_are_accepted():
    # built past the orbit-order fixture: its regular table would check a
    # 10,000-letter relator at each of 10,000 points, about a second apiece
    for k in (10_000, -10_000):
        assert abs(k) == fpgroups.MAX_WORD_LETTERS
        assert fpgroups.coxeter_quotient(2, k).degree == 10_000
        assert fpgroups.torsion_quotient(braid_presentation(2), k).degree == 10_000


def test_parabolic_with_relators_outside_the_quotient_raises():
    quot = _power_presentation(braid_presentation(4), "Br4/s^3", 3)
    with pytest.raises(RuntimeError, match="not a quotient"):
        _parabolic_quotient(quot, coxeter_quotient(3, 4), 10_000)
    with pytest.raises(RuntimeError, match="not a quotient"):
        _parabolic_quotient(quot, torsion_quotient(g12_braid_presentation(), 2), 10_000)


def test_unbalanced_relator_takes_the_trivial_subgroup():
    # a b^-2 has exponent sum -1, not 0 mod 3: no map to Z/3 sends a and b to 1
    pres = Presentation("P", ("a", "b"), (parse_word("a b^-2", ("a", "b")),))
    q = torsion_quotient(pres, 3)
    table = todd_coxeter(q.presentation, [])
    assert q.degree == table.index() == 3
    assert "columns" not in q.__dict__
    assert q.gen_perms == table.generator_permutations()


@pytest.mark.parametrize("m", [1, 2])
def test_quotient_permutations_pass_the_closure_check_first(m):
    # a 3-cycle breaks the relator a^2: the degree is read, no permutation is handed out
    pres = Presentation("P", ("a",), (word_pow(single("a"), 2),))
    q = PermQuotient("P", CosetTable(pres, (), [(1, 2, 0), (2, 0, 1)], "complete", 3), m)
    assert q.order() == q.degree == 3 * m
    for read in (lambda: q.gen_perms, lambda: q.eval_word(single("a", -1))):
        with pytest.raises(RuntimeError, match="relator"):
            read()


def test_verify_g12_conjugation():
    q = torsion_quotient(g12_braid_presentation(), 2)
    hom = g12_conjugation()
    v = verify_hom(hom, q)
    assert v.consistent and not v.exact_proof
    assert "evidence" in v.note
    assert hom_bijective_on(hom, q)
    # the map squares to an inner-trivial map on the quotient: order-2 on generators
    sq = {g: hom.apply(w) for g, w in hom.images.items()}
    for g in hom.source.generators:
        assert q.eval_word(sq[g]) == q.eval_word(single(g))


def test_verify_i26_iso_and_conjugations():
    q13 = torsion_quotient(g13_braid_presentation(), 2)
    assert verify_hom(i26_to_g13_iso(), q13).consistent
    assert verify_hom(g13_conjugation(), q13).consistent
    assert hom_bijective_on(g13_conjugation(), q13)


def test_hom_not_bijective_when_images_miss_the_group():
    q12 = torsion_quotient(g12_braid_presentation(), 2)
    collapse = GroupHom("collapse", g12_braid_presentation(), {g: single("s") for g in "stu"})
    assert q12.subgroup_order([q12.eval_word(single("s"))]) == 2
    assert not hom_bijective_on(collapse, q12)


@pytest.mark.parametrize(
    "quotient",
    [
        lambda: torsion_quotient(corran_picantin_presentation(3, 3), 2),
        lambda: coxeter_quotient(4, 3),
    ],
    ids=["CP(3,3,3)", "Br4/s^3"],
)
def test_subgroup_order_matches_listed_subgroup(quotient):
    # the orbit of the point 0 against the listing of the whole subgroup as
    # permutation tuples under composition
    q = quotient()

    def listed(perms):
        return len(orbit(q.identity(), perms, lambda el, g: tuple(g[x] for x in el)))

    rng = random.Random(20240901)
    gens = q.presentation.generators
    for _ in range(12):
        perms = []
        for _ in range(rng.randint(1, 3)):
            w = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))]
            perms.append(q.eval_word(tuple(w)))
        assert q.subgroup_order(perms) == listed(perms)
    assert q.order() == listed(list(q.gen_perms.values())) == q.degree


def test_eval_word_matches_letter_by_letter_inversion():
    # each inverse letter inverts its generator afresh, as a reference; the
    # generators of Br4/s^3 have order 3, so an inverse is not the generator
    q = coxeter_quotient(4, 3)

    def reference(w):
        perm = q.identity()
        for sym, exp in w:
            g = q.gen_perms[sym]
            if exp < 0:
                inv = [0] * len(perm)
                for i, v in enumerate(g):
                    inv[v] = i
                g = tuple(inv)
            for _ in range(abs(exp)):
                perm = tuple(g[x] for x in perm)
        return perm

    rng = random.Random(7)
    gens = q.presentation.generators
    for _ in range(40):
        w = tuple((rng.choice(gens), rng.choice((-2, -1, 1, 3))) for _ in range(rng.randint(0, 8)))
        assert q.eval_word(w) == reference(w)


def test_eval_word_powers_match_letter_by_letter_composition():
    # seeded random permutations of 40 points, of orders 336, 60 and 124, so
    # exponents up to +-10,000 are not reduced to a few letters
    rng = random.Random(16)
    perms = {}
    for g in ("a", "b", "c"):
        points = list(range(40))
        rng.shuffle(points)
        perms[g] = tuple(points)
    q = PermQuotient("random", permutation_table("random", perms))

    def reference(w):
        perm = q.identity()
        for sym, step in word_letters(w):
            g = perms[sym] if step > 0 else tuple(sorted(range(40), key=perms[sym].__getitem__))
            perm = tuple(g[x] for x in perm)
        return perm

    for _ in range(30):
        w = tuple(
            (rng.choice("abc"), rng.choice((-1, 1, 2, -3, rng.randint(-10_000, 10_000) or 1)))
            for _ in range(rng.randint(1, 4))
        )
        assert q.eval_word(w) == reference(w)


def test_transported_conjugation_identities():
    trans = i26_transported_conjugation()
    mirror = i26_mirror_conjugated_by_bab()
    # (ba) b^-1 (ba)^-1 and (bab) b^-1 (bab)^-1 are the same free word
    assert trans.images["b"] == mirror.images["b"]
    assert trans.images["a"] == mirror.images["a"]
    q13 = torsion_quotient(g13_braid_presentation(), 2)
    iso = i26_to_g13_iso()
    conj = g13_conjugation()
    for g in ("a", "b"):
        lhs = q13.eval_word(iso.apply(trans.images[g]))
        rhs = q13.eval_word(conj.apply(iso.images[g]))
        assert lhs == rhs


def test_falsified_map_detected():
    br3 = braid_presentation(3)
    q = coxeter_quotient(3, 2)
    # s1 -> s1, s2 -> s1^2 kills the braid relator in the quotient
    bogus = GroupHom("bogus", br3, {"s1": single("s1"), "s2": word_pow(single("s1"), 2)})
    v = verify_hom(bogus, q)
    assert not v.consistent and v.falsifier is not None


def test_schreier_rewriting():
    br4 = braid_presentation(4)
    sub = [parse_word(t, br4.generators) for t in ("s1^2", "s2", "s3")]
    table = todd_coxeter(br4, sub)
    data = schreier_data(table)
    w = schreier_rewrite(data, parse_word("s1^2", br4.generators))
    assert w is not None and len(w) == 1 and abs(w[0][1]) == 1
    assert schreier_rewrite(data, single("s1")) is None
    # membership is closed under products
    prod = word_mul(parse_word("s1^2", br4.generators), single("s2"))
    assert schreier_rewrite(data, prod) is not None


def _schreier_rewrite_by_letters(data, w, start=0):
    """The earlier rewrite: one column lookup per letter."""
    from reflbench.fpgroups import free_reduce

    table = data.table
    letters = []
    alpha = start
    for sym, step in word_letters(w):
        col = table.column(sym, step)
        beta = table.columns[col][alpha]
        key = (alpha, col) if step > 0 else (beta, col ^ 1)
        if key in data.schreier_index:
            letters.append((data.names[data.schreier_index[key]], step))
        alpha = beta
    if alpha != start:
        return None
    return free_reduce(letters)


def test_schreier_rewrite_matches_letterwise_rewrite():
    rng = random.Random(20261019)
    br4 = braid_presentation(4)
    tables = [todd_coxeter(br4, [parse_word(t, br4.generators) for t in ("s1^2", "s2", "s3")])]
    for m in (3, 4, 7):
        pres = artin_i2_presentation(m)
        tq = torsion_quotient(pres, 2)
        tables.append(CosetTable(pres, (), tq.columns, "complete", tq.degree))
    found = {"member": 0, "moved": 0}
    for table in tables:
        data = schreier_data(table)
        gens = table.presentation.generators
        for _ in range(150):
            w = tuple(
                (rng.choice(gens), rng.choice((-3, -2, -1, 0, 1, 2, 3)))
                for _ in range(rng.randint(0, 8))
            )
            start = rng.randrange(table.index())
            expected = _schreier_rewrite_by_letters(data, w, start)
            assert schreier_rewrite(data, w, start) == expected
            found["moved" if expected is None else "member"] += 1
    assert min(found.values()) > 100


def test_artin_b_embedding():
    hom = artin_b_embedding(3)
    # images satisfy the Art(B_3) relators inside Br_4 / s^3 (finite evidence)
    q = coxeter_quotient(4, 3)
    assert verify_hom(hom, q).consistent


def test_word_str_roundtrip():
    br4 = braid_presentation(4)
    w = parse_word("s1^2 s3^-1 s2", br4.generators)
    assert parse_word(word_str(w), br4.generators) == w


def _dihedral(m):
    return Presentation(
        f"Dih{m}",
        ("a", "b"),
        (
            word_pow(single("a"), 2),
            word_pow(single("b"), 2),
            word_pow(word_mul(single("a"), single("b")), m),
        ),
    )


def test_todd_coxeter_against_known_orders():
    # independent oracle values: dihedral orders 2m and standard indices
    for m in range(3, 10):
        pres = _dihedral(m)
        assert todd_coxeter(pres, []).index() == 2 * m
        assert todd_coxeter(pres, [single("a")]).index() == m
        assert todd_coxeter(pres, [word_mul(single("a"), single("b"))]).index() == 2
    # symmetric groups via torsion-added braid presentations
    for n in range(2, 6):
        names = [f"s{i}" for i in range(1, n)]
        rel = list(braid_presentation(n).relators) + [word_pow(single(g), 2) for g in names]
        pres = Presentation(f"SymCox{n}", tuple(names), tuple(rel))
        assert todd_coxeter(pres, []).index() == math.factorial(n)
        if n >= 3:
            assert todd_coxeter(pres, [single(g) for g in names[:-1]]).index() == n


Q8 = Presentation(
    "Q8",
    ("a", "b"),
    (
        word_pow(single("a"), 4),
        word_mul(word_pow(single("a"), 2), word_pow(single("b"), -2)),
        word_mul(single("a"), single("b"), single("a"), word_pow(single("b"), -1)),
    ),
)
# the (2,3,7) presentation with [a,b]^4 added presents a simple group of order 168
PSL27 = Presentation(
    "PSL27",
    ("a", "b"),
    (
        word_pow(single("a"), 2),
        word_pow(single("b"), 3),
        word_pow(word_mul(single("a"), single("b")), 7),
        word_pow(
            word_mul(single("a"), single("b"), word_inverse(single("a")), word_inverse(single("b"))),
            4,
        ),
    ),
)


def test_todd_coxeter_quaternion_and_psl27():
    assert todd_coxeter(Q8, []).index() == 8
    assert todd_coxeter(Q8, [single("a")]).index() == 2
    assert todd_coxeter(PSL27, []).index() == 168


# ---------------------------------------------------------------------------
# differential test against the row-major enumerator the column-major one replaced


def _row_major_todd_coxeter(pres, subgroup_words, limit):
    """HLT with one list per coset, as before the column-major rewrite.

    Returns (status, compacted rows, number of cosets defined)."""
    ncols = 2 * len(pres.generators)
    col_of = {name: 2 * g for g, name in enumerate(pres.generators)}

    def letters_to_cols(w):
        return [col_of[sym] + (0 if step > 0 else 1) for sym, step in word_letters(w)]

    table = [[None] * ncols]
    p = [0]

    def rep(k):
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    class Budget(Exception):
        pass

    def define(alpha, col):
        if len(table) >= limit:
            raise Budget()
        beta = len(table)
        table.append([None] * ncols)
        p.append(beta)
        table[alpha][col] = beta
        table[beta][col ^ 1] = alpha

    queue = deque()

    def merge(k, lam):
        k, lam = rep(k), rep(lam)
        if k != lam:
            mu, nu = min(k, lam), max(k, lam)
            p[nu] = mu
            queue.append(nu)

    def coincidence(alpha, beta):
        merge(alpha, beta)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for col in range(ncols):
                delta = row[col]
                if delta is None:
                    continue
                table[delta][col ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                ent = table[mu][col]
                if ent is not None:
                    merge(nu, ent)
                else:
                    ent2 = table[nu][col ^ 1]
                    if ent2 is not None:
                        merge(mu, ent2)
                    else:
                        table[mu][col] = nu
                        table[nu][col ^ 1] = mu

    def scan_and_fill(alpha, cols):
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    try:
        for w in subgroup_words:
            if w:
                scan_and_fill(0, letters_to_cols(w))
        alpha = 0
        while alpha < len(table):
            if rep(alpha) == alpha:
                for r in pres.relators:
                    scan_and_fill(alpha, letters_to_cols(r))
                    if rep(alpha) != alpha:
                        break
                if rep(alpha) == alpha:
                    for col in range(ncols):
                        if table[alpha][col] is None:
                            define(alpha, col)
            alpha += 1
    except Budget:
        return "budget_exceeded", [], len(table)
    live = [k for k in range(len(table)) if rep(k) == k]
    renum = {k: i for i, k in enumerate(live)}
    return "complete", [[renum[rep(e)] for e in table[k]] for k in live], len(table)


def _with_powers(pres, k, label):
    powers = tuple(word_pow(single(g), k) for g in pres.generators)
    return Presentation(label, pres.generators, pres.relators + powers)


def _random_subgroup(rng, gens, count):
    words = []
    for _ in range(count):
        letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        words.append(word_mul(*(single(s, e) for s, e in letters)))
    return words


def _differential_cases():
    """Catalog presentations with fixed and seeded random subgroups."""
    rng = random.Random(5150)
    cases = []
    for n, k in ((3, 3), (3, 4), (3, 5), (4, 3)):
        pres = _with_powers(braid_presentation(n), k, f"Br{n}/s^{k}")
        subs = [[], [single("s1")]] + [_random_subgroup(rng, pres.generators, 2) for _ in range(3)]
        cases += [(pres, sub) for sub in subs]
    # Br5/s^3 has 155,520 cosets; subgroups keep the old enumerator quick
    br5 = _with_powers(braid_presentation(5), 3, "Br5/s^3")
    cases.append((br5, [single("s1"), single("s2")]))
    cases.append((br5, [single("s1"), single("s3"), single("s4")]))
    cases += [(br5, [single("s2")] + _random_subgroup(rng, br5.generators, 2)) for _ in range(2)]
    # the type-B subgroups of Br3-Br5, of finite index in an infinite group
    for n in (3, 4, 5):
        bn = [word_pow(single("s1"), 2)] + [single(f"s{i}") for i in range(2, n)]
        cases.append((braid_presentation(n), bn))
    torsion = [corran_picantin_presentation(e, n) for e, n in ((3, 3), (4, 3), (3, 4), (4, 4))]
    torsion += [g12_braid_presentation(), g13_braid_presentation(), artin_i2_presentation(6)]
    for pres in torsion:
        pres = _with_powers(pres, 2, pres.label + "+torsion")
        cases.append((pres, []))
        cases += [(pres, _random_subgroup(rng, pres.generators, 1)) for _ in range(2)]
    for pres in (Q8, PSL27):
        cases.append((pres, []))
        cases += [(pres, _random_subgroup(rng, pres.generators, rng.randint(1, 2))) for _ in range(3)]
    return cases


DIFFERENTIAL_LIMIT = 20_000


def test_column_major_tables_match_row_major():
    complete = 0
    for pres, sub in _differential_cases():
        status, rows, defined = _row_major_todd_coxeter(pres, sub, DIFFERENTIAL_LIMIT)
        table = todd_coxeter(pres, sub, DIFFERENTIAL_LIMIT)
        assert table.status == status, (pres.label, sub)
        if status != "complete":
            continue
        complete += 1
        ncols = 2 * len(pres.generators)
        assert table.columns == [tuple(row[c] for row in rows) for c in range(ncols)], pres.label
        assert table.index() == len(rows)
        # the budget counts every defined coset, dead ones included
        for limit in (defined - 1, defined):
            old_status = _row_major_todd_coxeter(pres, sub, limit)[0]
            assert todd_coxeter(pres, sub, limit).status == old_status, (pres.label, sub, limit)
    assert complete >= 50


def test_column_major_budget_exceeded_matches_row_major():
    # Br4/s^4 is infinite: both enumerators stop at the same limits.  So do
    # CP(3,4) and CP(4,4) without far commutations, +torsion, over <t0>, at
    # limits on both sides of the block boundaries the columns grow by
    cases = [(_with_powers(braid_presentation(4), 4, "Br4/s^4"), [], (1, 2, 50, 777))]
    for e in (3, 4):
        pres = corran_picantin_presentation(e, 4, include_far_commutations=False)
        pres = _with_powers(pres, 2, pres.label + "+torsion")
        cases.append((pres, [single("t0")], (1, 2, 3, 1_023, 1_024, 1_025, 30_000)))
    for pres, sub, limits in cases:
        for limit in limits:
            assert _row_major_todd_coxeter(pres, sub, limit)[0] == "budget_exceeded"
            table = todd_coxeter(pres, sub, limit)
            assert (table.status, table.index(), table.columns) == ("budget_exceeded", 0, [])


def _br4_cube_table():
    pres = _with_powers(braid_presentation(4), 3, "Br4/s^3")
    table = todd_coxeter(pres, [])

    def cols(w):
        return [table.column(sym, step) for sym, step in word_letters(w)]

    return table, [cols(r) for r in pres.relators], cols


def test_trace_follows_each_letter_and_its_inverse():
    table, _, _ = _br4_cube_table()
    gens = table.presentation.generators
    assert [table.column(g, step) for g in gens for step in (1, -1)] == list(range(2 * len(gens)))
    perms = table.generator_permutations()
    inverses = {g: {b: a for a, b in enumerate(p)} for g, p in perms.items()}
    w = parse_word("s1 s2^-1 s3 s1^-2 s2", gens)
    for alpha in range(table.index()):
        beta = alpha
        for sym, step in word_letters(w):
            beta = perms[sym][beta] if step > 0 else inverses[sym][beta]
        assert table.trace(alpha, w) == beta


def _mutated(table, columns):
    return CosetTable(table.presentation, table.subgroup, columns, "complete", table.degree)


def test_closure_check_rejects_two_swapped_entries():
    table, rel_cols, _ = _br4_cube_table()
    columns = list(table.columns)
    s1 = list(columns[0])
    s1[5], s1[17] = s1[17], s1[5]
    columns[0] = tuple(s1)
    with pytest.raises(RuntimeError, match="inverse-consistent"):
        _validate_table(_mutated(table, columns), rel_cols, [])


def test_closure_check_rejects_a_relator_failing_on_two_cosets():
    # s1 composed with a transposition of two cosets, the inverse column
    # updated to match: the table stays inverse-consistent, but s1^3 now moves
    # two of the 648 cosets (a permutation cannot move just one)
    table, rel_cols, _ = _br4_cube_table()
    columns = list(table.columns)
    s1 = list(columns[0])
    y = s1[0]
    s1[0], s1[y] = s1[y], s1[0]
    inverse = [0] * len(s1)
    for alpha, beta in enumerate(s1):
        inverse[beta] = alpha
    columns[0], columns[1] = tuple(s1), tuple(inverse)
    mutant = _mutated(table, columns)
    cube = word_pow(single("s1"), 3)
    assert sum(mutant.trace(a, cube) != a for a in range(table.index())) == 2
    with pytest.raises(RuntimeError, match="relator"):
        _validate_table(mutant, rel_cols, [])


def test_closure_check_rejects_a_subgroup_generator_moving_coset_0():
    table, rel_cols, cols = _br4_cube_table()
    _validate_table(table, rel_cols, [cols(word_pow(single("s1"), 3))])
    with pytest.raises(RuntimeError, match="subgroup"):
        _validate_table(table, rel_cols, [cols(single("s1"))])


def test_verify_hom_on_garside_context(monkeypatch):
    from reflbench.garside import CoxeterType, GarsideContext, context

    v = verify_hom(i26_transported_conjugation(), context(CoxeterType("I2", 6)))
    assert v.consistent and v.exact_proof and v.falsifier is None
    assert "proves homomorphy" in v.note
    br4 = braid_presentation(4)
    swap = GroupHom("swap", br4, {"s1": single("s2"), "s2": single("s1"), "s3": single("s3")})
    v = verify_hom(swap, context(CoxeterType("A", 3)))
    assert not v.consistent and v.exact_proof
    assert v.falsifier == ("garside:A3", "s2 s3 s2 s3^-1 s2^-1 s3^-1")
    # the same map is only falsified, never proved, on a finite quotient
    assert verify_hom(swap, coxeter_quotient(4, 3)).falsifier[0] == "Br4/s^3"
    emb = artin_b_embedding(3)
    exact = verify_hom(emb, context(CoxeterType("A", 3)))
    assert exact.consistent and exact.exact_proof
    evidence = verify_hom(emb, coxeter_quotient(4, 3))
    assert evidence.consistent and not evidence.exact_proof
    # the backend evaluates words through GarsideContext.normal_form, so a
    # wrapper installed on the class sees every relator image
    calls = []
    original = GarsideContext.normal_form

    def counting(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(GarsideContext, "normal_form", counting)
    verify_hom(emb, context(CoxeterType("A", 3)))
    assert calls == [emb.apply(r) for r in emb.source.relators]


# ---------------------------------------------------------------------------
# differential test against the name-by-name parser the compiled lexer replaced


def _startswith_parse_word(text, generators, max_letters=fpgroups.MAX_WORD_LETTERS, abbreviations=None):
    """The parser that tried every name with str.startswith, longest first,
    with two fixes: exponents are ASCII digits, and the text 1 is the empty word."""
    abbreviations = abbreviations or {}
    gens = list(generators) + list(abbreviations)
    if text.strip() == "1" and "1" not in gens:
        return ()
    names = sorted(gens, key=len, reverse=True)
    upper = {g.upper(): g for g in gens if g.upper() != g and g.upper() not in gens}

    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def parse_int():
        nonlocal pos
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos] in "0123456789":
            pos += 1
        if pos == start or (pos == start + 1 and text[start] not in "0123456789"):
            raise InputError(f"malformed exponent at position {start} in {text!r}")
        try:
            return int(text[start:pos])
        except ValueError as exc:
            raise InputError(f"exponent too long at position {start} in {text!r}") from exc

    def check_letters(count):
        if count > max_letters:
            raise InputError(f"word has more than {max_letters} letters in {text!r}")

    def named(name, exp):
        if name in abbreviations:
            return word_pow(abbreviations[name], exp)
        return single(name, exp)

    def parse_sequence(stop):
        nonlocal pos
        items = []
        letters = 0
        while True:
            skip_ws()
            if pos >= n or text[pos] in stop:
                return word_mul(*items)
            items.append(parse_item())
            letters += word_length(items[-1])
            check_letters(letters)

    def parse_item():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise InputError(f"unexpected end of word in {text!r}")
        ch = text[pos]
        if ch == "(":
            pos += 1
            inner = parse_sequence(")")
            if pos >= n or text[pos] != ")":
                raise InputError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            atom = inner
        elif ch == "[":
            pos += 1
            u = parse_sequence(",")
            if pos >= n or text[pos] != ",":
                raise InputError(f"commutator needs a comma in {text!r}")
            pos += 1
            v = parse_sequence("]")
            if pos >= n or text[pos] != "]":
                raise InputError(f"unbalanced bracket in {text!r}")
            pos += 1
            atom = word_mul(u, v, word_inverse(u), word_inverse(v))
        else:
            atom = None
            for name in names:
                if text.startswith(name, pos):
                    pos += len(name)
                    atom = named(name, 1)
                    break
            if atom is None:
                for uname in sorted(upper, key=len, reverse=True):
                    if text.startswith(uname, pos):
                        pos += len(uname)
                        atom = named(upper[uname], -1)
                        break
            if atom is None:
                raise InputError(f"unknown symbol at position {pos} in {text!r}")
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            k = parse_int()
            check_letters(word_length(atom) * abs(k))
            atom = word_pow(atom, k)
        return atom

    result = parse_sequence("")
    skip_ws()
    if pos != n:
        raise InputError(f"trailing input at position {pos} in {text!r}")
    return result


def _outcome(parse, *args):
    try:
        return "word", parse(*args)
    except InputError as exc:
        return "input error", str(exc)


# alphabets with prefix clashes (s1/s1p, s/st), upper-case collisions (S is a
# name, so s has no inverse name; ab and aB share AB; the abbreviation Y
# shadows y's inverse name) and abbreviations, some not freely reduced
PARSE_ALPHABETS = [
    (("s1", "s1p", "s2", "s3"), {}),
    (("s", "st", "t", "u"), {}),
    (("s", "S", "t"), {}),
    (("ab", "aB", "b"), {}),
    (("x", "y"), {"xy": (("x", 1), ("y", 1)), "Y": (("y", -2),), "z": (("x", 1), ("x", -1))}),
    (("s1", "s1p", "s2", "s3"), {"w2": (("s1", 1), ("s1p", 1), ("s2", 1)), "eta2": (("s1", 1), ("s1p", 1)),
                                 "w3": (("s1", 1), ("s1p", 1), ("s2", 1), ("s3", 1))}),
    (("g1", "g10", "g2"), {"W": ()}),
]
PARSE_EXPONENTS = ["", "", "", " ", "^-1", "^2", "^+3", "^0", " ^ 5", "\t^\t-2", "^007", "^-13"]
PARSE_NOISE = [
    " ", "\t", "^", "(", ")", "[", "]", ",", "^-", "^+", "^200", "^201", "^99999999999999999999",
    "^" + "9" * 5000, "1", "q", "٣", "²", "^٣", "^²", "^1٣",
]


def test_parse_word_matches_the_startswith_parser():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def item(draw, names, depth):
        kind = draw(st.integers(0, 5 if depth < 2 else 0))
        exponent = draw(st.sampled_from(PARSE_EXPONENTS))
        if kind <= 2:
            return draw(st.sampled_from(names)) + exponent
        seq = [" ".join(draw(st.lists(item(names, depth + 1), max_size=3))) for _ in range(2)]
        if kind <= 4:
            return f"({seq[0]}){exponent}"
        return f"[{seq[0]},{seq[1]}]{exponent}"

    @st.composite
    def case(draw):
        gens, abbreviations = draw(st.sampled_from(PARSE_ALPHABETS))
        names = list(gens) + list(abbreviations)
        names += [name.upper() for name in names]
        text = draw(st.sampled_from([" ", "", "\t"])).join(draw(st.lists(item(names, 0), max_size=6)))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(PARSE_NOISE)) + text[at:]
        max_letters = draw(st.sampled_from([fpgroups.MAX_WORD_LETTERS, 200, 12, 5, 2, 1, 0]))
        return text, gens, max_letters, abbreviations

    @hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @hypothesis.given(case())
    def check(args):
        assert _outcome(parse_word, *args) == _outcome(_startswith_parse_word, *args)

    check()
