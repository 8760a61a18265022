import math
import random
from collections import deque

import pytest

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
    schreier_data,
    schreier_rewrite,
    single,
    todd_coxeter,
    torsion_quotient,
    _validate_table,
    verify_hom,
    word_inverse,
    word_letters,
    word_mul,
    word_pow,
    word_str,
)


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


def test_exponent_sums():
    br4 = braid_presentation(4)
    omega4 = parse_word("(s1 s2 s3)^4", br4.generators)
    assert exponent_sum(omega4) == 12
    comm = parse_word("[s1, s2]", br4.generators)
    assert exponent_sum(comm) == 0
    assert exponent_sum(parse_word("s1^3", br4.generators)) == 3
    assert exponent_sum(omega4, per_generator=True) == {"s1": 4, "s2": 4, "s3": 4}


def test_is_in_derived_f2():
    assert is_in_derived_f2(parse_word("[x,y]", ("x", "y")))
    assert not is_in_derived_f2(parse_word("x y", ("x", "y")))
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


def quotient_from_table(label, table):
    """The regular quotient read straight off a table of the trivial subgroup."""
    assert table.status == "complete" and table.subgroup == ()
    return PermQuotient(label, table.presentation, table.generator_permutations(), table.index())


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


POWER_QUOTIENTS = [
    (f"Br{n}/s^{k}", lambda n=n, k=k: coxeter_quotient(n, k))
    for n, k in ((3, 3), (3, 4), (3, 5), (4, 3))
]
POWER_QUOTIENTS += [
    (f"CP({e},{e},{n})+2", lambda e=e, n=n: torsion_quotient(corran_picantin_presentation(e, n), 2))
    for e in (3, 4)
    for n in (3, 4)
]
POWER_QUOTIENTS += [
    (f"{name}+2", lambda p=p: torsion_quotient(p(), 2))
    for name, p in (
        ("G12", g12_braid_presentation),
        ("G13", g13_braid_presentation),
        ("I2(6)", lambda: artin_i2_presentation(6)),
    )
]
POWER_QUOTIENTS += [
    (f"Br{n}+2", lambda n=n: torsion_quotient(braid_presentation(n), 2)) for n in range(2, 6)
]


@pytest.mark.parametrize(
    "build", [b for _, b in POWER_QUOTIENTS], ids=[i for i, _ in POWER_QUOTIENTS]
)
def test_power_quotient_matches_trivial_subgroup_enumeration(build):
    # the cyclic-subgroup quotient against HLT over the trivial subgroup
    q = build()
    oracle = quotient_from_table(q.label, todd_coxeter(q.presentation, []))
    assert q.degree == oracle.degree <= 20_000
    assert _permutation_isomorphic(q, oracle)


def test_permutation_isomorphism_check_rejects_a_wrong_generator():
    q = torsion_quotient(braid_presentation(3), 2)
    perms = {"s1": q.gen_perms["s1"], "s2": q.gen_perms["s1"]}
    wrong = PermQuotient(q.label, q.presentation, perms, q.degree)
    assert _permutation_isomorphic(q, q)
    assert not _permutation_isomorphic(q, wrong)


def test_br5_s3_degree():
    assert coxeter_quotient(5, 3).degree == 155_520


def test_unbalanced_relator_takes_the_trivial_subgroup():
    # a b^-2 has exponent sum -1, not 0 mod 3: no map to Z/3 sends a and b to 1
    pres = Presentation("P", ("a", "b"), (parse_word("a b^-2", ("a", "b")),))
    q = torsion_quotient(pres, 3)
    table = todd_coxeter(q.presentation, [])
    assert q.degree == table.index() == 3
    assert q.gen_perms == table.generator_permutations()


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
        perm = tuple(range(q.degree))
        for sym, exp in w:
            g = q.gen_perms[sym]
            if exp < 0:
                inv = [0] * q.degree
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
    q = PermQuotient("random", Presentation("random", tuple(perms), ()), perms, 40)

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


def test_integer_row_span_membership():
    from reflbench.fpgroups import in_integer_row_span

    rows = [[2, 0, 4], [0, 3, 3]]
    assert in_integer_row_span(rows, [2, 3, 7])
    assert in_integer_row_span(rows, [0, 0, 0])
    assert not in_integer_row_span(rows, [1, 0, 2])  # needs half a row
    assert not in_integer_row_span(rows, [0, 0, 1])
    assert in_integer_row_span([], [0, 0])
    assert not in_integer_row_span([], [1, 0])


def _row_span_by_full_reduction(rows, vec):
    """The earlier Hermite reduction: every gcd step updates whole rows and
    re-sorts the rows nonzero in the column."""
    mat = [list(r) for r in rows if any(r)]
    work = list(vec)
    ncols = len(vec)
    col = 0
    while col < ncols and mat:
        if not [r for r in mat if r[col]]:
            col += 1
            continue
        while True:
            nonzero = sorted((r for r in mat if r[col]), key=lambda r: abs(r[col]))
            if len(nonzero) <= 1:
                break
            a, b = nonzero[0], nonzero[1]
            q = b[col] // a[col]
            for i in range(ncols):
                b[i] -= q * a[i]
            mat = [r for r in mat if any(r)]
        piv = [r for r in mat if r[col]][0]
        if work[col] % piv[col] == 0:
            q = work[col] // piv[col]
            for i in range(ncols):
                work[i] -= q * piv[i]
        mat = [r for r in mat if r is not piv and any(r)]
        col += 1
    return all(v == 0 for v in work)


def _span_cases(rng, rows, ncols):
    """A vector in the span, the same divided by its content (in the rational
    span, often not in the integer one), off it by a unit vector, and one at
    random."""
    combo = [0] * ncols
    for r in rows:
        c = rng.randint(-3, 3)
        combo = [x + c * y for x, y in zip(combo, r)]
    yield combo
    content = math.gcd(*combo)
    if content > 1:
        yield [x // content for x in combo]
    unit = rng.randrange(ncols)
    yield [x + (i == unit) for i, x in enumerate(combo)]
    yield [rng.randint(-4, 4) for _ in range(ncols)]


def test_integer_row_span_matches_full_reduction():
    from reflbench.fpgroups import (
        in_integer_row_span,
        schreier_abelianized,
        subgroup_relator_matrix,
    )

    rng = random.Random(20261018)
    verdicts = []
    for _ in range(600):
        ncols = rng.randint(1, 6)
        rows = [
            [rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(ncols)]
            for _ in range(rng.randint(0, 6))
        ]
        for vec in _span_cases(rng, rows, ncols):
            expected = _row_span_by_full_reduction(rows, vec)
            assert in_integer_row_span(rows, vec) == expected, (rows, vec)
            verdicts.append(expected)
    # the relator matrices of the kernel of Art(I2(m)) -> I2(m)
    for m in range(3, 32):
        pres = artin_i2_presentation(m)
        tq = torsion_quotient(pres, 2)
        columns = []
        for name in pres.generators:
            columns += [tq.gen_perms[name], tq.eval_word(single(name, -1))]
        data = schreier_data(CosetTable(pres, (), columns, "complete", tq.degree))
        relmat = subgroup_relator_matrix(data)
        kernel_words = ["a^2", "b^2", "[a^2,b^2]", "[a^2,b^-2]^2 b^4", f"(a b)^{m}"]
        vecs = [schreier_abelianized(data, parse_word(w, ("a", "b"))) for w in kernel_words]
        vecs += list(_span_cases(rng, relmat, len(data.names)))
        for vec in vecs:
            expected = _row_span_by_full_reduction(relmat, vec)
            assert in_integer_row_span(relmat, vec) == expected, (m, vec)
            verdicts.append(expected)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


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


def _schreier_abelianized_by_names(data, w, start=0):
    """The earlier exponent vector: each symbol's column found by name."""
    rewritten = _schreier_rewrite_by_letters(data, w, start)
    if rewritten is None:
        return None
    vec = [0] * len(data.names)
    for sym, exp in rewritten:
        vec[data.names.index(sym)] += exp
    return vec


def test_schreier_rewrite_and_abelianized_match_letterwise_rewrite():
    from reflbench.fpgroups import schreier_abelianized

    rng = random.Random(20261019)
    br4 = braid_presentation(4)
    tables = [todd_coxeter(br4, [parse_word(t, br4.generators) for t in ("s1^2", "s2", "s3")])]
    for m in (3, 4, 7):
        pres = artin_i2_presentation(m)
        tq = torsion_quotient(pres, 2)
        columns = []
        for name in pres.generators:
            columns += [tq.gen_perms[name], tq.eval_word(single(name, -1))]
        tables.append(CosetTable(pres, (), columns, "complete", tq.degree))
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
            vec = schreier_abelianized(data, w, start)
            assert vec == _schreier_abelianized_by_names(data, w, start)
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
    # Br4/s^4 is infinite: both enumerators stop at the same limits
    pres = _with_powers(braid_presentation(4), 4, "Br4/s^4")
    for limit in (1, 2, 50, 777):
        assert _row_major_todd_coxeter(pres, [], limit)[0] == "budget_exceeded"
        table = todd_coxeter(pres, [], limit)
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
    w = table.presentation.parse("s1 s2^-1 s3 s1^-2 s2")
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
