import random

import pytest

from reflbench.errors import InputError
from reflbench.fpgroups import (
    artin_b_presentation,
    artin_d_presentation,
    artin_i2_presentation,
    braid_presentation,
    free_reduce,
    parse_word,
    single,
    substitute,
    word_inverse,
    word_length,
    word_letters,
    word_mul,
    word_pow,
)
from reflbench.garside import (
    MAX_LETTERS,
    MAX_RANK,
    CoxeterType,
    GarsideNF,
    context,
    eta_word,
    nf_to_json,
    parse_type,
    w_word,
)

TYPE_PRESENTATIONS = {
    "A3": braid_presentation(4),
    "B3": artin_b_presentation(3),
    "D4": artin_d_presentation(4),
    "I2(6)": artin_i2_presentation(6),
}


def test_parse_type():
    assert parse_type("D4") == CoxeterType("D", 4)
    assert parse_type("I2(6)") == CoxeterType("I2", 6)
    with pytest.raises(InputError):
        parse_type("Z9")
    # the caps bound only the garside commands (tests/test_cli.py)
    assert parse_type(f"D{MAX_RANK + 1}") == CoxeterType("D", MAX_RANK + 1)
    assert parse_type(f"I2({MAX_LETTERS + 1})") == CoxeterType("I2", MAX_LETTERS + 1)
    for text in ("", "A", "I2()", "I2(" + "9" * 5000 + ")", "I2(3)5", "I2x7", "I2(6", "i2(1)(2)"):
        with pytest.raises(InputError):
            parse_type(text)


def test_braid_relation_a2():
    ctx = context(parse_type("A2"))
    assert ctx.equal(parse_word("s1 s2 s1", ctx.gen_list), parse_word("s2 s1 s2", ctx.gen_list))


def test_w_shift_lemma_in_d5():
    # w4 s2 = s3 w4 (ambient type D5, where s4 lives)
    ctx = context(parse_type("D5"))
    assert ctx.equal(word_mul(w_word(4), single("s2")), word_mul(single("s3"), w_word(4)))


def test_i26_delta():
    ctx = context(parse_type("I2(6)"))
    u = parse_word("ababab", ctx.gen_list)
    v = parse_word("bababa", ctx.gen_list)
    assert ctx.equal(u, v)
    assert ctx.normal_form(u) == GarsideNF(ctx.type, 1, ())
    # delta word is the m-letter alternating word
    assert word_length(ctx.delta_word()) == 6


def test_delta_words():
    a2 = context(parse_type("A2"))
    assert a2.delta_word() == parse_word("s1 s2 s1", a2.gen_list)
    for r in range(2, 9):
        ctx = context(CoxeterType("D", r))
        assert word_length(ctx.delta_word()) == r * (r - 1)
        assert ctx.normal_form(ctx.delta_word()) == GarsideNF(ctx.type, 1, ())


def test_delta_eta_recursion():
    for r in range(2, 8):
        big = context(CoxeterType("D", r + 1))
        small = context(CoxeterType("D", r))
        assert big.equal(word_mul(small.delta_word(), eta_word(r + 1)), big.delta_word())


def test_delta_squared_central():
    for r in (3, 4, 5):
        ctx = context(CoxeterType("D", r))
        assert ctx.is_central(word_pow(ctx.delta_word(), 2))


def _conjugation_by_delta(ctx) -> dict:
    """Each generator g named by its image tau(g) = Delta^-1 g Delta."""
    names = {w: name for name, w in ctx.gens.items()}
    return {g: names[ctx.tau(ctx.gens[g])] for g in ctx.gen_list}


def test_conjugation_by_delta():
    c3 = context(CoxeterType("D", 3))
    images3 = _conjugation_by_delta(c3)
    assert images3["s1"] == "s1p" and images3["s1p"] == "s1" and images3["s2"] == "s2"
    c4 = context(CoxeterType("D", 4))
    images4 = _conjugation_by_delta(c4)
    assert all(images4[g] == g for g in c4.gen_list)  # Delta central in D4
    # phi^2 = identity
    for ctx in (c3, c4):
        images = _conjugation_by_delta(ctx)
        assert all(images[h] == g for g, h in images.items())


def test_eta_commutators_centralize():
    for r in (3, 4):
        ctx = context(CoxeterType("D", r))
        eta = eta_word(r)
        for xw in (single("s1"), single("s1p"), word_mul(single("s1"), single("s1p"))):
            for m in range(-2, 3):
                em = word_pow(eta, m)
                comm = word_mul(em, xw, word_inverse(em), word_inverse(xw))
                assert ctx.commutes(comm, single("s1"))
                assert ctx.commutes(comm, single("s1p"))


def test_f_eta_s2_centralizes():
    for r in (3, 4, 5):
        ctx = context(CoxeterType("D", r + 1))
        eta = eta_word(r)
        sr2 = word_pow(single(f"s{r}"), 2)
        for ftext in ("[x,y]", "[x,y]^2", "[x^2,y]"):
            f = parse_word(ftext, ("x", "y"))
            img = substitute(f, {"x": eta, "y": sr2})
            assert ctx.commutes(img, single("s1"))
            assert ctx.commutes(img, single("s1p"))


def test_s1_s1p_commute():
    ctx = context(CoxeterType("D", 5))
    assert ctx.commutes(single("s1"), single("s1p"))


def _length(ctx, w) -> int:
    """Coxeter length by the classical formulas: the inversions, plus the
    negated entries (B) or the pairs with a negative sum (D); I2 by (k, eps)."""
    if ctx.type.family == "I2":
        (k, e), m = w, ctx.type.rank
        return 2 * min(k, m - k) if e == 0 else min(2 * (-k % m) + 1, 2 * ((k - 1) % m) + 1)
    pairs = [(x, y) for i, x in enumerate(w) for y in w[i + 1 :]]
    inversions = sum(1 for x, y in pairs if x > y)
    if ctx.type.family == "B":
        return inversions + sum(-x for x in w if x < 0)
    if ctx.type.family == "D":
        return inversions + sum(1 for x, y in pairs if x + y < 0)
    return inversions


def _right_descents(ctx, w) -> list[str]:
    """The generators s with l(w s) < l(w), in generator order."""
    mask = ctx.model.right_descents(w)
    return [name for i, name in enumerate(ctx.gen_list) if mask >> i & 1]


def _left_descents(ctx, w) -> list[str]:
    """The generators s with l(s w) < l(w): L(w) = R(w^-1)."""
    return _right_descents(ctx, ctx.model.inv(w))


def _nf_inverse(ctx, x):
    """(Delta^k f1 ... fl)^-1 = Delta^-(k+l) g_l ... g_1, already
    left-weighted, with g_i = tau^(k+i-1)(w0 f_i^-1)."""
    m, k, fs = ctx.model, x.delta_power, x.factors
    gs = [ctx.tau_pow(m.mul(ctx.w0, m.inv(f)), k + i) for i, f in enumerate(fs)]
    return GarsideNF(ctx.type, -(k + len(fs)), tuple(reversed(gs)))


def test_length_formulas_against_bfs_oracle():
    # independent oracle: true Cayley-graph distances via BFS, and the
    # descents they give (D5 covers the odd-rank longest-element case)
    for tname in ("A3", "B3", "D4", "D5", "I2(7)", "I2(6)"):
        ctx = context(parse_type(tname))
        dist = {ctx.one: 0}
        frontier = [ctx.one]
        while frontier:
            nxt = []
            for w in frontier:
                for g in ctx.gens.values():
                    u = ctx.model.mul(w, g)
                    if u not in dist:
                        dist[u] = dist[w] + 1
                        nxt.append(u)
            frontier = nxt
        for w, d in dist.items():
            assert _length(ctx, w) == d, (tname, w)
            right = [s for s, g in ctx.gens.items() if dist[ctx.model.mul(w, g)] < d]
            left = [s for s, g in ctx.gens.items() if dist[ctx.model.mul(g, w)] < d]
            assert _right_descents(ctx, w) == right, (tname, w)
            assert _left_descents(ctx, w) == left, (tname, w)
        assert max(dist.values()) == _length(ctx, ctx.w0)


def _bfs_elements(ctx):
    dist = {ctx.one: 0}
    frontier = [ctx.one]
    while frontier:
        nxt = []
        for w in frontier:
            for g in ctx.gens.values():
                u = ctx.model.mul(w, g)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


# the Coxeter graphs, written out by hand: the pairs of generators that do
# not commute
DYNKIN_EDGES = {
    "A3": [("s1", "s2"), ("s2", "s3")],
    "B3": [("t", "s2"), ("s2", "s3")],
    "D2": [],
    "D4": [("s1", "s2"), ("s1p", "s2"), ("s2", "s3")],
    "D5": [("s1", "s2"), ("s1p", "s2"), ("s2", "s3"), ("s3", "s4")],
    "I2(6)": [("a", "b")],
    "I2(7)": [("a", "b")],
}


def test_descent_bits_and_neighbours_match_the_dynkin_diagram():
    for tname, edges in DYNKIN_EDGES.items():
        ctx = context(parse_type(tname))
        m, rank = ctx.model, len(ctx.gen_list)
        for w in _bfs_elements(ctx):
            mask = m.right_descents(w)
            assert [bool(m.descent(w, i)) for i in range(rank)] == [bool(mask >> i & 1) for i in range(rank)]
        index = {name: i for i, name in enumerate(ctx.gen_list)}
        expected = [[] for _ in range(rank)]
        for x, y in edges:
            expected[index[x]].append(index[y])
            expected[index[y]].append(index[x])
        assert [sorted(n) for n in ctx.neighbours] == [sorted(n) for n in expected], tname


def test_normal_form_canonicity_random():
    rng = random.Random(99)
    for tname, pres in TYPE_PRESENTATIONS.items():
        ctx = context(parse_type(tname))
        for _ in range(125):
            w = tuple((rng.choice(ctx.gen_list), rng.choice([1, -1])) for _ in range(12))
            rel = rng.choice(pres.relators)
            pos = rng.randrange(len(w) + 1)
            g = rng.choice(ctx.gen_list)
            w2 = free_reduce(w[:pos] + rel + ((g, 1), (g, -1)) + w[pos:])
            assert ctx.normal_form(w) == ctx.normal_form(w2)


def test_normal_form_respects_multiplication():
    rng = random.Random(123)
    for tname in TYPE_PRESENTATIONS:
        ctx = context(parse_type(tname))
        for _ in range(50):
            u = tuple((rng.choice(ctx.gen_list), rng.choice([1, -1])) for _ in range(6))
            v = tuple((rng.choice(ctx.gen_list), rng.choice([1, -1])) for _ in range(6))
            assert ctx.nf_mul(ctx.normal_form(u), ctx.normal_form(v)) == ctx.normal_form(
                word_mul(u, v)
            )


# Oracle: a length-based engine, in which descents are length drops and
# every letter re-sweeps all pairs to a fixpoint.  Left-greedy normal forms
# are unique, so it must agree exactly with the one-sweep engine.


def _oracle_local(ctx, a, b):
    m = ctx.model
    la, lb = _length(ctx, a), _length(ctx, b)
    moved = True
    while moved:
        moved = False
        for name in ctx.gen_list:
            g = ctx.gens[name]
            if _length(ctx, m.mul(g, b)) < lb and _length(ctx, m.mul(a, g)) > la:
                a = m.mul(a, g)
                b = m.mul(g, b)
                la += 1
                lb -= 1
                moved = True
    return a, b


def _oracle_normalize_factors(ctx, factors):
    factors = [f for f in factors if f != ctx.one]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(factors) - 1:
            a, b = _oracle_local(ctx, factors[i], factors[i + 1])
            if (a, b) != (factors[i], factors[i + 1]):
                changed = True
                factors[i] = a
                if b == ctx.one:
                    del factors[i + 1]
                    i = max(i - 1, 0)
                    continue
                factors[i + 1] = b
            i += 1
    delta_power = 0
    while factors and factors[0] == ctx.w0:
        factors.pop(0)
        delta_power += 1
    return delta_power, tuple(factors)


def _oracle_nf_mul(ctx, x, y):
    shifted = [ctx.tau_pow(f, y.delta_power) for f in x.factors]
    extra, factors = _oracle_normalize_factors(ctx, shifted + list(y.factors))
    return GarsideNF(ctx.type, x.delta_power + y.delta_power + extra, factors)


def _oracle_simple_inverse(ctx, f):
    """f^-1 = Delta^-1 (Delta f^-1), and Delta f^-1 is a simple."""
    return GarsideNF(ctx.type, -1, (ctx.model.mul(ctx.w0, ctx.model.inv(f)),))


def _oracle_normal_form(ctx, w):
    nf = GarsideNF(ctx.type, 0, ())
    for sym, step in word_letters(w):
        g = ctx.gens[sym]
        letter = GarsideNF(ctx.type, 0, (g,)) if step > 0 else _oracle_simple_inverse(ctx, g)
        nf = _oracle_nf_mul(ctx, nf, letter)
    return nf


def _oracle_inverse(ctx, x):
    inv = GarsideNF(ctx.type, 0, ())
    for f in reversed(x.factors):
        inv = _oracle_nf_mul(ctx, inv, _oracle_simple_inverse(ctx, f))
    return _oracle_nf_mul(ctx, inv, GarsideNF(ctx.type, -x.delta_power, ()))


def _run_boundary_words(ctx, rng):
    """Words whose runs of letters end at w0, shorten, or are long in I2(m)."""

    def letters(n, sign):
        return tuple((rng.choice(ctx.gen_list), sign) for _ in range(n))

    delta = ctx.delta_word()
    words = [delta + letters(5, 1), delta + delta, delta + letters(5, -1), letters(5, -1) + delta]
    words += [word_inverse(delta) + letters(5, 1), letters(3, 1) + delta + letters(3, -1)]
    for _ in range(3):
        run = letters(rng.randint(2, 6), 1)
        words.append(run + word_inverse(run[rng.randrange(len(run)) :]) + letters(3, 1))
        words.append(run + letters(4, -1))
    if ctx.type.family == "I2":
        m = ctx.type.rank
        for first, second in (("a", "b"), ("b", "a")):
            for n in (m - 1, m, m + 1):
                alt = tuple(((first, second)[i % 2], 1) for i in range(n))
                words += [alt, alt + letters(2, -1), alt + word_inverse(alt[1:])]
    return words


def test_normal_forms_match_fixpoint_oracle():
    rng = random.Random(2026)
    cases = [
        ("A1", 60), ("B1", 60), ("A2", 60), ("A4", 40), ("A8", 25), ("B2", 60), ("B3", 40), ("B6", 30),
        ("D2", 40), ("D4", 40), ("D5", 30), ("D8", 20), ("I2(3)", 60), ("I2(8)", 60),
    ]
    for tname, max_len in cases:
        ctx = context(parse_type(tname))
        inputs = []
        for signs in ((1,), (-1,), (1, -1)):
            for _ in range(4):
                length = rng.randint(1, max_len)
                u = tuple((rng.choice(ctx.gen_list), rng.choice(signs)) for _ in range(length))
                v = tuple((rng.choice(ctx.gen_list), rng.choice(signs)) for _ in range(5))
                inputs.append((u, v))
        runs = random.Random(f"runs:{tname}")
        for u in _run_boundary_words(ctx, runs):
            inputs.append((u, tuple((runs.choice(ctx.gen_list), runs.choice((1, -1))) for _ in range(5))))
        for u, v in inputs:
            nf = ctx.normal_form(u)
            assert nf == _oracle_normal_form(ctx, u), (tname, u)
            assert _nf_inverse(ctx, nf) == _oracle_inverse(ctx, nf), (tname, u)
            nv = ctx.normal_form(v)
            assert ctx.nf_mul(nf, nv) == _oracle_nf_mul(ctx, nf, nv), (tname, u, v)
            assert ctx.nf_mul(nv, nf) == _oracle_nf_mul(ctx, nv, nf), (tname, u, v)


def test_commutes_and_is_central_match_word_equality():
    # commutation on normal forms against equality of the words uv and vu,
    # and centrality against commuting with each generator
    rng = random.Random(404)
    verdicts = set()
    for tname in ("A1", "A3", "B3", "D4", "D5", "I2(5)", "I2(6)"):
        ctx = context(parse_type(tname))
        delta = ctx.delta_word()
        words = [
            tuple((rng.choice(ctx.gen_list), rng.choice((1, -1))) for _ in range(rng.randint(1, 8)))
            for _ in range(6)
        ]
        words += [word_pow(words[0], 2), word_pow(words[1], -3), delta, word_pow(delta, 2)]
        words += [word_mul(word_pow(delta, 2), words[2]), word_mul(word_inverse(delta), words[3], delta)]
        gens = [single(name) for name in ctx.gen_list]
        for u in words:
            for v in words + gens:
                expected = ctx.equal(word_mul(u, v), word_mul(v, u))
                assert ctx.commutes(u, v) == expected, (tname, u, v)
                verdicts.add(("commutes", expected))
            central = all(ctx.equal(word_mul(u, g), word_mul(g, u)) for g in gens)
            assert ctx.is_central(u) == central, (tname, u)
            verdicts.add(("central", central))
    assert len(verdicts) == 4


def test_normal_form_factors_are_left_greedy():
    rng = random.Random(5)
    for tname in ("A1", "B1", "A5", "B4", "D4", "I2(7)"):
        ctx = context(parse_type(tname))
        for _ in range(40):
            w = tuple((rng.choice(ctx.gen_list), rng.choice([1, -1])) for _ in range(10))
            nf = ctx.normal_form(w)
            for a, b in zip(nf.factors, nf.factors[1:]):
                assert set(_left_descents(ctx, b)) <= set(_right_descents(ctx, a))
            assert all(f != ctx.one and f != ctx.w0 for f in nf.factors)


def test_inverse():
    ctx = context(parse_type("B3"))
    w = parse_word("t s2 t^-1 s3 s2^-2", ctx.gen_list)
    nf = ctx.normal_form(w)
    assert ctx.nf_mul(nf, _nf_inverse(ctx, nf)).is_identity()
    assert ctx.normal_form(word_inverse(w)) == _nf_inverse(ctx, nf)


def test_delta_power_of_coxeter_like_word_recorded():
    # Delta_r equals w_(r-1)^(r-1) in Art(D_r); recorded as an exact NF identity
    for r in range(3, 7):
        ctx = context(CoxeterType("D", r))
        assert ctx.normal_form(word_pow(w_word(r - 1), r - 1)) == ctx.normal_form(
            ctx.delta_word()
        )


def test_nf_json():
    ctx = context(parse_type("A2"))
    nf = ctx.normal_form(parse_word("s1 s2", ctx.gen_list))
    blob = nf_to_json(ctx, nf)
    assert blob["delta_power"] == 0 and blob["factors"] == [["s1", "s2"]]


def test_nf_equality_consistent_with_finite_quotients():
    # cross-validation: words with equal NF must have equal images in the
    # torsion quotient; words with equal quotient image AND equal NF never
    # disagree (NF equality is the stronger, exact relation)
    from reflbench.fpgroups import torsion_quotient

    rng = random.Random(77)
    cases = [("A2", braid_presentation(3)), ("I2(6)", artin_i2_presentation(6))]
    for tname, pres in cases:
        ctx = context(parse_type(tname))
        q = torsion_quotient(pres, 2)
        words = [
            tuple((rng.choice(ctx.gen_list), rng.choice([1, -1])) for _ in range(8))
            for _ in range(30)
        ]
        for u in words:
            for v in words:
                if ctx.equal(u, v):
                    assert q.eval_word(u) == q.eval_word(v)


def test_nf_separates_group_elements_in_w():
    # words mapping to different Coxeter-group elements must have different NFs
    rng = random.Random(31)
    ctx = context(parse_type("D4"))
    for _ in range(50):
        u = tuple((rng.choice(ctx.gen_list), 1) for _ in range(7))
        v = tuple((rng.choice(ctx.gen_list), 1) for _ in range(7))
        if ctx.image_in_w(u) != ctx.image_in_w(v):
            assert ctx.normal_form(u) != ctx.normal_form(v)


# Oracle: the left-weighting of a pair as it was before letters moved in
# place, rebuilding both tuples at every move.


def _tuple_rmul(ctx, w, i):
    """w times generator i as a new tuple, one formula per family."""
    family = ctx.type.family
    if family == "A":
        return w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
    if family == "I2":
        return ctx.model.mul(w, (i, 1))
    first_swap = 2 if family == "D" else 1
    if i >= first_swap:
        return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
    if family == "B":
        return (-w[0],) + w[1:]
    return (w[1], w[0]) + w[2:] if i == 0 else (-w[1], -w[0]) + w[2:]


def _tuple_local(ctx, a, b):
    m = ctx.model
    bi = m.inv(b)
    ra, rb = m.right_descents(a), m.right_descents(bi)
    moves = rb & ~ra
    if not moves:
        return a, b
    while moves:
        i = (moves & -moves).bit_length() - 1
        a = _tuple_rmul(ctx, a, i)
        bi = _tuple_rmul(ctx, bi, i)
        ra, rb = ra | 1 << i, rb & ~(1 << i)
        for j in ctx.neighbours[i]:
            ra = ra & ~(1 << j) | m.descent(a, j) << j
            rb = rb & ~(1 << j) | m.descent(bi, j) << j
        moves = rb & ~ra
    return a, m.inv(bi)


def _random_simple(ctx, rng):
    w = ctx.one
    for _ in range(rng.randint(0, 3 * len(ctx.gen_list) ** 2)):
        w = _tuple_rmul(ctx, w, rng.randrange(len(ctx.gen_list)))
    return w


def test_local_matches_tuple_moves():
    rng = random.Random(3030)
    types = ["A1", "A2", "A5", "A9", "B1", "B2", "B4", "B10", "D2", "D3", "D4", "D7", "I2(3)", "I2(8)", "I2(13)"]
    for tname in types:
        ctx = context(parse_type(tname))
        for _ in range(150):
            a, b = _random_simple(ctx, rng), _random_simple(ctx, rng)
            got = ctx._local(a, b)
            assert got == _tuple_local(ctx, a, b), (tname, a, b)
            assert all(type(x) is tuple for x in got), (tname, a, b)
            if got == (a, b):  # an already left-weighted pair comes back as the same objects
                assert got[0] is a and got[1] is b, (tname, a, b)
        # the generators are still w times generator i from 1, and every
        # left-weighted pair is a fixed point
        assert [ctx.gens[name] for name in ctx.gen_list] == [
            _tuple_rmul(ctx, ctx.one, i) for i in range(len(ctx.gen_list))
        ]
        a, b = ctx._local(_random_simple(ctx, rng), _random_simple(ctx, rng))
        assert ctx._local(a, b) == (a, b)


def test_cap_word_makes_the_same_moves(monkeypatch):
    # (t s2^-1)^100 in B10, the slowest word found at the caps: each move
    # puts one letter on the left factor, so the moves of a call are its
    # gain in length
    ctx = context(parse_type("B10"))
    local = ctx._local
    counts = {"calls": 0, "moves": 0}

    def counted(a, b):
        out = local(a, b)
        counts["calls"] += 1
        counts["moves"] += _length(ctx, out[0]) - _length(ctx, a)
        return out

    monkeypatch.setattr(ctx, "_local", counted)
    nf = ctx.normal_form(parse_word("(t s2^-1)^100", ctx.gen_list, MAX_LETTERS))
    assert counts == {"calls": 5_248, "moves": 484_800}
    assert nf.delta_power * len(ctx.delta_word()) + sum(_length(ctx, f) for f in nf.factors) == 0
