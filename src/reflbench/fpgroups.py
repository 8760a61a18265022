"""Words, finitely presented groups, coset enumeration and the presentation catalog.

Words are freely reduced tuples of (generator name, nonzero exponent).  The
parser accepts juxtaposed generator names (longest match, so "stus" works
over {s,t,u} and "s1p" wins over "s1"), explicit exponents "s1^-2",
parenthesized subwords "(s1 s2 s3)^4", commutator sugar "[u,v]" for
u v u^-1 v^-1, and uppercase names as inverses ("T" = t^-1).

Coset enumeration is HLT-style (scan and fill, relators in catalog order,
generators in declaration order) with standard coincidence processing, so
coset numbering is deterministic.  Hitting the coset budget is a first-class
outcome recorded in the table's status, not an exception.

A power quotient Q = pres/(g^k) is enumerated over the cyclic subgroup
H = <g1> when psi, every generator to 1 in Z/m with m = |k|, is a
homomorphism (every relator's exponent sum is 0 mod m).  Then |H| = m:
g1^k = 1 bounds it above, and psi(g1) = 1 generates Z/m, which bounds it
below.  So q -> (Hq, psi(q)) numbers the elements of Q, and the regular
action is read off the [Q : H] cosets: Br5/s^3 enumerates 51,840 cosets
for its 155,520 elements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import BudgetExceededError, InputError
from .orbit import orbit

DEFAULT_COSET_BUDGET = 2_000_000

# ---------------------------------------------------------------------------
# words


Word = tuple[tuple[str, int], ...]


def free_reduce(letters) -> Word:
    out: list[list] = []
    for sym, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == sym:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([sym, exp])
    return tuple((s, e) for s, e in out)


def word_inverse(w: Word) -> Word:
    return tuple((s, -e) for s, e in reversed(w))


def word_mul(*ws: Word) -> Word:
    letters: list[tuple[str, int]] = []
    for w in ws:
        letters.extend(w)
    return free_reduce(letters)


def word_pow(w: Word, k: int) -> Word:
    if not w or not k:
        return ()
    if k < 0:
        return word_pow(word_inverse(w), -k)
    return word_mul(*([w] * k))


def single(sym: str, exp: int = 1) -> Word:
    return ((sym, exp),) if exp else ()


def word_letters(w: Word):
    """Yield (symbol, +-1) letter by letter."""
    for sym, exp in w:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            yield sym, step


def word_length(w: Word) -> int:
    return sum(abs(e) for _, e in w)


def exponent_sum(w: Word, per_generator: bool = False):
    """Abelianization image: total exponent sum, or a dict per generator."""
    if not per_generator:
        return sum(e for _, e in w)
    out: dict[str, int] = {}
    for s, e in w:
        out[s] = out.get(s, 0) + e
    return out


def is_in_derived_f2(w: Word) -> bool:
    """Exact derived-subgroup test for a word over a two-letter alphabet.

    In a free group, a word lies in the derived subgroup iff its image in the
    (free abelian) abelianization vanishes, i.e. both exponent sums are zero.
    """
    sums = exponent_sum(w, per_generator=True)
    if not set(sums) <= {"x", "y"}:
        raise InputError(f"expected a word over x,y, got letters {sorted(sums)}")
    return all(v == 0 for v in sums.values())


def substitute(w: Word, images: dict[str, Word]) -> Word:
    parts = []
    for sym, exp in w:
        if sym not in images:
            raise InputError(f"no image given for generator {sym!r}")
        parts.append(word_pow(images[sym], exp))
    return word_mul(*parts)


def word_str(w: Word) -> str:
    if not w:
        return "1"
    bits = []
    for s, e in w:
        bits.append(s if e == 1 else f"{s}^{e}")
    return " ".join(bits)


# ---------------------------------------------------------------------------
# parsing


# The default bound on the letters of a parsed word: far above any word of the
# catalogs, and low enough that a power such as (x y)^1000000 is refused before
# it is expanded.
MAX_WORD_LETTERS = 10_000


def parse_word(
    text: str, generators, max_letters: int = MAX_WORD_LETTERS, abbreviations=None
) -> Word:
    """Parse a word over the given generator alphabet (longest-match).

    `abbreviations` maps further names to the words they stand for, which
    are expanded as they are read.  A word of more than `max_letters` letters
    is an input error: each power is checked before it is expanded, and each
    (sub)word as its items are read, so no longer word is built.
    """
    abbreviations = abbreviations or {}
    gens = list(generators) + list(abbreviations)
    names = sorted(gens, key=len, reverse=True)
    upper = {g.upper(): g for g in gens if g.upper() != g and g.upper() not in gens}

    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start or (pos == start + 1 and not text[start].isdigit()):
            raise InputError(f"malformed exponent at position {start} in {text!r}")
        try:
            return int(text[start:pos])
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"exponent too long at position {start} in {text!r}") from exc

    def check_letters(count: int) -> None:
        if count > max_letters:
            raise InputError(f"word has more than {max_letters} letters in {text!r}")

    def named(name: str, exp: int) -> Word:
        if name in abbreviations:
            return word_pow(abbreviations[name], exp)
        return single(name, exp)

    def parse_sequence(stop: str) -> Word:
        nonlocal pos
        items: list[Word] = []
        letters = 0
        while True:
            skip_ws()
            if pos >= n or text[pos] in stop:
                return word_mul(*items)
            items.append(parse_item())
            letters += word_length(items[-1])
            check_letters(letters)

    def parse_item() -> Word:
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


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    label: str
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        declared = set(self.generators)
        for r in self.relators:
            for sym, _ in r:
                if sym not in declared:
                    raise InputError(f"relator uses undeclared generator {sym!r}")

    def parse(self, text: str) -> Word:
        return parse_word(text, self.generators)

    @cached_property
    def letter_columns(self) -> dict[tuple[str, int], int]:
        """Coset-table column of each letter (name, +-1): 2g for the g-th
        generator, 2g + 1 for its inverse."""
        return {
            (name, step): 2 * g + (step < 0)
            for g, name in enumerate(self.generators)
            for step in (1, -1)
        }


def relation(u: Word, v: Word) -> Word:
    """The relator u v^-1 encoding the relation u = v."""
    return word_mul(u, word_inverse(v))


def _braid_relators(names: list[str]) -> list[Word]:
    rel = []
    for i in range(len(names) - 1):
        a, b = single(names[i]), single(names[i + 1])
        rel.append(relation(word_mul(a, b, a), word_mul(b, a, b)))
    for i in range(len(names)):
        for j in range(i + 2, len(names)):
            a, b = single(names[i]), single(names[j])
            rel.append(relation(word_mul(a, b), word_mul(b, a)))
    return rel


def braid_presentation(n: int) -> Presentation:
    """Br_n with generators s1..s(n-1)."""
    if n < 2:
        raise InputError("braid group needs n >= 2 strands")
    names = [f"s{i}" for i in range(1, n)]
    return Presentation(f"Br{n}", tuple(names), tuple(_braid_relators(names)))


def artin_b_presentation(n: int) -> Presentation:
    """Art(B_n) with generators t, s2..sn: tst s2-chain plus far commutations."""
    if n < 2:
        raise InputError("type B needs rank >= 2")
    names = ["t"] + [f"s{i}" for i in range(2, n + 1)]
    t = single("t")
    s2 = single("s2")
    rel = [relation(word_mul(t, s2, t, s2), word_mul(s2, t, s2, t))]
    rel += _braid_relators(names[1:])
    for i in range(3, n + 1):
        si = single(f"s{i}")
        rel.append(relation(word_mul(t, si), word_mul(si, t)))
    return Presentation(f"ArtB{n}", tuple(names), tuple(rel))


def artin_d_presentation(n: int) -> Presentation:
    """Art(D_n) with generators s1, s1p, s2..s(n-1): two braid chains + s1 s1p = s1p s1."""
    if n < 2:
        raise InputError("type D needs rank >= 2")
    names = ["s1", "s1p"] + [f"s{i}" for i in range(2, n)]
    rel = [relation(word_mul(single("s1"), single("s1p")), word_mul(single("s1p"), single("s1")))]
    chain1 = ["s1"] + [f"s{i}" for i in range(2, n)]
    chain2 = ["s1p"] + [f"s{i}" for i in range(2, n)]
    rel += _braid_relators(chain1)
    for r in _braid_relators(chain2):
        if r not in rel:
            rel.append(r)
    # s1 and s1p both commute with s_j for j >= 3; included via the two chains
    return Presentation(f"ArtD{n}", tuple(names), tuple(rel))


def artin_i2_presentation(m: int) -> Presentation:
    """Art(I2(m)) = <a,b | abab... = baba...> with m factors each."""
    if m < 3:
        raise InputError("dihedral Artin type needs m >= 3")
    u = alternating_word("a", "b", m)
    v = alternating_word("b", "a", m)
    return Presentation(f"ArtI2({m})", ("a", "b"), (relation(u, v),))


def alternating_word(first: str, second: str, length: int) -> Word:
    letters = []
    for i in range(length):
        letters.append((first if i % 2 == 0 else second, 1))
    return free_reduce(letters)


def g12_braid_presentation() -> Presentation:
    """<s,t,u | stus = tust = ustu>."""
    s, t, u = single("s"), single("t"), single("u")
    stus = word_mul(s, t, u, s)
    tust = word_mul(t, u, s, t)
    ustu = word_mul(u, s, t, u)
    return Presentation(
        "B(G12)", ("s", "t", "u"), (relation(stus, tust), relation(tust, ustu))
    )


def g13_braid_presentation() -> Presentation:
    """<g1,g2,g3 | g1g2g3g1 = g3g1g2g3, g3g1g2g3g2 = g2g3g1g2g3>."""
    g1, g2, g3 = single("g1"), single("g2"), single("g3")
    r1 = relation(word_mul(g1, g2, g3, g1), word_mul(g3, g1, g2, g3))
    r2 = relation(word_mul(g3, g1, g2, g3, g2), word_mul(g2, g3, g1, g2, g3))
    return Presentation("B(G13)", ("g1", "g2", "g3"), (r1, r2))


def corran_picantin_presentation(
    e: int, n: int, include_far_commutations: bool = True
) -> Presentation:
    """The G(e,e,n) braid presentation: generators t0..t(e-1), s3..sn.

    Relations: t_(i+1) t_i all equal, s3 t_i s3 = t_i s3 t_i, braid relations
    among s3..sn, and (flagged: `include_far_commutations`) t_i s_j = s_j t_i
    for j >= 4.  The flag exists because the source presentation requires the
    far commutations while terse statements of it omit them; both variants are
    exercised by the verification suite.
    """
    if e < 2 or n < 2:
        raise InputError("Corran-Picantin needs e >= 2, n >= 2")
    tnames = [f"t{i}" for i in range(e)]
    snames = [f"s{i}" for i in range(3, n + 1)]
    rel: list[Word] = []
    base = word_mul(single("t1"), single("t0"))
    for i in range(1, e):
        u = word_mul(single(tnames[(i + 1) % e]), single(tnames[i]))
        rel.append(relation(u, base))
    if snames:
        s3 = single("s3")
        for tn in tnames:
            ti = single(tn)
            rel.append(relation(word_mul(s3, ti, s3), word_mul(ti, s3, ti)))
    rel += _braid_relators(snames)
    if include_far_commutations:
        for j in range(4, n + 1):
            sj = single(f"s{j}")
            for tn in tnames:
                ti = single(tn)
                rel.append(relation(word_mul(ti, sj), word_mul(sj, ti)))
    flag = "" if include_far_commutations else ",nofar"
    return Presentation(
        f"CP({e},{e},{n}){flag}", tuple(tnames + snames), tuple(rel)
    )


# ---------------------------------------------------------------------------
# catalogued maps


@dataclass(frozen=True)
class GroupHom:
    label: str
    source: Presentation
    images: dict[str, Word]

    def apply(self, w: Word) -> Word:
        return substitute(w, self.images)


def g12_conjugation() -> GroupHom:
    """s -> t^-1, t -> s^-1, u -> u^-1 on <s,t,u | stus = tust = ustu>."""
    p = g12_braid_presentation()
    return GroupHom(
        "G12-conjugation",
        p,
        {"s": single("t", -1), "t": single("s", -1), "u": single("u", -1)},
    )


def cp_conjugation(e: int, n: int) -> GroupHom:
    """s_k -> s_k^-1, t_i -> t_(-i)^-1 on the G(e,e,n) presentation."""
    p = corran_picantin_presentation(e, n)
    images: dict[str, Word] = {}
    for i in range(e):
        images[f"t{i}"] = single(f"t{(-i) % e}", -1)
    for j in range(3, n + 1):
        images[f"s{j}"] = single(f"s{j}", -1)
    return GroupHom(f"CP({e},{e},{n})-conjugation", p, images)


def g13_conjugation() -> GroupHom:
    """g1 -> g1^-1, g2 -> g1 g2^-1 g1^-1, g3 -> g1 g2 g3 g2^-1 g1^-1."""
    p = g13_braid_presentation()
    g1, g2, g3 = single("g1"), single("g2"), single("g3")
    return GroupHom(
        "G13-conjugation",
        p,
        {
            "g1": single("g1", -1),
            "g2": word_mul(g1, single("g2", -1), word_inverse(g1)),
            "g3": word_mul(g1, g2, g3, word_inverse(g2), word_inverse(g1)),
        },
    )


def i26_to_g13_iso() -> GroupHom:
    """a -> g3 g1 g2 g3, b -> g3^-1 from Art(I2(6)) to the G13 braid group."""
    p = artin_i2_presentation(6)
    return GroupHom(
        "I2(6)->B(G13)",
        p,
        {
            "a": word_mul(single("g3"), single("g1"), single("g2"), single("g3")),
            "b": single("g3", -1),
        },
    )


def i26_transported_conjugation() -> GroupHom:
    """a -> (bab) a^-1 (bab)^-1, b -> (ba) b^-1 (ba)^-1 on Art(I2(6))."""
    p = artin_i2_presentation(6)
    a, b = single("a"), single("b")
    bab = word_mul(b, a, b)
    ba = word_mul(b, a)
    return GroupHom(
        "I2(6)-transported-conjugation",
        p,
        {
            "a": word_mul(bab, single("a", -1), word_inverse(bab)),
            "b": word_mul(ba, single("b", -1), word_inverse(ba)),
        },
    )


def i26_mirror_conjugated_by_bab() -> GroupHom:
    """Ad(bab) o mirror: a -> (bab) a^-1 (bab)^-1, b -> (bab) b^-1 (bab)^-1."""
    p = artin_i2_presentation(6)
    a, b = single("a"), single("b")
    bab = word_mul(b, a, b)
    return GroupHom(
        "I2(6)-Ad(bab)-mirror",
        p,
        {
            "a": word_mul(bab, single("a", -1), word_inverse(bab)),
            "b": word_mul(bab, single("b", -1), word_inverse(bab)),
        },
    )


def artin_b_embedding(n: int) -> GroupHom:
    """Art(B_n) -> Br_(n+1): t -> s1^2, s_i -> s_i."""
    p = artin_b_presentation(n)
    images: dict[str, Word] = {"t": single("s1", 2)}
    for i in range(2, n + 1):
        images[f"s{i}"] = single(f"s{i}")
    return GroupHom(f"ArtB{n}->Br{n+1}", p, images)


# ---------------------------------------------------------------------------
# Todd-Coxeter (HLT with standard coincidence processing)


@dataclass
class CosetTable:
    """A coset table by column: columns[2g][alpha] is alpha g and columns[2g + 1][alpha]
    is alpha g^-1 for the g-th generator, over the live cosets; empty unless complete."""

    presentation: Presentation
    subgroup: tuple[Word, ...]
    columns: list[tuple[int, ...]]
    status: str  # "complete" | "budget_exceeded"
    degree: int  # number of cosets when complete

    def index(self) -> int:
        return self.degree

    def column(self, sym: str, step: int) -> int:
        return self.presentation.letter_columns[sym, step]

    def trace(self, coset: int, w: Word) -> int:
        columns = self.presentation.letter_columns
        for letter in word_letters(w):
            coset = self.columns[columns[letter]][coset]
        return coset

    def generator_permutations(self) -> dict[str, tuple[int, ...]]:
        return {name: self.columns[2 * g] for g, name in enumerate(self.presentation.generators)}


def todd_coxeter(
    pres: Presentation,
    subgroup_words: list[Word],
    limit: int = DEFAULT_COSET_BUDGET,
) -> CosetTable:
    """HLT coset enumeration of the subgroup generated by subgroup_words.

    Deterministic: subgroup generators then relators are scanned in catalog
    order, rows are filled in generator order, cosets are numbered by
    definition order and compacted at the end.  `limit` caps the cosets ever
    defined, dead ones included; beyond it the status is "budget_exceeded".

    The working table is one list per column, T[col][coset]; each word is
    resolved once to the column lists it reads forwards (fw) and backwards
    (bw), so a scan step is one lookup.  Live cosets are the roots of p.
    """
    ncols = 2 * len(pres.generators)
    columns_of = pres.letter_columns

    def letters_to_cols(w: Word) -> list[int]:
        return [columns_of[letter] for letter in word_letters(w)]

    rel_cols = [cols for cols in map(letters_to_cols, pres.relators) if cols]
    sub_cols = [cols for cols in map(letters_to_cols, subgroup_words) if cols]

    T: list[list[int | None]] = [[None] for _ in range(ncols)]
    pairs = [(T[col], T[col ^ 1]) for col in range(ncols)]
    p = [0]  # union-find over cosets; p[k] <= k always

    def lists(cols: list[int]) -> tuple[list, list]:
        return [T[col] for col in cols], [T[col ^ 1] for col in cols]

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(alpha: int, fwd: list, back: list) -> None:
        beta = len(p)
        if beta >= limit:
            raise BudgetExceededError(f"coset budget {limit} exceeded")
        for col in T:
            col.append(None)
        p.append(beta)
        fwd[alpha] = beta
        back[beta] = alpha

    queue: deque[int] = deque()

    def merge(k: int, lam: int):
        k, lam = rep(k), rep(lam)
        if k != lam:
            mu, nu = min(k, lam), max(k, lam)
            p[nu] = mu
            queue.append(nu)

    def coincidence(alpha: int, beta: int):
        merge(alpha, beta)
        while queue:
            gamma = queue.popleft()
            for fwd, back in pairs:
                delta = fwd[gamma]
                if delta is None:
                    continue
                back[delta] = None
                mu, nu = rep(gamma), rep(delta)
                ent = fwd[mu]
                if ent is not None:
                    merge(nu, ent)
                else:
                    ent2 = back[nu]
                    if ent2 is not None:
                        merge(mu, ent2)
                    else:
                        fwd[mu] = nu
                        back[nu] = mu

    def scan_and_fill(alpha: int, fw: list, bw: list):
        f, i = alpha, 0
        b, j = alpha, len(fw) - 1
        while True:
            while i <= j and fw[i][f] is not None:
                f = fw[i][f]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and bw[j][b] is not None:
                b = bw[j][b]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                fw[i][f] = b
                bw[i][b] = f
                return
            define(f, fw[i], bw[i])

    rels = [lists(cols) for cols in rel_cols]
    try:
        for cols in sub_cols:
            scan_and_fill(0, *lists(cols))
        alpha = 0
        while alpha < len(p):
            if p[alpha] == alpha:
                for fw, bw in rels:
                    # fast path: a relator that already closes at alpha
                    f = alpha
                    for col in fw:
                        f = col[f]
                        if f is None:
                            break
                    else:
                        if f == alpha:
                            continue
                    scan_and_fill(alpha, fw, bw)
                    if p[alpha] != alpha:
                        break
                else:
                    for fwd, back in pairs:
                        if fwd[alpha] is None:
                            define(alpha, fwd, back)
            alpha += 1
    except BudgetExceededError:
        return CosetTable(pres, tuple(subgroup_words), [], "budget_exceeded", 0)

    # compact: renumber live cosets in definition order
    for k in range(len(p)):
        p[k] = p[p[k]]  # a root, since p[k] < k was compressed before k
    live = [k for k, root in enumerate(p) if k == root]
    number = [0] * len(p)
    for i, k in enumerate(live):
        number[k] = i
    renum = _gather(number, p)
    columns = []
    for col in T:
        try:
            columns.append(_gather(renum, _gather(col, live)))
        except TypeError:  # renum[None]
            raise RuntimeError("enumeration finished with an undefined entry") from None
        col.clear()
    result = CosetTable(pres, tuple(subgroup_words), columns, "complete", len(live))
    _validate_table(result, rel_cols, sub_cols)
    return result


def _gather(seq, indices) -> tuple:
    """tuple(seq[i] for i in indices), at C speed."""
    if len(indices) < 2:
        return tuple(seq[i] for i in indices)
    return itemgetter(*indices)(seq)


def _validate_table(t: CosetTable, rel_cols, sub_cols) -> None:
    """Closure check: inverse consistency, every relator fixes every coset,
    every subgroup generator fixes coset 0.

    Words act on all cosets at once, by composing whole columns.  Once every
    entry is in range and column 2g + 1 undoes column 2g, the two are inverse
    bijections, so a relator fixes every coset iff its first half acts as
    the inverse of its second.
    """
    cols, n = t.columns, t.degree
    identity = tuple(range(n))

    def act(word_cols) -> tuple[int, ...]:
        """alpha -> alpha . word, for every coset alpha."""
        if not word_cols:
            return identity
        gamma = cols[word_cols[0]]
        for c in word_cols[1:]:
            gamma = _gather(cols[c], gamma)
        return gamma

    if any(len(col) != n or min(col) < 0 or max(col) >= n for col in cols) or any(
        act((c, c + 1)) != identity for c in range(0, len(cols), 2)
    ):
        raise RuntimeError("coset table is not inverse-consistent")
    for word_cols in rel_cols:
        k = len(word_cols) // 2
        if act(word_cols[:k]) != act([c ^ 1 for c in reversed(word_cols[k:])]):
            raise RuntimeError("a relator does not act trivially on the cosets")
    for word_cols in sub_cols:
        gamma = 0
        for c in word_cols:
            gamma = cols[c][gamma]
        if gamma != 0:
            raise RuntimeError("a subgroup generator moves the subgroup coset")


# ---------------------------------------------------------------------------
# finite permutation quotients


@dataclass
class PermQuotient:
    """A finite quotient acting by permutations of range(degree).

    Every quotient built by `_power_quotient` is the regular action of Q on
    its own elements, point 0 being the identity.  A subgroup H of a regular
    group acts freely, so |H| = |H.0|: `order` and `subgroup_order` are one
    orbit of the point 0, never a listing of the group.

    The points come from the cosets of H = <g1> and a residue mod m, where
    psi sends every generator to 1 in Z/m.  Since g1^m = 1, |H| <= m; since
    psi(g1) = 1 generates Z/m, |H| >= m; so q -> (Hq, psi(q)) is one-to-one.
    """

    label: str
    presentation: Presentation
    gen_perms: dict[str, tuple[int, ...]]
    degree: int
    exact = False  # a verification backend that gives evidence, not proof

    def eval_word(self, w: Word) -> tuple[int, ...]:
        """The permutation alpha -> alpha . w.  A syllable g^e costs one
        composition for e = +-1 and O(log |e|) by repeated squaring."""
        perm = self.identity()
        for sym, exp in w:
            g = (self.gen_perms if exp > 0 else self._inverse_perms).get(sym)
            if g is None:
                raise InputError(f"word uses {sym!r}, unknown in quotient {self.label}")
            perm = _gather(_perm_power(g, abs(exp)), perm)
        return perm

    @cached_property
    def _inverse_perms(self) -> dict[str, tuple[int, ...]]:
        inverses = {}
        for sym, g in self.gen_perms.items():
            inv = [0] * self.degree
            for i, v in enumerate(g):
                inv[v] = i
            inverses[sym] = tuple(inv)
        return inverses

    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def order(self) -> int:
        return self.subgroup_order(list(self.gen_perms.values()))

    def subgroup_order(self, perms: list[tuple[int, ...]]) -> int:
        return len(orbit(0, perms, lambda p, g: g[p]))


def _perm_power(g: tuple[int, ...], e: int) -> tuple[int, ...]:
    """g^e for e >= 1 by repeated squaring; g itself for e = 1."""
    power = None
    while True:
        if e & 1:
            power = g if power is None else _gather(g, power)
        e >>= 1
        if not e:
            return power
        g = _gather(g, g)


def _power_quotient(pres: Presentation, label: str, k: int, limit: int) -> PermQuotient:
    """pres/(g^k for every generator g), acting regularly on its elements.

    When every relator of pres has exponent sum 0 mod m = |k|, the cosets of
    H = <g1> are enumerated (|H| = m: see the module docstring); otherwise
    m = 1 and H is trivial.  Element q = (Hq, psi(q)) = (t, a) is point
    t*m + a, and a generator x sends it to (t.x, a + 1).  `limit` caps the
    cosets defined and the number of points.
    """
    if k == 0:
        # g^0 is the empty relator: the quotient is pres itself, infinite here
        raise InputError(f"power quotient {label} needs an exponent k != 0")
    rel = pres.relators + tuple(word_pow(single(name), k) for name in pres.generators)
    quot = Presentation(label, pres.generators, rel)
    m = abs(k)
    if not pres.generators or any(exponent_sum(r) % m for r in pres.relators):
        m = 1
    table = todd_coxeter(quot, [single(pres.generators[0])] if m > 1 else [], limit)
    if table.status != "complete":
        raise BudgetExceededError(f"cannot build quotient {label}: enumeration incomplete")
    n = m * table.index()
    if n > limit:
        raise BudgetExceededError(
            f"cannot build quotient {label}: {n} points exceed the coset budget {limit}"
        )
    # slices of one tuple of points, so every entry shares its int object;
    # column 2g moves the residue by +1 and column 2g + 1 by -1
    points = tuple(range(n))
    columns = []
    for c, col in enumerate(table.columns):
        step = -1 if c & 1 else 1
        residues = [_gather(points[(a + step) % m :: m], col) for a in range(m)]
        columns.append(tuple(chain.from_iterable(zip(*residues))))
    regular = CosetTable(quot, (), columns, "complete", n)
    _validate_table(regular, [[quot.letter_columns[x] for x in word_letters(r)] for r in rel], [])
    return PermQuotient(label, quot, regular.generator_permutations(), n)


def coxeter_quotient(n: int, k: int, limit: int = DEFAULT_COSET_BUDGET) -> PermQuotient:
    """Br_n/(s_i^k) as a permutation group on the cosets of the trivial subgroup."""
    return _power_quotient(braid_presentation(n), f"Br{n}/s^{k}", k, limit)


def torsion_quotient(pres: Presentation, k: int, limit: int = DEFAULT_COSET_BUDGET) -> PermQuotient:
    """The quotient of pres by the k-th power of every generator."""
    return _power_quotient(pres, f"{pres.label}+torsion", k, limit)


# ---------------------------------------------------------------------------
# homomorphism verification


@dataclass(frozen=True)
class HomVerdict:
    consistent: bool
    exact_proof: bool
    falsifier: tuple[str, str] | None  # (backend label, relator) when falsified
    note: str


def verify_hom(hom: GroupHom, backend) -> HomVerdict:
    """Check every source relator's image on the backend.

    The backend is a `PermQuotient` (evidence: a finite quotient can only
    falsify) or a `garside.GarsideContext` (exact: its consistency proves
    homomorphy).  Either gives eval_word(Word) -> element, identity(), a
    label and an `exact` flag.
    """
    one = backend.identity()
    for r in hom.source.relators:
        if backend.eval_word(hom.apply(r)) != one:
            return HomVerdict(
                consistent=False,
                exact_proof=True,
                falsifier=(backend.label, word_str(r)),
                note="falsified: a relator image is nontrivial (definitive)",
            )
    if backend.exact:
        return HomVerdict(True, True, None, "consistent; exact backend included, so this proves homomorphy")
    return HomVerdict(True, False, None, "consistent: necessary-condition evidence on finite quotients only")


def hom_bijective_on(hom: GroupHom, quotient: PermQuotient) -> bool:
    """Whether the induced endomorphism of the finite quotient is bijective."""
    images = [quotient.eval_word(w) for w in hom.images.values()]
    return quotient.subgroup_order(images) == quotient.order()


# ---------------------------------------------------------------------------
# Reidemeister-Schreier rewriting


@dataclass
class SchreierData:
    table: CosetTable
    tree_edge: dict[int, tuple[int, int]]  # coset -> (parent coset, column)
    schreier_index: dict[tuple[int, int], int]  # (coset, gen column) -> gen number
    names: list[str]


def schreier_data(table: CosetTable) -> SchreierData:
    """Spanning tree (BFS from coset 0 in column order) + numbered Schreier generators."""
    if table.status != "complete":
        raise BudgetExceededError("Schreier rewriting needs a complete table")
    columns = table.columns
    tree = orbit(0, range(len(columns)), lambda alpha, col: columns[col][alpha])
    tree_edge = {beta: edge for beta, edge in tree.items() if edge is not None}
    index: dict[tuple[int, int], int] = {}
    names: list[str] = []
    for alpha in range(table.index()):
        for col in range(0, len(columns), 2):
            beta = columns[col][alpha]
            if tree_edge.get(beta) == (alpha, col):
                continue  # tree edge: trivial Schreier generator
            if alpha in tree_edge and tree_edge[alpha] == (beta, col ^ 1):
                continue  # the reverse of a tree edge
            index[(alpha, col)] = len(names)
            names.append(f"h{len(names) + 1}")
    return SchreierData(table, tree_edge, index, names)


def schreier_rewrite(data: SchreierData, w: Word, start: int = 0):
    """Rewrite w over the Schreier generators; None when w moves coset `start`.

    With start = 0 this is subgroup membership plus the standard rewriting.
    """
    letters = _schreier_letters(data, w, start)
    if letters is None:
        return None
    return free_reduce((data.names[h], step) for h, step in letters)


def _schreier_letters(data: SchreierData, w: Word, start: int):
    """(Schreier generator number, +-1) for each letter of w that is not a
    tree edge, or None when w moves coset `start`."""
    table = data.table
    index = data.schreier_index
    letters: list[tuple[int, int]] = []
    alpha = start
    for sym, step in word_letters(w):
        col = table.column(sym, step)
        beta = table.columns[col][alpha]
        h = index.get((alpha, col) if step > 0 else (beta, col ^ 1))
        if h is not None:
            letters.append((h, step))
        alpha = beta
    return letters if alpha == start else None


def schreier_abelianized(data: SchreierData, w: Word, start: int = 0):
    """Exponent vector of the rewritten word over the Schreier generators:
    free reduction keeps exponent sums, so the letters are summed as read."""
    letters = _schreier_letters(data, w, start)
    if letters is None:
        return None
    vec = [0] * len(data.names)
    for h, step in letters:
        vec[h] += step
    return vec


def subgroup_relator_matrix(data: SchreierData) -> list[list[int]]:
    """Abelianized Reidemeister relators of the subgroup: one row per
    (coset, relator of the ambient presentation)."""
    rows = []
    for alpha in range(data.table.index()):
        for r in data.table.presentation.relators:
            vec = schreier_abelianized(data, r, start=alpha)
            if vec is None:
                raise RuntimeError("relator does not fix a coset; table inconsistent")
            rows.append(vec)
    return rows


def in_integer_row_span(rows: list[list[int]], vec: list[int]) -> bool:
    """Exact membership of vec in the Z-span of rows (Hermite reduction).

    Column by column, the rows nonzero there are reduced against the one of
    smallest |entry| until one is left; that row clears the column of vec, or
    its entry does not divide vec's and vec lies outside the span.  Every row
    still in play is zero left of the column, so only the columns from it on
    are updated, and a row that the reduction clears moves on to the next.
    """
    mat = [list(r) for r in rows if any(r)]
    work = list(vec)
    ncols = len(vec)
    for col in range(ncols):
        active = [r for r in mat if r[col]]
        mat = [r for r in mat if not r[col]]
        while len(active) > 1:
            piv = min(active, key=lambda r: abs(r[col]))
            kept = [piv]
            for r in active:
                if r is not piv:
                    q = r[col] // piv[col]
                    for i in range(col, ncols):
                        r[i] -= q * piv[i]
                    (kept if r[col] else mat).append(r)
            active = kept
        if active:
            piv = active[0]
            q, rem = divmod(work[col], piv[col])
            if rem:
                return False
            for i in range(col, ncols):
                work[i] -= q * piv[i]
        elif work[col]:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON


def presentation_from_json(data: dict) -> Presentation:
    try:
        gens = tuple(str(g) for g in data["generators"])
        relators = tuple(parse_word(r, gens) for r in data["relators"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed presentation encoding: {exc}") from exc
    return Presentation(str(data.get("label", "anonymous")), gens, relators)
