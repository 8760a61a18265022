"""Words, finitely presented groups, coset enumeration and the presentation catalog.

Words are freely reduced tuples of (generator name, nonzero exponent).  The
parser accepts juxtaposed generator names (longest match, so "stus" works
over {s,t,u} and "s1p" wins over "s1"), explicit exponents in ASCII digits
"s1^-2", parenthesized subwords "(s1 s2 s3)^4", commutator sugar "[u,v]" for
u v u^-1 v^-1, uppercase names as inverses ("T" = t^-1), and "1" alone for
the empty word.

Coset enumeration is HLT-style (scan and fill, relators in catalog order,
generators in declaration order) with standard coincidence processing, so
coset numbering is deterministic.  Hitting the coset budget is a first-class
outcome recorded in the table's status, not an exception.

A power quotient Q = pres/(g^k) is enumerated over a subgroup whose order
is proved, so that |Q| is the index times that order and no table of the
elements is needed for it (`present quotient`, criterion 7).

A torsion quotient, and Br_n/s^k for n <= 3, is enumerated over the cyclic
subgroup H = <g1> when psi, every generator to 1 in Z/m with m = |k|, is a
homomorphism (every relator's exponent sum is 0 mod m).  Then |H| = m:
g1^k = 1 bounds it above, and psi(g1) = 1 generates Z/m, which bounds it
below.  q -> (Hq, psi(q)) numbers the elements, and a generator acts on
them as (t, a) -> (t.x, a + 1).  That regular action needs no check of its
own: its first coordinate is the coset action of a table `todd_coxeter`
validated, and its second is psi, so every relator fixes every pair.

Br_n/s^k is finite iff 1/n + 1/|k| > 1/2 (Coxeter, 1957); `coxeter_quotient`
refuses every other case before any enumeration.  For n = 3 the parabolic
<s1> is <g1>; for n >= 4 the quotient is enumerated over P = <s1, ...,
s(n-2)>, built on P~ = Br_(n-1)/s^k (itself built the same way), and |P| is
proved by a squeeze:

- upper bound: every relator of P~ is literally a relator of Q (checked), so
  the image P_Q of P in Q is a quotient of P~;
- lower bound: the complete, validated table of Q over P is a true action
  of Q, so the permutations of P's generators on its N cosets generate a
  quotient G of P_Q.  The orbit of the tuple of the first s cosets has at
  most |G| points, and at s = N exactly |G|; `orbit` counts it for s = 1,
  2, 4, ..., N, stopping past |P~|, until it reaches |P~|;
- if a count is |P~|, then |P_Q| = |P~|, |Q| = N |P~|, and the stabilizer
  of the tuple in P_Q is trivial.  Otherwise the order is not proved and
  the build raises RuntimeError.  The squeeze closes on every finite
  Br_n/s^k (Br5/s^3 at s = 8 of N = 240).

The tuple is then a base of Q on Q/P, points whose pointwise stabilizer is
trivial (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
ch. 4): coset 0 is P and is in it, so an element fixing it lies in P_Q,
where only 1 does.  So Q acts faithfully on its N cosets, a word is trivial
in Q iff it fixes them all, and a subgroup of Q acts freely on the base's
orbit, whose size is its order.  Br5/s^3 is a chain of tables of 8, 27 and
240 cosets, and its words act on 240 points, not on 155,520 elements.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
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


def exponent_sum(w: Word) -> int:
    """The total exponent sum: w's image in Z under every generator -> 1."""
    return sum(e for _, e in w)


def is_in_derived_f2(w: Word) -> bool:
    """Exact derived-subgroup test for a word over a two-letter alphabet.

    In a free group, a word lies in the derived subgroup iff its image in the
    (free abelian) abelianization vanishes, i.e. both exponent sums are zero.
    """
    sums: dict[str, int] = {}
    for s, e in w:
        sums[s] = sums.get(s, 0) + e
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
# The deepest nesting of ( and [ in a parsed word; the descent takes one stack
# frame per level, so this stays well below Python's recursion limit.
MAX_WORD_NESTING = 200


@lru_cache(maxsize=None)
def _lexer(names: tuple[str, ...], stop: str):
    """The matcher of one item over `names`, and the map of upper-case names
    to the names they invert.

    An item is blanks, the longest name (group 1), else the longest
    upper-case name (group 2), blanks, and an optional `^` with its exponent
    (group 3).  Nothing matches at the end of the text, at a `stop`
    character, or at the ( and [ that open a subword, so no name starts
    there; the descent in `parse_word` reads those.
    """
    upper = {g.upper(): g for g in names if g.upper() != g and g.upper() not in names}

    def longest_first(words):
        return "|".join(map(re.escape, sorted(words, key=len, reverse=True))) if words else "(?!)"

    pattern = rf"[ \t]*(?![ \t(\[{re.escape(stop)}]|\Z)(?:({longest_first(names)})|({longest_first(upper)}))"
    return re.compile(pattern + _EXPONENT).match, upper


# blanks, then an optional `^` with its exponent in a group
_EXPONENT = r"[ \t]*(?:\^[ \t]*([+-]?[0-9]*))?"
_POWER = re.compile(_EXPONENT).match


def parse_word(
    text: str, generators, max_letters: int = MAX_WORD_LETTERS, abbreviations=None
) -> Word:
    """Parse a word over the given generator alphabet (longest-match).

    `abbreviations` maps further names to the words they stand for, which
    are expanded as they are read.  A word of more than `max_letters` letters
    is an input error: each power is checked before it is expanded, and each
    (sub)word as its items are read, so no longer word is built; so is ( or [
    nested more than MAX_WORD_NESTING deep.  Exponents are ASCII digits, and
    the text `1` is the empty word, as `word_str` prints it.
    """
    abbreviations = abbreviations or {}
    names = tuple(generators) + tuple(abbreviations)
    if text.strip() == "1" and "1" not in names:
        return ()
    pos = 0
    n = len(text)

    def fail(what: str):
        raise InputError(f"{what} in {text!r}")

    def exponent(match, group: int) -> int:
        digits = match[group]
        if digits in ("", "+", "-"):
            fail(f"malformed exponent at position {match.start(group)}")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            fail(f"exponent too long at position {match.start(group)}")

    def sequence(stop: str, depth: int = 0) -> Word:
        """Items up to the end or `stop`, each letter free-reduced into one list."""
        nonlocal pos
        if depth > MAX_WORD_NESTING:
            fail(f"brackets nested more than {MAX_WORD_NESTING} deep at position {pos - 1}")
        item, upper = _lexer(names, stop)
        out: list[tuple[str, int]] = []
        letters = 0
        while True:
            if match := item(text, pos):
                pos = match.end()
                name, uname, digits = match.groups()
                k = 1 if digits is None else exponent(match, 3)
                if uname is not None:
                    name, k = upper[uname], -k
                if name in abbreviations:
                    atom = power(free_reduce(abbreviations[name]), k)
                    letters += word_length(atom)
                else:
                    atom = ((name, k),)
                    letters += abs(k)
            else:
                while pos < n and text[pos] in " \t":
                    pos += 1
                if pos >= n or text[pos] in stop:
                    return tuple(out)
                if text[pos] == "(":
                    pos += 1
                    inner = sequence(")", depth + 1)
                    if pos >= n:
                        fail("unbalanced parenthesis")
                elif text[pos] == "[":
                    pos += 1
                    u = sequence(",", depth + 1)
                    if pos >= n:
                        fail("commutator needs a comma")
                    pos += 1
                    v = sequence("]", depth + 1)
                    if pos >= n:
                        fail("unbalanced bracket")
                    inner = word_mul(u, v, word_inverse(u), word_inverse(v))
                else:
                    fail(f"unknown symbol at position {pos}")
                match = _POWER(text, pos + 1)
                pos = match.end()
                atom = inner if match[1] is None else power(inner, exponent(match, 1))
                letters += word_length(atom)
            if letters > max_letters:
                fail(f"word has more than {max_letters} letters")
            for sym, e in atom:
                if out and out[-1][0] == sym:
                    e += out.pop()[1]
                if e:
                    out.append((sym, e))

    def power(w: Word, k: int) -> Word:
        if word_length(w) * abs(k) > max_letters:
            fail(f"word has more than {max_letters} letters")
        return word_pow(w, k)

    return sequence("")


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    label: str
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise InputError(f"presentation {self.label} names a generator twice")
        for r in self.relators:
            for sym, _ in r:
                if sym not in declared:
                    raise InputError(f"relator uses undeclared generator {sym!r}")

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
    target: Presentation | None = None  # the group of the images; None: the source

    def __post_init__(self):
        if self.target is None:
            object.__setattr__(self, "target", self.source)

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
        g13_braid_presentation(),
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
    return GroupHom(f"ArtB{n}->Br{n+1}", p, images, braid_presentation(n + 1))


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
    The scans and definitions run inline in one loop: the subgroup words
    are scanned at coset 0 ahead of its relators, and a relator's forward
    walk that stops short resumes where it stopped.  The columns grow in
    blocks, doubling up to `limit` entries, so a definition is an append to
    p and two stores, and the budget is tested only when a block runs out.
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

    def grow(size: int) -> int:
        """Extend every column by min(size, limit - size) entries."""
        if size >= limit:
            raise BudgetExceededError(f"coset budget {limit} exceeded")
        block = [None] * min(size, limit - size)
        for col in T:
            col += block
        return size + len(block)

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

    rels = [lists(cols) for cols in rel_cols]
    words = [lists(cols) for cols in sub_cols] + rels
    size = 1  # the length of every column
    try:
        alpha = 0
        while alpha < len(p):
            if p[alpha] == alpha:
                for fw, bw in words:
                    f, i = alpha, 0
                    for col in fw:  # fast path: a word that already closes at alpha
                        beta = col[f]
                        if beta is None:
                            break
                        f = beta
                        i += 1
                    else:
                        if f == alpha:
                            continue
                    # resume at (f, i); a full pass (i past the end) meets b = alpha at once
                    b, j = alpha, len(fw) - 1
                    while True:
                        while j >= i and bw[j][b] is not None:
                            b = bw[j][b]
                            j -= 1
                        if j < i:
                            coincidence(f, b)
                            break
                        if j == i:
                            fw[i][f] = b
                            bw[i][b] = f
                            break
                        beta = len(p)
                        if beta == size:
                            size = grow(size)
                        p.append(beta)
                        fw[i][f] = beta
                        bw[i][beta] = f
                        while i <= j and fw[i][f] is not None:
                            f = fw[i][f]
                            i += 1
                        if i > j:
                            if f != b:
                                coincidence(f, b)
                            break
                    if p[alpha] != alpha:
                        break
                else:
                    for fwd, back in pairs:
                        if fwd[alpha] is None:
                            beta = len(p)
                            if beta == size:
                                size = grow(size)
                            p.append(beta)
                            fwd[alpha] = beta
                            back[beta] = alpha
            alpha += 1
            words = rels
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


def _images(points: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The images of a tuple of points under a permutation."""
    return _gather(perm, points)


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

    # a table of no points (a `table:FILE` of empty perms) has no entry to range-check
    if any(len(col) != n or n and (min(col) < 0 or max(col) >= n) for col in cols) or any(
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
    """A finite quotient Q: a label plus a complete coset table of a subgroup
    of order m (m = 1 for a table of the trivial subgroup or of any action
    on points), so `degree` = |Q|, m times the table's, needs no permutation.

    Every permutation handed out comes from `columns`, which follow from
    the table: a table from `todd_coxeter` passed `_validate_table` with
    the quotient's relators, and one from `permutation_table` has no
    relators to fail.  A quotient on a parabolic has the `base` the squeeze
    proved (see the module docstring): Q acts faithfully on the cosets,
    `columns` are the table's, and a subgroup H of Q acts freely on the
    orbit of the base.
    Any other quotient acts regularly on its elements, numbered over <g1>:
    `columns` builds that action on first use, a generator sending the point
    t*m + a = (t, a) to (t.x, a + 1), which every relator fixes since its
    exponent sum is 0 mod m, and H acts freely on the orbit of the point 0.
    Either way |H| is one orbit's size: never a listing.
    """

    label: str
    table: CosetTable
    m: int = 1
    base: tuple[int, ...] | None = field(default=None, init=False)
    exact = False  # a verification backend that gives evidence, not proof

    @property
    def presentation(self) -> Presentation:
        return self.table.presentation

    @property
    def degree(self) -> int:
        return self.m * self.table.degree

    @cached_property
    def columns(self) -> list[tuple[int, ...]]:
        """On a base, the table's columns.  Otherwise column 2g moves the
        residue by +1 and column 2g + 1 by -1; slices of one tuple of
        points, so every entry shares its int object."""
        if self.base is not None:
            return self.table.columns
        m = self.m
        points = tuple(range(self.degree))
        columns = []
        for c, col in enumerate(self.table.columns):
            step = -1 if c & 1 else 1
            residues = [_gather(points[(a + step) % m :: m], col) for a in range(m)]
            columns.append(tuple(chain.from_iterable(zip(*residues))))
        return columns

    @property
    def gen_perms(self) -> dict[str, tuple[int, ...]]:
        return dict(zip(self.presentation.generators, self.columns[::2]))

    def eval_word(self, w: Word) -> tuple[int, ...]:
        """The permutation alpha -> alpha . w.  A syllable g^e costs one
        composition for e = +-1 and O(log |e|) by repeated squaring."""
        perm = self.identity()
        for sym, exp in w:
            c = self.presentation.letter_columns.get((sym, 1 if exp > 0 else -1))
            if c is None:
                raise InputError(f"word uses {sym!r}, unknown in quotient {self.label}")
            perm = _gather(_perm_power(self.columns[c], abs(exp)), perm)
        return perm

    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree if self.base is None else self.table.degree))

    def order(self) -> int:
        """|Q| = `degree`: proved when the quotient was built, so no orbit runs."""
        return self.degree

    def subgroup_order(self, perms: list[tuple[int, ...]]) -> int:
        if self.base is None:
            return len(orbit(0, perms, lambda p, g: g[p]))
        return len(orbit(self.base, perms, _images))


def permutation_table(label: str, perms: dict[str, tuple[int, ...]]) -> CosetTable:
    """The complete table of permutations of range(degree), one per generator
    of a presentation with no relators: column 2g is the g-th permutation and
    column 2g + 1 its inverse.  The action need not be regular."""
    columns = []
    for perm in perms.values():
        inverse = [0] * len(perm)
        for i, v in enumerate(perm):
            inverse[v] = i
        columns += [perm, tuple(inverse)]
    return CosetTable(Presentation(label, tuple(perms), ()), (), columns, "complete", len(columns[0]))


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


def _power_presentation(pres: Presentation, label: str, k: int) -> Presentation:
    """pres/(g^k for every generator g)."""
    if k == 0:
        # g^0 is the empty relator: the quotient is pres itself, infinite here
        raise InputError(f"power quotient {label} needs an exponent k != 0")
    if abs(k) > MAX_WORD_LETTERS:
        # the relator g^k is a word of |k| letters
        raise InputError(f"power quotient {label} needs |k| <= {MAX_WORD_LETTERS}, got {k}")
    rel = pres.relators + tuple(word_pow(single(name), k) for name in pres.generators)
    return Presentation(label, pres.generators, rel)


def _complete_quotient(quot: Presentation, subgroup: list[Word], m: int, limit: int) -> PermQuotient:
    """quot enumerated over a subgroup H of order m; `limit` caps the cosets
    defined and the degree m [Q : H]."""
    table = todd_coxeter(quot, subgroup, limit)
    if table.status != "complete":
        raise BudgetExceededError(f"cannot build quotient {quot.label}: enumeration incomplete")
    q = PermQuotient(quot.label, table, m)
    if q.degree > limit:
        raise BudgetExceededError(
            f"cannot build quotient {quot.label}: {q.degree} points exceed the coset budget {limit}"
        )
    return q


def _power_quotient(quot: Presentation, k: int, limit: int) -> PermQuotient:
    """quot = pres/(g^k), acting regularly on its elements.

    The table is that of H = <g1> and |H| = m = |k| when every relator of
    quot has exponent sum 0 mod m (see the module docstring), else m = 1 and
    H is trivial.
    """
    m = abs(k)
    if not quot.generators or any(exponent_sum(r) % m for r in quot.relators):
        return _complete_quotient(quot, [], 1, limit)
    return _complete_quotient(quot, [single(quot.generators[0])], m, limit)


def _parabolic_quotient(quot: Presentation, parabolic: PermQuotient, limit: int) -> PermQuotient:
    """quot enumerated over the subgroup P that the parabolic's generators
    generate, with |P| = |parabolic| proved by the squeeze of the module
    docstring, which also gives the quotient its base."""
    pres = parabolic.presentation
    if not (set(pres.generators) <= set(quot.generators) and set(pres.relators) <= set(quot.relators)):
        raise RuntimeError(f"{parabolic.label} is not a quotient of a subgroup of {quot.label}")
    subgroup = [single(name) for name in pres.generators]
    q = _complete_quotient(quot, subgroup, parabolic.degree, limit)
    perms = [q.table.columns[q.table.column(name, 1)] for name in pres.generators]
    n, s = q.table.degree, 1
    while True:
        base = tuple(range(min(s, n)))
        try:
            count = len(orbit(base, perms, _images, parabolic.degree))
        except BudgetExceededError:
            break
        if count == parabolic.degree:
            q.base = base
            return q
        if s >= n:
            break
        s *= 2
    raise RuntimeError(f"cannot prove |P| = {parabolic.degree} for {quot.label} over {parabolic.label}")


def coxeter_quotient(n: int, k: int, limit: int = DEFAULT_COSET_BUDGET) -> PermQuotient:
    """Br_n/(s_i^k) if finite (see the module docstring): for n <= 3 acting
    regularly on its elements, for n >= 4 enumerated over <s1, ..., s(n-2)>,
    on Br_(n-1)/(s_i^k), and acting faithfully on those cosets."""
    quot = _power_presentation(braid_presentation(n), f"Br{n}/s^{k}", k)
    if 2 * (n + abs(k)) <= n * abs(k):
        raise BudgetExceededError(f"cannot build quotient {quot.label}: infinite, as 1/{n} + 1/{abs(k)} <= 1/2 (Coxeter)")
    if n <= 3:
        return _power_quotient(quot, k, limit)
    try:
        parabolic = coxeter_quotient(n - 1, k, limit)
    except BudgetExceededError:
        raise BudgetExceededError(f"cannot build quotient {quot.label}: enumeration incomplete") from None
    return _parabolic_quotient(quot, parabolic, limit)


def torsion_quotient(pres: Presentation, k: int, limit: int = DEFAULT_COSET_BUDGET) -> PermQuotient:
    """The quotient of pres by the k-th power of every generator."""
    return _power_quotient(_power_presentation(pres, f"{pres.label}+torsion", k), k, limit)


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

    With start = 0 this is subgroup membership plus the standard rewriting:
    each letter that is not a tree edge gives one Schreier generator.
    """
    table = data.table
    index = data.schreier_index
    letters = []
    alpha = start
    for sym, step in word_letters(w):
        col = table.column(sym, step)
        beta = table.columns[col][alpha]
        h = index.get((alpha, col) if step > 0 else (beta, col ^ 1))
        if h is not None:
            letters.append((data.names[h], step))
        alpha = beta
    return free_reduce(letters) if alpha == start else None


# ---------------------------------------------------------------------------
# JSON


def presentation_from_json(data: dict) -> Presentation:
    try:
        gens = tuple(str(g) for g in data["generators"])
        relators = tuple(parse_word(r, gens) for r in data["relators"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed presentation encoding: {exc}") from exc
    return Presentation(str(data.get("label", "anonymous")), gens, relators)
