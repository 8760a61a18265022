"""Garside normal forms for spherical Artin groups of types A, B, D and I2(m).

Elements are kept as Delta^k * f1 ... fl with simples f_i in the underlying
Coxeter group W (never identity or the longest element w0) satisfying the
left-greedy condition: every left descent of f_(i+1) is a right descent of
f_i.  Equal group elements have identical normal forms, which gives an exact
word problem.

W is realized concretely per family: permutations for A, signed permutations
for B and D (type D generators named s1, s1p, s2, ...), and
rotation/reflection pairs for I2(m) (generators a, b).  Descents are read off
an element's entries, one in O(1).  A word is read in runs of letters whose
product is a simple, and each run costs one right-to-left sweep (Epstein et
al., *Word Processing in Groups*, ch. 9; Charney, Math. Ann. 292, 1992).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .fpgroups import Word, single, word_letters, word_mul

# Bounds on the input of the garside commands (exit 3 beyond them; library
# callers are not bounded).  A word of L letters in rank n can cost about
# L^2 n^3 steps, as every letter may re-weight every factor: at these bounds
# the slowest words found, such as (s3 s9^-1)^100 in B10, take 0.5-0.9 s
# (2-vCPU VM, CPython 3.11).
# Criterion 5 works in D9.
MAX_RANK = 10  # the rank of types A, B and D
MAX_LETTERS = 200  # letters of a word, and m of I2(m), whose Delta has m letters


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# concrete Coxeter group models
#
# A permutation w is a tuple (w(0),...,w(n-1)); signed permutations map
# 1..n to +-1..+-n stored as (w(1),...,w(n)); composition is (u*v)(i) = u(v(i)).
# Every model has move(w, i), which turns the list w into w * (generator i)
# in place, acting on positions, right_descents(w), the bitmask of the
# generators i with l(w * i) < l(w), and descent(w, i), its bit i; these read
# a list or a tuple alike.


class _Model:
    def rmul(self, w, i: int) -> tuple:
        """w * (generator i) as a new tuple."""
        w = list(w)
        self.move(w, i)
        return tuple(w)


class _PermModel(_Model):
    """Symmetric group S_(rank+1); generator i swaps positions i, i+1."""

    def __init__(self, rank: int):
        self.n = rank + 1
        self.gen_names = [f"s{i}" for i in range(1, rank + 1)]

    def one(self):
        return tuple(range(self.n))

    def move(self, w: list, i: int) -> None:
        w[i], w[i + 1] = w[i + 1], w[i]

    def descent(self, w, i: int) -> bool:
        return w[i] > w[i + 1]

    def right_descents(self, w) -> int:
        mask = 0
        for i in range(self.n - 1):
            if w[i] > w[i + 1]:
                mask |= 1 << i
        return mask

    def mul(self, u, v):
        return tuple(map(u.__getitem__, v))

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u):
            out[x] = i
        return tuple(out)

    def longest(self):
        return tuple(reversed(range(self.n)))


class _SignedModel(_Model):
    """Signed permutations: B_rank, or the even-signed D_rank.  In B,
    generator 0 (t) negates the first entry; in D, generator 0 (s1) swaps the
    first two entries and generator 1 (s1p) swaps and negates them.  Every
    later generator i swaps the entries at positions i-1, i."""

    def __init__(self, rank: int, family: str):
        self.n = rank
        self.even = family == "D"
        if self.even:
            self.gen_names = ["s1", "s1p"] + [f"s{i}" for i in range(2, rank)]
        else:
            # catalog naming t, s2..sn used by the Artin B_n presentation
            self.gen_names = ["t"] + [f"s{i}" for i in range(2, rank + 1)]
        self.first_swap = 2 if self.even else 1

    def one(self):
        return tuple(range(1, self.n + 1))

    def move(self, w: list, i: int) -> None:
        if i >= self.first_swap:
            w[i - 1], w[i] = w[i], w[i - 1]
        elif not self.even:
            w[0] = -w[0]
        elif i == 0:
            w[0], w[1] = w[1], w[0]
        else:
            w[0], w[1] = -w[1], -w[0]

    def descent(self, w, i: int) -> bool:
        if i >= self.first_swap:
            return w[i - 1] > w[i]
        return (w[0] > w[1] if i == 0 else w[0] + w[1] < 0) if self.even else w[0] < 0

    def right_descents(self, w) -> int:
        if self.even:
            mask = (w[0] > w[1]) | (w[0] + w[1] < 0) << 1
        else:
            mask = int(w[0] < 0)
        for i in range(self.first_swap, len(self.gen_names)):
            if w[i - 1] > w[i]:
                mask |= 1 << i
        return mask

    def mul(self, u, v):
        # index x of ext is u(x) for x in -n..n (negative indices wrap)
        ext = (0,) + u + tuple(-x for x in reversed(u))
        return tuple(map(ext.__getitem__, v))

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u, 1):
            out[abs(x) - 1] = i if x > 0 else -i
        return tuple(out)

    def longest(self):
        if self.even and self.n % 2:
            return (1,) + tuple(-i for i in range(2, self.n + 1))
        return tuple(-i for i in range(1, self.n + 1))


class _DihedralModel(_Model):
    """I2(m): elements (k, eps) = rho^k sigma^eps with a = sigma, b = rho sigma."""

    def __init__(self, m: int):
        self.m = m
        self.gen_names = ["a", "b"]

    def one(self):
        return (0, 0)

    def move(self, w: list, i: int) -> None:
        # rho^k sigma^e (rho^i sigma) = rho^(k +- i) sigma^(e+1)
        w[0] = (w[0] - i if w[1] else w[0] + i) % self.m
        w[1] ^= 1

    def descent(self, w, i: int) -> bool:
        return self.right_descents(w) >> i & 1 == 1

    def right_descents(self, w) -> int:
        k, e = w
        m = self.m
        if e == 0:
            # rho^k = (ba)^k = (ab)^(m-k): ends in a if 2k <= m, in b if 2k >= m
            return 0 if k == 0 else (2 * k <= m) | (2 * k >= m) << 1
        # rho^k sigma = a (ba)^j with j = -k mod m, or b (ab)^j with j = k-1
        # mod m; such a word is reduced iff 2j + 1 <= m
        return (2 * (-k % m) < m) | (2 * ((k - 1) % m) < m) << 1

    def mul(self, u, v):
        k1, e1 = u
        k2, e2 = v
        # (rho^k1 sigma^e1)(rho^k2 sigma^e2): sigma rho^k = rho^-k sigma
        k = (k1 + (k2 if e1 == 0 else -k2)) % self.m
        return (k, (e1 + e2) % 2)

    def inv(self, u):
        k, e = u
        return ((-k) % self.m, 0) if e == 0 else (k, 1)

    def longest(self):
        # the unique element of length m
        m = self.m
        return (m // 2, 0) if m % 2 == 0 else ((m + 1) // 2, 1)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterType:
    family: str  # "A" | "B" | "D" | "I2"
    rank: int  # rank for A/B/D; m for I2

    def __post_init__(self):
        if self.family not in ("A", "B", "D", "I2"):
            raise InputError(f"unknown Coxeter family {self.family!r}")
        if self.family == "I2" and self.rank < 3:
            raise InputError("I2(m) needs m >= 3")
        if self.family in ("A", "B") and self.rank < 1:
            raise InputError("rank must be >= 1")
        if self.family == "D" and self.rank < 2:
            raise InputError("type D needs rank >= 2")

    def __str__(self):
        return f"I2({self.rank})" if self.family == "I2" else f"{self.family}{self.rank}"


def parse_type(text: str) -> CoxeterType:
    """`A|B|D<rank>` or `I2(<m>)` in ASCII digits, the letters in either case."""
    match = re.fullmatch(r"([ABD])([0-9]+)|I2\(([0-9]+)\)", text.strip(), re.IGNORECASE | re.ASCII)
    try:
        rank = int(match[2] or match[3])
    except (TypeError, ValueError):  # no match, or more digits than int() reads
        raise InputError(f"cannot parse Coxeter type from {text!r}") from None
    return CoxeterType(match[1].upper() if match[1] else "I2", rank)


@lru_cache(maxsize=None)
def _model(t: CoxeterType):
    if t.family == "A":
        return _PermModel(t.rank)
    if t.family in ("B", "D"):
        return _SignedModel(t.rank, t.family)
    return _DihedralModel(t.rank)


@dataclass(frozen=True)
class GarsideNF:
    ctype: CoxeterType
    delta_power: int
    factors: tuple  # tuple of W elements, none identity or w0

    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.factors


class GarsideContext:
    """Normal-form arithmetic for one Coxeter type.

    Also a verification backend for `fpgroups.verify_hom`: normal forms
    decide equality in the Artin group, so its verdicts are exact.
    """

    exact = True

    def __init__(self, t: CoxeterType):
        self.type = t
        self.label = f"garside:{t}"
        m = self.model = _model(t)
        self.gen_list = list(m.gen_names)
        self.one = m.one()
        self.gens = {name: m.rmul(self.one, i) for i, name in enumerate(self.gen_list)}
        self.w0 = m.longest()  # an involution: the one element with every right descent
        if m.right_descents(self.w0) != (1 << len(self.gen_list)) - 1:
            raise RuntimeError("longest element is not maximal; model broken")
        # each generator's neighbours in the Coxeter graph: those it does not commute with
        gens = list(self.gens.values())
        self.neighbours = [[j for j, h in enumerate(gens) if m.mul(g, h) != m.mul(h, g)] for g in gens]
        # letter s in the frame tau^p (see normal_form): the index of
        # tau^p(s), and the simples tau^p(s) and tau^p(Delta s^-1) = tau^p(w0 s)
        index = {g: i for i, g in enumerate(gens)}
        self._frame = {}
        for name, g in self.gens.items():
            for p, h in ((0, g), (1, self.tau(g))):
                self._frame[p, name] = (index[h], h, m.mul(self.w0, h))

    # -- W utilities ----------------------------------------------------------

    def tau(self, w):
        """Delta^-1 w Delta."""
        return self.model.mul(self.model.mul(self.w0, w), self.w0)

    def tau_pow(self, w, k: int):
        # tau has order dividing 2 (w0^2 = 1 in W)
        return self.tau(w) if k % 2 else w

    # -- normal form ----------------------------------------------------------

    def _local(self, a, b):
        """The left-weighted pair with product a*b.

        Moves the letters of L(b) \\ R(a) from b to a until there are none.
        The left-weighted pair is unique, so the order of the moves does not
        matter.  b is kept inverted: L(b) = R(b^-1), and s b = (b^-1 s)^-1,
        so every move acts on positions, in place on two lists that become
        tuples again at the end.  A move by s_i flips bit i of both
        masks; a bit j with s_j s_i = s_i s_j stays, as <s_i, s_j> = Z/2 x Z/2,
        so only i's neighbours are read again.  A pair that is already
        left-weighted comes back as the same two objects.
        """
        m = self.model
        bi = m.inv(b)
        ra, rb = m.right_descents(a), m.right_descents(bi)
        moves = rb & ~ra
        if not moves:
            return a, b
        a, bi = list(a), list(bi)
        move, descent, neighbours = m.move, m.descent, self.neighbours
        while moves:
            bit = moves & -moves
            i = bit.bit_length() - 1
            move(a, i)
            move(bi, i)
            ra, rb = ra | bit, rb & ~bit
            for j in neighbours[i]:
                ra = ra & ~(1 << j) | descent(a, j) << j
                rb = rb & ~(1 << j) | descent(bi, j) << j
            moves = rb & ~ra
        return tuple(a), m.inv(bi)

    def _push(self, factors: list, c) -> int:
        """Right-multiply the left-weighted, Delta-free list `factors` by the
        simple c in one sweep from the right end, which stops at the first
        pair that does not change and drops factors that become 1.  A factor
        that becomes w0 leaves, as F1 Delta F2 = Delta tau(F1 tau(F2)): the
        list keeps F1 tau(F2) and 1 is returned (one more Delta, one more
        twist of the caller's frame), else 0."""
        factors.append(c)
        i = len(factors) - 1
        while factors[i] != self.w0:
            if i == 0:
                return 0
            a, b = self._local(factors[i - 1], factors[i])
            if a is factors[i - 1]:
                return 0
            factors[i - 1] = a
            if b == self.one:
                del factors[i]
            else:
                factors[i] = b
            i -= 1
        del factors[i]
        factors[i:] = [self.tau(f) for f in factors[i:]]
        return 1

    def _nf(self, d: int, odd: int, factors: list) -> GarsideNF:
        """The normal form Delta^d tau^odd(factors)."""
        return GarsideNF(self.type, d, tuple(self.tau_pow(f, odd) for f in factors))

    def nf_mul(self, x: GarsideNF, y: GarsideNF) -> GarsideNF:
        # Delta^p F Delta^q G = Delta^(p+q) tau^q(F G'), G' = tau^q(G)
        d, odd = x.delta_power + y.delta_power, y.delta_power % 2
        factors = list(x.factors)
        for c in y.factors:
            gained = self._push(factors, self.tau_pow(c, odd))
            d += gained
            odd ^= gained
        return self._nf(d, odd, factors)

    def normal_form(self, w: Word) -> GarsideNF:
        """The normal form of a word, one run of letters at a time.

        The running value is Delta^d tau^odd(F p), F left-weighted and p the
        pending simple, so a letter s acts as s' = tau^odd(s): s extends p if
        s' is not in R(p), s^-1 shortens p if s' is in R(p), and any other
        letter first pushes p onto F.  Then s starts the next p; s^-1 only
        shortens F's last factor f to f s' if s' is in R(f), and else twists
        the frame (s^-1 = Delta^-1 (w0 s), F Delta^-1 = Delta^-1 tau(F)) and
        starts the next p with w0 s'.
        """
        m, one = self.model, self.one
        d, odd, factors, p = 0, 0, [], one
        for sym, step in word_letters(w):
            if (odd, sym) not in self._frame:
                raise InputError(f"generator {sym!r} is not in type {self.type}")
            j = self._frame[odd, sym][0]
            if m.descent(p, j) == (step < 0):
                p = m.rmul(p, j)
                continue
            if p != one:
                gained = self._push(factors, p)
                d, odd = d + gained, odd ^ gained
            j, p, _ = self._frame[odd, sym]
            if step > 0:
                continue
            if factors and m.descent(factors[-1], j):
                f = m.rmul(factors[-1], j)
                if f == one:
                    factors.pop()
                else:
                    factors[-1] = f
                p = one
            else:
                d, odd = d - 1, odd ^ 1
                p = self._frame[odd, sym][2]  # 1 in rank 1, where s = w0
        if p != one:
            gained = self._push(factors, p)
            d, odd = d + gained, odd ^ gained
        return self._nf(d, odd, factors)

    def identity(self) -> GarsideNF:
        return GarsideNF(self.type, 0, ())

    def eval_word(self, w: Word) -> GarsideNF:
        return self.normal_form(w)

    # -- queries ----------------------------------------------------------------

    def equal(self, u: Word, v: Word) -> bool:
        return self.normal_form(u) == self.normal_form(v)

    def commutes(self, u: Word, v: Word) -> bool:
        x, y = self.normal_form(u), self.normal_form(v)
        return self.nf_mul(x, y) == self.nf_mul(y, x)

    def is_central(self, u: Word) -> bool:
        x = self.normal_form(u)
        gens = (self.normal_form(single(name)) for name in self.gen_list)
        return all(self.nf_mul(x, y) == self.nf_mul(y, x) for y in gens)

    def delta_word(self) -> Word:
        """A fixed reduced expression for Delta (smallest-generator-first)."""
        return self.word_of_simple(self.w0)

    def word_of_simple(self, f) -> Word:
        """The reduced word of f that strips the smallest left descent first."""
        m = self.model
        letters = []
        fi = list(m.inv(f))  # stripping s from the left of f is fi * s
        while mask := m.right_descents(fi):
            i = _lowest(mask)
            letters.append((self.gen_list[i], 1))
            m.move(fi, i)
        return tuple(letters)

    def image_in_w(self, u: Word):
        """The image of the word in the finite Coxeter group W."""
        w = self.one
        for sym, step in word_letters(u):
            g = self.gens[sym]
            w = self.model.mul(w, g if step > 0 else self.model.inv(g))
        return w

    def reflection_counts(self, u: Word) -> dict:
        """Signed crossings of the word with each reflecting hyperplane, keyed
        by the reflection of W: a letter s^+-1 read after a prefix with image
        p crosses the wall of p s p^-1, and counts +-1 there.

        On a pure braid (image 1) each count is twice its linking number with
        that hyperplane.  H_1 of the hyperplane complement is free abelian on
        the hyperplanes (Brieskorn, Sem. Bourbaki 401, 1971; Orlik and Terao,
        *Arrangements of Hyperplanes*, 1992, ch. 5), so a word of the pure
        braid group P lies in [P, P] iff every count is 0.
        """
        m = self.model
        counts: dict = {}
        p = self.one
        for sym, step in word_letters(u):
            s = self.gens[sym]
            r = m.mul(m.mul(p, s), m.inv(p))
            counts[r] = counts.get(r, 0) + step
            p = m.mul(p, s)
        return counts


@lru_cache(maxsize=None)
def context(t: CoxeterType) -> GarsideContext:
    return GarsideContext(t)


# ---------------------------------------------------------------------------
# type-D catalog words


def w_word(r: int) -> Word:
    """w_r = s1 s1p s2 ... s_r (needs type D_(r+1) or larger)."""
    if r < 2:
        raise InputError("w_r needs r >= 2")
    return word_mul(
        single("s1"), single("s1p"), *[single(f"s{i}") for i in range(2, r + 1)]
    )


def eta_word(r: int) -> Word:
    """eta_r = s_(r-1) ... s2 s1 s1p s2 ... s_(r-1)."""
    if r < 2:
        raise InputError("eta_r needs r >= 2")
    down = [single(f"s{i}") for i in range(r - 1, 1, -1)]
    up = [single(f"s{i}") for i in range(2, r)]
    return word_mul(*down, single("s1"), single("s1p"), *up)


# ---------------------------------------------------------------------------
# serialization: {"delta_power": k, "factors": [[gen names], ...]}


def nf_to_json(ctx: GarsideContext, nf: GarsideNF) -> dict:
    return {
        "type": str(nf.ctype),
        "delta_power": nf.delta_power,
        "factors": [[s for s, _ in ctx.word_of_simple(f)] for f in nf.factors],
    }
