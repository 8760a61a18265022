"""Garside normal forms for spherical Artin groups of types A, B, D and I2(m).

Elements are kept as Delta^k * f1 ... fl with simples f_i in the underlying
Coxeter group W (never identity or the longest element w0) satisfying the
left-greedy condition: every left descent of f_(i+1) is a right descent of
f_i.  Equal group elements have identical normal forms, which gives an exact
word problem.

W is realized concretely per family: permutations for A, signed permutations
for B, even-signed permutations for D (generators named s1, s1p, s2, ...),
and rotation/reflection pairs for I2(m) (generators a, b).  Lengths use the
classical combinatorial formulas; descents are length drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .fpgroups import Word, single, word_letters, word_mul

# ---------------------------------------------------------------------------
# concrete Coxeter group models
#
# A permutation w is a tuple (w(0),...,w(n-1)); signed permutations map
# 1..n to +-1..+-n stored as (w(1),...,w(n)); composition is (u*v)(i) = u(v(i)).


class _PermModel:
    """Symmetric group S_(rank+1); generators s1..s(rank) swap positions."""

    def __init__(self, rank: int):
        self.n = rank + 1
        self.gen_names = [f"s{i}" for i in range(1, rank + 1)]

    def one(self):
        return tuple(range(self.n))

    def generator(self, idx: int):
        w = list(range(self.n))
        w[idx], w[idx + 1] = w[idx + 1], w[idx]
        return tuple(w)

    def mul(self, u, v):
        return tuple(u[v[i]] for i in range(self.n))

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u):
            out[x] = i
        return tuple(out)

    def length(self, u) -> int:
        return sum(
            1 for i in range(self.n) for j in range(i + 1, self.n) if u[i] > u[j]
        )

    def longest(self):
        return tuple(reversed(range(self.n)))


class _SignedModel:
    """Hyperoctahedral group B_rank; generator 0 flips the first coordinate."""

    def __init__(self, rank: int, gen_names: list[str]):
        self.n = rank
        self.gen_names = gen_names

    def one(self):
        return tuple(range(1, self.n + 1))

    def generator(self, idx: int):
        w = list(range(1, self.n + 1))
        if idx == 0:
            w[0] = -1
        else:
            w[idx - 1], w[idx] = w[idx], w[idx - 1]
        return tuple(w)

    def _apply(self, u, value: int) -> int:
        return u[value - 1] if value > 0 else -u[-value - 1]

    def mul(self, u, v):
        return tuple(self._apply(u, v[i]) for i in range(self.n))

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u):
            if x > 0:
                out[x - 1] = i + 1
            else:
                out[-x - 1] = -(i + 1)
        return tuple(out)

    def length(self, u) -> int:
        inv = sum(
            1 for i in range(self.n) for j in range(i + 1, self.n) if u[i] > u[j]
        )
        neg = sum(-x for x in u if x < 0)
        return inv + neg

    def longest(self):
        return tuple(-i for i in range(1, self.n + 1))


class _EvenSignedModel:
    """Type D_rank: even-signed permutations; s1p is the negative transposition."""

    def __init__(self, rank: int):
        self.n = rank
        self.gen_names = ["s1", "s1p"] + [f"s{i}" for i in range(2, rank)]

    def one(self):
        return tuple(range(1, self.n + 1))

    def generator(self, idx: int):
        w = list(range(1, self.n + 1))
        if idx == 0:  # s1: swap 1,2
            w[0], w[1] = w[1], w[0]
        elif idx == 1:  # s1p: e1 -> -e2, e2 -> -e1
            w[0], w[1] = -w[1], -w[0]
        else:  # s_i (catalog index idx >= 2) swaps positions idx, idx+1 (1-based)
            w[idx - 1], w[idx] = w[idx], w[idx - 1]
        return tuple(w)

    def _apply(self, u, value: int) -> int:
        return u[value - 1] if value > 0 else -u[-value - 1]

    def mul(self, u, v):
        return tuple(self._apply(u, v[i]) for i in range(self.n))

    def inv(self, u):
        out = [0] * self.n
        for i, x in enumerate(u):
            if x > 0:
                out[x - 1] = i + 1
            else:
                out[-x - 1] = -(i + 1)
        return tuple(out)

    def length(self, u) -> int:
        inv = sum(
            1 for i in range(self.n) for j in range(i + 1, self.n) if u[i] > u[j]
        )
        nsp = sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if u[i] + u[j] < 0
        )
        return inv + nsp

    def longest(self):
        if self.n % 2 == 0:
            return tuple(-i for i in range(1, self.n + 1))
        return (1,) + tuple(-i for i in range(2, self.n + 1))


class _DihedralModel:
    """I2(m): elements (k, eps) = rho^k sigma^eps with a = sigma, b = rho sigma."""

    def __init__(self, m: int):
        self.m = m
        self.gen_names = ["a", "b"]

    def one(self):
        return (0, 0)

    def generator(self, idx: int):
        return (0, 1) if idx == 0 else (1, 1)

    def mul(self, u, v):
        k1, e1 = u
        k2, e2 = v
        # (rho^k1 sigma^e1)(rho^k2 sigma^e2): sigma rho^k = rho^-k sigma
        k = (k1 + (k2 if e1 == 0 else -k2)) % self.m
        return (k, (e1 + e2) % 2)

    def inv(self, u):
        k, e = u
        return ((-k) % self.m, 0) if e == 0 else (k, 1)

    def length(self, u) -> int:
        k, e = u
        if e == 0:
            return 2 * min(k, self.m - k)
        # rho^k sigma = a (ba)^j with j = -k mod m, or b (ab)^j with j = k-1 mod m
        return min(2 * ((-k) % self.m) + 1, 2 * ((k - 1) % self.m) + 1)

    def longest(self):
        # the unique element of length m
        for k in range(self.m):
            for e in (0, 1):
                if self.length((k, e)) == self.m:
                    return (k, e)
        raise RuntimeError("dihedral longest element not found")


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
    text = text.strip()
    if text.upper().startswith("I2"):
        digits = "".join(ch for ch in text[2:] if ch.isdigit())
        if not digits:
            raise InputError(f"cannot parse dihedral type from {text!r}")
        return CoxeterType("I2", int(digits))
    fam = text[0].upper()
    try:
        return CoxeterType(fam, int(text[1:]))
    except ValueError as exc:
        raise InputError(f"cannot parse Coxeter type from {text!r}") from exc


@lru_cache(maxsize=None)
def _model(t: CoxeterType):
    if t.family == "A":
        return _PermModel(t.rank)
    if t.family == "B":
        # catalog naming t, s2..sn used by the Artin B_n presentation
        return _SignedModel(t.rank, ["t"] + [f"s{i}" for i in range(2, t.rank + 1)])
    if t.family == "D":
        return _EvenSignedModel(t.rank)
    return _DihedralModel(t.rank)


@dataclass(frozen=True)
class GarsideNF:
    ctype: CoxeterType
    delta_power: int
    factors: tuple  # tuple of W elements, none identity or w0

    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.factors


class GarsideContext:
    """Normal-form arithmetic for one Coxeter type."""

    def __init__(self, t: CoxeterType):
        self.type = t
        self.model = _model(t)
        self.gens = {
            name: self.model.generator(i) for i, name in enumerate(self.model.gen_names)
        }
        self.gen_list = list(self.model.gen_names)
        self.one = self.model.one()
        self.w0 = self.model.longest()
        self.w0_inv = self.model.inv(self.w0)
        lw0 = self.model.length(self.w0)
        if any(
            self.model.length(self.model.mul(self.w0, g)) != lw0 - 1
            for g in self.gens.values()
        ):
            raise RuntimeError("longest element is not maximal; model broken")

    # -- W utilities ----------------------------------------------------------

    def left_descents(self, w) -> list[str]:
        lw = self.model.length(w)
        return [
            name
            for name in self.gen_list
            if self.model.length(self.model.mul(self.gens[name], w)) < lw
        ]

    def right_descents(self, w) -> list[str]:
        lw = self.model.length(w)
        return [
            name
            for name in self.gen_list
            if self.model.length(self.model.mul(w, self.gens[name])) < lw
        ]

    def tau(self, w):
        """Delta^-1 w Delta."""
        return self.model.mul(self.model.mul(self.w0_inv, w), self.w0)

    def tau_pow(self, w, k: int):
        # tau has order dividing 2 (w0^2 = 1 in W)
        return self.tau(w) if k % 2 else w

    # -- normal form ----------------------------------------------------------

    def _local(self, a, b):
        """Left-greedy normalization of the pair (a, b), product preserved."""
        m = self.model
        la, lb = m.length(a), m.length(b)
        moved = True
        while moved:
            moved = False
            for name in self.gen_list:
                g = self.gens[name]
                if m.length(m.mul(g, b)) < lb and m.length(m.mul(a, g)) > la:
                    a = m.mul(a, g)
                    b = m.mul(g, b)
                    la += 1
                    lb -= 1
                    moved = True
        return a, b

    def _normalize_factors(self, factors: list) -> tuple[int, tuple]:
        m = self.model
        factors = [f for f in factors if f != self.one]
        changed = True
        while changed:
            changed = False
            i = 0
            while i < len(factors) - 1:
                a, b = self._local(factors[i], factors[i + 1])
                if (a, b) != (factors[i], factors[i + 1]):
                    changed = True
                    factors[i] = a
                    if b == self.one:
                        del factors[i + 1]
                        i = max(i - 1, 0)
                        continue
                    factors[i + 1] = b
                i += 1
        delta_power = 0
        while factors and factors[0] == self.w0:
            factors.pop(0)
            delta_power += 1
        assert all(f != self.one and f != self.w0 for f in factors)
        return delta_power, tuple(factors)

    def nf_mul(self, x: GarsideNF, y: GarsideNF) -> GarsideNF:
        d = x.delta_power + y.delta_power
        shifted = [self.tau_pow(f, y.delta_power) for f in x.factors]
        extra, factors = self._normalize_factors(list(shifted) + list(y.factors))
        return GarsideNF(self.type, d + extra, factors)

    def nf_of_letter(self, name: str, sign: int) -> GarsideNF:
        if name not in self.gens:
            raise InputError(f"generator {name!r} is not in type {self.type}")
        g = self.gens[name]
        if sign > 0:
            return GarsideNF(self.type, 0, (g,))
        # g^-1 = Delta^-1 * (Delta g^-1), and Delta g^-1 is a simple
        comp = self.model.mul(self.w0, self.model.inv(g))
        return GarsideNF(self.type, -1, (comp,))

    def normal_form(self, w: Word) -> GarsideNF:
        nf = GarsideNF(self.type, 0, ())
        for sym, step in word_letters(w):
            nf = self.nf_mul(nf, self.nf_of_letter(sym, step))
        return nf

    def nf_inverse(self, x: GarsideNF) -> GarsideNF:
        inv = GarsideNF(self.type, 0, ())
        for f in reversed(x.factors):
            comp = self.model.mul(self.w0, self.model.inv(f))
            inv = self.nf_mul(inv, GarsideNF(self.type, -1, (comp,)))
        return self.nf_mul(inv, GarsideNF(self.type, -x.delta_power, ()))

    # -- queries ----------------------------------------------------------------

    def equal(self, u: Word, v: Word) -> bool:
        return self.normal_form(u) == self.normal_form(v)

    def commutes(self, u: Word, v: Word) -> bool:
        return self.equal(word_mul(u, v), word_mul(v, u))

    def is_central(self, u: Word) -> bool:
        return all(self.commutes(u, single(name)) for name in self.gen_list)

    def delta_word(self) -> Word:
        """A fixed reduced expression for Delta (smallest-generator-first)."""
        letters = []
        w = self.w0
        while w != self.one:
            name = self.left_descents(w)[0]
            letters.append((name, 1))
            w = self.model.mul(self.gens[name], w)
        return tuple(letters)

    def word_of_simple(self, f) -> Word:
        letters = []
        w = f
        while w != self.one:
            name = self.left_descents(w)[0]
            letters.append((name, 1))
            w = self.model.mul(self.gens[name], w)
        return tuple(letters)

    def image_in_w(self, u: Word):
        """The image of the word in the finite Coxeter group W."""
        w = self.one
        for sym, step in word_letters(u):
            g = self.gens[sym]
            w = self.model.mul(w, g if step > 0 else self.model.inv(g))
        return w

    def conjugation_by_delta(self) -> dict[str, str | None]:
        """Generator images of g -> Delta g Delta^-1, named when again generators."""
        out: dict[str, str | None] = {}
        for name in self.gen_list:
            img = self.model.mul(self.model.mul(self.w0, self.gens[name]), self.w0_inv)
            match = next((k for k, v in self.gens.items() if v == img), None)
            out[name] = match
        return out


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
