"""Independent expected values for the benchmark's jobs.

Nothing here imports reflbench: every value is a closed formula from the
literature or a small computation written from scratch, so a wrong answer
from the library cannot also make its own check pass.
"""

from __future__ import annotations

import cmath
from math import comb, factorial, gcd

# ---------------------------------------------------------------------------
# monomial groups G(d,e,n): n x n monomial matrices over mu_d whose entry
# product lies in mu_(d/e)


def monomial_order(d: int, e: int, n: int) -> int:
    return d**n * factorial(n) // e


def monomial_reflections(d: int, e: int, n: int) -> int:
    # d*C(n,2) order-2 reflections x_i <-> zeta x_j, plus d/e - 1 diagonal
    # reflections per coordinate
    return d * comb(n, 2) + n * (d // e - 1)


def monomial_hyperplanes(d: int, e: int, n: int) -> int:
    return d * comb(n, 2) + (n if d // e > 1 else 0)


def monomial_degrees(d: int, e: int, n: int) -> list[int]:
    """Degrees of the basic invariants: d, 2d, ..., (n-1)d and nd/e."""
    return sorted([k * d for k in range(1, n)] + [n * d // e])


def monomial_center(d: int, e: int, n: int) -> int:
    """Scalars zeta_d^k with e | kn; valid for the irreducible groups used here."""
    return d * gcd(n, e) // e


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _cyclotomic_field(m: int) -> dict:
    m = m // 2 if m % 4 == 2 else m
    if m <= 2:
        return {"conductor": 1, "fixing_subgroup": [1], "degree": 1}
    return {"conductor": m, "fixing_subgroup": [1], "degree": euler_phi(m)}


def _real_subfield(m: int) -> dict:
    m = m // 2 if m % 4 == 2 else m
    if euler_phi(m) <= 2:
        return {"conductor": 1, "fixing_subgroup": [1], "degree": 1}
    return {"conductor": m, "fixing_subgroup": [1, m - 1], "degree": euler_phi(m) // 2}


def monomial_field_of_definition(d: int, e: int, n: int) -> dict:
    """Q(zeta_d), except the dihedral G(d,d,2), whose traces span Q(zeta_d)^+.

    Not valid for G(d,e,2) with 1 < e < d, which the workloads do not use.
    """
    if n == 2 and e == d:
        return _real_subfield(d)
    return _cyclotomic_field(d)


CATALOG = {
    "G4": {
        "order": 24,
        "reflections": 8,
        "hyperplanes": 4,
        "degrees": [4, 6],
        "center": 2,
        "field": {"conductor": 3, "fixing_subgroup": [1], "degree": 2},
        "e_H": [3],
    },
    "S3_paper": {
        "order": 6,
        "reflections": 3,
        "hyperplanes": 3,
        "degrees": [2, 3],
        "center": 1,
        "field": {"conductor": 1, "fixing_subgroup": [1], "degree": 1},
        "e_H": [2],
    },
}

# ---------------------------------------------------------------------------
# reflection arrangements of G(d,e,n)


def monomial_exponents(d: int, e: int, n: int) -> list[int]:
    """Orlik-Solomon exponents: the characteristic polynomial is prod (t - b_i)."""
    if e < d:
        return [1] + [k * d + 1 for k in range(1, n)]
    return [1] + [k * d + 1 for k in range(1, n - 1)] + [(n - 1) * (d - 1)]


def monomial_supersolvable(d: int, e: int, n: int) -> bool:
    """Rank <= 2, type A, and G(d,e,n) with e < d are supersolvable; of the
    G(d,d,n) with n >= 3 only D3 = A3 is."""
    if n <= 2 or d == 1 or e < d:
        return True
    return d == 2 and n == 3


def char_poly_from_exponents(exponents: list[int]) -> list[int]:
    """Coefficients of prod (t - b_i), constant term first."""
    poly = [1]
    for b in exponents:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= b * c
        poly = nxt
    return poly


def char_poly_from_flats(dim: int, flats: list[tuple[frozenset, int]]) -> list[int]:
    """sum over flats X of mu(0, X) t^(dim - rank X), by the Moebius recursion."""
    ordered = sorted(flats, key=lambda f: f[1])
    mu: list[int] = []
    for i, (hs, _) in enumerate(ordered):
        below = sum(mu[j] for j in range(i) if ordered[j][0] < hs)
        mu.append(1 if not hs else -below)
    poly = [0] * (dim + 1)
    for (_, rank), m in zip(ordered, mu):
        poly[dim - rank] += m
    return poly


def cyclotomic_poly(n: int) -> list[int]:
    """Phi_n, constant term first: (x^n - 1) divided by Phi_d for d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            quot = [0] * (len(num) - len(den) + 1)
            for k in range(len(quot) - 1, -1, -1):
                c = num[k + len(den) - 1]
                quot[k] = c
                for i, dc in enumerate(den):
                    num[k + i] -= c * dc
            num = quot
    return num


def root_of_unity_coeffs(n: int, k: int) -> list[int]:
    """zeta_n^k over the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n)."""
    phi_n = cyclotomic_poly(n)
    deg = len(phi_n) - 1
    vec = [0] * max(deg, (k % n) + 1)
    vec[k % n] = 1
    for top in range(len(vec) - 1, deg - 1, -1):
        c = vec[top]
        if c:
            for i, pc in enumerate(phi_n):
                vec[top - deg + i] -= c * pc
    return vec[:deg]


def monomial_arrangement_forms(d: int, e: int, n: int) -> list[tuple[list[tuple[int, int, int]], int]]:
    """Hyperplanes of G(d,e,n) with their e_H, as sparse forms
    [(coordinate, k, sign)] meaning sum sign * zeta_d^k * x_coordinate:
    x_i - zeta^k x_j (e_H = 2) and, when d/e > 1, x_i (e_H = d/e)."""
    forms = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(d):
                forms.append(([(i, 0, 1), (j, k, -1)], 2))
    if d // e > 1:
        for i in range(n):
            forms.append(([(i, 0, 1)], d // e))
    return forms


# ---------------------------------------------------------------------------
# finite quotients of braid groups

COXETER_QUOTIENT_ORDERS = {(3, 3): 24, (3, 4): 96, (3, 5): 600, (4, 3): 648, (5, 3): 155520}
TORSION_ORDERS = {"G12": 48, "G13": 96}


def cp_quotient_order(e: int, n: int) -> int:
    """|G(e,e,n)| = e^(n-1) n!, the torsion-2 quotient of B(e,e,n)."""
    return e ** (n - 1) * factorial(n)


def perm_of_word(gen_perms: dict, word) -> tuple[int, ...]:
    """A word's permutation, composed letter by letter as the coset table acts."""
    degree = len(next(iter(gen_perms.values())))
    perm = list(range(degree))
    for sym, exp in word:
        g = gen_perms[sym]
        if exp < 0:
            inv = [0] * degree
            for i, v in enumerate(g):
                inv[v] = i
            g = inv
        for _ in range(abs(exp)):
            perm = [g[x] for x in perm]
    return tuple(perm)


def transitive(perms: list[tuple[int, ...]], degree: int) -> bool:
    """Whether the permutations move point 0 to every point.

    On the regular representation that coset tables give, a subgroup acts
    semiregularly, so it is the whole group exactly when it is transitive.
    """
    seen = {0}
    todo = [0]
    while todo:
        x = todo.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == degree


# Br3/<s^3> is SL(2,3): s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]] mod 3 is an
# isomorphism (both sides have 24 elements and the images generate SL(2,3)).
_SL23 = {"s1": (1, 1, 0, 1), "s2": (1, 0, 2, 1)}


def _m3(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % 3,
        (a[0] * b[1] + a[1] * b[3]) % 3,
        (a[2] * b[0] + a[3] * b[2]) % 3,
        (a[2] * b[1] + a[3] * b[3]) % 3,
    )


def _inv3(a):
    # det = 1, so the inverse is the adjugate
    return (a[3] % 3, -a[1] % 3, -a[2] % 3, a[0] % 3)


def _pow3(a, k: int):
    base = a if k >= 0 else _inv3(a)
    out = (1, 0, 0, 1)
    for _ in range(abs(k)):
        out = _m3(out, base)
    return out


def _eval_f(f: list[tuple[str, int]], x, y):
    out = (1, 0, 0, 1)
    for sym, exp in f:
        out = _m3(out, _pow3(x if sym == "x" else y, exp))
    return out


def eval_sl23(word: list[tuple[str, int]]):
    """A word over s1, s2 as an element of SL(2,3) = Br3/<s^3>."""
    out = (1, 0, 0, 1)
    for sym, exp in word:
        out = _m3(out, _pow3(_SL23[sym], exp))
    return out


def gt_action_on_sl23(lam: int, f: list[tuple[str, int]]) -> dict:
    """The Drinfeld images s1 -> s1^lam, s2 -> f(s2^2, s1^2) s2^lam f(s1^2, s2^2)
    evaluated in SL(2,3) = Br3/<s^3>: well-definedness is the braid relation
    on the images; bijectivity is the images generating all 24 elements."""
    s1, s2 = _SL23["s1"], _SL23["s2"]
    a = _pow3(s1, lam)
    sq1, sq2 = _m3(s1, s1), _m3(s2, s2)
    b = _m3(_m3(_eval_f(f, sq2, sq1), _pow3(s2, lam)), _eval_f(f, sq1, sq2))
    well_defined = _m3(_m3(a, b), a) == _m3(_m3(b, a), b)
    bijective = None
    if well_defined:
        seen = {(1, 0, 0, 1)}
        todo = [(1, 0, 0, 1)]
        while todo:
            g = todo.pop()
            for h in (a, b):
                p = _m3(g, h)
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        bijective = len(seen) == 24
    return {"well_defined": well_defined, "bijective": bijective, "images": {"s1": a, "s2": b}}


# ---------------------------------------------------------------------------
# spherical Artin groups


def coxeter_generators(family: str, rank: int) -> list[str]:
    if family == "A":
        return [f"s{i}" for i in range(1, rank + 1)]
    if family == "B":
        return ["t"] + [f"s{i}" for i in range(2, rank + 1)]
    if family == "D":
        return ["s1", "s1p"] + [f"s{i}" for i in range(2, rank)]
    return ["a", "b"]


def coxeter_m(family: str, rank: int, u: str, v: str) -> int:
    """The Coxeter matrix entry m(u, v) for u != v."""
    if family == "I2":
        return rank

    def pos(g: str) -> int:
        # position on the Dynkin chain; D's two forked ends share position 1
        if g in ("t", "s1p"):
            return 1
        return int(g[1:])

    if family == "D" and {u, v} == {"s1", "s1p"}:
        return 2
    if abs(pos(u) - pos(v)) != 1:
        return 2
    if family == "B" and "t" in (u, v):
        return 4
    return 3


def artin_relators(family: str, rank: int) -> list[list[tuple[str, int]]]:
    """uvu... (m letters) times the inverse of vuv... (m letters), for u < v."""
    gens = coxeter_generators(family, rank)
    rels = []
    for i, u in enumerate(gens):
        for v in gens[i + 1 :]:
            m = coxeter_m(family, rank, u, v)
            left = [(u if k % 2 == 0 else v, 1) for k in range(m)]
            right = [(v if k % 2 == 0 else u, 1) for k in range(m)]
            rels.append(left + [(s, -1) for s, _ in reversed(right)])
    return rels


def delta_length(family: str, rank: int) -> int:
    """Length of the Garside element Delta: the number of reflections of W."""
    return {"A": rank * (rank + 1) // 2, "B": rank * rank, "D": rank * (rank - 1)}.get(
        family, rank
    )


def exponent_sum(word: list[tuple[str, int]]) -> int:
    return sum(e for _, e in word)


def word_text(word: list[tuple[str, int]]) -> str:
    return " ".join(s if e == 1 else f"{s}^{e}" for s, e in word) or "1"


def parse_word_text(text: str) -> list[tuple[str, int]]:
    """Inverse of the library's word_str format ("s1 s2^-1 ...", "1" = empty)."""
    if text.strip() == "1":
        return []
    out = []
    for tok in text.split():
        sym, _, exp = tok.partition("^")
        out.append((sym, int(exp) if exp else 1))
    return out


# ---------------------------------------------------------------------------
# cyclotomic numbers


def embed(order: int, coeffs) -> complex:
    """The complex value of sum c_k zeta_order^k."""
    z = cmath.exp(2j * cmath.pi / order)
    return sum(complex(float(c)) * z**k for k, c in enumerate(coeffs))
