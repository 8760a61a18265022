"""Grothendieck-Teichmuller-type pairs (lambda, f) and their induced maps.

A pair consists of an integer lambda (desk-scale stand-in for a profinite
unit: finite backends only ever see lambda modulo their exponent) and a word
f over {x, y} with both exponent sums zero.  The module evaluates the induced
generator images on braid groups (Drinfeld formulas), on finite permutation
quotients, on the type-B subgroup of the braid group, on type-D Artin groups
via exact Garside arithmetic, and runs the dihedral pair-condition checker.

Convention: y_i = (s_(i-1) ... s_1)(s_1 ... s_(i-1)), pinned by the n = 3
instance y_2 = s_1^2; it is isolated in `y_word` so alternates can be swapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fpgroups, garside
from .errors import BudgetExceededError, InputError
from .fpgroups import (
    Word,
    braid_presentation,
    is_in_derived_f2,
    single,
    substitute,
    todd_coxeter,
    word_inverse,
    word_mul,
    word_pow,
    word_str,
)
from .garside import CoxeterType, context, eta_word
from .orbit import orbit


@dataclass(frozen=True)
class GTPair:
    lam: int
    f: Word  # over {x, y}, both exponent sums zero

    def __post_init__(self):
        if not is_in_derived_f2(self.f):
            raise InputError(
                "f must have zero exponent sum in each of x and y (derived-subgroup condition)"
            )

    @property
    def lambda_parity_note(self) -> str | None:
        if self.lam % 2 == 0:
            return (
                "lambda is even: on backends whose reflection quotient forces "
                "involutions the induced map cannot be expected to be bijective"
            )
        return None


def parse_pair(lam: int, f_text: str) -> GTPair:
    return GTPair(lam, fpgroups.parse_word(f_text, ("x", "y")) if f_text else ())


# ---------------------------------------------------------------------------
# Drinfeld action on braid groups


def y_word(i: int) -> Word:
    """y_i = (s_(i-1) ... s_1)(s_1 ... s_(i-1)); y_2 = s1^2."""
    down = [single(f"s{j}") for j in range(i - 1, 0, -1)]
    up = [single(f"s{j}") for j in range(1, i)]
    return word_mul(*down, *up)


def drinfeld_images(n: int, pair: GTPair) -> dict[str, Word]:
    """Generator images s_1 -> s_1^lambda, s_i -> f(s_i^2, y_i) s_i^lambda f(y_i, s_i^2)."""
    return drinfeld_formula(n, pair.lam, pair.f)


def drinfeld_formula(n: int, lam: int, f: Word) -> dict[str, Word]:
    """The images of `drinfeld_images` for any word f over {x, y}, also one
    outside the derived subgroup, where they need not define an automorphism."""
    if n < 2:
        raise InputError("need n >= 2 strands")
    return _gt_images(n, lam, f, y_word, ("s1",))


def _gt_images(n: int, lam: int, f: Word, partner, fixed: tuple[str, ...]) -> dict[str, Word]:
    """s -> s^lambda for s in `fixed`, and s_i -> f(s_i^2, p) s_i^lambda f(p, s_i^2)
    for 2 <= i < n, with p = partner(i)."""
    images = {s: word_pow(single(s), lam) for s in fixed}
    for i in range(2, n):
        si, p = single(f"s{i}"), partner(i)
        si2 = word_pow(si, 2)
        images[f"s{i}"] = word_mul(
            substitute(f, {"x": si2, "y": p}), word_pow(si, lam), substitute(f, {"x": p, "y": si2})
        )
    return images


@dataclass
class ActionReport:
    backend: str
    images: dict[str, Word]
    relator_verdicts: list[tuple[str, bool]]
    well_defined: bool
    bijective: bool | None
    notes: list[str] = field(default_factory=list)


def act_on_quotient(quotient: fpgroups.PermQuotient, pair: GTPair) -> ActionReport:
    """Evaluate the Drinfeld images in a finite quotient of some Br_n.

    Checks every braid relator's image and, when well defined, whether the
    induced endomorphism is bijective (images generate the whole quotient).
    Unlike `fpgroups.verify_hom`, which stops at the first falsifier, the
    report lists every relator's verdict.
    """
    n = len(quotient.presentation.generators) + 1
    hom = fpgroups.GroupHom(f"Drinfeld({pair.lam})", braid_presentation(n), drinfeld_images(n, pair))
    one = quotient.identity()
    verdicts = [(word_str(r), quotient.eval_word(hom.apply(r)) == one) for r in hom.source.relators]
    ok = all(holds for _, holds in verdicts)
    bij = fpgroups.hom_bijective_on(hom, quotient) if ok else None
    notes = []
    if pair.lambda_parity_note:
        notes.append(pair.lambda_parity_note)
    return ActionReport(
        backend=quotient.label,
        images=hom.images,
        relator_verdicts=verdicts,
        well_defined=ok,
        bijective=bij,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# stabilization of the type-B subgroup of Br_(n+1)


def stabilizes_bn_subgroup(n: int, pair: GTPair, limit: int = fpgroups.DEFAULT_COSET_BUDGET):
    """Membership verdicts: do Drinfeld images of <s1^2, s2..sn> stay in it?

    The subgroup is the image of `fpgroups.artin_b_embedding(n)`, of index
    n+1 in Br_(n+1): a word lies in it iff it fixes coset 0 of its table.
    """
    emb = fpgroups.artin_b_embedding(n)
    sub = list(emb.images.values())
    table = todd_coxeter(emb.target, sub, limit)
    if table.status != "complete":
        raise BudgetExceededError("subgroup membership needs a complete coset table")
    images = drinfeld_images(n + 1, pair)
    verdicts = {word_str(w): table.trace(0, substitute(w, images)) == 0 for w in sub}
    return {"index": table.index(), "verdicts": verdicts, "all_in": all(verdicts.values())}


# ---------------------------------------------------------------------------
# Matsumoto formulas on type D


def matsumoto_d_images(n: int, pair: GTPair) -> dict[str, Word]:
    """s1 -> s1^lambda, s1p -> s1p^lambda, s_i -> f(s_i^2, eta_i) s_i^lambda f(eta_i, s_i^2)."""
    if n < 3:
        raise InputError("type D formulas need rank >= 3")
    return _gt_images(n, pair.lam, pair.f, eta_word, ("s1", "s1p"))


def matsumoto_commutation_report(n: int, pair: GTPair):
    """Exact Garside verification of the commutation relations between images.

    Checks F(s_i)F(s_j) = F(s_j)F(s_i) for |i-j| >= 2 and
    F(s1p)F(s_j) = F(s_j)F(s1p) for j >= 3.
    """
    ctx = context(CoxeterType("D", n))
    images = matsumoto_d_images(n, pair)
    checks: list[tuple[str, bool]] = []
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            ok = ctx.commutes(images[f"s{i}"], images[f"s{j}"])
            checks.append((f"F(s{i})F(s{j}) = F(s{j})F(s{i})", ok))
    for j in range(3, n):
        ok = ctx.commutes(images["s1p"], images[f"s{j}"])
        checks.append((f"F(s1p)F(s{j}) = F(s{j})F(s1p)", ok))
    return {"images": images, "checks": checks, "all_hold": all(v for _, v in checks)}


# ---------------------------------------------------------------------------
# dihedral pair conditions


def check_gd_pair(m: int, lam: int, g: Word):
    """Condition report for the dihedral pair (lambda, g), g a word over {a, b}.

    Preconditions on g: it lies in the pure braid group P, the kernel of the
    reflection quotient Art(I2(m)) -> W, and in [P, P], which holds iff it
    crosses every reflecting hyperplane as often each way
    (`GarsideContext.reflection_counts`).  The induced map is
    a -> a^lambda, b -> g^-1 b^lambda g; conditions (2)-(4) are evaluated
    exactly on the Garside backend, and condition (1) asks whether the images
    generate W.
    """
    ctx = context(CoxeterType("I2", m))
    pres = fpgroups.artin_i2_presentation(m)
    if ctx.image_in_w(g) != ctx.one:
        raise InputError("g does not lie in the kernel of the reflection quotient")
    if any(ctx.reflection_counts(g).values()):
        raise InputError(
            "g is not in the derived subgroup of the kernel (abelianized class nonzero)"
        )

    a, b = single("a"), single("b")
    images = {
        "a": word_pow(a, lam),
        "b": word_mul(word_inverse(g), word_pow(b, lam), g),
    }
    hom = fpgroups.GroupHom(f"I2({m})-pair", pres, images)

    delta = fpgroups.alternating_word("a", "b", m)
    report: dict[str, object] = {"m": m, "lambda": lam, "g": word_str(g)}
    # (2) holds by construction; recorded for completeness
    report["cond2_images"] = {k: word_str(v) for k, v in images.items()}
    # (3): Delta -> Delta^lambda g (m odd) / Delta^lambda (m even), exact
    target3 = (
        word_mul(word_pow(delta, lam), g) if m % 2 else word_pow(delta, lam)
    )
    report["cond3_delta_image"] = ctx.equal(hom.apply(delta), target3)
    # (4): Delta^2 -> Delta^(2 lambda), exact
    report["cond4_delta2_image"] = ctx.equal(
        hom.apply(word_pow(delta, 2)), word_pow(delta, 2 * lam)
    )
    # relator preservation, exact (homomorphy of the induced map)
    relator_ok = fpgroups.verify_hom(hom, ctx).consistent
    report["relator_preserved_exact"] = relator_ok
    # (1) automorphism evidence on the reflection quotient W, of order 2m
    w_images = [ctx.image_in_w(w) for w in images.values()]
    generated = orbit(ctx.one, w_images, ctx.model.mul)
    report["cond1_bijective_on_W"] = relator_ok and len(generated) == 2 * m
    report["all_exact_conditions"] = bool(
        report["cond3_delta_image"] and report["cond4_delta2_image"] and relator_ok
    )
    return report

