"""Batch command-line front end with JSON output and explicit budgets.

Exit codes: 0 success/consistent, 1 falsified or property violated,
2 budget exceeded, 3 input error.  Identical inputs and seed produce
byte-identical JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import arrangement as arr_mod
from . import cyclo, fpgroups, garside, gtaction, invariants, matgroup, monodromy, mpoly, suite
from .errors import BudgetExceededError, InputError
from .fpgroups import parse_word
from .garside import parse_type


def _ints(text: str, names: str) -> tuple[int, ...]:
    """Parse comma-separated integers, one per comma-separated name in `names`."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != len(names.split(",")):
        raise InputError(f"expected {names} as integers (got {text!r})")
    return values


# The largest n of a braid-type group the CLI builds: Br<n>, ArtB<n>, ArtD<n>,
# CP(e,n), coxeter:n,k and the Br_n of `gt images|stabilize`.  Their
# presentations have about n^2/2 relators and coset enumeration scans every
# relator at every coset, so the cost grows as n^3 whatever the coset budget.
MAX_STRANDS = 16


def _braid_n(n: int) -> int:
    if n > MAX_STRANDS:
        raise InputError(f"a braid-type group on {n} strands exceeds the limit of {MAX_STRANDS}")
    return n


# The largest m (|lambda| + 2|g| + 1) of `gt gd-check`: the Garside words it
# normalises (the images of Delta and Delta^2, and Delta^(2 lambda)) grow as
# that product, and their normal forms cost about linearly in it.  At the
# bound the slowest inputs found (m = 40,000 with lambda = 1) take about 2 s
# on a 2-core x86 VM.
MAX_GD_CHECK_LETTERS = 80_000


def _source(args, *flags: str) -> tuple[str, str]:
    """The one flag of `flags` given, and its value; none or several is an input error."""
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if not given:
        *rest, last = (f"--{flag}" for flag in flags)
        raise InputError(f"give {', '.join(rest)} or {last}")
    if len(given) > 1:
        raise InputError(f"give --{given[0]} or --{given[1]}, not both")
    return given[0], getattr(args, given[0])


def _load_group(args) -> matgroup.RGroup:
    budget = args.budget_elements
    flag, value = _source(args, "catalog", "monomial", "spec")
    if flag == "catalog":
        return matgroup.build_catalog_group(value, budget)
    if flag == "monomial":
        d, e, n = _ints(value, "d,e,n")
        return matgroup.build_monomial_group(d, e, n, budget)
    with open(value) as fh:
        return matgroup.group_from_spec(json.load(fh), budget)


def _group_args(p: argparse.ArgumentParser):
    p.add_argument("--catalog", help="catalog group name (G4, S3_paper)")
    p.add_argument("--monomial", help="d,e,n for the monomial group G(d,e,n)")
    p.add_argument("--spec", help="path to a group spec JSON file")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns exit code, payload)


def cmd_group_info(args):
    g = _load_group(args)
    refl = matgroup.reflections(g)
    hyps = matgroup.hyperplanes(g)
    fod = matgroup.field_of_definition(g)
    h = matgroup.invariant_hermitian_form(g)
    _, conj_stable, _ = matgroup.galois_image(g, -1)
    payload = {
        "label": g.label,
        "order": g.order(),
        "dim": g.dim,
        "reflections": len(refl),
        "hyperplanes": len(hyps),
        "e_H": sorted({e for _, e in hyps}),
        "center_order": len(matgroup.center(g)),
        "field_of_definition": {
            "conductor": fod.conductor,
            "fixing_subgroup": list(fod.fixing_subgroup),
            "degree": fod.degree,
        },
        "hermitian_form_positive_definite": matgroup.hermitian_is_positive_definite(h),
        "conjugation_stable_entrywise": conj_stable,
    }
    return 0, payload


def cmd_invariants_compute(args):
    g = _load_group(args)
    basis = invariants.fundamental_invariants(g)
    return 0, {
        "label": g.label,
        "molien_degrees": list(basis.degrees),
        "generators": [mpoly.to_json(p) for p in basis.generators],
    }


def cmd_invariants_check(args):
    name = args.catalog
    if name in ("G4", "S3_paper"):
        g = matgroup.build_catalog_group(name)
        p1, p2 = invariants.catalog_invariant_pair(name)
        delta = arr_mod.discriminant_poly(arr_mod.arrangement_of(g))
        prop, scalar = mpoly.proportional(delta, p1**3 - p2**2)
        payload = {
            "pair_invariant": invariants.is_invariant(g, p1) and invariants.is_invariant(g, p2),
            "discriminant_proportional_to_p1^3-p2^2": prop,
            "scalar": cyclo.to_json(scalar) if scalar else None,
            "molien_degrees": invariants.molien_degrees(g),
        }
        code = 0 if payload["pair_invariant"] and prop else 1
        return code, payload
    if name == "G12":
        alpha, beta = invariants.catalog_invariant_pair("G12")
        diff = beta**3 - (alpha**4).scale(27)
        root = mpoly.poly_square_root(diff)
        jac = mpoly.jacobian([alpha, beta])
        prop, scalar = mpoly.proportional(jac, root) if root is not None else (False, None)
        payload = {
            "square_root_degree": root.total_degree() if root is not None else None,
            "squarefree_distinct_roots": (
                mpoly.squarefree_linear_factor_check(root) if root is not None else False
            ),
            "jacobian_proportional": prop,
        }
        code = 0 if root is not None and payload["squarefree_distinct_roots"] and prop else 1
        return code, payload
    raise InputError("invariants check needs --catalog G4 | S3_paper | G12")


def cmd_arrangement_supersolvable(args):
    g = _load_group(args)
    arr = arr_mod.arrangement_of(g)
    if args.oracle:
        # first, so its hyperplane limit is checked before a lattice is built
        overdict, _ = arr_mod.is_supersolvable_bruteforce(arr)
    verdict, chain = arr_mod.is_supersolvable(arr)
    payload = {
        "label": g.label,
        "hyperplanes": len(arr.hyperplanes),
        "supersolvable": verdict,
        "modular_chain": chain,
    }
    if args.oracle:
        payload["oracle_agrees"] = overdict == verdict
        return (0 if payload["oracle_agrees"] else 1), payload
    return 0, payload


def cmd_arrangement_discriminant(args):
    g = _load_group(args)
    arr = arr_mod.arrangement_of(g)
    delta = arr_mod.discriminant_poly(arr)
    return 0, {
        "label": g.label,
        "arrangement": arr_mod.to_json(arr),
        "discriminant": mpoly.to_json(delta),
        "degree": delta.total_degree(),
    }


_PRESENTATIONS = {
    "G12": fpgroups.g12_braid_presentation,
    "G13": fpgroups.g13_braid_presentation,
    "I2(6)": lambda: fpgroups.artin_i2_presentation(6),
}


def _load_presentation(args) -> fpgroups.Presentation:
    flag, key = _source(args, "catalog", "pres")
    if flag == "pres":
        with open(key) as fh:
            return fpgroups.presentation_from_json(json.load(fh))
    if key in _PRESENTATIONS:
        return _PRESENTATIONS[key]()
    if key.startswith("CP"):
        e, n = _ints(key[2:].strip("()"), "e,n")
        return fpgroups.corran_picantin_presentation(e, _braid_n(n))
    for prefix, build in (("ArtB", fpgroups.artin_b_presentation), ("ArtD", fpgroups.artin_d_presentation),
                          ("Br", fpgroups.braid_presentation)):
        if key.startswith(prefix):
            return build(_braid_n(*_ints(key[len(prefix):], "n")))
    raise InputError(f"unknown presentation {key!r}")


def cmd_present_tc(args):
    pres = _load_presentation(args)
    sub = [parse_word(w, pres.generators) for w in (args.subgroup or "").split(",") if w.strip()]
    table = fpgroups.todd_coxeter(pres, sub, args.budget_cosets)
    payload = {"presentation": pres.label, "status": table.status}
    if table.status != "complete":
        return 2, payload
    payload["index"] = table.index()
    if args.full:
        payload["generators"] = list(pres.generators)
        payload["perms"] = {
            name: list(perm) for name, perm in table.generator_permutations().items()
        }
    return 0, payload


def cmd_present_quotient(args):
    if _source(args, "coxeter", "catalog", "pres")[0] == "coxeter":
        if args.torsion is not None:
            raise InputError("--coxeter takes no --torsion")
        n, k = _ints(args.coxeter, "n,k")
        q = fpgroups.coxeter_quotient(_braid_n(n), k, args.budget_cosets)
    else:
        k = 2 if args.torsion is None else args.torsion
        q = fpgroups.torsion_quotient(_load_presentation(args), k, args.budget_cosets)
    return 0, {"quotient": q.label, "order": q.degree}


_MAPS = {
    "g12_conj": fpgroups.g12_conjugation,
    "g13_conj": fpgroups.g13_conjugation,
    "i26_to_g13": fpgroups.i26_to_g13_iso,
    "i26_transported_conj": fpgroups.i26_transported_conjugation,
    "cp_conj_3_3": lambda: fpgroups.cp_conjugation(3, 3),
    "cp_conj_4_4": lambda: fpgroups.cp_conjugation(4, 4),
}


def cmd_present_verify_map(args):
    backend_spec = args.backend
    if args.map in _MAPS:
        if args.map_file or args.catalog or args.pres:
            raise InputError("a catalogued --map takes no --map-file, --catalog or --pres")
        hom = _MAPS[args.map]()
    elif args.map_file:
        with open(args.map_file) as fh:
            data = json.load(fh)
        pres = _load_presentation(args)
        try:
            # target_generators serve the backends whose spec names the group
            alphabet = tuple(data.get("target_generators") or pres.generators)
            images = {g: parse_word(w, alphabet) for g, w in data["images"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise InputError(f"malformed map file: {exc}") from exc
        hom = fpgroups.GroupHom(args.map or "user-map", pres, images)
        if backend_spec and data.get("backend"):
            raise InputError("give --backend or the map file's 'backend', not both")
        backend_spec = backend_spec or data.get("backend")
    else:
        raise InputError("specify --map <name> or --map-file <json>")
    if not backend_spec:
        raise InputError("no backend given (flag --backend or map JSON 'backend' key)")
    backend = _build_backend(backend_spec, hom.target, args.budget_cosets)
    verdict = fpgroups.verify_hom(hom, backend)
    payload = {
        "map": hom.label,
        "consistent": verdict.consistent,
        "exact_proof": verdict.exact_proof,
        "note": verdict.note,
        "falsifier": verdict.falsifier,
    }
    return (0 if verdict.consistent else 1), payload


def _build_backend(spec: str, target: fpgroups.Presentation | None, budget_cosets: int):
    """The backend a spec names; `torsion:k` is the torsion quotient of `target`."""
    if spec.startswith("torsion:"):
        (k,) = _ints(spec.split(":", 1)[1], "k")
        return fpgroups.torsion_quotient(target, k, budget_cosets)
    if spec.startswith("coxeter:"):
        n, k = _ints(spec.split(":", 1)[1], "n,k")
        return fpgroups.coxeter_quotient(_braid_n(n), k, budget_cosets)
    if spec.startswith("garside:"):
        t = parse_type(spec.split(":", 1)[1])
        # A_r is the type of Br_(r+1); a context costs about rank^3 to build
        if t.family != "I2" and t.rank + (t.family == "A") > MAX_STRANDS:
            raise InputError(f"garside backend {t} needs rank <= {MAX_STRANDS - (t.family == 'A')}")
        return garside.context(t)
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            return _table_quotient(f"table:{path}", json.load(fh))
    raise InputError(f"unknown backend {spec!r}")


def _table_quotient(label: str, data) -> fpgroups.PermQuotient:
    """The quotient of a `present tc --full` file: a label plus the table of
    one permutation of range(degree) per listed generator, and of its inverse.

    The points need not be the cosets of the trivial subgroup, so the action
    need not be regular: this quotient only evaluates words and is never
    asked for its order().
    """
    try:
        gens = tuple(data["generators"])
        perms = {g: tuple(data["perms"][g]) for g in gens}
    except (KeyError, TypeError) as exc:
        raise InputError(f"{label}: every listed generator needs a perm ({exc})") from exc
    if not gens:
        raise InputError(f"{label}: no generators listed")
    degree = len(perms[gens[0]])
    for g, perm in perms.items():
        if len(perm) != degree:
            raise InputError(f"{label}: perm of {g!r} has length {len(perm)}, not {degree}")
        if any(type(x) is not int for x in perm) or set(perm) != set(range(degree)):
            raise InputError(f"{label}: perm of {g!r} is not a permutation of range({degree})")
    return fpgroups.PermQuotient(label, fpgroups.permutation_table(label, perms))


def _garside_context(text: str):
    """The context of a type given to a garside command: rank at most
    garside.MAX_RANK for A/B/D, m at most garside.MAX_LETTERS for I2(m)."""
    t = parse_type(text)
    if t.family == "I2" and t.rank > garside.MAX_LETTERS:
        raise InputError(f"I2(m) needs m <= {garside.MAX_LETTERS}")
    if t.family != "I2" and t.rank > garside.MAX_RANK:
        raise InputError(f"rank must be <= {garside.MAX_RANK}")
    return garside.context(t)


def cmd_garside_nf(args):
    ctx = _garside_context(args.type)
    w = _garside_word(ctx, args.word)
    nf = ctx.normal_form(w)
    return 0, garside.nf_to_json(ctx, nf)


def cmd_garside_equal(args):
    ctx = _garside_context(args.type)
    u = _garside_word(ctx, args.u)
    v = _garside_word(ctx, args.v)
    equal = ctx.equal(u, v)
    return (0 if equal else 1), {"equal": equal}


def cmd_garside_delta(args):
    ctx = _garside_context(args.type)
    w = ctx.delta_word()
    return 0, {
        "type": str(ctx.type),
        "delta_word": fpgroups.word_str(w),
        "length": fpgroups.word_length(w),
        "delta_squared_central": ctx.is_central(fpgroups.word_pow(w, 2)),
    }


def _garside_word(ctx, text: str):
    """Parse a word of at most garside.MAX_LETTERS letters, expanding the
    catalogued w<r>/eta<r> abbreviations for type D."""
    return parse_word(text, ctx.gen_list, garside.MAX_LETTERS, _garside_abbreviations(ctx.type))


@functools.cache
def _garside_abbreviations(t) -> dict:
    if t.family != "D":
        return {}
    words = (("w", garside.w_word), ("eta", garside.eta_word))
    return {f"{name}{r}": word(r) for r in range(2, t.rank + 1) for name, word in words}


def _gt_pair(args) -> gtaction.GTPair:
    """The pair of --lambda and --f.  s^lambda is a word of |lambda| letters,
    so |lambda| has the cap of every word."""
    if abs(args.lam) > fpgroups.MAX_WORD_LETTERS:
        raise InputError(f"|lambda| = {abs(args.lam)} exceeds the limit of {fpgroups.MAX_WORD_LETTERS}")
    return gtaction.parse_pair(args.lam, args.f or "")


def cmd_gt_act(args):
    pair = _gt_pair(args)
    if not args.backend.startswith("coxeter:"):
        raise InputError("gt act expects --backend coxeter:n,k")
    q = _build_backend(args.backend, None, args.budget_cosets)
    if args.n is not None and args.n != len(q.presentation.generators) + 1:
        raise InputError(f"--n {args.n} is not the n of --backend {args.backend}")
    rep = gtaction.act_on_quotient(q, pair)
    payload = {
        "backend": rep.backend,
        "images": {g: fpgroups.word_str(w) for g, w in rep.images.items()},
        "relator_verdicts": rep.relator_verdicts,
        "well_defined": rep.well_defined,
        "bijective": rep.bijective,
        "notes": rep.notes,
    }
    return (0 if rep.well_defined else 1), payload


def cmd_gt_images(args):
    pair = _gt_pair(args)
    images = gtaction.drinfeld_images(_braid_n(args.n), pair)
    return 0, {g: fpgroups.word_str(w) for g, w in images.items()}


def cmd_gt_stabilize(args):
    pair = _gt_pair(args)
    _braid_n(args.n + 1)  # the subgroup lives in Br_(n+1)
    out = gtaction.stabilizes_bn_subgroup(args.n, pair, args.budget_cosets)
    return (0 if out["all_in"] else 1), out


def cmd_gt_gd_check(args):
    g = parse_word(args.g, ("a", "b")) if args.g else ()
    letters = args.m * (abs(args.lam) + 2 * fpgroups.word_length(g) + 1)
    if letters > MAX_GD_CHECK_LETTERS:
        raise InputError(
            f"gd-check on I2({args.m}) with m (|lambda| + 2|g| + 1) = {letters} exceeds the limit of "
            f"{MAX_GD_CHECK_LETTERS}"
        )
    report = gtaction.check_gd_pair(args.m, args.lam, g)
    return (0 if report["all_exact_conditions"] else 1), report


def cmd_monodromy_profile(args):
    if _source(args, "catalog", "spec")[0] == "catalog":
        spec = monodromy.braid_loop_images(args.catalog)
    else:
        with open(args.spec) as fh:
            spec = monodromy.cover_from_spec(json.load(fh), args.budget_elements)
    prof = monodromy.monodromy_profile(spec)
    payload = monodromy.profile_to_json(prof)
    payload["genus"] = monodromy.riemann_hurwitz_genus(prof)
    return 0, payload


def cmd_monodromy_genus(args):
    with open(args.profile) as fh:
        prof = monodromy.profile_from_json(json.load(fh))
    return 0, {"genus": monodromy.riemann_hurwitz_genus(prof)}


def cmd_paper_suite(args):
    ids = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    strict_ok, reports = suite.run_suite(ids, seed=args.seed)
    payload = {"all_passed": strict_ok, "criteria": reports}
    return (0 if strict_ok else 1), payload


# ---------------------------------------------------------------------------


def _budget(text: str) -> int:
    """The value of a budget flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"a budget must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 3 with a
    JSON payload), not argparse's own exit 2, which here means "budget
    exceeded".  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the CLI, built at its first call and shared
    by every later `main` call in the process.  `parse_args` keeps no state
    between calls, but two things are frozen at that first build:
    - the handlers bound by `set_defaults(fn=cmd_...)`: replacing a `cmd_*`
      function of this module afterwards does not reach the parser;
    - the global budget defaults, read from `fpgroups.DEFAULT_COSET_BUDGET`
      and `matgroup.DEFAULT_ELEMENT_BUDGET`."""
    top = _Parser(prog="reflbench")
    top.add_argument("--json", help="also write the JSON payload to this path")
    top.add_argument("--budget-cosets", type=_budget, default=fpgroups.DEFAULT_COSET_BUDGET)
    top.add_argument("--budget-elements", type=_budget, default=matgroup.DEFAULT_ELEMENT_BUDGET)
    top.add_argument("--seed", type=int, default=20240901)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    p = g.add_parser("info")
    _group_args(p)
    p.set_defaults(fn=cmd_group_info)

    inv = sub.add_parser("invariants").add_subparsers(dest="sub", required=True)
    p = inv.add_parser("compute")
    _group_args(p)
    p.set_defaults(fn=cmd_invariants_compute)
    p = inv.add_parser("check")
    p.add_argument("--catalog", required=True)
    p.set_defaults(fn=cmd_invariants_check)

    arr = sub.add_parser("arrangement").add_subparsers(dest="sub", required=True)
    p = arr.add_parser("supersolvable")
    _group_args(p)
    p.add_argument("--oracle", action="store_true", help="also run the all-chains oracle")
    p.set_defaults(fn=cmd_arrangement_supersolvable)
    p = arr.add_parser("discriminant")
    _group_args(p)
    p.set_defaults(fn=cmd_arrangement_discriminant)

    pres = sub.add_parser("present").add_subparsers(dest="sub", required=True)
    p = pres.add_parser("tc")
    p.add_argument("--catalog")
    p.add_argument("--pres", help="presentation JSON file")
    p.add_argument("--subgroup", default="", help="comma-separated subgroup generator words")
    p.add_argument("--full", action="store_true", help="include generator permutations (table backend format)")
    p.set_defaults(fn=cmd_present_tc)
    p = pres.add_parser("quotient")
    p.add_argument("--catalog")
    p.add_argument("--pres")
    p.add_argument("--coxeter", help="n,k for Br_n/(s_i^k)")
    p.add_argument("--torsion", type=int, help="k for pres/(g^k), default 2")
    p.set_defaults(fn=cmd_present_quotient)
    p = pres.add_parser("verify-map")
    p.add_argument("--map", help=f"catalogued map name: {sorted(_MAPS)}")
    p.add_argument("--map-file")
    p.add_argument("--catalog")
    p.add_argument("--pres")
    p.add_argument(
        "--backend", help="torsion:k | coxeter:n,k | garside:TYPE | table:FILE"
    )
    p.set_defaults(fn=cmd_present_verify_map)

    gar = sub.add_parser("garside").add_subparsers(dest="sub", required=True)
    p = gar.add_parser("nf")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_garside_nf)
    p = gar.add_parser("equal")
    p.add_argument("--type", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_garside_equal)
    p = gar.add_parser("delta")
    p.add_argument("--type", required=True)
    p.set_defaults(fn=cmd_garside_delta)

    gt = sub.add_parser("gt").add_subparsers(dest="sub", required=True)
    p = gt.add_parser("act")
    p.add_argument("--n", type=int, help="the n of the backend, checked when given")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--f", default="")
    p.add_argument("--backend", required=True)
    p.set_defaults(fn=cmd_gt_act)
    p = gt.add_parser("images")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--f", default="")
    p.set_defaults(fn=cmd_gt_images)
    p = gt.add_parser("stabilize")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--f", default="")
    p.set_defaults(fn=cmd_gt_stabilize)
    p = gt.add_parser("gd-check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--g", default="")
    p.set_defaults(fn=cmd_gt_gd_check)

    mon = sub.add_parser("monodromy").add_subparsers(dest="sub", required=True)
    p = mon.add_parser("profile")
    p.add_argument("--catalog")
    p.add_argument("--spec", help="cover spec JSON file")
    p.set_defaults(fn=cmd_monodromy_profile)
    p = mon.add_parser("genus")
    p.add_argument("--profile", required=True, help="profile JSON file")
    p.set_defaults(fn=cmd_monodromy_genus)

    p = sub.add_parser("paper-suite")
    p.add_argument("--criteria", help="comma-separated criterion ids (default: all)")
    p.set_defaults(fn=cmd_paper_suite)

    return top


_escape = json.encoder.encode_basestring_ascii  # the C escaper of json.dumps
_LEAF = {str: _escape, int: int.__repr__, bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _scalar(o) -> str:
    """A scalar as json.dumps writes it: a subclass of str, int or float as
    its base class, and TypeError for any other type."""
    if leaf := _LEAF.get(o.__class__):
        return leaf(o)
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _dumps(o, pad: str = "\n") -> str:
    """json.dumps(o, sort_keys=True, indent=2) byte for byte, and TypeError where it
    raises one (a cyclic payload raises RecursionError).  With an indent, json runs
    its pure-Python encoder, one generator per nesting level; here a container is one
    join, and a leaf of a class in _LEAF costs no call.  `pad` precedes o's closing bracket."""
    inner = pad + "  "
    if isinstance(o, dict):
        items = []
        for k, v in sorted(o.items()):  # sorted before non-string keys are converted, as json does
            if not (k is None or isinstance(k, (str, int, float))):
                raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
            key = _escape(k) if isinstance(k, str) else f'"{_scalar(k)}"'
            items.append(f"{key}: {leaf(v) if (leaf := _LEAF.get(v.__class__)) else _dumps(v, inner)}")
        return f"{{{inner}{f',{inner}'.join(items)}{pad}}}" if items else "{}"
    if isinstance(o, (list, tuple)):
        items = [leaf(v) if (leaf := _LEAF.get(v.__class__)) else _dumps(v, inner) for v in o]
        return f"[{inner}{f',{inner}'.join(items)}{pad}]" if items else "[]"
    return _scalar(o)


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        code, payload = args.fn(args)
    except BudgetExceededError as exc:
        code, payload = 2, {"error": "budget_exceeded", "message": str(exc)}
    except (InputError, OSError, json.JSONDecodeError) as exc:
        code, payload = 3, {"error": "input", "message": str(exc)}
    text = _dumps(payload)
    if getattr(args, "json", None):
        try:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            # an unwritable --json file is an input error, whatever the answer
            code, text = 3, _dumps({"error": "input", "message": f"--json: {exc}"})
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
