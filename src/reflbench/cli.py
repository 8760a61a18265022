"""Batch command-line front end with JSON output and explicit budgets.

Exit codes: 0 success/consistent, 1 falsified or property violated,
2 budget exceeded, 3 input error.  Identical inputs and seed produce
byte-identical JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arrangement as arr_mod
from . import cyclo, fpgroups, garside, gtaction, invariants, matgroup, monodromy, mpoly, suite
from .errors import BudgetExceededError, InputError
from .fpgroups import parse_word
from .garside import parse_type


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


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


# The largest m of `gt gd-check --m`: the kernel test reduces a relator matrix
# of 2m rows and 2m + 1 columns, so its cost grows about as m^3
# (m = 400 takes a few seconds).
MAX_DIHEDRAL_M = 400


def _load_group(args) -> matgroup.RGroup:
    budget = args.budget_elements
    if args.catalog:
        return matgroup.build_catalog_group(args.catalog, budget)
    if args.monomial:
        d, e, n = _ints(args.monomial, "d,e,n")
        return matgroup.build_monomial_group(d, e, n, budget)
    if args.spec:
        with open(args.spec) as fh:
            return matgroup.group_from_spec(json.load(fh), budget)
    raise InputError("specify a group via --catalog, --monomial or --spec")


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
    if args.catalog:
        key = args.catalog
        if key in _PRESENTATIONS:
            return _PRESENTATIONS[key]()
        if key.startswith("CP"):
            e, n = _ints(key[2:].strip("()"), "e,n")
            return fpgroups.corran_picantin_presentation(e, _braid_n(n))
        if key.startswith("ArtB"):
            return fpgroups.artin_b_presentation(_braid_n(*_ints(key[4:], "n")))
        if key.startswith("ArtD"):
            return fpgroups.artin_d_presentation(_braid_n(*_ints(key[4:], "n")))
        if key.startswith("Br"):
            return fpgroups.braid_presentation(_braid_n(*_ints(key[2:], "n")))
        raise InputError(f"unknown presentation {key!r}")
    if args.pres:
        with open(args.pres) as fh:
            return fpgroups.presentation_from_json(json.load(fh))
    raise InputError("specify --catalog or --pres")


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
    if args.coxeter:
        n, k = _ints(args.coxeter, "n,k")
        q = fpgroups.coxeter_quotient(_braid_n(n), k, args.budget_cosets)
        return 0, {"quotient": q.label, "order": q.degree}
    pres = _load_presentation(args)
    q = fpgroups.torsion_quotient(pres, args.torsion, args.budget_cosets)
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
        hom = _MAPS[args.map]()
    elif args.map_file:
        with open(args.map_file) as fh:
            data = json.load(fh)
        pres = _load_presentation(args)
        try:
            alphabet = _target_alphabet(data, pres)
            images = {g: parse_word(w, alphabet) for g, w in data["images"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise InputError(f"malformed map file: {exc}") from exc
        hom = fpgroups.GroupHom(args.map or "user-map", pres, images)
        backend_spec = backend_spec or data.get("backend")
    else:
        raise InputError("specify --map <name> or --map-file <json>")
    if not backend_spec:
        raise InputError("no backend given (flag --backend or map JSON 'backend' key)")
    backend = _build_backend(backend_spec, hom, args.budget_cosets)
    verdict = fpgroups.verify_hom(hom, backend)
    payload = {
        "map": hom.label,
        "consistent": verdict.consistent,
        "exact_proof": verdict.exact_proof,
        "note": verdict.note,
        "falsifier": verdict.falsifier,
    }
    return (0 if verdict.consistent else 1), payload


def _target_alphabet(data: dict, pres: fpgroups.Presentation):
    target = data.get("target_generators")
    return tuple(target) if target else pres.generators


def _build_backend(spec: str, hom: fpgroups.GroupHom, budget_cosets: int):
    if spec.startswith("torsion:"):
        (k,) = _ints(spec.split(":", 1)[1], "k")
        target_pres = _infer_target_presentation(hom)
        return fpgroups.torsion_quotient(target_pres, k, budget_cosets)
    if spec.startswith("coxeter:"):
        n, k = _ints(spec.split(":", 1)[1], "n,k")
        return fpgroups.coxeter_quotient(_braid_n(n), k, budget_cosets)
    if spec.startswith("garside:"):
        return garside.context(parse_type(spec.split(":")[1]))
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            return _table_quotient(f"table:{path}", json.load(fh))
    raise InputError(f"unknown backend {spec!r}")


def _table_quotient(label: str, data) -> fpgroups.PermQuotient:
    """The quotient of a `present tc --full` file: one permutation of
    range(degree) per listed generator, all of the same degree.

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
    return fpgroups.PermQuotient(
        label=label,
        presentation=fpgroups.Presentation(label, gens, ()),
        gen_perms=perms,
        degree=degree,
    )


def _infer_target_presentation(hom: fpgroups.GroupHom) -> fpgroups.Presentation:
    target_syms = {sym for w in hom.images.values() for sym, _ in w}
    if target_syms <= set(hom.source.generators):
        return hom.source
    for builder in (fpgroups.g12_braid_presentation, fpgroups.g13_braid_presentation):
        pres = builder()
        if target_syms <= set(pres.generators):
            return pres
    raise InputError("cannot infer the map's target presentation; use --pres")


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
    extra = {}
    if ctx.type.family == "D":
        for r in range(2, ctx.type.rank + 1):
            extra[f"w{r}"] = garside.w_word(r)
            extra[f"eta{r}"] = garside.eta_word(r)
    return parse_word(text, ctx.gen_list, garside.MAX_LETTERS, extra)


def cmd_gt_act(args):
    pair = gtaction.parse_pair(args.lam, args.f or "")
    if not args.backend.startswith("coxeter:"):
        raise InputError("gt act expects --backend coxeter:n,k")
    n, k = _ints(args.backend.split(":", 1)[1], "n,k")
    q = fpgroups.coxeter_quotient(_braid_n(n), k, args.budget_cosets)
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
    pair = gtaction.parse_pair(args.lam, args.f or "")
    images = gtaction.drinfeld_images(_braid_n(args.n), pair)
    return 0, {g: fpgroups.word_str(w) for g, w in images.items()}


def cmd_gt_stabilize(args):
    pair = gtaction.parse_pair(args.lam, args.f or "")
    _braid_n(args.n + 1)  # the subgroup lives in Br_(n+1)
    out = gtaction.stabilizes_bn_subgroup(args.n, pair, args.budget_cosets)
    return (0 if out["all_in"] else 1), out


def cmd_gt_gd_check(args):
    if args.m > MAX_DIHEDRAL_M:
        raise InputError(f"gd-check on I2({args.m}) exceeds the limit m <= {MAX_DIHEDRAL_M}")
    g = parse_word(args.g, ("a", "b")) if args.g else ()
    report = gtaction.check_gd_pair(args.m, args.lam, g, args.budget_cosets)
    return (0 if report["all_exact_conditions"] else 1), report


def cmd_monodromy_profile(args):
    if args.catalog:
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 3 with a
    JSON payload), not argparse's own exit 2, which here means "budget
    exceeded".  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="reflbench")
    top.add_argument("--json", help="also write the JSON payload to this path")
    top.add_argument("--budget-cosets", type=int, default=fpgroups.DEFAULT_COSET_BUDGET)
    top.add_argument("--budget-elements", type=int, default=matgroup.DEFAULT_ELEMENT_BUDGET)
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
    p.add_argument("--torsion", type=int, default=2)
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
    p.add_argument("--n", type=int, default=3)
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


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        code, payload = args.fn(args)
    except BudgetExceededError as exc:
        _emit({"error": "budget_exceeded", "message": str(exc)}, args)
        return 2
    except (InputError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": "input", "message": str(exc)}, args)
        return 3
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
