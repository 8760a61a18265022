import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import reflbench
from reflbench import arrangement, cli, cyclo, fpgroups, garside, mpoly
from reflbench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_monodromy_profile_catalog(capsys):
    code, out = run_cli(capsys, "monodromy", "profile", "--catalog", "G4_paper")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 24
    assert data["points"]["inf"] == [[6, 4]]
    assert data["genus"] == 3


def test_present_tc(capsys):
    code, out = run_cli(capsys, "present", "tc", "--catalog", "Br4", "--subgroup", "s1^2,s2,s3")
    assert code == 0
    assert json.loads(out)["index"] == 4


def test_garside_equal_lemma(capsys):
    code, out = run_cli(capsys, "garside", "equal", "--type", "D5", "--u", "w4 s2", "--v", "s3 w4")
    assert code == 0 and json.loads(out)["equal"] is True
    code, out = run_cli(capsys, "garside", "equal", "--type", "A2", "--u", "s1", "--v", "s2")
    assert code == 1 and json.loads(out)["equal"] is False


def test_garside_delta(capsys):
    code, out = run_cli(capsys, "garside", "delta", "--type", "I2(6)")
    data = json.loads(out)
    assert code == 0 and data["length"] == 6 and data["delta_squared_central"]


def test_gt_act(capsys):
    code, out = run_cli(
        capsys, "gt", "act", "--n", "3", "--lambda", "-1", "--f", "[x,y]", "--backend", "coxeter:3,3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["well_defined"] and data["bijective"]


_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from reflbench.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append((code, json.loads(out.getvalue())))
print(json.dumps(results))
"""


def test_exact_checks_run_without_numpy():
    commands = [
        ["group", "info", "--catalog", "G4"],
        ["group", "info", "--monomial", "2,2,4"],
        ["invariants", "check", "--catalog", "G12"],
        ["paper-suite", "--criteria", "3"],
    ]
    src = os.path.dirname(os.path.dirname(reflbench.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, json.dumps(commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )  # fmt: skip
    (c1, g4), (c2, g224), (c3, g12), (c4, suite) = json.loads(proc.stdout)
    assert (c1, c2, c3, c4) == (0, 0, 0, 0)
    assert g4["hermitian_form_positive_definite"] is True
    assert g224["hermitian_form_positive_definite"] is True
    assert g12["squarefree_distinct_roots"] is True
    [crit3] = suite["criteria"]
    assert crit3["id"] == 3 and crit3["passed"] is True
    assert crit3["details"]["squarefree_12_distinct_roots"] is True


def test_group_info(capsys):
    code, out = run_cli(capsys, "group", "info", "--monomial", "8,8,2")
    data = json.loads(out)
    assert code == 0
    assert data["order"] == 16
    assert data["field_of_definition"]["conductor"] == 8
    assert data["field_of_definition"]["fixing_subgroup"] == [1, 7]


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "invariants", "check", "--catalog", "G4")
    _, out2 = run_cli(capsys, "invariants", "check", "--catalog", "G4")
    assert out1 == out2
    _, p1 = run_cli(capsys, "monodromy", "profile", "--catalog", "G4_paper")
    _, p2 = run_cli(capsys, "monodromy", "profile", "--catalog", "G4_paper")
    assert p1 == p2


def test_exit_code_input_error(capsys):
    code, out = run_cli(capsys, "group", "info", "--catalog", "definitely-not-a-group")
    assert code == 3
    assert json.loads(out)["error"] == "input"


def test_exit_code_budget(capsys):
    code, out = run_cli(
        capsys, "--budget-cosets", "40", "present", "tc", "--catalog", "Br3", "--subgroup", ""
    )
    assert code == 2
    assert json.loads(out)["status"] == "budget_exceeded"


def test_exit_code_falsified(capsys):
    # two words that are not equal -> exit 1 (property violated)
    code, _ = run_cli(capsys, "garside", "equal", "--type", "A3", "--u", "s1 s2", "--v", "s2 s1")
    assert code == 1


def test_discriminant_roundtrip(capsys, tmp_path):
    code, out = run_cli(capsys, "arrangement", "discriminant", "--catalog", "S3_paper")
    assert code == 0
    data = json.loads(out)
    poly = mpoly.from_json(data["discriminant"])
    assert poly.total_degree() == data["degree"] == 6


def test_profile_genus_roundtrip(capsys, tmp_path):
    code, out = run_cli(capsys, "monodromy", "profile", "--catalog", "G4_paper")
    prof_file = tmp_path / "profile.json"
    prof_file.write_text(out)
    code2, out2 = run_cli(capsys, "monodromy", "genus", "--profile", str(prof_file))
    assert code2 == 0
    assert json.loads(out2)["genus"] == json.loads(out)["genus"]


def test_verify_map_cli(capsys):
    code, out = run_cli(
        capsys, "present", "verify-map", "--map", "g12_conj", "--backend", "torsion:2"
    )
    assert code == 0 and json.loads(out)["consistent"] is True


@pytest.mark.parametrize("name", sorted(cli._MAPS))
def test_verify_map_every_catalogued_map_on_torsion_quotient(capsys, name):
    code, out = run_cli(capsys, "present", "verify-map", "--map", name, "--backend", "torsion:2")
    data = json.loads(out)
    assert code == 0 and data["consistent"] is True and data["exact_proof"] is False
    assert data["map"] == cli._MAPS[name]().label and data["falsifier"] is None


def test_verify_map_on_garside_backend(capsys):
    argv = ["present", "verify-map", "--map", "i26_transported_conj", "--backend", "garside:I2(6)"]
    code, out = run_cli(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["consistent"] is True and data["exact_proof"] is True
    # a map into B(G13) has letters that type I2(6) does not know
    code, out = run_cli(capsys, "present", "verify-map", "--map", "i26_to_g13", "--backend", "garside:I2(6)")
    assert code == 3 and json.loads(out)["error"] == "input"


def test_paper_suite_single_criterion(capsys):
    code, out = run_cli(capsys, "paper-suite", "--criteria", "2,7")
    data = json.loads(out)
    assert code == 0 and data["all_passed"] is True
    assert {c["id"] for c in data["criteria"]} == {2, 7}


def test_paper_suite_defect_criterion_exits_nonzero(capsys):
    code, out = run_cli(capsys, "paper-suite", "--criteria", "4")
    data = json.loads(out)
    assert code == 1 and data["all_passed"] is False
    report = data["criteria"][0]
    assert report["details"]["profile_inf_4x6"] is True
    assert report["details"]["genus_equals_4_as_stated"] is False
    assert report["defects"]


def test_json_flag_writes_file(capsys, tmp_path):
    out_file = tmp_path / "out.json"
    code, out = run_cli(
        capsys, "--json", str(out_file), "garside", "delta", "--type", "A2"
    )
    assert code == 0
    assert json.loads(out_file.read_text()) == json.loads(out)


def test_paper_suite_stdout_deterministic(capsys):
    code1, out1 = run_cli(capsys, "paper-suite", "--criteria", "3,11")
    code2 = main(["paper-suite", "--criteria", "3,11"])
    captured = capsys.readouterr()
    assert code1 == code2 == 0 and captured.out == out1
    assert all("seconds" not in c for c in json.loads(out1)["criteria"])
    # the wall time of each criterion goes to stderr instead
    assert [line.split(":")[0] for line in captured.err.splitlines()] == [
        "criterion 3",
        "criterion 11",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["present", "quotient", "--coxeter", "3"],
        ["present", "quotient", "--coxeter", "3,x"],
        ["gt", "act", "--lambda", "1", "--backend", "coxeter:3"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "coxeter:3,3,3"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "torsion:x"],
        ["present", "tc", "--catalog", "CPx"],
        # a power quotient with k = 0 has the empty relator and is infinite
        ["present", "quotient", "--coxeter", "3,0"],
        ["present", "quotient", "--catalog", "G12", "--torsion", "0"],
        ["gt", "act", "--lambda", "1", "--backend", "coxeter:3,0"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "torsion:0"],
    ],
)
def test_malformed_integer_list_is_input_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == "input"


def _table_file(tmp_path, perms):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"generators": ["s", "t", "u"], "perms": perms}))
    return f"table:{path}"


def test_table_backend_accepts_true_permutations(capsys, tmp_path):
    from reflbench.fpgroups import g12_braid_presentation, torsion_quotient

    q = torsion_quotient(g12_braid_presentation(), 2)
    backend = _table_file(tmp_path, {g: list(p) for g, p in q.gen_perms.items()})
    code, out = run_cli(capsys, "present", "verify-map", "--map", "g12_conj", "--backend", backend)
    assert code == 0 and json.loads(out)["consistent"] is True


@pytest.mark.parametrize(
    "perms",
    [
        {"s": [1, 0, 2], "t": [0, 2], "u": [0, 1, 2]},  # unequal lengths
        {"s": [0, 0, 1], "t": [0, 1, 2], "u": [0, 1, 2]},  # not a bijection
        {"s": [0, 1, 2], "t": [0, 1, 3], "u": [0, 1, 2]},  # point out of range
        {"s": [0, 1, 2]},  # generators t and u have no perm
    ],
    ids=["unequal-length", "not-bijective", "out-of-range", "missing-perm"],
)
def test_table_backend_rejects_non_permutations(capsys, tmp_path, perms):
    backend = _table_file(tmp_path, perms)
    code, out = run_cli(capsys, "present", "verify-map", "--map", "g12_conj", "--backend", backend)
    assert code == 3
    assert json.loads(out)["error"] == "input"



def _cyc(n: int) -> dict:
    return {"order": 1, "coeffs": [[str(n), "1"]]}


@pytest.mark.parametrize(
    "command", [["group", "info"], ["arrangement", "supersolvable"], ["arrangement", "discriminant"]]
)
@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "explicit", "generators": [[_cyc(-1)], [_cyc(0), _cyc(1), _cyc(1), _cyc(0)]]},
        {"kind": "explicit", "generators": [[1, 0, 0, 1]]},
        {"kind": "explicit", "generators": [[]]},
        {"kind": "explicit", "generators": [[_cyc(1), _cyc(0), _cyc(0), _cyc(0)]]},
        {"kind": "monomial", "d": 2},
        {"kind": "monomial", "d": "two", "e": 1, "n": 2},
        {"kind": "catalog"},
        ["not", "an", "object"],
        {"kind": "explicit", "generators": [[{"order": 1, "coeffs": [["1", "0"]]}]]},
        {"kind": "explicit", "generators": [[{"order": 1, "coeffs": [[-1.5, 1]]}]]},
    ],
    ids=[
        "mixed-dimension",
        "entry-not-cycnum",
        "empty-generator",
        "singular-generator",
        "missing-e",
        "d-not-int",
        "missing-name",
        "not-object",
        "zero-denominator",
        "float-coefficient",
    ],
)
def test_malformed_group_spec_is_input_error(capsys, tmp_path, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, *command, "--spec", str(path))
    assert code == 3
    assert json.loads(out)["error"] == "input"


def test_group_spec_order_over_cap_is_input_error(capsys, tmp_path):
    n = cyclo.MAX_JSON_ORDER + 1
    entry = {"order": n, "coeffs": [["1", "1"]] * cyclo.euler_phi(n)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "explicit", "generators": [[entry]]}))
    code, out = run_cli(capsys, "group", "info", "--spec", str(path))
    assert code == 3
    assert json.loads(out)["error"] == "input"


@pytest.mark.parametrize(
    "command, content",
    [
        (["monodromy", "genus", "--profile"], {"points": {}}),
        (["monodromy", "genus", "--profile"], {"degree": 3, "points": {"0": [[2]]}}),
        (["present", "verify-map", "--catalog", "G12", "--map-file"], {}),
        (["group", "info", "--spec"], None),  # the path is a directory
    ],
    ids=["profile-no-degree", "profile-short-cycle", "map-no-images", "spec-is-directory"],
)
def test_malformed_input_file_is_input_error(capsys, tmp_path, command, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
    code, out = run_cli(capsys, *command, str(path))
    assert code == 3
    assert json.loads(out)["error"] == "input"


def _count_lattices(monkeypatch):
    calls = []
    build = arrangement.intersection_lattice

    def counted(arr):
        calls.append(arr)
        return build(arr)

    monkeypatch.setattr(arrangement, "intersection_lattice", counted)
    return calls


def test_supersolvable_oracle_over_its_limit_builds_no_lattice(capsys, monkeypatch):
    calls = _count_lattices(monkeypatch)
    argv = ["arrangement", "supersolvable", "--oracle", "--monomial", "2,2,6"]
    code, out = run_cli(capsys, *argv)
    assert code == 2 and json.loads(out)["error"] == "budget_exceeded"
    assert calls == []


def test_supersolvable_oracle_builds_one_lattice(capsys, monkeypatch):
    calls = _count_lattices(monkeypatch)
    argv = ["arrangement", "supersolvable", "--oracle", "--monomial", "2,1,3"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["supersolvable"] is True and data["oracle_agrees"] is True
    assert len(calls) == 1


def test_verify_map_backend_honours_coset_budget(capsys):
    argv = ["present", "verify-map", "--map", "cp_conj_4_4", "--backend", "torsion:2"]
    code, out = run_cli(capsys, "--budget-cosets", "10", *argv)
    assert code == 2
    assert json.loads(out)["error"] == "budget_exceeded"


def test_quotient_budget_caps_the_quotient_degree(capsys):
    # Br4/s^3 has 648 elements; its enumeration over <s1> defines 228 cosets
    argv = ["present", "quotient", "--coxeter", "4,3"]
    code, out = run_cli(capsys, "--budget-cosets", "647", *argv)
    assert code == 2 and json.loads(out)["error"] == "budget_exceeded"
    code, out = run_cli(capsys, "--budget-cosets", "648", *argv)
    assert code == 0 and json.loads(out)["order"] == 648


def test_explicit_group_spec_still_builds(capsys, tmp_path):
    path = tmp_path / "spec.json"
    swap = [_cyc(0), _cyc(1), _cyc(1), _cyc(0)]
    path.write_text(json.dumps({"kind": "explicit", "generators": [swap]}))
    code, out = run_cli(capsys, "arrangement", "supersolvable", "--spec", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["hyperplanes"] == 1 and data["supersolvable"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["present", "verify-map", "--map", "cp_conj_4_4", "--backend", "torsion:2", "--budget-cosets", "10"],
        ["nosuchcmd"],
        ["monodromy", "profile"],
    ],
    ids=["global-flag-after-subcommand", "unknown-command", "monodromy-profile-without-source"],
)
def test_usage_error_is_input_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == "input"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: reflbench")


@pytest.mark.parametrize(
    "argv",
    [
        ["garside", "delta", "--type", f"A{garside.MAX_RANK + 1}"],
        ["garside", "delta", "--type", f"I2({garside.MAX_LETTERS + 1})"],
        ["garside", "nf", "--type", "A3", "--word", f"s1^{garside.MAX_LETTERS + 1}"],
        ["garside", "nf", "--type", "A3", "--word", f"s1^{garside.MAX_LETTERS} s2"],
        ["garside", "nf", "--type", "A3", "--word", f"(s1 s2)^{garside.MAX_LETTERS // 2 + 1}"],
        ["garside", "nf", "--type", "A3", "--word", "((s1 s2)^1000000)^1000000"],
        ["garside", "nf", "--type", "A3", "--word", "s1^" + "9" * 5000],
        # eta5 stands for 8 letters
        ["garside", "equal", "--type", "D5", "--u", f"eta5^{garside.MAX_LETTERS // 8 + 1}", "--v", "s1"],
    ],
    ids=[
        "rank",
        "dihedral-m",
        "letters",
        "concatenation",
        "power",
        "nested-power",
        "exponent-digits",
        "abbreviation",
    ],
)
def test_garside_inputs_past_the_caps_are_input_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == "input"


@pytest.mark.parametrize("word", ["(s1 s1^-1)^1000000000", "()^1000000000", "[s1,s1]^1000000000"])
def test_garside_powers_of_the_empty_word_are_empty(capsys, word):
    code, out = run_cli(capsys, "garside", "nf", "--type", "A3", "--word", word)
    assert code == 0
    assert json.loads(out) == {"type": "A3", "delta_power": 0, "factors": []}


def test_garside_caps_leave_other_commands_alone(capsys, tmp_path):
    m = garside.MAX_LETTERS + 1
    code, out = run_cli(capsys, "gt", "gd-check", "--m", str(m), "--lambda", "1")
    assert code == 0
    assert json.loads(out)["m"] == m
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"images": {"s1": "s2", "s2": "s1", "s3": "s3"}}))
    backend = f"garside:A{garside.MAX_RANK + 1}"
    code, out = run_cli(
        capsys, "present", "verify-map", "--catalog", "Br4", "--map-file", str(swap), "--backend", backend
    )
    assert code == 1
    assert json.loads(out)["falsifier"][0] == backend


def test_garside_inputs_at_the_caps_run(capsys):
    code, _ = run_cli(capsys, "garside", "nf", "--type", "A3", "--word", f"s1^{garside.MAX_LETTERS}")
    assert code == 0
    code, out = run_cli(capsys, "garside", "delta", "--type", f"B{garside.MAX_RANK}")
    assert code == 0
    assert json.loads(out)["length"] == garside.MAX_RANK**2


@pytest.mark.parametrize(
    "argv",
    [["gt", "stabilize", "--n", "3", "--lambda", "1"], ["gt", "gd-check", "--m", "6", "--lambda", "1"]],
    ids=["stabilize", "gd-check"],
)
def test_gt_commands_honour_coset_budget(capsys, argv):
    code, out = run_cli(capsys, "--budget-cosets", "3", *argv)
    assert code == 2
    assert json.loads(out)["error"] == "budget_exceeded"
    code, _ = run_cli(capsys, *argv)
    assert code == 0


LETTERS_PAST_CAP = f"(x y)^{fpgroups.MAX_WORD_LETTERS // 2 + 1}"
STRANDS_PAST_CAP = cli.MAX_STRANDS + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gt", "images", "--n", "3", "--lambda", "1", "--f", LETTERS_PAST_CAP],
        ["gt", "act", "--lambda", "1", "--f", LETTERS_PAST_CAP, "--backend", "coxeter:3,3"],
        ["present", "tc", "--catalog", "Br3", "--subgroup", f"s1^{fpgroups.MAX_WORD_LETTERS + 1}"],
        ["gt", "stabilize", "--n", str(STRANDS_PAST_CAP - 1), "--lambda", "1"],
        ["gt", "images", "--n", str(STRANDS_PAST_CAP), "--lambda", "1"],
        ["present", "tc", "--catalog", f"Br{STRANDS_PAST_CAP}"],
        ["present", "tc", "--catalog", f"ArtD{STRANDS_PAST_CAP}"],
        ["present", "quotient", "--coxeter", f"{STRANDS_PAST_CAP},3"],
        ["gt", "act", "--lambda", "1", "--backend", f"coxeter:{STRANDS_PAST_CAP},3"],
        ["gt", "gd-check", "--m", str(cli.MAX_DIHEDRAL_M + 1), "--lambda", "1"],
    ],
    ids=[
        "images-letters",
        "act-letters",
        "subgroup-letters",
        "stabilize-strands",
        "images-strands",
        "braid-strands",
        "artin-d-rank",
        "coxeter-strands",
        "act-strands",
        "gd-check-m",
    ],
)
def test_inputs_past_the_word_and_strand_caps_are_input_errors(capsys, argv):
    code, out = run_cli(capsys, "--budget-cosets", "100", *argv)
    assert code == 3
    assert json.loads(out)["error"] == "input"


def test_inputs_at_the_word_and_strand_caps_run(capsys):
    f = f"[x,y]^{fpgroups.MAX_WORD_LETTERS // 4}"
    code, out = run_cli(capsys, "gt", "images", "--n", "3", "--lambda", "1", "--f", f)
    assert code == 0
    assert len(json.loads(out)) == 2
    n = cli.MAX_STRANDS - 1
    code, out = run_cli(capsys, "gt", "stabilize", "--n", str(n), "--lambda", "1", "--f", "[x,y]")
    assert code == 0
    assert json.loads(out)["index"] == n + 1


def test_cli_contract_holds_for_fuzzed_argv():
    """Every argv of a small grammar, malformed words and misplaced global
    flags included, exits 0-3 with one JSON object on stdout."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def argv(*parts):
        parts = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
        return st.tuples(*parts).map(list)

    word = st.sampled_from(
        ["", "s1", "s1^2,s2", "s1^", "(s1", "s9", "[x,y]", "[x^2,y", "x y X Y", "a^2", "[a^2,b^2]", "1"]
    )
    catalog = st.sampled_from(
        ["Br3", "Br4", "Br", "Br1", "ArtBx", "ArtB3", "ArtD4", "CP3,3", "CPx", "G12", "I2(6)", "nosuch"]
    )
    small = st.sampled_from(["-1", "0", "1", "2", "3", "6", "x", "3,3", "4,3", "5,3"])
    gtype = st.sampled_from(["A3", "B3", "D4", "I2(6)", "Z2", "A", "D1"])
    command = st.one_of(
        argv("present", "tc", "--catalog", catalog, "--subgroup", word),
        argv("present", "quotient", "--coxeter", small),
        argv("present", "quotient", "--catalog", catalog, "--torsion", small),
        argv("gt", "stabilize", "--n", small, "--lambda", small, "--f", word),
        argv("gt", "gd-check", "--m", small, "--lambda", small, "--g", word),
        argv("gt", "images", "--n", small, "--lambda", small, "--f", word),
        argv("garside", "nf", "--type", gtype, "--word", word),
        argv(st.sampled_from(["nosuchcmd", "present", "gt", "--seed"])),
    )
    # a small coset budget always comes along, so infinite presentations
    # such as Br3 stay cheap; it is given before the command or misplaced after
    budget = st.sampled_from(["-1", "40", "1000", "x"])

    @hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @hypothesis.given(command, budget, st.booleans())
    def check(cmd, limit, before):
        flag = ["--budget-cosets", limit]
        argv = flag + cmd if before else cmd + flag
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert isinstance(json.loads(out.getvalue()), dict), argv

    check()
