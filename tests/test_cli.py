import argparse
import ast
import collections
import contextlib
import enum
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reflbench
from reflbench import arrangement, cli, cyclo, fpgroups, garside, invariants, mpoly, suite
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--budget-cosets", "-5", "present", "tc", "--catalog", "Br3", "--subgroup", "s1,s2"], "a budget must be at least 1, got -5"),
        (["--budget-cosets", "0", "present", "quotient", "--coxeter", "3,3"], "a budget must be at least 1, got 0"),
        (["--budget-cosets", "x", "present", "quotient", "--coxeter", "3,3"], "invalid int value: 'x'"),
        (["--budget-elements", "-3", "group", "info", "--monomial", "2,1,2"], "a budget must be at least 1, got -3"),
        (["--budget-elements", "0", "group", "info", "--monomial", "2,1,2"], "a budget must be at least 1, got 0"),
        (["--budget-elements", "1.5", "group", "info", "--monomial", "2,1,2"], "invalid int value: '1.5'"),
    ],
    ids=["cosets-negative", "cosets-zero", "cosets-not-int", "elements-negative", "elements-zero", "elements-not-int"],
)
def test_budget_flags_take_integers_of_at_least_one(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": f"reflbench: argument {argv[0]}: {message}"}
    argv[1] = "1"
    assert run_cli(capsys, *argv)[0] in (0, 2)


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


DISCONNECTED_COVER = {
    "group": {"kind": "monomial", "d": 2, "e": 1, "n": 3},
    "fiber": {"subgroup": ["g1", "g3 g2^-1"]},
    "x": "g1 g2",
    "y": "g3^-1 g2 g2",
}


def test_disconnected_cover_has_no_genus(capsys, tmp_path):
    # two unramified sheets: Riemann-Hurwitz over the whole fiber would read genus -1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(DISCONNECTED_COVER))
    code, out = run_cli(capsys, "monodromy", "profile", "--spec", str(spec))
    profile = json.loads(out)
    assert code == 0 and profile["genus"] is None
    assert profile["transitive"] is False and profile["degree"] == 2
    path = tmp_path / "profile.json"
    path.write_text(out)
    code, out = run_cli(capsys, "monodromy", "genus", "--profile", str(path))
    assert code == 0 and json.loads(out) == {"genus": None}
    # the same profile claimed connected is inconsistent
    path.write_text(json.dumps({**profile, "transitive": True}))
    code, out = run_cli(capsys, "monodromy", "genus", "--profile", str(path))
    assert code == 3 and "negative genus -1" in json.loads(out)["message"]


def test_genus_of_a_point_that_is_no_list_of_pairs_is_an_input_error(capsys, tmp_path):
    # its keys used to be read character by character: genus 0, exit 0
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"degree": 6, "points": {"0": {"61": 1}, "1": {"61": 1}, "inf": {"16": 1}}}))
    code, out = run_cli(capsys, "monodromy", "genus", "--profile", str(path))
    assert code == 3
    message = "malformed ramification profile: point 0: cycles must be a list of [length, count] pairs"
    assert json.loads(out) == {"error": "input", "message": message}


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
    assert out_file.read_text() == out  # the same bytes, one trailing newline each


def _oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def test_dumps_is_json_dumps_with_indent_byte_for_byte():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(st.one_of(st.sampled_from('"\\/\b\n\t\x00\x1f\x7fé \U0001f600'), st.characters()), max_size=6)
    leaf = st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), st.floats(), text
    )  # st.floats() draws nan and both infinities too
    tree = st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=3).map(tuple),
            st.dictionaries(text, kids, max_size=4),
            st.dictionaries(st.integers(-(10**20), 10**20), kids, max_size=4),
        ),
        max_leaves=40,
    )

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(tree)
    def check(payload):
        assert cli._dumps(payload) == _oracle(payload)

    check()


class _Float(float):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [[], {}, [[{}]]],
        {10: "b", 9: "a", -1: None},  # int keys sort as numbers, then print as strings
        {2.5: 0, True: 1},
        {False: [None]},
        {None: ()},
        {float("nan"): [float("inf"), -float("inf"), -0.0, 1e300]},
        # subclasses print as their base class
        {enum.IntEnum("E", "A B").B: enum.IntEnum("F", "X").X},
        collections.OrderedDict(z=(1,), a=[_Float(0.5)]),
        {"nested": collections.defaultdict(list, k=[_Float("inf")])},
        {_Str("k\u00e9"): [_Str('q"\n')]},
    ],
)
def test_dumps_matches_json_dumps_on_fixed_payloads(payload):
    assert cli._dumps(payload) == _oracle(payload)


@pytest.mark.parametrize(
    "payload", [{"a": 1, 2: 3}, {"k": [{(1, 2): 0}]}, [1, {1, 2}], {"x": b"bytes"}, {"c": 1j}],
    ids=["str-and-int-keys", "tuple-key", "set", "bytes", "complex"],
)
def test_dumps_raises_where_json_dumps_raises(payload):
    messages = []
    for write in (cli._dumps, _oracle):
        with pytest.raises(TypeError) as exc:
            write(payload)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("argv", [["garside", "delta", "--type", "A2"], ["no-such-command"]])
def test_python_m_reflbench_runs_the_cli(capsys, argv):
    code, out = run_cli(capsys, *argv)
    src = os.path.dirname(os.path.dirname(reflbench.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "reflbench", *argv], capture_output=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert (proc.returncode, proc.stdout) == (code, out.encode())


@pytest.mark.parametrize("source", ["G4", "NOPE"])
def test_unwritable_json_file_is_an_input_error(capsys, tmp_path, source):
    # the answer (exit 0) and the error payload (exit 3) alike: one input-error
    # document on stdout, no traceback
    path = tmp_path / "missing" / "out.json"
    code, out = run_cli(capsys, "--json", str(path), "group", "info", "--catalog", source)
    data = json.loads(out)
    assert code == 3 and data["error"] == "input" and str(path) in data["message"]
    assert not path.parent.exists()


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    sequence = [
        (0, ["group", "info", "--catalog", "G4"]),
        (1, ["garside", "equal", "--type", "A2", "--u", "s1", "--v", "s2"]),
        (2, ["invariants", "compute", "--monomial", "2,1,5"]),
        (3, ["no-such-command"]),
        (3, ["garside", "delta", "--type", "A2", "--seed", "3"]),  # a global flag after the subcommand
        (3, ["present", "quotient", "--coxeter", "3"]),
        ("help", ["--help"]),
    ]
    passes = []
    for _ in range(2):
        outputs = []
        for expected, argv in sequence:
            if expected == "help":
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 0
            else:
                assert main(argv) == expected, argv
            outputs.append(capsys.readouterr().out)
        passes.append(outputs)
    assert passes[0] == passes[1]
    # a --json path given once is not written by the next call
    first = tmp_path / "first.json"
    assert main(["--json", str(first), "garside", "delta", "--type", "A2"]) == 0
    first.unlink()
    assert main(["garside", "delta", "--type", "A2"]) == 0
    assert not first.exists()


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
    # empty perms are permutations of no points, so every relator holds
    backend = _table_file(tmp_path, {g: [] for g in "stu"})
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
        # profiles that no cover has, which printed a genus with exit 0
        (["monodromy", "genus", "--profile"], {"degree": 1, "points": {"0": [[3, 2]]}}),
        (["monodromy", "genus", "--profile"], {"degree": 0, "points": {}}),
        (["present", "verify-map", "--catalog", "G12", "--map-file"], {}),
        (["group", "info", "--spec"], None),  # the path is a directory
        # integer fields given as floats or bools, which were truncated and
        # printed an answer with exit 0
        (["group", "info", "--spec"], {"kind": "monomial", "d": 4.9, "e": 2, "n": 2}),
        (["group", "info", "--spec"], {"kind": "monomial", "d": 2, "e": 1, "n": True}),
        (["monodromy", "genus", "--profile"],
         {"degree": 4.9, "points": {"0": [[2, 2]], "1": [[2, 2]], "inf": [[2.6, 2]]}}),
        (["group", "info", "--spec"],
         {"kind": "explicit", "generators": [[{"order": 1, "coeffs": [["-1", "1"]]}]], "label": 7}),
        # "transitive" that is not a JSON boolean: the string "false" read as
        # true and exited 3 with "negative genus -1"
        (["monodromy", "genus", "--profile"],
         {"degree": 2, "points": {"0": [[1, 2]], "1": [[1, 2]]}, "transitive": "false"}),
        (["monodromy", "genus", "--profile"],
         {"degree": 2, "points": {"0": [[1, 2]], "1": [[1, 2]]}, "transitive": 0}),
    ],
    ids=["profile-no-degree", "profile-short-cycle", "profile-cycles-exceed-degree", "profile-degree-zero",
         "map-no-images", "spec-is-directory", "spec-float-d", "spec-bool-n", "profile-float-degree",
         "spec-label-not-string", "profile-transitive-string", "profile-transitive-int"],
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


@pytest.mark.parametrize("command, what", [("discriminant", "discriminant"), ("supersolvable", "lattice")])
def test_arrangements_past_the_lattice_budget_exit_2_at_once(capsys, command, what):
    # S7 acts on C^7; with no bound its discriminant ran past 60 s
    start = time.perf_counter()
    code, out = run_cli(capsys, "arrangement", command, "--monomial", "1,1,7")
    elapsed = time.perf_counter() - start
    assert code == 2
    message = f"{what} budget is dim <= 6 and <= 60 hyperplanes"
    assert json.loads(out) == {"error": "budget_exceeded", "message": message}
    assert elapsed <= 1, f"arrangement {command} --monomial 1,1,7 took {elapsed:.2f} s to exit 2"


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
    # each table of the chain of parabolics has far fewer cosets than the order
    for n, order in ((4, 648), (5, 155_520)):
        argv = ["present", "quotient", "--coxeter", f"{n},3"]
        code, out = run_cli(capsys, "--budget-cosets", str(order - 1), *argv)
        assert code == 2 and json.loads(out) == {
            "error": "budget_exceeded",
            "message": f"cannot build quotient Br{n}/s^3: {order} points exceed the coset budget {order - 1}",
        }
        code, out = run_cli(capsys, "--budget-cosets", str(order), *argv)
        assert code == 0 and json.loads(out)["order"] == order


def test_quotient_over_the_budget_stops_before_counting(capsys):
    # S_10 has 10 cosets of S_9, and 10 x 9! = 3,628,800 points exceed the
    # budget, so the 362,880 elements of S_9 are never counted
    start = time.perf_counter()
    code, out = run_cli(capsys, "present", "quotient", "--coxeter", "10,2")
    elapsed = time.perf_counter() - start
    assert code == 2 and "3628800 points exceed" in json.loads(out)["message"]
    assert elapsed <= 2, f"present quotient --coxeter 10,2 took {elapsed:.2f} s to exit 2"


def _workload_lists(*names) -> dict:
    """The named input lists of the benchmark's workloads, read from its
    source without importing it."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    values = {}
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in names:
                values[node.targets[0].id] = ast.literal_eval(node.value)
    return values


def test_quotient_orders_build_no_regular_table(capsys, monkeypatch):
    lists = _workload_lists("COXETER", "LARGE_COXETER", "TORSION")
    expected = {}
    for n, k in lists["COXETER"] + [lists["LARGE_COXETER"], (3, -3)]:
        q = fpgroups.coxeter_quotient(n, k)
        expected["--coxeter", f"{n},{k}"] = {"quotient": q.label, "order": q.degree}
    for name in lists["TORSION"]:
        pres = cli._load_presentation(argparse.Namespace(catalog=name, pres=None))
        q = fpgroups.torsion_quotient(pres, 2)
        expected["--catalog", name, "--torsion", "2"] = {"quotient": q.label, "order": q.degree}
    criterion_7 = suite.criterion_7_coxeter_quotients().details

    def no_regular_table(*args):
        raise AssertionError("the regular permutation table was built")

    monkeypatch.setattr(fpgroups.PermQuotient, "columns", property(no_regular_table))
    for flags, payload in expected.items():
        code, out = run_cli(capsys, "present", "quotient", *flags)
        assert code == 0 and out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert suite.criterion_7_coxeter_quotients().details == criterion_7
    assert all(criterion_7.values()) and len(criterion_7) == 5
    # the budget rule and the k = 0 refusal belong to the enumeration step
    argv = ["present", "quotient", "--coxeter", "4,3"]
    assert run_cli(capsys, "--budget-cosets", "647", *argv)[0] == 2
    assert run_cli(capsys, "--budget-cosets", "648", *argv)[0] == 0
    assert run_cli(capsys, "present", "quotient", "--coxeter", "3,0")[0] == 3


def test_br5_s3_quotient_time_budget(capsys):
    # time budget: 0.5 s for Br5/s^3 in-process, about 0.03 s on a 2-vCPU VM
    start = time.perf_counter()
    code, out = run_cli(capsys, "present", "quotient", "--coxeter", "5,3")
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["order"] == 155_520
    assert elapsed <= 0.5, f"present quotient --coxeter 5,3 took {elapsed:.2f} s, over its 0.5 s budget"


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
        ["present", "quotient", "--coxeter", "3,3", "--catalog", "G12"],
        ["present", "quotient", "--coxeter", "3,3", "--pres", "/nonexistent.json"],
        ["present", "quotient", "--coxeter", "3,3", "--torsion", "5"],
        ["present", "quotient", "--catalog", "G12", "--pres", "/nonexistent.json"],
        ["present", "tc", "--catalog", "Br3", "--pres", "/nonexistent.json"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "torsion:2", "--catalog", "G13"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "torsion:2", "--pres", "/none.json"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "torsion:2", "--catalog", "G13",
         "--pres", "/nonexistent.json"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", "torsion:2", "--map-file", "/none.json"],
    ],
    ids=[
        "global-flag-after-subcommand",
        "unknown-command",
        "monodromy-profile-without-source",
        "coxeter-with-catalog",
        "coxeter-with-pres",
        "coxeter-with-torsion",
        "quotient-catalog-with-pres",
        "tc-catalog-with-pres",
        "catalogued-map-with-catalog",
        "catalogued-map-with-pres",
        "catalogued-map-with-catalog-and-pres",
        "catalogued-map-with-map-file",
    ],
)
def test_usage_error_is_input_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == "input"


def test_verify_map_file_with_catalog_and_pres_is_input_error(capsys, tmp_path):
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"images": {"s1": "s2", "s2": "s1"}, "backend": "torsion:2"}))
    argv = ["present", "verify-map", "--map-file", str(swap), "--catalog", "Br3", "--pres", str(swap)]
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": "give --catalog or --pres, not both"}


def test_uncatalogued_map_name_labels_a_map_file(capsys, tmp_path):
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"images": {"s1": "s2", "s2": "s1"}, "backend": "torsion:2"}))
    argv = ["present", "verify-map", "--map", "swap", "--map-file", str(swap), "--catalog", "Br3"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["map"] == "swap"


def test_map_file_runs_on_its_source(capsys, tmp_path):
    # images in <s, t> are not words of Br3, the group --catalog names, so
    # torsion:2 refuses them; B(G12)+torsion is never guessed from the letters
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"images": {"s1": "s", "s2": "t"}, "target_generators": ["s", "t"]}))
    argv = ["present", "verify-map", "--map-file", str(path), "--catalog", "Br3", "--backend"]
    code, out = run_cli(capsys, *argv, "torsion:2")
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": "word uses 's', unknown in quotient Br3+torsion"}
    # target_generators is the alphabet of a backend whose spec names the group
    path.write_text(json.dumps({"images": {"s1": "a", "s2": "b"}, "target_generators": ["a", "b"]}))
    code, out = run_cli(capsys, *argv, "garside:I2(3)")
    assert code == 0 and json.loads(out)["exact_proof"] is True
    code, out = run_cli(capsys, *argv, "torsion:2")
    assert code == 3 and json.loads(out)["error"] == "input"


# sha256 of the stdout of `invariants compute`, taken from the per-element
# Reynolds implementation (G(1,1,3) from the generator kernel that replaced
# it); the answers are pinned byte for byte
INVARIANTS_COMPUTE_DIGESTS = {
    "--catalog G4": "fb061fa933f04668ea025c708399cea55c0bdc68f74d00bfd50120068991a86a",
    "--catalog S3_paper": "58bf479fd87f5fed94990e5033cce783fa0564768deb44361ca6c4dc1b824e97",
    "--monomial 2,2,3": "262b283c082b0b2b77d4b9823aa68d351c729813fc8b9f1e268ef039c46c44ea",
    "--monomial 3,3,3": "a176191cf07c3a89c1dca974325ca78ffffdf1251c0c3fc51bcb1cc244b02c41",
    "--monomial 2,2,4": "056fb1deed9e7b357e76c1b2929dc6e3d5fffb84e30c02f0ad6a348ca9a0b597",
    "--monomial 3,1,3": "04626c3fe595226a2cae3054adf825573c2335ef3649ddb18a18e8fe48816592",
    "--monomial 1,1,3": "9b50b645bdc097420f1cb52daf81b315f0022f50c131c9909b2eae758e67feec",
}


@pytest.mark.parametrize("source", sorted(INVARIANTS_COMPUTE_DIGESTS))
def test_invariants_compute_stdout_is_pinned(capsys, source):
    code, out = run_cli(capsys, "invariants", "compute", *source.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INVARIANTS_COMPUTE_DIGESTS[source]


# sha256 of the stdout of `group info` on groups whose trace orders have an
# lcm with several prime factors, so `field_of_definition` walks its divisors
GROUP_INFO_DIGESTS = {
    "12,12,2": "08bc4ea13dacae546e373b9784a0ec50d1b7bdb1e062a025b642c0a8e3b82d16",
    "15,15,2": "4de2372599d9419735585c43a8b02f2d1ddc2f18944e2d74c66d443999b3841e",
    "24,24,2": "f1b182e091c28fc610c0399bcee943eb508620cc814ad60599e998cf418aae4c",
    "10,5,2": "3b6b8bae38c9427c7351c3a000497fd927fd53c4a2563b7e9e13d7239e98b970",
}


@pytest.mark.parametrize("monomial", sorted(GROUP_INFO_DIGESTS))
def test_group_info_stdout_is_pinned(capsys, monomial):
    code, out = run_cli(capsys, "group", "info", "--monomial", monomial)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_INFO_DIGESTS[monomial]


# sha256 over the exit codes and stdouts of `arrangement discriminant` and
# `arrangement supersolvable`, taken while Delta was still multiplied out one
# hyperplane at a time; the groups are those of the `arrangements` workload
# and six more of rank 3 to 5
DISCRIMINANT_DIGESTS = {
    "--catalog G4": "f7af335704a417a6aca0f774a65d380fb05ca65440d5745d6b78335c6a247f4b",
    "--catalog S3_paper": "dbdea88eeb193e3f14436499a6faf3d61093b9c4a5760d11ecb2a679061f8b64",
    "--monomial 2,1,2": "86eaa5c41e0de8298acedf4f55dce27c3c6fcaadd8acf20d6b6c2ea6eafedfcf",
    "--monomial 3,1,2": "09b533425c3dbc69af721d1d6517d9a60355fec97821d877107de6039c93f86a",
    "--monomial 3,3,2": "569aa481528ae6bfbbd1af47679e70ec99cc4a5f1db67302cac37bdcfb2a8e10",
    "--monomial 4,1,2": "23b2a43c8dcbe919e84990e64ba8916810c65f778510edb7ea8e8fa2b6f2b09a",
    "--monomial 4,4,2": "46e2b552e8c1752011e52a265523bca52173afacaf3e0ea85bf89df5f1a49b1a",
    "--monomial 5,5,2": "0217d7dab414c28c681bea071427c1b3e4acd8bb8f5e7688077eef12e376d6e3",
    "--monomial 6,6,2": "70eb50d129e73953c46a2db0df6353c7f71850b1944a9317cbbbfb2551c63014",
    "--monomial 8,8,2": "1f3a639ef48715c7ad68460d1d1c4543611fada79383af90c43061a8ed76a8aa",
    "--monomial 1,1,3": "b7f439544c3cc7cc1f99d04cabec6068d242f47538a7b45a1279fa54d5fd45b7",
    "--monomial 2,1,3": "db0d176ee4f2a78be5683fcef424ef6a22bdc446ed62e2da9c8180df304edc22",
    "--monomial 2,2,3": "764e49d2826a29aa371aa29950178572dcd7d521a44d2128e6b955e393bab59e",
    "--monomial 3,1,3": "eac61d93fb37686c3d749c6088a2d8a33f5d3a9eb14a44b0c6430f59540b3b5e",
    "--monomial 3,3,3": "6d7490076dd4334a5194a8ee5d2e44b219de947a953109f4bd64a5884059862f",
    "--monomial 4,2,3": "a849fb52e674609a8492806d074646ef1f6b71932aefce6c3f557d59ead41aab",
    "--monomial 4,4,3": "4ef38d61fa9306ded3d37064f2360ca7921446975a4d07126054d8fd8d5ef437",
    "--monomial 6,3,3": "587b9b1908d1d2391aea374ef1067824fc6eb3d05f87761de770d22cc671a2a6",
    "--monomial 1,1,4": "ef77eee7bf20497c61499f974d066ffa4601d1d4335be723d93247c93e811b4d",
    "--monomial 2,1,4": "5384fc9389c65274f3cd9baa7802d8ce25fab4646a5261ef8c08d07ab69ce37b",
    "--monomial 2,2,4": "ca5e0403d2550db4a4cdf0da8e086b9e142e6a757b253d411be521fb1d55c811",
    "--monomial 3,3,4": "ede63b11267980d873b15caa416e94ed217303148052eb7a0152dc68682c07db",
    "--monomial 2,2,5": "8b5168cd69547f2984ed534a8d88c653c53c593d38cd9a077a2d58e3f0e10b0f",
}


def test_discriminant_digests_cover_the_arrangements_workload():
    lists = _workload_lists("SUPERSOLVABLE", "ORACLE_POOL", "LATTICE", "DISCRIMINANT")
    groups = {g for values in lists.values() for g in values}
    sources = {
        f"--catalog {g}" if isinstance(g, str) else "--monomial " + ",".join(map(str, g))
        for g in groups
    }
    assert sources <= set(DISCRIMINANT_DIGESTS)


@pytest.mark.parametrize("source", list(DISCRIMINANT_DIGESTS))
def test_discriminant_stdout_is_pinned(capsys, source):
    digest = hashlib.sha256()
    for command in ("discriminant", "supersolvable"):
        code, out = run_cli(capsys, "arrangement", command, *source.split())
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == DISCRIMINANT_DIGESTS[source]


# sha256 over the exit code and stdout of `arrangement supersolvable`, taken
# while the lattice was still built by an elimination at every flat; these
# are the lattices of 403 to 2,546 flats
SUPERSOLVABLE_DIGESTS = {
    "2,2,5": "9a356220d2014bb6b2135d43bb837630c206fb8be5da0a36af7e7c82fe2cd13c",
    "2,1,5": "859f42f63ca25ddf1fa5e01442ddb5fbfbd41455c6d3fbf6bec550e98ad7360a",
    "3,3,5": "44104fbbaa384770a895e51932cdcfda04a935d53106f3b8f480c37830970e96",
    "2,2,6": "8031eec7639b7441e01fe87b0e041ad57b8c8fb3b71b98220613e5ba391be644",
}


@pytest.mark.parametrize("monomial", list(SUPERSOLVABLE_DIGESTS))
def test_supersolvable_stdout_is_pinned(capsys, monomial):
    code, out = run_cli(capsys, "arrangement", "supersolvable", "--monomial", monomial)
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == SUPERSOLVABLE_DIGESTS[monomial]


# sha256 over the exit codes and stdouts of `gt gd-check --m m` for every
# lambda and g below, taken when the kernel test still went through Schreier
# rewriting and an integer Hermite reduction; the words include pure braids
# outside the derived subgroup of P (a^2 and (a b)^m = Delta^2) and a word
# outside P (a b)
GD_CHECK_LAMBDAS = (-3, -1, 0, 1, 2, 3, 5)
GD_CHECK_GS = ("", "[a^2,b^2]", "[b^2,a^-2]", "[a^2, b a^2 b^-1]", "a^2", "a b", "(a b)^{m}")
GD_CHECK_DIGESTS = {
    3: "41547e7a62856781b98054ff83051cf8f87cf710503d13fc591f4801ca6a897c",
    4: "73333f91fb35b4efb19fe4b3b945e88c3236fd35b1714b997beff53193496921",
    5: "b2619660683d09cfa8f775b72794647ea7995f4c40cd0e0d8d3936dd42d6c8cb",
    6: "27cf2e2416813b4cca48853beb6d64ddc2cdaaf0fc6291a07c96b0e8542e4d56",
    7: "7b35054e21716b33d39a37bb3bc66036e66e15be8749f34e42acab43cb950297",
    8: "8fee9e16cbdffe750336bf37349c936574f33c115a26b8088a2be50903a60bba",
    9: "d8bb486065559ebab69a6af6c1919b6e59287d938214dd6bda8a7bc217fb31d5",
    10: "bb066c75f8cda49c4da676e53c516ce11fefd0cf2f7e13a941819af1050cf156",
    11: "b184ebccb41962df67e6c64f0058ee58d90745776b27b32d2a3b347d70e74217",
    12: "519d0984f43ae5c71a360bc714fb9c087eaca20a48498019e0eb2621ba8d0848",
    40: "48c29f2cabcf5cf852e32b52b62d766c9670f51af9e161556cb602316c531346",
}


@pytest.mark.parametrize("m", sorted(GD_CHECK_DIGESTS))
def test_gd_check_stdout_is_pinned(capsys, m):
    digest = hashlib.sha256()
    for lam in GD_CHECK_LAMBDAS:
        for g in GD_CHECK_GS:
            code, out = run_cli(capsys, "gt", "gd-check", "--m", str(m), "--lambda", str(lam), "--g", g.format(m=m))
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GD_CHECK_DIGESTS[m]


# sha256 over the exit codes and stdouts of `garside nf|equal|delta` on seeded
# words of each type, taken while every letter still had its own sweep; the
# words include runs that reach w0 (Delta then letters, Delta^2, Delta then
# inverse letters), relator-inserted copies and words one letter longer
GARSIDE_TYPES = [f"A{n}" for n in range(3, 11)] + [f"B{n}" for n in range(2, 11)]
GARSIDE_TYPES += [f"D{n}" for n in range(4, 11)] + [f"I2({m})" for m in range(3, 13)]
GARSIDE_DIGESTS = {
    "A3": "0a05ebb58c474f044a70273b1014efa1c58f342ce62c6493eb4aa617452c9413",
    "A4": "566c093e705d711e2e246dff3d7c735eb84df2eeafcaec7bd8819d88799b098f",
    "A5": "4ed2be02caba6482b5db3ba7f232ee555e58ae7346aedad6fb55aafd7fb2a84b",
    "A6": "e61272e94b8b3bfe13e8f5c9bd35dd388de46a6dd2c7c6950e6a8ebd7f05b8ce",
    "A7": "d0292bd6762539ef083f66e53154d07f684527312ac883d5992c9ff46465bcef",
    "A8": "4456a6504013a2223cf51cdfde6216ea2879a04004b7a6c44e9309cbe6d1bcf5",
    "A9": "cc63796253c02164febea68a10b47d07aa42623c5db0ed145b9d2564f228fa71",
    "A10": "56b0f6839bc9af58984bcfdfe5d7b101cef1b28f2a923c0c36088f8034d09d59",
    "B2": "d3cca1f897f2108cbf8e8f135258441204e647506b81c1db1dc10a2a0c5fc33c",
    "B3": "e5e457d32b94f7581af7a4cbf5f2d1ef96c3bbf213862e00c36744e392f91dc3",
    "B4": "a6dc6c80dfdf1837069100dcde8a8f711ff511ba681dfc337d6a66be98568baf",
    "B5": "71e6f54bb44a41080931acbb372aaa878fa040fa7b963a1bbd141e97397ce290",
    "B6": "120a8c05585c08abfd78a82bbd1c531aa06aaef7d22838176ce739e65c6b2674",
    "B7": "34479022d8f6515a79a9bee14d74dd40b54b78c45cf51f4195d079ec2fb6c306",
    "B8": "60722e67555f96ecf3795bcbd036d32a2734b5ed9500c12254cf2d2833dd96f5",
    "B9": "68d000b4b0a5f66bd079e0af798116af588f07796fe68467dac2641c42261c90",
    "B10": "3974ebf084778c2fd9b8e986912769874299dfa527913d474f9d21146b41c39f",
    "D4": "a03a76b965d9f577029c308c2061f4e6f80598204326acc5aee9962e71dc0de5",
    "D5": "2d7d106e6ad1cd14dd9b48b4e3c43f03fdb8c2558973a05835894a6d250b0609",
    "D6": "33c025691f1f5cf76e8ae69423151039c16b3deeb363c9ba9a43d264ff4fd1d4",
    "D7": "456eb7d860b7789e8e25c0608477e29721509500aa94a0e2ccc4f7141bdc4b9b",
    "D8": "51abb4f3df64f85bf5afa63be17e94500080400f547b002256ead9ebb4dbcc49",
    "D9": "86b3bc8d9576588381a126fedf77cb1507552f9bde3835f8021dae861cde02c2",
    "D10": "0cb837c31d56224b9b68fdc18d060d1f3c19dac9e16848c22d4fea79b1f1e861",
    "I2(3)": "9ff6ee1e1f80ab32bb570bb75762a525483852f5d9b40d62eb417faddd01b123",
    "I2(4)": "520ab9c2c6fef7d475e054097b6994f257b8ff13a0c628c0c747bcb8246bbdfc",
    "I2(5)": "eab14afa5cc726536ecec1aad0d90f4d1d19a9162bb91743fc12d696c7270f7b",
    "I2(6)": "38085ed754c9db5d857c11297d3d79686897edcea6686fc6d32fc411597c8012",
    "I2(7)": "e5a358a5f27607d4d31b3003d993c4a335296944554c2dbee10d7bc8406ddef2",
    "I2(8)": "cedab4cea759fb7b8779e9f1435ec3f1ee3b686ba2de367a90d13a8e32056d2b",
    "I2(9)": "bf658ab2142fbb2834f867e01c786497d71e4c54e03a5eb27f5ba4c230103a16",
    "I2(10)": "59420ae7c4e950031f5204de8ac41745c4e01c14679ff6e4b25b4038c2285cea",
    "I2(11)": "460507fba4779486d1a92288f3be5de8756be27a5b52d7798d160f960160b008",
    "I2(12)": "f7a4f85f712e3fcd936df64aa36e42a7bcce688db227edeb8b3b556caeb82448",
}


def _garside_presentation(t):
    if t.family == "A":
        return fpgroups.braid_presentation(t.rank + 1)
    if t.family == "B":
        return fpgroups.artin_b_presentation(t.rank)
    if t.family == "D":
        return fpgroups.artin_d_presentation(t.rank)
    return fpgroups.artin_i2_presentation(t.rank)


def _garside_argvs(name):
    rng = random.Random(f"garside-cli:{name}")
    ctx = garside.context(garside.parse_type(name))
    gens, relators = ctx.gen_list, _garside_presentation(ctx.type).relators
    delta = ctx.delta_word()

    def word(length, signs):
        return tuple((rng.choice(gens), rng.choice(signs)) for _ in range(length))

    words = [word(12, (1,)), word(60, (1,)), word(40, (1, -1)), word(120, (1, -1)), word(30, (-1,))]
    words += [delta + word(20, (1,)), delta + delta, delta + word(20, (-1,)), word(20, (-1,)) + delta]
    argvs = [["garside", "nf", "--type", name, "--word", fpgroups.word_str(w)] for w in words]
    for u in words[1:4]:
        pos = rng.randrange(len(u) + 1)
        v = u[:pos] + rng.choice(relators) + u[pos:]
        extra = u + word(1, (1, -1))
        for other in (u, v, extra):
            text_u, text_v = fpgroups.word_str(u), fpgroups.word_str(other)
            argvs.append(["garside", "equal", "--type", name, "--u", text_u, "--v", text_v])
    argvs.append(["garside", "delta", "--type", name])
    return argvs


@pytest.mark.parametrize("name", GARSIDE_TYPES)
def test_garside_stdout_is_pinned(capsys, name):
    digest = hashlib.sha256()
    for argv in _garside_argvs(name):
        code, out = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert (name, digest.hexdigest()) == (name, GARSIDE_DIGESTS.get(name))


# sha256 over the exit codes and stdouts of `garside nf|equal` on seeded texts
# in the word syntax the grid above never prints: upper-case inverses, powers
# of (...) and [u,v], blanks and tabs around ^, signed exponents, powers that
# reduce to nothing, w<r>/eta<r> in type D (w<n> names s<n>, which D<n> lacks),
# and malformed texts
GARSIDE_SYNTAX_DIGESTS = {
    "A3": "8c95ff2eac03b70389af63a22696a7d34df168979954b93197280c1c77bcdd1e",
    "A6": "80a8bb0a5f22c468017137efec30ec19369e0ffd1f0d053f9689477d932cab45",
    "B3": "fdb8bcb74f1d19e66a21e46de8b3b3e7c49d25167a73e19586ea80dccb51450a",
    "B5": "92d60b95867b14ae78f0888174947ab93ba43eea7109b7f72d6503703a21cc9c",
    "I2(5)": "6908c3fb615d4744015969139d6f5ff56c819a8d006b1e4aa2997dcb3330fb28",
    "I2(8)": "1bb2655ab5287ec256c26b8cb317b238564c429ba54c293edcca5c52f7a17413",
    "D5": "9cfa04758a6fef7a55280321ed14fe4c947179a86f867c7a553cce86d65e34ae",
    "D6": "370fcdf03fbb52475077a9b1b9c9859e7f9d5b3cbc2ec0cbe9ab31c5d02d13a1",
    "D7": "59dcd9e92291e6a281050e6a79c7dcb13677d38d8e992992e26475fbbf206a5d",
    "D8": "50a80e2304a9de064260584f0858efb565e809383676c4c233ee8e0b0c9fd765",
    "D9": "caf0fa785398720a5d8e10f2143c747d7510e7d726b04109b6bb09e6e41fdf8e",
    "D10": "6f300720bf3c4e6698f2b6fa78f296c1564c9e373dfc9dab2dde1e7a6a8fd5b7",
}
SYNTAX_EXPONENTS = ["", "", "", "^2", "^-1", "^+3", " ^ 2", "\t^\t-2", "^ +1", "^0", "^-0", " ^-1", "^02"]
SYNTAX_FIXED = [
    "", " \t ", "( )^3", "({g} {G})^1000000", "({g} {h} {H} {G})^-7", "{g}^0 {h}^-0", "[{g},{g}]^9",
    "[{g}, {h}{H}]", "[{g},{h}]^-2", "{G}{H}{g}{h}", "{g}^", "({g}", "[{g} {h}]", "[{g} {h}", "[{g},{h}", "[{g},{h}]^",
    "{g}^+", "{g} ^ - 1", "{g})", "q{g}", "^2", "{g},{h}", "{g}^99999999999999999999", "{g}^" + "9" * 5000,
    "({g} {h})^101", "{g}^200", "{g}^201", "{g}^-100 {h}^100 {g}",
]


def _syntax_text(rng, names, depth=0):
    items = []
    for _ in range(rng.randint(1, 4)):
        r, g = rng.random(), rng.choice(names)
        if depth < 2 and r < 0.15:
            body = f"({_syntax_text(rng, names, depth + 1)})"
        elif depth < 2 and r < 0.25:
            u, blank = _syntax_text(rng, names, depth + 1), rng.choice(["", " "])
            body = f"[{u},{blank}{_syntax_text(rng, names, depth + 1)}]"
        elif r < 0.32:
            body = f"({g} {g.upper()})"
        else:
            body = g.upper() if rng.random() < 0.35 else g
        items.append(body + rng.choice(SYNTAX_EXPONENTS))
    return rng.choice([" ", "", "\t", "  "]).join(items)


def _garside_syntax_argvs(name):
    rng = random.Random(f"garside-syntax:{name}")
    ctx = garside.context(garside.parse_type(name))
    names = list(ctx.gen_list)
    if ctx.type.family == "D":
        names += [f"{a}{r}" for r in range(2, ctx.type.rank + 1) for a in ("w", "eta")]
    texts = [_syntax_text(rng, names) for _ in range(12)]
    argvs = [["garside", "nf", "--type", name, "--word", text] for text in texts]
    for text in texts[:6]:
        g = rng.choice(names)
        for other in (f"{text} ({g} {g.upper()})^3", f"[{g},{g}]{text}", f"{text} {g}"):
            argvs.append(["garside", "equal", "--type", name, "--u", text, "--v", other])
    for fixed in SYNTAX_FIXED:
        g, h = rng.sample(names, 2)
        argvs.append(["garside", "nf", "--type", name, "--word", fixed.format(g=g, G=g.upper(), h=h, H=h.upper())])
    return argvs


@pytest.mark.parametrize("name", ["A3", "A6", "B3", "B5", "I2(5)", "I2(8)"] + [f"D{n}" for n in range(5, 11)])
def test_garside_word_syntax_stdout_is_pinned(capsys, name):
    digest = hashlib.sha256()
    for argv in _garside_syntax_argvs(name):
        code, out = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert (name, digest.hexdigest()) == (name, GARSIDE_SYNTAX_DIGESTS.get(name))


# sha256 over the exit codes and stdouts of the Coxeter backends, taken while
# every Br_n/s^k still acted on its elements: `gt act` over the lambdas and f
# of the cosets workload, and `present verify-map` of s_i -> s_i^-1 and of the
# s1 <-> s2 swap on the catalogued Br4 and Br5
GT_ACT_LAMBDAS = (1, -1, 3, -3, 5)
GT_ACT_FS = ("", "[x,y]", "[x^2,y]")
GT_ACT_DIGESTS = {
    "coxeter:4,3": "8a1080adb029313d13e068851432493c302e399104b137e3278429b34a9eee41",
    "coxeter:4,-3": "971d504fce41820a17d5be831f5209930f1e331c4f269995250866dcd011afc9",
    "coxeter:4,2": "b1cd296260268739e0e1a0f3f917697c68583573bf84bcc8d90bb6360be38611",
    "coxeter:5,2": "2babd8392ee8ba02402413fdbfcedfeeb5b0339f11ca0ba91f3118c5b9dc925b",
    "coxeter:6,2": "b4a22578bdcdb2907eeabbaa818dc691aa843d47ae30f6e342f3ae3b425c32bf",
}
BR5_S3_ACT_DIGESTS = {
    "-1 [x,y]": "fe4c480d1d43bc6438ecebebf4e6fbfa70298834408bb07a080d8f8a834719d7",
    "1 ": "1053f7b51798484dd6a0b52a7123c9deb1a27f5d43e0095147a1543309b3f918",
}
VERIFY_MAP_DIGESTS = {
    "coxeter:4,3": "b565ac7bf93631fa43ad8c9a451758cdb716fc86f843923bf62a821d782194d4",
    "coxeter:5,2": "062a2b1ce4c59bd2a9e7e238b4d291ef6ab6070ebe7857ed083edcbc8c86ba9e",
    "coxeter:5,3": "1b7395bed8f93af502b2bf08a0353adbc271ff9de5a60a9aa7ffec97d9ae5e5c",
}


def _gt_act_argv(lam, f, backend):
    return ["gt", "act", "--lambda", str(lam), "--f", f, "--backend", backend]


def _verify_map_argv(tmp_path, n, kind, backend):
    images = {f"s{i}": f"s{i}^-1" for i in range(1, n)}
    if kind == "swap":
        images.update(s1="s2", s2="s1")
    path = tmp_path / f"{kind}{n}.json"
    path.write_text(json.dumps({"images": images}))
    return ["present", "verify-map", "--catalog", f"Br{n}", "--map-file", str(path), "--backend", backend]


@pytest.mark.parametrize("backend", sorted(GT_ACT_DIGESTS))
def test_gt_act_on_coxeter_backends_is_pinned(capsys, backend):
    digest = hashlib.sha256()
    for lam in GT_ACT_LAMBDAS:
        for f in GT_ACT_FS:
            code, out = run_cli(capsys, *_gt_act_argv(lam, f, backend))
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GT_ACT_DIGESTS[backend]


@pytest.mark.parametrize("argv", sorted(BR5_S3_ACT_DIGESTS))
def test_gt_act_on_br5_s3_is_pinned_and_enumerates_the_parabolics_only(capsys, monkeypatch, argv):
    # the chain Br3/s^3, Br4/s^3, Br5/s^3 over their parabolics, and no table over <s1>
    cosets = []
    enumerate_cosets = fpgroups.todd_coxeter

    def counted(*args):
        table = enumerate_cosets(*args)
        cosets.append(table.degree)
        return table

    monkeypatch.setattr(fpgroups, "todd_coxeter", counted)
    lam, f = argv.split(" ")
    code, out = run_cli(capsys, *_gt_act_argv(lam, f, "coxeter:5,3"))
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == BR5_S3_ACT_DIGESTS[argv]
    assert cosets == [8, 27, 240]


@pytest.mark.parametrize("backend", sorted(VERIFY_MAP_DIGESTS))
def test_verify_map_on_coxeter_backends_is_pinned(capsys, tmp_path, backend):
    digest = hashlib.sha256()
    for n in (4, 5):
        for kind in ("inverse", "swap"):
            code, out = run_cli(capsys, *_verify_map_argv(tmp_path, n, kind, backend))
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == VERIFY_MAP_DIGESTS[backend]


def test_verify_map_on_a_presentation_with_no_generators(capsys, tmp_path):
    pres, images = tmp_path / "pres.json", tmp_path / "map.json"
    pres.write_text(json.dumps({"label": "E", "generators": [], "relators": []}))
    images.write_text(json.dumps({"images": {}}))
    code, out = run_cli(capsys, "present", "verify-map", "--pres", str(pres), "--map-file", str(images), "--backend", "torsion:2")
    assert code == 0
    assert json.loads(out) == {
        "consistent": True,
        "exact_proof": False,
        "falsifier": None,
        "map": "user-map",
        "note": "consistent: necessary-condition evidence on finite quotients only",
    }


def test_garside_exponents_are_ascii_digits(capsys):
    # str.isdigit takes both: the first read as s1^3, the second was "exponent too long"
    for word in ("s1^\u0663", "s1^\u00b2"):
        code, out = run_cli(capsys, "garside", "nf", "--type", "A3", "--word", word)
        assert code == 3
        assert json.loads(out) == {"error": "input", "message": f"malformed exponent at position 3 in {word!r}"}


def test_word_one_reads_as_the_empty_word(capsys, tmp_path):
    # word_str prints the empty word as 1; every word input reads it back
    argv = ["--budget-cosets", "40", "present", "tc", "--catalog", "Br3", "--subgroup"]
    assert run_cli(capsys, *argv, " 1 ") == run_cli(capsys, *argv, "")
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"images": {"s1": "s2", "s2": "1"}, "backend": "torsion:2"}))
    code, out = run_cli(capsys, "present", "verify-map", "--map-file", str(path), "--catalog", "Br3")
    assert code == 1 and json.loads(out)["consistent"] is False
    code, out = run_cli(capsys, "garside", "nf", "--type", "A3", "--word", "1")
    assert code == 0 and json.loads(out) == {"delta_power": 0, "factors": [], "type": "A3"}
    code, out = run_cli(capsys, "garside", "nf", "--type", "A3", "--word", "s1 1")
    assert code == 3 and json.loads(out)["message"] == "unknown symbol at position 3 in 's1 1'"


def test_map_file_backend_and_backend_flag_is_input_error(capsys, tmp_path):
    # the file's own backend is never overridden in silence by the flag
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"images": {"s1": "s2", "s2": "s1"}, "backend": "torsion:2"}))
    argv = ["present", "verify-map", "--map-file", str(path), "--catalog", "Br3"]
    code, out = run_cli(capsys, *argv, "--backend", "coxeter:3,4")
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": "give --backend or the map file's 'backend', not both"}
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["consistent"] is True


GROUP_COMMANDS = [["group", "info"], ["invariants", "compute"], ["arrangement", "supersolvable"],
                  ["arrangement", "discriminant"]]
TWO_SOURCES = [(c, "G4", other) for c in GROUP_COMMANDS for other in ("monomial", "spec")]
TWO_SOURCES += [(["monodromy", "profile"], "G4_paper", "spec")]


@pytest.mark.parametrize(
    "command, catalog, other", TWO_SOURCES, ids=[f"{' '.join(c)}-{o}" for c, _, o in TWO_SOURCES]
)
def test_two_source_flags_are_an_input_error(capsys, tmp_path, command, catalog, other):
    # the catalogued group no longer takes precedence over the other flag
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "catalog", "name": "G4"}))
    value = "2,1,3" if other == "monomial" else str(spec)
    code, out = run_cli(capsys, *command, "--catalog", catalog, f"--{other}", value)
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": f"give --catalog or --{other}, not both"}


def test_gt_act_n_must_be_the_backend_n(capsys):
    argv = ["gt", "act", "--lambda", "-1", "--backend", "coxeter:3,3"]
    code, out = run_cli(capsys, "gt", "act", "--n", "7", *argv[2:])
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": "--n 7 is not the n of --backend coxeter:3,3"}
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["backend"] == "Br3/s^3"
    assert run_cli(capsys, "gt", "act", "--n", "3", *argv[2:]) == (code, out)


def test_duplicate_generator_names_are_an_input_error(capsys, tmp_path):
    # the second "a" used to take over the letter's columns, leaving the first
    # a free generator, and the enumeration ran to the whole coset budget
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": ["a", "a"], "relators": ["a^2"]}))
    start = time.perf_counter()
    code, out = run_cli(capsys, "present", "tc", "--pres", str(path))
    elapsed = time.perf_counter() - start
    assert code == 3
    assert json.loads(out) == {"error": "input", "message": "presentation anonymous names a generator twice"}
    assert elapsed <= 0.1, f"present tc on a duplicate generator took {elapsed:.2f} s to exit 3"


INFINITE_COXETER = [(3, 6), (4, 4), (6, 3), (3, -6)]


@pytest.mark.parametrize("n, k", INFINITE_COXETER, ids=[f"Br{n}/s^{k}" for n, k in INFINITE_COXETER])
def test_infinite_coxeter_quotients_exit_2_at_once(capsys, n, k):
    message = f"cannot build quotient Br{n}/s^{k}: infinite, as 1/{n} + 1/{abs(k)} <= 1/2 (Coxeter)"
    for argv in (
        ["present", "quotient", "--coxeter", f"{n},{k}"],
        ["gt", "act", "--lambda", "1", "--backend", f"coxeter:{n},{k}"],
        ["present", "verify-map", "--map", "g12_conj", "--backend", f"coxeter:{n},{k}"],
    ):
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert json.loads(out) == {"error": "budget_exceeded", "message": message}
        assert elapsed <= 0.1, f"{' '.join(argv)} took {elapsed:.2f} s to exit 2"


def _readme_examples() -> list[str]:
    """The command lines of the README's CLI block, but `paper-suite`:
    test_acceptance.py runs it, and it exits 1 on criterion 4's defect."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command-line interface", 1)[1].split("```\n")[1]
    return [line for line in block.splitlines() if line != "reflbench paper-suite"]


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_example_runs_as_written(capsys, line):
    assert subprocess.run(["bash", "-n", "-c", line], capture_output=True).returncode == 0, line
    argv = shlex.split(line)
    assert argv[0] == "reflbench"
    code, _ = run_cli(capsys, *argv[1:])
    assert code == 0, line


def test_invariants_compute_past_the_molien_cap_exits_2(capsys):
    code, out = run_cli(capsys, "invariants", "compute", "--monomial", "2,1,5")
    assert code == 2
    assert json.loads(out) == {"error": "budget_exceeded", "message": "Molien extraction limited to dim <= 4"}


def test_invariants_compute_checks_every_degree_before_solving_one(capsys, monkeypatch):
    # G(2,1,3) has Molien degrees 2, 4, 6: 6, 15 and 28 monomials
    monkeypatch.setattr(invariants, "DEFAULT_MONOMIAL_BUDGET", 28)
    assert run_cli(capsys, "invariants", "compute", "--monomial", "2,1,3")[0] == 0
    monkeypatch.setattr(invariants, "DEFAULT_MONOMIAL_BUDGET", 27)
    monkeypatch.setattr(invariants, "invariant_space", lambda *a: pytest.fail("a degree was solved"))
    code, out = run_cli(capsys, "invariants", "compute", "--monomial", "2,1,3")
    assert code == 2
    assert json.loads(out) == {"error": "budget_exceeded", "message": "28 monomials exceed budget 27"}


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


def _nested(depth, inner):
    return "(" * depth + inner + ")" * depth


WORD_COMMANDS = [
    ["garside", "nf", "--type", "A3", "--word"],
    ["garside", "equal", "--type", "A3", "--v", "s1", "--u"],
    ["garside", "equal", "--type", "A3", "--u", "s1", "--v"],
    ["gt", "act", "--lambda", "1", "--backend", "coxeter:3,3", "--f"],
    ["gt", "images", "--n", "3", "--lambda", "1", "--f"],
    ["present", "tc", "--catalog", "Br3", "--subgroup"],
]
WORD_COMMAND_IDS = ["nf", "equal-u", "equal-v", "act", "images", "subgroup"]


@pytest.mark.parametrize("argv", WORD_COMMANDS, ids=WORD_COMMAND_IDS)
def test_words_nested_past_the_bound_are_input_errors(capsys, argv):
    letter = "x" if argv[0] == "gt" else "s1"
    for text in (_nested(1000, letter), _nested(fpgroups.MAX_WORD_NESTING + 1, letter)):
        code, out = run_cli(capsys, *argv, text)
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "input" and "nested" in payload["message"]


@pytest.mark.parametrize("argv", WORD_COMMANDS[:4], ids=WORD_COMMAND_IDS[:4])
def test_words_nested_at_the_bound_parse(capsys, argv):
    # f must lie in the derived subgroup; its commutator is one level deep
    bound = fpgroups.MAX_WORD_NESTING
    text = _nested(bound - 1, "[x,y]") if argv[0] == "gt" else _nested(bound, "s1")
    code, out = run_cli(capsys, *argv, text)
    assert code == 0
    assert "error" not in json.loads(out)


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


@pytest.mark.parametrize("spec", ["garside:A3:junk", "garside:A3:B9:x", "garside:A16", "garside:B17", "garside:D17", "garside:A600"])
def test_garside_backend_refuses_trailing_text_and_types_past_the_strand_cap(capsys, tmp_path, spec):
    code, out = run_cli(capsys, *_verify_map_argv(tmp_path, 4, "inverse", spec))
    assert code == 3
    assert json.loads(out)["error"] == "input"


def test_garside_backend_at_the_strand_cap_runs(capsys, tmp_path):
    assert cli.MAX_STRANDS == 16
    code, out = run_cli(capsys, *_verify_map_argv(tmp_path, 4, "inverse", "garside:A15"))
    assert code == 0
    assert "proves homomorphy" in json.loads(out)["note"]


def test_garside_inputs_at_the_caps_run(capsys):
    code, _ = run_cli(capsys, "garside", "nf", "--type", "A3", "--word", f"s1^{garside.MAX_LETTERS}")
    assert code == 0
    code, out = run_cli(capsys, "garside", "delta", "--type", f"B{garside.MAX_RANK}")
    assert code == 0
    assert json.loads(out)["length"] == garside.MAX_RANK**2


@pytest.mark.parametrize(
    "argv",
    [["gt", "stabilize", "--n", "3", "--lambda", "1"], ["gt", "act", "--lambda", "1", "--backend", "coxeter:3,3"]],
    ids=["stabilize", "act"],
)
def test_gt_commands_honour_coset_budget(capsys, argv):
    code, out = run_cli(capsys, "--budget-cosets", "3", *argv)
    assert code == 2
    assert json.loads(out)["error"] == "budget_exceeded"
    code, _ = run_cli(capsys, *argv)
    assert code == 0


def test_gd_check_builds_no_coset_table(capsys):
    # every W-level question is decided on the Coxeter model of I2(m)
    argv = ["gt", "gd-check", "--m", "6", "--lambda", "1", "--g", "[a^2,b^2]"]
    assert run_cli(capsys, "--budget-cosets", "3", *argv) == run_cli(capsys, *argv)


LETTERS_PAST_CAP = f"(x y)^{fpgroups.MAX_WORD_LETTERS // 2 + 1}"
LAMBDA_PAST_CAP = fpgroups.MAX_WORD_LETTERS + 1
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
        ["gt", "gd-check", "--m", str(cli.MAX_GD_CHECK_LETTERS // 2 + 1), "--lambda", "1"],
        ["gt", "act", "--lambda", str(-LAMBDA_PAST_CAP), "--backend", "coxeter:3,3"],
        ["gt", "images", "--n", "4", "--lambda", str(LAMBDA_PAST_CAP)],
        ["gt", "stabilize", "--n", "3", "--lambda", str(LAMBDA_PAST_CAP)],
        # a power relator g^k has |k| letters
        ["present", "quotient", "--coxeter", f"2,{LAMBDA_PAST_CAP}"],
        ["present", "quotient", "--coxeter", f"2,{-LAMBDA_PAST_CAP}"],
        ["present", "quotient", "--catalog", "G12", "--torsion", str(LAMBDA_PAST_CAP)],
        ["present", "quotient", "--catalog", "G12", "--torsion", str(-LAMBDA_PAST_CAP)],
        ["present", "verify-map", "--map", "g12_conj", "--backend", f"torsion:{LAMBDA_PAST_CAP}"],
        ["gt", "act", "--lambda", "1", "--backend", f"coxeter:2,{-LAMBDA_PAST_CAP}"],
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
        "act-lambda",
        "images-lambda",
        "stabilize-lambda",
        "coxeter-power",
        "coxeter-negative-power",
        "torsion-power",
        "torsion-negative-power",
        "torsion-backend-power",
        "coxeter-backend-power",
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
    lam = str(-fpgroups.MAX_WORD_LETTERS)
    code, out = run_cli(capsys, "gt", "act", "--lambda", lam, "--backend", "coxeter:3,3")
    assert code == 0 and json.loads(out)["well_defined"] is True
    code, out = run_cli(capsys, "gt", "images", "--n", "4", "--lambda", lam)
    assert code == 0 and json.loads(out)["s1"] == f"s1^{lam}"
    code, out = run_cli(capsys, "gt", "stabilize", "--n", "3", "--lambda", lam)
    assert code == 0 and json.loads(out)["index"] == 4
    for k in (lam, str(fpgroups.MAX_WORD_LETTERS)):
        code, out = run_cli(capsys, "present", "quotient", "--coxeter", f"2,{k}")
        assert code == 0 and json.loads(out) == {"quotient": f"Br2/s^{k}", "order": fpgroups.MAX_WORD_LETTERS}
    # m (|lambda| + 2|g| + 1) at the bound
    code, out = run_cli(capsys, "gt", "gd-check", "--m", str(cli.MAX_GD_CHECK_LETTERS), "--lambda", "0")
    assert code == 0 and json.loads(out)["m"] == cli.MAX_GD_CHECK_LETTERS


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
