import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from logmoduli import cli, graphs, lattice, schema

FIXTURES = os.environ.get(
    "LOGMODULI_FIXTURES",
    os.path.join(os.path.dirname(__file__), "..", "src", "logmoduli", "fixtures"),
)


def fixture(name):
    return os.path.join(FIXTURES, name)


# the package as this test process imports it, so a child finds the same one
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "logmoduli.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_group_two_line_fixture():
    proc = run_cli("group", fixture("two_line_ghost.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kernel_rank"] == 1
    assert payload["cokernel_rank"] == 2
    assert payload["kernel_basis"] == [[1, 1, 1, 1, 1]]


def test_ob_two_line_fixture_values():
    proc = run_cli("ob", fixture("two_line_ghost.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["values"] == ["3/10", "10/77"]
    # --expect-trivial turns a nontrivial class into exit code 1
    proc = run_cli("ob", fixture("two_line_ghost.json"), "--expect-trivial")
    assert proc.returncode == 1


def test_ob_good_ex2_is_minus_product_of_slopes():
    proc = run_cli("ob", fixture("good_ex2.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    # -(2*3*5)/(7*11*13)
    assert payload["values"] == ["-30/1001"]


def test_ob_with_external_characters_file():
    proc = run_cli("ob", fixture("good_ex2.json"),
                   "--characters", fixture("characters_good_ex2.json"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"] == ["-30/1001"]


def test_validate_exit_codes():
    assert run_cli("validate", fixture("two_line_ghost.json")).returncode == 0
    assert run_cli("validate", fixture("empty_graph.json")).returncode == 2
    assert run_cli("validate", fixture("bad_stratum.json")).returncode == 1


def test_validate_single_vertex():
    proc = run_cli("validate", fixture("single_vertex.json"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_tropical_fixture():
    proc = run_cli("tropical", fixture("two_line_ghost.json"), "--cone")
    payload = json.loads(proc.stdout)
    assert payload["feasible"] is True
    assert payload["cone"]["dimension"] == 1
    assert payload["cone"]["rays"] == [[1, 1, 1, 1, 1]]


def test_dims_fixture():
    proc = run_cli("dims", fixture("two_line_ghost.json"))
    payload = json.loads(proc.stdout)
    assert payload["d_log"] == 4  # c1_log(A) = 3, n = 2, g = 0, k = 2
    assert payload["d_stratum"] == 3
    assert payload["kernel_rank"] == 1


def test_positivity_fixture():
    proc = run_cli("positivity", fixture("mc_issue_profile.json"))
    payload = json.loads(proc.stdout)
    assert payload["semi_positive"] is True
    assert payload["strongly_semi_positive"] is False
    assert any(w["condition"] == "strongly-semi-positive" for w in payload["witnesses"])


def test_rt_fixture():
    proc = run_cli("rt", fixture("mc_dep.json"))
    payload = json.loads(proc.stdout)
    assert payload["edge_invariant_holds"] is True
    assert payload["cover_deltas"] == [{"delta": 4, "vertex": "v0"}]


def test_decorate_tree_unique():
    proc = run_cli("decorate", fixture("g0_a0_tree.json"))
    payload = json.loads(proc.stdout)
    assert payload["status"] == "unique"
    assert payload["assignments"] == [{"e1": [0, 0], "e2": [0, 0]}]


def test_report_runs_everything():
    proc = run_cli("report", fixture("two_line_ghost.json"))
    payload = json.loads(proc.stdout)
    assert set(payload["parts"]) >= {"validate", "group", "tropical", "dims", "ob"}


def test_byte_identical_across_runs_and_permutations(tmp_path):
    first = run_cli("report", fixture("two_line_ghost.json")).stdout
    second = run_cli("report", fixture("two_line_ghost.json")).stdout
    assert first == second
    with open(fixture("two_line_ghost.json")) as fh:
        doc = json.load(fh)
    doc["vertices"] = list(reversed(doc["vertices"]))
    doc["edges"] = list(reversed(doc["edges"]))
    doc["legs"] = list(reversed(doc["legs"]))
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc))
    third = run_cli("report", str(shuffled)).stdout
    assert first.replace(fixture("two_line_ghost.json"), str(shuffled)) == third


def test_table_format():
    proc = run_cli("group", fixture("two_line_ghost.json"), "--format", "table")
    assert proc.returncode == 0
    assert "kernel_rank" in proc.stdout
    assert "{" not in proc.stdout.splitlines()[0]


def test_several_inputs_print_in_order():
    a = fixture("two_line_ghost.json")
    b = fixture("good_ex2.json")
    both = run_cli("group", a, b).stdout
    assert both == run_cli("group", a).stdout + run_cli("group", b).stdout


def test_multinode_document_group_and_ob():
    proc = run_cli("group", fixture("two_line_collapsed.json"))
    payload = json.loads(proc.stdout)
    assert payload["kernel_rank"] == 1
    assert payload["cokernel_rank"] == 2
    proc = run_cli("ob", fixture("two_line_collapsed.json"))
    assert json.loads(proc.stdout)["values"] == ["3/5", "5/7"]
    assert run_cli("validate", fixture("two_line_collapsed.json")).returncode == 1
    assert run_cli("validate", fixture("two_line_collapsed.json"),
                   "--multinode").returncode == 0


def test_schema_roundtrip_fixed_point():
    for name in ("two_line_ghost.json", "good_ex2.json", "bad_ex1.json",
                 "mc_dep.json", "mc_issue_a3_d2.json", "two_line_collapsed.json"):
        with open(fixture(name)) as fh:
            text = fh.read()
        graph, data, profile, characters, expect = schema.loads(text)
        doc = schema.serialize_document(graph, data, characters=characters, expect=expect)
        assert schema.dumps(doc) == text


# -- malformed input: exit 2 with a JSON payload, never a traceback -----------


def _run_malformed(tmp_path, mutate):
    with open(fixture("two_line_ghost.json")) as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("report", str(path))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    return json.loads(proc.stdout)["error"]


def test_zero_denominator_is_an_input_error(tmp_path):
    def mutate(doc):
        doc["edges"][0]["positions"] = {"0": "1/0"}

    assert "'1/0'" in _run_malformed(tmp_path, mutate)


@pytest.mark.parametrize("field", ["N", "n"])
def test_non_integer_rank_field_is_named(tmp_path, field):
    error = _run_malformed(tmp_path, lambda doc: doc.update({field: "x"}))
    assert f"field {field!r} must be an integer" in error


@pytest.mark.parametrize("field", ["vertices", "edges", "legs"])
def test_non_list_element_field_is_named(tmp_path, field):
    error = _run_malformed(tmp_path, lambda doc: doc.update({field: 5}))
    assert f"field {field!r} must be a list" in error


@pytest.mark.parametrize("field, mutate", [
    ("stratum", lambda doc: doc["vertices"][0].update(stratum=5)),
    ("contact", lambda doc: doc["edges"][0].update(contact=7)),
    ("degrees", lambda doc: doc["vertices"][0].update(degrees="ab")),
    ("characters", None),
])
def test_nested_list_field_is_named(tmp_path, field, mutate):
    with open(fixture("two_line_ghost.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "doc.json"
    if mutate is None:
        chars = tmp_path / "characters.json"
        chars.write_text(json.dumps({"characters": 5}))
        argv = ["ob", str(path), "--characters", str(chars)]
    else:
        mutate(doc)
        argv = ["report", str(path)]
    path.write_text(json.dumps(doc))
    proc = run_cli(*argv)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert f"field {field!r} must be a list" in json.loads(proc.stdout)["error"]


def test_report_names_a_bad_characters_file(tmp_path):
    chars = tmp_path / "characters.json"
    chars.write_text(json.dumps({"characters": 5}))
    proc = run_cli("report", fixture("two_line_ghost.json"), "--characters", str(chars))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert "field 'characters' must be a list" in json.loads(proc.stdout)["error"]


def test_report_drops_ob_when_the_characters_do_not_fit():
    # rows of the wrong length mean ob does not apply to this graph
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["report", fixture("good_ex1.json"),
                         "--characters", fixture("characters_good_ex2.json")])
    assert code == 0
    assert "ob" not in json.loads(out.getvalue())["parts"]


SCALAR_FIELDS = [
    ("genus", lambda doc: doc["vertices"][0].update(genus="x")),
    ("c1_log", lambda doc: doc["vertices"][0].update(c1_log=[1])),
    ("vertices[0]", lambda doc: doc["vertices"].__setitem__(0, 5)),
    ("positions", lambda doc: doc["edges"][0].update(positions=5)),
    ("eta", lambda doc: doc["edges"][0].update(eta=5)),
    ("eta.1", lambda doc: doc["edges"][0].update(eta={"1": 5})),
    ("sections", lambda doc: doc.update(sections=[{}])),
]


@pytest.mark.parametrize("field, mutate", SCALAR_FIELDS, ids=[f for f, _ in SCALAR_FIELDS])
def test_scalar_nested_field_is_named_by_every_command(tmp_path, field, mutate):
    # in process: an exception escaping main is what prints a traceback
    with open(fixture("two_line_ghost.json")) as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in sorted(cli._COMMANDS):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, str(path)])
        assert code == 2, command
        assert "Traceback" not in err.getvalue()
        assert f"field {field!r} must be" in json.loads(out.getvalue())["error"], command


# -- one parse per input -------------------------------------------------------


def test_report_parses_each_input_once(monkeypatch):
    calls = []
    loads = schema.loads

    def counting_loads(text):
        calls.append(text)
        return loads(text)

    monkeypatch.setattr(schema, "loads", counting_loads)
    with redirect_stdout(io.StringIO()):
        cli.main(["report", fixture("two_line_ghost.json"), fixture("two_line_collapsed.json")])
    assert len(calls) == 2


def test_report_builds_one_lattice_map(monkeypatch):
    built = []
    init = lattice.LatticeMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeMap, "__init__", counting_init)
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["report", fixture("good_ex1.json")])
    assert set(json.loads(out.getvalue())["parts"]) >= {"group", "tropical", "dims", "ob"}
    assert len(built) == 1


@pytest.mark.parametrize("command", ["report", "tropical"])
def test_one_validation_pass_per_graph(monkeypatch, command):
    passes = []
    check = graphs._structural_check

    def counting_check(graph):
        passes.append(graph)
        check(graph)

    monkeypatch.setattr(graphs, "_structural_check", counting_check)
    with redirect_stdout(io.StringIO()):
        assert cli.main([command, fixture("good_ex1.json")]) == 0
    assert len(passes) == 1


# -- golden outputs --------------------------------------------------------------

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "bench", "baseline", "cli.json")


def _digest(stdout):
    return hashlib.sha256(json.dumps(stdout, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.skipif(not os.path.exists(GOLDEN), reason="benchmark goldens not present")
def test_every_command_on_every_fixture_matches_golden(monkeypatch):
    """Exit code and stdout digest of `<command> <fixture>` as recorded in the
    benchmark's golden file, run in-process from the repository root."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    monkeypatch.chdir(ROOT)
    mismatches = []
    for key, expected in sorted(golden.items()):
        command, name = key.split(" ")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command, f"src/logmoduli/fixtures/{name}"])
        if (code, _digest(out.getvalue())) != (expected["code"], expected["stdout"]):
            mismatches.append(key)
    assert len(golden) == 126
    assert mismatches == []
