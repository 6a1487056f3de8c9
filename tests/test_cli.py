import hashlib
import io
import json
import os
import random
import re
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


def test_decorate_with_a_large_bound_is_capped():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["decorate", fixture("g_pos_a0_cycle.json"), "--bound", "1000"])
    assert code == 2
    assert "Traceback" not in err.getvalue()
    assert "decoration enumeration capped" in json.loads(out.getvalue())["error"]


def test_decorate_with_a_negative_bound_is_an_input_error():
    for name in ("g_pos_a0_cycle.json", "g0_a0_tree.json"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["decorate", fixture(name), "--bound", "-1"])
        assert code == 2
        assert "Traceback" not in err.getvalue()
        assert "bound = -1" in json.loads(out.getvalue())["error"]


def test_decorate_bounded_family_stdout_is_pinned(monkeypatch):
    # stdout recorded at f44da1e: 25 assignments, each coordinate's flow
    # around the ghost triangle in [-2, 2]
    monkeypatch.chdir(FIXTURES)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["decorate", "g_pos_a0_cycle.json", "--bound", "2"])
    assert code == 0
    assert len(json.loads(out.getvalue())["assignments"]) == 25
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "b597dc27994e2ed4bb569639c3671c34162b649c5606503f3804329f68998ebe")


def test_decorate_stdout_with_vertices_listed_out_of_id_order(tmp_path, monkeypatch):
    # recorded at f44da1e: the tree is rooted at the least id, w10, so the
    # flows come in the order of the co-tree edge e2
    def vertex(vid, d):
        return {"id": vid, "stratum": [1], "degrees": [d]}

    def edge(eid, a, b):
        return {"id": eid, "ends": [a, b], "stratum": [1]}

    doc = {"N": 1, "n": 0, "schema_version": "1",
           "vertices": [vertex("w2", 2), vertex("w5", -1), vertex("w10", -1)],
           "edges": [edge("e0", "w2", "w10"), edge("e1", "w5", "w10"), edge("e2", "w5", "w2")]}
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["decorate", "doc.json", "--bound", "2"]) == 0
    assert json.loads(out.getvalue()) == {
        "assignments": [{"e0": [0], "e1": [1], "e2": [-2]}, {"e0": [1], "e1": [0], "e2": [-1]},
                        {"e0": [2], "e1": [-1], "e2": [0]}],
        "command": "decorate", "cycle_ranks": {"1": 1}, "input": "doc.json", "reason": "",
        "status": "family",
    }


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
    # the graph fixtures but the two whose vertices omit default fields
    names = sorted(set(os.listdir(FIXTURES)) - {
        "characters_good_ex2.json", "hyperplanes_n3_d4.json", "mc_issue_profile.json"})
    assert len(names) == 12
    for name in names:
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


@pytest.mark.parametrize("text, error", [
    ("not json", "invalid JSON in characters file: Expecting value: line 1 column 1 (char 0)"),
    ('{"characters": []}', "characters file carries no characters"),
    ("[]", "characters file carries no characters"),
    ("{}", "characters file carries no characters"),
], ids=["text", "empty-list", "bare-empty-list", "no-key"])
def test_ob_and_report_refuse_a_characters_file_without_characters(tmp_path, text, error):
    chars = tmp_path / "characters.json"
    chars.write_text(text)
    for command in ("ob", "report"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command, fixture("good_ex2.json"), "--characters", str(chars)])
        assert code == cli.EXIT_INPUT == 2, command
        assert json.loads(out.getvalue()) == {
            "command": command, "input": fixture("good_ex2.json"), "error": error}


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


MALFORMED_DOCUMENTS = [
    ("positions", "good_ex1.json", lambda doc: doc["edges"][0].update(positions={"x": "0"})),
    ("eta", "good_ex1.json", lambda doc: doc["edges"][0].update(eta={"x": {"1": "1"}})),
    ("eta.1", "good_ex1.json", lambda doc: doc["edges"][0].update(eta={"1": {"x": "1"}})),
    ("profile", "good_ex1.json", lambda doc: doc.update(profile=5)),
    ("families", "good_ex1.json", lambda doc: doc.update(profile={"families": 5, "n": 2, "N": 2})),
    ("dot", "mc_issue_profile.json", lambda doc: doc["profile"]["families"][0].update(dot=["x"])),
    ("linear", "mc_issue_profile.json",
     lambda doc: doc["profile"]["families"][1].update(delta={"linear": "x"})),
    ("stratum", "mc_issue_profile.json",
     lambda doc: doc["profile"]["families"][0].update(stratum=[[1]])),
    ("expect", "good_ex1.json", lambda doc: doc.update(expect=5)),
    ("divisor", "good_ex2.json", lambda doc: doc["sections"]["v1"]["1"].update(divisor=5)),
    ("divisor", "good_ex2.json", lambda doc: doc["sections"]["v1"]["1"].update(divisor=[5])),
    ("sections.v1", "good_ex2.json", lambda doc: doc["sections"].update(v1={"x": {}})),
    ("image_labels", "mc_dep.json", lambda doc: doc["edges"][0]["image_labels"].update({"0": 5})),
    ("image_label", "mc_dep.json",
     lambda doc: next(v for v in doc["vertices"] if "image_label" in v).update(image_label=[1])),
    ("image_label", "mc_issue_a3_d2.json", lambda doc: doc["legs"][0].update(image_label=7)),
    ("delta", "hyperplanes_n3_d4.json",
     lambda doc: doc["profile"]["families"][0].update(delta="x")),
    ("delta", "mc_issue_profile.json",
     lambda doc: doc["profile"]["families"][0].update(delta=True)),
    ("multiplicity", "mc_issue_profile.json",
     lambda doc: doc["profile"]["families"][0].update(multiplicity=[[1]])),
    ("cover", "good_ex1.json", lambda doc: doc["expect"].update(cover=5)),
    ("l", "good_ex1.json",
     lambda doc: doc["expect"].update(cover={"d": 2, "l": "x", "k": 2, "c1_log_base": 1})),
    ("depth", "good_ex1.json",
     lambda doc: doc["expect"].update(cover={"d": 2, "l": 1, "k": 2, "c1_log_base": 1,
                                             "depth": 1.5})),
    ("N", "good_ex1.json", lambda doc: doc.update(N=2.5)),
    ("genus", "good_ex1.json", lambda doc: doc["vertices"][0].update(genus=0.9)),
    ("genus", "good_ex1.json", lambda doc: doc["vertices"][0].update(genus=True)),
    ("stratum", "good_ex1.json", lambda doc: doc["vertices"][0].update(stratum=["1"])),
    ("into", "good_ex1.json", lambda doc: doc["edges"][0].update(into=["x", "y"])),
    ("into", "two_line_collapsed.json",
     lambda doc: next(e for e in doc["edges"] if "into" in e).update(into=[0, 1, 1])),
    ("id", "good_ex1.json", lambda doc: doc["vertices"][0].update(id=[1])),
    ("id", "good_ex1.json", lambda doc: doc["edges"][0].update(id=7)),
    ("id", "good_ex1.json", lambda doc: doc["legs"][0].update(id=None)),
    ("ends", "good_ex1.json", lambda doc: doc["edges"][0].update(ends=["v0", 1])),
    ("vertex", "good_ex1.json", lambda doc: doc["legs"][0].update(vertex=["v0"])),
    ("label", "mc_issue_profile.json", lambda doc: doc["profile"]["families"][0].update(label=5)),
    ("effective", "mc_issue_profile.json",
     lambda doc: doc["profile"]["families"][0].update(effective="no")),
    # a falsy container of the wrong type is refused, not read as empty
    ("positions", "good_ex1.json", lambda doc: doc["edges"][0].update(positions=0)),
    ("eta", "good_ex1.json", lambda doc: doc["edges"][0].update(eta=False)),
    ("sections", "good_ex2.json", lambda doc: doc.update(sections=0)),
    ("characters", "good_ex2.json", lambda doc: doc.update(characters=False)),
    ("base_degrees", "good_ex1.json", lambda doc: doc["vertices"][0].update(base_degrees=0)),
    ("profile", "good_ex1.json", lambda doc: doc.update(profile=[])),
    # a divisor point is a string, never a number read through str()
    ("divisor", "good_ex2.json", lambda doc: doc["sections"]["v1"]["1"].update(divisor=[[5, 1]])),
    ("kind", "good_ex1.json", lambda doc: doc["vertices"][0].update(kind=7)),
    ("positions.0", "good_ex1.json",
     lambda doc: doc["edges"][0].update(positions={"0": "1" * 5000})),
    # every key of an edge's image labels is an end index of that edge
    ("image_labels", "mc_dep.json", lambda doc: doc["edges"][0]["image_labels"].update({"x": 1})),
    ("image_labels", "mc_dep.json",
     lambda doc: doc["edges"][0].update(image_labels={"0": "alpha", "5": 7})),
    ("image_labels", "mc_dep.json",
     lambda doc: doc["edges"][0].update(image_labels={"2": None})),
]


@pytest.mark.parametrize("field, name, mutate", MALFORMED_DOCUMENTS,
                         ids=[f"{f}-{k}" for k, (f, _, _) in enumerate(MALFORMED_DOCUMENTS)])
def test_malformed_key_or_field_is_named_by_every_command(tmp_path, field, name, mutate):
    with open(fixture(name)) as fh:
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
        assert f"field {field!r} must" in json.loads(out.getvalue())["error"], command


def test_image_labels_error_shows_the_input_object(tmp_path):
    with open(fixture("mc_dep.json")) as fh:
        doc = json.load(fh)
    doc["edges"][0]["image_labels"] = {"0": "alpha", "5": 7}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["validate", str(path)]) == 2
    assert json.loads(out.getvalue())["error"] == (
        "document.edges[0]: field 'image_labels' must be an object with a string or null "
        "at each end index, got {'0': 'alpha', '5': 7}")


def test_cover_expectation_is_read_or_its_missing_field_named(tmp_path):
    with open(fixture("good_ex1.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "doc.json"
    doc["expect"]["cover"] = {"d": 2, "l": 1, "k": 2, "c1_log_base": 1}
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["dims", str(path)]) == 0
    assert json.loads(out.getvalue())["d_fiber"] == 2
    doc["expect"]["cover"] = {"d": 2}
    path.write_text(json.dumps(doc))
    for command in ("dims", "report"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main([command, str(path)]) == 2
        assert "missing field 'l'" in json.loads(out.getvalue())["error"]


def _errors(path, commands=None):
    """The error of every command (all nine by default) on the document at
    path, each command asserted to exit 2."""
    errors = {}
    for command in commands or sorted(cli._COMMANDS):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main([command, str(path)]) == 2, command
        errors[command] = json.loads(out.getvalue())["error"]
    return errors


def test_missing_rank_field_error_is_byte_stable():
    # the fixtures' one exit-2 field error keeps the bytes it had before
    # record paths were added
    errors = _errors(fixture("characters_good_ex2.json"))
    assert set(errors.values()) == {"document: missing field 'N'"}
    assert len(errors) == 9


EXACT_FIELD_ERRORS = [
    ("good_ex1.json", lambda doc: doc["vertices"][2].update(id=[1]),
     "document.vertices[2]: field 'id' must be a string, got [1]"),
    ("good_ex1.json", lambda doc: doc["edges"][1].update(contact=7),
     "document.edges[1]: field 'contact' must be a list of integers, got 7"),
    ("good_ex1.json", lambda doc: doc["edges"][0].update(eta={"1": {"2": 5}}),
     "document.edges[0]: field 'eta.1.2' must be a Gaussian rational, got 5"),
    ("good_ex1.json", lambda doc: doc["legs"][0].update(position="x"),
     "document.legs[0]: field 'position' must be a point of P1, got 'x'"),
    ("good_ex2.json", lambda doc: doc["sections"]["v1"]["1"].update(degree="2"),
     "document.sections.v1.1: field 'degree' must be an integer, got '2'"),
    ("good_ex2.json", lambda doc: doc["sections"]["v1"]["1"].update(scale=2),
     "document.sections.v1.1: field 'scale' must be a Gaussian rational, got 2"),
    ("good_ex2.json",
     lambda doc: doc["sections"]["v1"].update({"01": dict(doc["sections"]["v1"].pop("1"),
                                                          degree="x")}),
     "document.sections.v1.01: field 'degree' must be an integer, got 'x'"),
    ("mc_issue_profile.json", lambda doc: doc["profile"]["families"][1].pop("dot"),
     "document.profile.families[1]: missing field 'dot'"),
    ("mc_issue_profile.json",
     lambda doc: doc["profile"]["families"][1].update(delta={"linear": "x"}),
     "document.profile.families[1].delta: field 'linear' must be an integer, got 'x'"),
    ("good_ex1.json", lambda doc: doc["expect"].update(cover={"d": 2}),
     "document.expect.cover: missing field 'l'"),
]


@pytest.mark.parametrize("name, mutate, error", EXACT_FIELD_ERRORS,
                         ids=[e.split(":")[0] + "-" + e.split("'")[1]
                              for _, _, e in EXACT_FIELD_ERRORS])
def test_field_error_names_the_record_path(tmp_path, name, mutate, error):
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert set(_errors(path).values()) == {error}


def test_null_depth_reads_as_depth_zero(tmp_path):
    with open(fixture("good_ex1.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "doc.json"
    outputs = []
    for depth in (None, 0):
        doc["expect"]["cover"] = {"d": 2, "l": 1, "k": 2, "c1_log_base": 1, "depth": depth}
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["dims", str(path)]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["d_fiber"] == 2


@pytest.mark.parametrize("name, record, key", [
    ("good_ex1.json", ("vertices", 0), "stratum"),
    ("good_ex1.json", ("vertices", 0), "kind"),
    ("good_ex1.json", ("legs", 0), "contact"),
    ("good_ex1.json", (), "legs"),
    ("good_ex1.json", (), "schema_version"),
    ("good_ex2.json", ("sections", "v1", "1"), "scale"),
    ("good_ex2.json", ("sections", "v1", "1"), "divisor"),
    ("mc_issue_profile.json", ("profile", "families", 0), "multiplicity"),
    ("mc_issue_profile.json", ("profile", "families", 0), "effective"),
])
def test_null_optional_field_reads_as_absent(name, record, key):
    with open(fixture(name)) as fh:
        doc = json.load(fh)
    target = doc
    for part in record:
        target = target[part]
    target[key] = None
    with_null = schema.parse_document(doc)
    del target[key]
    absent = schema.parse_document(doc)
    assert schema.serialize_document(*with_null[:2]) == schema.serialize_document(*absent[:2])
    assert with_null[2] == absent[2]


def test_empty_characters_or_profile_reads_as_absent():
    with open(fixture("good_ex2.json")) as fh:
        doc = json.load(fh)
    doc.update(characters=[], profile={})
    _, _, profile, characters, _ = schema.parse_document(doc)
    assert profile is None and characters is None


def test_integer_too_long_to_convert_is_an_input_error(tmp_path):
    with open(fixture("good_ex1.json")) as fh:
        text = fh.read()
    path = tmp_path / "doc.json"
    path.write_text(text.replace('"N": 2', '"N": ' + "1" * 5000, 1))
    errors = _errors(path, ["validate"])
    assert errors["validate"].startswith("invalid JSON: ")


def test_into_flags_must_match_the_ends(tmp_path):
    with open(fixture("two_line_collapsed.json")) as fh:
        doc = json.load(fh)
    edge = next(e for e in doc["edges"] if "into" in e)
    edge["into"] = edge["into"][:-1]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in sorted(set(cli._COMMANDS) - {"positivity"}):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command, str(path)])
        assert code == 2, command
        assert "into/ends length mismatch" in json.loads(out.getvalue())["error"], command


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
    """Counted in `_init`, which both the public constructor and the one
    `build_rho` uses run."""
    built = []
    init = lattice.LatticeMap._init

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lattice.LatticeMap, "_init", counting_init)
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


@pytest.mark.skipif(not os.path.exists(GOLDEN), reason="benchmark goldens not present")
def test_report_pool_documents_match_golden(tmp_path, monkeypatch):
    """`report` on the first ghost-star and map-model documents of the
    benchmark's report pool, and `rt` on the map models: the Q(i)-heavy
    outputs, checked against the benchmark's golden exit codes and stdout
    digests. The documents are written under tmp_path at the relative path
    the goldens echo; nothing is written under bench/."""
    with open(os.path.join(ROOT, "bench", "baseline", "report.json")) as fh:
        golden = json.load(fh)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(workloads.report_path("ghost", 0)))
    runs = []
    for kind, commands in (("ghost", ["report"]), ("map", ["report", "rt"])):
        for index in range(25):
            path = workloads.report_path(kind, index)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(schema.dumps(workloads.report_document(kind, index)))
            runs += [(command, kind, index, path) for command in commands]
    mismatches = []
    for command, kind, index, path in runs:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command, path])
        expected = golden[f"{command}:{kind}:{index}"]
        if (code, _digest(out.getvalue())) != (expected["code"], expected["stdout"]):
            mismatches.append((command, kind, index))
    assert len(runs) == 75
    assert mismatches == []


def test_stratum_dimension_routes_disagreeing_is_an_internal_error(monkeypatch):
    """The two stratum-dimension routes disagreeing is the program's fault:
    the library raises InconsistencyError, which is no input error, and the
    CLI exits 1 with a JSON error, not 2."""
    from logmoduli import dimension
    from logmoduli.errors import InconsistencyError, InputError, StructuralError

    with open(fixture("good_ex1.json")) as fh:
        graph = schema.loads(fh.read())[0]
    route1 = dimension.expected_dim_log
    monkeypatch.setattr(dimension, "expected_dim_log", lambda *a: route1(*a) + 1)
    with pytest.raises(InconsistencyError) as caught:
        dimension.stratum_dim(graph)
    assert not isinstance(caught.value, (InputError, StructuralError))
    for command in ("dims", "report"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([command, fixture("good_ex1.json")])
        assert code == cli.EXIT_VIOLATION == 1, command
        assert "stratum dimension routes disagree" in json.loads(out.getvalue())["error"]


# -- the CLI sweep ----------------------------------------------------------------

SWEEP_FLAGS = (
    (),
    ("--format", "table"),
    ("--characters", "src/logmoduli/fixtures/characters_good_ex2.json"),
    ("--cone",),
    ("--bound", "2"),
    ("--expect-trivial",),
    ("--multinode",),
)
# recorded at f472b34, before the payload envelope moved out of the runners
SWEEP_DIGEST = "66025fb555688171"
SWEEP_CODES = {0: 687, 1: 51, 2: 351}


def _sweep_runs():
    """Every command on every fixture under each flag set, on two fixtures at
    once and on a missing file, as argvs relative to the repository root."""
    names = sorted(os.listdir(os.path.join(ROOT, "src", "logmoduli", "fixtures")))
    paths = [f"src/logmoduli/fixtures/{name}" for name in names]
    runs = [[command, path, *flags]
            for command in sorted(cli._COMMANDS) for path in paths for flags in SWEEP_FLAGS]
    runs += [[command, path, paths[(i + 1) % len(paths)]]
             for command in sorted(cli._COMMANDS) for i, path in enumerate(paths)]
    runs += [[command, "src/logmoduli/fixtures/missing.json"] for command in sorted(cli._COMMANDS)]
    assert (len(names), len(runs)) == (15, 1089)
    return runs


def test_cli_sweep_matches_the_recorded_digest(monkeypatch):
    """The sweep run in process from the repository root: one digest over
    (argv, exit code, stdout) pins the table form, the flags and multi-input
    runs that the goldens above leave out."""
    monkeypatch.chdir(ROOT)
    digest, codes = hashlib.sha256(), {}
    for argv in _sweep_runs():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        digest.update(json.dumps([argv, code, out.getvalue()]).encode())
        codes[code] = codes.get(code, 0) + 1
    assert codes == SWEEP_CODES
    assert digest.hexdigest()[:16] == SWEEP_DIGEST


# the sweep applies one flag set at a time, so it prints no cone and no
# --characters values as a table; recorded at 8854aca
TABLE_FLAGS = (
    ("--cone", "--format", "table"),
    ("--characters", "src/logmoduli/fixtures/characters_good_ex2.json", "--format", "table"),
)
TABLE_DIGEST = "3649415d82309dc8"
TABLE_CODES = {0: 172, 1: 10, 2: 88}


def test_cone_and_characters_tables_match_the_recorded_digest(monkeypatch):
    """Every command on every fixture under each of TABLE_FLAGS, run in
    process from the repository root, digested as the sweep is."""
    monkeypatch.chdir(ROOT)
    names = sorted(os.listdir(os.path.join(ROOT, "src", "logmoduli", "fixtures")))
    digest, codes = hashlib.sha256(), {}
    for command in sorted(cli._COMMANDS):
        for name in names:
            for flags in TABLE_FLAGS:
                argv = [command, f"src/logmoduli/fixtures/{name}", *flags]
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main(argv)
                digest.update(json.dumps([argv, code, out.getvalue()]).encode())
                codes[code] = codes.get(code, 0) + 1
    assert codes == TABLE_CODES
    assert digest.hexdigest()[:16] == TABLE_DIGEST


# -- the canonical writer against json --------------------------------------------


def _json_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


_CHARS = "aZ09 \"\\/'\x00\x01\x1f\x7f\xe9\u2028\ud800\U0001f600\t\n\r"
_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, 5e-324, 0.1, float("nan"), float("inf"), float("-inf")]


def _random_json(rng, depth):
    """A random JSON value: containers down to `depth`, then scalars."""
    kind = rng.randrange(12 if depth > 0 else 6)  # 8 to 11 make a dict
    if kind == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([0, 1, -1, 9, 10, 2 ** 64, -(3 ** 90), rng.randrange(-10 ** 6, 10 ** 6)])
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice(["", [], {}, ()])
    items = [_random_json(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    # keys that sort among themselves: strings, or numbers and bools; None
    # only as a lone key
    keys = rng.choice([
        lambda: "".join(rng.choice(_CHARS) for _ in range(rng.randrange(4))),
        lambda: rng.choice([0, 1, 2, 9, 10, 11, -5, 2 ** 70, 1.5, -0.5, float("inf"), True,
                            False]),
    ])
    out = {keys(): item for item in items}
    if not out and rng.random() < 0.2:
        out[None] = _random_json(rng, depth - 1)
    return out


def _dicts(value):
    """The dicts in a JSON value, at any depth."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _dicts(item)


def test_dumps_differential_on_random_json_trees():
    rng = random.Random(20260519)
    values = [_random_json(rng, rng.randrange(1, 6)) for _ in range(800)]
    deep = "leaf"
    for level in range(120):
        deep = [deep, {}] if level % 2 else {str(level): deep, "": ()}
    values.append(deep)
    assert sum(len(d) > 1 for d in _dicts(values)) > 300  # many sorts to check
    assert [v for v in values if schema.dumps(v) != _json_dumps(v)] == []


@pytest.mark.parametrize("value", [
    {1, 2}, object(), b"bytes", 1j, [1, {"a": {2}}], {(1, 2): 0}, {1: 0, "a": 1},
    {"a": 1, None: 2},
])
def test_dumps_differential_raises_what_json_raises(value):
    with pytest.raises(TypeError) as expected:
        _json_dumps(value)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        schema.dumps(value)


def test_dumps_differential_on_every_sweep_payload(monkeypatch):
    """The sweep's JSON-format runs print every payload through
    `schema.dumps`, each the text json writes."""
    monkeypatch.chdir(ROOT)
    write, payloads = schema.dumps, []

    def checked(payload):
        payloads.append(payload)
        return write(payload)

    monkeypatch.setattr(schema, "dumps", checked)
    for argv in _sweep_runs():
        with redirect_stdout(io.StringIO()):
            cli.main(argv)
    # the 135 table runs print no JSON and the 135 two-input runs two payloads
    assert len(payloads) == 1089
    assert [p for p in payloads if write(p) != _json_dumps(p)] == []


def test_readme_cli_section_documents_every_flag():
    """The README's CLI section names exactly the parser's long options
    (argparse's own --help aside)."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = {opt for action in cli._parser()._actions for opt in action.option_strings
             if opt.startswith("--")} - {"--help"}
    assert "--format" in flags
    assert flags == set(re.findall(r"--[a-z][a-z-]*", section))
