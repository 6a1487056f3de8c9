"""The package's import surface, each load check in a fresh interpreter:
the CLI loads only the modules its command calls, `import logmoduli` still
offers every public name and submodule, and no module imports a name it
never uses."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import logmoduli

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(logmoduli.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(PACKAGE_ROOT, "logmoduli", "fixtures")

# modules that validate, decorate, group and ob never call
ANALYSIS_ONLY = {"rt", "positivity", "dimension", "tropical", "linprog"}

# every public name of the package, by defining module
EXPORTS = {
    "errors": ["InconsistencyError", "InputError", "LogModuliError", "MissingEtaError",
               "SizeCapError", "StructuralError"],
    "graphs": ["BUBBLE", "GHOST", "PRINCIPAL", "DecoratedDualGraph", "Edge", "Leg",
               "ValidationReport", "Vertex", "solve_decorations", "validate_graph"],
    "lattice": ["CharacterBasis", "Characters", "LatticeMap", "build_rho", "build_rho_multinode",
                "cokernel_characters", "kernel_lattice", "multinode_character_pullback",
                "node_index"],
    "obstruction": ["GhostConfig", "ObstructionClass", "OV0Result", "canonical_characters",
                    "collapse_ghost", "collapse_homomorphism", "compute_ob",
                    "compute_ob_multinode", "compute_o_v0", "flip_edge", "relation_check"],
    "dimension": ["DimensionReport", "cover_fiber_dim", "cover_replace_delta",
                  "dimension_report", "expected_dim_log", "gamma_stratum_dim",
                  "ghost_collapse_delta", "mc_fiber_dims", "plog_dim", "q_quantity",
                  "q_upper_bound", "stratum_dim"],
    "positivity": ["Classification", "CurveFamily", "GeometryProfile", "classify_pair",
                   "hyperplane_profile"],
    "qi": ["GaussianRational", "qi_parse", "qi_str"],
    "rt": ["MapModel", "ReductionTrace", "classify_cluster", "rt_reduce",
           "verify_edge_invariant"],
    "sections": ["INF", "CurveData", "P1Point", "RationalSection", "build_section",
                 "leading_coefficient", "order_vector"],
    "tropical": ["ConeDescription", "TropicalResult", "TropicalWitness", "cone_sigma",
                 "feasible_by_fourier_motzkin", "tropical_feasible"],
}
SUBMODULES = ["dimension", "errors", "graphs", "intlinalg", "lattice", "linprog",
              "obstruction", "positivity", "qi", "rt", "sections", "tropical"]


def _run(*args, cwd=None):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def _fresh(code):
    """Run code in a fresh interpreter and return what it printed as JSON."""
    return json.loads(_run("-c", code).stdout)


def test_cli_import_loads_no_analysis_module():
    loaded = _fresh("import json, sys, logmoduli.cli; print(json.dumps(sorted(sys.modules)))")
    assert not {f"logmoduli.{m}" for m in ANALYSIS_ONLY} & set(loaded)


def test_validate_command_loads_no_analysis_module():
    proc = _run("-X", "importtime", "-m", "logmoduli.cli", "validate",
                os.path.join(FIXTURES, "g0_a0_tree.json"))
    assert json.loads(proc.stdout)["valid"] is True
    imported = set(re.findall(r"\|\s*(logmoduli\.\w+)\s*$", proc.stderr, re.M))
    assert "logmoduli.graphs" in imported
    assert not {f"logmoduli.{m}" for m in ANALYSIS_ONLY} & imported


def test_only_ob_and_report_load_the_obstruction_module():
    # a document with a profile, on which all nine commands exit 0
    path = os.path.join(FIXTURES, "mc_issue_profile.json")
    loads = {}
    for command in ("validate", "decorate", "group", "tropical", "dims", "positivity", "rt",
                    "ob", "report"):
        proc = _run("-X", "importtime", "-m", "logmoduli.cli", command, path)
        assert json.loads(proc.stdout)["command"] == command
        imported = set(re.findall(r"\|\s*(logmoduli\.\w+)\s*$", proc.stderr, re.M))
        assert {"logmoduli.schema", "logmoduli.sections"} <= imported
        loads[command] = "logmoduli.obstruction" in imported
    assert [command for command, loaded in loads.items() if loaded] == ["ob", "report"]


# the commands whose run never needs a Fraction: Q(i) arithmetic is on ints
LIGHT_COMMANDS = ["validate", "decorate", "group", "ob", "dims"]
RATIONAL_MODULES = {"fractions", "decimal", "numbers"}


def test_light_commands_load_no_fractions_module():
    fixtures = sorted(n for n in os.listdir(FIXTURES) if not n.startswith("characters"))
    argvs = [[command, os.path.join(FIXTURES, name)]
             for command in LIGHT_COMMANDS for name in fixtures]
    argvs.append(["ob", os.path.join(FIXTURES, "good_ex2.json"), "--characters",
                  os.path.join(FIXTURES, "characters_good_ex2.json")])
    result = _fresh(
        "import contextlib, io, json, sys, logmoduli.cli\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(logmoduli.cli.main(argv))\n"
        "print(json.dumps([codes, sorted(sys.modules)]))"
    )
    codes, loaded = result
    assert codes.count(0) > len(argvs) // 2  # most runs compute, so Q(i) values are read
    assert not RATIONAL_MODULES & set(loaded)


def test_group_command_loads_no_heap_or_rational_module():
    # the lattice normal forms walk their columns in order, with no heap
    proc = _run("-X", "importtime", "-m", "logmoduli.cli", "group",
                os.path.join(FIXTURES, "good_ex1.json"))
    assert json.loads(proc.stdout)["command"] == "group"
    imported = set(re.findall(r"\|\s*([\w.]+)\s*$", proc.stderr, re.M))
    assert {"json", "logmoduli.intlinalg", "logmoduli.lattice"} <= imported
    assert not {"heapq", "fractions", "decimal"} & imported


def test_import_loads_no_submodule():
    loaded = _fresh("import json, sys, logmoduli; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.startswith("logmoduli.")] == []


def test_every_public_name_resolves_to_its_defining_object():
    result = _fresh(
        "import importlib, json, types, logmoduli as lm\n"
        f"exports = {EXPORTS!r}\n"
        f"submodules = {SUBMODULES!r}\n"
        # submodules first: resolving an export imports its module as a side effect
        "mods = {name: isinstance(getattr(lm, name), types.ModuleType)"
        " and getattr(lm, name).__name__ == 'logmoduli.' + name for name in submodules}\n"
        "same = {name: getattr(lm, name) is getattr(importlib.import_module("
        "'logmoduli.' + mod), name) for mod, names in exports.items() for name in names}\n"
        "print(json.dumps({'same': same, 'mods': mods, 'all': sorted(lm.__all__),"
        " 'dir': dir(lm)}))"
    )
    exports = sorted(name for names in EXPORTS.values() for name in names)
    assert (len(exports), len(SUBMODULES)) == (74, 12)
    assert sorted(result["same"]) == exports and all(result["same"].values())
    assert sorted(result["mods"]) == SUBMODULES and all(result["mods"].values())
    assert result["all"] == exports
    public = [name for name in result["dir"] if not name.startswith("_")]
    assert sorted(public) == sorted(exports + SUBMODULES)


def test_unknown_name_raises_attribute_error():
    result = _fresh(
        "import json, logmoduli as lm\n"
        "try:\n"
        "    lm.no_such_name\n"
        "    out = None\n"
        "except AttributeError as exc:\n"
        "    out = str(exc)\n"
        "print(json.dumps([out, hasattr(lm, 'cli'), hasattr(lm, 'schema')]))"
    )
    assert result == ["module 'logmoduli' has no attribute 'no_such_name'", False, False]


def test_submodule_attribute_resolves_in_a_lone_test_run():
    # reads lm.tropical before anything imported logmoduli.tropical
    test = "test_tropical.py::test_fourier_motzkin_finishes_on_a_row_blowup_graph"
    proc = _run("-m", "pytest", "-q", "-p", "no:cacheprovider", os.path.join(TESTS, test),
                cwd=os.path.dirname(TESTS))
    assert "1 passed" in proc.stdout


def _unused_imports(path):
    """The names a module imports (its `from __future__` line aside) that no
    expression of it reads, with the line of each import."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(glob.glob(os.path.join(PACKAGE_ROOT, "logmoduli", "*.py")))
    assert len(modules) == len(SUBMODULES) + 3  # the package, its cli and its schema
    unused = {os.path.basename(path): _unused_imports(path) for path in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def _top_level_names(tree):
    """(name, first line, last line) of each function, class and assignment
    at the top level of a module, decorators included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            yield name, first, node.end_lineno


def test_every_top_level_name_is_named_outside_its_definition():
    repo = os.path.dirname(TESTS)
    texts = {path: open(path, encoding="utf-8").read()
             for folder in ("src", "tests", "bench")
             for path in glob.glob(os.path.join(repo, folder, "**", "*.py"), recursive=True)}
    words = {}
    for text in texts.values():
        for word in re.findall(r"\w+", text):
            words[word] = words.get(word, 0) + 1
    dead = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_ROOT, "logmoduli", "*.py"))):
        lines = texts[path].splitlines()
        for name, first, last in _top_level_names(ast.parse(texts[path], path)):
            own = re.findall(rf"\b{name}\b", "\n".join(lines[first - 1:last]))
            if not (name.startswith("__") and name.endswith("__")) and words[name] == len(own):
                dead.append(f"{os.path.basename(path)}:{first} {name}")
    assert len(texts) > len(SUBMODULES)
    assert dead == []
