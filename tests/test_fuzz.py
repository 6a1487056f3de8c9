"""Seeded mutation fuzz of the input contract.

Every fixture is mutated (a value's type changed, a key or list entry
dropped, an entry replaced by a scalar) and every command runs on each
mutant in process. Whatever the input, a command exits 0, 1 or 2, prints
JSON and lets no exception escape, so the console script never prints a
traceback. A field error names the JSON path of its record, and that path
resolves to an object in the mutated document.
"""

import copy
import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from logmoduli import cli

FIXTURES = os.environ.get(
    "LOGMODULI_FIXTURES",
    os.path.join(os.path.dirname(__file__), "..", "src", "logmoduli", "fixtures"),
)
NAMES = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json"))

SCALARS = ["x", 5, -1, 0, 1.5, True, None]
VALUES = SCALARS + ["0", "inf", "1/0", "1/2+1*i", [], {}, [1], [[1]], {"x": 1}]


def _paths(value, path=()):
    """The path of every value nested in value, itself excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _shapes(doc):
    """The paths of doc grouped by field shape (list indices blanked), so
    a rare field such as a family's `delta` is drawn as often as the many
    entries of the contact vectors together."""
    shapes = {}
    for path in _paths(doc):
        shapes.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
    return [shapes[shape] for shape in sorted(shapes)]


def _mutate(rng, doc, path):
    """Retype, drop or make a scalar the value at path; the mutation is
    returned as (kind, path)."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    kind = rng.choice(["retype", "drop", "scalar"])
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "scalar":
        parent[path[-1]] = rng.choice(SCALARS)
    else:
        parent[path[-1]] = copy.deepcopy(rng.choice([v for v in VALUES if type(v) is not type(old)]))
    return kind, path


# "<record path>: field '...'" or "<record path>: missing field '...'"
FIELD_ERROR = re.compile(r"(document(?:\.[^.\[\]:]+|\[\d+\])*): (?:missing )?field '")
STEP = re.compile(r"\.([^.\[\]:]+)|\[(\d+)\]")


def _resolve(doc, path):
    """The value at a record path such as document.edges[0] or
    document.sections.v1.1; KeyError, IndexError or TypeError when it does
    not resolve."""
    value = doc
    for key, index in STEP.findall(path[len("document"):]):
        value = value[key] if key else value[int(index)]
    return value


@pytest.mark.parametrize("name", NAMES)
def test_every_command_survives_mutated_fixtures(tmp_path, name):
    with open(os.path.join(FIXTURES, name)) as fh:
        original = json.load(fh)
    rng = random.Random(name)
    path = tmp_path / name
    for k, paths in enumerate(_shapes(original)):
        doc = copy.deepcopy(original)
        mutation = _mutate(rng, doc, rng.choice(paths))
        path.write_text(json.dumps(doc))
        for command in sorted(cli._COMMANDS):
            out, err = io.StringIO(), io.StringIO()
            where = f"{name} mutant {k} {mutation}: {command}"
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([command, str(path)])
            except Exception as exc:
                pytest.fail(f"{where} raised {exc!r}")
            assert code in (0, 1, 2), where
            payload = json.loads(out.getvalue())
            assert "Traceback" not in err.getvalue(), where
            match = FIELD_ERROR.match(payload.get("error", "")) if code == 2 else None
            if match:
                try:
                    record = _resolve(doc, match.group(1))
                except (KeyError, IndexError, TypeError):
                    pytest.fail(f"{where}: {payload['error']!r} names no record of the document")
                assert isinstance(record, dict), f"{where}: {payload['error']!r}"
