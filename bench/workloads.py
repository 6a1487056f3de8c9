"""The benchmark's four workloads, each a closed loop with one client.

A workload has a fixed pool of op instances (`pool`), generated from fixed
keys, runs one op per instance under the deadline, and checks its output
against the seed-commit answers in baseline/ plus independent invariants.
The run seed orders the pool in each pass (see run.py).  The pools are fixed
and every run makes whole passes over them, because the ladders mix op
times from milliseconds to the deadline: a seed-drawn sample of a few dozen
graphs moved the median op time by 60 % between seeds, while a fixed pool
gives every run the same mix.

`run` returns an Op whose `seconds` covers only the calls into the program,
never the checks.  `tail_pct` is the highest percentile of the pool's
instances with at least ten instances beyond it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import logmoduli as lm
import logmoduli.cli
from logmoduli import schema

import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")  # caches, documents and spans; git-ignored
FIXTURES = "src/logmoduli/fixtures"
COMMANDS = ["validate", "decorate", "tropical", "group", "ob", "dims", "positivity", "rt", "report"]

# status: ok | timeout | wrong; detail names the timed-out call or failed check
Op = namedtuple("Op", "instance seconds status detail")


class Timeout(BaseException):
    """A call into the program ran past the deadline.

    A BaseException, so that no `except Exception` in the program absorbs it.
    """


def _on_alarm(signum, frame):
    raise Timeout()


def call_with_deadline(fn, deadline):
    """Run fn() under a SIGALRM deadline: (value, seconds, timed_out)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Timeout:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return None, time.perf_counter() - t0, True
    return value, time.perf_counter() - t0, False


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def load_baseline(name):
    with open(os.path.join(BENCH, "baseline", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def key_str(key):
    return ":".join(str(k) for k in key)


def child_env():
    """Environment of every child interpreter: the package on PYTHONPATH and
    bytecode cached under the benchmark's own directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


def _check_output(code, stdout, stderr, golden):
    """Exit-0 ops must match the golden stdout byte for byte; error ops must
    keep their exit code, print JSON and no traceback."""
    if code != golden["code"]:
        return f"exit {code}, expected {golden['code']}"
    if code == 0:
        return "stdout differs from golden" if digest(stdout) != golden["stdout"] else None
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return None


class CliFixtures:
    """One fresh `python -m logmoduli.cli <cmd> <fixture>` process per op over
    all commands x graph fixtures; almost all of an op is interpreter start-up
    and package import."""

    name = "cli-fixtures"
    tail_pct = 92

    def __init__(self, deadline, tracer=None):
        self.deadline, self.tracer = deadline, tracer
        fixtures = sorted(f for f in os.listdir(os.path.join(ROOT, FIXTURES))
                          if f.endswith(".json") and not f.startswith("characters"))
        self.pool = [(cmd, f) for cmd in COMMANDS for f in fixtures]
        self.golden = load_baseline("cli")
        self.env = child_env()
        self.spans_path = os.path.join(WORK, "child-spans.json")

    def argv(self, inst):
        cmd, fixture = inst
        if self.tracer is None:
            return [sys.executable, "-m", "logmoduli.cli", cmd, f"{FIXTURES}/{fixture}"]
        return [sys.executable, os.path.join(BENCH, "cli_child.py"), self.spans_path,
                cmd, f"{FIXTURES}/{fixture}"]

    def run(self, inst):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(self.argv(inst), cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self.deadline)
        except subprocess.TimeoutExpired:
            return Op(inst, time.perf_counter() - t0, "timeout", "cli process")
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            with open(self.spans_path, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            os.remove(self.spans_path)
        problem = _check_output(proc.returncode, proc.stdout, proc.stderr,
                                self.golden[" ".join(inst)])
        return Op(inst, seconds, "wrong" if problem else "ok", problem)


LATTICE_RUNGS = [("cycle", nv) for nv in (4, 6, 8, 10, 12, 16, 24)] + \
                [("tree", nv) for nv in (8, 16, 24)]
LATTICE_POOL = 3  # graphs per rung
LATTICE_CALLS = ["rank", "kernel_basis", "character_basis", "invariant_factors"]


def lattice_graph(family, nv, index):
    return gen.ladder_graph(gen.pool_rng("lattice", family, nv, index), nv, family == "cycle")


def lattice_op(graph, deadline):
    """build_rho, then each normal-form call under its own deadline, so a
    blow-up in one call leaves the others measured on the same graph.
    Returns (map or None, {call: answer}, [timed-out calls], seconds)."""
    lmap, seconds, timed_out = call_with_deadline(lambda: lm.build_rho(graph), deadline)
    if timed_out:
        return None, {}, ["build_rho"], seconds
    answers, timeouts = {}, []
    fns = {
        "rank": lambda: lmap.rank,
        "kernel_basis": lambda: [list(r) for r in lmap.kernel_basis()],
        "character_basis": lambda: [list(r) for r in lmap.character_basis().rows],
        "invariant_factors": lambda: list(lmap.invariant_factors()),
    }
    for call in LATTICE_CALLS:
        value, dt, timed_out = call_with_deadline(fns[call], deadline)
        seconds += dt
        if timed_out:
            timeouts.append(call)
        else:
            answers[call] = value
    return lmap, answers, timeouts, seconds


def check_lattice(lmap, answers, expected):
    """M.k = 0 for kernel rows, chi.M = 0 for characters, row counts from the
    SNF rank, and equality with the seed commit wherever it finished."""
    m = lmap.matrix
    ker = answers.get("kernel_basis")
    if ker is not None and any(sum(a * b for a, b in zip(row, k)) for k in ker for row in m):
        return "kernel row k with M.k != 0"
    chars = answers.get("character_basis")
    if chars is not None:
        for j in range(lmap.n_cols):
            if any(sum(c[i] * m[i][j] for i in range(lmap.n_rows)) for c in chars):
                return "character chi with chi.M != 0"
    factors = answers.get("invariant_factors")
    if factors is not None:
        r = len(factors)
        if answers.get("rank", r) != r:
            return f"rank {answers['rank']} != {r} SNF factors"
        if ker is not None and len(ker) != lmap.n_cols - r:
            return f"{len(ker)} kernel rows, expected {lmap.n_cols - r}"
        if chars is not None and len(chars) != lmap.n_rows - r:
            return f"{len(chars)} character rows, expected {lmap.n_rows - r}"
    for call, value in answers.items():
        if expected.get(call) not in (None, "timeout") and digest(value) != expected[call]:
            return f"{call} differs from the seed commit"
    return None


class LatticeLadder:
    """In-process group analyses (rank, kernel, characters, invariant factors)
    on cycle-rich and tree graphs over a size ladder; intlinalg and lattice do
    nearly all the work and linprog none."""

    name = "lattice-ladder"
    tail_pct = 66

    def __init__(self, deadline, tracer=None):
        self.deadline = deadline
        self.expected = load_baseline("lattice")
        self.pool = [rung + (i,) for rung in LATTICE_RUNGS for i in range(LATTICE_POOL)]

    def run(self, key):
        graph = lattice_graph(*key)
        lmap, answers, timeouts, seconds = lattice_op(graph, self.deadline)
        problem = lmap is not None and check_lattice(lmap, answers, self.expected[key_str(key)])
        if problem:
            return Op(key, seconds, "wrong", problem)
        if timeouts:
            return Op(key, seconds, "timeout", ",".join(timeouts))
        return Op(key, seconds, "ok", None)


TROPICAL_RUNGS = [(kind, nv) for kind in ("feasible", "random") for nv in (4, 6, 8, 10)]
TROPICAL_POOL = 10  # graphs per rung


def tropical_graph(kind, nv, index):
    return gen.tropical_graph(gen.pool_rng("tropical", kind, nv, index), nv, kind == "feasible")


def farkas_holds(graph, certificate):
    """Independent check that `certificate` (label (edge, i) -> y) proves
    {x >= 1 : A x = 0} empty for the slope/length equations of `graph`:
    with b = -A.1 and rows normalised to b >= 0, y.A <= 0 and y.b > 0."""
    cols = {("lam", e.id): k for k, e in enumerate(graph.edges)}
    for v in graph.vertices:
        for i in sorted(v.stratum):
            cols[("s", v.id, i)] = len(cols)
    comb = [Fraction(0)] * len(cols)
    rhs = Fraction(0)
    for e in graph.edges:
        v1, v2 = e.ends
        for i in range(1, graph.N + 1):
            row = [0] * len(cols)
            row[cols[("lam", e.id)]] -= e.contact[i - 1]
            if ("s", v2, i) in cols:
                row[cols[("s", v2, i)]] += 1
            if ("s", v1, i) in cols:
                row[cols[("s", v1, i)]] -= 1
            b = -sum(row)
            y = Fraction(certificate.get((e.id, i), 0))
            if b < 0:
                row, b = [-x for x in row], -b
            rhs += y * b
            for j, x in enumerate(row):
                comb[j] += y * x
    return all(c <= 0 for c in comb) and rhs > 0


class TropicalLadder:
    """In-process tropical_feasible on cycle-rich graphs over a size ladder,
    half feasible by construction (witness path) and half with independent
    contacts (Farkas path); linprog does nearly all the work, lattice none."""

    name = "tropical-ladder"
    tail_pct = 87

    def __init__(self, deadline, tracer=None):
        self.deadline = deadline
        self.expected = load_baseline("tropical")
        self.pool = [rung + (i,) for rung in TROPICAL_RUNGS for i in range(TROPICAL_POOL)]

    def run(self, key):
        graph = tropical_graph(*key)
        res, seconds, timed_out = call_with_deadline(lambda: lm.tropical_feasible(graph),
                                                     self.deadline)
        if timed_out:
            return Op(key, seconds, "timeout", "tropical_feasible")
        problem = check_tropical(graph, res, self.expected[key_str(key)])
        return Op(key, seconds, "wrong" if problem else "ok", problem)


def check_tropical(graph, res, expected):
    if expected != "timeout" and res.feasible != expected:
        return f"verdict {res.feasible}, seed commit gave {expected}"
    if res.feasible:
        if res.witness is None or not res.witness.check(graph):
            return "witness fails TropicalWitness.check"
    elif not farkas_holds(graph, res.certificate or {}):
        return "Farkas certificate fails the equation check"
    return None


REPORT_KINDS = ["ghost", "map", "balanced"]
REPORT_POOL = 200  # documents per kind
# a report on every document, plus rt on every map model
REPORT_OPS = [("report", "ghost"), ("report", "map"), ("rt", "map"), ("report", "balanced")]


def report_document(kind, index):
    rng = gen.pool_rng("report", kind, index)
    if kind == "ghost":
        graph, data = gen.ghost_star(rng)
        return schema.serialize_document(graph, data)
    if kind == "map":
        return schema.serialize_document(gen.map_model(rng))
    return schema.serialize_document(gen.balanced_graph(rng, cyclic=True))


def report_path(kind, index):
    """Relative to the repository root, as the golden stdout echoes it."""
    return f"bench/.work/docs/{kind}-{index}.json"


def write_report_documents():
    os.makedirs(os.path.join(WORK, "docs"), exist_ok=True)
    for kind in REPORT_KINDS:
        for index in range(REPORT_POOL):
            with open(os.path.join(ROOT, report_path(kind, index)), "w", encoding="utf-8") as fh:
                fh.write(schema.dumps(report_document(kind, index)))


def run_cli_in_process(argv, deadline):
    """logmoduli.cli.main(argv) with captured streams: (code, stdout, stderr,
    seconds, timed_out); an exception escaping main is returned as code None
    with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return logmoduli.cli.main(argv)
            except Exception:
                traceback.print_exc()
                return None

    code, seconds, timed_out = call_with_deadline(call, deadline)
    return code, out.getvalue(), err.getvalue(), seconds, timed_out


class ReportSmall:
    """In-process `report` (and `rt` on map models) on many small documents:
    ghost stars with curve data, map models and small balanced cyclic graphs;
    the normal-form code as many tiny calls, plus schema, obstruction,
    sections, dimension and rt."""

    name = "report-small"
    tail_pct = 98

    def __init__(self, deadline, tracer=None):
        self.deadline = deadline
        self.golden = load_baseline("report")
        self.pool = [op + (i,) for op in REPORT_OPS for i in range(REPORT_POOL)]
        write_report_documents()

    def run(self, inst):
        cmd, kind, index = inst
        code, stdout, stderr, seconds, timed_out = run_cli_in_process(
            [cmd, report_path(kind, index)], self.deadline)
        if timed_out:
            return Op(inst, seconds, "timeout", cmd)
        if code is None:
            return Op(inst, seconds, "wrong", "traceback")
        problem = _check_output(code, stdout, stderr, self.golden[key_str(inst)])
        return Op(inst, seconds, "wrong" if problem else "ok", problem)


WORKLOADS = {w.name: w for w in (CliFixtures, LatticeLadder, TropicalLadder, ReportSmall)}
