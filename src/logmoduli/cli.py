"""Deterministic command-line front end.

Commands: validate | decorate | tropical | group | ob | dims | positivity |
rt | report.  Output is canonical JSON by default or an aligned text table
with --format table.  Exit codes: 0 computed, 1 invariant violation found
(in the input, or an internal inconsistency of the program), 2 input error.
Each run_<command> returns a body and an exit code; main (and report, for
its parts) adds the command and input every payload carries.  A record in
a body (a violation, a witness, the cone, the dimension report) prints a
copy of its dataclass fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

# each command imports the library modules it calls, so a process loads
# only what its command needs
from . import schema
from .errors import InconsistencyError, LogModuliError, StructuralError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return schema.loads(fh.read())


def _envelope(command, path, body):
    """The printed payload: a runner's body with its command and input."""
    return {"command": command, "input": path, **body}


def run_validate(path, doc, args):
    from .graphs import validate_graph

    graph, _, _, _, _ = doc
    report = validate_graph(graph, multinode_allowed=args.multinode)
    return {
        "valid": report.valid,
        "violations": [dict(vars(v)) for v in report.violations],
    }, EXIT_OK if report.valid else EXIT_VIOLATION


def run_decorate(path, doc, args):
    from .graphs import solve_decorations

    graph, _, _, _, _ = doc
    sol = solve_decorations(graph, bound=args.bound)
    return {
        "status": sol.status,
        "reason": sol.reason,
        "assignments": [
            {eid: list(vec) for eid, vec in sorted(a.items())} for a in sol.assignments
        ],
        "cycle_ranks": {str(c.coordinate): len(c.cycle_basis) for c in sol.coordinates},
    }, EXIT_OK if sol.status != "none" else EXIT_VIOLATION


def run_tropical(path, doc, args):
    from .tropical import cone_sigma, tropical_feasible

    graph, _, _, _, _ = doc
    res = tropical_feasible(graph)
    body = {"feasible": res.feasible}
    if res.witness is not None:
        body["witness"] = {
            "lambda": {k: str(v) for k, v in sorted(res.witness.lam.items())},
            "slopes": {f"{vid}:{i}": str(v) for (vid, i), v in sorted(res.witness.slopes.items())},
        }
    if res.certificate:
        body["certificate"] = {f"{e}:{i}": str(y) for (e, i), y in sorted(res.certificate.items())}
    if args.cone:
        body["cone"] = dict(vars(cone_sigma(graph)))
    return body, EXIT_OK


def run_group(path, doc, args):
    from .lattice import build_rho

    graph, _, _, _, _ = doc
    lmap = build_rho(graph)
    chars = lmap.character_basis()
    return {
        "domain_rank": lmap.n_cols,
        "codomain_rank": lmap.n_rows,
        "kernel_rank": lmap.kernel_rank,
        "cokernel_rank": lmap.cokernel_rank,
        "kernel_basis": [list(r) for r in lmap.kernel_basis()],
        "characters": [list(r) for r in chars.rows],
        "invariant_factors": list(lmap.invariant_factors()),
    }, EXIT_OK


def _read_characters(args):
    """Character rows of the --characters file, or None without one."""
    if not args.characters:
        return None
    with open(args.characters, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise StructuralError(f"invalid JSON in characters file: {exc}") from exc
    rows = raw.get("characters") if isinstance(raw, dict) else raw
    if not rows:
        raise StructuralError("characters file carries no characters")
    return schema.character_rows(rows)


def run_ob(path, doc, args, rows=None):
    """The ob body; `rows` are the --characters rows if the caller read them."""
    from .obstruction import compute_ob
    from .qi import qi_str

    graph, data, _, characters, _ = doc
    if rows is None:
        rows = _read_characters(args)
    if rows is not None:
        characters = schema.characters_on(graph, rows)
    ob = compute_ob(graph, data, characters)
    return {
        "values": [qi_str(v) for v in ob.values],
        "is_trivial": ob.is_trivial,
        "characters": [list(r) for r in ob.characters.rows],
    }, EXIT_VIOLATION if args.expect_trivial and not ob.is_trivial else EXIT_OK


def run_dims(path, doc, args):
    from .dimension import dimension_report

    graph, _, _, _, expect = doc
    cover = (expect or {}).get("cover")
    return dict(vars(dimension_report(graph, cover))), EXIT_OK


def run_positivity(path, doc, args):
    from .positivity import classify_pair

    _, _, profile, _, _ = doc
    if profile is None:
        raise StructuralError("document carries no positivity profile")
    cls = classify_pair(profile)
    return {
        "nef": cls.nef,
        "semi_positive": cls.semi_positive,
        "positive": cls.positive,
        "strongly_semi_positive": cls.strongly_semi_positive,
        "strongly_positive": cls.strongly_positive,
        "delta_defaulted": cls.delta_defaulted,
        "witnesses": [dict(vars(w)) for w in cls.witnesses],
    }, EXIT_OK


def run_rt(path, doc, args):
    from .rt import MapModel, rt_reduce, verify_edge_invariant

    graph, _, _, _, _ = doc
    trace = rt_reduce(MapModel(graph))
    ok, failures = verify_edge_invariant(trace)
    return {
        "q_values": list(trace.q_values),
        "genus_by_stage": list(trace.genus_by_stage),
        "ghost_deltas": [
            {"cluster": list(c), "delta": d} for c, d in trace.ghost_deltas
        ],
        "cover_deltas": [{"vertex": v, "delta": d} for v, d in trace.cover_deltas],
        "multiplicities": dict(sorted(trace.multiplicities.items())),
        "edge_invariant_holds": ok,
        "edge_invariant_failures": [list(f) for f in failures],
        "stages": {
            name: {
                "vertices": sorted(g.vertices),
                "nodes": {nid: sorted(b[0] for b in nd.branches)
                          for nid, nd in sorted(g.nodes.items())},
                "k": g.k(),
            }
            for name, g in trace.stages
        },
    }, EXIT_OK if ok else EXIT_VIOLATION


def run_report(path, doc, args):
    graph, _, profile, _, _ = doc
    parts, code = {}, EXIT_OK

    def add(command, *extra):
        nonlocal code
        body, c = _COMMANDS[command](path, doc, args, *extra)
        parts[command] = _envelope(command, path, body)
        code = max(code, c)  # only validate and ob ever return nonzero

    add("validate")
    if parts["validate"]["valid"]:
        add("group")
        if not graph.has_multinode:
            add("tropical")
            add("dims")
        # a bad characters file is the user's error; a graph that ob does
        # not apply to only drops the part
        rows = _read_characters(args)
        try:
            add("ob", rows)
        except LogModuliError:
            pass
    if profile is not None:
        add("positivity")
    return {"parts": parts}, code


_COMMANDS = {
    "validate": run_validate,
    "decorate": run_decorate,
    "tropical": run_tropical,
    "group": run_group,
    "ob": run_ob,
    "dims": run_dims,
    "positivity": run_positivity,
    "rt": run_rt,
    "report": run_report,
}


def _format_table(payload, out):
    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (list, tuple)):
            out.write(f"{prefix:<40} {json.dumps(value, sort_keys=True)}\n")
        else:
            out.write(f"{prefix:<40} {value}\n")

    walk("", payload)


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(prog="logmoduli", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("inputs", nargs="+", help="input JSON document(s)")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--characters", help="JSON document supplying character rows")
    parser.add_argument("--bound", type=int, default=None, help="decoration enumeration bound")
    parser.add_argument("--expect-trivial", action="store_true", dest="expect_trivial")
    parser.add_argument("--multinode", action="store_true", help="allow multi-node edges")
    parser.add_argument("--cone", action="store_true", help="include the gluing cone")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    runner = _COMMANDS[args.command]
    code = EXIT_OK
    for path in args.inputs:
        try:
            body, c = runner(path, _load(path), args)
        except (LogModuliError, OSError) as exc:
            # an inconsistency is the program's fault, not the input's
            body, c = {"error": str(exc)}, (
                EXIT_VIOLATION if isinstance(exc, InconsistencyError) else EXIT_INPUT)
        payload = _envelope(args.command, path, body)
        if args.format == "json":
            sys.stdout.write(schema.dumps(payload))
        else:
            _format_table(payload, sys.stdout)
        code = max(code, c)
    return code


if __name__ == "__main__":
    sys.exit(main())
