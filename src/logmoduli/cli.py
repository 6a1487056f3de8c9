"""Deterministic command-line front end.

Commands: validate | decorate | tropical | group | ob | dims | positivity |
rt | report.  Output is canonical JSON by default or an aligned text table
with --format table.  Exit codes: 0 computed, 1 invariant violation found,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import schema
from .dimension import dimension_report
from .errors import LogModuliError, StructuralError
from .graphs import validate_graph, solve_decorations
from .lattice import build_rho
from .obstruction import compute_ob
from .positivity import classify_pair
from .qi import qi_str
from .rt import MapModel, rt_reduce, verify_edge_invariant
from .tropical import cone_sigma, tropical_feasible

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return schema.loads(fh.read())


def run_validate(path, doc, args):
    graph, _, _, _, _ = doc
    report = validate_graph(graph, multinode_allowed=args.multinode)
    payload = {
        "command": "validate",
        "input": path,
        "valid": report.valid,
        "violations": [
            {"code": v.code, "element": v.element, "message": v.message}
            for v in report.violations
        ],
    }
    return payload, EXIT_OK if report.valid else EXIT_VIOLATION


def run_decorate(path, doc, args):
    graph, _, _, _, _ = doc
    sol = solve_decorations(graph, bound=args.bound)
    payload = {
        "command": "decorate",
        "input": path,
        "status": sol.status,
        "reason": sol.reason,
        "assignments": [
            {eid: list(vec) for eid, vec in sorted(a.items())} for a in sol.assignments
        ],
        "cycle_ranks": {str(c.coordinate): len(c.cycle_basis) for c in sol.coordinates},
    }
    return payload, EXIT_OK if sol.status != "none" else EXIT_VIOLATION


def run_tropical(path, doc, args):
    graph, _, _, _, _ = doc
    res = tropical_feasible(graph)
    payload = {"command": "tropical", "input": path, "feasible": res.feasible}
    if res.witness is not None:
        payload["witness"] = {
            "lambda": {k: str(v) for k, v in sorted(res.witness.lam.items())},
            "slopes": {f"{vid}:{i}": str(v) for (vid, i), v in sorted(res.witness.slopes.items())},
        }
    if res.certificate:
        payload["certificate"] = {f"{e}:{i}": str(y) for (e, i), y in sorted(res.certificate.items())}
    if args.cone:
        cone = cone_sigma(graph)
        payload["cone"] = {
            "dimension": cone.dimension,
            "rays": [list(r) for r in cone.rays],
            "is_strictly_convex": cone.is_strictly_convex,
        }
    return payload, EXIT_OK


def run_group(path, doc, args):
    graph, _, _, _, _ = doc
    lmap = build_rho(graph)
    chars = lmap.character_basis()
    payload = {
        "command": "group",
        "input": path,
        "domain_rank": lmap.n_cols,
        "codomain_rank": lmap.n_rows,
        "kernel_rank": lmap.kernel_rank,
        "cokernel_rank": lmap.cokernel_rank,
        "kernel_basis": [list(r) for r in lmap.kernel_basis()],
        "characters": [list(r) for r in chars.rows],
        "invariant_factors": list(lmap.invariant_factors()),
    }
    return payload, EXIT_OK


def _read_characters(args):
    """Character rows of the --characters file, or None without one."""
    if not args.characters:
        return None
    with open(args.characters, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"invalid JSON in characters file: {exc}") from exc
    rows = raw.get("characters") if isinstance(raw, dict) else raw
    if not rows:
        raise StructuralError("characters file carries no characters")
    return schema.character_rows(rows)


def run_ob(path, doc, args):
    return _ob_part(path, doc, args, _read_characters(args))


def _ob_part(path, doc, args, rows):
    graph, data, _, characters, _ = doc
    if rows is not None:
        characters = schema.characters_on(graph, rows)
    ob = compute_ob(graph, data, characters)
    payload = {
        "command": "ob",
        "input": path,
        "values": [qi_str(v) for v in ob.values],
        "is_trivial": ob.is_trivial,
        "characters": [list(r) for r in ob.characters.rows],
    }
    code = EXIT_OK
    if args.expect_trivial and not ob.is_trivial:
        code = EXIT_VIOLATION
    return payload, code


def run_dims(path, doc, args):
    graph, _, _, _, expect = doc
    cover = (expect or {}).get("cover")
    rep = dimension_report(graph, cover)
    payload = {
        "command": "dims",
        "input": path,
        "d_log": rep.d_log,
        "d_stratum": rep.d_stratum,
        "q_value": rep.q_value,
        "q_bound": rep.q_bound,
        "kernel_rank": rep.kernel_rank,
        "cokernel_rank": rep.cokernel_rank,
        "d_fiber": rep.d_fiber,
        "d_down": rep.d_down,
        "d_up": rep.d_up,
    }
    return payload, EXIT_OK


def run_positivity(path, doc, args):
    _, _, profile, _, _ = doc
    if profile is None:
        raise StructuralError("document carries no positivity profile")
    cls = classify_pair(profile)
    payload = {
        "command": "positivity",
        "input": path,
        "nef": cls.nef,
        "semi_positive": cls.semi_positive,
        "positive": cls.positive,
        "strongly_semi_positive": cls.strongly_semi_positive,
        "strongly_positive": cls.strongly_positive,
        "delta_defaulted": cls.delta_defaulted,
        "witnesses": [
            {"family": w.family, "stratum": list(w.stratum),
             "multiplicity": w.multiplicity, "condition": w.condition}
            for w in cls.witnesses
        ],
    }
    return payload, EXIT_OK


def run_rt(path, doc, args):
    graph, _, _, _, _ = doc
    trace = rt_reduce(MapModel(graph))
    ok, failures = verify_edge_invariant(trace)
    payload = {
        "command": "rt",
        "input": path,
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
    }
    return payload, EXIT_OK if ok else EXIT_VIOLATION


def run_report(path, doc, args):
    graph, _, profile, _, _ = doc
    payload = {"command": "report", "input": path, "parts": {}}
    code = EXIT_OK
    part, c = run_validate(path, doc, args)
    payload["parts"]["validate"] = part
    code = max(code, c)
    if part["valid"]:
        part, c = run_group(path, doc, args)
        payload["parts"]["group"] = part
        if not graph.has_multinode:
            part, c = run_tropical(path, doc, args)
            payload["parts"]["tropical"] = part
            part, c = run_dims(path, doc, args)
            payload["parts"]["dims"] = part
        # a bad characters file is the user's error; a graph that ob does
        # not apply to only drops the part
        rows = _read_characters(args)
        try:
            part, c2 = _ob_part(path, doc, args, rows)
            payload["parts"]["ob"] = part
            code = max(code, c2)
        except LogModuliError:
            pass
    if profile is not None:
        part, c = run_positivity(path, doc, args)
        payload["parts"]["positivity"] = part
    return payload, code


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
        elif isinstance(value, list):
            out.write(f"{prefix:<40} {json.dumps(value, sort_keys=True)}\n")
        else:
            out.write(f"{prefix:<40} {value}\n")

    walk("", payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="logmoduli", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("inputs", nargs="+", help="input JSON document(s)")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--characters", help="JSON document supplying character rows")
    parser.add_argument("--bound", type=int, default=None, help="decoration enumeration bound")
    parser.add_argument("--expect-trivial", action="store_true", dest="expect_trivial")
    parser.add_argument("--multinode", action="store_true", help="allow multi-node edges")
    parser.add_argument("--cone", action="store_true", help="include the gluing cone")
    args = parser.parse_args(argv)

    runner = _COMMANDS[args.command]
    code = EXIT_OK
    for path in args.inputs:
        try:
            payload, c = runner(path, _load(path), args)
        except (LogModuliError, OSError) as exc:
            payload, c = {"command": args.command, "input": path, "error": str(exc)}, EXIT_INPUT
        if args.format == "json":
            sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            _format_table(payload, sys.stdout)
        code = max(code, c)
    return code


if __name__ == "__main__":
    sys.exit(main())
