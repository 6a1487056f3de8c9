"""Capture the seed-commit answers and the benchmark record.

    python3 bench/capture.py answers [--deadline <s>]
    python3 bench/capture.py record [--runs <n>]

`answers` writes bench/baseline/{cli,lattice,tropical,report}.json: for
every input in every workload's pool, the exit code and stdout digest (CLI
and report ops), the digest of each lattice answer or "timeout", and each
tropical verdict or "timeout".  Run it once, at the commit whose answers are
the reference; the benchmark never writes these files.

`record` runs the command of BENCHMARK.json --runs times per workload
(seeds 1..n) and once traced, and writes bench/record.json: the environment,
the commit, the seeds, each workload's reason, the predicted effect of each
layer, and per metric the median, quartiles and spread (quartile distance
over median) of the runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.pycache_prefix = os.path.join(BENCH, ".work", "pycache")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads as w  # noqa: E402


def capture_cli():
    out = {}
    for cmd in w.COMMANDS:
        for fixture in sorted(os.listdir(os.path.join(ROOT, w.FIXTURES))):
            if not fixture.endswith(".json") or fixture.startswith("characters"):
                continue
            proc = subprocess.run([sys.executable, "-m", "logmoduli.cli", cmd,
                                   f"{w.FIXTURES}/{fixture}"], cwd=ROOT, env=w.child_env(),
                                  capture_output=True, text=True, timeout=120)
            out[f"{cmd} {fixture}"] = {"code": proc.returncode, "stdout": w.digest(proc.stdout)}
    return out


def capture_lattice(deadline):
    out = {}
    for family, nv in w.LATTICE_RUNGS:
        for index in range(w.LATTICE_POOL):
            graph = w.lattice_graph(family, nv, index)
            _lmap, answers, timeouts, _ = w.lattice_op(graph, deadline)
            entry = {call: w.digest(value) for call, value in answers.items()}
            entry.update({call: "timeout" for call in timeouts})
            out[w.key_str((family, nv, index))] = entry
    return out


def capture_tropical(deadline):
    out = {}
    for kind, nv in w.TROPICAL_RUNGS:
        for index in range(w.TROPICAL_POOL):
            graph = w.tropical_graph(kind, nv, index)
            res, _, timed_out = w.call_with_deadline(lambda: w.lm.tropical_feasible(graph),
                                                     deadline)
            out[w.key_str((kind, nv, index))] = "timeout" if timed_out else res.feasible
    return out


def capture_report():
    w.write_report_documents()
    out = {}
    for cmd, kind in w.REPORT_OPS:
        for index in range(w.REPORT_POOL):
            code, stdout, stderr, _, timed_out = w.run_cli_in_process(
                [cmd, w.report_path(kind, index)], 120)
            if timed_out or code is None:
                raise SystemExit(f"{cmd} {kind} {index}: no answer at this commit\n{stderr}")
            out[w.key_str((cmd, kind, index))] = {"code": code, "stdout": w.digest(stdout)}
    return out


# Which e2e metrics each layer's per-layer metrics should move, on which
# workload, and where the prediction is no change.
PREDICTIONS = [
    {"layer": "intlinalg",
     "metrics": ["intlinalg.hnf_row.calls_per_op", "intlinalg.hnf_row.busy_ms",
                 "intlinalg.hnf_row.u_bits_max", "intlinalg.left_kernel.busy_ms",
                 "intlinalg.smith_normal_form.busy_ms"],
     "should_move": ["ops_per_s", "op_ms_tail", "ok_frac", "peak_rss_mb"],
     "on": "lattice-ladder", "no_change_on": ["tropical-ladder"]},
    {"layer": "lattice",
     "metrics": ["lattice.rank.busy_ms", "lattice.kernel_basis.busy_ms",
                 "lattice.character_basis.busy_ms", "lattice.invariant_factors.busy_ms",
                 "lattice.character_basis.timeouts", "lattice.matrix_cells"],
     "should_move": ["ops_per_s", "op_ms_tail", "ok_frac", "peak_rss_mb"],
     "on": "lattice-ladder", "no_change_on": ["tropical-ladder"]},
    {"layer": "linprog",
     "metrics": ["linprog.solve_eq_nonneg.busy_ms", "linprog.solve_eq_nonneg.lp_cells"],
     "should_move": ["ops_per_s", "op_ms_p50", "op_ms_tail"],
     "on": "tropical-ladder", "no_change_on": ["lattice-ladder"]},
    {"layer": "tropical",
     "metrics": ["tropical.tropical_feasible.self_ms"],
     "should_move": ["ops_per_s", "op_ms_p50", "op_ms_tail"],
     "on": "tropical-ladder", "no_change_on": ["lattice-ladder"]},
    {"layer": "schema, graphs, lattice (waste ratios, ideal 1)",
     "metrics": ["schema.loads.calls_per_op", "schema.loads.busy_ms",
                 "graphs.validate_graph.calls_per_op", "graphs.validate_graph.busy_ms",
                 "lattice.build_rho.calls_per_op", "lattice.build_rho.busy_ms"],
     "should_move": ["op_ms_p50"], "on": "report-small", "no_change_on": ["cli-fixtures"]},
    {"layer": "obstruction, sections, dimension, rt, positivity, cli",
     "metrics": ["obstruction.compute_ob.self_ms", "obstruction.canonical_characters.busy_ms",
                 "sections.leading_coefficient.calls_per_op",
                 "sections.leading_coefficient.busy_ms", "dimension.dimension_report.busy_ms",
                 "rt.rt_reduce.busy_ms", "positivity.classify_pair.busy_ms", "cli.main.self_ms"],
     "should_move": ["op_ms_p50"], "on": "report-small", "no_change_on": []},
    {"layer": "start-up",
     "metrics": ["import.logmoduli.total_ms", "import.logmoduli.<module>.self_ms"],
     "should_move": ["setup_s", "op_ms_p50"], "on": "cli-fixtures",
     "no_change_on": ["lattice-ladder", "tropical-ladder", "report-small"]},
]


def run_bench(command, workload, seed, seconds, trace):
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(runs):
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    seeds = list(range(1, runs + 1))
    baseline = {}
    for wl in bench["workloads"]:
        name = wl["name"]
        results = [run_bench(bench["command"], name, seed, bench["run_seconds"], 0)
                   for seed in seeds]
        traced = run_bench(bench["command"], name, seeds[0], bench["run_seconds"], 1)
        metrics = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                       "q3": q3, "spread": (q3 - q1) / median if median else 0}
        baseline[name] = {
            "why": wl["why"],
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, json.dumps(metrics), flush=True)
    out = {
        "environment": run.environment(),
        "commit": commit,
        "seeds": seeds,
        "traced_seed": seeds[0],
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "predictions": PREDICTIONS,
        "baseline": baseline,
    }
    with open(os.path.join(BENCH, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def answers(deadline):
    os.makedirs(os.path.join(BENCH, "baseline"), exist_ok=True)
    for name, fn in (("cli", capture_cli), ("report", capture_report),
                     ("tropical", lambda: capture_tropical(deadline)),
                     ("lattice", lambda: capture_lattice(deadline))):
        data = fn()
        with open(os.path.join(BENCH, "baseline", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(name, len(data), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("what", choices=("answers", "record"))
    p.add_argument("--deadline", type=float, default=0.5)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    os.chdir(ROOT)
    if args.what == "answers":
        answers(args.deadline)
    else:
        record(args.runs)


if __name__ == "__main__":
    main()
