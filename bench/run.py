"""Benchmark entry point.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                         [--deadline <s>]

Run from the repository root (or anywhere: it changes to the root).  One run
measures one workload for --seconds with one closed-loop client, checks every
output, prints one line per metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 first repeats part of the untraced loop, then
reruns the same op instances with the wrappers of spans.py installed and
reports the per-layer metrics and the tracing overhead.  `--workload all`
runs every workload in turn, each in its own process.

Exit code 2, with no result line, when the package sources are missing.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
# Bytecode of this process goes to the benchmark's own cache, never into
# src/ or out of the checkout.
sys.pycache_prefix = os.path.join(WORK, "pycache")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
WORKLOAD_NAMES = ["cli-fixtures", "lattice-ladder", "tropical-ladder", "report-small"]
SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 5
WARM_UP_SECONDS = 1.0
MODULES = ["cli", "dimension", "errors", "graphs", "intlinalg", "lattice", "linprog",
           "obstruction", "positivity", "qi", "rt", "schema", "sections", "tropical"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline", type=float, default=0.5,
                   help="seconds allowed for each call into the program")
    return p.parse_args(argv)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "PYTHONPYCACHEPREFIX": os.path.relpath(os.path.join(WORK, "pycache"), ROOT),
    }


def warm_bytecode_cache(env):
    """Compile every module a timed child imports into the benchmark's cache,
    so that set-up measures importing and not compiling."""
    env = dict(env)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for argv in (["-c", "import logmoduli.cli"],
                 ["-m", "logmoduli.cli", "validate", "src/logmoduli/fixtures/good_ex1.json"],
                 [os.path.join(BENCH, "cli_child.py"), os.path.join(WORK, "warm-spans.json"),
                  "validate", "src/logmoduli/fixtures/good_ex1.json"]):
        subprocess.run([sys.executable] + argv, cwd=ROOT, env=env, capture_output=True,
                       timeout=60, check=True)


def measure_setup(env, clock):
    """Median scaled wall time of fresh interpreters that only
    `import logmoduli.cli`."""
    times = []
    for _ in range(SETUP_REPEATS):
        factor = clock.calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import logmoduli.cli"], cwd=ROOT, env=env,
                       capture_output=True, timeout=60, check=True)
        times.append((time.perf_counter() - t0) * factor)
    return statistics.median(times)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)")


def measure_imports(env):
    """Per-module import self time and the package total (the cumulative
    time of the outermost logmoduli import), from -X importtime; medians
    over repeats, in ms."""
    samples = {}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import logmoduli.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        total = 0.0
        for self_us, cum_us, name in _IMPORTTIME.findall(proc.stderr):
            if name.startswith("logmoduli."):
                samples.setdefault(name[len("logmoduli."):], []).append(int(self_us) / 1000)
            if name in ("logmoduli", "logmoduli.cli"):
                total = max(total, int(cum_us) / 1000)
        samples.setdefault("total", []).append(total)
    out = {"import.logmoduli.total_ms": (statistics.median(samples["total"]), "ms")}
    for mod in MODULES:
        out[f"import.logmoduli.{mod}.self_ms"] = (statistics.median(samples.get(mod, [0])), "ms")
    return out


def _calibration_work():
    """Fixed pure-Python work of the kinds the program does: big-integer
    row operations, Fraction sums and dict updates."""
    rows = [[(i * 7919 + j * 104729) % 1000003 for j in range(24)] for i in range(24)]
    for r in range(6):
        for i in range(1, 24):
            q = rows[i][r] // (rows[r][r] or 1)
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k, k + 1)
    counts = {}
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k


class Clock:
    """Scales op times to a reference machine speed.

    The machines this runs on are shared, and their speed drifts: on a
    2-core Xeon VM the same CLI op took 96 ms in one 4-second window and
    144 ms in another, and CPU time drifted with it.  Before an op (at most
    every CAL_INTERVAL s) the clock times _calibration_work, best of three,
    and an op's scaled time is its wall time times REF_CAL_S / that time.
    The ratio of op time to calibration time moved by under 8 % where the
    raw times moved by 50 %.
    """

    REF_CAL_S = 0.0014  # _calibration_work on that VM in its fast phases
    CAL_INTERVAL = 0.05

    def __init__(self):
        self.factor = 1.0
        self.last = None
        self.factors = []

    def calibrate(self):
        now = time.perf_counter()
        if self.last is not None and now - self.last < self.CAL_INTERVAL:
            return self.factor
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_work()
            best = min(best, time.perf_counter() - t0)
        self.factor = self.REF_CAL_S / best
        self.factors.append(self.factor)
        self.last = time.perf_counter()
        return self.factor


def passes(pool, seed):
    """Endless passes over the whole pool, each in a fresh seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def run_loop(workload, seed, seconds, clock):
    """Closed loop: the next op starts when the previous one has returned.

    Runs whole passes over the pool until `seconds` have passed, so every
    run weighs the pool's inputs alike.  An op that hit the deadline keeps
    its wall time, which is at least the deadline.  A short unrecorded
    warm-up first lets first-call costs and file caches settle.
    """
    t0 = time.perf_counter()
    for inst in next(passes(workload.pool, seed + 1)):
        if time.perf_counter() - t0 >= WARM_UP_SECONDS:
            break
        workload.run(inst)
    gc.freeze()  # the collection before each op then scans only new objects
    ops = []
    t0 = time.perf_counter()
    for order in passes(workload.pool, seed):
        for inst in order:
            ops.append(measure(workload, inst, clock))
        if time.perf_counter() - t0 >= seconds:
            return ops


def measure(workload, inst, clock):
    """One op from a collected heap; a completed op's time is scaled by the
    mean of the clock's factors before and after it."""
    before = clock.calibrate()
    gc.collect()
    op = workload.run(inst)
    if op.status != "ok":
        return op
    return op._replace(seconds=op.seconds * (before + clock.calibrate()) / 2)


def instance_ms(ops):
    """Each instance's median op time across passes, in ms."""
    per_instance = {}
    for op in ops:
        per_instance.setdefault(op.instance, []).append(op.seconds * 1000)
    return [statistics.median(v) for v in per_instance.values()]


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 \
        else values[0]


def end_to_end(workload, ops, setup_s, peak_rss_mb):
    """End-to-end metrics of one run.

    The op time percentiles are taken over the pool's instances, each at
    its median time across the run's passes: an instance's passes differ
    only by noise, which on a shared machine moved single ms-scale ops by
    up to 2x.  A timed-out op counts at its measured time, at least the
    deadline.  ops_per_s divides completed ops by the time spent in the
    program, so the benchmark's own checks do not count.
    """
    ms = instance_ms(ops)
    ok = sum(op.status == "ok" for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (percentile(ms, workload.tail_pct), "ms"),
        "ops_per_s": (ok / sum(op.seconds for op in ops), "1/s"),
        "ok_frac": (ok / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def peak_rss_mb(workload_name):
    """Peak RSS of the processes that ran the ops: the children for the CLI
    workload, this process otherwise (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-fixtures" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def trace_overhead(untraced, traced):
    """(traced - untraced) / untraced op time, over instances ok in both runs."""
    pairs = [(u.seconds, t.seconds) for u, t in zip(untraced, traced)
             if u.status == "ok" and t.status == "ok"]
    base = sum(u for u, _ in pairs)
    return (sum(t for _, t in pairs) - base) / base if base else 0.0


def print_failures(ops):
    for op in ops:
        if op.status != "ok":
            print(f"  {op.status}: {op.instance} ({op.detail}) after {op.seconds * 1000:.1f} ms")


def run_one(args):
    env = environment()
    import spans
    import workloads

    child_env = workloads.child_env()
    warm_bytecode_cache(child_env)
    cls = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} deadline {args.deadline:g} s")
    print("environment " + json.dumps(env, sort_keys=True))
    clock = Clock()
    if not args.trace:
        setup_s = measure_setup(child_env, clock)
        workload = cls(args.deadline)
        ops = run_loop(workload, args.seed, args.seconds, clock)
        metrics = end_to_end(workload, ops, setup_s, peak_rss_mb(args.workload))
        ms = instance_ms(ops)
        n_tail = sum(v > metrics["op_ms_tail"][0] for v in ms)
        notes = {"setup_s": f"median of {SETUP_REPEATS} fresh imports",
                 "op_ms_p50": f"over {len(ms)} instances x {len(ops) / len(ms):g} passes",
                 "op_ms_tail": f"p{workload.tail_pct} of the {len(ms)} instances, "
                               f"{n_tail} beyond"}
        checked = ops
    else:
        metrics = measure_imports(child_env)
        untraced = run_loop(cls(args.deadline), args.seed, args.seconds / 2, clock)
        tracer = spans.Tracer()
        spans.install(tracer)
        workload = cls(args.deadline, tracer=tracer)
        ops = []
        for k, op in enumerate(untraced):
            tracer.begin_op(k)
            ops.append(measure(workload, op.instance, clock))
        tracer.begin_op(None)
        tracer.dump(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
        metrics.update(spans.layer_metrics(tracer.spans, len(ops), tracer.peak, tracer.sizes))
        metrics["trace.overhead_frac"] = (trace_overhead(untraced, ops), "ratio")
        notes = {}
        checked = untraced + ops
    print(f"speed factor median {statistics.median(clock.factors):.4f} over "
          f"{len(clock.factors)} calibrations (times below are scaled by it)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<48} {value:>14.6g} {unit}{note}")
    failed = [op for op in ops if op.status != "ok"]
    counts = {s: sum(op.status == s for op in ops) for s in ("timeout", "wrong")}
    print(f"attempted {len(ops)} failed {len(failed)} " +
          " ".join(f"{k} {v}" for k, v in counts.items()))
    print_failures(ops)
    correct = not any(op.status == "wrong" for op in checked)
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--deadline", str(args.deadline)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 1)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "logmoduli", "cli.py")):
        sys.stderr.write("bench/run.py: package sources not found under src/logmoduli\n")
        return 2
    os.makedirs(WORK, exist_ok=True)
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
