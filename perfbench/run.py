"""Closed-loop batch benchmark for cosetcode.

One workload per process, one call at a time, no threads:

    python3 perfbench/run.py --workload q2 --seed 1 --seconds 55 --trace 0

repeats the workload's timed calls until `--seconds` is used up (at least
once), checks every answer against its pinned value and prints, as the
last stdout line, one JSON object with `correct`, `attempted` (pinned
checks run), `failed` and `metrics`.  With `--trace 1` it runs the timed
calls exactly once under the span tracer (perfbench/spans.py) and reports
per-layer metrics instead; the spans go to perfbench/out/.

    python3 perfbench/run.py --workload all --rounds 3 --seed 1

runs every workload in a fresh process per round, rotating their order,
then once traced each, and prints all metrics with the tracing overhead.
The exit code is non-zero when any pinned check fails or raises.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The per-layer metrics on the result line of a traced run: the exact
# counts, the error counts and the self times that are non-zero on every
# workload.  The lines above it print all of spans.layer_metrics, including
# the self times of layers a workload does not reach (which read 0).
PER_LAYER = (
    "gf2.rank.calls", "gf2.rank.bits", "gf2.rref.calls", "gf2.rref.bits",
    "gf2.kernel_basis.calls", "gf2.solve.calls", "gf2.matmul.calls",
    "gf2.transpose.calls", "gf2.in_row_space.calls",
    "group.elements", "group.coset_reps.calls", "group.left_mul_perm.calls",
    "complexes.faces", "sheaf.pair_products.pairs",
    "gates.membership.calls",
    "gf2.errors", "group.errors", "complexes.errors", "sheaf.errors",
    "css.errors", "gates.errors", "floquet.errors", "cli.errors",
    "trace.spans",
    "gf2.self_s", "group.self_s", "sheaf.self_s", "cli.self_s", "bench.self_s", "bench.wall_s",
)


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# -- environment ------------------------------------------------------------------


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate():
    """A fixed numpy-plus-Python probe of constant work, in seconds
    (median of three).  Diagnostic only: no metric is rescaled by it."""
    import numpy as np

    def probe():
        t0 = time.perf_counter()
        a = np.arange(1 << 16, dtype=np.uint64)
        for _ in range(200):
            a ^= a << np.uint64(1)
        acc = 0
        for i in range(300_000):
            acc += i & 7
        return time.perf_counter() - t0

    return statistics.median(probe() for _ in range(3))


# -- one workload -----------------------------------------------------------------


def setup_child(workload, seed):
    """Seconds from starting a fresh interpreter until it has imported the
    package and built the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError("set-up process for %s failed (exit %d)" % (workload, code))
    return elapsed


def run_workload(args):
    setup, units = WORKLOADS[args.workload]
    if args.setup_only:
        setup(args.seed)
        print("ready", flush=True)
        return 0
    inputs = setup(args.seed)
    env = environment()
    calib_s = calibrate()
    setup_s = statistics.median(setup_child(args.workload, args.seed) for _ in range(SETUP_REPS))
    print("env %s" % json.dumps(env))
    print("workload %s seed %d calib_s %.4f" % (args.workload, args.seed, calib_s))

    attempted, failures = 0, []
    walls = {name: [] for name, _ in units}
    cpus = {name: [] for name, _ in units}
    reps = []
    tracer = None
    if args.trace:
        import spans  # only traced runs pay for importing the tracer

        tracer = spans.Tracer()
        tracer.install()
    gc.collect()
    t_start = time.perf_counter()
    while not failures:
        t_rep = time.perf_counter()
        for name, unit in units:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                checks = unit(inputs)
            except Exception:
                traceback.print_exc()
                checks = [(name + ".raised", False)]
            walls[name].append(time.perf_counter() - t0)
            cpus[name].append(time.process_time() - c0)
            attempted += len(checks)
            failures += [check for check, ok in checks if not ok]
            if failures:
                break
        reps.append(time.perf_counter() - t_rep)
        if args.trace or time.perf_counter() - t_start + reps[-1] > args.seconds:
            break
        gc.collect()

    for name in sorted(set(failures)):
        print("FAILED check %s" % name, file=sys.stderr)
    failed = len(failures)
    print("checks_run %d fail_ratio %.6f" % (attempted, failed / attempted))
    print("repetitions %d wall_s min %.4f median %.4f max %.4f" % (
        len(reps), min(reps), statistics.median(reps), max(reps)))
    if tracer is not None:
        tracer.uninstall()
        full = spans.layer_metrics(tracer, reps[0])
        stem = os.path.join(HERE, "out", "%s-seed%d" % (args.workload, args.seed))
        tracer.write(stem + "-spans.npz")
        with open(stem + "-layers.json", "w") as fh:
            json.dump(full, fh, indent=1)
        for name, value in full.items():
            print("%-40s %.6g %s" % (name, value, unit_of(name)))
        metrics = {k: full[k] for k in PER_LAYER}
    else:
        metrics = {
            # Each unit's fastest run, summed, not a median: on a shared
            # host the CPU speed can switch between phases lasting seconds
            # to minutes; a median follows each run's mix of phases, while
            # the fastest of many short runs stays put.
            "wall_s": sum(min(v) for v in walls.values()),
            "cpu_s": sum(min(v) for v in cpus.values()),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in metrics.items():
            print("%-12s %.6f %s" % (name, value, END_TO_END[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


# -- all workloads ----------------------------------------------------------------


def child(workload, seed, seconds, trace_on):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_on)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_all(args):
    names = list(WORKLOADS)
    runs = {w: [] for w in names}
    ok = True
    for r in range(args.rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for w in order:
            code, res = child(w, args.seed + r, args.seconds, 0)
            ok = ok and code == 0 and res is not None and res["correct"]
            if res is not None:
                runs[w].append(res)
            print("round %d %-8s exit %d" % (r, w, code), file=sys.stderr)
    traced = {}
    for w in names:
        code, res = child(w, args.seed, args.seconds, 1)
        ok = ok and code == 0 and res is not None and res["correct"]
        traced[w] = res

    summary = {}
    attempted = failed = 0
    for w in names:
        print("== %s (%d untraced runs)" % (w, len(runs[w])))
        for res in runs[w] + [traced[w]]:
            if res is not None:
                attempted += res["attempted"]
                failed += res["failed"]
        w_att = sum(r["attempted"] for r in runs[w])
        w_fail = sum(r["failed"] for r in runs[w])
        print("  %-28s %.6f (checks_run %d)" % ("fail_ratio", w_fail / max(w_att, 1), w_att))
        for m, unit in END_TO_END.items():
            vals = [r["metrics"][m]["value"] for r in runs[w]]
            if not vals:
                continue
            med = statistics.median(vals)
            summary["%s.%s" % (w, m)] = {"value": med, "unit": unit}
            print("  %-28s %.6f %s  (quartile spread %.3f; runs %s)" % (
                m, med, unit, quartile_spread(vals), " ".join("%.4g" % v for v in vals)))
        layers = os.path.join(HERE, "out", "%s-seed%d-layers.json" % (w, args.seed))
        if traced[w] is None or not runs[w] or not os.path.exists(layers):
            continue
        with open(layers) as fh:
            full = json.load(fh)
        untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in runs[w])
        print("  %-34s %.6f s" % ("trace.overhead_s", full["bench.wall_s"] - untraced))
        for k, v in full.items():
            print("  %-34s %.6g %s" % (k, v, unit_of(k)))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": summary,
    }))
    return 0 if ok and failed == 0 else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=1, help="rounds of --workload all")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cosetcode", "__init__.py")):
        print("error: package source not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
