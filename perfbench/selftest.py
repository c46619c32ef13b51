"""Self-test of the benchmark.

For each workload, runs `run.py --trace 1` twice with the same seed and
checks that every pinned answer holds, that the exact work counters are
identical across the two runs, and that the layer self times plus
`bench.self_s` add up to the traced wall time.  Also checks that
BENCHMARK.json lists the metrics run.py prints.

    python3 perfbench/selftest.py [--workload q2] [--seed 3]

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import LAYERS  # noqa: E402


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    return [
        ("manifest.end_to_end", e2e == run.END_TO_END),
        ("manifest.per_layer", per_layer == {m: run.unit_of(m) for m in run.PER_LAYER}),
        ("manifest.workloads", workloads == list(run.WORKLOADS)),
    ]


def check_workload(workload, seed):
    results = []
    for _ in range(2):
        code, res = run.child(workload, seed, 1, 1)
        if res is None:
            return [("%s.result_line" % workload, False)]
        results.append((code, res))
    checks = []
    for i, (code, res) in enumerate(results):
        checks.append(("%s.run%d.exit_code" % (workload, i), code == 0))
        checks.append(("%s.run%d.correct" % (workload, i), res["correct"] and res["failed"] == 0))
    path = os.path.join(HERE, "out", "%s-seed%d-layers.json" % (workload, seed))
    with open(path) as fh:
        full = json.load(fh)
    layer_sum = sum(full[layer + ".self_s"] for layer in LAYERS) + full["bench.self_s"]
    checks.append(("%s.self_times_add_up" % workload,
                   abs(layer_sum - full["bench.wall_s"]) <= 1e-6 * max(1.0, full["bench.wall_s"])))
    a, b = (res["metrics"] for _, res in results)
    for name in run.PER_LAYER:
        if run.unit_of(name) == "count":
            checks.append(("%s.%s.repeats" % (workload, name), a[name]["value"] == b[name]["value"]))
    return checks


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(run.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    checks = check_manifest()
    for workload in [args.workload] if args.workload else list(run.WORKLOADS):
        checks += check_workload(workload, args.seed)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print("FAILED %s" % name)
    print("selftest: %d checks, %d failed" % (len(checks), len(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
