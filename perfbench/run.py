"""The repository benchmark.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

Runs one workload against the program in ``src/`` of this checkout, checks
every output against the kernels' numpy references, prints a per-kernel
summary and, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions in spans and reports the per-layer metrics
instead (see ``perfbench/metrics.py``).  Exits non-zero, printing no result,
when the checkout holds no program or the run cannot be measured.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import BenchError, bootstrap  # noqa: E402
from perfbench.metrics import END_TO_END, WORKLOADS, per_layer_table  # noqa: E402

MODULES = {
    "serve-mix": "perfbench.serve_mix",
    "autotune-sweep": "perfbench.autotune_sweep",
    "paper-scale": "perfbench.paper_scale",
}


def result_line(out: dict, trace: bool) -> dict:
    """The final JSON object for a workload's outcome."""
    if trace:
        units = {name: unit for name, unit, _better, _moves in per_layer_table()}
        values = out["layers"]
    else:
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        values = out["e2e"]
    if set(values) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {}
    for name in units:
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": units[name]}
    return {"correct": out["failed"] == 0, "attempted": int(out["attempted"]),
            "failed": int(out["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
        workload = importlib.import_module(MODULES[args.workload])
        out = workload.run(args.seed, args.seconds, bool(args.trace))
        line = result_line(out, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for row in out["rows"]:
        print(row)
    failed_ratio = out["failed"] / out["attempted"]
    print(f"failed_ratio {failed_ratio:.4f} ({out['failed']} of {out['attempted']})")
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        # Beside the untraced run's values, these give the tracing overhead.
        for name, value in out["e2e"].items():
            print(f"traced {name:27} {value:14.6g} {END_TO_END[name][0]}")
    for name, metric in line["metrics"].items():
        print(f"{name:34} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
