"""One cold iteration of a workload in a fresh interpreter: set up, run
every op, check the results, and print one JSON line on stdout.

run.py starts it from the checkout root as `python -m perfbench.child` with
PYTHONPATH=src, so every iteration pays for cold imports and cold caches,
as a CLI user does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import opturan

from . import layers, workloads
from .tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]


def run_iteration(workload: str, seed: int, workdir: Path, traced: bool,
                  setup_only: bool) -> dict:
    ops = workloads.WORKLOADS[workload](seed, workdir)
    if setup_only:
        return {"first_op_t": time.monotonic()}
    caches = layers.cache_functions()
    tracer = Tracer(layers.HOOKS) if traced else None
    cache_counts: Counter = Counter()
    results, errors = [], {}
    if tracer is not None:
        tracer.install()
    try:
        first_op_t = time.monotonic()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            before = layers.read_caches(caches) if tracer is not None else None
            try:
                results.append(op.run())
            except Exception:
                results.append(None)
                errors[i] = traceback.format_exc()
            if tracer is not None:
                cache_counts.update(layers.read_caches(caches))
                cache_counts.subtract(before)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reference = workloads.load_reference().get(workload, {})
    report = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if i in errors:
            problems = [f"raised: {errors[i]}"]
        else:
            try:
                problems = workloads.check(op, result, reference)
            except Exception:
                problems = [f"check raised: {traceback.format_exc()}"]
        report.append({"name": op.name, "problems": problems})
    out = {"first_op_t": first_op_t, "wall_s": wall_s, "peak_rss_kb": peak_rss_kb,
           "ops": report}
    if tracer is not None:
        stdout_bytes = sum(len(r.stdout.encode()) for r in results
                           if isinstance(r, workloads.CliRun))
        out["layers"] = layers.layer_metrics(tracer, cache_counts, stdout_bytes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    package = Path(opturan.__file__).resolve().parent
    if package != ROOT / "src" / "opturan":
        print(f"child: imported opturan from {package}, not from this checkout",
              file=sys.stderr)
        return 2
    out = run_iteration(args.workload, args.seed, args.workdir, args.trace, args.setup_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
