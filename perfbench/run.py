"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration runs every op of the workload once, cold, in a fresh
interpreter (`python -m perfbench.child` from the checkout root with
PYTHONPATH=src, jobs=1); iterations run one after another.  A run starts
iterations until the next one would end past S seconds, and runs at least
MIN_ITERATIONS.  The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it summarise.

--trace 0 reports the end-to-end metrics from untraced iterations, plus a
few starts that stop after set-up.  --trace 1 alternates untraced and
traced iterations and reports the per-layer metrics as medians over the
traced ones; harness.trace_overhead_frac compares the two wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MIN_ITERATIONS = 3
SETUP_PROBES = 12       # extra starts that stop after set-up, for setup_s
RUN_LIMIT_S = 170.0     # a run ends well inside 180 s whatever --seconds says


class Iteration(NamedTuple):
    traced: bool
    setup_s: float
    wall_s: float | None  # None when the child failed
    peak_rss_mb: float
    problems: dict        # op name -> list of problems, for every op attempted
    layers: dict | None


def _child(workload: str, seed: int, workdir: Path, extra: list[str],
           timeout: float) -> tuple[float, dict | None, str]:
    """Start one child; return its set-up time, its report (None if it
    failed) and an error message."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    env = dict(os.environ, PYTHONPATH="src")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 0.0, None, f"child timed out after {timeout:.0f} s"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        return 0.0, None, f"child exited with code {proc.returncode}"
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return 0.0, None, "child printed no JSON report"
    return report["first_op_t"] - spawned, report, ""


def measure(workload: str, seed: int, seconds: float, traced: bool,
            op_names: list[str]) -> tuple[list[Iteration], list[float]]:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setups = []
        if not traced:
            for _ in range(SETUP_PROBES):
                setup_s, report, error = _child(workload, seed, workdir, ["--setup-only"],
                                                RUN_LIMIT_S - (time.monotonic() - start))
                if report is None:
                    raise RuntimeError(f"set-up of {workload} failed: {error}")
                setups.append(setup_s)
        iterations: list[Iteration] = []
        last_duration = {False: 0.0, True: 0.0}
        while True:
            kind = traced and len(iterations) % 2 == 1
            elapsed = time.monotonic() - start
            if elapsed + last_duration[kind] > RUN_LIMIT_S:
                break
            if (len(iterations) >= MIN_ITERATIONS
                    and elapsed + last_duration[kind] > seconds):
                break
            began = time.monotonic()
            setup_s, report, error = _child(workload, seed, workdir,
                                            ["--trace"] if kind else [],
                                            RUN_LIMIT_S - elapsed)
            last_duration[kind] = time.monotonic() - began
            if report is None:
                print(f"{workload}: {error}", file=sys.stderr)
                iterations.append(Iteration(kind, 0.0, None, 0.0,
                                            {name: [error] for name in op_names}, None))
                continue
            problems = {op["name"]: op["problems"] for op in report["ops"]}
            iterations.append(Iteration(kind, setup_s, report["wall_s"],
                                        report["peak_rss_kb"] / 1024.0, problems,
                                        report.get("layers")))
            print(f"{workload}: {'traced' if kind else 'untraced'} wall "
                  f"{report['wall_s']:.3f} s, setup {setup_s:.3f} s", file=sys.stderr)
    return iterations, setups


def _median_metrics(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "opturan" / "__init__.py").is_file():
        print(f"run.py: no opturan package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    op_names = list(reference[args.workload])

    iterations, setups = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), op_names)
    attempted = failed = 0
    for it in iterations:
        for name, problems in it.problems.items():
            attempted += 1
            if problems:
                failed += 1
                print(f"{args.workload}: op {name!r} failed: " + "; ".join(problems),
                      file=sys.stderr)
    plain = [it for it in iterations if it.wall_s is not None and not it.traced]
    traced = [it for it in iterations if it.wall_s is not None and it.traced]
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    wall = statistics.median(it.wall_s for it in plain)
    if args.trace:
        values = _median_metrics([it.layers for it in traced])
        traced_wall = statistics.median(it.wall_s for it in traced)
        values["harness.trace_overhead_frac"] = (traced_wall - wall) / wall
        print(f"{args.workload}: traced wall median {traced_wall:.3f} s over "
              f"{len(traced)} samples, untraced {wall:.3f} s over {len(plain)}")
    else:
        setup_samples = setups + [it.setup_s for it in plain]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": max(it.peak_rss_mb for it in plain),
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        print(f"{args.workload}: wall_s median {wall:.3f} s over {len(plain)} samples "
              f"(min {min(it.wall_s for it in plain):.3f}, max "
              f"{max(it.wall_s for it in plain):.3f}); setup_s median over "
              f"{len(setup_samples)} samples")
    if set(values) != set(declared):
        print(f"run.py: metrics {sorted(set(values) ^ set(declared))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
