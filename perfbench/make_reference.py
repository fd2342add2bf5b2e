"""Write reference.json: every op's answer, computed in-process.

    PYTHONPATH=src python3 -m perfbench.make_reference

Run it only at a commit whose answers are trusted (the file was produced
at the commit that added the benchmark); the benchmark then fails any op
whose answer differs.  It refuses to write when a closed-form check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from . import workloads


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_ops in workloads.WORKLOADS.items():
            answers = {}
            for op in make_ops(0, Path(tmp)):
                result = op.run()
                problems = op.problems(result)
                if problems:
                    print(f"{name}: {op.name}: {problems}", file=sys.stderr)
                    return 1
                answers[op.name] = op.answer(result)
            reference[name] = answers
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
