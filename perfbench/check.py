"""Checks a run's reference outputs in a process of its own, after timing.

Usage: python3 perfbench/check.py PLAN.json REF_DIR

Prints a JSON list of problems; an empty list means the outputs are
correct. The tunable census is compared with the budgets that the public
``tvmerge prefvec`` command builds for the same alpha.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    ref = Path(sys.argv[2])
    budgets = None
    if plan.get("alpha") is not None:
        from tvmerge import cli

        pref_path = ref.parent / "prefvec.json"
        argv = ["prefvec", "--alpha", str(plan["alpha"]), "--tasks", str(plan["num_tasks"]),
                "--dim", str(plan["dim"]), "--out", str(pref_path)]
        if cli.main(argv) != 0:
            print(json.dumps(["tvmerge prefvec failed"]))
            return 0
        budgets = json.loads(pref_path.read_text())["budgets"]
    print(json.dumps(workloads.check(plan, ref, budgets)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
