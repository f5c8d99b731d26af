"""Smoke check of the benchmark itself: tiny runs through the whole pipeline.

    python3 perfbench/smoke.py        (from the root of a checkout)

Runs a 5-EV, 2-day scenario under each strategy, untraced and traced, and
checks that every metric `BENCHMARK.json` names is reported with its unit
and that every run passes the output-correctness gate. Prints every
problem found and exits 1 if there was any. Takes about ten seconds.
"""
from __future__ import annotations

import json
import os
import sys

import run

TINY = {"scenario": {"fleet_size": 5}, "days": 2}
STRATEGIES = {"amas": {}, "uncontrolled": {},
              "oracle": {"oracle_mode": "greedy"}}


def main() -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "gridcharge", "__init__.py")):
        print("error: run from the root of a gridcharge checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for strategy, extra in STRATEGIES.items():
            config = {**TINY, "strategy": strategy, **extra}
            result, lines = run.run_workload(f"smoke-{strategy}", config,
                                             seed=1, seconds=1.0, trace=trace,
                                             src=src)
            print("\n".join(lines))
            where = f"{strategy} ({section})"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                wrong = sorted(k for k in got if expected.get(k) != got[k])
                problems.append(f"{where}: missing {missing}, "
                                f"unexpected or wrong unit {wrong}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correctness gate failed")
    for p in problems:
        print("problem:", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
