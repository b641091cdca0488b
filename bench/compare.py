"""Summarise and compare benchmark records written by run.py --out.

    python3 bench/compare.py BASE [NEW]

BASE and NEW are directories of record files (or single files), typically one
per seed and commit.  For each workload and metric this prints the median over
the records and the spread (interquartile range over the median).  Given NEW
as well, it prints the change of each median against the bound in
BENCHMARK.json, and flags every (workload, seed) whose output digest differs
between the two sides: exact outputs are meant to stay byte-identical.
Exits with 1 when a digest differs or a median is worse by more than its bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from stats import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    results = []
    for name in files:
        with open(name, encoding="ascii") as fh:
            results += json.load(fh)["results"]
    return results


def summary(results: list[dict]) -> dict:
    """{(workload, trace): {metric: (median, spread or None, runs)}}, with the
    host slowness of each run as one more row."""
    groups: dict = {}
    for r in results:
        values = {name: m["value"] for name, m in r["metrics"].items()}
        values["host slowness"] = r["notes"]["host slowness"]
        for name, value in values.items():
            groups.setdefault((r["workload"], r["trace"]), {}).setdefault(name, []).append(value)
    return {
        key: {name: (statistics.median(v), spread(v) if len(v) > 1 and statistics.median(v) else None, len(v))
              for name, v in metrics.items()}
        for key, metrics in groups.items()
    }


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base = summary(sides[0])
    new = summary(sides[1]) if len(sides) == 2 else {}
    worse = 0
    for key in sorted(base):
        print(f"{key[0]} (trace {key[1]})")
        for name, (med, spr, runs) in base[key].items():
            line = f"  {name:32} {med:12.6g}  spread {spr if spr is None else round(spr, 3)!s:>6}  n={runs}"
            if name in new.get(key, {}):
                med2, spr2, runs2 = new[key][name]
                change = (med2 - med) / med if med else 0.0
                line += f"  ->  {med2:12.6g}  spread {spr2 if spr2 is None else round(spr2, 3)!s:>6}  n={runs2}  {change:+.1%}"
                if name in bounds:
                    bound, better = bounds[name]
                    if (change if better == "lower" else -change) > bound:
                        line += f"  WORSE than bound {bound:.0%}"
                        worse += 1
            print(line)
    differs = 0
    if len(sides) == 2:
        digests = {(r["workload"], r["seed"], r["seconds"], r["trace"]): r["digest"] for r in sides[0]}
        for r in sides[1]:
            key = (r["workload"], r["seed"], r["seconds"], r["trace"])
            if key in digests and digests[key] != r["digest"]:
                print(f"DIGEST DIFFERS: workload={key[0]} seed={key[1]} seconds={key[2]} trace={key[3]}")
                differs += 1
    return 1 if worse or differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
