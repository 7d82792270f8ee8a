#!/usr/bin/env python3
"""Compare two `root_fingerprint.py --records` or two `sim_fingerprint.py --records` files.

Root reports are paired by their index in the survey; both files must
come from the same seed.  The script prints:
  - every pair whose categorical fields differ (kind, error, method,
    verdict, root_count, caveat, number of roots);
  - the largest relative root move and the largest relative controller
    move, each with the report that has it;
  - a histogram of the root moves by decade.

A root's move is its distance to the nearest root of the other report,
over its own modulus (the distance itself for the root s = 0), taken both
ways.  Moves are read only on pairs with the same number of roots, and a
controller's move is the largest relative change of its fields.  Run it
on two trees' records to see what a change moved, where the digest says
only "same" or "not same".

Simulation runs are paired by name.  The script prints every run whose
step count n or divergence index changed (or that one file lacks), and the
largest relative move of y_end and of the output's norm, each with its run.

Usage: python scripts/compare_records.py A.json B.json
"""

import json
import math
import sys
from collections import Counter

#: The fields that must match exactly, in the order they print.
CATEGORICAL = ("kind", "error", "method", "verdict", "root_count", "caveat")


def _load(path):
    with open(path) as f:
        return json.load(f)


def _categorical(report):
    return {**{key: report.get(key) for key in CATEGORICAL},
            "roots": len(report.get("roots", ()))}


def root_moves(a, b):
    """Relative move of each root of `a` and of `b` to the nearest root of the other."""
    a, b = [complex(*z) for z in a], [complex(*z) for z in b]
    return [min(abs(z - w) for w in other) / (abs(z) or 1.0)
            for roots, other in ((a, b), (b, a)) for z in roots]


def controller_move(a, b):
    """Largest relative change of a controller's fields, or 0 with no controller."""
    if not a or not b:
        return 0.0
    return max(abs(a[k] - b[k]) / (abs(a[k]) or 1.0) for k in a)


def _decade(move):
    return "0" if move == 0 else f"1e{math.floor(math.log10(move))}"


def _relative_move(a, b):
    return abs(a - b) / (abs(a) or 1.0)


def compare_runs(runs_a, runs_b):
    """Print the simulation runs whose n or index changed and the largest value moves."""
    runs_b = {run["name"]: run for run in runs_b}
    changed, worst = [], {"y_end": (0.0, None), "norm": (0.0, None)}
    for a in runs_a:
        b = runs_b.pop(a["name"], None)
        if b is None or (a["n"], a["index"]) != (b["n"], b["index"]):
            changed.append((a["name"], (a["n"], a["index"]), b and (b["n"], b["index"])))
            continue
        for key in worst:
            worst[key] = max(worst[key], (_relative_move(a[key], b[key]), a["name"]),
                             key=lambda m: m[0])
    changed += [(name, None, (b["n"], b["index"])) for name, b in runs_b.items()]
    print(f"{len(runs_a)} runs, {len(changed)} with n or index changes")
    for name, old, new in changed:
        print(f"  {name}: (n, index) {old} -> {new}")
    for key, (move, name) in worst.items():
        print(f"largest relative {key} move: {move:.3g}" + (f" ({name})" if name else ""))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[-1])
    data_a, data_b = map(_load, sys.argv[1:])
    if ("runs" in data_a) != ("runs" in data_b):
        sys.exit("one file holds simulation runs and the other root reports")
    if "runs" in data_a:
        compare_runs(data_a["runs"], data_b["runs"])
        return
    seed_a, reports_a = data_a["seed"], data_a["reports"]
    seed_b, reports_b = data_b["seed"], data_b["reports"]
    if seed_a != seed_b or len(reports_a) != len(reports_b):
        sys.exit(f"not the same survey: seeds {seed_a} and {seed_b}, "
                 f"{len(reports_a)} and {len(reports_b)} reports")
    changed, decades = [], Counter()
    worst_root = worst_ctrl = (0.0, None)
    for a, b in zip(reports_a, reports_b):
        where = f"{a['kind']} report {a['index']}"
        if _categorical(a) != _categorical(b):
            changed.append((where, _categorical(a), _categorical(b)))
            continue
        moves = root_moves(a.get("roots", ()), b.get("roots", ()))
        decades.update(map(_decade, moves))
        worst_root = max(worst_root, (max(moves, default=0.0), where), key=lambda m: m[0])
        move = controller_move(a.get("controller"), b.get("controller"))
        worst_ctrl = max(worst_ctrl, (move, where), key=lambda m: m[0])
    print(f"seed {seed_a}: {len(reports_a)} reports, {len(changed)} with categorical changes")
    for where, old, new in changed:
        diff = ", ".join(f"{key} {old[key]} -> {new[key]}" for key in old if old[key] != new[key])
        print(f"  {where}: {diff}")
    for name, (move, where) in (("root", worst_root), ("controller", worst_ctrl)):
        print(f"largest relative {name} move: {move:.3g}" + (f" ({where})" if where else ""))
    print("root moves by decade: " + ", ".join(
        f"{key} {decades[key]}" for key in sorted(decades, key=lambda k: -math.inf if k == "0"
                                                  else int(k[2:]))))


if __name__ == "__main__":
    main()
