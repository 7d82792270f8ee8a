"""`scripts/compare_records.py`, run as a script on small hand-written record files."""

import copy
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_records.py"


def report(kind, index, roots, controller=None, verdict="stable"):
    """A `root_fingerprint.py --records` report whose roots match their count."""
    return {"kind": kind, "index": index, "controller": controller, "method": "newton-grid",
            "verdict": verdict, "root_count": len(roots), "caveat": False, "roots": roots}


ROOTS = {"seed": 0, "reports": [
    report("pd", 0, [[-1.0, -6.0], [-1.0, 6.0]], {"K": 24.0, "Td": 6.94, "delta": 0.72}),
    report("random", 1, [[-0.5, 0.0]]),
    report("random", 2, [[-2.0, -3.0], [-2.0, 3.0], [-0.25, 0.0]]),
    {"kind": "pi", "index": 3, "error": "NoSolutionError", "message": "no lambda"},
]}

RUNS = {"runs": [
    {"name": "golden state-space", "n": 1000, "index": None, "y_end": 0.96, "norm": 30.0},
    {"name": "unstable direct", "n": 1000, "index": 400, "y_end": 1e8, "norm": 2e9},
    {"name": "pi direct", "n": 1000, "index": None, "y_end": 1.0, "norm": 31.0},
]}


def compare(tmp_path, a, b):
    """(exit status, stdout, stderr) of the script on the records `a` and `b`."""
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(records))
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def largest_move(line, what):
    """(move, where) of the script's line "largest relative `what` move: 1e-12 (where)"."""
    head, _, rest = line.partition(": ")
    assert head == f"largest relative {what} move"
    move, _, where = rest.partition(" ")
    return float(move), where.strip("()")


def test_identical_root_records(tmp_path):
    status, out, _ = compare(tmp_path, ROOTS, ROOTS)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "seed 0: 4 reports, 0 with categorical changes"
    assert lines[1:3] == ["largest relative root move: 0", "largest relative controller move: 0"]
    assert lines[3] == "root moves by decade: 0 12"


def test_changes_are_reported_with_their_reports(tmp_path):
    changed = copy.deepcopy(ROOTS)
    pd, flipped, moved, _ = changed["reports"]
    pd["controller"]["K"] *= 1 + 1e-13
    flipped["verdict"] = "unstable"
    moved["roots"] = [[re * (1 + 1e-12), im * (1 + 1e-12)] for re, im in moved["roots"]]
    status, out, _ = compare(tmp_path, ROOTS, changed)
    assert status == 0
    lines = out.splitlines()
    assert lines[:2] == ["seed 0: 4 reports, 1 with categorical changes",
                         "  random report 1: verdict stable -> unstable"]
    move, where = largest_move(lines[2], "root")
    assert abs(move - 1e-12) <= 1e-15 and where == "random report 2"
    move, where = largest_move(lines[3], "controller")
    assert abs(move - 1e-13) <= 1e-15 and where == "pd report 0"


def test_different_seeds_exit_with_their_message(tmp_path):
    status, _, err = compare(tmp_path, ROOTS, {**ROOTS, "seed": 1})
    assert status == 1
    assert "not the same survey: seeds 0 and 1, 4 and 4 reports" in err


def test_root_records_against_simulation_runs_exit_with_their_message(tmp_path):
    status, _, err = compare(tmp_path, ROOTS, RUNS)
    assert status == 1
    assert "one file holds simulation runs and the other root reports" in err


def test_simulation_runs(tmp_path):
    golden, unstable, _ = copy.deepcopy(RUNS["runs"])
    golden["y_end"] *= 1 + 1e-12
    unstable["index"] = 401
    status, out, _ = compare(tmp_path, RUNS, {"runs": [golden, unstable]})
    assert status == 0
    lines = out.splitlines()
    assert lines[:3] == ["3 runs, 2 with n or index changes",
                         "  unstable direct: (n, index) (1000, 400) -> (1000, 401)",
                         "  pi direct: (n, index) (1000, None) -> None"]
    move, where = largest_move(lines[3], "y_end")
    assert abs(move - 1e-12) <= 1e-15 and where == "golden state-space"
    assert lines[4] == "largest relative norm move: 0"
