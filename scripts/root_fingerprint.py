#!/usr/bin/env python3
"""Fingerprint of `find_roots` over a seeded survey of polynomials.

Prints the sha256 of the `repr` of every design and `find_roots` report
in the survey, and how many reports each root method gave.  Two source
trees that print the same digest give bit-identical controllers, roots,
residuals, verdicts, methods, caveats and root counts on the survey, so
run it in both trees to check that a change to `charpoly` (or to the
design code) moves no number.

Four tallies print next to it; none enters the digest.  Two show how
complete the Newton search is:
  - the newton-grid reports whose roots match the argument-principle
    count, fall short of it or exceed it, and those with no count;
  - the commensurate polynomials on which `newton_roots` gives the
    companion-matrix roots, each within 1e-6 relative, and those where
    it does not (or the companion matrix gives no roots).
The third counts, for each lambda range of the planted PI^lambda survey
below, the designs solved and those that raised `NoSolutionError`.  The
fourth splits the newton-grid reports with a root count by how their
search ended, as the report's `search` record gives it: with no search (a
count of 0), on a fill whose roots matched the count, running every start
with no fill, or running every start after a fill whose roots did not
match the count.

With `--records FILE` it also writes every report of the survey to FILE
as JSON, outside the digest: kind, index in the survey, controller (its
fields, or null), method, verdict, root_count, caveat and roots as
[re, im], or the error a design or `find_roots` raised.
`scripts/compare_records.py` compares two such files by tolerance.

A last line gives the median time per call, in µs, of `design_pi`,
`design_pd_fractional`, `design_pd_integer` and `find_roots` (by the
method of its report) over the survey.  It varies from run to run, and
the digest leaves it out; it shows which layer a change made faster.

The exit status is 1 when any newton-grid report holds more distinct
roots than its count ("over" above 0): such a root set is no set of
principal-sheet roots, so the script guards completeness as well as
printing the digest.  It is 0 otherwise.

The survey, seeded:
  - PD^delta designs on the bundled plant over the benchmark's
    `design_sweep` ranges (poles in [-2, -0.5] x [3, 8]i, e_ss 2-8 %);
  - integer PD designs over the same poles;
  - PI^lambda designs planted at lambda = 1 (K in [2, 10], Ti in [1, 8]);
  - random 2-5-term polynomials (exponents in [0, 4], coefficients of
    either sign, magnitudes log-uniform in [0.01, 100]);
  - random commensurate ones (exponents k/m, m <= 12, k <= 5m);
  - planted PI^lambda designs on random plants, N_PI_PLANTED per lambda
    range in PI_LAMBDA_RANGES (see `planted_pi`).

Usage: PYTHONPATH=src python scripts/root_fingerprint.py [seed] [--records FILE]
"""

import argparse
import dataclasses
import hashlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from fracreg import (DesignSpecPd, DesignSpecPi, FracPoly, FracregError, PiController, Plant,
                     char_poly_pd, char_poly_pi, commensurate_roots, design_pd_fractional,
                     design_pd_integer, design_pi, find_roots, newton_roots)

PD_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
PI_PLANT = Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0)
N_PD, N_PD_INTEGER, N_PI, N_RANDOM, N_COMMENSURATE = 300, 60, 60, 2000, 1000
N_PI_PLANTED = 60
PI_LAMBDA_RANGES = ((0.05, 0.3), (0.2, 2.5), (1.9, 2.1), (2.5, 3.5))
#: Seconds per call of each timed layer, by name (see `_timed`).
TIMINGS = defaultdict(list)


def _pole(rng):
    return complex(rng.uniform(-2.0, -0.5), rng.uniform(3.0, 8.0))


def _planted_poles(roots):
    """A pair and a real root, or three real roots, of `roots`, smallest first; or None."""
    roots = sorted(roots, key=abs)
    pairs = [z for z in roots if z.imag > 0]
    reals = [z for z in roots if z.imag == 0]
    if pairs and reals:
        return pairs[0], pairs[0].conjugate(), reals[0]
    return tuple(reals[:3]) if len(reals) >= 3 else None


def planted_pi(rng, lam_range, n):
    """`n` PI^lambda specs whose poles are roots of a random loop with lambda in `lam_range`.

    Plant: a0 in [0.05, 3], a1 and a2 in [-2, 2], alpha in
    [0.3, min(3, 5.95 - max lambda)], beta in [0, alpha); controller: K in
    [0.5, 10], Ti in [0.5, 8].  The poles are a pair and a real root, or
    three real roots, of the planted loop's `find_roots` (`_planted_poles`);
    a loop with neither is drawn again.
    """
    lo, hi = lam_range
    specs = []
    while len(specs) < n:
        alpha = rng.uniform(0.3, min(3.0, 5.95 - hi))
        plant = Plant(a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-2.0, 2.0),
                      a2=rng.uniform(-2.0, 2.0), alpha=alpha, beta=rng.uniform(0.0, alpha))
        ctrl = PiController(K=rng.uniform(0.5, 10.0), Ti=rng.uniform(0.5, 8.0),
                            lam=rng.uniform(lo, hi))
        try:
            roots = find_roots(char_poly_pi(plant, ctrl)).roots
        except ValueError:  # a loop that normalizes to fewer than two terms
            continue
        poles = _planted_poles([r.value for r in roots])
        if poles is not None:
            specs.append(DesignSpecPi(plant=plant, poles=poles))
    return specs


def _terms(rng, exponents):
    mags = 10.0 ** rng.uniform(-2.0, 2.0, len(exponents))
    signs = rng.choice([-1.0, 1.0], len(exponents))
    return FracPoly.from_terms(zip((mags * signs).tolist(), exponents))


def survey(seed):
    """(label, design thunk) pairs; each thunk returns (controller, polynomial)."""
    rng = np.random.default_rng(seed)
    for _ in range(N_PD):
        spec = DesignSpecPd(plant=PD_PLANT, pole=_pole(rng), ess_percent=rng.uniform(2.0, 8.0))
        yield "pd", lambda spec=spec: _pd(design_pd_fractional, spec)
    for _ in range(N_PD_INTEGER):
        spec = DesignSpecPd(plant=PD_PLANT, pole=_pole(rng))
        yield "pd-integer", lambda spec=spec: _pd(design_pd_integer, spec)
    for _ in range(N_PI):
        K, Ti = rng.uniform(2.0, 10.0), rng.uniform(1.0, 8.0)
        poles = tuple(np.roots([PI_PLANT.a2, PI_PLANT.a1, PI_PLANT.a0 + K, Ti]))
        spec = DesignSpecPi(plant=PI_PLANT, poles=poles)
        yield "pi", lambda spec=spec: _pi(spec)
    for _ in range(N_RANDOM):
        exponents = rng.uniform(0.0, 4.0, int(rng.integers(2, 6))).tolist()
        poly = _terms(rng, exponents)
        yield "random", lambda poly=poly: (None, poly)
    for _ in range(N_COMMENSURATE):
        m = int(rng.integers(1, 13))
        numerators = rng.choice(5 * m + 1, int(rng.integers(2, 6)), replace=False)
        poly = _terms(rng, [int(k) / m for k in numerators])
        yield "commensurate", lambda poly=poly: (None, poly)
    for lam_range in PI_LAMBDA_RANGES:
        for spec in planted_pi(rng, lam_range, N_PI_PLANTED):
            yield _planted_label(lam_range), lambda spec=spec: _pi(spec)


def _planted_label(lam_range):
    return "pi-planted [{:g}, {:g}]".format(*lam_range)


def _timed(name, fn, *args):
    """fn(*args), its wall time appended to TIMINGS[name], whether it returns or raises."""
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        TIMINGS[name].append(time.perf_counter() - start)


def _pd(design, spec):
    ctrl = _timed(design.__name__, design, spec)
    return ctrl, char_poly_pd(spec.plant, ctrl)


def _pi(spec):
    ctrl = _timed("design_pi", design_pi, spec)
    return ctrl, char_poly_pi(spec.plant, ctrl)


def _coverage(report):
    """How the roots of a newton-grid report compare with its count."""
    if report.root_count is None:
        return "no count"
    found = len(report.roots)
    return "matched" if found == report.root_count else "short" if found < report.root_count \
        else "over"


def _agrees(poly):
    """Whether `newton_roots` gives the companion-matrix roots of `poly`, each within 1e-6."""
    got, want = newton_roots(poly), commensurate_roots(poly)
    if want is None or len(got) != len(want):
        return False
    return (all(min(abs(z - w) for w in want) <= 1e-6 * abs(z) for z in got)
            and all(min(abs(z - w) for z in got) <= 1e-6 * abs(w) for w in want))


def _as_json(index, record):
    """One report of the survey as a JSON object (see the module docstring)."""
    if len(record) == 3:  # (label, error name, message)
        return {"kind": record[0], "index": index, "error": record[1], "message": record[2]}
    label, ctrl, _, report = record
    return {"kind": label, "index": index,
            "controller": None if ctrl is None else dataclasses.asdict(ctrl),
            "method": report.method, "verdict": report.verdict,
            "root_count": report.root_count, "caveat": report.coverage_caveat,
            "roots": [[r.value.real, r.value.imag] for r in report.roots]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", nargs="?", type=int, default=0)
    parser.add_argument("--records", metavar="FILE", help="write every report to FILE as JSON")
    args = parser.parse_args()
    seed = args.seed
    digest = hashlib.sha256()
    methods, coverage, oracle, outcomes = Counter(), Counter(), Counter(), Counter()
    searches, records = Counter(), []
    for index, (label, build) in enumerate(survey(seed)):
        try:
            ctrl, poly = build()
            start = time.perf_counter()
            report = find_roots(poly)
        except (FracregError, ValueError) as exc:
            record = (label, type(exc).__name__, str(exc))
            methods[f"{label}: {type(exc).__name__}"] += 1
            outcomes[label, type(exc).__name__] += 1
        else:
            TIMINGS[f"find_roots {report.method}"].append(time.perf_counter() - start)
            outcomes[label, "solved"] += 1
            record = (label, ctrl, poly, report)
            methods[f"{label}: {report.method}"] += 1
            if report.method == "newton-grid":
                coverage[_coverage(report)] += 1
                if report.root_count is not None:
                    searches[report.search.end] += 1
            if label == "commensurate":
                oracle["agrees" if _agrees(poly) else "differs"] += 1
        digest.update(repr(record).encode())
        records.append(_as_json(index, record))
    for key, n in sorted(methods.items()):
        print(f"{key:40s} {n:5d}")
    print("newton-grid roots against the count: "
          + ", ".join(f"{key} {coverage[key]}" for key in ("matched", "short", "over", "no count")))
    print("newton_roots against the companion matrix on the commensurate polynomials: "
          f"agrees {oracle['agrees']}, differs {oracle['differs']}")
    for label in map(_planted_label, PI_LAMBDA_RANGES):
        print(f"{label} designs: solved {outcomes[label, 'solved']}, "
              f"NoSolutionError {outcomes[label, 'NoSolutionError']}")
    print(f"counted newton-grid reports: no search (count 0) {searches['count 0']}, "
          f"filled {searches['fill']}, every start, never filled {searches['every start']}, "
          f"every start after an unconfirmed fill {searches['every start after a fill']}")
    print(f"seed {seed}: sha256 {digest.hexdigest()}")
    print("median µs per call: " + ", ".join(
        f"{name} {1e6 * statistics.median(times):.1f} ({len(times)} calls)"
        for name, times in sorted(TIMINGS.items())))
    if args.records:
        with open(args.records, "w") as out:  # one report a line
            out.write(f'{{"seed": {seed}, "reports": [\n'
                      + ",\n".join(map(json.dumps, records)) + "\n]}\n")
    if coverage["over"]:
        sys.exit(f"seed {seed}: {coverage['over']} newton-grid reports hold more roots "
                 "than their count")


if __name__ == "__main__":
    main()
