#!/usr/bin/env python3
"""Fingerprint of `find_roots` over a seeded survey of polynomials.

Prints the sha256 of the `repr` of every design and `find_roots` report
in the survey, and how many reports each root method gave.  Two source
trees that print the same digest give bit-identical controllers, roots,
residuals, verdicts, methods, caveats and root counts on the survey, so
run it in both trees to check that a change to `charpoly` (or to the
design code) moves no number.

Two tallies show how complete the Newton search is; neither enters the
digest:
  - the newton-grid reports whose roots match the argument-principle
    count, fall short of it or exceed it, and those with no count;
  - the commensurate polynomials on which `newton_roots` gives the
    companion-matrix roots, each within 1e-6 relative, and those where
    it does not (or the companion matrix gives no roots).

The survey, seeded:
  - PD^delta designs on the bundled plant over the benchmark's
    `design_sweep` ranges (poles in [-2, -0.5] x [3, 8]i, e_ss 2-8 %);
  - integer PD designs over the same poles;
  - PI^lambda designs planted at lambda = 1 (K in [2, 10], Ti in [1, 8]);
  - random 2-5-term polynomials (exponents in [0, 4], coefficients of
    either sign, magnitudes log-uniform in [0.01, 100]);
  - random commensurate ones (exponents k/m, m <= 12, k <= 5m).

Usage: PYTHONPATH=src python scripts/root_fingerprint.py [seed]
"""

import hashlib
import sys
from collections import Counter

import numpy as np

from fracreg import (DesignSpecPd, DesignSpecPi, FracPoly, FracregError, Plant,
                     char_poly_pd, char_poly_pi, commensurate_roots, design_pd_fractional,
                     design_pd_integer, design_pi, find_roots, newton_roots)

PD_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
PI_PLANT = Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0)
N_PD, N_PD_INTEGER, N_PI, N_RANDOM, N_COMMENSURATE = 300, 60, 60, 2000, 1000


def _pole(rng):
    return complex(rng.uniform(-2.0, -0.5), rng.uniform(3.0, 8.0))


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


def _pd(design, spec):
    ctrl = design(spec)
    return ctrl, char_poly_pd(spec.plant, ctrl)


def _pi(spec):
    ctrl = design_pi(spec)
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


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    digest = hashlib.sha256()
    methods, coverage, oracle = Counter(), Counter(), Counter()
    for label, build in survey(seed):
        try:
            ctrl, poly = build()
            report = find_roots(poly)
        except (FracregError, ValueError) as exc:
            record = (label, type(exc).__name__, str(exc))
            methods[f"{label}: {type(exc).__name__}"] += 1
        else:
            record = (label, ctrl, poly, report)
            methods[f"{label}: {report.method}"] += 1
            if report.method == "newton-grid":
                coverage[_coverage(report)] += 1
            if label == "commensurate":
                oracle["agrees" if _agrees(poly) else "differs"] += 1
        digest.update(repr(record).encode())
    for key, n in sorted(methods.items()):
        print(f"{key:40s} {n:5d}")
    print("newton-grid roots against the count: "
          + ", ".join(f"{key} {coverage[key]}" for key in ("matched", "short", "over", "no count")))
    print("newton_roots against the companion matrix on the commensurate polynomials: "
          f"agrees {oracle['agrees']}, differs {oracle['differs']}")
    print(f"seed {seed}: sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
