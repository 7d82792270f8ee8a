"""Evaluation, root finding and stability classification for FracPoly.

Powers are taken on the principal branch, s^q = exp(q (ln|s| + i arg s))
with arg s in (-pi, pi].  Roots on other Riemann sheets are not physical
closed-loop poles and are ignored.

Two root finders are provided: a multi-start Newton iteration over a grid
of complex starting points (general, not provably complete) and, for
commensurate exponent sets (all multiples of 1/m, m <= MAX_DENOMINATOR),
an exact reduction to an integer polynomial in w = s^(1/m) solved by
companion-matrix eigenvalues and mapped back to the principal sheet.

Both finish through `_distinct_roots`: candidates are folded onto Im >= 0,
reduced to one per DEDUPE_TOL cell, Newton-polished to a residual within
NEWTON_TOL (relative to the coefficient size), reflected into exact
conjugate pairs, deduplicated and sorted.  The Newton grid has
GRID_DENSITY x GRID_DENSITY starts on the square of half-width
SEARCH_RADIUS and runs at most MAX_ITER iterations.  These are fixed
constants, not settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FracPoly

__all__ = [
    "RootResult",
    "StabilityReport",
    "eval_fracpoly",
    "normalize",
    "find_roots",
    "newton_roots",
    "commensurate_roots",
    "classify_stability",
]

#: Verdict strings used throughout.
STABLE, UNSTABLE, INCONCLUSIVE = "stable", "unstable", "inconclusive"

SEARCH_RADIUS = 20.0
GRID_DENSITY = 40
NEWTON_TOL = 1e-10
MAX_ITER = 80
DEDUPE_TOL = 1e-6
MAX_DENOMINATOR = 12

_COMMENSURATE_TOL = 1e-9


@dataclass(frozen=True)
class RootResult:
    value: complex
    residual: float


@dataclass(frozen=True)
class StabilityReport:
    roots: tuple
    verdict: str
    method: str
    coverage_caveat: bool


def eval_fracpoly(p: FracPoly, s: complex) -> complex:
    """Evaluate sum coeff * s^exponent on the principal branch."""
    if s == 0:
        if any(e < 0 for e in p.exponents):
            raise ValueError("s=0 is outside the domain: negative exponent present")
        return complex(sum(c for c, e in p.terms if e == 0))
    z = np.asarray(s, dtype=complex)  # ndarray ** 0.5 is np.sqrt, unlike a scalar's
    return complex(sum(c * z ** e for c, e in p.terms))


def normalize(p: FracPoly):
    """Shift exponents so the smallest is zero; returns (poly, shift).

    Multiplication by s^shift changes no root away from s = 0.
    """
    if not p.terms:
        raise ValueError("empty polynomial")
    shift = -min(p.exponents)
    if shift <= 0:
        return p, 0.0
    return FracPoly.from_terms((c, e + shift) for c, e in p.terms), shift


def _eval_vec(coeffs, expts, s):
    """Values and derivatives of the polynomial at an array of points."""
    powers = s[:, None] ** expts[None, :]
    f = powers @ coeffs
    fp = (powers / s[:, None]) @ (coeffs * expts)
    return f, fp


def _residual_scale(p: FracPoly) -> float:
    return NEWTON_TOL * (1.0 + max(abs(c) for c in p.coefficients))


def _dedupe(points, tol):
    kept = []
    for z in sorted(points, key=lambda z: (z.real, z.imag)):
        if all(abs(z - w) > tol for w in kept):
            kept.append(z)
    return kept


def _polish(p: FracPoly, points):
    """A few Newton steps on the original polynomial; keep true roots only.

    A root within DEDUPE_TOL of the real axis is put on it when its real
    part passes the same residual test.
    """
    scale = _residual_scale(p)
    coeffs = np.array(p.coefficients, dtype=complex)
    expts = np.array(p.exponents, dtype=float)
    out = []
    for z in points:
        s = complex(z)
        for _ in range(12):
            if s == 0:
                break
            f, fp = _eval_vec(coeffs, expts, np.array([s]))
            if abs(f[0]) <= 0.01 * scale or fp[0] == 0:
                break
            s = s - f[0] / fp[0]
        if s == 0 or not (math.isfinite(s.real) and math.isfinite(s.imag)):
            continue
        if abs(eval_fracpoly(p, s)) > scale:
            continue
        if 0 < abs(s.imag) <= DEDUPE_TOL and abs(eval_fracpoly(p, s.real)) <= scale:
            s = complex(s.real, 0.0)
        out.append(complex(s))
    return out


def newton_roots(p: FracPoly):
    """Multi-start Newton search on a square grid of starting points.

    Returns principal-sheet roots (deduplicated, conjugate-reflected,
    sorted by real then imaginary part).  Not guaranteed complete.

    Each iteration evaluates only the starts still live: converged ones
    are set aside and diverged ones dropped.  Only the distinct converged
    points of the upper half-plane are polished (see `_distinct_roots`).
    """
    pn, _ = normalize(p)
    coeffs = np.array(pn.coefficients, dtype=complex)
    expts = np.array(pn.exponents, dtype=float)
    scale_n = _residual_scale(pn)

    axis = np.linspace(-SEARCH_RADIUS, SEARCH_RADIUS, GRID_DENSITY)
    re, im = np.meshgrid(axis, axis)
    s = (re + 1j * im).ravel()
    s[np.abs(s) < 1e-9] = 1e-3 + 1e-3j  # keep starts off the origin

    limit = 1e6 * SEARCH_RADIUS
    converged = []
    for _ in range(MAX_ITER):
        if not s.size:
            break
        f, fp = _eval_vec(coeffs, expts, s)
        done = np.abs(f) <= scale_n
        converged.append(s[done])
        live = ~done & np.isfinite(f) & np.isfinite(fp) & (fp != 0)
        s = s[live] - f[live] / fp[live]
        mag = np.abs(s)
        s = s[(mag <= limit) & (mag >= 1e-14)]  # also drops non-finite steps
    else:
        f, _ = _eval_vec(coeffs, expts, s)
        converged.append(s[np.abs(f) <= scale_n])
    return _distinct_roots(p, np.concatenate(converged))


def _distinct_roots(p: FracPoly, points):
    """Polished, conjugate-closed, sorted roots from candidate points.

    The coefficients are real, so the points are folded onto Im >= 0 and
    reduced to one per DEDUPE_TOL grid cell before polishing; the polished
    roots are then reflected.  The final `_dedupe` merges representatives
    split by a cell edge and real roots that reflect onto themselves.
    """
    folded = np.where(points.imag < 0, points.conj(), points)
    _, first = np.unique(np.round(folded / DEDUPE_TOL), return_index=True)
    roots = _polish(p, folded[first])
    candidates = roots + [z.conjugate() for z in roots]
    return sorted(_dedupe(candidates, DEDUPE_TOL), key=lambda z: (z.real, z.imag))


def commensurate_base(p: FracPoly):
    """Smallest m <= MAX_DENOMINATOR with all exponents multiples of 1/m."""
    pn, _ = normalize(p)
    for m in range(1, MAX_DENOMINATOR + 1):
        if all(abs(e * m - round(e * m)) <= _COMMENSURATE_TOL * m for e in pn.exponents):
            return m
    return None


def commensurate_roots(p: FracPoly):
    """Complete principal-sheet root set via the w = s^(1/m) substitution.

    Returns None when no commensurate base m <= MAX_DENOMINATOR exists.
    Roots w of the integer polynomial map back as s = w^m only when
    |arg w| <= pi/m (the principal sheet).
    """
    m = commensurate_base(p)
    if m is None:
        return None
    pn, _ = normalize(p)
    degrees = [round(e * m) for e in pn.exponents]
    vec = np.zeros(degrees[0] + 1)
    for (c, _), d in zip(pn.terms, degrees):
        vec[degrees[0] - d] += c
    w_roots = np.roots(vec)
    s_roots = np.array([
        w ** m
        for w in w_roots
        if abs(w) > 0 and abs(np.angle(w)) <= math.pi / m + 1e-12
    ], dtype=complex)
    return _distinct_roots(p, s_roots)


def classify_stability(roots, method: str):
    """Map a root set to (verdict, coverage_caveat).

    An unstable verdict is certain; a stable verdict from the Newton grid
    carries a coverage caveat since the search is not provably complete.
    """
    if not roots and method != "commensurate":
        return INCONCLUSIVE, True
    if any(z.real > 0 for z in roots):
        return UNSTABLE, False
    if method == "commensurate":
        return STABLE, False
    return STABLE, True


def find_roots(p: FracPoly) -> StabilityReport:
    """Locate principal-sheet roots and classify closed-loop stability.

    Prefers the complete commensurate method when the exponent set allows
    it, falling back to the multi-start Newton grid otherwise.
    """
    pn, _ = normalize(p)
    if len(pn.terms) < 2:
        raise ValueError("need at least two terms after normalization")
    roots = commensurate_roots(p)
    method = "commensurate"
    if roots is None:
        roots = newton_roots(p)
        method = "newton-grid"
    verdict, caveat = classify_stability(roots, method)
    results = tuple(RootResult(z, abs(eval_fracpoly(p, z))) for z in roots)
    return StabilityReport(roots=results, verdict=verdict, method=method,
                           coverage_caveat=caveat)
