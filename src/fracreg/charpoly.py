"""Evaluation, root finding and stability classification for FracPoly.

Powers are taken on the principal branch, s^q = exp(q (ln|s| + i arg s))
with arg s in (-pi, pi].  Roots on other Riemann sheets are not physical
closed-loop poles and are ignored.

Two root finders are provided: a multi-start Newton iteration over a grid
of complex starting points (general, not provably complete) and, for
commensurate exponent sets (all multiples of 1/m), an exact reduction to
an integer polynomial in w = s^(1/m) solved by companion-matrix
eigenvalues and mapped back to the principal sheet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FracPoly

__all__ = [
    "RootFindConfig",
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

_COMMENSURATE_TOL = 1e-9


@dataclass(frozen=True)
class RootFindConfig:
    search_radius: float = 20.0
    grid_density: int = 40
    newton_tol: float = 1e-10
    max_iter: int = 80
    dedupe_tol: float = 1e-6
    commensurate_max_denominator: int = 12
    stability_margin: float = 0.0

    def __post_init__(self):
        if min(self.search_radius, self.grid_density, self.newton_tol,
               self.max_iter, self.dedupe_tol, self.commensurate_max_denominator) <= 0:
            raise ValueError("all RootFindConfig parameters must be positive")
        if self.newton_tol > 1e-8:
            raise ValueError("newton_tol must be <= 1e-8")


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


def _principal_pow(s, q):
    """s**q on the principal branch; works elementwise on arrays."""
    return np.asarray(s, dtype=complex) ** q


def eval_fracpoly(p: FracPoly, s: complex) -> complex:
    """Evaluate sum coeff * s^exponent on the principal branch."""
    if s == 0:
        if any(e < 0 for e in p.exponents):
            raise ValueError("s=0 is outside the domain: negative exponent present")
        return complex(sum(c for c, e in p.terms if e == 0))
    return complex(sum(c * _principal_pow(s, e) for c, e in p.terms))


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


def _residual_scale(p: FracPoly, tol: float) -> float:
    return tol * (1.0 + max(abs(c) for c in p.coefficients))


def _dedupe(points, tol):
    kept = []
    for z in sorted(points, key=lambda z: (z.real, z.imag)):
        if all(abs(z - w) > tol for w in kept):
            kept.append(z)
    return kept


def _polish(p: FracPoly, points, cfg: RootFindConfig):
    """A few Newton steps on the original polynomial; keep true roots only."""
    scale = _residual_scale(p, cfg.newton_tol)
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
        res = abs(eval_fracpoly(p, s))
        if res <= scale:
            out.append(complex(s))
    return out


def newton_roots(p: FracPoly, cfg: RootFindConfig | None = None):
    """Multi-start Newton search on a square grid of starting points.

    Returns principal-sheet roots (deduplicated, conjugate-reflected,
    sorted by real then imaginary part).  Not guaranteed complete.

    Each iteration evaluates only the starts still live: converged ones
    are set aside and diverged ones dropped.  Only the distinct converged
    points of the upper half-plane are polished (see `_distinct_roots`).
    """
    cfg = cfg or RootFindConfig()
    pn, _ = normalize(p)
    coeffs = np.array(pn.coefficients, dtype=complex)
    expts = np.array(pn.exponents, dtype=float)
    scale_n = _residual_scale(pn, cfg.newton_tol)

    axis = np.linspace(-cfg.search_radius, cfg.search_radius, cfg.grid_density)
    re, im = np.meshgrid(axis, axis)
    s = (re + 1j * im).ravel()
    s[np.abs(s) < 1e-9] = 1e-3 + 1e-3j  # keep starts off the origin

    limit = 1e6 * cfg.search_radius
    converged = []
    for _ in range(cfg.max_iter):
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
    return _distinct_roots(p, np.concatenate(converged), cfg)


def _distinct_roots(p: FracPoly, points, cfg: RootFindConfig):
    """Polished, conjugate-closed, sorted roots from converged Newton points.

    The coefficients are real, so the points are folded onto Im >= 0 and
    reduced to one per dedupe_tol grid cell before polishing; the polished
    roots are then reflected.  The final `_dedupe` merges representatives
    split by a cell edge and real roots that reflect onto themselves.
    """
    folded = np.where(points.imag < 0, points.conj(), points)
    _, first = np.unique(np.round(folded / cfg.dedupe_tol), return_index=True)
    roots = _polish(p, folded[first], cfg)
    candidates = roots + [z.conjugate() for z in roots]
    return sorted(_dedupe(candidates, cfg.dedupe_tol), key=lambda z: (z.real, z.imag))


def commensurate_base(p: FracPoly, max_denominator: int):
    """Smallest m <= max_denominator with all exponents multiples of 1/m."""
    pn, _ = normalize(p)
    for m in range(1, max_denominator + 1):
        if all(abs(e * m - round(e * m)) <= _COMMENSURATE_TOL * m for e in pn.exponents):
            return m
    return None


def commensurate_roots(p: FracPoly, cfg: RootFindConfig | None = None):
    """Complete principal-sheet root set via the w = s^(1/m) substitution.

    Returns None when no commensurate base m <= the configured maximum
    exists.  Roots w of the integer polynomial map back as s = w^m only
    when |arg w| <= pi/m (the principal sheet).
    """
    cfg = cfg or RootFindConfig()
    m = commensurate_base(p, cfg.commensurate_max_denominator)
    if m is None:
        return None
    pn, _ = normalize(p)
    degrees = [round(e * m) for e in pn.exponents]
    vec = np.zeros(degrees[0] + 1)
    for (c, _), d in zip(pn.terms, degrees):
        vec[degrees[0] - d] += c
    w_roots = np.roots(vec)
    s_roots = [
        complex(w ** m)
        for w in w_roots
        if abs(w) > 0 and abs(np.angle(w)) <= math.pi / m + 1e-12
    ]
    roots = _polish(p, s_roots, cfg)
    return sorted(_dedupe(roots, cfg.dedupe_tol), key=lambda z: (z.real, z.imag))


def classify_stability(roots, method: str, stability_margin: float = 0.0):
    """Map a root set to (verdict, coverage_caveat).

    An unstable verdict is certain; a stable verdict from the Newton grid
    carries a coverage caveat since the search is not provably complete.
    """
    if not roots and method != "commensurate":
        return INCONCLUSIVE, True
    if any(z.real > stability_margin for z in roots):
        return UNSTABLE, False
    if method == "commensurate":
        return STABLE, False
    return STABLE, True


def find_roots(p: FracPoly, cfg: RootFindConfig | None = None) -> StabilityReport:
    """Locate principal-sheet roots and classify closed-loop stability.

    Prefers the complete commensurate method when the exponent set allows
    it, falling back to the multi-start Newton grid otherwise.
    """
    cfg = cfg or RootFindConfig()
    pn, _ = normalize(p)
    if len(pn.terms) < 2:
        raise ValueError("need at least two terms after normalization")
    roots = commensurate_roots(p, cfg)
    method = "commensurate"
    if roots is None:
        roots = newton_roots(p, cfg)
        method = "newton-grid"
    verdict, caveat = classify_stability(roots, method, cfg.stability_margin)
    results = tuple(RootResult(z, abs(eval_fracpoly(p, z))) for z in roots)
    return StabilityReport(roots=results, verdict=verdict, method=method,
                           coverage_caveat=caveat)
