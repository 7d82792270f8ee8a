"""Evaluation, root finding and stability classification for FracPoly.

Powers are taken on the principal branch, s^q = exp(q (ln|s| + i arg s))
with arg s in (-pi, pi].  Roots on other Riemann sheets are not physical
closed-loop poles and are ignored.

Two root finders are provided: a multi-start Newton iteration (general)
and, for commensurate exponent sets (all multiples of 1/m,
m <= MAX_DENOMINATOR), an exact reduction to an integer polynomial in
w = s^(1/m), of degree at most MAX_DEGREE, solved by companion-matrix
eigenvalues and mapped back to the principal sheet.

The Newton search is driven by a count.  `_root_count` counts the
principal-sheet roots by the argument principle on a keyhole contour
around the cut plane, inside the annulus eps < |s| < R0 that `_bounds`
gives in closed form: no root lies outside it.  Newton's 48 starts lie on
8 rings spaced geometrically over that annulus (clamped to [1e-4, 1e6]),
each with 6 starts at angles evenly spaced over [0, pi].  One numpy
evaluation, at logs built from templates made at import, gives both the
count's first 2 x 64 samples (and its point s = eps) and P and s P' at the
starts.  A count of 0 needs no search.  Otherwise the starts are ranked by
their Newton step |P / (s P')|, and one pass runs scalar Newton from each
in that order, for at most MAX_ITER iterations.  With a count, the pass stops
once its resolved points (relative Newton step below DEDUPE_TOL) fill it,
each new root counting twice off the real axis, for its conjugate.  When
the distinct roots it found match the count, the root set is complete and
the search ends there.  Otherwise, and when the count fails (a root on the
cut), the pass runs from every start.  A count its roots do not match, or
a failed count, leaves a stable or inconclusive verdict with its coverage
caveat; the unmatched count is logged.  The search returns a SearchRecord
of its runs, resolved runs, evaluations and end, which `find_roots` keeps
on the report as `search`.

One rule, relative to |s|, decides whether two points are one root: z is
new when it lies more than DEDUPE_TOL |z| from every point kept before it
(`_is_new`).  Both finders search the polynomial normalized to a smallest
exponent of 0, which has the same roots s != 0 and none at s = 0, and
finish through `_distinct_roots`: the finite candidates are folded onto
Im >= 0 and reduced by that rule.  `_polish` Newton-polishes each one,
point by point in float arithmetic (`evaluate_terms`), until its step is a
few ulps of |s| or P is at its own rounding, and keeps it as a RootResult
on Im >= 0 when |P| is within NEWTON_TOL times the larger of 1 + max |c_k|
and the size of its terms, sum |c_k| |s|^e_k, if finite.
Newton counts a start as converged by the same rule, from the one
evaluation of its iteration, and that |P| is the root's reported residual.
The kept roots are deduplicated by the rule again, the conjugate of each
non-real one is added, and the set is sorted.  These are fixed constants,
not settings.  When every exponent is positive, P(0) = 0 and both finders
report the root s = 0 as exactly 0j; the count includes it and the verdict
is unstable.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import FracPoly

__all__ = [
    "RootResult",
    "SearchRecord",
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

NEWTON_TOL = 1e-10
MAX_ITER = 80
DEDUPE_TOL = 1e-6
MAX_DENOMINATOR = 12
MAX_DEGREE = 240

_COMMENSURATE_TOL = 1e-9
_EPS = math.ulp(1.0)  # machine epsilon
_COUNT_MIN_SAMPLES = 64
_COUNT_MAX_SAMPLES = 2 ** 12


def _read_only(array):
    array.flags.writeable = False
    return array


#: Newton's start templates, shared by every search: the 8 rings as fractions of the
#: annulus's log width, and the 6 directions e^(i theta), theta (_THETAS) evenly spaced
#: over [0, pi].
#: The coefficients are real, so the lower half-plane mirrors the upper one.
_THETAS = _read_only(np.linspace(0.0, math.pi, 6))
_RINGS = _read_only(np.linspace(0.0, 1.0, 8))
_ANGLES = _read_only(np.exp(1j * _THETAS))
#: The _ANGLES as Python complex.
_DIRECTIONS = _ANGLES.tolist()
#: Where the starts' rings may lie: the annulus clamped to [1e-4, 1e6], in log |s|.
_LOG_START_RANGE = (math.log(1e-4), math.log(1e6))


@dataclass(frozen=True)
class RootResult:
    value: complex
    residual: float


@dataclass(frozen=True, slots=True)
class SearchRecord:
    """What one Newton search did: `starts` runs began, `resolved` of them ended resolved.

    The runs made `evaluations` calls of `evaluate_terms`.  `end` is "count 0"
    (no search), "fill" (the roots of a fill matched the count), "every start"
    (no fill, or no count) or "every start after a fill" (they did not match).
    """

    starts: int
    resolved: int
    evaluations: int
    end: str


@dataclass(frozen=True)
class StabilityReport:
    """Roots and verdict of `find_roots`.

    `root_count` is the number of principal-sheet roots known to exist: the
    argument-principle count on the newton-grid path, the size of the
    complete root set on the commensurate path; None when the count failed.
    `coverage_caveat` is derived: a verdict other than unstable whose roots
    do not match `root_count`.  `search` is the newton-grid path's
    SearchRecord, None on the commensurate path; it enters neither the repr
    nor equality.
    """

    roots: tuple
    verdict: str
    method: str
    coverage_caveat: bool = field(init=False)
    root_count: int | None
    search: SearchRecord | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coverage_caveat",
                           self.verdict != UNSTABLE and self.root_count != len(self.roots))


def eval_fracpoly(p: FracPoly, s: complex) -> complex:
    """Evaluate sum coeff * s^exponent on the principal branch."""
    if s == 0:
        if any(e < 0 for e in p.exponents):
            raise ValueError("s=0 is outside the domain: negative exponent present")
        return complex(sum(c for c, e in p.terms if e == 0))
    z = np.asarray(s, dtype=complex)  # ndarray ** 0.5 is np.sqrt, unlike a scalar's
    return complex(sum(c * z ** e for c, e in p.terms))


def evaluate_terms(p: FracPoly, s: complex):
    """(P(s), s P'(s), sum |c_k| |s|^e_k) at one point s, in scalar arithmetic.

    The middle value is sum e_k c_k s^e_k, and the last the size of P's
    terms, which bounds the rounding of P(s).  Powers are Python's complex
    and float ones on the principal branch.  Where numpy returns inf or nan,
    they raise an ArithmeticError: OverflowError for a power past the float
    range, ZeroDivisionError for a phase e_k arg s past it.  Callers read
    either as "no root here".  At s = 0 only a term of exponent 0 survives.
    """
    size_s = abs(s)
    value = slope = 0j
    size = 0.0
    for c, e in p.terms:
        term = c * s ** e
        value += term
        slope += e * term
        size += abs(c) * size_s ** e
    return value, slope, size


def normalize(p: FracPoly) -> FracPoly:
    """`p` with its exponents shifted so the smallest is zero.

    Multiplication by a power of s changes no root away from s = 0, and the
    shifted polynomial has none at s = 0.
    """
    if not p.terms:
        raise ValueError("empty polynomial")
    shift = -min(p.exponents)
    if shift == 0:
        return p
    return FracPoly.from_terms((c, e + shift) for c, e in p.terms)


def _zero_is_root(p: FracPoly) -> bool:
    """Whether P(0) = 0: every exponent is positive, so no term survives at s = 0."""
    return min(p.exponents) > 0


def _residual_scale(p: FracPoly) -> float:
    return NEWTON_TOL * (1.0 + max(abs(c) for c in p.coefficients))


def _is_new(z, kept):
    """Whether z lies more than DEDUPE_TOL |z| from every point of `kept`: a root of its own.

    With `kept` = (Re z,) it asks whether z lies off the real axis.
    math.hypot gives inf where abs raises, past the float range.
    """
    size = DEDUPE_TOL * math.hypot(z.real, z.imag)
    return all(math.hypot(z.real - k.real, z.imag - k.imag) > size for k in kept)


def _keep_new(z, kept):
    """Append z, folded onto Im >= 0, to `kept` when it is `_is_new`; return whether it was."""
    z = z.conjugate() if z.imag < 0 else z
    new = _is_new(z, kept)
    if new:
        kept.append(z)
    return new


def _dedupe(roots):
    """`roots` sorted, less each one within DEDUPE_TOL |s| of a root kept before it."""
    kept = []
    for r in sorted(roots, key=lambda r: (r.value.real, r.value.imag)):
        if _is_new(r.value, [k.value for k in kept]):
            kept.append(r)
    return kept


def _polish(p: FracPoly, points):
    """A few Newton steps on the original polynomial; the true roots, folded onto Im >= 0.

    Each point is polished on its own in scalar arithmetic (`evaluate_terms`),
    and a power past the float range drops it.  The steps stop, for at most
    12, when the next one is a few ulps of |s|, |P| <= 4 eps |s P'|, or when P
    is at its own rounding, |P| <= eps sum |c_k| |s|^e_k.  Returns RootResults
    whose residual is |P| at the root kept: the value its acceptance test
    read.  A root not `_is_new` against its real part is put on it when its
    real part passes the same residual test; so no root goes onto s = 0,
    which `_zero_is_root` decides exactly (P may not be defined there).
    """
    scale = _residual_scale(p)
    out = []
    for z in points:
        s = complex(z)
        try:
            # a point at s = 0 stops at once (P' = 0) or raises (a negative exponent)
            value, slope, size = evaluate_terms(p, s)
            for _ in range(12):
                if abs(value) <= _EPS * max(4.0 * abs(slope), size) or slope == 0:
                    break
                s -= value * s / slope
                value, slope, size = evaluate_terms(p, s)
            if s == 0 or not cmath.isfinite(s):
                continue
            # a sum past the float range is no root
            bound = max(scale, NEWTON_TOL * size)
            if not abs(value) <= bound < math.inf:
                continue
            if s.imag and not _is_new(s, (s.real,)):
                on_axis = evaluate_terms(p, complex(s.real, 0.0))[0]
                if abs(on_axis) <= bound:
                    s, value = complex(s.real, 0.0), on_axis
        except ArithmeticError:  # a power past the float range: no root there
            continue
        out.append(RootResult(s if s.imag >= 0 else s.conjugate(), abs(value)))
    return out


@functools.lru_cache(maxsize=None)  # n is _COUNT_MIN_SAMPLES times a power of 2
def _count_template(n):
    """(weights, phases) of the count's 2n + 1 sample logs, both read-only.

    Sample k lies at log s = weights[k] @ (log R0, log eps - log R0) + phases[k]:
    n samples on the arc |s| = R0 at angles evenly spaced over [0, pi], n
    down the cut's upper side from R0 to eps, evenly spaced in log |s|, and
    last s = eps itself.
    """
    t = np.linspace(0.0, 1.0, n)
    weights = np.ones((2 * n + 1, 2))
    weights[:n, 1] = 0.0
    weights[n:-1, 1] = t
    phases = np.concatenate([1j * math.pi * t, np.full(n, 1j * math.pi), [0j]])
    return _read_only(weights), _read_only(phases)


def _search_template():
    """(weights, phases) of the logs one Newton search evaluates at, both read-only.

    Row k lies at log s = weights[k] @ (log R0, log eps - log R0, log lo,
    log hi - log lo) + phases[k], where lo and hi are eps and R0 clamped to
    [1e-4, 1e6].  The first 2 _COUNT_MIN_SAMPLES + 1 rows are the count's
    first samples (`_count_template`); the rest are the starts, ring by ring
    from lo to hi, at the _THETAS of the _ANGLES.
    """
    count_weights, count_phases = _count_template(_COUNT_MIN_SAMPLES)
    n = count_weights.shape[0]
    weights = np.zeros((n + _RINGS.size * _ANGLES.size, 4))
    weights[:n, :2] = count_weights
    weights[n:, 2] = 1.0
    weights[n:, 3] = np.repeat(_RINGS, _ANGLES.size)
    phases = np.concatenate([count_phases, np.tile(1j * _THETAS, _RINGS.size)])
    return _read_only(weights), _read_only(phases)


_SEARCH_WEIGHTS, _SEARCH_PHASES = _search_template()


def _bounds(coeffs, expts):
    """(log R0, log eps): every root s != 0 of sum coeffs * s^expts lies in eps < |s| < R0.

    The exponents are normalized: descending, the smallest 0, at least two
    of them.  Outside R0 the leading term outweighs all others together;
    inside eps the terms above the constant c0 sum to less than |c0| / 2.
    """
    mags = np.abs(coeffs)
    # np.log: a coefficient ratio that underflows to 0 gives -inf, where math.log raises
    log_radius = math.log(2.0) + max(
        0.0, np.log(mags[1:].sum() / mags[0]) / (expts[0] - expts[1]))
    log_eps = math.log(0.5) + min(
        0.0, np.log(mags[-1] / (2.0 * mags[:-1].sum())) / expts[-2])
    return log_radius, log_eps


def _root_count(coeffs, expts, log_radius, log_eps, samples=None):
    """Number of principal-sheet roots s != 0 of sum coeffs * s^expts, or None.

    The exponents are normalized, and (log_radius, log_eps) are its `_bounds`.
    Argument principle on a keyhole contour: the circle |s| = R0, both sides
    of the cut along the negative real axis down to |s| = eps, and the
    circle |s| = eps.  The coefficients are real, so the upper half of the
    contour turns the phase by pi per root.  `samples`, when given, is P at
    the first 2 _COUNT_MIN_SAMPLES + 1 points of `_count_template`; else
    they are evaluated here.  The samples double until every phase step is
    below pi / 4; None when that fails by _COUNT_MAX_SAMPLES, as it does
    for a root on the cut, or when a bound is infinite.
    """
    if not expts[0] * max(log_radius, -log_eps) <= 600.0:  # s^q would overflow
        return None
    n = _COUNT_MIN_SAMPLES
    while True:
        if samples is None:
            weights, phases = _count_template(n)
            logs = weights @ (log_radius, log_eps - log_radius) + phases
            samples = np.exp(np.outer(logs, expts)) @ coeffs
        values, p_eps = samples[:-1], samples[-1]  # p_eps is near c0
        if not (np.isfinite(values) & (values != 0)).all():
            return None
        steps = np.angle(values[1:] / values[:-1])
        if np.abs(steps).max() < math.pi / 4:
            break
        n *= 2
        if n > _COUNT_MAX_SAMPLES:
            return None
        samples = None
    # the small circle stays within |c0| / 2 of c0: its turn is the principal angle
    turn = (steps.sum() + np.angle(p_eps / values[-1])) / math.pi
    count = round(turn)
    return count if abs(turn - count) < 0.25 else None


def _newton_run(pn: FracPoly, scale_n, s, limit):
    """(point or None, resolved, evaluations) of scalar Newton on `pn` from `s`.

    Newton runs in float arithmetic for at most MAX_ITER iterations, each one
    call of `evaluate_terms`.  It has converged when |P| is within NEWTON_TOL
    times the larger of `scale_n` and the size of its terms (if finite), and
    is dropped when its iterate leaves [1e-14, `limit`], when P' = 0 or when a
    power leaves the float range.  The point is resolved when its next
    Newton step, relative to |s|, |P / (s P')|, is below DEDUPE_TOL: the
    converged iterates of an ill-conditioned root (small |P'|) can lie
    further apart than DEDUPE_TOL |s|, and only resolved points fill a count.
    """
    try:
        for evaluations in range(1, MAX_ITER + 1):
            value, slope, size = evaluate_terms(pn, s)
            if abs(value) <= max(scale_n, NEWTON_TOL * size) < math.inf:
                return s, bool(slope) and abs(value / slope) < DEDUPE_TOL, evaluations
            if not slope:
                break
            s -= s * value / slope
            if not 1e-14 <= abs(s) <= limit:  # also a non-finite s
                break
    except ArithmeticError:  # a power past the float range: no root there
        pass
    return None, False, evaluations


def _log_warning(message, *args):
    """Warn on logging.getLogger("fracreg"), silent until the application sets up logging.

    logging is imported on the first warning, not with the package: the
    import costs ~7 ms and ~0.5 MB on every run that never warns.
    """
    import logging

    logger = logging.getLogger("fracreg")
    if not logger.handlers:
        logger.addHandler(logging.NullHandler())  # keeps logging's last-resort stderr output off
    logger.warning(message, *args)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton_search(p: FracPoly, pn: FracPoly):
    """(roots, count, record): `p`'s Newton roots, as RootResults, its count, its SearchRecord.

    `pn` is `normalize(p)`.  Everything the search reads before its Newton
    runs comes from one numpy evaluation at the logs of `_search_template`:
    exp(outer(log s, e)) @ [c | c e] gives the count's first samples and
    P and s P' at the starts.  The starts lie on the _RINGS, spaced
    geometrically from eps to R0 with both clamped to [1e-4, 1e6], at the
    _ANGLES; those at 0 and pi reach real roots and roots by the cut.  A
    count of 0 needs no search.  Otherwise the starts are ranked by their
    Newton step |P / (s P')|, a non-finite step last, and one pass runs
    Newton (`_newton_run`) from each in that order; a start becomes a
    Python complex only when its run begins.  With a count, the pass keeps
    its resolved points that are new by `_is_new`, folded onto Im >= 0, and
    stops once they fill the count, a kept point more than DEDUPE_TOL |s|
    off the real axis counting twice; its distinct roots are kept when they
    match the count.  A fill is no proof, though: when they do not match,
    the pass goes on through every start left, as it does with no count.
    A count the distinct roots of every start do not match is logged, and a
    failed count is None.  Values past the float range drop their starts
    without a numpy warning.
    """
    terms = np.array([(c, c * e) for c, e in pn.terms], dtype=complex)  # [c | c e]
    coeffs = terms[:, 0]
    expts = np.array(pn.exponents, dtype=float)
    if expts.size < 2:  # c s^e has no root s != 0: a count of 0
        roots = _distinct_roots(p, [])
        return roots, len(roots), SearchRecord(0, 0, 0, "count 0")
    log_radius, log_eps = _bounds(coeffs, expts)
    # a bound may be astronomically large or small, or infinite
    log_lo, log_hi = (min(max(b, _LOG_START_RANGE[0]), _LOG_START_RANGE[1])
                      for b in (log_eps, log_radius))
    # an infinite bound fails the count's guard before it reads a sample; (0, 0) keeps
    # the starts' logs finite
    count_at = ((log_radius, log_eps - log_radius) if math.isfinite(log_radius - log_eps)
                else (0.0, 0.0))
    logs = _SEARCH_WEIGHTS @ (*count_at, log_lo, log_hi - log_lo) + _SEARCH_PHASES
    values = np.exp(np.outer(logs, expts)) @ terms
    n = 2 * _COUNT_MIN_SAMPLES + 1
    # the roots s != 0, all Newton on pn can find
    count = _root_count(coeffs, expts, log_radius, log_eps, values[:n, 0])
    if count == 0:
        roots = _distinct_roots(p, [])
        return roots, len(roots), SearchRecord(0, 0, 0, "count 0")
    scale_n = _residual_scale(pn)
    ranks = np.argsort(np.abs(values[n:, 0] / values[n:, 1]), kind="stable").tolist()
    rings = np.exp(log_lo + (log_hi - log_lo) * _RINGS).tolist()
    limit = 1e6 * rings[-1]  # an iterate past it has diverged
    runs, kept, filled, end = [], [], 0, "every start"
    for i in ranks:
        start = rings[i // _ANGLES.size] * _DIRECTIONS[i % _ANGLES.size]
        s, resolved, _ = run = _newton_run(pn, scale_n, start, limit)
        runs.append(run)
        if resolved and end == "every start" and count is not None and _keep_new(s, kept):
            filled += 1 + _is_new(kept[-1], (s.real,))  # a pair off the real axis counts twice
            if filled >= count:
                roots = _distinct_roots(p, [s for s, _, _ in runs if s is not None])
                if len(roots) == count + _zero_is_root(p):
                    end = "fill"
                    break
                end = "every start after a fill"  # the pass goes on through every start left
    else:  # no fill ended the pass
        roots = _distinct_roots(p, [s for s, _, _ in runs if s is not None])
    if count is not None:
        count += _zero_is_root(p)
        if len(roots) != count:
            _log_warning("newton-grid search found %d distinct roots where the argument "
                         "principle counts %d", len(roots), count)
    return roots, count, SearchRecord(len(runs), sum(r[1] for r in runs),
                                      sum(r[2] for r in runs), end)


def newton_roots(p: FracPoly):
    """Multi-start Newton search for the principal-sheet roots of `p`.

    Returns the roots deduplicated, conjugate-closed and sorted by real
    then imaginary part (see `_distinct_roots`).  Complete when their
    number matches the argument-principle count (see `_newton_search`).
    """
    return [r.value for r in _newton_search(p, normalize(p))[0]]


def _distinct_roots(p: FracPoly, points):
    """Polished, conjugate-closed RootResults from candidate points, sorted.

    The coefficients are real, so the finite points are folded onto Im >= 0
    and reduced before polishing: each is kept when it is new by `_is_new`
    against those kept before it.  `_dedupe` merges the polished roots, all
    on Im >= 0, by the same rule, and the conjugate of each non-real root is
    added with its residual.  The points are roots s != 0; the root s = 0,
    where P(0) = 0, is added exactly.
    """
    kept = []
    for z in filter(cmath.isfinite, points):
        _keep_new(z, kept)
    roots = _dedupe(_polish(p, kept))
    roots += [RootResult(r.value.conjugate(), r.residual) for r in roots if r.value.imag]
    if _zero_is_root(p):
        roots.append(RootResult(0j, 0.0))
    return sorted(roots, key=lambda r: (r.value.real, r.value.imag))


def commensurate_base(p: FracPoly):
    """Smallest m <= MAX_DENOMINATOR with all exponents multiples of 1/m.

    An exponent e counts as one when e m is within 1e-9 m min(1, e) of an
    integer: relative to e below 1, so that a tiny e is not taken for 0.
    None also when the integer polynomial in s^(1/m) would have a degree
    above MAX_DEGREE: its companion matrix would cost too much.
    """
    expts = normalize(p).exponents
    for m in range(1, MAX_DENOMINATOR + 1):
        if not expts[0] * m <= MAX_DEGREE:  # the degree grows with m
            return None
        for e in expts:  # math.remainder: e m less the nearest integer; nan for a nan e
            if not abs(math.remainder(e * m, 1.0)) <= _COMMENSURATE_TOL * m * min(1.0, e):
                break
        else:
            return m
    return None


def commensurate_roots(p: FracPoly):
    """Complete principal-sheet root set via the w = s^(1/m) substitution.

    Returns None when no commensurate base m <= MAX_DENOMINATOR exists, when
    the degree would exceed MAX_DEGREE, or when the coefficient ratios of the
    companion matrix leave the float range.  Roots w of the integer
    polynomial map back as s = w^m only when |arg w| <= pi/m (the principal
    sheet).  Values past the float range give no numpy warning.
    """
    roots = _commensurate_search(p, normalize(p))
    return None if roots is None else [r.value for r in roots]


def _commensurate_search(p: FracPoly, pn: FracPoly):
    """`commensurate_roots` as RootResults, or None; `pn` is `normalize(p)`."""
    m = commensurate_base(pn)
    if m is None:
        return None
    degrees = [round(e * m) for e in pn.exponents]
    poly = [0.0] * (degrees[0] + 1)
    for (c, _), d in zip(pn.terms, degrees):
        poly[degrees[0] - d] += c
    while len(poly) > 1 and not poly[-1]:  # a root w = 0, which is no root s != 0
        poly.pop()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = np.array(poly) / poly[0]
        if not np.isfinite(ratios).all():  # the companion matrix overflows
            return None
        # np.roots' companion matrix and its eigenvalues, less np.roots' Python prelude
        companion = np.eye(len(poly) - 1, k=-1)
        companion[:1] = -ratios[1:]
        w_roots = np.linalg.eigvals(companion)
        principal = (np.abs(w_roots) > 0) & (np.abs(np.angle(w_roots)) <= math.pi / m + 1e-12)
        points = (w_roots[principal] ** m).tolist()
    return _distinct_roots(p, points)


def classify_stability(roots, complete: bool):
    """The verdict of a root set.

    A root with Re s > 0, or at s = 0 exactly, makes it unstable.  Otherwise
    a root set known to be `complete` is stable, and so is an incomplete one
    unless it is empty, which is inconclusive.
    """
    if any(z.real > 0 or z == 0 for z in roots):
        return UNSTABLE
    return STABLE if complete or roots else INCONCLUSIVE


def find_roots(p: FracPoly) -> StabilityReport:
    """Locate principal-sheet roots and classify closed-loop stability.

    Prefers the complete commensurate method when the exponent set allows
    it, falling back to the multi-start Newton search otherwise.  A Newton
    root set whose size matches the root count is complete: its verdict is
    certain, with no coverage caveat.  So is an unstable verdict from the
    sign certificate: when the leading and constant coefficients of
    `normalize(p)` differ in sign, a root s > 0 exists whatever the roots
    found.
    """
    pn = normalize(p)
    if len(pn.terms) < 2:
        raise ValueError("need at least two terms after normalization")
    if not all(map(math.isfinite, pn.coefficients)):
        raise ValueError("coefficients must be finite")
    roots = _commensurate_search(p, pn)
    if roots is not None:
        method, count, search = "commensurate", len(roots), None
    else:
        method = "newton-grid"
        roots, count, search = _newton_search(p, pn)
    # P is real on s > 0 and runs from c0 at s = 0 to the sign of the leading
    # coefficient at infinity: when they differ, a root s > 0 exists, found or not
    verdict = (UNSTABLE if (pn.coefficients[0] > 0) != (pn.coefficients[-1] > 0)
               else classify_stability([r.value for r in roots], count == len(roots)))
    return StabilityReport(roots=tuple(roots), verdict=verdict, method=method,
                           root_count=count, search=search)
