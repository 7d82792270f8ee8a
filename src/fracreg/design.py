"""Pole-placement synthesis of PD^delta and PI^lambda controllers.

The proportional gain of the PD loop follows from the steady-state error
requirement, K = (100/e_ss - 1) a0.  The derivative pair then has a closed
form: Td s^delta = R at the pole, with R the rest of the characteristic
polynomial negated, is solved branch by branch (`_pd_branch_candidates`),
and the first branch whose residual is within tolerance is the design.
The PI^lambda placement scans one scalar function of lambda for its
zeros and refines them by a bracketed regula falsi (see `design_pi`); no
design runs Newton.  What sees only a few values at a time (both PD designs,
a bracket's refinement, the residual check at the poles) runs in float
arithmetic, not numpy.  A successful design is not necessarily stable
(negative derivative orders can introduce extra right-half-plane poles);
stability is reported separately, never enforced here.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .charpoly import evaluate_terms
from .errors import NoSolutionError
from .model import (MAX_GL_ORDER, PdController, PiController, Plant, char_poly_pd,
                    char_poly_pi)

__all__ = [
    "DesignSpecPd",
    "DesignSpecPi",
    "gain_from_ss_error",
    "design_pd_fractional",
    "design_pd_integer",
    "design_pi",
]

#: Acceptable characteristic residual at a pole, relative to the size of the
#: polynomial's terms there (see `_placed`).
RESIDUAL_REL_TOL = 1e-8

#: The fixed lambda lattice that `design_pi` scans D on: _PI_GRID_CELLS cells of
#: (0, 6 - alpha), each cut into _PI_SUBCELLS steps.
_PI_GRID_CELLS = 64
_PI_SUBCELLS = 8
#: The lattice steps `design_pi` evaluates D on at a time.
_PI_CHUNK = 256
#: Cap on the refinement steps; a bracket on a smooth D needs about five.
_PI_REFINE_STEPS = 100
#: The rounding floor of D, whose rows have unit norm: a zero of D to working precision.
_PI_DET_FLOOR = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class DesignSpecPd:
    """Conjugate pole pair placement for a PD^delta controller.

    Exactly one of `ess_percent` (steady-state error in percent) or
    `K_override` fixes the proportional gain; `design_pd_integer` solves
    for K itself and needs neither.
    """

    plant: Plant
    pole: complex
    ess_percent: float | None = None
    K_override: float | None = None

    def __post_init__(self):
        if self.pole.imag == 0:
            raise ValueError("pole must have nonzero imaginary part")
        if self.ess_percent is not None and self.K_override is not None:
            raise ValueError("give ess_percent or K_override, not both")

    def resolve_gain(self) -> float:
        if self.K_override is not None:
            return self.K_override
        if self.ess_percent is None:
            raise ValueError("PD design needs ess_percent or K_override")
        return gain_from_ss_error(self.plant.a0, self.ess_percent)


@dataclass(frozen=True)
class DesignSpecPi:
    """Three-pole placement for a PI^lambda controller."""

    plant: Plant
    poles: tuple

    def __post_init__(self):
        poles = tuple(complex(p) for p in self.poles)
        object.__setattr__(self, "poles", poles)
        if len(poles) != 3:
            raise ValueError(f"need exactly 3 poles, got {len(poles)}")
        # a real pole (Im p == 0) stands alone; a NaN part equals nothing, so it never pairs
        pairs = [p for p in poles if p.imag != 0]
        if Counter(pairs) != Counter(p.conjugate() for p in pairs):
            raise ValueError("pole multiset must be closed under conjugation")

    def residual_poles(self):
        """Poles contributing independent equations (one per conjugate pair)."""
        return [p for p in self.poles if p.imag >= 0]


def gain_from_ss_error(a0: float, ess_percent: float) -> float:
    """Proportional gain meeting a unit-step steady-state error in percent."""
    if not (0 < ess_percent < 100):
        raise ValueError(f"ess_percent must be in (0, 100), got {ess_percent}")
    if not a0 > 0:
        raise ValueError(f"a0 must be positive, got {a0}")
    return (100.0 / ess_percent - 1.0) * a0


def _pd_branch_candidates(plant: Plant, K: float, pole: complex):
    """Closed-form (Td, delta) pairs solving Td s^delta = R at the pole.

    With R = -(a2 s^alpha + a1 s^beta + a0 + K) and theta = arg(pole),
    each branch delta = (arg R - {0, pi} + 2 pi n) / theta with matching
    Td = +-|R| / |s|^delta places the pair.  A pole within rounding of the
    real axis (|Im s| <= eps |Re s|) has no branch: the pair is one real
    point to working precision, which the residual check cannot tell from a
    single real root (and near theta = 0, where arg R is known to about eps,
    delta would be undetermined).  The pairs are formed in float
    arithmetic, and those with a non-finite Td or delta (powers past the
    float range) are dropped.  The rest are ordered by |delta * theta|, so
    the branch with the derivative phase in (-pi/2, pi/2] comes first.
    """
    s = complex(pole)
    try:
        r = -(plant.a2 * s ** plant.alpha + plant.a1 * s ** plant.beta + plant.a0 + K)
    except OverflowError:  # a pole this far out leaves no branch in the float range
        return []
    if r == 0:
        return [(0.0, 1.0)]
    if abs(s.imag) <= math.ulp(1.0) * abs(s.real):
        return []
    theta, phi = cmath.phase(s), cmath.phase(r)
    candidates = []
    for offset, sign in ((0.0, 1.0), (math.pi, -1.0)):
        for n in range(-2, 3):
            delta = (phi - offset + 2 * math.pi * n) / theta
            try:
                td = sign * abs(r) / abs(s) ** delta
            except ArithmeticError:  # |s|^delta past the float range, or below it
                continue
            if math.isfinite(delta) and math.isfinite(td):
                candidates.append((td, delta))
    candidates.sort(key=lambda c: abs(c[1] * theta))
    return candidates


def _placed(poly, poles):
    """(placed, largest residual): whether |P(p)| is within tolerance at every pole.

    The tolerance at p is RESIDUAL_REL_TOL sum |c_k| |p|^e_k: the rounding
    of P(p) grows with the size of its terms, which a far pole makes large.
    A residual or a tolerance past the float range places nothing.
    """
    placed, largest = True, 0.0
    for p in poles:
        try:
            value, _, size = evaluate_terms(poly, p)
            residual = abs(value)
        except ArithmeticError:  # a power past the float range
            residual = size = math.inf
        placed = placed and residual <= RESIDUAL_REL_TOL * size < math.inf
        largest = max(largest, residual)
    return placed, largest


def design_pd_fractional(spec: DesignSpecPd) -> PdController:
    """(Td, delta) placing the conjugate pair by the branch formula, K fixed by spec.

    The design is the first candidate of `_pd_branch_candidates` (smallest
    |delta * theta| first) whose characteristic residual at the pole is
    within tolerance (`_placed`).  A pole far out may take a candidate's
    powers past the float range; that only fails the candidate.  Both the
    candidates and the check run in float arithmetic, so no numpy warning
    can arise.
    """
    K = spec.resolve_gain()
    plant, pole = spec.plant, spec.pole
    best = math.inf
    for td, delta in _pd_branch_candidates(plant, K, pole):
        ctrl = PdController(K=K, Td=td, delta=delta)
        placed, residual = _placed(char_poly_pd(plant, ctrl), [pole])
        if placed:
            return ctrl
        best = min(best, residual)
    raise NoSolutionError(
        f"PD^delta design found no branch placing pole {pole}; best residual {best:.3g}")


def design_pd_integer(spec: DesignSpecPd) -> PdController:
    """Classical PD (delta = 1): K + Td p = -base is linear in (K, Td), solved in floats."""
    plant, pole = spec.plant, spec.pole
    try:
        base = (plant.a2 * pole ** plant.alpha + plant.a1 * pole ** plant.beta + plant.a0)
    except OverflowError:
        raise NoSolutionError(f"pole {pole} is past the float range for integer PD design")
    Td = -base.imag / pole.imag  # Im pole != 0
    return PdController(K=-base.real - pole.real * Td, Td=Td, delta=1.0)


def _pi_equations(plant: Plant, reps):
    """Per-row constants of the three real placement equations, for `_pi_row`.

    A pole p with g = -G(p) gives the row of its real part and, off the real
    axis, the row of its imaginary part, Im z = Re(-i z).  A row holds
    (log p - k, f w, f g w, w_T, k, -log w): f is 1 or -i, k = log max(1, |p|),
    w = 1 / max(1, |g|), and w_T weighs Ti: w in a real part, 0 otherwise.
    """
    # numpy's power on purpose: at a far real pole G(p) is the difference of terms
    # 1e12 times larger, so it rests on the powers' last bits (Python's moved K by 2e-3)
    poles = np.array(reps, dtype=complex)
    gains = -(plant.a2 * poles ** plant.alpha + plant.a1 * poles ** plant.beta + plant.a0)
    if not (np.isfinite(np.abs(poles)).all() and np.isfinite(np.abs(gains)).all()):
        raise NoSolutionError(f"poles {reps} are past the float range for PI^lambda design")
    rows = []
    for p, g in zip(reps, gains.tolist()):
        # log|0| is taken as the log of the smallest float: p^lam underflows to 0 all the same
        log_p = complex(math.log(max(abs(p), 5e-324)), math.atan2(p.imag, p.real))
        k, w = max(log_p.real, 0.0), 1.0 / max(1.0, abs(g))
        rows.append((log_p - k, w, g * w, w, k, -math.log(w)))
        if p.imag != 0:
            rows.append((log_p - k, -1j * w, -1j * g * w, 0.0, k, -math.log(w)))
    return rows


def _pi_row(equation, lam):
    """Row [a | b | c] of a K + b Ti = c at one lambda, and the log of its scale.

    At a pole p the placement reads K p^lam + Ti = c = -p^lam G(p), with
    G(p) = a2 p^alpha + a1 p^beta + a0: the row [Re p^lam, 1, Re c] and, off
    the real axis, [Im p^lam, 0, Im c].  So that nothing overflows, the row
    is divided by max(1, |p|^lam) max(1, |G(p)|), whose log is returned too.
    """
    log_power, a_weight, c_weight, b_weight, k, m = equation
    z = cmath.exp(lam * log_power)
    return (z * a_weight).real, math.exp(-lam * k) * b_weight, (z * c_weight).real, lam * k + m


def _pi_terms(equations):
    """The `_pi_equations` rows as the arrays `_pi_columns` reads.

    (log p - k, -k, index, a_weight, b_weight, c_weight): the first two are
    P x 1 columns with one row per distinct pole p, since a pair's two rows
    share p^lam and k; `index` maps each equation row to its pole; the
    weights are 3 x 1 columns, row by equation.
    """
    poles = list(dict.fromkeys((log_power, k) for log_power, *_, k, _ in equations))
    index = [poles.index((log_power, k)) for log_power, *_, k, _ in equations]
    log_power, k = (np.array(column)[:, None] for column in zip(*poles))
    _, a_weight, c_weight, b_weight, *_ = (np.array(column)[:, None] for column in zip(*equations))
    return log_power, -k, index, a_weight, b_weight, c_weight


def _pi_columns(terms, lams):
    """The columns a, b, c of the three `_pi_row`s at every lambda of the array `lams`.

    `terms` is `_pi_terms` of the equations.  Each column is an array of
    shape (3, lams.size), row by lambda, formed in one numpy pass with one
    complex exponential per distinct pole.
    """
    log_power, minus_k, index, a_weight, b_weight, c_weight = terms
    z = np.exp(log_power * lams)[index]
    return (z * a_weight).real, np.exp(minus_k * lams)[index] * b_weight, (z * c_weight).real


def _unit_det(a, b, c):
    """(det, product of the squared row norms) of the 3 x 3 matrix with columns a, b, c.

    A cofactor expansion that floats and numpy arrays of them go through
    alike; det / sqrt(product) is D, the determinant of the rows scaled to
    unit norm.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    det = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    norms = ((a0 * a0 + b0 * b0 + c0 * c0) * (a1 * a1 + b1 * b1 + c1 * c1)
             * (a2 * a2 + b2 * b2 + c2 * c2))
    return det, norms


def _pi_det(equations, lam):
    """D at one lambda, in float arithmetic; nan where a row underflows to zero."""
    a, b, c, _ = zip(*(_pi_row(equation, lam) for equation in equations))
    det, norms = _unit_det(a, b, c)
    return det / math.sqrt(norms) if norms > 0 else math.nan


def _pi_root(equations, a, b, fa, fb):
    """The zero of D in the bracket [a, b], where fa = D(a) and fb = D(b) differ in sign.

    Anderson-Bjorck regula falsi: c replaces the end of its sign, and when
    that is the last point b, f(a) is scaled by 1 - f(c) / f(b) (or 1/2),
    for superlinear convergence.  It stops when |D(c)| is down to
    _PI_DET_FLOOR or c moved a few ulps; a nan D gives a nan root.
    """
    for _ in range(_PI_REFINE_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = _pi_det(equations, c)
        if math.isnan(fc):
            return math.nan
        if math.copysign(1.0, fc) != math.copysign(1.0, fb):
            a, fa = b, fb
        else:
            m = 1.0 - fc / fb
            fa *= m if m > 0 else 0.5
        c, b, fb = b, c, fc
        if abs(fb) <= _PI_DET_FLOOR or abs(b - c) <= 4 * math.ulp(b):
            break
    return b


@functools.lru_cache(maxsize=16)  # one lattice per plant order alpha in use
def _pi_lattice(top):
    """The lambda lattice of (0, top) that `design_pi` scans, ascending and read-only.

    _PI_GRID_CELLS cells of _PI_SUBCELLS steps each, and the two points a
    millionth of a cell from either end.
    """
    cell = top / _PI_GRID_CELLS
    lattice = cell * np.arange(1, _PI_GRID_CELLS * _PI_SUBCELLS) / _PI_SUBCELLS
    lams = np.concatenate([[1e-6 * cell], lattice, [top - 1e-6 * cell]])
    lams.flags.writeable = False
    return lams


def _pi_gains(equations, lam):
    """(K, Ti) solving the three rows at `lam` by least squares, each row at its pole's scale."""
    rows = [_pi_row(equation, lam) for equation in equations]
    top_scale = max(log_scale for *_, log_scale in rows)
    # each row at its own scale, as the residual check weighs the poles
    rows = np.array([[x * math.exp(log_scale - top_scale) for x in row]
                     for *row, log_scale in rows])
    (K, Ti), *_ = np.linalg.lstsq(rows[:, :2], rows[:, 2], rcond=None)
    return float(K), float(Ti)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def design_pi(spec: DesignSpecPi) -> PiController:
    """Solve for (K, Ti, 0 < lambda < 6 - alpha) placing all three poles.

    At a fixed lambda the three real equations of the residual poles (a
    pair's real and imaginary parts and a real pole's real part, or three
    real parts) are linear in (K, Ti).  They are consistent exactly where
    D(lambda), the determinant of their augmented rows (`_pi_row`) scaled
    to unit norm, vanishes.  D is scanned on a fixed lattice of (0, 6 -
    alpha), the orders `build_pi_model` takes (`_pi_lattice`), in ascending
    chunks of _PI_CHUNK steps, each evaluated in one numpy pass
    (`_pi_columns`, `_unit_det`) and sharing its last point with the next.
    Within a chunk the candidates are taken in ascending order: a lattice
    point with |D| at its rounding floor is a root as it stands, and a sign
    change between neighbouring points is refined, when the scan reaches
    it, in float arithmetic (`_pi_root`).  At each root, (K, Ti) solves the
    three rows by least squares (`_pi_gains`).  The design is the first,
    so the smallest, such lambda whose complex residual at every pole is
    within tolerance (`_placed`): for a negative real pole and a
    non-integer lambda, P(pole) is complex, so the spec is four real
    equations in three unknowns, and this check judges the fourth.  Values
    past the float range only fail their lambda, without numpy warnings.
    """
    plant, reps = spec.plant, spec.residual_poles()
    equations = _pi_equations(plant, reps)
    terms = _pi_terms(equations)
    top = 3.0 + MAX_GL_ORDER - plant.alpha  # build_pi_model needs 3 - alpha - lam > -MAX_GL_ORDER
    lams = _pi_lattice(top)
    best = math.inf
    for first in range(0, lams.size - 1, _PI_CHUNK):
        chunk = lams[first:first + _PI_CHUNK + 1]  # its last point is the next chunk's first
        det, norms = _unit_det(*_pi_columns(terms, chunk))
        values = det / np.sqrt(norms)
        floors = np.flatnonzero(np.abs(values) <= _PI_DET_FLOOR).tolist()
        crosses = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0).tolist()
        # a point at the floor comes before the sign change that starts at it; the shared
        # first point was the last chunk's last
        for i, refine in sorted([(i, False) for i in floors if i or not first]
                                + [(i, True) for i in crosses]):
            if refine:
                lam = _pi_root(equations, *chunk[i:i + 2].tolist(), *values[i:i + 2].tolist())
                if not math.isfinite(lam):  # a row that underflows to 0 gives nan
                    continue
            else:
                lam = chunk[i].item()
            K, Ti = _pi_gains(equations, lam)
            if not (math.isfinite(K) and math.isfinite(Ti)):  # a gain past the float range
                continue
            ctrl = PiController(K=K, Ti=Ti, lam=lam)
            # P(conj p) = conj P(p), so the residual poles stand for all three
            placed, residual = _placed(char_poly_pi(plant, ctrl), reps)
            if placed:
                return ctrl
            best = min(best, residual)
    raise NoSolutionError(f"PI^lambda design found no lambda in (0, {top:g}) placing poles "
                          f"{spec.poles}; best residual {best:.3g}")
