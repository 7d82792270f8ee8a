"""Pole-placement synthesis of PD^delta and PI^lambda controllers.

The proportional gain of the PD loop follows from the steady-state error
requirement, K = (100/e_ss - 1) a0.  The derivative pair then has a closed
form: Td s^delta = R at the pole, with R the rest of the characteristic
polynomial negated, is solved branch by branch (`_pd_branch_candidates`),
and the first branch whose residual is within tolerance is the design.
Only the PI^lambda placement needs an iterative solve: a damped Newton
iteration on the real/imaginary residuals with a central difference
Jacobian.  A successful design is not necessarily stable (negative
derivative orders can introduce extra right-half-plane poles); stability
is reported separately, never enforced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import eval_fracpoly
from .errors import NoSolutionError
from .model import PdController, PiController, Plant, char_poly_pd, char_poly_pi

__all__ = [
    "DesignSpecPd",
    "DesignSpecPi",
    "gain_from_ss_error",
    "design_pd_fractional",
    "design_pd_integer",
    "design_pi",
]

#: Acceptable characteristic residual, relative to a0 + K.
RESIDUAL_REL_TOL = 1e-8

_PI_LAMBDA_STARTS = (0.25, 0.5, 0.75, 1.0)
#: Newton iterations per start, and step halvings per iteration.
_NEWTON_MAX_ITER = 100
_NEWTON_MAX_HALVINGS = 30


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
        remaining = list(poles)
        while remaining:
            p = remaining.pop()
            if p.imag == 0:
                continue
            try:
                remaining.remove(p.conjugate())
            except ValueError:
                raise ValueError("pole multiset must be closed under conjugation")

    def residual_poles(self):
        """Poles contributing independent equations (one per conjugate pair)."""
        reps = []
        for p in self.poles:
            if p.imag < 0 and p.conjugate() in self.poles:
                continue
            reps.append(p)
        return reps


def gain_from_ss_error(a0: float, ess_percent: float) -> float:
    """Proportional gain meeting a unit-step steady-state error in percent."""
    if not (0 < ess_percent < 100):
        raise ValueError(f"ess_percent must be in (0, 100), got {ess_percent}")
    if not a0 > 0:
        raise ValueError(f"a0 must be positive, got {a0}")
    return (100.0 / ess_percent - 1.0) * a0


def _damped_newton(func, x0, tol):
    """Newton with central-difference Jacobian and step halving.

    Iterates well past `tol` (down to a relative floor) so accepted
    solutions are machine-accurate, not just barely inside the
    acceptance band.  Returns (solution, residual_norm) or
    (None, best_residual_norm).
    """
    target = 1e-5 * tol
    x = np.asarray(x0, dtype=float)
    f = np.asarray(func(x), dtype=float)
    best = float(np.linalg.norm(f))
    best_x = x.copy()
    for _ in range(_NEWTON_MAX_ITER):
        norm = float(np.linalg.norm(f))
        if norm < best:
            best, best_x = norm, x.copy()
        if norm <= target:
            return x, norm
        n = len(x)
        jac = np.empty((n, n))
        for j in range(n):
            dx = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += dx
            xm[j] -= dx
            jac[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2 * dx)
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        for _ in range(_NEWTON_MAX_HALVINGS):
            x_new = x - step
            f_new = np.asarray(func(x_new), dtype=float)
            if np.all(np.isfinite(f_new)) and np.linalg.norm(f_new) < norm:
                x, f = x_new, f_new
                break
            step = step / 2
        else:
            break
    norm = float(np.linalg.norm(f))
    if norm < best:
        best, best_x = norm, x
    return (best_x, best) if best <= tol else (None, best)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _pd_branch_candidates(plant: Plant, K: float, pole: complex):
    """Closed-form (Td, delta) pairs solving Td s^delta = R at the pole.

    With R = -(a2 s^alpha + a1 s^beta + a0 + K) and theta = arg(pole),
    each branch delta = (arg R - {0, pi} + 2 pi n) / theta with matching
    Td = +-|R| / |s|^delta places the pair.  Pairs with a non-finite Td or
    delta (a pole whose argument underflows to 0, powers past the float
    range) are dropped, without a numpy warning.  The rest are ordered by
    |delta * theta|, so the branch with the derivative phase in
    (-pi/2, pi/2] comes first.
    """
    s = complex(pole)
    try:
        r = -(plant.a2 * s ** plant.alpha + plant.a1 * s ** plant.beta + plant.a0 + K)
    except OverflowError:  # a pole this far out leaves no branch in the float range
        return []
    if r == 0:
        return [(0.0, 1.0)]
    theta = np.angle(s)
    phi = np.angle(r)
    candidates = []
    for offset, sign in ((0.0, 1.0), (math.pi, -1.0)):
        for n in range(-2, 3):
            delta = (phi - offset + 2 * math.pi * n) / theta
            td = sign * abs(r) / abs(s) ** delta
            if math.isfinite(delta) and math.isfinite(td):
                candidates.append((td, delta))
    candidates.sort(key=lambda c: abs(c[1] * theta))
    return candidates


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def design_pd_fractional(spec: DesignSpecPd) -> PdController:
    """(Td, delta) placing the conjugate pair by the branch formula, K fixed by spec.

    The design is the first candidate of `_pd_branch_candidates` (smallest
    |delta * theta| first) whose characteristic residual at the pole is
    within RESIDUAL_REL_TOL * |a0 + K|.  A pole far out may take a
    candidate's powers past the float range; that only fails the
    candidate, so numpy's floating-point warnings are off.
    """
    K = spec.resolve_gain()
    plant, pole = spec.plant, spec.pole
    tol = RESIDUAL_REL_TOL * abs(plant.a0 + K)
    best = math.inf
    for td, delta in _pd_branch_candidates(plant, K, pole):
        ctrl = PdController(K=K, Td=float(td), delta=float(delta))
        # np.abs: inf past the float range, where abs() of a complex raises
        residual = np.abs(eval_fracpoly(char_poly_pd(plant, ctrl), pole))
        if residual <= tol:
            return ctrl
        best = min(best, residual)
    raise NoSolutionError(
        f"PD^delta design found no branch placing pole {pole}; best residual {best:.3g}")


def design_pd_integer(spec: DesignSpecPd) -> PdController:
    """Classical PD (delta = 1): the pole placement is linear in (K, Td)."""
    plant, pole = spec.plant, spec.pole
    try:
        base = (plant.a2 * pole ** plant.alpha + plant.a1 * pole ** plant.beta + plant.a0)
    except OverflowError:
        raise NoSolutionError(f"pole {pole} is past the float range for integer PD design")
    mat = np.array([[1.0, pole.real], [0.0, pole.imag]])
    rhs = -np.array([base.real, base.imag])
    try:
        K, Td = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise NoSolutionError(f"degenerate pole {pole} for integer PD design")
    return PdController(K=float(K), Td=float(Td), delta=1.0)


def _pi_seed(plant: Plant, reps, lam: float):
    """Least-squares (K, Ti) for a fixed lambda: the placement is linear.

    Returns (K, Ti, residual_norm); the residual ranks candidate lambda
    starting points, and is inf for a pole whose powers leave the float range.
    """
    rows, rhs = [], []
    for p in reps:
        s = complex(p)
        try:
            lhs = -(plant.a2 * s ** (plant.alpha + lam)
                    + plant.a1 * s ** (plant.beta + lam)
                    + plant.a0 * s ** lam)
        except OverflowError:
            return 0.0, 0.0, math.inf
        sl = s ** lam
        rows.append([sl.real, 1.0])
        rhs.append(lhs.real)
        if p.imag != 0:
            rows.append([sl.imag, 0.0])
            rhs.append(lhs.imag)
    mat = np.array(rows)[:3]
    vec = np.array(rhs)[:3]
    sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    resid = float(np.linalg.norm(mat @ sol - vec))
    return float(sol[0]), float(sol[1]), resid


@np.errstate(over="ignore", invalid="ignore")
def design_pi(spec: DesignSpecPi) -> PiController:
    """Solve for (K, Ti, lambda > 0) placing all three poles.

    For each lambda starting value (K, Ti) is seeded from the linear
    least-squares subproblem; starts are tried in order of increasing
    seed residual, so an exactly attainable lambda is recovered first.
    Iterates from an infeasible pole set may overflow; that only fails
    the start, so numpy's overflow and invalid-value warnings are off.
    """
    plant = spec.plant
    reps = spec.residual_poles()

    def residual(x):
        K, Ti, lam = x
        if lam <= 0:
            return [math.inf] * 3
        ctrl = PiController(K=K, Ti=Ti, lam=lam)
        poly = char_poly_pi(plant, ctrl)
        out = []
        for p in reps:
            v = eval_fracpoly(poly, p)
            out.append(v.real)
            if p.imag != 0:
                out.append(v.imag)
        return out[:3]

    seeds = []
    for lam0 in _PI_LAMBDA_STARTS:
        k0, ti0, resid = _pi_seed(plant, reps, lam0)
        seeds.append((k0, ti0, lam0, resid))
    seeds.sort(key=lambda t: t[3])
    best = math.inf
    for k0, ti0, lam0, _ in seeds:
        tol_guess = RESIDUAL_REL_TOL * abs(plant.a0 + k0)
        x, norm = _damped_newton(residual, (k0, ti0, lam0), tol_guess)
        if x is None:
            best = min(best, norm)
            continue
        K, Ti, lam = (float(v) for v in x)
        if lam <= 0:
            continue
        # full complex residual at every pole, scaled by the solved gain;
        # a negative real pole can leave a large imaginary part that the
        # three Newton equations never saw
        ctrl = PiController(K=K, Ti=Ti, lam=lam)
        poly = char_poly_pi(plant, ctrl)
        residuals = [abs(eval_fracpoly(poly, p)) for p in spec.poles]
        if max(residuals) <= RESIDUAL_REL_TOL * abs(plant.a0 + K):
            return ctrl
        best = min(best, max(residuals))
    raise NoSolutionError(
        f"PI^lambda design did not converge for poles {spec.poles}; "
        f"best residual {best:.3g}")
