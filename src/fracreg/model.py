"""Plants, controllers, state-space models and characteristic polynomials.

The plant is G_s(s) = 1 / (a2 s^alpha + a1 s^beta + a0) in unity feedback
with either a PD^delta controller G_r(s) = K + Td s^delta or a PI^lambda
controller G_r(s) = K + Ti s^(-lambda).  Builders produce a state-space
model whose right-hand sides are sums of fractional derivatives of the
states and the input.  The closed-loop equation is stated once, by
`closed_loop`; its output side is the characteristic polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .errors import UnsupportedOrderError

__all__ = [
    "INPUT",
    "Term",
    "Plant",
    "PdController",
    "PiController",
    "StateModel",
    "FracPoly",
    "build_pd_model",
    "build_pi_model",
    "closed_loop",
    "char_poly_pd",
    "char_poly_pi",
]

#: Term target marking the reference input w(t).
INPUT = "w"

#: Absolute tolerance for merging equal exponents in FracPoly.
EXPONENT_MERGE_TOL = 1e-12

#: Supported range of GL derivative orders inside a StateModel.
MAX_GL_ORDER = 3.0


class Term(NamedTuple):
    """One additive term gain * D^order applied to a state or the input."""

    target: Union[int, str]  # state index, or INPUT
    order: float
    gain: float


def _check_finite(**kwargs):
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Plant:
    """Fractional-order plant 1 / (a2 s^alpha + a1 s^beta + a0)."""

    a0: float
    a1: float
    a2: float
    alpha: float
    beta: float

    def __post_init__(self):
        _check_finite(a0=self.a0, a1=self.a1, a2=self.a2, alpha=self.alpha, beta=self.beta)
        if self.a2 == 0:
            raise ValueError("a2 must be nonzero")
        if not (self.alpha > self.beta >= 0):
            raise ValueError(f"need alpha > beta >= 0, got alpha={self.alpha}, beta={self.beta}")
        if self.alpha > MAX_GL_ORDER:
            raise ValueError(f"alpha={self.alpha} above supported range (<= {MAX_GL_ORDER})")


@dataclass(frozen=True)
class PdController:
    """PD^delta controller K + Td s^delta.  Negative Td/delta are allowed."""

    K: float
    Td: float
    delta: float

    def __post_init__(self):
        _check_finite(K=self.K, Td=self.Td, delta=self.delta)


@dataclass(frozen=True)
class PiController:
    """PI^lambda controller K + Ti s^(-lam), lam > 0."""

    K: float
    Ti: float
    lam: float

    def __post_init__(self):
        _check_finite(K=self.K, Ti=self.Ti, lam=self.lam)
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")


@dataclass(frozen=True)
class StateModel:
    """First-derivative state equations with fractional terms on the right.

    xdot_i = sum of state_terms[i] for each of the `dim` states; y = sum of output_terms.
    """

    dim: int = field(init=False)
    state_terms: tuple
    output_terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.state_terms))
        if self.dim not in (2, 3):
            raise ValueError(f"need 2 or 3 state equations, got {self.dim}")
        for term in self._all_terms():
            if not (-MAX_GL_ORDER < term.order < MAX_GL_ORDER):
                raise UnsupportedOrderError(
                    f"GL order {term.order} outside supported range (+-{MAX_GL_ORDER})"
                )
            _check_finite(gain=term.gain)
            if term.target != INPUT and not (0 <= term.target < self.dim):
                raise ValueError(f"bad term target {term.target!r}")

    def _all_terms(self):
        for eq in self.state_terms:
            yield from eq
        yield from self.output_terms


@dataclass(frozen=True)
class FracPoly:
    """Sum of coeff * s^exponent terms, exponents strictly decreasing."""

    terms: tuple

    def __post_init__(self):
        exps = [e for _, e in self.terms]
        if not all(math.isfinite(e) for e in exps):
            raise ValueError(f"exponents must be finite, got {exps}")
        if any(e1 <= e2 for e1, e2 in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly decreasing")
        if any(c == 0 for c, _ in self.terms):
            raise ValueError("zero coefficients must be dropped")

    @classmethod
    def from_terms(cls, pairs) -> "FracPoly":
        """Canonicalize: merge like exponents, drop zeros, sort descending."""
        merged = []  # list of [coeff, exponent], sorted descending
        for coeff, exponent in sorted(pairs, key=lambda t: -t[1]):
            if merged and abs(merged[-1][1] - exponent) <= EXPONENT_MERGE_TOL:
                merged[-1][0] += coeff
            else:
                merged.append([coeff, exponent])
        return cls(terms=tuple((c, e) for c, e in merged if c != 0))

    @functools.cached_property
    def exponents(self):
        return tuple(e for _, e in self.terms)

    @functools.cached_property
    def coefficients(self):
        return tuple(c for c, _ in self.terms)


def build_pd_model(plant: Plant, ctrl: PdController) -> StateModel:
    """Two-state model of the PD^delta closed loop, led by its highest order.

    x1 is the plant output before controller weighting, x2 its first
    derivative; the output recombines them through the controller:
    y = K x1 + Td D^(delta-1) x2.  In the loop equation
    a2 D^alpha x1 + a1 D^beta x1 + Td D^delta x1 + (a0 + K) x1 = w, equal
    orders among alpha, beta and delta are merged and those whose
    coefficients sum to 0 dropped.  The x2 equation is divided by the
    coefficient c_L of the highest order L left:
    x2' = D^(2-L) (w - (a0 + K) x1) / c_L - sum over the other orders q of
    (c_q / c_L) D^(1+q-L) x2.  So every order on x2 is below 1: with
    delta > alpha, dividing by a2 would leave D^(1+delta-alpha) x2, on
    which explicit Euler diverges at every step size.
    """
    merged = {}
    for order, coeff in ((ctrl.delta, ctrl.Td), (plant.beta, plant.a1), (plant.alpha, plant.a2)):
        merged[order] = merged.get(order, 0.0) + coeff
    orders = {q: c for q, c in merged.items() if c != 0}
    if not orders:  # delta = alpha, Td = -a2 and a1 = 0: (a0 + K) x1 = w
        raise ValueError("the loop equation has no derivative term left")
    lead = max(orders)
    c_lead = orders.pop(lead)
    eq1 = (Term(1, 0.0, 1.0),)
    eq2 = (
        Term(0, 2 - lead, -(plant.a0 + ctrl.K) / c_lead),
        *(Term(1, 1 + q - lead, -c / c_lead) for q, c in orders.items()),
        Term(INPUT, 2 - lead, 1.0 / c_lead),
    )
    out = (Term(0, 0.0, ctrl.K), Term(1, ctrl.delta - 1, ctrl.Td))
    return StateModel(state_terms=(eq1, eq2), output_terms=out)


def build_pi_model(plant: Plant, ctrl: PiController) -> StateModel:
    """Three-state model of the PI^lambda closed loop.

    x1 integrates the control error (w - y), x2 is the output y and x3 its
    first derivative; `StateModel` rejects an order 3 - alpha - lam <= -3 on x1.
    """
    a0, a1, a2 = plant.a0, plant.a1, plant.a2
    alpha, beta = plant.alpha, plant.beta
    K, Ti, lam = ctrl.K, ctrl.Ti, ctrl.lam
    eq1 = (Term(1, 0.0, -1.0), Term(INPUT, 0.0, 1.0))
    eq2 = (Term(2, 0.0, 1.0),)
    eq3 = (
        Term(0, 3 - alpha - lam, Ti / a2),
        Term(1, 2 - alpha, -(a0 + K) / a2),
        Term(2, 1 + beta - alpha, -a1 / a2),
        Term(INPUT, 2 - alpha, K / a2),
    )
    out = (Term(1, 0.0, 1.0),)
    return StateModel(state_terms=(eq1, eq2, eq3), output_terms=out)


def closed_loop(plant: Plant, ctrl) -> tuple:
    """The closed-loop equation as (output side, input side) lists of (coeff, order).

    PD^delta: a2 D^alpha y + a1 D^beta y + Td D^delta y + (a0 + K) y
    = K w + Td D^delta w.  PI^lambda, multiplied through by s^lambda:
    a2 D^(alpha+lam) y + a1 D^(beta+lam) y + (a0 + K) D^lam y + Ti y
    = K D^lam w + Ti w.  The output side is the characteristic polynomial.
    """
    if isinstance(ctrl, PdController):
        y_terms = [
            (plant.a2, plant.alpha),
            (plant.a1, plant.beta),
            (ctrl.Td, ctrl.delta),
            (plant.a0 + ctrl.K, 0.0),
        ]
        return y_terms, [(ctrl.K, 0.0), (ctrl.Td, ctrl.delta)]
    if isinstance(ctrl, PiController):
        y_terms = [
            (plant.a2, plant.alpha + ctrl.lam),
            (plant.a1, plant.beta + ctrl.lam),
            (plant.a0 + ctrl.K, ctrl.lam),
            (ctrl.Ti, 0.0),
        ]
        return y_terms, [(ctrl.K, ctrl.lam), (ctrl.Ti, 0.0)]
    raise TypeError(f"unsupported controller type {type(ctrl).__name__}")


def char_poly_pd(plant: Plant, ctrl: PdController) -> FracPoly:
    """Closed-loop characteristic polynomial a2 s^a + a1 s^b + Td s^d + (a0+K)."""
    return FracPoly.from_terms(closed_loop(plant, ctrl)[0])


def char_poly_pi(plant: Plant, ctrl: PiController) -> FracPoly:
    """Closed-loop characteristic polynomial for the PI^lambda loop."""
    return FracPoly.from_terms(closed_loop(plant, ctrl)[0])
