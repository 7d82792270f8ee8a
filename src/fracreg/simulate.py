"""Time-domain solvers for the closed-loop fractional systems.

Two independent discretizations are provided on purpose:

* `simulate_state_space` integrates a StateModel with the explicit Euler
  scheme, every fractional right-hand-side term expanded as a GL sum.
* `simulate_direct` discretizes the scalar closed-loop differential
  equation itself, isolating the newest sample from the j=0 terms of the
  GL sums.  It shares no model-building code with the state-space path
  and serves as its oracle.

The two share only the GL history primitive of `glcalc`: `gl_convolve`
for series known in advance (the input's share of every equation, and
the state-space output y, which is never fed back) and `GlHistory` for
the sums over the series being solved for.  Terms of one equation that
act on the same series are merged into one kernel first.  A full-memory
run of n steps costs O(n log^2 n).  `memory_len` keeps its exact
short-memory meaning: every kernel is cut off after
floor(memory_len / step) + 1 weights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, ResourceLimitError, SingularStepError
from .glcalc import GlHistory, _truncation, gl_coefficients, gl_convolve
from .model import INPUT, PdController, PiController, Plant, StateModel

__all__ = [
    "StepInput",
    "SimConfig",
    "Trajectory",
    "simulate_state_space",
    "simulate_direct",
    "steady_state_estimate",
]

#: Any state or output beyond this magnitude aborts the run as diverged.
DIVERGENCE_LIMIT = 1e12

_DEFAULT_MAX_STEPS = 10 ** 6


def _max_steps() -> int:
    return int(os.environ.get("FRACREG_MAX_STEPS", _DEFAULT_MAX_STEPS))


@dataclass(frozen=True)
class StepInput:
    """Step reference applied at t = 0 (zero before)."""

    amplitude: float = 1.0


@dataclass(frozen=True)
class SimConfig:
    step: float
    t_end: float
    memory_len: float | None = None
    input: object = field(default_factory=StepInput)

    def __post_init__(self):
        if not (0 < self.step <= 0.1):
            raise ValueError(f"step must be in (0, 0.1], got {self.step}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < 10 * self.step:
            raise ValueError("t_end must cover at least 10 steps")
        if self.memory_len is not None and not (0 < self.memory_len < math.inf):
            raise ValueError(f"memory_len must be positive and finite, got {self.memory_len}")

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.step))
        if n > _max_steps():
            raise ResourceLimitError(
                f"{n} steps exceed the cap of {_max_steps()} "
                "(override with FRACREG_MAX_STEPS)"
            )
        return n


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: states (one array per state, may be empty), output, input."""

    step: float
    states: tuple
    output: np.ndarray
    input: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.output))

    @property
    def duration(self) -> float:
        return (len(self.output) - 1) * self.step


def _input_samples(cfg: SimConfig, n: int) -> np.ndarray:
    if isinstance(cfg.input, StepInput):
        return np.full(n + 1, cfg.input.amplitude)
    w = np.asarray(cfg.input, dtype=float)
    if len(w) < n + 1:
        raise ValueError(f"explicit input has {len(w)} samples, need {n + 1}")
    return w[: n + 1]


def simulate_state_space(model: StateModel, cfg: SimConfig) -> Trajectory:
    """Explicit Euler integration of a StateModel from zero initial state."""
    h = cfg.step
    n = cfg.n_steps
    w = _input_samples(cfg, n)
    n_mem = _truncation(n, h, cfg.memory_len)
    x = np.zeros((model.dim, n + 1))

    def series(target):
        return w if target == INPUT else x[target]

    def split(terms):
        """Summed order-0 gains and one merged GL kernel, per target."""
        scalars, kernels = {}, {}
        for t in terms:
            if t.order == 0:
                scalars[t.target] = scalars.get(t.target, 0.0) + t.gain
            else:
                weights = t.gain * h ** (-t.order) * gl_coefficients(t.order, n_mem).coeffs
                if t.target in kernels:
                    kernels[t.target] += weights
                else:
                    kernels[t.target] = weights
        return scalars, kernels

    def equation(row, terms):
        """(row, (series, gain) pairs read at the current step, history sums).

        The input is known in advance, so its fractional share is convolved
        once.  The j = 0 weight of a state kernel multiplies the state's
        current sample like an order-0 gain; an online history sum covers
        its lags j >= 1.
        """
        scalars, kernels = split(terms)
        current = [(series(target), c) for target, c in scalars.items()]
        if INPUT in kernels:
            current.append((gl_convolve(kernels.pop(INPUT), w), 1.0))
        current += [(x[target], kernel[0]) for target, kernel in kernels.items()]
        return row, current, [GlHistory(kernel, x[target]) for target, kernel in kernels.items()]

    # the history buffers are freed when _euler_steps returns
    upto = _euler_steps([equation(row, terms) for row, terms in zip(x, model.state_terms)],
                        h, n)

    # y is never fed back, so it is formed from the finished series
    scalars, kernels = split(model.output_terms)
    y = np.zeros(upto)
    for target, c in scalars.items():
        y += c * series(target)[:upto]
    for target, kernel in kernels.items():
        y += gl_convolve(kernel, series(target)[:upto])
    traj = Trajectory(step=h, states=tuple(x[:, :upto]), output=y, input=w[:upto])
    if upto <= n:
        bad = np.max(np.abs(x[:, upto]))
        raise DivergedError(f"state magnitude {bad:.3g} at step {upto} (t={h * upto:.6g})",
                            index=upto, trajectory=traj)
    return traj


def _euler_steps(eqs, h, n) -> int:
    """Explicit Euler steps k = 0..n-1; returns n + 1, or k + 1 once a state diverges."""
    for k in range(n):
        finite = True
        for row, current, sums in eqs:
            rhs = 0.0
            for ser, c in current:
                rhs += c * ser[k]
            for history in sums:
                rhs += history(k)
            row[k + 1] = value = row[k] + h * rhs
            finite = finite and abs(value) <= DIVERGENCE_LIMIT
        if not finite:
            return k + 1
    return n + 1


def _direct_terms(plant: Plant, ctrl):
    """(output-side, input-side) lists of (coeff, derivative order)."""
    if isinstance(ctrl, PdController):
        y_terms = [
            (plant.a2, plant.alpha),
            (plant.a1, plant.beta),
            (ctrl.Td, ctrl.delta),
            (plant.a0 + ctrl.K, 0.0),
        ]
        w_terms = [(ctrl.K, 0.0), (ctrl.Td, ctrl.delta)]
    elif isinstance(ctrl, PiController):
        y_terms = [
            (plant.a2, plant.alpha + ctrl.lam),
            (plant.a1, plant.beta + ctrl.lam),
            (plant.a0 + ctrl.K, ctrl.lam),
            (ctrl.Ti, 0.0),
        ]
        w_terms = [(ctrl.K, ctrl.lam), (ctrl.Ti, 0.0)]
    else:
        raise TypeError(f"unsupported controller type {type(ctrl).__name__}")
    return y_terms, w_terms


def simulate_direct(plant: Plant, ctrl, cfg: SimConfig) -> Trajectory:
    """GL discretization of the scalar closed-loop equation itself.

    Solves for the newest output sample at every step; produces no state
    trajectories, only y.
    """
    h = cfg.step
    n = cfg.n_steps
    w = _input_samples(cfg, n)
    n_mem = _truncation(n, h, cfg.memory_len)

    y_terms, w_terms = _direct_terms(plant, ctrl)
    y_scales = [c * h ** (-q) for c, q in y_terms]
    pivot = sum(y_scales)  # j=0 weights are all 1
    if abs(pivot) <= 1e-14 * max(abs(scale) for scale in y_scales):
        raise SingularStepError(f"leading GL weights sum to {pivot:.3g}")

    drive = gl_convolve(sum(c * h ** (-q) * gl_coefficients(q, n_mem).coeffs
                            for c, q in w_terms), w)
    y = np.zeros(n + 1)
    history = GlHistory(sum(scale * gl_coefficients(q, n_mem).coeffs
                            for scale, (_, q) in zip(y_scales, y_terms)), y)
    for k in range(n + 1):
        y[k] = value = (drive[k] - history(k)) / pivot
        if not abs(value) <= DIVERGENCE_LIMIT:
            raise DivergedError(
                f"output magnitude {abs(value):.3g} at step {k} (t={h * k:.6g})",
                index=k,
                trajectory=Trajectory(step=h, states=(), output=y[:k].copy(),
                                      input=w[:k].copy()),
            )
    return Trajectory(step=h, states=(), output=y, input=w)


def steady_state_estimate(traj: Trajectory, window: float):
    """(mean, max-min) of the output over the trailing window in seconds."""
    if window > traj.duration:
        raise ValueError(f"window {window}s exceeds trajectory duration {traj.duration}s")
    n_w = max(1, int(round(window / traj.step)))
    tail = traj.output[-(n_w + 1):]
    return float(np.mean(tail)), float(np.max(tail) - np.min(tail))
