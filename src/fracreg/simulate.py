"""Time-domain solvers for the closed-loop fractional systems.

Two independent discretizations are provided on purpose:

* `simulate_state_space` integrates a StateModel with the explicit Euler
  scheme, every fractional right-hand-side term expanded as a GL sum.
* `simulate_direct` discretizes the scalar closed-loop differential
  equation itself, as `model.closed_loop` states it, isolating the newest
  sample from the j=0 terms of the GL sums.  It still shares no
  model-building code with the state-space path, whose builders do not
  read `closed_loop`, and serves as its oracle.

The two share only the GL primitives of `glcalc` and `_gl_kernels`, the
one place where (target, order, gain) terms become kernels: the terms of
one equation that act on the same series merge into one kernel, each
order's GL table is formed once per call, and an order-0 term is a
weight at lag 0 only.  The direct scheme builds both sides of its
equation in one call, so an order on both sides (delta, lambda) forms
one table.  `gl_convolve` serves series known in advance: the input's
share of every equation, which for a step or staircase reference is a few
shifted running sums of the input kernel, and the state-space output y,
which is never fed back and takes the FFT path.  `GlHistory` serves the
sums over the series being solved for.
One `GlHistory` serves each equation row: the PD^delta row with kernels
on x1 and x2 sums both products in the frequency domain and takes one
inverse FFT per square.

Both step _BLOCK = 64 samples at a time.  `GlHistory` hands over the sums
over lags >= _BLOCK for a whole block, which read only samples before it;
the lags below _BLOCK couple the samples of the block, and each simulator
solves them with its own small linear operator, formed once per run.  The
Euler scheme folds the near lags, their solve and the summing of the steps
into one propagator (`_euler_block`), so a block of states is one
matrix-vector product with the block's forcing and the 64 states before
it; the direct scheme takes a triangular Toeplitz solve with one
refinement step.  A run of n steps thus costs
n / 64 Python iterations plus the O(n log^2 n) work of the history sums:
direct convolutions for squares up to 256 samples wide, FFTs beyond, with
the kernel spectra of widths up to 1024 cached.  `memory_len` keeps its
exact short-memory meaning: every kernel is cut off after
floor(memory_len / step) + 1 weights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergedError, ResourceLimitError, SingularStepError
from .glcalc import _BLOCK, GlHistory, _truncation, gl_coefficients, gl_convolve
from .model import INPUT, Plant, StateModel, closed_loop

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
    raw = os.environ.get("FRACREG_MAX_STEPS")
    if raw is None:
        return _DEFAULT_MAX_STEPS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ConfigError(f"FRACREG_MAX_STEPS must be a positive integer, got {raw!r}")
    return cap


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
        if isinstance(self.input, StepInput):
            samples = np.array([self.input.amplitude], dtype=float)
        else:
            samples = np.asarray(self.input, dtype=float)
            # round(t_end / step) + 1 samples, compared before rounding: the
            # ratio may overflow to inf
            need = self.t_end / self.step + 1
            if samples.ndim != 1 or not len(samples) > need - 0.5:
                raise ValueError(f"explicit input has shape {samples.shape}, "
                                 f"need {need:.0f} samples")
        if not np.isfinite(samples).all():
            raise ValueError("input samples must be finite")

    @property
    def n_steps(self) -> int:
        cap = _max_steps()
        # the ratio is checked before it is rounded: it may be too large for an int
        ratio = self.t_end / self.step
        if ratio - 0.5 > cap:
            raise ResourceLimitError(
                f"{ratio:.3g} steps exceed the cap of {cap} (override with FRACREG_MAX_STEPS)"
            )
        return int(round(ratio))


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


def _gl_scale(gain: float, order: float, h: float) -> float:
    """gain * h^-order, the factor on a GL term's weights.

    Raises SingularStepError when it leaves the float range (a tiny step
    with a large order): the per-step solve cannot be formed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = gain * np.float64(h) ** -order
    if not np.isfinite(scale):
        raise SingularStepError(f"step {h:.3g} is too small for GL order {order:g}: "
                                f"gain * h^-order = {scale:.3g}")
    return float(scale)


def _gl_kernels(terms, h: float, n_mem: int) -> dict:
    """{target: kernel} of (target, order, gain) terms, n_mem + 1 GL weights at most.

    Each term adds gain * h^-order times the GL weights of its order, and
    the weights of one order are formed once per call.  An order-0 term
    adds its gain to weight 0 only, so a target with no other term gets a
    one-weight kernel.  The tables are dropped on return, before the
    history sums and convolutions need their memory.
    """
    tables = {0: np.ones(1)}
    kernels = {}
    for target, order, gain in terms:
        if order not in tables:
            tables[order] = gl_coefficients(order, n_mem).coeffs
        weights = _gl_scale(gain, order, h) * tables[order]
        kernel = kernels.setdefault(target, weights)
        if kernel is not weights:
            if len(kernel) < len(weights):
                kernel, weights = weights, kernel
            kernel[:len(weights)] += weights
            kernels[target] = kernel
    return kernels


def _input_samples(cfg: SimConfig, n: int) -> np.ndarray:
    if isinstance(cfg.input, StepInput):
        return np.full(n + 1, cfg.input.amplitude)
    return np.asarray(cfg.input, dtype=float)[: n + 1]


def simulate_state_space(model: StateModel, cfg: SimConfig) -> Trajectory:
    """Explicit Euler integration of a StateModel from zero initial state."""
    h = cfg.step
    n = cfg.n_steps
    w = _input_samples(cfg, n)
    n_mem = _truncation(n, h, cfg.memory_len)
    x = np.zeros((model.dim, n + 1))

    def equations():
        """(near, rows) of the state equations for `_block_steps`.

        near[j][row, target] is the weight of x[target][k - j] in the
        right-hand side of `row` at step k, j < _BLOCK.  Each row with more
        than that gets (row, share, history): the input is known in advance,
        so its share is formed once (None if the row has no input term), and
        one online history covers the lags j >= _BLOCK of the row's state
        kernels (None if none reaches that far).
        """
        near = np.zeros((_BLOCK, model.dim, model.dim))
        rows = []
        for row, terms in enumerate(model.state_terms):
            kernels = _gl_kernels(terms, h, n_mem)
            # a share past the float range makes the states diverge at its
            # first step, which _block_steps reports
            share = gl_convolve(kernels.pop(INPUT), w) if INPUT in kernels else None
            for target, kernel in kernels.items():
                near[:min(_BLOCK, len(kernel)), row, target] += kernel[:_BLOCK]
            pairs = [(kernel, x[target]) for target, kernel in kernels.items()
                     if len(kernel) > _BLOCK]
            history = GlHistory(*pairs[0], *pairs[1:]) if pairs else None
            if share is not None or history is not None:
                rows.append((row, share, history))
        return near, rows

    # the history buffers are freed when _block_steps returns
    upto = _block_steps(x, *equations(), h, n)

    # y is never fed back, so it is formed from the finished series
    y = np.zeros(upto)
    for target, kernel in _gl_kernels(model.output_terms, h, n_mem).items():
        y += gl_convolve(kernel, (w if target == INPUT else x[target])[:upto])
    traj = Trajectory(step=h, states=tuple(x[:, :upto]), output=y, input=w[:upto])
    if upto <= n:
        bad = np.abs(x[:, upto])  # a NaN state reads as inf, where max() would give nan
        bad = bad.max() if np.isfinite(bad).all() else math.inf
        raise DivergedError(f"state magnitude {bad:.3g} at step {upto} (t={h * upto:.6g})",
                            index=upto, trajectory=traj)
    return traj


def _euler_block(near, h):
    """The propagator P = [A | C] of one block of Euler steps, (B*d) x (2*B*d).

    Step k evaluates g[k] = sum_{j<B} near[j] x[:, k-j] + f[k], where f is
    the input share plus the far history sums, and sets
    x[:, k+1] = x[:, k] + h g[k].  In the block of steps k = t..t+B-1 a
    state x[:, t+i] is x[:, t] + h (g[t] + ... + g[t+i-1]), so with f and
    v = x[:, t-B+1..t] flattened time-major, g solves

        (I - h N) g = carry @ v + f,

    N[m, i] = cum[m-1-i] for i < m, with cum[l] = near[0] + ... + near[l].
    carry[m, p] = near[m + B-1 - p] for m <= p < B-1 reaches back before
    the block, and its last column, x[:, t] itself, is cum[m].  The new
    states x[:, t+1..t+B] are then P @ [f; v], with

        A = h L (I - h N)^-1,   C = A @ carry + [0 ... 0 | I],

    L the block-lower-triangular ones, which sum the steps.  N is strictly
    block-lower and block-Toeplitz, so (I - h N)^-1 is block-Toeplitz too,
    its blocks from one forward substitution, and A is block-Toeplitz with
    h times the running sum of those blocks at each lag.  The leading b*d
    rows of P, read against the leading b*d entries of f, are the operator
    of the first b steps.
    """
    size, dim, _ = near.shape
    cum = np.cumsum(near, axis=0)
    flat = cum.transpose(1, 0, 2).reshape(dim, -1)  # [cum[0] cum[1] ...]
    rev = np.zeros_like(near)  # rev[size-1-k] is the inverse's block at lag k
    rev[-1] = np.eye(dim)
    for k in range(1, size):
        rev[-1 - k] = h * (flat[:, :k * dim] @ rev[-k:].reshape(-1, dim))
    # a block that grows past the float range does so only after the states
    # diverge, but a zero forcing must still give zero states, not 0 * inf
    np.nan_to_num(rev, copy=False)
    lagged = h * np.cumsum(rev[::-1], axis=0)[::-1]  # lagged[size-1-k] is A's block at lag k
    prop = np.zeros((size, dim, 2, size, dim))  # [A | C], row (m, i) to column (A or C, p, j)
    carry = np.zeros((size, dim, size, dim))
    for m in range(size):
        prop[m, :, 0, :m + 1] = lagged[size - 1 - m:].transpose(1, 0, 2)
        carry[m, :, m:size - 1] = near[size - 1:m:-1].transpose(1, 0, 2)
    carry[:, :, size - 1] = cum
    rows = prop.reshape(size * dim, 2, size * dim)
    np.matmul(rows[:, 0], carry.reshape(size * dim, -1), out=rows[:, 1])
    del carry
    prop[:, :, 1, size - 1] += np.eye(dim)  # x[:, t] itself starts every step
    np.nan_to_num(prop, copy=False)
    return prop.reshape(size * dim, -1)


def _block_steps(x, near, rows, h, n) -> int:
    """Explicit Euler steps k = 0..n-1; returns n + 1, or k + 1 once a state diverges.

    Each block of _BLOCK steps is one product of the propagator of
    `_euler_block` with [f; v]: f holds each row's one input share, formed
    before the run, and its far history sums, which read only states
    before the block, and v the states x[:, t-B+1..t].  No state is read after it diverges, so the
    products run with overflow ignored; one reduction checks each block,
    and only the block that fails it looks for its first bad step.
    """
    dim = len(x)
    size = _BLOCK * dim
    forcing = np.zeros(2 * size)  # [f; v], both time-major
    f, v = forcing[:size].reshape(_BLOCK, dim), forcing[size:].reshape(_BLOCK, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        prop = _euler_block(near, h)
        for t in range(0, n, _BLOCK):
            b = min(_BLOCK, n - t)
            f[:] = 0.0  # summed afresh each block; a short last block leaves zeros past b
            for row, share, history in rows:
                if share is not None:
                    f[:b, row] += share[t:t + b]
                if history is not None:
                    f[:b, row] += history.block(t)[:b]
            if t:  # before t = 0 the states are at rest
                v[:] = x[:, t - _BLOCK + 1:t + 1].T
            new = prop[:b * dim] @ forcing
            x[:, t + 1:t + b + 1] = new.reshape(b, dim).T
            if not np.abs(new).max() <= DIVERGENCE_LIMIT:  # a NaN fails it too
                finite = (np.abs(new.reshape(b, dim)) <= DIVERGENCE_LIMIT).all(axis=1)
                return t + 1 + int(np.argmin(finite))
    return n + 1


def simulate_direct(plant: Plant, ctrl, cfg: SimConfig) -> Trajectory:
    """GL discretization of the scalar closed-loop equation itself.

    Solves for the output _BLOCK samples at a time; produces no state
    trajectories, only y.
    """
    h = cfg.step
    n = cfg.n_steps
    w = _input_samples(cfg, n)
    n_mem = _truncation(n, h, cfg.memory_len)

    y_terms, w_terms = closed_loop(plant, ctrl)
    # one call for both sides, so an order on both (delta, lambda) forms one table
    kernels = _gl_kernels([("y", q, c) for c, q in y_terms]
                          + [(INPUT, q, c) for c, q in w_terms], h, n_mem)
    kernel = kernels["y"]
    pivot = kernel[0]  # j=0 weights are all 1
    if abs(pivot) <= 1e-14 * max(abs(_gl_scale(c, q, h)) for c, q in y_terms):
        raise SingularStepError(f"leading GL weights sum to {pivot:.3g}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed drive diverges at once
        drive = gl_convolve(kernels.pop(INPUT), w)
    near = np.zeros(_BLOCK)
    near[:min(_BLOCK, len(kernel))] = kernel[:_BLOCK]
    y = np.zeros(n + 1)
    history = GlHistory(kernel, y)

    # One block solves near * y = drive - far for u = y[t..t+B-1]: lags
    # within it form the lower-triangular Toeplitz matrix `lower` with the
    # pivot on its diagonal, and lags reaching back into v = y[t-B..t-1] the
    # strictly upper `upper`.  `inverse` is lower^-1, also Toeplitz, its first
    # column formed by forward substitution.  Near a singular pivot that
    # column overflows within the block, but only in rows past the output's
    # own divergence; clipped to the float range, a zero forcing still gives
    # a zero output.
    lags = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    lower, upper = np.tril(near[lags]), np.triu(near[lags], 1)
    first = np.zeros(_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        first[0] = 1.0 / pivot
        for k in range(1, _BLOCK):
            first[k] = -np.dot(near[1:k + 1], first[k - 1::-1]) / pivot
        inverse = np.tril(np.nan_to_num(first)[lags])
        for t in range(0, n + 1, _BLOCK):
            b = min(_BLOCK, n + 1 - t)
            r = drive[t:t + b] - history.block(t)[:b]
            if t:  # before t = 0 the output is at rest
                r -= upper[:b] @ y[t - _BLOCK:t]
            u = inverse[:b, :b] @ r
            finite = np.abs(u) <= DIVERGENCE_LIMIT
            diverged = not finite.all()
            if diverged:
                # the samples after the first bad one are not needed, and an
                # overflowed one would turn into NaN (0 * inf) in the refinement
                u[np.argmin(finite) + 1:] = 0.0
            # one refinement step brings u to the accuracy of per-sample substitution
            u += inverse[:b, :b] @ (r - lower[:b, :b] @ u)
            y[t:t + b] = u
            if diverged:
                k = t + int(np.argmin(finite))
                raise DivergedError(
                    f"output magnitude {abs(y[k]):.3g} at step {k} (t={h * k:.6g})",
                    index=k,
                    trajectory=Trajectory(step=h, states=(), output=y[:k].copy(),
                                          input=w[:k].copy()),
                )
    return Trajectory(step=h, states=(), output=y, input=w)


def steady_state_estimate(traj: Trajectory, window: float):
    """(mean, max-min) of the output over the trailing window in seconds."""
    if not 0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window}")
    duration = (len(traj.output) - 1) * traj.step
    if window > duration:
        raise ValueError(f"window {window}s exceeds trajectory duration {duration}s")
    n_w = max(1, int(round(window / traj.step)))
    tail = traj.output[-(n_w + 1):]
    return float(np.mean(tail)), float(np.max(tail) - np.min(tail))
