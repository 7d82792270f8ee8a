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

Both step _BLOCK = 64 samples at a time.  Before each block, `GlHistory`
adds the sums over lags >= _BLOCK, which read only samples before it,
straight into an array the simulator owns: the state space's forcing, a
time-major array with one column per row that has an input share or a
history, pre-filled with the share; the direct scheme's drive, through
the negated kernel.  The lags below _BLOCK couple the samples of the
block, and each simulator solves them with its own small linear
operator, formed once per run.  The Euler scheme folds the near lags,
their solve and the summing of the steps into one propagator
(`_euler_block`, built from windows of one lag table), and keeps its
states time-major in one buffer with _BLOCK - 1 rest rows before sample
0, so a block of states is A @ f + C @ v over two contiguous windows,
the block's forcing and the 64 states before it, written straight into
that buffer; the direct scheme takes a triangular Toeplitz solve with one
refinement step.  One dot product, the block's sum of squares against
DIVERGENCE_LIMIT ** 2, screens each block for divergence, and only a
block that fails it is searched sample by sample.  A run of n steps thus
costs n / 64 Python iterations plus the O(n log^2 n) work of the history
sums: direct convolutions for squares up to 256 samples wide, FFTs
beyond, with each width's kernel spectra formed once while its squares
repeat.  `memory_len` keeps its exact short-memory meaning: every kernel
is cut off after floor(memory_len / step) + 1 weights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    # time-major states, x[k, i] = buffer[_BLOCK - 1 + k, i]: with the rest rows
    # before sample 0, every block reads its _BLOCK previous states as one window
    buffer = np.zeros((_BLOCK - 1 + n + 1, model.dim))
    x = buffer[_BLOCK - 1:]

    def equations():
        """(near, forced, forcing, histories) of the state equations for `_block_steps`.

        near[j][row, target] is the weight of x[k - j, target] in the
        right-hand side of `row` at step k, j < _BLOCK.  The rows that get
        more than that are `forced`, each with a column of the time-major
        `forcing`: the input is known in advance, so the column starts as its
        share, and the row's one online history adds the lags j >= _BLOCK of
        its state kernels into it.
        """
        rows = [_gl_kernels(terms, h, n_mem) for terms in model.state_terms]
        near = np.zeros((_BLOCK, model.dim, model.dim))
        for row, kernels in enumerate(rows):
            for target, kernel in kernels.items():
                if target != INPUT:
                    near[:min(_BLOCK, len(kernel)), row, target] += kernel[:_BLOCK]
        forced = [row for row, kernels in enumerate(rows)
                  if INPUT in kernels or any(len(kernel) > _BLOCK for kernel in kernels.values())]
        forcing = np.zeros((n + 1, len(forced)))
        histories = []
        for column, row in zip(forcing.T, forced):
            kernels = rows[row]
            if INPUT in kernels:
                # a share past the float range makes the states diverge at its
                # first step, which _block_steps reports
                column[:] = gl_convolve(kernels.pop(INPUT), w)
            pairs = [(kernel, x[:, target]) for target, kernel in kernels.items()
                     if len(kernel) > _BLOCK]
            if pairs:
                histories.append(GlHistory(column, *pairs[0], *pairs[1:]))
        return near, forced, forcing, histories

    # the forcing and the histories' cached spectra are freed when _block_steps
    # returns, before y's convolutions need their memory
    upto = _block_steps(buffer, *equations(), h, n)

    # y is never fed back, so it is formed from the finished series
    y = np.zeros(upto)
    for target, kernel in _gl_kernels(model.output_terms, h, n_mem).items():
        y += gl_convolve(kernel, (w if target == INPUT else x[:, target])[:upto])
    traj = Trajectory(step=h, states=tuple(x[:upto].T), output=y, input=w[:upto])
    if upto <= n:
        bad = np.abs(x[upto])  # a NaN state reads as inf, where max() would give nan
        bad = bad.max() if np.isfinite(bad).all() else math.inf
        raise DivergedError(f"state magnitude {bad:.3g} at step {upto} (t={h * upto:.6g})",
                            index=upto, trajectory=traj)
    return traj


def _euler_block(near, h):
    """The propagator P = [A | C] of one block of Euler steps, (B*d) x (2*B*d).

    Step k evaluates g[k] = sum_{j<B} near[j] x[k-j] + f[k], where f is
    the input share plus the far history sums, and sets
    x[k+1] = x[k] + h g[k].  In the block of steps k = t..t+B-1 a
    state x[t+i] is x[t] + h (g[t] + ... + g[t+i-1]), so with f and
    v = x[t-B+1..t] flattened time-major, g solves

        (I - h N) g = carry @ v + f,

    N[m, i] = cum[m-1-i] for i < m, with cum[l] = near[0] + ... + near[l].
    carry[m, p] = near[m + B-1 - p] for m <= p < B-1 reaches back before
    the block, and its last column, x[t] itself, is cum[m].  The new
    states x[t+1..t+B] are then P @ [f; v], with

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
    # one lag table holds block (m, p) of A and of the carry at index size-1 + (p - m):
    # lagged, then zeros (p > m), and zeros (p < m), then near reversed
    zeros = np.zeros((size - 1, dim, dim))
    table = np.stack([np.concatenate([lagged, zeros]), np.concatenate([zeros, near[::-1]])])
    table = table.transpose(0, 2, 1, 3).reshape(2, dim, -1)  # (A or carry, i, (index, j))
    # so row (m, i) of either is the window of its table row i that starts at index size-1-m
    windows = sliding_window_view(table, size * dim, axis=2)[:, :, (size - 1) * dim::-dim]
    prop = np.zeros((size, dim, 2, size, dim))  # [A | C], row (m, i) to column (A or C, p, j)
    prop[:, :, 0] = windows[0].transpose(1, 0, 2).reshape(size, dim, size, dim)
    carry = windows[1].transpose(1, 0, 2).reshape(size, dim, size, dim).copy()
    carry[:, :, size - 1] = cum
    rows = prop.reshape(size * dim, 2, size * dim)
    np.matmul(rows[:, 0], carry.reshape(size * dim, -1), out=rows[:, 1])
    del carry
    prop[:, :, 1, size - 1] += np.eye(dim)  # x[t] itself starts every step
    np.nan_to_num(prop, copy=False)
    return prop.reshape(size * dim, -1)


def _block_steps(buffer, near, forced, forcing, histories, h, n) -> int:
    """Explicit Euler steps k = 0..n-1; returns n + 1, or k + 1 once a state diverges.

    `buffer` holds the states time-major, x[k] at row _BLOCK - 1 + k, and
    `forcing` the forced rows' forcing time-major.  Each block of _BLOCK
    steps from t is A @ f + C @ v, the propagator [A | C] of `_euler_block`
    with A cut to the forced rows' columns: f = forcing[t:t + B] is each
    forced row's input share plus its far history sums, which the row's
    history adds in first and which read only states before the block, and
    v = x[t-B+1..t] = buffer[t:t + B].  Both are contiguous windows, and the
    new states are written straight into buffer[t + B:t + 2B].  No state is
    read after it diverges, so the products run with overflow ignored; one
    dot product screens each block, and only a block that fails it is
    searched for its first bad step.
    """
    dim = buffer.shape[1]
    size = _BLOCK * dim
    states, f = buffer.reshape(-1), forcing.reshape(-1)
    cols = len(forced)
    bound = DIVERGENCE_LIMIT ** 2  # a NaN, or a square past the float range, fails it too
    with np.errstate(over="ignore", invalid="ignore"):
        prop = _euler_block(near, h)
        a = prop[:, :size].reshape(size, _BLOCK, dim)[:, :, forced].reshape(size, -1)
        c = prop[:, size:]
        for t in range(0, n, _BLOCK):
            for history in histories:
                history.advance(t)
            b = min(_BLOCK, n - t)
            if b < _BLOCK:  # a short last block: its leading rows, read against its steps
                a, c = a[:b * dim, :b * cols], c[:b * dim]
            new = states[(t + _BLOCK) * dim:(t + _BLOCK + b) * dim]
            np.matmul(a, f[t * cols:(t + b) * cols], out=new)
            new += c @ states[t * dim:t * dim + size]
            if not new @ new <= bound:
                finite = (np.abs(new.reshape(b, dim)) <= DIVERGENCE_LIMIT).all(axis=1)
                if not finite.all():
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
    # through the negated kernel the history subtracts the far sums from the
    # drive: drive[t:t + B] is the block's right-hand side once it has advanced
    history = GlHistory(drive, np.negative(kernel, out=kernel), y)

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
    bound = DIVERGENCE_LIMIT ** 2  # a NaN, or a square past the float range, fails it too
    with np.errstate(over="ignore", invalid="ignore"):
        first[0] = 1.0 / pivot
        for k in range(1, _BLOCK):
            first[k] = -np.dot(near[1:k + 1], first[k - 1::-1]) / pivot
        inverse = np.tril(np.nan_to_num(first)[lags])
        for t in range(0, n + 1, _BLOCK):
            history.advance(t)
            b = min(_BLOCK, n + 1 - t)
            if b < _BLOCK:  # a short last block
                inverse, lower, upper = inverse[:b, :b], lower[:b, :b], upper[:b]
            r = drive[t:t + b]
            if t:  # before t = 0 the output is at rest
                r -= upper @ y[t - _BLOCK:t]
            u = np.matmul(inverse, r, out=y[t:t + b])
            bad = None
            if not u @ u <= bound:  # one dot product screens the block
                finite = np.abs(u) <= DIVERGENCE_LIMIT
                if not finite.all():
                    # the samples after the first bad one are not needed, and an
                    # overflowed one would turn into NaN (0 * inf) in the refinement
                    bad = int(np.argmin(finite))
                    u[bad + 1:] = 0.0
            # one refinement step brings u to the accuracy of per-sample substitution
            u += inverse @ (r - lower @ u)
            if bad is not None:
                k = t + bad
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
