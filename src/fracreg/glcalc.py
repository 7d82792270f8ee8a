"""Grünwald-Letnikov coefficients and discrete fractional differentiation.

The GL approximation of a derivative of real order q on a uniform grid is

    D^q f(t_k)  ~  h^(-q) * sum_{j=0..N} b_j f(t_{k-j}),

where the weights b_j = (-1)^j C(q, j) satisfy the recurrence
b_0 = 1, b_j = (1 - (1+q)/j) b_{j-1}.  Negative q gives the fractional
integral with the same formula.  Signals are assumed at rest (zero)
before t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GlTable", "GlHistory", "SampledSignal", "gl_coefficients", "gl_convolve",
           "gl_apply", "gl_series"]

#: Lags within the current block of this many samples are summed directly.
_BLOCK = 64
#: Longest piece a known series is cut into for its FFT.
_CHUNK = 4096


@dataclass(frozen=True)
class GlTable:
    """GL weight sequence b_0..b_N for one derivative order."""

    order: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        self.coeffs.setflags(write=False)

    def __len__(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled signal: values[k] is the sample at t = k*step."""

    step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.step > 0):
            raise ValueError(f"step must be positive, got {self.step}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError("values must be a non-empty 1-D sequence")

    def __len__(self):
        return len(self.values)

    @property
    def duration(self):
        return (len(self.values) - 1) * self.step


def gl_coefficients(order: float, count: int) -> GlTable:
    """Generate GL weights b_0..b_count for the given derivative order.

    Uses the one-term recurrence; for a non-negative integer order m the
    weights vanish identically for j > m, reproducing the classical
    finite-difference stencil.
    """
    if not math.isfinite(order):
        raise ValueError(f"order must be finite, got {order}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    coeffs = np.empty(count + 1)
    coeffs[0] = 1.0
    if count > 0:
        j = np.arange(1, count + 1, dtype=float)
        coeffs[1:] = np.cumprod(1.0 - (1.0 + order) / j)
    return GlTable(order=order, coeffs=coeffs)


def _truncation(k: int, step: float, memory_len) -> int:
    """Number of history samples (beyond the current one) entering the sum.

    The one window rule of the package: `memory_len` seconds keep the
    floor(memory_len / step) most recent samples; None keeps them all.
    """
    if memory_len is None:
        return k
    if not memory_len > 0:
        raise ValueError(f"memory_len must be positive, got {memory_len}")
    window = memory_len / step
    return k if window >= k else math.floor(window)


def _support(kernel: np.ndarray) -> np.ndarray:
    """`kernel` without its trailing exact zeros, keeping at least one weight.

    A GL table of non-negative integer order m is exactly zero after its
    first m + 1 weights, so order 0 becomes a one-tap identity and orders
    1 and 2 become their finite-difference stencils.
    """
    if len(kernel) == 0 or kernel[-1] != 0:
        return kernel
    nonzero = np.flatnonzero(kernel)
    return kernel[: nonzero[-1] + 1 if len(nonzero) else 1]


def gl_convolve(kernel, series) -> np.ndarray:
    """kernel * series on the samples of `series`: out[k] = sum_j kernel[j] series[k-j].

    A short operand is convolved exactly and directly.  Otherwise both
    operands are cut into pieces of at most _CHUNK samples whose rFFT
    products are summed per output piece, so no transform is longer than
    2 * _CHUNK points.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    kernel = _support(np.asarray(kernel, dtype=float)[:n])
    if min(len(kernel), n) <= _BLOCK:
        # reversed operands make np.convolve add the newest sample first, as
        # the GL sum is written, so the integer-order stencils round textbook-wise
        return np.convolve(series[::-1], kernel[::-1])[::-1][:n]
    chunk = min(_CHUNK, 1 << (n - 1).bit_length())
    size = 2 * chunk
    series_spectra = [np.fft.rfft(series[p:p + chunk], size) for p in range(0, n, chunk)]
    kernel_spectra = [np.fft.rfft(kernel[q:q + chunk], size)
                      for q in range(0, len(kernel), chunk)]
    out = np.zeros((len(series_spectra) + 1) * chunk)
    for m in range(len(series_spectra)):
        # pieces p of the series and q of the kernel land at (p + q) * chunk
        spectrum = sum(series_spectra[p] * kernel_spectra[m - p]
                       for p in range(max(0, m - len(kernel_spectra) + 1), m + 1))
        out[m * chunk:m * chunk + size] += np.fft.irfft(spectrum, size)
    return out[:n]


class GlHistory:
    """Online GL history sums of a series produced one sample at a time.

    `history(t)` returns sum_{j=1..t} kernel[j] * series[t-j], the GL sum
    at sample t without its j = 0 term.  `series` is the caller's array; it
    is read, never written, and series[:t] must be final when `history(t)`
    is called, for t = 0, 1, 2, ... in increasing order.  A kernel cut off
    after n_mem + 1 weights gives the short-memory sum exactly.

    Lags 1.._BLOCK-1, which carry the largest GL weights, are summed
    directly by one short dot product per call.  Longer lags come from the
    lag-doubling FFT scheme of Hairer, Lubich & Schlichte (SIAM J. Sci.
    Stat. Comput. 6(3), 1985): when t reaches a multiple of _BLOCK, with
    L = t & -t, the inputs [t-L, t) are added to the outputs [t, t+L)
    through lags _BLOCK..2L-1 by one FFT product, so n samples cost
    O(n log^2 n).
    """

    def __init__(self, kernel, series: np.ndarray):
        kernel = _support(np.asarray(kernel, dtype=float))
        self._lags = len(kernel) - 1
        self._series = series
        self._far = np.zeros(len(series) + 1)
        near = np.zeros(_BLOCK)
        near[:min(_BLOCK, len(kernel))] = kernel[:_BLOCK]
        self._near = near[:0:-1].copy()  # near[i] = kernel[_BLOCK - 1 - i]
        self._kernel = np.concatenate((np.zeros(min(_BLOCK, len(kernel))), kernel[_BLOCK:]))

    def __call__(self, t: int) -> float:
        if t % _BLOCK == 0 and t:
            self._advance(t)
        start = max(t - _BLOCK + 1, 0)
        return self._far[t] + np.dot(self._near[start - t + _BLOCK - 1:], self._series[start:t])

    def _advance(self, t):
        # a kernel with fewer lags than L only links inputs and outputs that
        # lie within `lags` of t, so the square shrinks to that width
        width = min(t & -t, self._lags)
        out = self._far[t:t + width]
        if min(2 * width - 1, self._lags) < _BLOCK or not len(out):
            return  # no lag of the square reaches the FFT part
        inputs = self._series[t - width:t]
        if width <= _BLOCK:
            part = np.convolve(inputs, self._kernel[:2 * width])[width:2 * width]
        else:
            size = 2 * width
            spectrum = np.fft.rfft(inputs, size) * np.fft.rfft(self._kernel[:size], size)
            part = np.fft.irfft(spectrum, size)[width:]
        out += part[:len(out)]


def gl_apply(history: SampledSignal, order: float, memory_len: float | None = None) -> float:
    """GL derivative of the given order at the last sample of `history`.

    `memory_len` truncates the sum to the trailing window of that many
    seconds (short-memory principle); by default the full history is used.
    """
    return float(gl_series(history, order, memory_len).values[-1])


def gl_series(signal: SampledSignal, order: float, memory_len: float | None = None) -> SampledSignal:
    """Apply the GL derivative at every sample; same grid as the input."""
    n_max = _truncation(len(signal) - 1, signal.step, memory_len)
    values = gl_convolve(gl_coefficients(order, n_max).coeffs, signal.values)
    values *= signal.step ** (-order)
    return SampledSignal(step=signal.step, values=values)
