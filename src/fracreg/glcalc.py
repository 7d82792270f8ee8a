"""Grünwald-Letnikov coefficients and discrete fractional differentiation.

The GL approximation of a derivative of real order q on a uniform grid is

    D^q f(t_k)  ~  h^(-q) * sum_{j=0..N} b_j f(t_{k-j}),

where the weights b_j = (-1)^j C(q, j) satisfy the recurrence
b_0 = 1, b_j = (1 - (1+q)/j) b_{j-1}.  Negative q gives the fractional
integral with the same formula.  Signals are assumed at rest (zero)
before t = 0.

`gl_convolve` applies a weight sequence to a series known in advance.
`GlHistory` serves one equation row whose series are being solved for,
_BLOCK samples at a time: for each block it returns the row's sums over
lags >= _BLOCK of all its (kernel, series) pairs, which read only earlier
samples, and leaves the lags below _BLOCK to the caller.  Its lag-doubling
squares of width W up to _DIRECT_WIDTH = 256 are one valid-mode direct
convolution per pair, which forms exactly the W outputs the square adds.
Wider ones are FFT products, with one inverse FFT per square for the whole
row; the kernel spectra of a width up to _CACHE_WIDTH = 1024 are kept while a
later square of that width is still to come.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GlTable", "GlHistory", "SampledSignal", "gl_coefficients", "gl_convolve",
           "gl_series"]

#: Samples per block: GlHistory sums the lags of at least this many samples,
#: and the simulators solve the lags below it within each block.
_BLOCK = 64
#: Longest piece a known series is cut into for its FFT.
_CHUNK = 4096
#: Widest GlHistory square summed by direct convolution rather than FFTs.
_DIRECT_WIDTH = 256
#: Widest GlHistory square whose kernel spectra are kept for its next square.
_CACHE_WIDTH = 1024


@dataclass(frozen=True)
class GlTable:
    """GL weight sequence b_0..b_N for one derivative order."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        self.coeffs.setflags(write=False)


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
    return GlTable(coeffs=coeffs)


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
    2 * _CHUNK points.  Sums past the float range come back as inf or nan,
    without a RuntimeWarning.
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    """GL history sums over the far lags of series produced a block at a time.

    `GlHistory(kernel, series, *pairs)` serves one equation row: the sum of
    kernel * series over the first pair and every further (kernel, series)
    pair, all series of one length.  `history.block(t)`, for t = 0, _BLOCK,
    2 * _BLOCK, ... in increasing order, returns the sums over lags
    j >= _BLOCK,

        sum_pairs sum_{j>=_BLOCK} kernel[j] * series[s-j]   for s = t .. t + _BLOCK - 1,

    as a read-only view of at most _BLOCK values.  Each series is the
    caller's array; it is read, never written, and series[:t] must be final
    when `block(t)` is called.  Every lag j >= _BLOCK of those samples
    reaches back before t, so the sums are complete then.  Lags below
    _BLOCK, which couple the samples of one block, are the caller's to
    solve.  A kernel cut off after n_mem + 1 weights gives the short-memory
    sums exactly.

    The sums come from the lag-doubling scheme of Hairer, Lubich &
    Schlichte (SIAM J. Sci. Stat. Comput. 6(3), 1985): at each t, with
    L = t & -t, the inputs [t-L, t) are added to the outputs [t, t+L)
    through lags _BLOCK..2L-1, so n samples cost O(n log^2 n).  A square
    of width W up to _DIRECT_WIDTH is one valid-mode direct convolution per
    pair, of the W inputs with the pair's weights of lags 1..2W-1 (those
    below _BLOCK set to zero), which forms exactly the W outputs.  A wider
    one is an FFT product per pair, summed in the frequency domain
    and brought back by one inverse FFT.  Its kernel spectra depend only on
    the width; up to _CACHE_WIDTH they are kept while a later square of
    that width is still to come, and wider ones are formed, used and dropped.
    """

    def __init__(self, kernel, series: np.ndarray, *pairs):
        self._far = np.zeros(len(series))
        # (head, tail, series) per far-reaching pair: tail[i] = kernel[_BLOCK + i], and
        # head[i] = kernel[i + 1] for lags _BLOCK <= i + 1 < 2 * _DIRECT_WIDTH, else 0
        self._pairs = []
        self._lags = 0
        for weights, values in ((kernel, series), *pairs):
            if len(values) != len(self._far):
                raise ValueError("the series of one history must have one length")
            weights = _support(np.asarray(weights, dtype=float))
            if len(weights) > _BLOCK:
                head = np.zeros(2 * _DIRECT_WIDTH - 1)
                far = weights[_BLOCK:2 * _DIRECT_WIDTH]
                head[_BLOCK - 1:_BLOCK - 1 + len(far)] = far
                head.flags.writeable = False
                self._pairs.append((head, weights[_BLOCK:], values))
                self._lags = max(self._lags, len(weights) - 1)
        self._spectra = {}  # width -> the pairs' kernel tail spectra

    def block(self, t: int) -> np.ndarray:
        self._advance(t)
        out = self._far[t:t + _BLOCK]
        out.flags.writeable = False
        return out

    def _advance(self, t):
        # kernels with fewer lags than L only link inputs and outputs that
        # lie within `lags` of t, so the square shrinks to that width
        width = min(t & -t, self._lags)
        out = self._far[t:t + width]
        if width < _BLOCK or not len(out):
            return  # no lag of the square reaches _BLOCK
        # output t + o takes input t - width + i through lag o + width - i
        if width <= _DIRECT_WIDTH:
            # head index o + width - 1 - i: the valid product over head[:2 * width - 1]
            for head, _, series in self._pairs:
                out += np.convolve(series[t - width:t], head[:2 * width - 1], "valid")[:len(out)]
            return
        # tail index o + width - _BLOCK - i: the full product's entries
        # [width - _BLOCK, 2 * width - _BLOCK) over tail[:2 * width - _BLOCK]
        lo, hi, size = width - _BLOCK, 2 * width - _BLOCK, 2 * width
        # uncached, each kernel spectrum is formed just before its product
        spectra = (self._spectra.pop(width, None)
                   or (np.fft.rfft(tail[:hi], size) for _, tail, _ in self._pairs))
        if width <= _CACHE_WIDTH and t + 2 * width < len(self._far):
            # the next square of this width reuses them
            spectra = self._spectra[width] = list(spectra)
        total = None
        for spectrum, (_, _, series) in zip(spectra, self._pairs):
            product = np.fft.rfft(series[t - width:t], size)
            product *= spectrum
            if total is None:
                total = product
            else:
                total += product
            del spectrum, product  # freed before the next spectrum is formed: peak memory
        out += np.fft.irfft(total, size)[lo:lo + len(out)]


def gl_series(signal: SampledSignal, order: float, memory_len: float | None = None) -> SampledSignal:
    """Apply the GL derivative at every sample; same grid as the input.

    Values past the float range come back as inf or nan, without a
    RuntimeWarning (see `gl_convolve`).
    """
    n_max = _truncation(len(signal) - 1, signal.step, memory_len)
    values = gl_convolve(gl_coefficients(order, n_max).coeffs, signal.values)
    with np.errstate(over="ignore", invalid="ignore"):
        values *= np.float64(signal.step) ** -order  # inf, not OverflowError, past the range
    return SampledSignal(step=signal.step, values=values)
