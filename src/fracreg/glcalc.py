"""Grünwald-Letnikov coefficients and discrete fractional differentiation.

The GL approximation of a derivative of real order q on a uniform grid is

    D^q f(t_k)  ~  h^(-q) * sum_{j=0..N} b_j f(t_{k-j}),

where the weights b_j = (-1)^j C(q, j) satisfy the recurrence
b_0 = 1, b_j = (1 - (1+q)/j) b_{j-1}.  Negative q gives the fractional
integral with the same formula.  Signals are assumed at rest (zero)
before t = 0.

`gl_convolve` applies a weight sequence to a series known in advance: a
step or staircase from its few changes, by the kernel's running sums in
O(n) each, and a dense series by chunked FFTs in O(n log n), whose first
_BLOCK outputs are summed directly.  `GlHistory` serves one equation row
whose series are being solved for, _BLOCK samples at a time: before each
block it adds the row's sums over lags >= _BLOCK of all its
(kernel, series) pairs, which read only earlier samples, into an array
the caller owns, and leaves the lags below _BLOCK to the caller.  Its
lag-doubling squares of width W up to _DIRECT_WIDTH = 256 are one
valid-mode direct convolution per pair, which forms exactly the W outputs
the square adds.  Wider ones are FFT products, with one inverse FFT per
square for the whole row; the kernel spectra of every width are kept
while a later square of that width is still to come.
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

    A piecewise-constant series (a step, a staircase) is convolved from its
    changes: each change series[j] - series[j-1], with series[-1] = 0, adds
    itself times the kernel's running sum shifted to j, and past the
    kernel's end that sum holds the kernel's total (short memory).  The
    running sums of GL weights of order q are the weights of order q - 1,
    as (1 - z)^q / (1 - z) = (1 - z)^(q-1).  Each change costs n
    multiply-adds against the FFT's O(n log n), so this path is taken when
    sample 0 and the later changes number at most n.bit_length().

    Otherwise a short operand is convolved exactly and directly, and longer
    ones are cut into pieces of at most _CHUNK samples whose rFFT products
    are summed per output piece, so no transform is longer than 2 * _CHUNK
    points.  Sums past the float range come back as inf or nan, without a
    RuntimeWarning.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    kernel = _support(np.asarray(kernel, dtype=float)[:n])
    with np.errstate(over="ignore", invalid="ignore"):
        changed = series[1:] != series[:-1]
        if np.count_nonzero(changed) < n.bit_length():  # sample 0 counts as one more
            return _from_changes(kernel, series, np.flatnonzero(changed) + 1)
        if min(len(kernel), n) <= _BLOCK:
            # reversed operands make np.convolve add the newest sample first, as
            # the GL sum is written, so the integer-order stencils round textbook-wise
            return np.convolve(series[::-1], kernel[::-1])[::-1][:n]
        return _chunked_fft(kernel, series)


def _from_changes(kernel, series, later):
    """kernel * series from its changes at sample 0 and at the samples `later`.

    out[k] = sum_j (series[j] - series[j-1]) * running[k - j] over those j <= k.
    """
    running = np.cumsum(kernel)
    out = np.zeros(len(series))
    for j in (0, *later):
        change = series[j] - series[j - 1] if j else series[0]
        head = out[j:j + len(running)]
        head += change * running[:len(head)]
        out[j + len(running):] += change * running[-1]  # short memory: the kernel's total
    return out


def _chunked_fft(kernel, series):
    """kernel * series from the rFFT products of pieces of at most _CHUNK samples.

    Both operands are longer than _BLOCK; the first _BLOCK outputs are direct sums.
    """
    n = len(series)
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
    # an FFT output's rounding scales with the largest values of its pieces, so the
    # first outputs are summed directly: 0 while the series is at rest, and
    # accurate to their own size where it grows later
    out[:_BLOCK] = np.convolve(series[:_BLOCK][::-1], kernel[:_BLOCK][::-1])[::-1][:_BLOCK]
    return out[:n]


class GlHistory:
    """GL history sums over the far lags of series produced a block at a time.

    `GlHistory(out, kernel, series, *pairs)` serves one equation row: the
    sum of kernel * series over the first pair and every further
    (kernel, series) pair, all series of the length of `out`.
    `history.advance(t)`, for t = 0, _BLOCK, 2 * _BLOCK, ... in increasing
    order, adds the squares due at t into `out`, the caller's array; once it
    returns, out[t:t + _BLOCK] holds, on top of what the caller put there,
    the sums over lags j >= _BLOCK,

        sum_pairs sum_{j>=_BLOCK} kernel[j] * series[s-j]   for s = t .. t + _BLOCK - 1.

    The squares also add partial sums to later samples of `out`, never to
    earlier ones, so the caller may use out[:t + _BLOCK] as it likes.  A
    simulator passes its forcing or drive, pre-filled with the input's
    share, so no sum is copied; a negated kernel subtracts its sums.  Each
    series is the caller's array; it is read, never written, and
    series[:t] must be final when `advance(t)` is called.  Every lag
    j >= _BLOCK of those samples reaches back before t, so the sums are
    complete then.  Lags below _BLOCK, which couple the samples of one
    block, are the caller's to solve.  A kernel cut off after n_mem + 1
    weights gives the short-memory sums exactly.

    The sums come from the lag-doubling scheme of Hairer, Lubich &
    Schlichte (SIAM J. Sci. Stat. Comput. 6(3), 1985): at each t, with
    L = t & -t, the inputs [t-L, t) are added to the outputs [t, t+L)
    through lags _BLOCK..2L-1, so n samples cost O(n log^2 n).  A square
    of width W up to _DIRECT_WIDTH is one valid-mode direct convolution per
    pair, of the W inputs with the pair's weights of lags 1..2W-1 (those
    below _BLOCK set to zero), which forms exactly the W outputs.  A wider
    one is an FFT product per pair, summed in the frequency domain
    and brought back by one inverse FFT.  Its kernel spectra depend only on
    the width, and are kept while a later square of that width is still to
    come; the last square of each width forms, uses and drops them.  The
    cache thus holds at most P * sum(W + 1) complex values for P pairs over
    the FFT widths W whose squares repeat: about 17 MB for the two pairs of
    the PD^delta row at 10^6 samples.
    """

    def __init__(self, out: np.ndarray, kernel, series: np.ndarray, *pairs):
        self._out = out
        # (head, tail, series) per far-reaching pair: tail[i] = kernel[_BLOCK + i], and
        # head[i] = kernel[i + 1] for lags _BLOCK <= i + 1 < 2 * _DIRECT_WIDTH, else 0
        self._pairs = []
        self._lags = 0
        for weights, values in ((kernel, series), *pairs):
            if len(values) != len(out):
                raise ValueError("the series of one history must have the length of its sums")
            weights = _support(np.asarray(weights, dtype=float))
            if len(weights) > _BLOCK:
                head = np.zeros(2 * _DIRECT_WIDTH - 1)
                far = weights[_BLOCK:2 * _DIRECT_WIDTH]
                head[_BLOCK - 1:_BLOCK - 1 + len(far)] = far
                head.flags.writeable = False
                self._pairs.append((head, weights[_BLOCK:], values))
                self._lags = max(self._lags, len(weights) - 1)
        self._spectra = {}  # width -> the pairs' kernel tail spectra

    def advance(self, t: int):
        """Add the square due at t; out[t:t + _BLOCK] is complete on return."""
        # kernels with fewer lags than L only link inputs and outputs that
        # lie within `lags` of t, so the square shrinks to that width
        width = min(t & -t, self._lags)
        out = self._out[t:t + width]
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
        if t + 2 * width < len(self._out):
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
