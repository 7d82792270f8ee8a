import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import binom, gamma

from fracreg import glcalc
from fracreg.glcalc import (_BLOCK, GlHistory, SampledSignal, gl_coefficients, gl_convolve,
                            gl_series)


def binom_oracle(order, j):
    """Independent weight formula (-1)^j C(order, j) via scipy's binomial."""
    return (-1.0) ** j * binom(order, j)


def lgamma_weights(order, count):
    """(-1)^j C(order, j) = Gamma(j - order) / (Gamma(-order) Gamma(j + 1)), j = 0..count.

    Built from math.lgamma, independently of the recurrence; `order` must
    not be a non-negative integer.
    """
    sign0 = math.copysign(1.0, math.gamma(-order))
    out = np.empty(count + 1)
    for j in range(count + 1):
        x = j - order
        sign = sign0 * (math.copysign(1.0, math.gamma(x)) if x < 0 else 1.0)
        out[j] = sign * math.exp(math.lgamma(x) - math.lgamma(-order) - math.lgamma(j + 1))
    return out


def naive_convolve(kernel, series):
    """out[k] = sum_{j=0..min(k, M)} kernel[j] series[k-j]: one dot product per sample."""
    m = len(kernel) - 1
    return np.array([np.dot(kernel[:min(k, m) + 1], series[k::-1][:min(k, m) + 1])
                     for k in range(len(series))])


class PerSampleHistory:
    """sum_{j>=1} kernel[j] series[t-j] for t = 0, 1, 2, ... in turn.

    GlHistory's block read gives the lags j >= _BLOCK; lags 1.._BLOCK-1 are
    added by a naive dot product at every sample.
    """

    def __init__(self, kernel, series):
        self.history = GlHistory(kernel, series)
        self.near = np.zeros(_BLOCK)
        self.near[:min(_BLOCK, len(kernel))] = kernel[:_BLOCK]
        self.series = series

    def __call__(self, t):
        if t % _BLOCK == 0:
            self.far = self.history.block(t)
        lags = min(t, _BLOCK - 1)
        return self.far[t % _BLOCK] + np.dot(self.near[1:lags + 1], self.series[t - lags:t][::-1])


def fft_atol(kernel, series):
    """Absolute error allowed to an FFT convolution: a few ulps of |kernel| |series|."""
    return 1e-13 * np.linalg.norm(kernel) * np.linalg.norm(series)


#: Lengths on both sides of the 64-sample block and the 4096-sample FFT piece.
EDGE_LENGTHS = [1, 63, 64, 65, 4095, 4096, 4097, 9000]


class TestGlCoefficients:
    def test_first_difference(self):
        table = gl_coefficients(1.0, 3)
        assert table.coeffs == pytest.approx([1.0, -1.0, 0.0, 0.0], abs=0)

    def test_second_difference(self):
        table = gl_coefficients(2.0, 4)
        assert table.coeffs == pytest.approx([1.0, -2.0, 1.0, 0.0, 0.0], abs=0)

    def test_half_order(self):
        # (-1)^j C(0.5, j) computed from the Gamma function
        expected = [1.0, -0.5, -0.125, -0.0625]
        table = gl_coefficients(0.5, 3)
        assert table.coeffs == pytest.approx(expected, rel=1e-14)

    def test_leading_weight_is_exactly_one(self):
        assert gl_coefficients(0.37, 5).coeffs[0] == 1.0

    @pytest.mark.parametrize("order", [-1.2, 0.3, 0.5, 1.5, 2.2])
    def test_matches_gamma_binomial(self, order):
        coeffs = gl_coefficients(order, 64).coeffs
        for j in range(65):
            expected = binom_oracle(order, j)
            assert coeffs[j] == pytest.approx(expected, rel=1e-10, abs=1e-300)

    @given(order=st.floats(-2, 3))
    @settings(max_examples=60)
    def test_binomial_equivalence_random_orders(self, order):
        # near-integer orders make the Gamma-function oracle itself cancel
        assume(abs(order - round(order)) > 1e-3)
        coeffs = gl_coefficients(order, 64).coeffs
        expected = binom_oracle(order, np.arange(65))
        np.testing.assert_allclose(coeffs, expected, rtol=1e-10, atol=1e-280)

    @given(order=st.floats(-3, 3, allow_nan=False), count=st.integers(0, 40))
    @settings(max_examples=60)
    def test_recurrence_invariant(self, order, count):
        coeffs = gl_coefficients(order, count).coeffs
        assert coeffs[0] == 1.0
        for j in range(1, count + 1):
            step = (1.0 - (1.0 + order) / j) * coeffs[j - 1]
            assert coeffs[j] == pytest.approx(step, rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("order", [float("nan"), float("inf")])
    def test_nonfinite_order_rejected(self, order):
        with pytest.raises(ValueError):
            gl_coefficients(order, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            gl_coefficients(0.5, -1)


class TestGlApply:
    """The GL derivative at the last sample, gl_series(...).values[-1]."""

    def test_zeroth_order_is_identity(self):
        sig = SampledSignal(step=0.2, values=np.full(17, 3.7))
        assert gl_series(sig, 0.0).values[-1] == pytest.approx(3.7, abs=0)

    def test_first_derivative_of_ramp(self):
        t = np.arange(0, 1.0 + 1e-12, 0.01)
        last = gl_series(SampledSignal(step=0.01, values=t), 1.0).values[-1]
        assert last == pytest.approx(1.0, abs=0.02)

    def test_half_derivative_of_square(self):
        # D^0.5 t^2 = Gamma(3)/Gamma(2.5) t^1.5
        h = 0.001
        t = np.arange(0, 1.0 + h / 2, h)
        expected = gamma(3) / gamma(2.5)
        last = gl_series(SampledSignal(step=h, values=t ** 2), 0.5).values[-1]
        assert last == pytest.approx(expected, abs=0.01)

    def test_full_memory_equals_large_memory_len(self):
        rng = np.random.default_rng(7)
        sig = SampledSignal(step=0.05, values=rng.normal(size=40))
        full = gl_series(sig, 0.7).values[-1]
        assert gl_series(sig, 0.7, memory_len=10.0).values[-1] == full

    def test_bad_memory_len(self):
        sig = SampledSignal(step=0.1, values=[1.0, 2.0])
        with pytest.raises(ValueError):
            gl_series(sig, 0.5, memory_len=0.0)

    @pytest.mark.parametrize("order", [0.3, 0.5, 1.5])
    def test_first_order_convergence(self, order):
        # error at t=1 for f(t) = t^2 roughly halves when h halves
        exact = gamma(3) / gamma(3 - order)

        def err(h):
            t = np.arange(0, 1.0 + h / 2, h)
            return abs(gl_series(SampledSignal(step=h, values=t ** 2), order).values[-1] - exact)

        ratio = err(0.002) / err(0.001)
        assert 1.7 <= ratio <= 2.3

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        order=st.floats(-1.5, 2.5),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=40)
    def test_linearity(self, a, b, order, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=30)
        g = rng.normal(size=30)
        h = 0.05
        lhs = gl_series(SampledSignal(h, a * f + b * g), order).values[-1]
        rhs = (a * gl_series(SampledSignal(h, f), order).values[-1]
               + b * gl_series(SampledSignal(h, g), order).values[-1])
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


class TestGlSeries:
    def test_zeroth_order_keeps_step(self):
        step = np.ones(25)
        out = gl_series(SampledSignal(0.1, step), 0.0)
        np.testing.assert_array_equal(out.values, step)
        assert out.step == 0.1

    def test_integral_of_step_is_ramp(self):
        h = 0.1
        out = gl_series(SampledSignal(h, np.ones(51)), -1.0)
        t = h * np.arange(51)
        assert np.max(np.abs(out.values - t)) <= 0.1 + 1e-12

    def test_half_derivative_of_square_pointwise(self):
        h = 0.001
        t = np.arange(0, 1.0 + h / 2, h)
        out = gl_series(SampledSignal(h, t ** 2), 0.5)
        expected = gamma(3) / gamma(2.5) * t ** 1.5
        mask = t >= 0.1
        rel = np.abs(out.values[mask] - expected[mask]) / expected[mask]
        assert np.max(rel) <= 0.01

    def test_memory_truncation_exact_when_covering(self):
        rng = np.random.default_rng(3)
        sig = SampledSignal(0.02, rng.normal(size=60))
        full = gl_series(sig, 0.8)
        trunc = gl_series(sig, 0.8, memory_len=(len(sig) - 1) * sig.step + 1.0)
        np.testing.assert_array_equal(full.values, trunc.values)

    @pytest.mark.parametrize("n", [50, 200, 5000])  # direct, one-chunk and two-chunk sums
    def test_values_past_the_float_range_come_back_non_finite(self, n):
        # pytest turns any RuntimeWarning into an error (pyproject.toml)
        out = gl_series(SampledSignal(step=1e-3, values=np.full(n, 1e308)), 0.5)
        assert not np.isfinite(out.values[0])
        assert not np.isfinite(gl_convolve(np.ones(n), np.full(n, 1e308))[-1])

    def test_tiny_step_with_a_large_order_comes_back_non_finite(self):
        # h^-order = 1e400 is past the float range: inf and nan, no OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = gl_series(SampledSignal(1e-200, np.ones(10)), 2.0)
        assert out.values[0] == math.inf and not np.isfinite(out.values).any()


class TestGlConvolve:
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    @pytest.mark.parametrize("kernel_len", ["same", 65, 5000])
    def test_matches_naive_loop(self, n, kernel_len):
        rng = np.random.default_rng(n)
        kernel = rng.normal(size=n if kernel_len == "same" else kernel_len)
        series = rng.normal(size=n)
        want = naive_convolve(kernel, series)
        np.testing.assert_allclose(gl_convolve(kernel, series), want, rtol=0,
                                   atol=fft_atol(kernel[:n], series))


class TestGlHistory:
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_matches_naive_loop(self, n):
        rng = np.random.default_rng(n + 1)
        kernel = rng.normal(size=n + 1)
        series = rng.normal(size=n)
        history = PerSampleHistory(kernel, series)
        got = np.array([history(t) for t in range(n)])
        want = naive_convolve(np.r_[0.0, kernel[1:]], series)
        np.testing.assert_allclose(got, want, rtol=0, atol=fft_atol(kernel, series))

    @pytest.mark.parametrize("n_mem", [10, 63, 64, 65, 300, 5000])
    def test_truncated_window(self, n_mem):
        rng = np.random.default_rng(n_mem)
        n = 9000
        kernel = gl_coefficients(0.6, n_mem).coeffs
        series = rng.normal(size=n)
        history = PerSampleHistory(kernel, series)
        got = np.array([history(t) for t in range(n)])
        want = naive_convolve(np.r_[0.0, kernel[1:]], series)
        np.testing.assert_allclose(got, want, rtol=0, atol=fft_atol(kernel, series))

    @pytest.mark.parametrize("n", [200, 4097])
    def test_block_reads_only_earlier_samples(self, n):
        # series[t:] is still NaN at block(t): the far sums must not touch it
        rng = np.random.default_rng(n)
        kernel = rng.normal(size=n + 1)
        series = np.full(n, np.nan)
        history = GlHistory(kernel, series)
        got = []
        for t in range(0, n, _BLOCK):
            block = history.block(t)
            assert len(block) == min(_BLOCK, n - t) and not block.flags.writeable
            got.append(block.copy())
            series[t:t + _BLOCK] = rng.normal(size=len(block))
        want = naive_convolve(np.r_[np.zeros(_BLOCK), kernel[_BLOCK:]], series)
        np.testing.assert_allclose(np.concatenate(got), want, rtol=0,
                                   atol=fft_atol(kernel, series))

    @pytest.mark.parametrize("n", [65, 4097])
    def test_fed_back_series(self, n):
        # x_t = u_t - sum_{j>=1} b_j x_{t-j}: each sample depends on the sums
        # over the ones before it, as in the simulators
        rng = np.random.default_rng(n)
        b = lgamma_weights(0.6, n)
        u = rng.normal(size=n)
        x = np.zeros(n)
        history = PerSampleHistory(b, x)
        for t in range(n):
            x[t] = u[t] - history(t)
        want = np.zeros(n)
        for t in range(n):
            want[t] = u[t] - np.dot(b[1:t + 1], want[t - 1::-1][:t])
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_integer_orders_are_stencils(self, order):
        rng = np.random.default_rng(order)
        x = rng.normal(size=300)
        history = PerSampleHistory(gl_coefficients(order, 299).coeffs, x)
        got = np.array([history(t) for t in range(300)])
        padded = np.r_[0.0, 0.0, x]
        want = {0: np.zeros(300), 1: -padded[1:-1],
                2: padded[:-2] - 2 * padded[1:-1]}[order]
        np.testing.assert_array_equal(got, want)


def far_sums(history, n):
    """The far-lag sums of `history` for samples 0..n-1, read block by block."""
    return np.concatenate([history.block(t) for t in range(0, n, _BLOCK)])


def naive_far_sums(pairs):
    """sum over (kernel, series) of the lags j >= _BLOCK, by naive_convolve."""
    return sum(naive_convolve(np.r_[np.zeros(_BLOCK), kernel[_BLOCK:]], series)
               for kernel, series in pairs)


class TestGlHistoryRow:
    """One history for the sum of several (kernel, series) pairs of an equation row."""

    #: Lengths on both sides of the direct-square limit (256), the widest
    #: cached spectrum (1024) and the first uncached width (2048).
    LENGTHS = [63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 2047, 2048, 2049, 4097]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_single_pair_sums(self, n):
        rng = np.random.default_rng(n + 2)
        # the order-1 stencil has no lag past _BLOCK and adds nothing
        kernels = [rng.normal(size=n + 1), lgamma_weights(0.6, n), gl_coefficients(1.0, n).coeffs]
        pairs = [(kernel, rng.normal(size=n)) for kernel in kernels]
        history = GlHistory(*pairs[0], *pairs[1:])
        got = far_sums(history, n)
        atol = sum(fft_atol(kernel, series) for kernel, series in pairs)
        np.testing.assert_allclose(got, naive_far_sums(pairs), rtol=0, atol=atol)
        # every square's last one of its width has dropped the cached spectra
        assert not history._spectra

    @pytest.mark.parametrize("n_mem", [10, 65, 300, 5000])
    def test_memory_windows(self, n_mem):
        # two windows in one row: the squares follow the longer one
        rng = np.random.default_rng(n_mem)
        n = 9000
        kernels = [gl_coefficients(0.6, n_mem).coeffs, gl_coefficients(-0.3, 2 * n_mem).coeffs]
        pairs = [(kernel, rng.normal(size=n)) for kernel in kernels]
        history = GlHistory(*pairs[0], *pairs[1:])
        got = far_sums(history, n)
        atol = sum(fft_atol(kernel, series) for kernel, series in pairs)
        np.testing.assert_allclose(got, naive_far_sums(pairs), rtol=0, atol=atol)
        assert not history._spectra

    def test_series_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            GlHistory(np.ones(100), np.zeros(100), (np.ones(100), np.zeros(99)))

    def test_transform_counts(self, monkeypatch):
        n = 8000
        rng = np.random.default_rng(8)
        kernels = [rng.normal(size=n + 1), rng.normal(size=n + 1)]
        pairs = [(kernel, rng.normal(size=n)) for kernel in kernels]
        kernel_sizes = {0: [], 1: []}
        series_sizes, inverse_sizes = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def counting_rfft(a, size):
            owner = [i for i, kernel in enumerate(kernels) if np.shares_memory(a, kernel)]
            (kernel_sizes[owner[0]] if owner else series_sizes).append(size)
            return rfft(a, size)

        def counting_irfft(a, size):
            inverse_sizes.append(size)
            return irfft(a, size)

        monkeypatch.setattr(glcalc.np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(glcalc.np.fft, "irfft", counting_irfft)
        history = GlHistory(*pairs[0], *pairs[1:])
        got = far_sums(history, n)
        # FFT squares below 8000 (t = width * odd): width 512 at 8 t, 1024 at 4,
        # 2048 at 2 and 4096 at 1, each of transform size 2 * width
        squares = [1024] * 8 + [2048] * 4 + [4096] * 2 + [8192]
        assert sorted(inverse_sizes) == squares  # one inverse FFT per square for both pairs
        assert sorted(series_sizes) == sorted(squares * 2)
        for sizes in kernel_sizes.values():
            # widths up to 1024 are transformed once per pair; wider ones per square
            assert sorted(sizes) == [1024, 2048, 4096, 4096, 8192]
        monkeypatch.undo()
        np.testing.assert_allclose(got, naive_far_sums(pairs), rtol=0,
                                   atol=sum(fft_atol(k, x) for k, x in pairs))

    def test_direct_squares_form_only_their_outputs(self, monkeypatch):
        n = 4097
        rng = np.random.default_rng(22)
        # the second kernel stops short of the widest direct square's lags (2 * 256)
        kernels = [lgamma_weights(0.6, n), rng.normal(size=300)]
        pairs = [(kernel, rng.normal(size=n)) for kernel in kernels]
        calls = []  # (width, outputs) per direct product: the width is its series slice
        convolve = np.convolve

        def recording_convolve(a, v, *args, **kwargs):
            result = convolve(a, v, *args, **kwargs)
            calls.append((len(a), len(result)))
            return result

        monkeypatch.setattr(glcalc.np, "convolve", recording_convolve)
        got = far_sums(GlHistory(*pairs[0], *pairs[1:]), n)
        monkeypatch.undo()
        # direct squares below 4097: width 64 at 32 t, 128 at 16 and 256 at 8, one per pair
        squares = [64] * 32 + [128] * 16 + [256] * 8
        assert sorted(calls) == sorted((width, width) for width in squares * 2)
        np.testing.assert_allclose(got, naive_far_sums(pairs), rtol=0,
                                   atol=sum(fft_atol(k, x) for k, x in pairs))


class TestGlSeriesOracles:
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    @pytest.mark.parametrize("order", [-0.4, 0.7, 1.6])
    def test_matches_lgamma_weights(self, n, order):
        h = 0.01
        rng = np.random.default_rng(n)
        values = rng.normal(size=n)
        weights = lgamma_weights(order, n - 1)
        want = h ** (-order) * naive_convolve(weights, values)
        got = gl_series(SampledSignal(h, values), order).values
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=h ** (-order) * fft_atol(weights, values))

    @pytest.mark.parametrize("n_mem", [10, 64, 65, 300, 5000])
    def test_memory_window(self, n_mem):
        h = 0.01
        rng = np.random.default_rng(n_mem)
        values = rng.normal(size=9000)
        weights = lgamma_weights(0.7, n_mem)
        want = h ** -0.7 * naive_convolve(weights, values)
        got = gl_series(SampledSignal(h, values), 0.7, memory_len=(n_mem + 0.5) * h).values
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=h ** -0.7 * fft_atol(weights, values))

    @pytest.mark.parametrize("n", [5, 4097])
    def test_integer_orders_are_exact_stencils(self, n):
        h = 0.1
        x = np.random.default_rng(n).normal(size=n)
        padded = np.r_[0.0, 0.0, x]
        np.testing.assert_array_equal(gl_series(SampledSignal(h, x), 0).values, x)
        np.testing.assert_array_equal(gl_series(SampledSignal(h, x), 1).values,
                                      (padded[2:] - padded[1:-1]) * h ** -1)
        np.testing.assert_array_equal(gl_series(SampledSignal(h, x), 2).values,
                                      (padded[2:] - 2 * padded[1:-1] + padded[:-2]) * h ** -2)


class TestSampledSignal:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            SampledSignal(step=0.0, values=[1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampledSignal(step=0.1, values=[])
