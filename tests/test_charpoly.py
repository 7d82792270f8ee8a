import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracreg import charpoly
from fracreg.charpoly import (RootResult, StabilityReport, classify_stability,
                              commensurate_roots, eval_fracpoly, find_roots,
                              newton_roots, normalize)
from fracreg.design import DesignSpecPd, design_pd_fractional
from fracreg.model import (FracPoly, PdController, PiController, Plant,
                           char_poly_pd, char_poly_pi)

BENCH_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
GOLDEN_POLY = char_poly_pd(BENCH_PLANT, PdController(K=24.0, Td=6.9407, delta=0.71859))
UNSTABLE_POLY = char_poly_pd(BENCH_PLANT, PdController(K=49.0, Td=-79.74427, delta=-0.55194))
#: K = -a0 cancels the constant term, so P(0) = 0 (newton-grid path).
CANCELLED_POLY = char_poly_pd(BENCH_PLANT, PdController(K=-1.0, Td=6.9407, delta=0.71859))


def random_conjugate_closed_roots(rng, degree, min_sep=0.3, radius=5.0):
    roots = []
    while len(roots) < degree:
        if degree - len(roots) >= 2 and rng.random() < 0.5:
            z = complex(rng.uniform(-4, 4), rng.uniform(min_sep, 4))
            cand = [z, z.conjugate()]
        else:
            cand = [complex(rng.uniform(-4.5, 4.5), 0.0)]
        if all(abs(a - b) > min_sep for a in cand for b in roots) and all(
            abs(a) <= radius for a in cand
        ):
            roots.extend(cand)
    return roots


def integer_fracpoly(roots):
    coeffs = np.real(np.poly(roots))
    degree = len(roots)
    return FracPoly.from_terms((c, float(degree - i)) for i, c in enumerate(coeffs))


MIXED_INTEGER_POLY = integer_fracpoly([-1.0, 2.0, -0.5 + 3j, -0.5 - 3j])
PI_INTEGER_POLY = char_poly_pi(Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0),
                               PiController(K=5.0, Ti=4.0, lam=1.0))


def set_distance(a, b):
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    return max(
        max(min(abs(x - y) for y in b) for x in a),
        max(min(abs(x - y) for y in a) for x in b),
    )


class TestEval:
    def test_single_term(self):
        assert eval_fracpoly(FracPoly.from_terms([(0.8, 2.2)]), 1.0) == pytest.approx(0.8)

    def test_golden_poly_nearly_vanishes_at_design_pole(self):
        # design parameters rounded to 5 digits leave a small residual
        assert abs(eval_fracpoly(GOLDEN_POLY, -1 + 6j)) < 1e-2 * 25

    def test_principal_branch_on_cut(self):
        value = eval_fracpoly(FracPoly.from_terms([(1.0, 0.5)]), -1.0)
        assert value == pytest.approx(1j)

    def test_origin_with_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            eval_fracpoly(FracPoly.from_terms([(1.0, -0.5)]), 0.0)

    def test_origin_with_constant(self):
        poly = FracPoly.from_terms([(2.0, 1.0), (3.0, 0.0)])
        assert eval_fracpoly(poly, 0.0) == 3.0


def numpy_eval(p, s):
    """P and P' of `p` at the points of the array `s`, in numpy: s^e = exp(e log s)."""
    coeffs = np.array(p.coefficients, dtype=complex)
    expts = np.array(p.exponents, dtype=float)
    powers = np.exp(np.log(s)[:, None] * expts)
    return powers @ coeffs, (powers @ (coeffs * expts)) / s


class TestScalarEvaluation:
    """`evaluate_terms`, the one-point arithmetic of `_polish` and `design._placed`."""

    @staticmethod
    def random_cases(seed, n=40):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            size = int(rng.integers(2, 6))
            coeffs = 10.0 ** rng.uniform(-2.0, 2.0, size) * rng.choice([-1.0, 1.0], size)
            poly = FracPoly.from_terms(zip(coeffs.tolist(), rng.uniform(-1.0, 4.0, size).tolist()))
            yield poly, complex(10.0 ** rng.uniform(-2.0, 2.0)
                                * np.exp(1j * rng.uniform(-np.pi, np.pi)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_numpy_evaluation(self, seed):
        for poly, s in self.random_cases(seed):
            value, slope, size = charpoly.evaluate_terms(poly, s)
            assert size == pytest.approx(sum(abs(c) * abs(s) ** e for c, e in poly.terms),
                                         rel=1e-14)
            assert abs(value - eval_fracpoly(poly, s)) <= 1e-14 * size
            _, fp = numpy_eval(poly, np.array([s]))
            slope_size = sum(abs(c * e) * abs(s) ** e for c, e in poly.terms)
            assert abs(slope - s * fp[0]) <= 1e-14 * slope_size

    @pytest.mark.parametrize("seed", range(5))
    def test_polished_residual_is_eval_fracpoly(self, seed):
        polys = [GOLDEN_POLY, UNSTABLE_POLY, MIXED_INTEGER_POLY] if seed == 0 else []
        polys += [poly for poly, _ in self.random_cases(seed, 10)]
        for poly in polys:
            for root in find_roots(poly).roots:
                if root.value == 0:
                    continue
                size = sum(abs(c) * abs(root.value) ** e for c, e in poly.terms)
                assert abs(root.residual - abs(eval_fracpoly(poly, root.value))) <= 1e-14 * size

    @pytest.mark.parametrize("terms, point", [
        ([(1.0, 2.5), (-3.0, 1.0), (1.0, 0.0)], 1e200 + 1j),  # |s|^2.5 overflows
        ([(1.0, 2.5), (-3.0, 1.0), (1.0, 0.0)], 1e130 + 0j),
        ([(1.0, 1e308), (1.0, 0.0)], -1 + 0.01j),  # the phase 1e308 arg s overflows
    ])
    def test_point_past_the_float_range_is_dropped(self, terms, point):
        poly = FracPoly.from_terms(terms)
        with pytest.raises(ArithmeticError):
            charpoly.evaluate_terms(poly, point)
        assert charpoly._polish(poly, [point]) == []


class TestNormalize:
    def test_unstable_case_shift(self):
        poly = FracPoly.from_terms(
            [(0.8, 2.2), (-79.74427, -0.55194), (0.5, 0.9), (50.0, 0.0)]
        )
        shifted = normalize(poly)
        assert shifted.exponents == pytest.approx((2.75194, 1.45194, 0.55194, 0.0))

    def test_nonnegative_unchanged(self):
        assert normalize(GOLDEN_POLY) is GOLDEN_POLY

    def test_single_negative_term(self):
        assert normalize(FracPoly.from_terms([(3.0, -0.7)])).terms == ((3.0, 0.0),)

    def test_empty_polynomial(self):
        with pytest.raises(ValueError, match="empty polynomial"):
            normalize(FracPoly(()))


class TestFindRoots:
    def test_golden_design_poles(self):
        report = find_roots(GOLDEN_POLY)
        values = [r.value for r in report.roots]
        assert min(abs(v - (-1 + 6j)) for v in values) < 5e-2
        assert min(abs(v - (-1 - 6j)) for v in values) < 5e-2
        assert report.verdict == "stable"
        assert not report.coverage_caveat  # the root count certifies the search

    def test_unstable_extra_real_root(self):
        report = find_roots(UNSTABLE_POLY)
        real_roots = [r.value for r in report.roots if abs(r.value.imag) < 1e-6]
        assert any(abs(v.real - 1.98) < 0.02 and v.imag == 0.0 for v in real_roots)
        assert report.verdict == "unstable"
        assert not report.coverage_caveat

    def test_integer_poly_uses_commensurate(self):
        report = find_roots(FracPoly.from_terms([(1.0, 2.0), (1.0, 0.0)]))
        assert report.method == "commensurate"
        values = sorted((r.value for r in report.roots), key=lambda z: z.imag)
        assert values[0] == pytest.approx(-1j, abs=1e-10)
        assert values[1] == pytest.approx(1j, abs=1e-10)

    def test_root_residual_invariant(self):
        for poly in (GOLDEN_POLY, UNSTABLE_POLY):
            report = find_roots(poly)
            bound = charpoly.NEWTON_TOL * (1 + sum(abs(c) for c in poly.coefficients))
            assert all(r.residual <= bound for r in report.roots)

    def test_conjugate_pairing(self):
        report = find_roots(GOLDEN_POLY)
        values = [r.value for r in report.roots]
        for v in values:
            if abs(v.imag) > 1e-9:
                assert min(abs(v.conjugate() - u) for u in values) < 1e-8

    def test_near_axis_pair_keeps_both_partners(self):
        # the pair lies 2.5e-9 off the real axis, and its real part fails the snap test
        p = FracPoly(((-0.013170079643821775, 2.6), (-0.011888641526203999, 2.2),
                      (-12.865660110862859, 1.4), (-0.014622481842505848, 0.4)))
        report = find_roots(p)
        near = [r.value for r in report.roots if 0 < abs(r.value.imag) <= charpoly.DEDUPE_TOL]
        assert len(near) == 2 and near[1] == near[0].conjugate()
        assert near[1].real == pytest.approx(-0.0011366, rel=1e-4)
        assert near[1].imag == pytest.approx(2.52e-9, rel=1e-2)
        assert (report.method, report.root_count, len(report.roots)) == ("commensurate", 5, 5)

    @pytest.mark.parametrize("radius", [1e3, 1e4, 1e5])
    def test_far_pair_is_found(self, radius):
        # (s+1)(s+2)(s^2 - R s + R^2) / R^2: |P| at the pair R e^(+-i pi/3) is far above
        # the absolute residual scale, and tiny beside the size of its terms
        pair = radius * np.exp(1j * np.pi / 3)
        coeffs = np.real(np.poly([-1.0, -2.0, pair, pair.conjugate()])) / radius ** 2
        p = FracPoly.from_terms((c, 4.0 - k) for k, c in enumerate(coeffs.tolist()))
        report = find_roots(p)
        assert [r.value for r in report.roots] == pytest.approx(
            [-2.0, -1.0, pair.conjugate(), pair], rel=1e-8)
        for r in report.roots:
            size = sum(abs(c) * abs(r.value) ** e for c, e in p.terms)
            assert r.residual <= charpoly.NEWTON_TOL * size
        assert (report.verdict, report.coverage_caveat, report.root_count) == ("unstable", False, 4)

    @pytest.mark.parametrize("terms, far, runs", [
        ([(0.42047924425297456, 0.43393048427295133), (-1.386952939178384, 0.3571314442967352),
          (7.492087927766465, 0.0), (-6.66727339574486, -0.0351330688420277)], 4.88117e6, 10),
        ([(0.18483886479060008, 0.46812715025033), (-1.6868484472330998, 0.3773726059559394),
          (133.59236886724895, 0.0), (-132.1323556557776, -0.005187762245819446)], 3.76819e10,
         16),
    ], ids=["5e6", "4e10"])
    def test_far_real_root_is_one_real_root(self, terms, far, runs):
        # Newton's converged points by a far root lie far more than DEDUPE_TOL apart, and
        # it lies more than DEDUPE_TOL off the axis: resolved, merged and snapped relative
        # to |s|, so its resolved point fills the count and ends the pass
        report = find_roots(FracPoly.from_terms(terms))
        values = [r.value for r in report.roots]
        assert values[-1] == pytest.approx(far, rel=1e-5) and values[-1].imag == 0.0
        assert (report.method, report.root_count, len(values)) == ("newton-grid", 3, 3)
        assert (report.verdict, report.coverage_caveat) == ("unstable", False)
        assert report.search.starts <= runs and report.search.end == "fill"

    def test_far_root_converges_by_the_relative_residual(self):
        # |P| at the real root s ~ 406.24 is about 1e-4, far above the absolute scale,
        # while its terms sum to about 1e10
        p = FracPoly.from_terms([(0.26546, 3.99328), (-2.62030, 3.61220), (1.57980, 2.41466),
                                 (0.86023, 1.37166), (-1.59874, 0.0)])
        report = find_roots(p)
        values = [r.value for r in report.roots]
        assert values[-1] == pytest.approx(406.24, rel=1e-4) and values[-1].imag == 0.0
        assert (report.method, report.root_count, len(values)) == ("newton-grid", 5, 5)
        assert not report.coverage_caveat

    def test_root_past_the_cell_range_is_kept(self):
        # -1e303 / DEDUPE_TOL overflows, as the old absolute cells did; the relative rule
        # reads only |s| and distances, and the root is reported
        report = find_roots(FracPoly.from_terms([(1.0, 1.0), (1e303, 0.0)]))
        assert [r.value for r in report.roots] == pytest.approx([-1e303], rel=1e-15)
        assert (report.method, report.root_count) == ("commensurate", 1)

    def test_near_axis_pair_of_a_small_root_stays_a_pair(self):
        # seed 0 commensurate report 2805 of scripts/root_fingerprint.py: the pair lies
        # 4.7e-8 off the axis, within the old absolute DEDUPE_TOL but 0.1 |s| from it.
        # mpmath's findroot at 50 digits: -4.5225641807541946e-4 + 4.6930669140123e-8i
        report = find_roots(FracPoly.from_terms([
            (-0.7887249782795487, 5.0), (-0.050794203236804496, 4.5),
            (-67.13888755753223, 4.25), (-0.030365579829878676, 3.25)]))
        want = complex(-4.5225641807541946e-4, 4.6930669140123e-8)
        assert [r.value for r in report.roots] == pytest.approx(
            [want.conjugate(), want, 0j], rel=1e-13, abs=0)
        assert (report.method, report.root_count) == ("commensurate", 3)
        assert (report.verdict, report.coverage_caveat) == ("unstable", False)

    def test_small_real_root_is_resolved_relative_to_its_size(self):
        # seed 2 random report 868 of scripts/root_fingerprint.py: a Newton step of 1e-7
        # relative is far below the absolute DEDUPE_TOL at |s| ~ 1.5e-7, so the
        # root's resolved point must be relative too.  mpmath's findroot at 50 digits
        # gives 1.4866065297556020e-7
        report = find_roots(FracPoly.from_terms([
            (-0.15090408973749941, 0.7127773817297416), (81.99379929309366, 0.5798224555411098),
            (-2.6160694278969316, 0.5202042519939885),
            (-0.011900660048338826, 0.023098544279727573)]))
        real = [r.value for r in report.roots if r.value.imag == 0 and r.value]
        assert real == pytest.approx([1.4866065297556020e-7], rel=1e-12, abs=0)
        assert report.method == "newton-grid"

    def test_small_root_is_polished_to_float_accuracy(self):
        # seed 2 random report 1333 of scripts/root_fingerprint.py: |P| there is far
        # below any absolute scale while the Newton step is still 1e-9 of |s|, so the
        # polish stops relative to |s|.  mpmath's findroot at 50 digits gives
        # 0.0093402963036725784066 + 0.0029273078892472543308i
        report = find_roots(FracPoly.from_terms([
            (78.95541654862544, 3.3005500954852236), (-1.8200111554262821, 2.3402128785006453),
            (0.013734342849537867, 1.4203949083481358)]))
        want = complex(0.0093402963036725784066, 0.0029273078892472543308)
        assert [r.value for r in report.roots] == pytest.approx(
            [0j, want.conjugate(), want], rel=1e-14, abs=0)
        assert (report.method, report.root_count) == ("newton-grid", 3)

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValueError):
            find_roots(FracPoly.from_terms([(1.0, 2.0)]))

    def test_infinite_coefficient_rejected(self):
        # a0 + K + Td merge at exponent 0 and overflow
        ctrl = PdController(K=3.8e307, Td=1.7976931348623157e308, delta=0.0)
        with pytest.raises(ValueError, match="finite"):
            find_roots(char_poly_pd(BENCH_PLANT, ctrl))

    @pytest.mark.parametrize("ctrl", [
        PdController(K=24.0, Td=6.9407, delta=1.6e130),  # commensurate degree past MAX_DEGREE
        PdController(K=24.0, Td=6.9407, delta=2e307),  # delta * m overflows
        PdController(K=0.1, Td=1e12, delta=1e12),
        PdController(K=24.0, Td=1.7976931348623157e308, delta=0.71859),  # log(0) in the count
        PdController(K=2.4e16, Td=6.9407, delta=-99.0),  # P(s) overflows near 0: nan residuals
        PdController(K=-54.566053430604754, Td=6.9407, delta=-54.566053430604754),
    ])
    def test_values_past_the_float_range_give_a_report(self, ctrl):
        # no OverflowError, MemoryError or RuntimeWarning (pytest makes those errors)
        report = find_roots(char_poly_pd(BENCH_PLANT, ctrl))
        assert all(r.residual <= charpoly._residual_scale(char_poly_pd(BENCH_PLANT, ctrl))
                   for r in report.roots)

    def test_sign_certificate_makes_the_verdict_unstable(self, monkeypatch):
        # P is about -0.1148 s^2.708 - 1.879 s^1.584 - 59.01 s^0.00206 + 58.28: the
        # count fails, and the leading and constant coefficients differ in sign, so
        # P has a root s > 0.  Newton finds it (s ~ 0.0024); with a search stubbed to
        # find nothing the certificate alone makes the verdict
        plant = Plant(a0=2.3311671784640082, a1=-1.8786159693501152, a2=-0.11476133927267451,
                      alpha=2.7076198902019244, beta=1.5843988150576558)
        ctrl = design_pd_fractional(DesignSpecPd(
            plant=plant, pole=complex(-0.32984161915478666, 0.43745161077546424), ess_percent=4.0))
        poly = char_poly_pd(plant, ctrl)
        report = find_roots(poly)
        assert report.root_count is None
        assert [r.value.real for r in report.roots if r.value.real > 0] == pytest.approx(
            [0.0024], rel=0.05)
        assert (report.verdict, report.coverage_caveat) == ("unstable", False)
        monkeypatch.setattr(charpoly, "_newton_search", lambda p, pn: ([], None, None))
        report = find_roots(poly)
        assert report.roots == () and report.root_count is None
        assert (report.verdict, report.coverage_caveat) == ("unstable", False)

    @given(coeffs=st.lists(st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-3),
                           min_size=2, max_size=4),
           expts=st.lists(st.floats(0.05, 4.0), min_size=3, max_size=3, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_sign_change_between_the_end_coefficients_is_unstable(self, coeffs, expts):
        exponents = sorted(expts, reverse=True)[:len(coeffs) - 1] + [0.0]
        p = FracPoly.from_terms(zip(coeffs, exponents))
        report = find_roots(p)
        lead, const = p.coefficients[0], p.coefficients[-1]
        if (lead > 0) != (const > 0):
            assert (report.verdict, report.coverage_caveat) == ("unstable", False)

    def test_commensurate_degree_is_bounded(self):
        p = FracPoly.from_terms([(1.0, charpoly.MAX_DEGREE + 1.0), (1.0, 0.0)])
        assert charpoly.commensurate_base(p) is None
        assert find_roots(p).method == "newton-grid"
        q = FracPoly.from_terms([(1.0, charpoly.MAX_DEGREE / 2), (1.0, 0.0)])
        assert charpoly.commensurate_base(q) == 1

    def test_companion_ratios_past_the_float_range(self):
        # 1e-300 s^2 + 1e300: the ratio 1e600 of the companion matrix overflows
        p = FracPoly.from_terms([(1e-300, 2.0), (1e300, 0.0)])
        assert charpoly.commensurate_base(p) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert commensurate_roots(p) is None
            assert find_roots(p).method == "newton-grid"

    def test_tiny_exponent_is_not_taken_for_zero(self):
        # s + s^1e-10 - 1: 1e-10 m lies within 1e-9 m of the integer 0 for every m
        plant = Plant(a0=1.0, a1=0.0, a2=1.0, alpha=1.0, beta=0.5)
        poly = char_poly_pd(plant, PdController(K=-2.0, Td=1.0, delta=1e-10))
        assert poly.exponents == (1.0, 1e-10, 0.0)
        assert charpoly.commensurate_base(poly) is None
        # the real root by bisection on s + expm1(1e-10 log s), which changes sign on [lo, hi]
        lo, hi = 1e-12, 1.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if mid + math.expm1(1e-10 * math.log(mid)) > 0 else (mid, hi)
        report = find_roots(poly)
        assert (report.method, report.verdict) == ("newton-grid", "unstable")
        reals = [r.value.real for r in report.roots if r.value.imag == 0]
        # P near 1 - s^1e-10 rounds to about eps, which is 5e-8 of the root's size
        assert reals and min(abs(x - lo) for x in reals) <= 1e-6 * lo

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_commensurate_base_matches_the_scalar_definition(self, data):
        tol = charpoly._COMMENSURATE_TOL
        m = data.draw(st.integers(1, charpoly.MAX_DENOMINATOR))
        # the leading exponent around the MAX_DEGREE cap, or anywhere below it
        lead = data.draw(st.one_of(
            st.sampled_from([charpoly.MAX_DEGREE - 1, charpoly.MAX_DEGREE,
                             charpoly.MAX_DEGREE + 1]),
            st.integers(1, charpoly.MAX_DEGREE)))
        others = data.draw(st.lists(st.integers(1, lead), max_size=3, unique=True))
        # off a multiple of 1/m by exactly the tolerance, just inside or outside it
        offset = st.one_of(st.just(0.0), st.sampled_from(
            [tol, -tol, tol * m, -tol * m, 1.5 * tol * m, -1.5 * tol * m, 0.5 * tol, 3e-9]))
        exponents = {k / m + data.draw(offset) for k in {lead, *others}}
        p = FracPoly.from_terms([(1.0, e) for e in exponents] + [(2.0, 0.0)])
        assert charpoly.commensurate_base(p) == scalar_commensurate_base(p)


def scalar_commensurate_base(p):
    """The definition of commensurate_base, one denominator m at a time."""
    pn = normalize(p)
    for m in range(1, charpoly.MAX_DENOMINATOR + 1):
        if pn.exponents[0] * m > charpoly.MAX_DEGREE:
            return None
        if all(abs(e * m - round(e * m)) <= charpoly._COMMENSURATE_TOL * m * min(1.0, e)
               for e in pn.exponents):
            return m
    return None


#: The reference grid: REFERENCE_DENSITY x REFERENCE_DENSITY starts on the square of
#: half-width REFERENCE_RADIUS.
REFERENCE_RADIUS, REFERENCE_DENSITY = 20.0, 40


def reference_newton_roots(p):
    """Newton grid that polishes every converged start and its conjugate.

    The original algorithm, kept as an oracle: all starts of a fixed square
    grid are evaluated on every iteration and deduplication happens only
    after polishing.
    """
    pn = normalize(p)
    scale_n = charpoly._residual_scale(pn)
    axis = np.linspace(-REFERENCE_RADIUS, REFERENCE_RADIUS, REFERENCE_DENSITY)
    re, im = np.meshgrid(axis, axis)
    s = (re + 1j * im).ravel()
    s[np.abs(s) < 1e-9] = 1e-3 + 1e-3j
    limit = 1e6 * REFERENCE_RADIUS
    for _ in range(charpoly.MAX_ITER):
        f, fp = numpy_eval(pn, s)
        bad = ~np.isfinite(f) | ~np.isfinite(fp) | (fp == 0)
        done = np.abs(f) <= scale_n
        active = ~(bad | done)
        if not active.any():
            break
        step = np.zeros_like(s)
        step[active] = f[active] / fp[active]
        s = s - step
        escaped = ~np.isfinite(s) | (np.abs(s) > limit) | (np.abs(s) < 1e-14)
        s[escaped] = np.nan
    f, _ = numpy_eval(pn, np.where(np.isfinite(s), s, 1.0))
    converged = s[np.isfinite(s) & (np.abs(f) <= scale_n)]
    candidates = list(converged) + [z.conjugate() for z in converged]
    roots = [r.value for r in charpoly._polish(p, candidates)]  # all on Im >= 0
    return reflected(merged_within_tol(roots))


def merged_within_tol(points):
    """`points` sorted, less each one within DEDUPE_TOL of a point kept before it."""
    kept = []
    for z in sorted(points, key=lambda z: (z.real, z.imag)):
        if all(abs(z - w) > charpoly.DEDUPE_TOL for w in kept):
            kept.append(z)
    return kept


def reflected(upper):
    """Roots on Im >= 0 and the conjugates of the non-real ones, sorted."""
    return sorted(upper + [z.conjugate() for z in upper if z.imag],
                  key=lambda z: (z.real, z.imag))


def seeded_pd_poly(seed):
    """PD^delta loop of the bundled plant, pole in [-2, -0.5] x [3, 8]i, e_ss 2-8 %."""
    rng = np.random.default_rng([seed, 3])
    pole = complex(rng.uniform(-2.0, -0.5), rng.uniform(3.0, 8.0))
    spec = DesignSpecPd(plant=BENCH_PLANT, pole=pole, ess_percent=rng.uniform(2.0, 8.0))
    return char_poly_pd(BENCH_PLANT, design_pd_fractional(spec))


def brute_force_distinct(points):
    """The candidates `_distinct_roots` polishes, by numpy: the finite points folded onto
    Im >= 0, each kept unless it lies within DEDUPE_TOL |z| of a point kept before it, from
    the matrix of all distances."""
    points = np.array(points, dtype=complex).reshape(-1)
    points = points[np.isfinite(points)]
    folded = np.where(points.imag < 0, points.conj(), points)
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        near = (np.abs(folded[:, None] - folded[None, :])
                <= charpoly.DEDUPE_TOL * np.abs(folded)[:, None])
    kept = []
    for i in range(folded.size):
        if not near[i, kept].any():
            kept.append(i)
    return folded[kept].tolist()


#: Parts of the points the reduction is checked on: signed zeros, small values, finite
#: floats up to the float range, and non-finite ones.
POINT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-1e-3, 1e-3),
    st.floats(allow_nan=False, allow_infinity=False))
ROOT_POINT = st.builds(complex, POINT_PARTS, POINT_PARTS)
#: Lists of points and, after some, partners near the tolerance: its conjugate (Im < 0
#: for one of them), the point scaled by 1 + d and moved by d |z| along the real axis,
#: with |d| up to twice DEDUPE_TOL.
ROOT_POINTS = st.lists(st.one_of(
    ROOT_POINT.map(lambda z: [z]),
    st.builds(lambda z, d: [z, z.conjugate(), z * (1 + d), z + d * abs(z)],
              ROOT_POINT.filter(lambda z: abs(z.real) < 1e300 and abs(z.imag) < 1e300),
              st.floats(-2 * charpoly.DEDUPE_TOL, 2 * charpoly.DEDUPE_TOL)),
), max_size=8).map(lambda groups: [z for group in groups for z in group])


@pytest.fixture
def polished(monkeypatch):
    """Every point handed to charpoly._polish while the test runs."""
    points = []
    original = charpoly._polish

    def counting(p, pts):
        points.extend(pts)
        return original(p, pts)

    monkeypatch.setattr(charpoly, "_polish", counting)
    return points


class TestNewtonGrid:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_polish_everything_reference(self, seed):
        poly = seeded_pd_poly(seed)
        want = reference_newton_roots(poly)
        got = newton_roots(poly)
        assert len(got) == len(want)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "finder, poly",
        [(newton_roots, GOLDEN_POLY), (newton_roots, UNSTABLE_POLY),
         (newton_roots, seeded_pd_poly(50)), (newton_roots, MIXED_INTEGER_POLY),
         (commensurate_roots, MIXED_INTEGER_POLY), (commensurate_roots, PI_INTEGER_POLY)],
        ids=["poly0", "poly1", "poly2", "poly3", "commensurate-mixed", "commensurate-pi"])
    def test_conjugate_closed_and_sorted(self, finder, poly):
        roots = finder(poly)
        assert roots == sorted(roots, key=lambda z: (z.real, z.imag))
        for z in roots:
            # a real root reflects onto itself and is kept once
            assert z.conjugate() in roots or abs(z.imag) <= charpoly.DEDUPE_TOL
        assert len(roots) == len(set(roots))

    def test_points_across_a_cell_edge_give_one_root(self, polished):
        # the two points lie either side of an edge of the absolute DEDUPE_TOL grid that
        # once reduced the candidates, 1e-9 apart: one root by the relative rule, and
        # polished once
        root = max(newton_roots(GOLDEN_POLY), key=lambda z: z.imag)
        tol = charpoly.DEDUPE_TOL
        edge = (np.floor(root.real / tol) + 0.5) * tol
        points = np.array([complex(edge - 5e-10, root.imag), complex(edge + 5e-10, root.imag)])
        assert np.round(points[0] / tol) != np.round(points[1] / tol)
        polished.clear()  # count only what _distinct_roots polishes
        roots = [r.value for r in charpoly._distinct_roots(GOLDEN_POLY, points)]
        assert len(polished) == 1
        assert len(roots) == 2
        assert roots[1] == roots[0].conjugate()
        assert abs(roots[1] - root) <= 1e-9

    @pytest.mark.parametrize("apart, polishes", [(0.4, 1), (0.6, 2)])
    def test_points_near_one_root_give_one_root(self, polished, apart, polishes):
        # two points `apart` DEDUPE_TOL |s| either side of the root: within the tolerance
        # of each other they are one candidate; further apart both are polished, and the
        # polished roots are merged by the same rule
        root = max(newton_roots(GOLDEN_POLY), key=lambda z: z.imag)
        step = apart * charpoly.DEDUPE_TOL * abs(root)
        points = np.array([root - step, root + step])
        polished.clear()  # count only what _distinct_roots polishes
        roots = [r.value for r in charpoly._distinct_roots(GOLDEN_POLY, points)]
        assert len(polished) == polishes
        assert len(roots) == 2
        assert roots[1] == roots[0].conjugate()
        assert abs(roots[1] - root) <= 1e-9

    @given(points=ROOT_POINTS)
    @settings(max_examples=400, deadline=None)
    def test_reduction_matches_the_brute_force_definition(self, points):
        handed = []  # the points handed to _polish
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(charpoly, "_polish", lambda p, pts: handed.extend(pts) or [])
            charpoly._distinct_roots(GOLDEN_POLY, points)
        want = brute_force_distinct(points)
        assert [(z.real, z.imag) for z in handed] == [(z.real, z.imag) for z in want]
        assert all(type(z) is complex and z.imag >= 0 for z in handed)

    def test_non_finite_points_are_dropped(self, polished):
        bad = [complex(math.inf, 0.0), complex(math.nan, 1.0), complex(1.0, -math.inf)]
        polished.clear()
        assert charpoly._distinct_roots(GOLDEN_POLY, bad) == [] and polished == []
        root = max(newton_roots(GOLDEN_POLY), key=lambda z: z.imag)
        # a finite point whose modulus is past the float range is polished and dropped
        roots = charpoly._distinct_roots(GOLDEN_POLY, np.array(bad + [1.5e308 + 1.5e308j, root]))
        assert [r.value for r in roots] == [root.conjugate(), root]

    @pytest.mark.parametrize("poly", [GOLDEN_POLY, UNSTABLE_POLY,
                                      MIXED_INTEGER_POLY])
    def test_polishes_only_distinct_roots(self, poly, polished):
        roots = newton_roots(poly)
        assert roots
        assert len(polished) <= 2 * len(roots)

    @pytest.mark.parametrize("terms, want", [([(3.0, 0.0)], []), ([(2.0, 1.5)], [0j])],
                             ids=["constant", "zero-root"])
    def test_single_term(self, terms, want):
        # c s^e has no root s != 0: s = 0 is one when e > 0
        assert newton_roots(FracPoly.from_terms(terms)) == want

    @pytest.mark.parametrize("poly", [GOLDEN_POLY, UNSTABLE_POLY,
                                      FracPoly.from_terms([(1.0, 2.0), (3.0, 1.0), (1.0, 0.0)])])
    def test_roots_are_builtin_complex(self, poly):
        found = newton_roots(poly) + (commensurate_roots(poly) or [])
        assert found
        assert all(type(z) is complex for z in found)


class TestScalingInvariance:
    @given(factor=st.floats(1e-3, 1e3))
    @settings(max_examples=15, deadline=None)
    def test_positive_scaling_changes_nothing(self, factor):
        base = find_roots(GOLDEN_POLY)
        scaled = find_roots(FracPoly.from_terms((factor * c, e) for c, e in GOLDEN_POLY.terms))
        assert scaled.verdict == base.verdict
        assert set_distance([r.value for r in base.roots],
                            [r.value for r in scaled.roots]) < 1e-6


class TestCommensurateNewtonAgreement:
    @pytest.mark.parametrize("seed", range(20))
    def test_integer_polynomials(self, seed):
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(2, 7))
        poly = integer_fracpoly(random_conjugate_closed_roots(rng, degree))
        newton = newton_roots(poly)
        companion = commensurate_roots(poly)
        assert companion is not None
        assert set_distance(newton, companion) < 1e-6

    def test_non_commensurate_returns_none(self):
        assert commensurate_roots(GOLDEN_POLY) is None


def classified(roots, complete):
    """(verdict, caveat) of a report on `roots`, its count matching them when `complete`."""
    report = StabilityReport(roots=tuple(RootResult(z, 0.0) for z in roots),
                             verdict=classify_stability(roots, complete), method="newton-grid",
                             root_count=len(roots) if complete else None)
    return report.verdict, report.coverage_caveat


class TestClassify:
    def test_stable_pair(self):
        # not known to be complete: stable, with the coverage caveat
        assert classified([-1 + 6j, -1 - 6j], False) == ("stable", True)

    def test_unstable_with_extra_root(self):
        verdict, caveat = classified([-1 + 6j, -1 - 6j, 1.98 + 0j], False)
        assert verdict == "unstable"
        assert not caveat

    def test_empty_inconclusive(self):
        assert classify_stability([], False) == "inconclusive"

    def test_commensurate_certifies(self):
        verdict, caveat = classified([-1 + 0j], True)
        assert verdict == "stable"
        assert not caveat

    def test_complete_empty_set_is_stable(self):
        assert classified([], True) == ("stable", False)

    def test_caveat_is_derived_not_given(self):
        with pytest.raises(TypeError):
            StabilityReport(roots=(), verdict="inconclusive", method="newton-grid",
                            coverage_caveat=False, root_count=None)
        # the count's own mismatch, not the method, sets it
        report = StabilityReport(roots=(RootResult(-1 + 0j, 0.0),), verdict="stable",
                                 method="commensurate", root_count=2)
        assert report.coverage_caveat


def commensurate_fracpoly(roots, m):
    """Polynomial in w = s^(1/m) with the given roots w."""
    coeffs = np.real(np.poly(roots))
    degree = len(roots)
    return FracPoly.from_terms((c, (degree - i) / m) for i, c in enumerate(coeffs))


def root_count(poly):
    pn = normalize(poly)
    coeffs = np.array(pn.coefficients, dtype=complex)
    expts = np.array(pn.exponents, dtype=float)
    return charpoly._root_count(coeffs, expts, *charpoly._bounds(coeffs, expts))


class TestRootCount:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_companion_matrix(self, seed, m):
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(2, 7))
        poly = commensurate_fracpoly(random_conjugate_closed_roots(rng, degree), m)
        assert root_count(poly) == len(commensurate_roots(poly))

    @pytest.mark.parametrize("plant", [Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0),
                                       Plant(a0=1.0, a1=0.5, a2=0.8, alpha=1.5, beta=0.5)])
    @pytest.mark.parametrize("K, Ti", [(5.0, 4.0), (2.0, 1.0), (10.0, 8.0), (3.0, 0.5)])
    def test_half_order_pi(self, plant, K, Ti):
        poly = char_poly_pi(plant, PiController(K=K, Ti=Ti, lam=0.5))
        assert charpoly.commensurate_base(poly) == 2
        assert root_count(poly) == len(commensurate_roots(poly))

    def test_count_doubles_its_samples(self, monkeypatch):
        # s^(12 sqrt 2) turns the phase by about 17 pi along the arc |s| = R0: the
        # search's 64 samples per segment leave steps above pi / 4, so the count
        # doubles them.  It counts 18 from the search's first samples and from its own
        poly = FracPoly.from_terms([(1.0, 12 * math.sqrt(2)), (2.0, math.sqrt(3)), (3.0, 0.0)])
        sizes = []
        template = charpoly._count_template
        monkeypatch.setattr(charpoly, "_count_template", lambda n: sizes.append(n) or template(n))
        report = find_roots(poly)
        assert report.method == "newton-grid"
        assert sizes and min(sizes) > charpoly._COUNT_MIN_SAMPLES
        assert report.root_count == root_count(poly) == 18

    def test_root_on_the_cut_gives_none(self):
        poly = integer_fracpoly([-2.0, -0.5 + 3j, -0.5 - 3j])  # s = -2 lies on the cut
        assert root_count(poly) is None
        assert set_distance(newton_roots(poly), commensurate_roots(poly)) < 1e-6

    @pytest.mark.parametrize("kappa", [0.1, 5.0])
    @pytest.mark.parametrize("poly", [GOLDEN_POLY, UNSTABLE_POLY], ids=["golden", "unstable"])
    def test_scaled_variable_scales_the_roots(self, poly, kappa):
        # P(s / kappa) has the roots kappa * s; at kappa = 5 the golden pair
        # moves to -5 +- 30i
        base = find_roots(poly)
        scaled = find_roots(FracPoly.from_terms((c * kappa ** -e, e) for c, e in poly.terms))
        want = [kappa * r.value for r in base.roots]
        found = set_distance([r.value for r in scaled.roots], want) < 1e-9 * kappa
        assert scaled.root_count == len(want)
        assert found and not scaled.coverage_caveat
        assert scaled.verdict == base.verdict

    def test_unmatched_count_falls_back_and_keeps_the_caveat(self, monkeypatch, caplog):
        monkeypatch.setattr(charpoly, "_root_count", lambda *args: 4)
        with caplog.at_level(logging.WARNING, logger="fracreg"):
            report = find_roots(GOLDEN_POLY)
        # the pass never fills the count: every start runs
        assert (report.search.starts, report.search.end) == (STARTS, "every start")
        assert [r.value for r in report.roots] == pytest.approx([-1 - 6j, -1 + 6j], abs=5e-2)
        assert report.root_count == 4
        assert report.verdict == "stable" and report.coverage_caveat
        assert "found 2 distinct roots where the argument principle counts 4" in caplog.text

    def test_count_exposes_roots_the_grid_misses(self, caplog):
        # w-roots of seed 7 map to s = -64.4 +- 30.1i and 15.3: the pair lies far
        # outside |s| = 28, yet inside the annulus the starts span
        rng = np.random.default_rng(7)
        degree = int(rng.integers(2, 7))
        poly = commensurate_fracpoly(random_conjugate_closed_roots(rng, degree), 3)
        with caplog.at_level(logging.WARNING, logger="fracreg"):
            roots = newton_roots(poly)
        want = commensurate_roots(poly)
        assert want == pytest.approx([-64.4 - 30.1j, -64.4 + 30.1j, 15.3], abs=0.05)
        assert roots == pytest.approx(want, rel=1e-9)
        assert root_count(poly) == 3 and not caplog.records

    def test_warning_is_silent_by_default(self):
        # a fresh interpreter has no log handler anywhere, unlike pytest
        code = ("from fracreg import charpoly\n"
                "from fracreg.model import FracPoly\n"
                "charpoly._root_count = lambda *args: 4\n"
                "poly = FracPoly.from_terms([(0.8, 2.2), (0.5, 0.9), (6.9, 0.72), (25.0, 0.0)])\n"
                "print(charpoly.find_roots(poly).root_count)\n")
        src = str(Path(charpoly.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout == "4\n" and done.stderr == ""


#: The Newton starts of a search: 8 rings of 6.
STARTS = charpoly._RINGS.size * charpoly._ANGLES.size


def resolve_as(monkeypatch, resolved):
    """Every Newton run (`_newton_run`, which only the pass calls) that converges reports
    its point as `resolved`: with False no fill ends a pass, and every counted search runs
    every start."""
    run = charpoly._newton_run
    monkeypatch.setattr(charpoly, "_newton_run", lambda *args: (
        (found := run(*args))[0], resolved and found[0] is not None, found[2]))


@pytest.fixture
def every_start(monkeypatch):
    """No fill ends a Newton pass: every counted search runs Newton from every start."""
    resolve_as(monkeypatch, False)


class TestCountTerminatedSearch:
    """A counted search ends once its roots match the count; else every start runs."""

    def test_golden_evaluations(self, monkeypatch):
        calls = []

        class CountingNumpy:
            """numpy, recording each name looked up on it and the shape of each complex
            argument of its `exp` and `log`."""

            def __getattr__(self, name):
                calls.append(name)
                return getattr(np, name)

            @staticmethod
            def exp(x):
                if np.iscomplexobj(x):
                    calls.append(("exp", np.shape(x)))
                return np.exp(x)

            @staticmethod
            def log(x):
                if np.iscomplexobj(x):
                    calls.append(("log", np.shape(x)))
                return np.log(x)

        run = charpoly._newton_run

        def marking(*args):
            calls.append("run")
            return run(*args)

        monkeypatch.setattr(charpoly, "np", CountingNumpy())
        monkeypatch.setattr(charpoly, "_newton_run", marking)
        find_roots(GOLDEN_POLY)
        # one evaluation of its 4 terms gives the count's first 2 x 64 samples and its
        # eps point, and P and s P' at the 8 rings of 6 starts; no log s is taken
        points = 2 * 64 + 1 + STARTS
        assert [c for c in calls if isinstance(c, tuple)] == [("exp", (points, 4))]
        # its Newton runs are scalar, and a start becomes a Python complex with no numpy call
        first = calls.index("run")
        assert calls[first:] == ["run"] * (len(calls) - first)

    @pytest.mark.parametrize("gap", [1e-7, 2e-6])
    @pytest.mark.parametrize("root", [-0.5 + 3j, 1 + 1j, -2 + 0.5j])
    def test_near_double_root_same_result_as_every_iteration(self, root, gap, monkeypatch):
        # |P'| is small near the pair: its converged iterates spread further apart
        # than DEDUPE_TOL |s|, none of them resolved, and the pass must not stop on
        # them. Its roots stand only when they match the count; else every start decides
        pair = [root, root + gap * (1 + 0.3j)]
        roots = pair + [z.conjugate() for z in pair]
        poly = integer_fracpoly(roots)
        found, count, _ = charpoly._newton_search(poly, normalize(poly))
        resolve_as(monkeypatch, False)
        every = charpoly._newton_search(poly, normalize(poly))[:2]
        assert (found, count) == every or len(found) == count == 4 != len(every[0])
        assert all(min(abs(r.value - z) for z in roots) < 1e-5 for r in found)

    def test_unknown_count_runs_every_iteration(self):
        poly = integer_fracpoly([-2.0, -0.5 + 3j, -0.5 - 3j])  # s = -2 lies on the cut
        assert root_count(poly) is None
        _, count, record = charpoly._newton_search(poly, normalize(poly))
        assert count is None and (record.starts, record.end) == (STARTS, "every start")
        assert 0 < record.resolved <= STARTS and record.evaluations >= STARTS

    @staticmethod
    def fill_at(monkeypatch, points, count):
        """How many of `points`, a pass's resolved points in run order, end the pass on a
        fill of `count`; None when it runs every start.  The runs give `points`, then
        nothing, and every reduction gives `count` roots, so the first fill ends the pass."""
        runs = iter([(s, True, 1) for s in points])
        monkeypatch.setattr(charpoly, "_root_count", lambda *args: count)
        monkeypatch.setattr(charpoly, "_newton_run", lambda *args: next(runs, (None, False, 1)))
        monkeypatch.setattr(charpoly, "_distinct_roots", lambda p, pts: [None] * count)
        record = charpoly._newton_search(GOLDEN_POLY, normalize(GOLDEN_POLY))[2]
        return record.starts if record.end == "fill" else None

    @pytest.mark.parametrize("points, count, want", [
        ([-1 + 6j], 2, 1),  # a pair off the axis counts twice
        ([-1 + 6j, -1 - 6j + 1e-9], 3, None),  # its conjugate is the same root
        ([-2.0 + 1e-12j, 3.0, -1 + 6j], 4, 3),  # within DEDUPE_TOL |s| of the axis: once
        ([-2.0 + 1e-12j, 3.0, -1 + 6j, -1 - 6j + 1e-9], 5, None),
        ([1e-7, -1e-7], 2, 2),  # 2e-7 apart, though both lie within DEDUPE_TOL of 0
        ([1e4 + 1e4j, 1e4 + 1e-3 + 1e4j], 3, None),  # 1e-3 apart at |s| ~ 1.4e4: one root
        ([-1 + 6j, -1 + 6.00001j], 4, 2),  # 1e-5 apart at |s| ~ 6: two roots
    ], ids=["pair", "conjugate", "near-axis", "near-axis-conjugate", "small-reals",
            "far-pair", "close-pairs"])
    def test_resolved_points_fill_by_the_relative_rule(self, monkeypatch, points, count, want):
        assert self.fill_at(monkeypatch, points, count) == want

    def test_unresolved_points_fill_nothing(self, monkeypatch):
        # at a double pair the runs converge unresolved, to points further apart than
        # DEDUPE_TOL |s|: had they counted, they would have filled the count
        pn = integer_fracpoly([-0.5 + 3j, -0.5 + 3j, -0.5 - 3j, -0.5 - 3j])
        assert root_count(pn) == 4
        record = charpoly._newton_search(pn, normalize(pn))[2]
        # no fill stopped the pass: every start ran, and none ended resolved
        assert (record.starts, record.resolved, record.end) == (STARTS, 0, "every start")
        resolve_as(monkeypatch, True)
        record = charpoly._newton_search(pn, normalize(pn))[2]
        assert record.end == "every start after a fill" and record.resolved > 2

    def test_no_start_converges(self):
        # s^q + 1 with q = 1/sqrt(2): s^q = -1 needs arg s = pi / q > pi, so no root
        # lies on the principal sheet; the count of 0 needs no search
        poly = FracPoly.from_terms([(1.0, 0.7071067811865476), (1.0, 0.0)])
        report = find_roots(poly)
        assert report.search == charpoly.SearchRecord(0, 0, 0, "count 0")
        assert report.roots == ()
        assert (report.verdict, report.coverage_caveat, report.root_count) == ("stable", False, 0)

    def test_small_root_is_found(self):
        # 1.627 s^0.392 - 0.347 after normalization: its root s ~ 0.0195 lies
        # inside the annulus the starts span, far below |s| = 1
        poly = FracPoly.from_terms([(1.6268296520103307, 3.3684615483956564),
                                    (-0.34704463136763036, 2.9760253744499243)])
        report = find_roots(poly)
        values = [r.value for r in report.roots]
        assert values[0] == 0j and values[1] == pytest.approx(0.0195109, rel=1e-5)
        assert values[1].imag == 0.0 and len(values) == 2
        assert (report.verdict, report.coverage_caveat, report.root_count) == ("unstable", False, 2)

    @pytest.mark.parametrize("name, size", [("_RINGS", 8), ("_ANGLES", 6)],
                             ids=["rings", "angles"])
    def test_shared_start_templates_are_read_only(self, name, size):
        template = getattr(charpoly, name)
        assert template.shape == (size,)
        with pytest.raises(ValueError, match="read-only"):
            template[0] = 1.0


#: The golden, unstable and `seeded_pd_poly` polynomials, by case name.
PD_POLYS = {"golden": GOLDEN_POLY, "unstable": UNSTABLE_POLY,
            **{f"seed{seed}": seeded_pd_poly(seed) for seed in range(50)}}
#: find_roots of PD_POLYS, by case name, from the search that ran a ranked stage of 8
#: scalar runs and then the vectorized grid.
STORED_PD_ROOTS = {report.pop("case"): report for report in json.loads(
    Path(__file__).with_name("stored_pd_roots.json").read_text())["reports"]}


class TestRankedStage:
    """A positive count is sought by one Newton pass over the ranked starts, ended by a fill."""

    @pytest.mark.parametrize("name", PD_POLYS)
    def test_fills_the_count_without_the_grid(self, name):
        report = find_roots(PD_POLYS[name])
        stored = STORED_PD_ROOTS[name]
        assert (report.verdict, report.root_count, report.coverage_caveat) \
            == (stored["verdict"], stored["root_count"], stored["coverage_caveat"])
        assert len(report.roots) == len(stored["roots"]) == report.root_count
        for r, (re, im) in zip(report.roots, stored["roots"]):
            assert abs(r.value - complex(re, im)) <= 1e-11 * abs(complex(re, im))
        # one pass, ended by its fill before the last start
        assert report.search.starts < STARTS and report.search.end == "fill"
        if name == "seed40":  # its real root is reached from the 9th-ranked start only
            assert report.search.starts == 9

    def test_bounded_work_before_a_fallback(self, monkeypatch):
        # the golden pair fills 2 of a count of 4: the pass runs every start, each for
        # at most MAX_ITER evaluations, and leaves the count short
        monkeypatch.setattr(charpoly, "_root_count", lambda *args: 4)
        report = find_roots(GOLDEN_POLY)
        assert report.search.starts == STARTS
        assert 0 < report.search.evaluations <= STARTS * charpoly.MAX_ITER
        assert report.root_count == 4 and len(report.roots) == 2 and report.coverage_caveat


class TestSearchRecord:
    """`find_roots` keeps the SearchRecord of its Newton search on the report as `search`.

    The cut-root and count-0 records are checked by `test_unknown_count_runs_every_iteration`
    and `test_no_start_converges`."""

    def test_golden_search_ends_on_a_fill(self):
        record = find_roots(GOLDEN_POLY).search
        assert record.end == "fill" and 0 < record.resolved <= record.starts < STARTS
        assert record.starts <= record.evaluations <= record.starts * charpoly.MAX_ITER

    def test_commensurate_report_has_no_record(self):
        report = find_roots(MIXED_INTEGER_POLY)
        assert report.method == "commensurate" and report.search is None

    def test_record_enters_neither_equality_nor_repr(self):
        report = find_roots(GOLDEN_POLY)
        other = dataclasses.replace(report, search=charpoly.SearchRecord(48, 0, 48, "every start"))
        assert other.search != report.search and other == report
        assert repr(other) == repr(report) and "search" not in repr(report)


class TestRootAtZero:
    """When no term survives at s = 0, both finders report the root 0j exactly."""

    @pytest.mark.usefixtures("every_start")
    def test_newton_grid(self, caplog):
        with caplog.at_level(logging.WARNING, logger="fracreg"):
            report = find_roots(CANCELLED_POLY)
        values = [r.value for r in report.roots]
        assert report.method == "newton-grid"
        assert values[-1] == 0j and type(values[-1]) is complex
        assert all(abs(v) > 1 for v in values[:-1])  # no spurious root near the origin
        assert report.root_count == len(values) == 3
        assert report.verdict == "unstable" and not report.coverage_caveat
        assert (report.search.starts, report.search.end) == (STARTS, "every start")
        assert not caplog.records

    def test_commensurate(self):
        # s^2 + 6s
        poly = char_poly_pd(Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0),
                            PdController(K=-1.0, Td=2.0, delta=1.0))
        report = find_roots(poly)
        assert report.method == "commensurate"
        assert [r.value for r in report.roots] == [-6.0, 0j]
        assert report.root_count == 2
        assert report.verdict == "unstable" and not report.coverage_caveat

    def test_finders_agree(self):
        newton = newton_roots(CANCELLED_POLY)
        scaled = FracPoly.from_terms([(1.0, 2.5), (3.0, 1.5), (2.0, 0.5)])  # s^0.5 (s + 1)(s + 2)
        assert newton.count(0j) == 1
        assert newton_roots(scaled) == pytest.approx(commensurate_roots(scaled), abs=1e-9)
        assert commensurate_roots(scaled) == pytest.approx([-2.0, -1.0, 0j], abs=1e-12)

    # s^2 + 1e-14, and the same roots from s + 1e-14 s^-1, where P(0) is not defined
    @pytest.mark.parametrize("terms", [((1.0, 2.0), (1e-14, 0.0)), ((1.0, 1.0), (1e-14, -1.0))],
                             ids=["constant", "negative-exponent"])
    def test_pair_near_zero_is_not_put_on_it(self, terms):
        # the roots +-1e-7i lie within DEDUPE_TOL of the real axis, and P(0) passes
        # the residual test; they stay a pair on the imaginary axis
        report = find_roots(FracPoly(terms))
        values = [r.value for r in report.roots]
        assert values == pytest.approx([-1e-7j, 1e-7j], abs=1e-20)
        assert values[1] == values[0].conjugate() and values[0].real == 0
        assert report.root_count == 2
        assert (report.verdict, report.coverage_caveat) == ("stable", False)  # Re s > 0 rule

    # s^2 - 1e-14, and the same roots from s - 1e-14 s^-1, where P(0) is not defined
    @pytest.mark.parametrize("terms", [((1.0, 2.0), (-1e-14, 0.0)), ((1.0, 1.0), (-1e-14, -1.0))],
                             ids=["constant", "negative-exponent"])
    def test_real_pair_near_zero_is_two_roots(self, terms):
        # the roots +-1e-7 lie within DEDUPE_TOL of each other, but 2 |s| apart
        report = find_roots(FracPoly(terms))
        assert [r.value for r in report.roots] == pytest.approx([-1e-7, 1e-7], rel=1e-15, abs=0)
        assert report.root_count == len(report.roots) == 2
        assert (report.verdict, report.coverage_caveat) == ("unstable", False)

    # a commensurate root set is complete; a newton-grid one need not be
    @pytest.mark.parametrize("complete", [pytest.param(False, id="newton-grid"),
                                          pytest.param(True, id="commensurate")])
    def test_classified_unstable(self, complete):
        assert classified([-6.0 + 0j, 0j], complete) == ("unstable", False)
