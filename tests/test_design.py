import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracreg import design
from fracreg.charpoly import NEWTON_TOL, eval_fracpoly, find_roots
from fracreg.design import (RESIDUAL_REL_TOL, DesignSpecPd, DesignSpecPi,
                            _pd_branch_candidates, _pi_columns, _pi_det, _pi_equations,
                            _pi_gains, _pi_lattice, _pi_root, _pi_terms, _placed, _unit_det,
                            design_pd_fractional, design_pd_integer, design_pi,
                            gain_from_ss_error)
from fracreg.errors import NoSolutionError
from fracreg.model import (FracPoly, PdController, PiController, Plant, char_poly_pd,
                           char_poly_pi)

BENCH_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
POLE = -1 + 6j


class TestGainFromSsError:
    def test_four_percent(self):
        assert gain_from_ss_error(1.0, 4.0) == 24.0

    def test_two_percent(self):
        assert gain_from_ss_error(1.0, 2.0) == 49.0

    def test_fifty_percent(self):
        assert gain_from_ss_error(1.0, 50.0) == 1.0

    @pytest.mark.parametrize("ess", [0.0, -1.0, 100.0, 120.0])
    def test_bounds(self, ess):
        with pytest.raises(ValueError):
            gain_from_ss_error(1.0, ess)


class TestDesignPdFractional:
    def test_four_percent_case(self):
        ctrl = design_pd_fractional(DesignSpecPd(plant=BENCH_PLANT, pole=POLE, ess_percent=4.0))
        assert ctrl.K == 24.0
        assert ctrl.Td == pytest.approx(6.9407, abs=1e-3)
        assert ctrl.delta == pytest.approx(0.71859, abs=1e-3)
        assert (ctrl.Td, ctrl.delta) == (6.9407284491566426, 0.7185913332152558)  # bit-exact
        residual = abs(eval_fracpoly(char_poly_pd(BENCH_PLANT, ctrl), POLE))
        assert residual <= 1e-8 * 25

    def test_four_percent_identities(self):
        ctrl = design_pd_fractional(DesignSpecPd(plant=BENCH_PLANT, pole=POLE, ess_percent=4.0))
        assert ctrl.Td ** 2 * 37 ** ctrl.delta == pytest.approx(645.2174, rel=1e-3)
        assert ctrl.delta == pytest.approx(math.atan(2.9839) * 1.8098 / math.pi, abs=1e-3)

    def test_two_percent_case(self):
        ctrl = design_pd_fractional(DesignSpecPd(plant=BENCH_PLANT, pole=POLE, ess_percent=2.0))
        assert ctrl.K == 49.0
        assert ctrl.Td == pytest.approx(-79.744, abs=0.01)
        assert ctrl.delta == pytest.approx(-0.55194, abs=1e-3)
        assert (ctrl.Td, ctrl.delta) == (-79.74426460096011, -0.5519411392070032)  # bit-exact

    def test_planted_integer_solution_recovered(self):
        # plant and pole picked so the exact fractional answer is delta = 1
        plant = Plant(a0=1, a1=1, a2=1, alpha=2, beta=1)
        pole = 2 + 2j
        linear = design_pd_integer(DesignSpecPd(plant=plant, pole=pole))
        ctrl = design_pd_fractional(
            DesignSpecPd(plant=plant, pole=pole, K_override=linear.K)
        )
        assert ctrl.delta == pytest.approx(1.0, abs=1e-6)
        assert ctrl.Td == pytest.approx(linear.Td, abs=1e-6)

    def test_conjugate_pole_gives_same_design(self):
        spec_up = DesignSpecPd(plant=BENCH_PLANT, pole=POLE, ess_percent=4.0)
        spec_dn = DesignSpecPd(plant=BENCH_PLANT, pole=POLE.conjugate(), ess_percent=4.0)
        assert design_pd_fractional(spec_up) == design_pd_fractional(spec_dn)

    def test_real_pole_rejected(self):
        with pytest.raises(ValueError):
            DesignSpecPd(plant=BENCH_PLANT, pole=-2 + 0j, ess_percent=4.0)

    def test_both_gain_specs_rejected(self):
        with pytest.raises(ValueError):
            DesignSpecPd(plant=BENCH_PLANT, pole=POLE, ess_percent=4.0, K_override=24.0)

    def test_no_gain_spec_rejected(self):
        with pytest.raises(ValueError, match="PD design needs ess_percent or K_override"):
            design_pd_fractional(DesignSpecPd(plant=BENCH_PLANT, pole=POLE))

    def test_pole_already_placed_needs_no_derivative(self):
        # s^2 + 2s + 1 + K with K = 4 (e_ss 20 %) has the roots -1 +- 2i: R is 0 there
        plant = Plant(a0=1.0, a1=2.0, a2=1.0, alpha=2.0, beta=1.0)
        assert _pd_branch_candidates(plant, 4.0, -1 + 2j) == [(0.0, 1.0)]
        ctrl = design_pd_fractional(DesignSpecPd(plant=plant, pole=-1 + 2j, ess_percent=20.0))
        assert ctrl == PdController(K=4.0, Td=0.0, delta=1.0)


def pd_residual(plant, ctrl, pole):
    """|P(pole)| of the PD^delta loop and the tolerance a design must meet there."""
    residual = abs(eval_fracpoly(char_poly_pd(plant, ctrl), pole))
    return residual, RESIDUAL_REL_TOL * abs(plant.a0 + ctrl.K)


class TestPdBranchFormula:
    """The PD^delta design is the first closed-form branch within tolerance."""

    @given(re=st.floats(-2.0, -0.5), im=st.floats(3.0, 8.0), ess=st.floats(2.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_sweep_range_design_is_the_first_candidate(self, re, im, ess):
        pole = complex(re, im)
        ctrl = design_pd_fractional(DesignSpecPd(plant=BENCH_PLANT, pole=pole, ess_percent=ess))
        td, delta = _pd_branch_candidates(BENCH_PLANT, ctrl.K, pole)[0]
        assert (ctrl.Td, ctrl.delta) == (td, delta)
        assert abs(delta) < 3
        residual, tol = pd_residual(BENCH_PLANT, ctrl, pole)
        assert residual <= tol

    def test_no_candidate_in_the_order_range_gives_the_smallest_phase_branch(self):
        # a right-half-plane pole whose every branch has |delta| >= 3; the
        # smallest |delta * theta| branch is delta ~ 3.672, not the delta ~ 11.268
        # branch a fixed Newton start used to fall into
        plant = Plant(a0=0.30070129922174715, a1=-1.9629076690716651, a2=1.2268885431551357,
                      alpha=0.823758163392412, beta=0.15790469754154754)
        pole = 0.9467953735487783 + 0.4155707748055969j
        ctrl = design_pd_fractional(DesignSpecPd(plant=plant, pole=pole,
                                                 ess_percent=37.79215923541365))
        assert ctrl.delta == pytest.approx(3.67215, abs=1e-5)
        assert all(abs(d) >= 3 for _, d in _pd_branch_candidates(plant, ctrl.K, pole))
        residual, tol = pd_residual(plant, ctrl, pole)
        assert residual <= tol

    @pytest.mark.parametrize("pole", [3.481503277165808e34 + 6j, -1.72e65 + 2.2j,
                                      5.3e73 + 1e-308j, 4.36e307 - 1e-5j])
    def test_candidates_are_finite_and_warning_free(self, pole):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            candidates = _pd_branch_candidates(BENCH_PLANT, 24.0, pole)
        assert all(math.isfinite(td) and math.isfinite(d) for td, d in candidates)


class TestDesignPdInteger:
    def test_benchmark_values(self):
        ctrl = design_pd_integer(DesignSpecPd(plant=BENCH_PLANT, pole=POLE))
        assert ctrl.K == pytest.approx(36.0854, abs=1e-3)
        assert ctrl.Td == pytest.approx(4.0141, abs=1e-3)
        assert ctrl.delta == 1.0

    def test_residual_is_machine_small(self):
        ctrl = design_pd_integer(DesignSpecPd(plant=BENCH_PLANT, pole=POLE))
        assert abs(eval_fracpoly(char_poly_pd(BENCH_PLANT, ctrl), POLE)) < 1e-9

    def test_matches_the_triangular_solve(self):
        # the 2 x 2 solve of K + Td p = -base by np.linalg.solve, kept as the reference:
        # LAPACK may fuse K's multiply-add, so K may differ from it in its last bits
        rng = np.random.default_rng(34)
        n = 10_000
        poles = 10.0 ** rng.uniform(-3.0, 3.0, n) * np.exp(1j * rng.uniform(0.0, math.pi, n))
        plant = BENCH_PLANT
        for pole in poles.tolist():
            assert pole.imag > 0
            ctrl = design_pd_integer(DesignSpecPd(plant=plant, pole=pole))
            base = plant.a2 * pole ** plant.alpha + plant.a1 * pole ** plant.beta + plant.a0
            K, Td = np.linalg.solve([[1.0, pole.real], [0.0, pole.imag]],
                                    [-base.real, -base.imag]).tolist()
            assert ctrl.Td == Td
            assert abs(ctrl.K - K) <= 2 * math.ulp(max(abs(base.real), abs(pole.real * Td)))

    def test_double_integrator_plant(self):
        # s^2 + Td s + K with poles -1 +- i requires (s+1)^2 + 1 = s^2 + 2s + 2
        plant = Plant(a0=0, a1=0, a2=1, alpha=2, beta=1)
        ctrl = design_pd_integer(DesignSpecPd(plant=plant, pole=-1 + 1j))
        assert ctrl.Td == pytest.approx(2.0)
        assert ctrl.K == pytest.approx(2.0)

    @pytest.mark.parametrize("design, pole", [
        (design_pd_fractional, 4.36e307 - 1e-5j),  # s^alpha overflows a Python complex
        # the pole lies within rounding of the real axis; its residual, 2.1e62, does not overflow
        (design_pd_fractional, 3.481503277165808e34 + 6j),
        (design_pd_fractional, -1.72e65 + 2.2j),  # the branch candidates overflow
        (design_pd_fractional, 5.3e73 + 1e-308j),  # arg(pole) underflows to 0
        (design_pd_integer, 4.36e307 + 1j),
    ])
    def test_pole_past_the_float_range_is_no_solution(self, design, pole):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NoSolutionError):
                design(DesignSpecPd(plant=BENCH_PLANT, pole=pole, ess_percent=4.0))


#: Poles for the conjugation check: conjugate pairs, signed zeros, and inf and NaN parts.
POLE_POOL = [complex(re, im) for re, im in [
    (-1.0, 2.0), (-1.0, -2.0), (-0.0, 2.0), (0.0, -2.0), (-2.0, 0.0), (-2.0, -0.0),
    (0.0, 0.0), (-0.0, -0.0), (math.inf, 1.0), (math.inf, -1.0), (1.0, math.inf),
    (1.0, -math.inf), (-math.inf, 0.0), (math.nan, 0.0), (math.nan, 1.0), (math.nan, -1.0),
    (1.0, math.nan), (math.nan, math.nan), (3.0, 4.0)]]


def pairing_loop_accepts(poles):
    """The pole-by-pole conjugation check that `DesignSpecPi` made before its multiset one."""
    remaining = list(poles)
    while remaining:
        p = remaining.pop()
        if p.imag == 0:
            continue
        try:
            remaining.remove(p.conjugate())
        except ValueError:
            return False
    return True


#: Plants, pole triples and the planted (K, Ti, lambda) that places them.
PLANTED_PI = {
    # (K=5, Ti=4, lam=1): s^3 + 4s^2 + 6s + 4, a pair and a real pole
    "pair-and-real": (Plant(a0=1, a1=4, a2=1, alpha=2, beta=1),
                      tuple(np.roots([1.0, 4.0, 6.0, 4.0])), (5.0, 4.0, 1.0)),
    # (K=10, Ti=6, lam=1): s^3 + 6s^2 + 11s + 6 = (s+1)(s+2)(s+3)
    "three-real": (Plant(a0=1, a1=6, a2=1, alpha=2, beta=1), (-1.0, -2.0, -3.0),
                   (10.0, 6.0, 1.0)),
    # (K=5.5, Ti=4, lam=1): D has a second zero in the sub-cell above lambda = 1, a
    # grid point where D is at its rounding floor and its sign is noise
    "close-second-zero": (Plant(a0=1, a1=4, a2=1, alpha=2, beta=1),
                          tuple(np.roots([1.0, 4.0, 6.5, 4.0])), (5.5, 4.0, 1.0)),
}


class TestDesignPi:
    def test_planted_integer_solution(self):
        for plant, poles, (K, Ti, lam) in PLANTED_PI.values():
            ctrl = design_pi(DesignSpecPi(plant=plant, poles=poles))
            assert ctrl.K == pytest.approx(K, abs=1e-6)
            assert ctrl.Ti == pytest.approx(Ti, abs=1e-6)
            assert ctrl.lam == pytest.approx(lam, abs=1e-6)
            assert ctrl.lam < 6 - plant.alpha

    def test_planted_fractional_solution(self):
        # a pair and a positive real root of the loop (K, Ti, lam) planted below; the
        # three equations in (K, Ti, lam) are the whole spec, and lam is non-integer
        plant = Plant(a0=2.538047827906362, a1=-0.6879414730973837, a2=0.36605332347714054,
                      alpha=2.1825761078, beta=2.119065520739565)
        pair = complex(-5.3648460193412655, 0.2315371485288271)
        poles = (pair, pair.conjugate(), 5.546801374150337)
        ctrl = design_pi(DesignSpecPi(plant=plant, poles=poles))
        assert ctrl.K == pytest.approx(7.727098223464, rel=1e-9)
        assert ctrl.Ti == pytest.approx(7.258310635, rel=1e-9)
        assert ctrl.lam == pytest.approx(1.875820463687, rel=1e-9)
        assert ctrl.lam < 6 - plant.alpha
        poly = char_poly_pi(plant, ctrl)
        for p in poles:
            assert abs(eval_fracpoly(poly, p)) <= RESIDUAL_REL_TOL * abs(plant.a0 + ctrl.K)

    @pytest.mark.parametrize("plant, pair, real, lam", [
        # D peaks at the last grid point, lambda ~ 3.02, and has its one zero in the
        # end cell below 6 - alpha ~ 3.0729
        (Plant(a0=0.06957868573836032, a1=1.190392959013912, a2=1.8378774252396468,
               alpha=2.9271455109750244, beta=2.133643225209931),
         0.0678309836961291 + 0.11496341024171071j, 0.44502984992606087, 3.0607798939591206),
        # the zero lies below an eighth of the first cell (0.0887)
        (Plant(a0=2.7543031285264346, a1=1.4539829112977913, a2=-0.6678558677296476,
               alpha=0.3200396047684751, beta=0.2185424561106571),
         1.5915587254802142 + 0.9751523711631651j, 0.6693627462623546, 0.009797286213165755),
        # a stiff real pole: K r^lam ~ 3e7 against a tolerance of 3.6e-5, so (K, Ti)
        # must fit its row at that row's own scale
        (Plant(a0=2.069836238624559, a1=0.10415164834243429, a2=-1.5875039118198264,
               alpha=2.7190492318041053, beta=2.331594012629902),
         0.07529527034835805 + 0.11518418040135571j, 17.230316685015552, 3.167477080867495),
    ], ids=["last-cell", "first-cell", "stiff-real-pole"])
    def test_hard_placements(self, plant, pair, real, lam):
        poles = (pair, pair.conjugate(), real)
        ctrl = design_pi(DesignSpecPi(plant=plant, poles=poles))
        assert ctrl.lam == pytest.approx(lam, rel=1e-9)
        assert ctrl.lam < 6 - plant.alpha
        poly = char_poly_pi(plant, ctrl)
        for p in poles:
            assert abs(eval_fracpoly(poly, p)) <= RESIDUAL_REL_TOL * abs(plant.a0 + ctrl.K)

    def test_residual_property(self):
        plant = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1)
        poles = tuple(np.roots([1.0, 4.0, 6.0, 4.0]))
        ctrl = design_pi(DesignSpecPi(plant=plant, poles=poles))
        poly = char_poly_pi(plant, ctrl)
        for p in poles:
            assert abs(eval_fracpoly(poly, p)) <= 1e-8 * abs(plant.a0 + ctrl.K)

    def test_infeasible_poles_raise(self):
        # magnitudes 1e6 / 1e-6 / 1: no (K, Ti, lam>0) can satisfy all three;
        # for (-1 +- 2i, -3) the iterates overflow on the way, silently
        cases = [
            (Plant(a0=1, a1=4, a2=1, alpha=2, beta=1),
             (complex(-1e6, 0), complex(-1e-6, 0), complex(-1, 0))),
            (BENCH_PLANT, (-1 + 2j, -1 - 2j, -3 + 0j)),
        ]
        for plant, poles in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NoSolutionError):
                    design_pi(DesignSpecPi(plant=plant, poles=poles))

    def test_pole_past_the_float_range_is_no_solution(self):
        plant, tiny = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1), 4.944583172403107e-124 * (1 + 1j)
        cases = [
            (plant, (-1e300 + 0j, -1 + 1j, -1 - 1j)),  # s^(alpha + lambda) overflows
            (plant, (tiny, tiny.conjugate(), -2.0)),  # |p|^lambda underflows past lambda 2.6
            # the fitted K overflows, or P(1e200) = 1.2e192 misses the bound: neither passes
            (Plant(a0=0, a1=0, a2=1, alpha=1.53125, beta=0), (0j, 0j, 1e200)),
            (Plant(a0=0, a1=0, a2=1, alpha=1, beta=0), (0j, 0j, 1e200)),
        ]
        for plant, poles in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NoSolutionError):
                    design_pi(DesignSpecPi(plant=plant, poles=poles))

    def test_conjugation_closure_required(self):
        with pytest.raises(ValueError):
            DesignSpecPi(plant=BENCH_PLANT, poles=(-1 + 6j, -1 + 5j, -2 + 0j))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            DesignSpecPi(plant=BENCH_PLANT, poles=(-1 + 6j, -1 - 6j))

    @given(poles=st.tuples(*[st.sampled_from(POLE_POOL)] * 3))
    @settings(max_examples=500, derandomize=True, database=None)
    def test_closure_check_matches_the_pairing_loop(self, poles):
        try:
            spec = DesignSpecPi(plant=BENCH_PLANT, poles=poles)
        except ValueError:
            assert not pairing_loop_accepts(poles)
        else:
            assert pairing_loop_accepts(poles)
            # the residual poles as the pairing loop's companion picked them
            paired = [p for p in poles if not (p.imag < 0 and p.conjugate() in poles)]
            assert repr(spec.residual_poles()) == repr(paired)

    def test_real_pole_with_a_nan_part_passes(self):
        nan_pole = complex(math.nan, 0.0)
        spec = DesignSpecPi(plant=BENCH_PLANT, poles=(-1 + 6j, -1 - 6j, nan_pole))
        assert repr(spec.residual_poles()) == repr([-1 + 6j, nan_pole])


def random_pi_specs(rng, n):
    """`n` PI^lambda specs on random plants: a pair and a real pole, or three real poles."""
    for i in range(n):
        alpha = rng.uniform(0.3, 3.0)
        plant = Plant(a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-2.0, 2.0),
                      a2=rng.uniform(-2.0, 2.0), alpha=alpha, beta=rng.uniform(0.0, alpha))
        if i % 2:
            poles = tuple(rng.uniform(-5.0, 5.0, 3).tolist())
        else:
            pair = complex(rng.uniform(-3.0, 1.0), rng.uniform(0.1, 3.0))
            poles = (pair, pair.conjugate(), rng.uniform(-5.0, 5.0))
        yield DesignSpecPi(plant=plant, poles=poles)


#: Planted PI^lambda specs, 20 per lambda range, stored as numbers with the designs
#: recorded for them (the file's "source" says how both were made).
PLANTED_PI_DESIGNS = json.loads(Path(__file__).with_name("planted_pi_designs.json").read_text())


class TestPiScalarArithmetic:
    @pytest.mark.parametrize("seed", range(4))
    def test_determinant_matches_linalg_on_the_lattice(self, seed):
        for spec in random_pi_specs(np.random.default_rng(seed), 10):
            equations = _pi_equations(spec.plant, spec.residual_poles())
            cell = (6.0 - spec.plant.alpha) / 64
            lams = cell * np.arange(1, 512) / 8
            columns = _pi_columns(_pi_terms(equations), lams)
            rows = np.stack(columns, axis=-1).swapaxes(0, 1)  # lambda, row, column
            want = np.linalg.det(rows / np.linalg.norm(rows, axis=2, keepdims=True))
            assert np.isfinite(want).all()
            det, norms = _unit_det(*columns)
            assert np.abs(det / np.sqrt(norms) - want).max() <= 1e-14
            scalar = np.array([_pi_det(equations, lam) for lam in lams.tolist()])
            assert np.abs(scalar - want).max() <= 1e-14

    @pytest.mark.parametrize("lam_range", [(0.05, 0.3), (0.2, 2.5), (1.9, 2.1), (2.5, 3.5)],
                             ids=str)
    def test_stored_planted_designs(self, lam_range):
        entries = [e for e in PLANTED_PI_DESIGNS["specs"] if tuple(e["lambda_range"]) == lam_range]
        assert len(entries) == 20
        for entry in entries:
            spec = DesignSpecPi(plant=Plant(**entry["plant"]),
                                poles=tuple(complex(*p) for p in entry["poles"]))
            want = entry["design"]
            if want is None:
                with pytest.raises(NoSolutionError):
                    design_pi(spec)
                continue
            ctrl = design_pi(spec)
            assert (ctrl.K, ctrl.Ti, ctrl.lam) == pytest.approx(
                (want["K"], want["Ti"], want["lam"]), rel=1e-11, abs=0)

    @pytest.mark.parametrize("poly, pole", [
        (char_poly_pd(BENCH_PLANT, PdController(K=24.0, Td=1.0, delta=0.5)), 1e200 + 1j),
        (char_poly_pi(BENCH_PLANT, PiController(K=5.0, Ti=4.0, lam=1.0)), -1e100 + 0j),
        (FracPoly.from_terms([(1.0, 1e308), (1.0, 0.0)]), -1 + 0.01j),  # the phase overflows
    ], ids=["pd", "pi", "phase"])
    def test_pole_past_the_float_range_is_not_placed(self, poly, pole):
        assert _placed(poly, [POLE, pole]) == (False, math.inf)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def full_lattice_design_pi(spec):
    """`design_pi` as it scanned the whole lambda lattice at once.

    D at every lattice point in one numpy pass, one complex exponential per
    equation row, every sign change refined, and every candidate checked in
    ascending order: the result a chunked scan must give bit for bit.
    """
    plant, reps = spec.plant, spec.residual_poles()
    equations = _pi_equations(plant, reps)
    top = 6.0 - plant.alpha
    cell = top / 64
    lams = np.concatenate([[1e-6 * cell], cell * np.arange(1, 512) / 8, [top - 1e-6 * cell]])
    log_power, a_weight, c_weight, b_weight, k, _ = (
        np.array(column)[:, None] for column in zip(*equations))
    z = np.exp(log_power * lams)
    det, norms = _unit_det((z * a_weight).real, np.exp(-k * lams) * b_weight,
                           (z * c_weight).real)
    values = det / np.sqrt(norms)
    cross = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0).tolist()
    candidates = lams[np.abs(values) <= design._PI_DET_FLOOR].tolist()
    lams, values = lams.tolist(), values.tolist()
    candidates += [_pi_root(equations, lams[i], lams[i + 1], values[i], values[i + 1])
                   for i in cross]
    best = math.inf
    for lam in sorted(filter(math.isfinite, candidates)):
        K, Ti = _pi_gains(equations, lam)
        if not (math.isfinite(K) and math.isfinite(Ti)):
            continue
        ctrl = PiController(K=K, Ti=Ti, lam=lam)
        placed, residual = _placed(char_poly_pi(plant, ctrl), reps)
        if placed:
            return ctrl
        best = min(best, residual)
    raise NoSolutionError(f"PI^lambda design found no lambda in (0, {top:g}) placing poles "
                          f"{spec.poles}; best residual {best:.3g}")


def design_or_error(design_fn, spec):
    """The PiController `design_fn` gives for `spec`, or the message of its NoSolutionError."""
    try:
        return design_fn(spec)
    except NoSolutionError as exc:
        return str(exc)


def planted_pi_spec(rng, alpha, lam):
    """A spec whose poles are roots of a random loop of order `alpha` planted at `lam`, or None.

    The poles are the smallest pair and real root, or the three smallest
    real roots, of the loop's `find_roots`.
    """
    plant = Plant(a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-2.0, 2.0),
                  a2=rng.uniform(-2.0, 2.0), alpha=alpha, beta=rng.uniform(0.0, alpha))
    ctrl = PiController(K=rng.uniform(0.5, 10.0), Ti=rng.uniform(0.5, 8.0), lam=lam)
    try:
        roots = sorted((r.value for r in find_roots(char_poly_pi(plant, ctrl)).roots), key=abs)
    except ValueError:  # a loop that normalizes to fewer than two terms
        return None
    pairs = [z for z in roots if z.imag > 0]
    reals = [z for z in roots if z.imag == 0]
    if pairs and reals:
        return DesignSpecPi(plant=plant, poles=(pairs[0], pairs[0].conjugate(), reals[0]))
    return DesignSpecPi(plant=plant, poles=tuple(reals[:3])) if len(reals) >= 3 else None


def seeded_planted_specs(seed, lam_ranges, n):
    """`n` planted specs per lambda range, drawn as `scripts/root_fingerprint.py` draws them."""
    rng = np.random.default_rng(seed)
    for lo, hi in lam_ranges:
        found = 0
        while found < n:
            spec = planted_pi_spec(rng, rng.uniform(0.3, min(3.0, 5.95 - hi)),
                                   rng.uniform(lo, hi))
            if spec is not None:
                found += 1
                yield spec


def chunk_edge_specs(n):
    """Planted specs whose lambda lies in the lattice step either side of each chunk edge.

    A chunked scan must carry each edge point over to the next chunk, or it
    loses the sign change in the step that ends there.
    """
    rng = np.random.default_rng(3)
    steps = design._PI_GRID_CELLS * design._PI_SUBCELLS
    for edge in range(design._PI_CHUNK, steps, design._PI_CHUNK):
        for side in (-0.5, 0.5):
            found = 0
            while found < n:
                alpha = rng.uniform(0.3, 3.0)
                lams = _pi_lattice(6.0 - alpha)
                step = lams[edge + 1] - lams[edge]
                spec = planted_pi_spec(rng, alpha, lams[edge] + side * step)
                if spec is not None:
                    found += 1
                    yield spec


class TestChunkedPiScan:
    """The chunked scan of `design_pi` gives the design of the full-lattice scan, bit for bit."""

    @staticmethod
    def assert_same_designs(specs):
        for spec in specs:
            assert repr(design_or_error(design_pi, spec)) \
                == repr(design_or_error(full_lattice_design_pi, spec)), spec

    def test_design_sweep_specs(self):
        # the benchmark's PI^lambda specs: planted at lambda = 1 on its plant
        rng = np.random.default_rng(0)
        plant = Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0)
        self.assert_same_designs(
            DesignSpecPi(plant=plant, poles=tuple(np.roots([1.0, 4.0, 1.0 + K, Ti])))
            for K, Ti in zip(rng.uniform(2.0, 10.0, 60), rng.uniform(1.0, 8.0, 60)))

    def test_stored_planted_specs(self):
        self.assert_same_designs(
            DesignSpecPi(plant=Plant(**entry["plant"]),
                         poles=tuple(complex(*p) for p in entry["poles"]))
            for entry in PLANTED_PI_DESIGNS["specs"])

    def test_seeded_planted_specs(self):
        self.assert_same_designs(seeded_planted_specs(
            29, [(0.05, 0.3), (0.2, 2.5), (1.9, 2.1), (2.5, 3.5)], 50))

    def test_specs_by_the_chunk_edges(self):
        self.assert_same_designs(chunk_edge_specs(10))


class TestRoundTrip:
    def test_designed_poly_has_requested_poles(self):
        ctrl = design_pd_fractional(DesignSpecPd(plant=BENCH_PLANT, pole=POLE, ess_percent=4.0))
        report = find_roots(char_poly_pd(BENCH_PLANT, ctrl))
        values = [r.value for r in report.roots]
        for target in (POLE, POLE.conjugate()):
            assert min(abs(v - target) for v in values) <= 10 * NEWTON_TOL

    def test_pi_round_trip(self):
        plant = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1)
        poles = tuple(np.roots([1.0, 4.0, 6.0, 4.0]))
        ctrl = design_pi(DesignSpecPi(plant=plant, poles=poles))
        report = find_roots(char_poly_pi(plant, ctrl))
        values = [r.value for r in report.roots]
        for target in poles:
            assert min(abs(v - target) for v in values) <= 10 * NEWTON_TOL
