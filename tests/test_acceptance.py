"""Acceptance gate: the end-to-end criteria for the toolkit.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure).  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import binom, gamma

from fracreg.charpoly import (commensurate_roots, eval_fracpoly, find_roots,
                              newton_roots)
from fracreg.cli import main
from fracreg.design import (DesignSpecPd, DesignSpecPi, design_pd_fractional,
                            design_pd_integer, design_pi)
from fracreg.glcalc import SampledSignal, gl_coefficients, gl_series
from fracreg.model import (PdController, Plant, build_pd_model, build_pi_model,
                           char_poly_pd, char_poly_pi)
from fracreg.simulate import (SimConfig, simulate_direct, simulate_state_space,
                              steady_state_estimate)

PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
POLE = -1 + 6j


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def golden_design():
    t0 = time.perf_counter()
    ctrl = design_pd_fractional(DesignSpecPd(plant=PLANT, pole=POLE, ess_percent=4.0))
    return ctrl, time.perf_counter() - t0


@pytest.fixture(scope="module")
def golden_runs(golden_design):
    ctrl, _ = golden_design
    model = build_pd_model(PLANT, ctrl)
    runs = {}
    t0 = time.perf_counter()
    for h in (0.001, 0.0005):
        cfg = SimConfig(step=h, t_end=12.0)
        runs[h] = (simulate_state_space(model, cfg), simulate_direct(PLANT, ctrl, cfg))
    return runs, time.perf_counter() - t0


def test_criterion_1_golden_design(golden_design):
    ctrl, elapsed = golden_design
    residual = abs(eval_fracpoly(char_poly_pd(PLANT, ctrl), POLE))
    ok = (
        ctrl.K == 24.0
        and abs(ctrl.Td - 6.9407) <= 1e-3
        and abs(ctrl.delta - 0.71859) <= 1e-3
        and residual <= 1e-8 * 25
        and elapsed < 1.0
    )
    report(
        "criterion 1: golden PD^delta design",
        ok,
        f"K={ctrl.K:g} Td={ctrl.Td:.5f} delta={ctrl.delta:.5f} "
        f"residual={residual:.2e} time={elapsed:.3f}s",
    )


def test_criterion_2_design_identities(golden_design):
    ctrl, _ = golden_design
    product = ctrl.Td ** 2 * 37 ** ctrl.delta
    angle = math.atan(2.9839) * 1.8098 / math.pi
    ok = abs(product - 645.2174) / 645.2174 <= 1e-3 and abs(ctrl.delta - angle) <= 1e-3
    report(
        "criterion 2: closed-form identities",
        ok,
        f"Td^2*37^delta={product:.4f} delta-arctan-form={angle:.6f}",
    )


def test_criterion_3_integer_pd():
    ctrl = design_pd_integer(DesignSpecPd(plant=PLANT, pole=POLE))
    ok = abs(ctrl.K - 36.0854) <= 1e-3 and abs(ctrl.Td - 4.0141) <= 1e-3
    report("criterion 3: integer PD design", ok, f"K={ctrl.K:.4f} Td={ctrl.Td:.4f}")


def test_criterion_4_unstable_design(tmp_path):
    ctrl = design_pd_fractional(DesignSpecPd(plant=PLANT, pole=POLE, ess_percent=2.0))
    rep = find_roots(char_poly_pd(PLANT, ctrl))
    real_roots = [r.value.real for r in rep.roots if abs(r.value.imag) < 1e-6]
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "plant": {"a0": 1.0, "a1": 0.5, "a2": 0.8, "alpha": 2.2, "beta": 0.9},
        "design": {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "ess": 2.0},
    }))
    exit_code = main(["design", "--config", str(config)])
    ok = (
        ctrl.K == 49.0
        and abs(ctrl.Td - (-79.744)) <= 0.01
        and abs(ctrl.delta - (-0.55194)) <= 1e-3
        and any(abs(r - 1.98) <= 0.02 for r in real_roots)
        and rep.verdict == "unstable"
        and exit_code == 4
    )
    report(
        "criterion 4: unstable 2% design",
        ok,
        f"K={ctrl.K:g} Td={ctrl.Td:.5f} delta={ctrl.delta:.5f} "
        f"real_roots={[round(r, 4) for r in real_roots]} verdict={rep.verdict} exit={exit_code}",
    )


def test_criterion_5_simulation_fidelity(golden_runs):
    runs, _ = golden_runs
    traj, _ = runs[0.001]
    mean, spread = steady_state_estimate(traj, window=2.0)
    x1, x2 = traj.states
    cx, cy = np.mean(x1[-2000:]), np.mean(x2[-2000:])
    radius = np.hypot(x1 - cx, x2 - cy)
    peaks = [radius[k] for k in range(1, len(radius) - 1)
             if radius[k] >= radius[k - 1] and radius[k] > radius[k + 1]]
    spiral = len(peaks) >= 5 and all(a > b for a, b in zip(peaks, peaks[1:]))
    ok = 0.955 <= mean <= 0.965 and spread < 0.01 and spiral
    report(
        "criterion 5: step response and stable focus",
        ok,
        f"trailing mean={mean:.4f} spread={spread:.2e} peaks={len(peaks)} decreasing={spiral}",
    )


def test_criterion_6_oracle_equivalence(golden_runs):
    runs, elapsed = golden_runs
    gaps = {}
    for h, (ss, direct) in runs.items():
        gaps[h] = float(np.max(np.abs(ss.output - direct.output)))
    ratio = gaps[0.001] / gaps[0.0005]
    ok = gaps[0.001] <= 0.02 and 1.6 <= ratio <= 2.4 and elapsed < 30.0
    report(
        "criterion 6: state-space vs direct solver",
        ok,
        f"max|dy|(h=1e-3)={gaps[0.001]:.4f} ratio={ratio:.2f} sim_time={elapsed:.2f}s",
    )


def test_criterion_7_gl_operator():
    h = 0.001
    t = np.arange(0, 1.0 + h / 2, h)
    series = gl_series(SampledSignal(step=h, values=t ** 2), 0.5)
    exact = gamma(3) / gamma(2.5) * t ** 1.5
    mask = t >= 0.1
    rel_err = float(np.max(np.abs(series.values[mask] - exact[mask]) / exact[mask]))

    coeff_ok = True
    worst = 0.0
    for order in (-1.2, 0.3, 0.5, 1.5, 2.2):
        coeffs = gl_coefficients(order, 64).coeffs
        oracle = (-1.0) ** np.arange(65) * binom(order, np.arange(65))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(coeffs - oracle) / np.maximum(np.abs(oracle), 1e-280)
        worst = max(worst, float(np.max(rel)))
        coeff_ok = coeff_ok and np.all(rel <= 1e-10)
    ok = rel_err <= 0.01 and coeff_ok
    report(
        "criterion 7: GL operator correctness",
        ok,
        f"half-derivative rel err={rel_err:.4f} worst coeff rel err={worst:.2e}",
    )


def test_criterion_8_pi_properties():
    plant = Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0)
    poles = tuple(np.roots([1.0, 4.0, 6.0, 4.0]))  # planted (K=5, Ti=4, lam=1)
    ctrl = design_pi(DesignSpecPi(plant=plant, poles=poles))
    recovered = (
        abs(ctrl.K - 5.0) <= 1e-6 and abs(ctrl.Ti - 4.0) <= 1e-6 and abs(ctrl.lam - 1.0) <= 1e-6
    )
    poly = char_poly_pi(plant, ctrl)
    residual_ok = all(
        abs(eval_fracpoly(poly, p)) <= 1e-8 * abs(plant.a0 + ctrl.K) for p in poles
    )
    traj = simulate_state_space(build_pi_model(plant, ctrl), SimConfig(step=0.005, t_end=15.0))
    mean, _ = steady_state_estimate(traj, window=2.0)
    steady_ok = abs(mean - 1.0) <= 0.01
    ok = recovered and residual_ok and steady_ok
    report(
        "criterion 8: PI^lambda properties",
        ok,
        f"K={ctrl.K:.6f} Ti={ctrl.Ti:.6f} lam={ctrl.lam:.6f} steady={mean:.4f}",
    )


def test_criterion_9_commensurate_completeness():
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(2, 7))
        roots = []
        while len(roots) < degree:
            if degree - len(roots) >= 2 and rng.random() < 0.5:
                z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 4))
                cand = [z, z.conjugate()]
            else:
                cand = [complex(rng.uniform(-4.5, 4.5), 0.0)]
            if all(abs(a - b) > 0.3 for a in cand for b in roots) and all(
                abs(a) <= 5 for a in cand
            ):
                roots.extend(cand)
        coeffs = np.real(np.poly(roots))
        from fracreg.model import FracPoly

        poly = FracPoly.from_terms((c, float(degree - i)) for i, c in enumerate(coeffs))
        newton = newton_roots(poly)
        companion = commensurate_roots(poly)
        agree = (
            companion is not None
            and len(newton) == len(companion)
            and all(min(abs(a - b) for b in companion) <= 1e-6 for a in newton)
            and all(min(abs(a - b) for b in newton) <= 1e-6 for a in companion)
        )
        if not agree:
            failures.append(seed)
    ok = not failures
    report(
        "criterion 9: newton-grid vs companion on 100 seeds",
        ok,
        f"failures={failures}" if failures else "100/100 agree",
    )
