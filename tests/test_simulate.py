import warnings

import numpy as np
import pytest
from scipy.signal import lti

from fracreg.errors import DivergedError, ResourceLimitError, SingularStepError
from fracreg.glcalc import _BLOCK, _truncation, gl_coefficients, gl_convolve
from fracreg.charpoly import find_roots
from fracreg.model import (INPUT, FracPoly, PdController, PiController, Plant, Term,
                           build_pd_model, build_pi_model, char_poly_pd, closed_loop)
from fracreg.simulate import (DIVERGENCE_LIMIT, SimConfig, StepInput, Trajectory,
                              _euler_block, _gl_kernels, _input_samples, simulate_direct,
                              simulate_state_space, steady_state_estimate)
from test_glcalc import PerSampleHistory

BENCH_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
GOLDEN_PD = PdController(K=24.0, Td=6.9407, delta=0.71859)
UNSTABLE_PD = PdController(K=49.0, Td=-79.74427, delta=-0.55194)
PI_PLANT = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1)
#: (plant, controller, step): PD^delta (dim 2), PI^lambda (dim 3) and the GL-free PI
#: loop.  The direct PI recurrences are of order 2.7 and 3, so they amplify rounding
#: ~k^2-fold: reversing the reference's own near-lag dot moves its PI output by up
#: to 7e-10 (relative) at h = 2e-3 and 4e-11 at h = 5e-3.
LOOPS = {
    "pd": (BENCH_PLANT, GOLDEN_PD, 0.002),
    "pi": (BENCH_PLANT, PiController(K=2.0, Ti=1.0, lam=0.5), 0.005),
    "pi_integer": (PI_PLANT, PiController(K=5.0, Ti=4.0, lam=1.0), 0.005),
}
#: Step counts on both sides of the 64-step block, and a long run.
BLOCK_EDGES = [10, 63, 64, 65, 127, 128, 129, 4097]


def reference_state_space(model, cfg):
    """(states, output, divergence index or None) from the per-step Euler loop.

    One step at a time: every history sum is read per sample and the newest
    state enters through the j = 0 weights, as the GL sums are written.
    """
    h = cfg.step
    n = cfg.n_steps
    w = _input_samples(cfg, n)
    n_mem = _truncation(n, h, cfg.memory_len)
    x = np.zeros((model.dim, n + 1))

    def series(target):
        return w if target == INPUT else x[target]

    def split(terms):
        scalars, kernels = {}, {}
        for t in terms:
            if t.order == 0:
                scalars[t.target] = scalars.get(t.target, 0.0) + t.gain
            else:
                weights = t.gain * h ** (-t.order) * gl_coefficients(t.order, n_mem).coeffs
                kernels[t.target] = kernels.get(t.target, 0.0) + weights
        return scalars, kernels

    eqs = []
    for row, terms in zip(x, model.state_terms):
        scalars, kernels = split(terms)
        current = [(series(target), c) for target, c in scalars.items()]
        if INPUT in kernels:
            current.append((gl_convolve(kernels.pop(INPUT), w), 1.0))
        current += [(x[target], kernel[0]) for target, kernel in kernels.items()]
        eqs.append((row, current, [PerSampleHistory(kernel, x[target])
                                   for target, kernel in kernels.items()]))
    upto = n + 1
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
            upto = k + 1
            break
    scalars, kernels = split(model.output_terms)
    y = np.zeros(upto)
    for target, c in scalars.items():
        y += c * series(target)[:upto]
    for target, kernel in kernels.items():
        y += gl_convolve(kernel, series(target)[:upto])
    return x[:, :upto], y, upto if upto <= n else None


def reference_direct(plant, ctrl, cfg):
    """(output, divergence index or None) from solving for one sample at a time."""
    h = cfg.step
    n = cfg.n_steps
    w = _input_samples(cfg, n)
    n_mem = _truncation(n, h, cfg.memory_len)
    y_terms, w_terms = closed_loop(plant, ctrl)
    y_scales = [c * h ** (-q) for c, q in y_terms]
    pivot = sum(y_scales)
    drive = gl_convolve(sum(c * h ** (-q) * gl_coefficients(q, n_mem).coeffs
                            for c, q in w_terms), w)
    y = np.zeros(n + 1)
    history = PerSampleHistory(sum(scale * gl_coefficients(q, n_mem).coeffs
                                   for scale, (_, q) in zip(y_scales, y_terms)), y)
    for k in range(n + 1):
        y[k] = (drive[k] - history(k)) / pivot
        if not abs(y[k]) <= DIVERGENCE_LIMIT:
            return y[:k], k
    return y, None


def run(simulate, *args):
    """(trajectory, divergence index or None)."""
    try:
        return simulate(*args), None
    except DivergedError as exc:
        return exc.trajectory, exc.index


def staircase(n):
    """Reference levels 0.5, 0.75, 1, 1.25 switching every 37 samples, off the block grid."""
    return 0.5 + 0.25 * (np.arange(n + 1) // 37 % 4)


@pytest.fixture(scope="module")
def golden_run():
    model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
    return simulate_state_space(model, SimConfig(step=0.001, t_end=12.0))


class TestStateSpace:
    def test_golden_steady_state(self, golden_run):
        mean, spread = steady_state_estimate(golden_run, window=1.0)
        assert 0.955 <= mean <= 0.965  # DC gain K/(a0+K) = 24/25
        assert spread < 0.01

    def test_golden_phase_spiral(self, golden_run):
        x1, x2 = golden_run.states
        cx, cy = np.mean(x1[-2000:]), np.mean(x2[-2000:])
        r = np.hypot(x1 - cx, x2 - cy)
        peaks = [r[k] for k in range(1, len(r) - 1) if r[k] >= r[k - 1] and r[k] > r[k + 1]]
        assert len(peaks) >= 5
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_zero_input_stays_zero(self):
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
        cfg = SimConfig(step=0.01, t_end=2.0, input=StepInput(amplitude=0.0))
        traj = simulate_state_space(model, cfg)
        assert not np.any(traj.output)
        assert not any(np.any(x) for x in traj.states)

    def test_unstable_design_blows_up(self):
        model = build_pd_model(BENCH_PLANT, UNSTABLE_PD)
        try:
            traj = simulate_state_space(model, SimConfig(step=0.001, t_end=12.0))
            assert np.max(np.abs(traj.output)) > 1e3
        except DivergedError:
            pass

    def test_divergence_error_carries_partial_trajectory(self):
        model = build_pd_model(BENCH_PLANT, UNSTABLE_PD)
        with pytest.raises(DivergedError) as err:
            simulate_state_space(model, SimConfig(step=0.001, t_end=20.0))
        assert err.value.index > 0
        assert isinstance(err.value.trajectory, Trajectory)
        assert len(err.value.trajectory.output) == err.value.index

    def test_determinism(self):
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
        cfg = SimConfig(step=0.005, t_end=3.0)
        a = simulate_state_space(model, cfg)
        b = simulate_state_space(model, cfg)
        assert np.array_equal(a.output, b.output)
        assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))

    def test_memory_covering_truncation_is_exact(self):
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
        full = simulate_state_space(model, SimConfig(step=0.005, t_end=3.0))
        trunc = simulate_state_space(
            model, SimConfig(step=0.005, t_end=3.0, memory_len=5.0)
        )
        assert np.array_equal(full.output, trunc.output)

    def test_pi_model_steady_state_is_one(self):
        plant = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1)
        model = build_pi_model(plant, PiController(K=5, Ti=4, lam=1))
        traj = simulate_state_space(model, SimConfig(step=0.005, t_end=15.0))
        mean, spread = steady_state_estimate(traj, window=2.0)
        assert mean == pytest.approx(1.0, abs=0.01)
        assert spread < 0.01

    def test_step_cap(self, monkeypatch):
        monkeypatch.setenv("FRACREG_MAX_STEPS", "100")
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
        with pytest.raises(ResourceLimitError):
            simulate_state_space(model, SimConfig(step=0.001, t_end=1.0))


class TestDirect:
    def test_agrees_with_state_space_on_golden_run(self, golden_run):
        direct = simulate_direct(BENCH_PLANT, GOLDEN_PD, SimConfig(step=0.001, t_end=12.0))
        assert np.max(np.abs(direct.output - golden_run.output)) <= 0.02

    def test_integer_case_matches_closed_form(self):
        # alpha=2, beta=1, delta=1 reduces to an ordinary second-order loop:
        # closed-loop transfer (K + Td s) / (a2 s^2 + (a1+Td) s + a0+K)
        plant = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.0, beta=1.0)
        ctrl = PdController(K=24.0, Td=4.0, delta=1.0)
        cfg = SimConfig(step=0.001, t_end=12.0)
        traj = simulate_direct(plant, ctrl, cfg)
        system = lti([ctrl.Td, ctrl.K], [plant.a2, plant.a1 + ctrl.Td, plant.a0 + ctrl.K])
        _, exact = system.step(T=traj.times)
        assert np.max(np.abs(traj.output - exact)) <= 0.01

    def test_zero_input_zero_output(self):
        cfg = SimConfig(step=0.01, t_end=2.0, input=StepInput(amplitude=0.0))
        traj = simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg)
        assert not np.any(traj.output)

    def test_pi_direct_matches_state_space(self):
        plant = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1)
        ctrl = PiController(K=5, Ti=4, lam=1)
        cfg = SimConfig(step=0.005, t_end=15.0)
        ss = simulate_state_space(build_pi_model(plant, ctrl), cfg)
        direct = simulate_direct(plant, ctrl, cfg)
        assert np.max(np.abs(ss.output - direct.output)) <= 0.05

    def test_error_halves_with_step(self):
        cfg_coarse = SimConfig(step=0.004, t_end=6.0)
        cfg_fine = SimConfig(step=0.002, t_end=6.0)
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)

        def gap(cfg):
            ss = simulate_state_space(model, cfg)
            d = simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg)
            return np.max(np.abs(ss.output - d.output))

        ratio = gap(cfg_coarse) / gap(cfg_fine)
        assert 1.6 <= ratio <= 2.4


def exact_step_response(y_terms, w_terms, roots, t):
    """The exact unit-step response of P(s) Y = N(s) W at the times `t` > 0, in numpy.

    `y_terms` and `w_terms` are `closed_loop`'s sides, P and N as (coeff,
    order) pairs, and `roots` is P's complete set of principal-sheet roots,
    each simple and none at s = 0.  With F = N / (s P), the keyhole contour
    around the cut gives

        y(t) = G0 + sum_p e^(pt) N(p) / (p P'(p))
               + (1/pi) int_0^inf e^(-rt) Im F(r e^(-i pi)) dr,

    where G0 is the limit of N / P at s -> 0, from the lowest-order terms.
    The cut integral is a trapezoid sum in x = log r, with step 0.005 over
    [-80, 60].  F = s^(-1/2) gives 1 / sqrt(pi t).
    """
    P, N = (np.array(FracPoly.from_terms(terms).terms).T for terms in (y_terms, w_terms))
    (c_p, q_p), (c_n, q_n) = P[:, -1], N[:, -1]  # the lowest orders
    if q_n < q_p:
        raise ValueError("N / P is unbounded at s = 0")
    g0 = c_n / c_p if q_n == q_p else 0.0

    def side(terms, log_s, slope=False):
        """sum c s^q at the points of `log_s`, or s times its derivative, sum c q s^q."""
        coeffs, orders = terms
        return np.exp(np.multiply.outer(log_s, orders)) @ (coeffs * orders if slope else coeffs)

    t = np.asarray(t, dtype=float)
    roots = np.array(roots, dtype=complex)
    residues = side(N, np.log(roots)) / side(P, np.log(roots), slope=True)
    y = g0 + (np.exp(np.multiply.outer(t, roots)) @ residues).real
    x = np.linspace(-80.0, 60.0, 28001)  # step 0.005
    log_s = x - 1j * np.pi
    # Im F dr = r Im F dx, and r F = -N / P on the cut's lower side, where s = -r
    cut = np.exp(-np.multiply.outer(t, np.exp(x))) * -(side(N, log_s) / side(P, log_s)).imag
    return y + 0.005 * (cut.sum(axis=-1) - 0.5 * (cut[..., 0] + cut[..., -1])) / np.pi


#: The times the oracle checks the simulations at.
ORACLE_TIMES = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0])


class TestExactStepResponse:
    """Both schemes against the exact response from the roots (`exact_step_response`)."""

    def test_inverse_square_root(self):
        t = np.array([0.1, 1.0, 12.0])
        y = exact_step_response([(1.0, 0.0)], [(1.0, 0.5)], [], t)
        assert np.max(np.abs(y - 1.0 / np.sqrt(np.pi * t))) <= 1e-11

    def test_integer_loop_matches_the_closed_form(self):
        plant = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.0, beta=1.0)
        ctrl = PdController(K=24.0, Td=4.0, delta=1.0)
        report = find_roots(char_poly_pd(plant, ctrl))
        exact = exact_step_response(*closed_loop(plant, ctrl), [r.value for r in report.roots],
                                    ORACLE_TIMES)
        system = lti([ctrl.Td, ctrl.K], [plant.a2, plant.a1 + ctrl.Td, plant.a0 + ctrl.K])
        _, y = system.step(T=np.linspace(0.0, 12.0, 121))  # lti needs a uniform grid
        assert np.max(np.abs(exact - y[np.rint(ORACLE_TIMES / 0.1).astype(int)])) <= 1e-9

    def test_golden_loop_errors_halve_with_step(self):
        report = find_roots(char_poly_pd(BENCH_PLANT, GOLDEN_PD))
        assert report.root_count == len(report.roots)  # a complete root set
        exact = exact_step_response(*closed_loop(BENCH_PLANT, GOLDEN_PD),
                                    [r.value for r in report.roots], ORACLE_TIMES)
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
        errors = {"state space": [], "direct": []}
        for h in (1e-3, 5e-4, 2.5e-4):
            cfg = SimConfig(step=h, t_end=12.0)
            at = np.rint(ORACLE_TIMES / h).astype(int)
            for name, traj in (("state space", simulate_state_space(model, cfg)),
                               ("direct", simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg))):
                errors[name].append(np.max(np.abs(traj.output[at] - exact)))
        for name, (coarse, middle, fine) in errors.items():
            assert 1.6 <= coarse / middle <= 2.4 and 1.6 <= middle / fine <= 2.4, (name, errors)


def stable_lead_loops(seed, n, equal=False):
    """The first `n` PD^delta loops of a seeded draw that `find_roots` finds certainly
    stable, with delta drawn in [alpha, alpha + 0.5], or delta = alpha and |Td| > |a2|
    when `equal`: there a model divided by a2 would carry -(Td / a2) D^1 x2, on which
    explicit Euler grows by |Td / a2| a step.

    Plant: a0 in [0.05, 3], a1 and a2 in [-2, 2], alpha in [0.3, 2.5], beta in
    [0, alpha); controller: K in [0.5, 5], Td in [-2, 2].
    """
    rng = np.random.default_rng(seed)
    loops = []
    while len(loops) < n:
        alpha = rng.uniform(0.3, 2.5)
        plant = Plant(a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-2.0, 2.0),
                      a2=rng.uniform(-2.0, 2.0), alpha=alpha, beta=rng.uniform(0.0, alpha))
        K, Td = rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0)
        delta = alpha if equal else rng.uniform(alpha, min(alpha + 0.5, 2.9))
        ctrl = PdController(K=K, Td=Td, delta=delta)
        report = find_roots(char_poly_pd(plant, ctrl))
        if (report.verdict, report.coverage_caveat) == ("stable", False) \
                and (not equal or abs(Td) > abs(plant.a2)):
            loops.append((plant, ctrl))
    return loops


#: Certainly stable loops led by delta: six with delta > alpha, one with delta = alpha.
LEAD_LOOPS = stable_lead_loops(8, 6) + stable_lead_loops(9, 1, equal=True)


class TestLeadingOrder:
    """The state space led by delta >= alpha converges at first order, as direct does."""

    @pytest.mark.parametrize("index", [
        0, 1, 2, 3,
        # Td = 0.23 leads: orders 0.69 and 0.81 on x2 with gains -3.6 and -8.4.  The
        # loop is stable, but explicit Euler diverges on it down to h = 1e-4 and
        # converges from 1e-5 (ROADMAP item 3; divided by a2, it ran at these steps
        # and diverged from h = 1e-5 on)
        pytest.param(4, marks=pytest.mark.xfail(raises=DivergedError, strict=True)),
        5, 6], ids=[*(f"above{k}" for k in range(6)), "equal"])
    def test_gap_halves_with_step(self, index):
        plant, ctrl = LEAD_LOOPS[index]
        assert ctrl.delta >= plant.alpha
        model = build_pd_model(plant, ctrl)

        def gap(h):
            # delta >= alpha passes the step straight through: y jumps at t = 0, where
            # the two schemes' first samples differ by O(1), so the gap is read from 0.5
            cfg = SimConfig(step=h, t_end=2.0)
            ss = simulate_state_space(model, cfg)
            d = simulate_direct(plant, ctrl, cfg)
            return np.max(np.abs(ss.output - d.output)[round(0.5 / h):])

        gaps = [gap(h) for h in (0.002, 0.001, 0.0005)]
        assert all(1.6 <= coarse / fine <= 2.4 for coarse, fine in zip(gaps, gaps[1:]))


class TestBlockSteps:
    """Both simulators against their per-step references, across block edges."""

    @staticmethod
    def check(loop, n, **options):
        plant, ctrl, h = LOOPS[loop]
        cfg = SimConfig(step=h, t_end=n * h, **options)
        build = build_pd_model if loop == "pd" else build_pi_model
        model = build(plant, ctrl)
        states, y, index = reference_state_space(model, cfg)
        traj, got_index = run(simulate_state_space, model, cfg)
        assert got_index == index
        scale = np.max(np.abs(states))
        np.testing.assert_allclose(np.array(traj.states), states, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(traj.output, y, rtol=0, atol=1e-13 * np.max(np.abs(y)))
        y, index = reference_direct(plant, ctrl, cfg)
        traj, got_index = run(simulate_direct, plant, ctrl, cfg)
        assert got_index == index
        np.testing.assert_allclose(traj.output, y, rtol=0, atol=1e-10 * np.max(np.abs(y)))

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("inp", ["step", "staircase"])
    def test_matches_per_step_loop(self, n, loop, inp):
        self.check(loop, n, input=StepInput() if inp == "step" else staircase(n))

    @pytest.mark.parametrize("window", [10, 63, 64, 65, 300])
    @pytest.mark.parametrize("loop", LOOPS)
    def test_memory_window(self, window, loop):
        h = LOOPS[loop][2]
        self.check(loop, 1000, memory_len=(window + 0.5) * h, input=staircase(1000))

    @pytest.mark.parametrize("h", [5e-4, 1e-3, 2e-3])
    def test_unstable_loop_divergence_index(self, h):
        cfg = SimConfig(step=h, t_end=20.0)
        _, _, index = reference_state_space(build_pd_model(BENCH_PLANT, UNSTABLE_PD), cfg)
        traj, got = run(simulate_state_space, build_pd_model(BENCH_PLANT, UNSTABLE_PD), cfg)
        assert got == index is not None
        assert len(traj.output) == index
        y, index = reference_direct(BENCH_PLANT, UNSTABLE_PD, cfg)
        traj, got = run(simulate_direct, BENCH_PLANT, UNSTABLE_PD, cfg)
        assert got == index is not None
        np.testing.assert_allclose(traj.output, y, rtol=0, atol=1e-10 * np.max(np.abs(y)))

    @pytest.mark.parametrize("peak", [0.9e12, 1.1e12])
    def test_divergence_screen(self, peak):
        # The unstable loop grows slowly within a block.  Scaled to a peak of
        # 0.9e12, the values of its last block (the last 3000 % 64 = 56 steps)
        # stay below the limit while their sum of squares passes
        # DIVERGENCE_LIMIT ** 2, which must not diverge.  Scaled to 1.1e12, a
        # sample crosses the limit mid-block, at the reference's index.
        h, n = 2e-3, 3000
        model = build_pd_model(BENCH_PLANT, UNSTABLE_PD)
        unit = SimConfig(step=h, t_end=n * h)

        def scaled(values):
            return SimConfig(step=h, t_end=n * h, input=StepInput(peak / np.max(np.abs(values))))

        cfg = scaled(reference_state_space(model, unit)[0])
        states, _, index = reference_state_space(model, cfg)
        traj, got = run(simulate_state_space, model, cfg)
        assert got == index
        np.testing.assert_allclose(np.array(traj.states), states, rtol=0,
                                   atol=1e-13 * np.max(np.abs(states)))
        if index is None:
            assert np.sum(states[:, -(_BLOCK // 2):] ** 2) > DIVERGENCE_LIMIT ** 2
        else:  # step index - 1 is neither the first nor the last of its block
            assert 0 < (index - 1) % _BLOCK < _BLOCK - 1

        cfg = scaled(reference_direct(BENCH_PLANT, UNSTABLE_PD, unit)[0])
        y, index = reference_direct(BENCH_PLANT, UNSTABLE_PD, cfg)
        traj, got = run(simulate_direct, BENCH_PLANT, UNSTABLE_PD, cfg)
        assert got == index
        np.testing.assert_allclose(traj.output, y, rtol=0, atol=1e-10 * np.max(np.abs(y)))
        if index is None:
            assert np.sum(y[-(_BLOCK // 2):] ** 2) > DIVERGENCE_LIMIT ** 2
        else:  # sample index is neither the first nor the last of its block
            assert 0 < index % _BLOCK < _BLOCK - 1
        assert (index is None) == (peak < DIVERGENCE_LIMIT)

    @pytest.mark.parametrize("amplitude", [0.0, 1.0])
    def test_operators_past_float_range(self, amplitude):
        # a pivot cancelled to six digits (direct) and a2 = 1e-9 (Euler) grow
        # ~1e6-fold per step, so both block operators pass 1e308 within a block
        h = 0.01
        cfg = SimConfig(step=h, t_end=100 * h, input=StepInput(amplitude))
        p = BENCH_PLANT
        pivot = p.a2 * h ** -p.alpha + p.a1 * h ** -p.beta + p.a0 + 24.0
        ctrl = PdController(K=24.0, Td=-pivot * h ** 0.5 * (1 - 1e-6), delta=0.5)
        stiff = build_pd_model(Plant(a0=1.0, a1=0.5, a2=1e-9, alpha=2.2, beta=0.9), GOLDEN_PD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct, direct_index = run(simulate_direct, p, ctrl, cfg)
            ss, ss_index = run(simulate_state_space, stiff, cfg)
        with np.errstate(all="ignore"):
            y, index = reference_direct(p, ctrl, cfg)
            states, _, ss_want = reference_state_space(stiff, cfg)
        assert (direct_index, ss_index) == (index, ss_want)
        assert (index is None) == (amplitude == 0.0)
        np.testing.assert_allclose(direct.output, y, rtol=1e-10)
        np.testing.assert_allclose(np.array(ss.states), states, rtol=1e-13)


def per_row_euler_block(near, h):
    """`_euler_block` with A and the carry filled one block row at a time, by a loop."""
    size, dim, _ = near.shape
    cum = np.cumsum(near, axis=0)
    flat = cum.transpose(1, 0, 2).reshape(dim, -1)
    rev = np.zeros_like(near)
    rev[-1] = np.eye(dim)
    for k in range(1, size):
        rev[-1 - k] = h * (flat[:, :k * dim] @ rev[-k:].reshape(-1, dim))
    np.nan_to_num(rev, copy=False)
    lagged = h * np.cumsum(rev[::-1], axis=0)[::-1]
    prop = np.zeros((size, dim, 2, size, dim))
    carry = np.zeros((size, dim, size, dim))
    for m in range(size):
        prop[m, :, 0, :m + 1] = lagged[size - 1 - m:].transpose(1, 0, 2)
        carry[m, :, m:size - 1] = near[size - 1:m:-1].transpose(1, 0, 2)
    carry[:, :, size - 1] = cum
    rows = prop.reshape(size * dim, 2, size * dim)
    np.matmul(rows[:, 0], carry.reshape(size * dim, -1), out=rows[:, 1])
    prop[:, :, 1, size - 1] += np.eye(dim)
    np.nan_to_num(prop, copy=False)
    return prop.reshape(size * dim, -1)


class TestEulerBlock:
    """The block propagator against Euler steps taken one at a time."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 63, 64])
    def test_propagator_matches_single_steps(self, dim, b):
        rng = np.random.default_rng([dim, b])
        h, size = 0.01, 64
        near = rng.normal(size=(size, dim, dim))
        f = rng.normal(size=(b, dim))
        v = rng.normal(size=(size, dim))  # x[:, t-63..t], time-major
        states = list(v)
        for i in range(b):
            # x[k+1] = x[k] + h (sum_{j<64} near[j] x[k-j] + f[k])
            g = f[i] + sum(near[j] @ states[-1 - j] for j in range(size))
            states.append(states[-1] + h * g)
        want = np.array(states[size:])
        prop = _euler_block(near, h)
        assert prop.shape == (size * dim, 2 * size * dim)
        bd = b * dim
        got = prop[:bd, :bd] @ f.reshape(-1) + prop[:bd, size * dim:] @ v.reshape(-1)
        np.testing.assert_allclose(got.reshape(b, dim), want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.01, 5e-4])
    @pytest.mark.parametrize("overflow", [False, True], ids=["normal", "overflow"])
    def test_gathers_match_the_per_row_loop(self, dim, h, overflow):
        # bit for bit: the blocks are the same values, and the product the same call
        near = np.random.default_rng([dim, int(overflow)]).normal(size=(64, dim, dim))
        if overflow:
            near[0] = 1e9 * np.eye(dim)  # the later blocks pass 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _euler_block(near, h), per_row_euler_block(near, h)
        assert np.isfinite(want).all() and (np.max(np.abs(want)) > 1e300) == overflow
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_forcing_past_the_float_range_gives_zeros(self, dim):
        # near[0] = 1e9 grows the block ~1e7-fold a step: its later blocks pass 1e308
        near = np.zeros((64, dim, dim))
        near[0] = 1e9 * np.eye(dim)
        with np.errstate(over="ignore", invalid="ignore"):
            prop = _euler_block(near, 0.01)
        assert np.isfinite(prop).all()
        assert np.max(np.abs(prop)) > 1e300
        new = prop @ np.zeros(prop.shape[1])
        assert np.array_equal(new, np.zeros(len(new)))


def counted_tables(monkeypatch):
    """The orders of the GL tables formed through fracreg.simulate, in call order."""
    orders = []

    def counted(order, count):
        orders.append(order)
        return gl_coefficients(order, count)

    monkeypatch.setattr("fracreg.simulate.gl_coefficients", counted)
    return orders


class TestGlKernels:
    """The one builder of scaled, merged GL kernels, against explicit sums."""

    H, N_MEM = 0.01, 300

    def test_kernel_is_the_sum_of_its_scaled_tables(self):
        terms = [Term(0, 0.7, 2.0), Term(1, 1.3, -0.5), Term(0, 1.3, 3.0),
                 Term(INPUT, -0.4, 1.5), Term(0, 0.7, -0.25), Term(1, -1.2, 0.1)]
        got = _gl_kernels(terms, self.H, self.N_MEM)
        assert set(got) == {0, 1, INPUT}
        for target, kernel in got.items():
            want = sum(t.gain * self.H ** -t.order * gl_coefficients(t.order, self.N_MEM).coeffs
                       for t in terms if t.target == target)
            assert len(kernel) == self.N_MEM + 1
            np.testing.assert_allclose(kernel, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))

    def test_order_zero_gain_lands_on_weight_zero_only(self):
        terms = [Term(0, 0.0, 2.5), Term(1, 0.0, 1.0), Term(1, 0.6, 3.0), Term(0, 0.0, -0.5),
                 Term(1, 0.0, -4.0)]
        got = _gl_kernels(terms, self.H, self.N_MEM)
        assert got[0].tolist() == [2.0]  # only order-0 terms: one weight
        want = 3.0 * self.H ** -0.6 * gl_coefficients(0.6, self.N_MEM).coeffs
        np.testing.assert_allclose(got[1][1:], want[1:], rtol=1e-15)
        assert got[1][0] == pytest.approx(want[0] - 3.0, rel=1e-15)

    def test_one_table_per_order(self, monkeypatch):
        orders = counted_tables(monkeypatch)
        got = _gl_kernels([Term(0, 0.7, 1.0), Term(INPUT, 0.7, 2.0), Term(1, 0.0, 1.0),
                           Term(1, 0.7, -1.0)], self.H, self.N_MEM)
        assert orders == [0.7]
        np.testing.assert_array_equal(got[INPUT], 2.0 * got[0])
        np.testing.assert_array_equal(got[1][1:], -got[0][1:])

    def test_overflowing_scale_is_singular(self):
        with pytest.raises(SingularStepError, match="too small"):
            _gl_kernels([Term(0, 0.5, 1.0), Term(1, 2.5, 1e10)], 1e-300, 10)


@pytest.mark.parametrize("simulate", ["state_space", "direct"])
def test_golden_loop_forms_one_table_per_order(monkeypatch, simulate):
    # state space: the x2 row's three orders and the output's delta - 1; direct:
    # alpha, beta and delta, whose one table serves both sides of the equation
    p, c = BENCH_PLANT, GOLDEN_PD
    orders = counted_tables(monkeypatch)
    cfg = SimConfig(step=0.01, t_end=1.0)
    if simulate == "state_space":
        simulate_state_space(build_pd_model(p, c), cfg)
        want = [2 - p.alpha, 1 + c.delta - p.alpha, 1 + p.beta - p.alpha, c.delta - 1]
    else:
        simulate_direct(p, c, cfg)
        want = [p.alpha, p.beta, c.delta]
    assert orders == want


@pytest.mark.parametrize("simulate", ["state_space", "direct"])
def test_input_past_the_float_range_diverges_at_once(simulate):
    # the input's GL share overflows; no RuntimeWarning may leak
    cfg = SimConfig(step=0.001, t_end=0.2, input=StepInput(1e308))
    with pytest.raises(DivergedError) as err:
        if simulate == "state_space":
            simulate_state_space(build_pd_model(BENCH_PLANT, GOLDEN_PD), cfg)
        else:
            simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg)
    assert err.value.index == {"state_space": 1, "direct": 0}[simulate]


@pytest.mark.parametrize("simulate", ["state_space", "direct"])
def test_tiny_step_with_a_large_order_is_singular(simulate):
    # h^-order leaves the float range: the direct path's alpha = 2.2, and the
    # PI state model's 3 - alpha - lambda = 2.3
    cfg = SimConfig(step=1e-300, t_end=1e-298)
    with warnings.catch_warnings(), pytest.raises(SingularStepError, match="too small"):
        warnings.simplefilter("error", RuntimeWarning)
        if simulate == "state_space":
            plant = Plant(a0=1.0, a1=0.5, a2=1.0, alpha=0.5, beta=0.2)
            simulate_state_space(build_pi_model(plant, PiController(K=1.0, Ti=1.0, lam=0.2)),
                                 cfg)
        else:
            simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg)


def test_leading_weights_that_cancel_are_singular():
    # at h = 0.01 the weight h^-1 of a2 s^1 cancels a0 + K = -100: the direct
    # scheme's first equation has no y[t] to solve for
    plant = Plant(a0=1.0, a1=0.0, a2=1.0, alpha=1.0, beta=0.5)
    with pytest.raises(SingularStepError, match="leading GL weights sum to 0"):
        simulate_direct(plant, PdController(K=-101.0, Td=0.0, delta=0.5),
                        SimConfig(step=0.01, t_end=1.0))


class TestRegressionPins:
    """Trajectory fingerprints recorded from the direct O(n^2) GL sums.

    Faster history sums only reorder floating-point additions, which moves
    these values by ~1e-13; a changed discretization moves them far more.
    """

    @pytest.mark.parametrize("simulate, y_end, y_norm", [
        ("state_space", 0.9603460069966308, 106.38846340122824),
        ("direct", 0.9603437612508036, 106.3500095201064),
    ])
    def test_golden_loop(self, simulate, y_end, y_norm):
        cfg = SimConfig(step=0.001, t_end=12.0)
        if simulate == "state_space":
            traj = simulate_state_space(build_pd_model(BENCH_PLANT, GOLDEN_PD), cfg)
        else:
            traj = simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg)
        assert traj.output[-1] == pytest.approx(y_end, rel=1e-9)
        assert np.linalg.norm(traj.output) == pytest.approx(y_norm, rel=1e-9)

    def test_unstable_loop_divergence_index(self):
        cfg = SimConfig(step=0.001, t_end=20.0)
        with pytest.raises(DivergedError) as ss:
            simulate_state_space(build_pd_model(BENCH_PLANT, UNSTABLE_PD), cfg)
        with pytest.raises(DivergedError) as direct:
            simulate_direct(BENCH_PLANT, UNSTABLE_PD, cfg)
        assert (ss.value.index, direct.value.index) == (15333, 14855)

    def test_short_memory_end_value(self):
        cfg = SimConfig(step=0.001, t_end=5.0, memory_len=0.6)
        ss = simulate_state_space(build_pd_model(BENCH_PLANT, GOLDEN_PD), cfg)
        direct = simulate_direct(BENCH_PLANT, GOLDEN_PD, cfg)
        assert ss.output[-1] == pytest.approx(0.9144246889130041, rel=1e-9)
        assert direct.output[-1] == pytest.approx(0.9426581495614794, rel=1e-9)


class TestSteadyState:
    def test_constant_output(self):
        traj = Trajectory(step=0.1, states=(), output=np.full(50, 2.5), input=np.ones(50))
        assert steady_state_estimate(traj, 1.0) == (2.5, 0.0)

    def test_window_too_long(self):
        traj = Trajectory(step=0.1, states=(), output=np.ones(10), input=np.ones(10))
        with pytest.raises(ValueError):
            steady_state_estimate(traj, 100.0)

    @pytest.mark.parametrize("window", [-1.0, 0.0, float("nan"), float("inf")])
    def test_window_not_positive_and_finite(self, window):
        traj = Trajectory(step=0.1, states=(), output=np.ones(10), input=np.ones(10))
        with pytest.raises(ValueError, match=f"window must be positive and finite, got {window}"):
            steady_state_estimate(traj, window)


class TestSimConfig:
    def test_rejects_large_step(self):
        with pytest.raises(ValueError):
            SimConfig(step=0.5, t_end=10.0)

    def test_rejects_short_run(self):
        with pytest.raises(ValueError):
            SimConfig(step=0.1, t_end=0.5)

    def test_rejects_bad_memory(self):
        with pytest.raises(ValueError):
            SimConfig(step=0.01, t_end=1.0, memory_len=-1.0)

    @pytest.mark.parametrize("inp", [StepInput(amplitude=float("nan")), [1.0] * 100,
                                     [1.0] * 100 + [float("inf")], np.ones((101, 2))],
                             ids=["nan-step", "short", "inf-sample", "2-d"])
    def test_rejects_bad_input(self, inp):
        with pytest.raises(ValueError):
            SimConfig(step=0.01, t_end=1.0, input=inp)
