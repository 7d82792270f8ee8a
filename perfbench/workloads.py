"""The three benchmark workloads: input generation, tasks and checks.

Every workload turns a seed into a plan: a task list and a manifest (a
hash of the generated inputs and the planned mix).  `run(task, api)` is
the timed part of one task and calls fracreg only through `api` (see
layers.py).  `check(task, out, ref)` runs after the timed part and
returns the task's failures and its counts (steps, verdicts, root
method, CLI bytes and rows), from which the run derives its mix and
rates.

Task lists are built from blocks of the same composition, and the values
that set a task's cost are stratified rather than drawn independently,
so every seed, and every prefix of whole blocks, has the same mix; the
seed changes the values inside the strata and the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from fracreg import (DesignSpecPd, DesignSpecPi, Plant,
                     SampledSignal, SimConfig, StepInput, char_poly_pd,
                     design_pd_fractional, find_roots)
from fracreg.errors import DivergedError

import gate

GOLDEN_PLANT = {"a0": 1.0, "a1": 0.5, "a2": 0.8, "alpha": 2.2, "beta": 0.9}
PI_PLANT = {"a0": 1.0, "a1": 4.0, "a2": 1.0, "alpha": 2.0, "beta": 1.0}
GOLDEN_POLE = complex(-1.0, 6.0)


def digest(specs):
    """sha256 of the JSON form of the generated task inputs."""
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def stratified(rng, count, low, high):
    """`count` values in [low, high), one per equal-width stratum, shuffled."""
    return low + (high - low) * (rng.permutation(count) + rng.random(count)) / count


def blocks(rng, pools, per_block):
    """Interleave task pools into blocks of fixed composition, shuffled within."""
    n_blocks = len(next(iter(pools.values()))) // per_block[next(iter(pools))]
    tasks = []
    for b in range(n_blocks):
        block = [task for kind, k in per_block.items() for task in pools[kind][b * k:(b + 1) * k]]
        tasks.extend(block[i] for i in rng.permutation(len(block)))
    return tasks


def finalize(tasks, planned):
    for i, task in enumerate(tasks):
        task["id"] = i
    kinds = [t["kind"] for t in tasks]
    return {"tasks": tasks,
            "manifest": {"inputs_sha256": digest([t["spec"] for t in tasks]),
                         "tasks": len(tasks),
                         "kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
                         **planned}}


def gl_weights(order, count):
    """(-1)^j C(order, j) = Gamma(j - order) / (Gamma(-order) Gamma(j + 1)), j = 0..count.

    Computed from log-gamma, independently of glcalc's recurrence; `order`
    must not be a non-negative integer.
    """
    sign0 = math.copysign(1.0, math.gamma(-order))
    lg0 = math.lgamma(-order)
    out = np.empty(count + 1)
    for j in range(count + 1):
        x = j - order
        sign = sign0 * (math.copysign(1.0, math.gamma(x)) if x < 0 else 1.0)
        out[j] = sign * math.exp(math.lgamma(x) - lg0 - math.lgamma(j + 1))
    return out


def causal_convolve(a, b):
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:len(b)]


def pole_found(roots, pole, atol=1e-6):
    return any(abs(complex(z) - pole) <= atol for z in roots)


def verdict_of(roots):
    return "unstable" if any(complex(z).real > 0 for z in roots) else "stable"


class LongHorizon:
    """PD^delta loops simulated over a long full-memory horizon.

    Tasks: the golden loop under a unit step (the fingerprint task), three
    seeded loops designed in setup near -1+-6i at 3-5% e_ss (kept only if
    stable) under seeded staircase references, and the unstable 2% loop,
    which must diverge at the recorded index.  Each task runs both
    simulators and rebuilds the control effort with gl_series.
    """

    name = "long_horizon"
    h = 5e-4
    t_end = 12.0
    t_end_unstable = 16.0
    seeded = 3

    def generate(self, seed):
        rng = np.random.default_rng([seed, 1])
        plant = Plant(**GOLDEN_PLANT)
        golden = design_pd_fractional(DesignSpecPd(plant=plant, pole=GOLDEN_POLE, ess_percent=4.0))
        unstable = design_pd_fractional(DesignSpecPd(plant=plant, pole=GOLDEN_POLE,
                                                     ess_percent=2.0))
        tasks = [self._task("golden", plant, golden, StepInput(), self.t_end, {"ess": 4.0})]
        n = int(round(self.t_end / self.h))
        rejected = 0
        while len(tasks) < 1 + self.seeded:
            pole = complex(-1.0 + rng.uniform(-0.15, 0.15), 6.0 + rng.uniform(-0.3, 0.3))
            ess = rng.uniform(3.0, 5.0)
            edges = [0.0, rng.uniform(2.0, 3.5), rng.uniform(4.5, 6.0), rng.uniform(7.0, 8.5)]
            levels = rng.uniform(0.5, 1.5, size=4)
            ctrl = design_pd_fractional(DesignSpecPd(plant=plant, pole=pole, ess_percent=ess))
            if find_roots(char_poly_pd(plant, ctrl)).verdict != "stable":
                rejected += 1
                continue
            t = self.h * np.arange(n + 1)
            w = levels[np.searchsorted(edges, t, side="right") - 1]
            tasks.append(self._task("seeded", plant, ctrl, w, self.t_end, {
                "pole": [pole.real, pole.imag], "ess": ess,
                "edges": edges, "levels": levels.tolist()}))
        tasks.append(self._task("unstable", plant, unstable, StepInput(), self.t_end_unstable,
                                {"ess": 2.0}))
        return finalize(tasks, {"rejected_unstable_draws": rejected, "memory": "full"})

    def _task(self, kind, plant, ctrl, inp, t_end, spec):
        return {"kind": kind, "plant": plant, "ctrl": ctrl,
                "cfg": SimConfig(step=self.h, t_end=t_end, input=inp),
                "spec": {"kind": kind, "t_end": t_end, **spec}}

    def warmup(self, plan):
        """The golden loop over a 1 s horizon: every code path, little time."""
        task = dict(plan["tasks"][0], kind="warmup")
        task["cfg"] = SimConfig(step=self.h, t_end=1.0)
        return task

    def run(self, task, api):
        plant, ctrl, cfg = task["plant"], task["ctrl"], task["cfg"]
        model = api.build_pd_model(plant, ctrl)
        ss, ss_index = _simulate(api.simulate_state_space, model, cfg)
        direct, direct_index = _simulate(api.simulate_direct, plant, ctrl, cfg)
        e = ss.input - ss.output
        de = api.gl_series(SampledSignal(step=cfg.step, values=e), ctrl.delta)
        return {"y": ss.output, "y_direct": direct.output, "e": e,
                "u": ctrl.K * e + ctrl.Td * de.values,
                "ss_index": ss_index, "direct_index": direct_index}

    def check(self, task, out, ref):
        kind, ctrl, cfg = task["kind"], task["ctrl"], task["cfg"]
        fails = []
        indices = (out["ss_index"], out["direct_index"])
        lengths = (len(out["y"]) - 1, len(out["y_direct"]) - 1)
        stats = {"steps": sum(n if i is None else i for i, n in zip(indices, lengths)),
                 "sims_full": 2, "diverged": sum(i is not None for i in indices)}
        u_oracle = ctrl.K * out["e"] + ctrl.Td * cfg.step ** (-ctrl.delta) * causal_convolve(
            gl_weights(ctrl.delta, len(out["e"]) - 1), out["e"])
        if not gate.close(out["u"], u_oracle, atol=1e-9 * max(1.0, np.max(np.abs(u_oracle)))):
            fails.append(f"gl_series control effort differs from the convolution oracle by "
                         f"{np.max(np.abs(out['u'] - u_oracle)):.3g}")
        if kind == "unstable":
            want = ref["unstable"]
            got = (out["ss_index"], out["direct_index"])
            if got != (want["state_space_index"], want["direct_index"]):
                fails.append(f"unstable loop diverged at {got}, reference "
                             f"{(want['state_space_index'], want['direct_index'])}")
            return fails, stats
        if out["ss_index"] is not None or out["direct_index"] is not None:
            fails.append(f"{kind} loop diverged at {(out['ss_index'], out['direct_index'])}")
            return fails, stats
        gap = float(np.max(np.abs(out["y"] - out["y_direct"])))
        stats["oracle_gap"] = gap
        if not gap <= gate.ORACLE_GAP_BOUND:
            fails.append(f"oracle gap {gap:.4g} above {gate.ORACLE_GAP_BOUND}")
        if kind == "golden":
            g = ref["golden_trajectory"]
            got = [out["y"][-1], np.linalg.norm(out["y"]), out["u"][-1], np.linalg.norm(out["u"])]
            want = [g["y_end"], g["y_l2"], g["u_end"], g["u_l2"]]
            if not gate.close(got, want, rtol=gate.TRAJ_RTOL):
                fails.append(f"golden trajectory (y_end, |y|, u_end, |u|) = {got}, reference {want}")
            if not gap <= g["oracle_gap"] * (1 + 1e-6):
                fails.append(f"golden oracle gap {gap!r} worse than reference {g['oracle_gap']!r}")
        elif kind == "seeded":
            # the loop settles towards K/(a0+K) times the last level; the slow
            # fractional tail after the last step leaves a few percent
            level = task["spec"]["levels"][-1]
            target = level * ctrl.K / (task["plant"].a0 + ctrl.K)
            if not abs(out["y"][-1] - target) <= 0.1 * level:
                fails.append(f"seeded loop ends at {out['y'][-1]:.4f}, expected about {target:.4f}")
        return fails, stats


def _simulate(fn, *args):
    try:
        return fn(*args), None
    except DivergedError as exc:
        return exc.trajectory, exc.index


class DesignSweep:
    """Seeded design -> char_poly -> find_roots -> verdict tasks.

    Per block of 20: 14 PD^delta specs (newton-grid path, stable and
    unstable verdicts), 3 integer PD specs and 3 PI^lambda specs planted
    at lambda = 1 (both commensurate).
    """

    name = "design_sweep"
    per_block = {"pd_fractional": 14, "pd_integer": 3, "pi": 3}
    n_blocks = 5

    def generate(self, seed):
        rng = np.random.default_rng([seed, 2])
        nb = self.n_blocks
        n_frac = self.per_block["pd_fractional"] * nb
        n_int = self.per_block["pd_integer"] * nb
        n_pi = self.per_block["pi"] * nb
        frac = zip(stratified(rng, n_frac, -2.0, -0.5), stratified(rng, n_frac, 3.0, 8.0),
                   stratified(rng, n_frac, 2.0, 8.0))
        ints = zip(stratified(rng, n_int, -2.0, -0.5), stratified(rng, n_int, 3.0, 8.0))
        pis = zip(stratified(rng, n_pi, 2.0, 10.0), stratified(rng, n_pi, 1.0, 8.0))
        pools = {
            "pd_fractional": [self._task("pd_fractional", pole=[float(re), float(im)],
                                         ess=float(ess)) for re, im, ess in frac],
            "pd_integer": [self._task("pd_integer", pole=[float(re), float(im)])
                           for re, im in ints],
            "pi": [self._task("pi", K=float(k), Ti=float(ti)) for k, ti in pis],
        }
        return finalize(blocks(rng, pools, self.per_block), {"blocks": nb})

    @staticmethod
    def _task(kind, **spec):
        spec = {"kind": kind, **spec}
        task = {"kind": kind, "spec": spec}
        if kind == "pi":
            plant = Plant(**PI_PLANT)
            poles = tuple(np.roots([plant.a2, plant.a1, plant.a0 + spec["K"], spec["Ti"]]))
            task.update(plant=plant, design=DesignSpecPi(plant=plant, poles=poles))
        else:
            plant = Plant(**GOLDEN_PLANT)
            pole = complex(*spec["pole"])
            task.update(plant=plant, design=DesignSpecPd(plant=plant, pole=pole,
                                                         ess_percent=spec.get("ess")))
        return task

    def warmup(self, plan):
        return next(t for t in plan["tasks"] if t["kind"] == "pd_fractional")

    def run(self, task, api):
        kind, plant = task["kind"], task["plant"]
        if kind == "pi":
            ctrl = api.design_pi(task["design"])
            poly = api.char_poly_pi(plant, ctrl)
        else:
            design = api.design_pd_integer if kind == "pd_integer" else api.design_pd_fractional
            ctrl = design(task["design"])
            poly = api.char_poly_pd(plant, ctrl)
        report = api.find_roots(poly)
        return {"ctrl": ctrl, "poly": poly, "report": report}

    def check(self, task, out, ref):
        kind, spec, ctrl, report = task["kind"], task["spec"], out["ctrl"], out["report"]
        roots = [r.value for r in report.roots]
        stats = {"verdicts": 1, "method": report.method}
        fails = []
        if report.verdict != verdict_of(roots):
            fails.append(f"verdict {report.verdict} contradicts roots {roots}")
        scale = 1e-10 * (1.0 + max(abs(c) for c in out["poly"].coefficients))
        if any(r.residual > scale for r in report.roots):
            fails.append(f"root residual above {scale:.3g}")
        if kind == "pi":
            want = [spec["K"], spec["Ti"], 1.0]
            if not gate.close([ctrl.K, ctrl.Ti, ctrl.lam], want, atol=gate.PI_ATOL):
                fails.append(f"planted PI {want} recovered as {[ctrl.K, ctrl.Ti, ctrl.lam]}")
            expected_method, poles = "commensurate", task["design"].poles
        else:
            pole = complex(*spec["pole"])
            poles = (pole, pole.conjugate())
            if kind == "pd_integer":
                expected_method = "commensurate"
                if ctrl.delta != 1.0:
                    fails.append(f"integer PD returned delta={ctrl.delta}")
            else:
                expected_method = "newton-grid"
                gain = (100.0 / spec["ess"] - 1.0) * task["plant"].a0
                if not gate.close(ctrl.K, gain, rtol=1e-12):
                    fails.append(f"K={ctrl.K} does not meet e_ss={spec['ess']}")
        if report.method != expected_method:
            fails.append(f"root method {report.method}, expected {expected_method}")
        missing = [p for p in poles if not pole_found(roots, p)]
        if missing:
            fails.append(f"placed poles {missing} not among the roots {roots}")
        return fails, stats


class ConfigBatch:
    """Seeded JSON configs run in-process through fracreg.cli.main.

    Per block of 20: 8 short-memory PD^delta simulations, 3 simulations of
    the integer PI loop (every GL order is 0), 1 simulation of the
    unstable loop (exit 3), and design / poles runs on variants of the
    bundled configs: 2 at 4% (exit 0), 2 at 2% (exit 4), 1 integer PD,
    2 poles of the golden loop and 1 of the unstable loop.
    """

    name = "config_batch"
    per_block = {"simulate_pd_short": 8, "simulate_pi": 3, "simulate_diverged": 1,
                 "design_ess4": 2, "design_ess2": 2, "design_integer": 1,
                 "poles_stable": 2, "poles_unstable": 1}
    n_blocks = 5
    memory_lens = (0.2, 0.4, 0.6, 0.8, 1.0)
    t_ends = (4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5)
    golden = {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859}
    unstable = {"type": "pd", "K": 49.0, "Td": -79.74427, "delta": -0.55194}

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.sink = io.StringIO()

    def generate(self, seed):
        rng = np.random.default_rng([seed, 3])
        nb = self.n_blocks
        # every (memory_len, t_end) cell once, each block holding every t_end
        cells = [[] for _ in range(nb)]
        for t_end in self.t_ends:
            for b, i in enumerate(rng.permutation(len(self.memory_lens))):
                cells[b].append((self.memory_lens[i], t_end))
        pools = {kind: [] for kind in self.per_block}
        for b in range(nb):
            for ml, t_end in cells[b]:
                pools["simulate_pd_short"].append(self._sim(
                    "simulate_pd_short", GOLDEN_PLANT, self.golden, 1e-3, t_end, ml,
                    rng.uniform(0.5, 2.0)))
        for t_end in stratified(rng, 3 * nb, 15.0, 20.0):
            pools["simulate_pi"].append(self._sim(
                "simulate_pi", PI_PLANT, {"type": "pi", "K": 5.0, "Ti": 4.0, "lambda": 1.0},
                0.005, float(t_end), None, rng.uniform(0.5, 2.0)))
        for t_end in stratified(rng, nb, 15.5, 17.0):
            pools["simulate_diverged"].append(self._sim(
                "simulate_diverged", GOLDEN_PLANT, self.unstable, 1e-3, float(t_end), None, 1.0))
        for kind, ess_range in (("design_ess4", (3.5, 4.5)), ("design_ess2", (1.8, 2.2)),
                                ("design_integer", None)):
            count = self.per_block[kind] * nb
            res = stratified(rng, count, -1.05, -0.95)
            ims = stratified(rng, count, 5.9, 6.1)
            esses = stratified(rng, count, *ess_range) if ess_range else [None] * count
            for re, im, ess in zip(res, ims, esses):
                design = {"type": "pd", "poles": [[float(re), float(im)], [float(re), -float(im)]]}
                if ess is None:
                    design["integer"] = True
                else:
                    design["ess"] = float(ess)
                pools[kind].append(self._doc(kind, "design", {"plant": GOLDEN_PLANT,
                                                              "design": design}))
        for kind, base in (("poles_stable", self.golden), ("poles_unstable", self.unstable)):
            for _ in range(self.per_block[kind] * nb):
                ctrl = dict(base, Td=base["Td"] * (1 + rng.uniform(-0.01, 0.01)),
                            delta=base["delta"] * (1 + rng.uniform(-0.01, 0.01)))
                pools[kind].append(self._doc(kind, "poles", {"plant": GOLDEN_PLANT,
                                                             "controller": ctrl}))
        plan = finalize(blocks(rng, pools, self.per_block), {"blocks": nb})
        config_dir = self.workdir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        for task in plan["tasks"]:
            doc = dict(task["spec"]["config"])
            key, ext = {"simulate": ("trajectory_csv", "csv"), "design": ("report_json", "json"),
                        "poles": ("roots_json", "json")}[task["command"]]
            doc["output"] = {key: f"task{task['id']:03d}.{ext}"}
            task["config"] = config_dir / f"task{task['id']:03d}.json"
            task["output"] = self.workdir / "out" / doc["output"][key]
            task["config"].write_text(json.dumps(doc))
        return plan

    def _sim(self, kind, plant, ctrl, h, t_end, memory_len, amplitude):
        return self._doc(kind, "simulate", {
            "plant": plant, "controller": ctrl,
            "sim": {"h": h, "t_end": t_end, "memory_len": memory_len,
                    "input": {"type": "step", "amplitude": float(amplitude)}}})

    @staticmethod
    def _doc(kind, command, config):
        return {"kind": kind, "command": command,
                "spec": {"kind": kind, "command": command, "config": config}}

    def warmup(self, plan):
        return next(t for t in plan["tasks"] if t["kind"] == "simulate_pd_short")

    def run(self, task, api):
        argv = [task["command"], "--config", str(task["config"]), "--out", str(self.workdir / "out")]
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            code = api.cli_main(argv)
        self.sink.seek(0)
        self.sink.truncate()
        return {"exit": code}

    def check(self, task, out, ref):
        kind, command = task["kind"], task["command"]
        config = task["spec"]["config"]
        path = task["output"]
        stats = {"exit_mismatch": 0, "bytes_out": 0, "csv_rows": 0}
        fails = []
        want_exit = ref["cli_exit"][kind]
        if out["exit"] != want_exit:
            stats["exit_mismatch"] = 1
            fails.append(f"exit {out['exit']}, expected {want_exit}")
        if not path.exists():
            return fails + [f"no output file {path.name}"], stats
        data = path.read_bytes()
        path.unlink()
        stats["bytes_out"] = len(data)
        if command == "simulate":
            fails += self._check_csv(kind, config, data, ref, stats)
        else:
            fails += self._check_report(kind, config, json.loads(data), stats)
        return fails, stats

    def _check_csv(self, kind, config, data, ref, stats):
        lines = data.decode().splitlines()
        sim = config["sim"]
        rows = len(lines) - 1
        stats["csv_rows"] = rows
        stats["steps"] = rows - 1
        if kind == "simulate_pi":
            stats["sims_gl_free"] = 1
        else:
            stats["sims_full" if sim["memory_len"] is None else "sims_windowed"] = 1
        if kind == "simulate_diverged":
            stats["diverged"] = 1
            want_rows = ref["diverged_cli_rows"]
            return [] if rows == want_rows else [f"diverged CSV has {rows} rows, expected {want_rows}"]
        n = int(round(sim["t_end"] / sim["h"]))
        header = lines[0].split(",")
        last = [float(v) for v in lines[-1].split(",")]
        fails = []
        if rows != n + 1 or len(header) != len(last) or header[:3] != ["t", "w", "y"]:
            return [f"CSV shape: {rows} rows, header {header}; expected {n + 1} rows"]
        t, w, y = last[:3]
        amp = sim["input"]["amplitude"]
        if not (gate.close(t, n * sim["h"], rtol=gate.CSV_RTOL)
                and gate.close(w, amp, rtol=gate.CSV_RTOL)):
            fails.append(f"last row t={t} w={w}, expected t={n * sim['h']} w={amp}")
        if kind == "simulate_pi":
            # integral action: y settles on the reference; in this model y is x2
            if not abs(y - amp) <= 0.01 * amp or y != last[4]:
                fails.append(f"PI loop ends at y={y} (x2={last[4]}), reference {amp}")
        else:
            want = amp * ref["short_memory_y_end"][repr(sim["memory_len"])][repr(sim["t_end"])]
            if not gate.close(y, want, rtol=gate.CSV_RTOL):
                fails.append(f"short-memory loop ends at y={y!r}, reference {want!r}")
        return fails

    @staticmethod
    def _check_report(kind, config, report, stats):
        roots = [complex(r["re"], r["im"]) for r in report["roots"]]
        stats["verdicts"] = 1
        stats["method"] = report["method"]
        fails = []
        want_verdict = "unstable" if kind in ("design_ess2", "poles_unstable") else "stable"
        if report["verdict"] != want_verdict or verdict_of(roots) != want_verdict:
            fails.append(f"verdict {report['verdict']}, expected {want_verdict}")
        if kind.startswith("design"):
            pole = complex(*config["design"]["poles"][0])
            if not pole_found(roots, pole) or not pole_found(roots, pole.conjugate()):
                fails.append(f"placed pole {pole} not among the roots {roots}")
            ctrl = report["controller"]
            if kind == "design_integer":
                if ctrl["delta"] != 1.0 or report["method"] != "commensurate":
                    fails.append(f"integer design: delta={ctrl['delta']} method={report['method']}")
            elif not gate.close(ctrl["K"], (100.0 / config["design"]["ess"] - 1.0)
                                * config["plant"]["a0"], rtol=1e-12):
                fails.append(f"K={ctrl['K']} does not meet e_ss={config['design']['ess']}")
        elif kind == "poles_stable" and not any(abs(z - GOLDEN_POLE) <= 0.5 for z in roots):
            fails.append(f"no pole near {GOLDEN_POLE} in {roots}")
        return fails


def make(name, workdir):
    """The workload called `name`; config_batch writes its files under `workdir`."""
    return {"long_horizon": LongHorizon, "design_sweep": DesignSweep,
            "config_batch": lambda: ConfigBatch(workdir)}[name]()
