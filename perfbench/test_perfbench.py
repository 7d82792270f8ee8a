"""Tests of the benchmark itself: generators, correctness gate, span arithmetic.

    python3 -m pytest -q perfbench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fracreg import PdController, SimConfig, gl_coefficients  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return gate.load_reference()


def _make(name, tmp_path):
    return workloads.make(name, tmp_path / "work")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    wl = _make(name, tmp_path)
    first, again, other = wl.generate(7), wl.generate(7), wl.generate(8)
    assert first["manifest"] == again["manifest"]
    assert first["manifest"]["inputs_sha256"] != other["manifest"]["inputs_sha256"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_second_seed_has_the_same_mix(name, tmp_path):
    wl = _make(name, tmp_path)
    a, b = wl.generate(1), wl.generate(2)
    assert a["manifest"]["kinds"] == b["manifest"]["kinds"]
    # blocks of fixed composition: every prefix of whole blocks has the mix
    per_block = getattr(wl, "per_block", None)
    if per_block:
        size = sum(per_block.values())
        for plan in (a, b):
            first = [t["kind"] for t in plan["tasks"][:size]]
            assert {k: first.count(k) for k in per_block} == per_block


def test_config_batch_cost_cells_do_not_depend_on_the_seed(tmp_path):
    wl = _make("config_batch", tmp_path)

    def cells(plan):
        return sorted((t["spec"]["config"]["sim"]["memory_len"], t["spec"]["config"]["sim"]["t_end"])
                      for t in plan["tasks"] if t["kind"] == "simulate_pd_short")

    assert cells(wl.generate(1)) == cells(wl.generate(2))


def test_fingerprint_matches_reference_and_a_perturbed_reference_fails(ref):
    fp = gate.fingerprint(ref)
    assert all(ok for _, ok, _ in gate.check_fingerprint(fp, ref))
    for path, factor in ((("golden", "Td"), 1 + 1e-6), (("pi_planted", "K"), 1 + 1e-5)):
        bad = copy.deepcopy(ref)
        bad[path[0]][path[1]] *= factor
        failed = [name for name, ok, _ in gate.check_fingerprint(fp, bad) if not ok]
        assert len(failed) == 1
    bad = copy.deepcopy(ref)
    bad["golden"]["poles"][0][0] += 1e-6
    assert [name for name, ok, _ in gate.check_fingerprint(fp, bad) if not ok] == ["golden_poles"]


def test_perturbed_short_memory_reference_fails_a_cli_task(ref, tmp_path):
    wl = _make("config_batch", tmp_path)
    plan = wl.generate(3)
    task = next(t for t in plan["tasks"] if t["kind"] == "simulate_pd_short")
    sim = task["spec"]["config"]["sim"]
    assert wl.check(task, wl.run(task, layers.RAW), ref)[0] == []
    bad = copy.deepcopy(ref)
    bad["short_memory_y_end"][repr(sim["memory_len"])][repr(sim["t_end"])] *= 1 + 1e-6
    fails, stats = wl.check(task, wl.run(task, layers.RAW), bad)
    assert len(fails) == 1 and stats["exit_mismatch"] == 0


def test_perturbed_divergence_index_fails_the_unstable_task(ref):
    wl = workloads.LongHorizon()
    u = ref["unstable"]
    task = {"kind": "unstable", "spec": {},
            "ctrl": PdController(K=u["K"], Td=u["Td"], delta=u["delta"]),
            "cfg": SimConfig(step=u["h"], t_end=u["t_end"])}
    zeros = np.zeros(8)
    out = {"y": zeros, "y_direct": zeros, "e": zeros, "u": zeros,
           "ss_index": u["state_space_index"], "direct_index": u["direct_index"]}
    assert wl.check(task, out, ref)[0] == []
    bad = copy.deepcopy(ref)
    bad["unstable"]["direct_index"] += 1
    assert len(wl.check(task, out, bad)[0]) == 1


def test_perturbed_planted_pi_fails_a_design_task(ref, tmp_path):
    wl = _make("design_sweep", tmp_path)
    task = next(t for t in wl.generate(4)["tasks"] if t["kind"] == "pi")
    out = wl.run(task, layers.RAW)
    assert wl.check(task, out, ref)[0] == []
    task = dict(task, spec=dict(task["spec"], K=task["spec"]["K"] + 1e-5))
    assert len(wl.check(task, out, ref)[0]) == 1


def _span_tree():
    # task [0, 10] > cli.main [1, 9] > simulate.state_space [2, 6] > glcalc.gl_coefficients
    # [2.5, 3]; cli.main > charpoly.newton_grid [7, 8]
    return [
        ["task", 0.0, 10.0, -1, 0, {}],
        ["cli.main", 1.0, 9.0, 0, 0, {"exit": 0}],
        ["simulate.state_space", 2.0, 6.0, 1, 0, {"steps": 100, "macs": 5050}],
        ["glcalc.gl_coefficients", 2.5, 3.0, 2, 0, {"weights": 101}],
        ["charpoly.newton_grid", 7.0, 8.0, 1, 0, {"roots": 2, "max_residual": 1e-11,
                                                  "certain": 0}],
    ]


def test_self_times_subtract_direct_children():
    spans = _span_tree()
    assert tracer.self_times(spans) == [2.0, 3.0, 3.5, 0.5, 1.0]
    assert sum(tracer.self_times(spans)) == 10.0
    nested = [["model.a", 0.0, 4.0, -1, 0, {}], ["model.b", 1.0, 2.0, 0, 0, {}]]
    assert tracer.busy_time(nested, lambda n: n.startswith("model.")) == 4.0


def test_layer_metrics_from_a_synthetic_span_tree():
    stats = {"bytes_out": 10, "csv_rows": 2, "exit_mismatch": 0}
    m = {k: v["value"] for k, v in layers.layer_metrics(_span_tree(), stats, 0.25).items()}
    assert m["task.wall_s"] == 10.0 and m["task.self_s"] == 2.0
    assert m["cli.busy_s"] == 8.0 and m["cli.self_s"] == 3.0
    assert m["simulate.self_s"] == 3.5 and m["simulate.state_space.busy_s"] == 4.0
    assert m["glcalc.self_s"] == 0.5 and m["glcalc.gl_coefficients.weights"] == 101
    assert m["charpoly.newton_grid.calls"] == 1 and m["charpoly.certain_frac"] == 0.0
    assert m["simulate.state_space.steps_per_s"] == 25.0
    assert m["trace.overhead_s"] == 0.25 and m["cli.bytes_out"] == 10
    layer_self = sum(m[layer + ".self_s"] for layer in layers.LAYERS)
    assert layer_self + m["task.self_s"] == m["task.wall_s"]


def test_tracer_records_nested_spans_and_exceptions():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    traced = t.wrap("model.boom", boom, lambda rec, args, result, exc: rec[5].update(err=1))
    with t.span("task"):
        with pytest.raises(ValueError):
            traced()
    assert [rec[0] for rec in t.spans] == ["task", "model.boom"]
    assert t.spans[1][3] == 0 and t.spans[1][5] == {"err": 1}
    assert all(rec[2] is not None for rec in t.spans)


def test_patched_installs_and_restores_wrappers():
    import fracreg.cli
    import fracreg.simulate

    before = {name: getattr(fracreg.cli, name) for name in layers.cli_imports()}
    assert "find_roots" in before and "simulate_state_space" in before
    gl = fracreg.simulate.gl_coefficients
    with layers.patched(tracer.Tracer()):
        assert fracreg.cli.find_roots is not before["find_roots"]
        assert fracreg.simulate.gl_coefficients is not gl
    assert {name: getattr(fracreg.cli, name) for name in before} == before
    assert fracreg.simulate.gl_coefficients is gl


def test_window_macs_matches_brute_force():
    for length, n_mem in ((1, 0), (5, 10), (10, 3), (100, 99), (100, 100)):
        assert layers.window_macs(length, n_mem) == sum(min(k, n_mem) + 1 for k in range(length))


@pytest.mark.parametrize("order", [0.71859, -0.55194, 1.3])
def test_gamma_weights_agree_with_the_recurrence(order):
    assert np.allclose(workloads.gl_weights(order, 2000), gl_coefficients(order, 2000).coeffs,
                       rtol=1e-10, atol=1e-300)


def test_benchmark_json_lists_the_metrics_the_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90 and run.percentile(values, 50) == 50
    assert math.isclose(run.percentile([3.0], 90), 3.0)


def test_mix_rate_weights_kinds_by_the_plan():
    # one slow kind reached twice in a short run does not count double
    durations, kinds = [1.0, 1.0, 4.0, 4.0], ["a", "a", "b", "b"]
    assert math.isclose(run.mix_rate(durations, kinds, {"a": 3, "b": 1}), 4 / (3 * 1.0 + 4.0))
    assert math.isclose(run.mix_rate(durations, kinds, {"a": 3, "b": 1, "c": 5}), 4 / 7.0)


class _FakeHost:
    """A clock and a kernel whose duration is set by the test."""

    def __init__(self):
        self.now, self.cost = 0.0, 0.0625

    def clock(self):
        return self.now

    def work(self):
        self.now += self.cost


def test_host_speed_scale_cancels_a_slower_host():
    fake = _FakeHost()
    host = hostspeed.HostSpeed(share=0.5, clock=fake.clock, work=fake.work)
    assert host.burst(0.5) == 0.25  # until half of 0.5 s: four calls
    assert host.burst(0.0, min_calls=2) == 0.125
    assert math.isclose(host.scale(), hostspeed.NOMINAL_S / 0.0625)
    slow = hostspeed.HostSpeed(share=0.5, clock=fake.clock, work=fake.work)
    fake.cost = 0.125  # the host runs at half speed
    slow.burst(1.0)
    # a task that took twice as long on the slow host scales to the same time
    assert math.isclose(0.2 * host.scale(), 0.4 * slow.scale())


def test_reference_kernel_is_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel()
