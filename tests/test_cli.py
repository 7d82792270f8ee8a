import csv
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import fracreg
from fracreg import charpoly
from fracreg.cli import build_parser, main, write_trajectory_csv
from fracreg.errors import DivergedError
from fracreg.model import (PdController, PiController, Plant, build_pd_model,
                           build_pi_model)
from fracreg.simulate import SimConfig, Trajectory, simulate_direct, simulate_state_space

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PLANT = {"a0": 1.0, "a1": 0.5, "a2": 0.8, "alpha": 2.2, "beta": 0.9}
GOLDEN_SIM = {"h": 0.001, "t_end": 12.0, "input": {"type": "step", "amplitude": 1.0}}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


@pytest.fixture(scope="module")
def golden_sim_outputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("golden")
    doc = {
        "plant": PLANT,
        "controller": {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859},
        "sim": GOLDEN_SIM,
    }
    code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
    return code, read_csv(tmp_path / "trajectory.csv")


class TestSimulate:
    def test_golden_run_exit_and_steady_state(self, golden_sim_outputs):
        code, (header, rows) = golden_sim_outputs
        assert code == 0
        assert header == ["t", "w", "y", "x1", "x2"]
        assert len(rows) == 12001
        tail = [row[2] for row in rows[-2000:]]
        mean = sum(tail) / len(tail)
        assert 0.955 <= mean <= 0.965

    def test_csv_precision(self, golden_sim_outputs):
        _, (_, rows) = golden_sim_outputs
        # 12 significant digits survive a parse round trip at 1e-10 relative
        y = rows[5000][2]
        assert y != round(y, 4)

    def test_unstable_controller_diverges(self, tmp_path):
        doc = {
            "plant": PLANT,
            "controller": {"type": "pd", "K": 49.0, "Td": -79.74427, "delta": -0.55194},
            "sim": {"h": 0.001, "t_end": 16.0, "input": {"type": "step", "amplitude": 1.0}},
        }
        code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
        assert code == 3
        header, rows = read_csv(tmp_path / "trajectory.csv")  # partial retained
        assert rows

    def test_input_past_the_float_range_reports_an_infinite_magnitude(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "golden_pd_sim.json").read_text())
        doc["sim"].update(t_end=2.0, input={"type": "step", "amplitude": 1e308})
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "simulation diverged: state magnitude inf at step 1 (t=0.001)" in err

    def test_zero_amplitude(self, tmp_path):
        doc = {
            "plant": PLANT,
            "controller": {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859},
            "sim": {"h": 0.01, "t_end": 2.0, "input": {"type": "step", "amplitude": 0.0}},
        }
        code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert all(row[2] == 0.0 for row in rows)

    def test_pi_controller_has_three_state_columns(self, tmp_path):
        doc = {
            "plant": {"a0": 1.0, "a1": 4.0, "a2": 1.0, "alpha": 2.0, "beta": 1.0},
            "controller": {"type": "pi", "K": 5.0, "Ti": 4.0, "lambda": 1.0},
            "sim": {"h": 0.01, "t_end": 5.0},
        }
        code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        header, _ = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "w", "y", "x1", "x2", "x3"]


def per_row_csv(path, traj):
    """The per-row writer the chunked one replaced: one `%.12g` per value, row by row."""
    header = ["t", "w", "y"] + [f"x{i + 1}" for i in range(len(traj.states))]
    table = np.column_stack([traj.times, traj.input, traj.output, *traj.states])
    row_fmt = ",".join(["%.12g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(row_fmt % tuple(row) for row in table.tolist()))


def _golden():
    pd = PdController(K=24.0, Td=6.9407, delta=0.71859)
    return simulate_state_space(build_pd_model(Plant(**PLANT), pd),
                                SimConfig(step=0.001, t_end=12.0))


def _pi():
    plant = Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0)
    return simulate_state_space(build_pi_model(plant, PiController(K=5.0, Ti=4.0, lam=1.0)),
                                SimConfig(step=0.005, t_end=15.0))


def _diverged():
    unstable = PdController(K=49.0, Td=-79.74427, delta=-0.55194)
    with pytest.raises(DivergedError) as err:
        simulate_state_space(build_pd_model(Plant(**PLANT), unstable),
                             SimConfig(step=0.001, t_end=16.0))
    return err.value.trajectory


def _samples():
    values = list(np.sin(np.arange(2001) * 0.01))
    pd = PdController(K=24.0, Td=6.9407, delta=0.71859)
    return simulate_state_space(build_pd_model(Plant(**PLANT), pd),
                                SimConfig(step=0.001, t_end=2.0, input=values))


def _direct():
    pd = PdController(K=24.0, Td=6.9407, delta=0.71859)
    return simulate_direct(Plant(**PLANT), pd, SimConfig(step=0.001, t_end=3.0))


def _rows(n):
    rng = np.random.default_rng(n)
    return Trajectory(step=0.01, states=(rng.normal(size=n), rng.normal(size=n) * 1e-9),
                      output=rng.normal(size=n) * 1e6, input=np.full(n, 1.5))


def _signed_zeros():
    n = 700
    zeros = np.where(np.arange(n) % 3 == 1, -0.0, 0.0)
    return Trajectory(step=0.001, states=(np.full(n, -0.0),), output=zeros, input=zeros[::-1])


def _non_finite():
    n = 600
    payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000] * 200,
                        dtype=np.uint64).view(np.float64)
    return Trajectory(step=0.25, states=(np.full(n, np.inf), np.full(n, -np.inf), payloads),
                      output=np.full(n, np.nan), input=np.full(n, 1e308))


class TestTrajectoryCsv:
    """The chunked writer gives the per-row writer's bytes."""

    @pytest.mark.parametrize("make", [
        _golden, _pi, _diverged, _samples, _direct,
        *(functools.partial(_rows, n) for n in (1, 511, 512, 513, 1025)),
        _signed_zeros, _non_finite,
    ], ids=["golden", "pi", "diverged", "samples", "direct", "rows-1", "rows-511", "rows-512",
            "rows-513", "rows-1025", "signed-zeros", "non-finite"])
    def test_bytes_equal_the_per_row_writer(self, tmp_path, make):
        traj = make()
        write_trajectory_csv(tmp_path / "chunked.csv", traj)
        per_row_csv(tmp_path / "per_row.csv", traj)
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()


class TestImportCost:
    """An import loads no module the package does not need at load time: each one costs
    start-up time on every run."""

    @pytest.mark.parametrize("module, absent", [("fracreg", ("argparse", "json", "logging")),
                                                ("fracreg.cli", ("logging",))])
    def test_import_leaves_modules_unloaded(self, module, absent):
        # a fresh interpreter, on the path of the package under test
        src = str(Path(fracreg.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_two_commands_parse_independently(self, tmp_path, capsys):
        doc = {"plant": PLANT, "controller": {"type": "pd", "K": 24.0, "Td": 6.9407,
                                              "delta": 0.71859}, "sim": {"h": 0.01, "t_end": 1.0}}
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        design = {"plant": PLANT,
                  "design": {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "ess": 4.0}}
        # no --out this time: the report lands next to the config, not in `out`
        assert main(["design", "--config", str(write_config(tmp_path, design, "d.json"))]) == 0
        assert capsys.readouterr().out.splitlines() == [str(out / "trajectory.csv"),
                                                        str(tmp_path / "report.json")]
        assert (tmp_path / "report.json").exists() and not (out / "report.json").exists()

    def test_good_call_after_an_argparse_failure(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # --config is required
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        code = main(["poles", "--config", str(CONFIGS / "golden_pd_sim.json"),
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == f"{tmp_path / 'poles.json'}\n"


class TestDesign:
    def test_four_percent_report(self, tmp_path):
        doc = {
            "plant": PLANT,
            "design": {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "ess": 4.0},
        }
        code = main(["design", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["controller"]["K"] == 24.0
        assert report["controller"]["Td"] == pytest.approx(6.9407, abs=1e-3)
        assert report["controller"]["delta"] == pytest.approx(0.71859, abs=1e-3)
        assert report["verdict"] == "stable"
        assert report["config"] == doc  # round trip

    def test_two_percent_unstable_exit(self, tmp_path):
        doc = {
            "plant": PLANT,
            "design": {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "ess": 2.0},
        }
        code = main(["design", "--config", str(write_config(tmp_path, doc))])
        assert code == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "unstable"
        assert any(
            abs(r["re"] - 1.98) < 0.02 and abs(r["im"]) < 1e-6 for r in report["roots"]
        )

    def test_report_carries_the_root_count(self, tmp_path):
        doc = {
            "plant": PLANT,
            "design": {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "ess": 4.0},
        }
        assert main(["design", "--config", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["method"] == "newton-grid"
        assert report["root_count"] == len(report["roots"]) == 2
        assert report["coverage_caveat"] is False

    def test_sign_certificate_makes_an_unfound_root_unstable(self, tmp_path, capsys,
                                                             monkeypatch):
        # P = -0.1148 s^2.708 - 1.879 s^1.584 - 59.01 s^0.00206 + 58.28: the leading and
        # constant coefficients differ in sign, so P has a root s > 0, although the count
        # fails and the Newton search, stubbed here, finds no root
        monkeypatch.setattr(charpoly, "_newton_search", lambda p, pn: ([], None))
        doc = {
            "plant": {"a0": 2.3311671784640082, "a1": -1.8786159693501152,
                      "a2": -0.11476133927267451, "alpha": 2.7076198902019244,
                      "beta": 1.5843988150576558},
            "design": {"type": "pd", "ess": 4.0,
                       "poles": [[-0.32984161915478666, 0.43745161077546424],
                                 [-0.32984161915478666, -0.43745161077546424]]},
        }
        assert main(["design", "--config", str(write_config(tmp_path, doc))]) == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "unstable"
        assert report["coverage_caveat"] is False
        assert report["roots"] == []
        assert capsys.readouterr().err == ""

    def test_right_half_plane_root_is_reported(self, tmp_path):
        # the same loop as the bundled config: Newton finds its root s ~ 0.0024
        code = main(["design", "--config", str(CONFIGS / "design_pd_rhp_root.json"),
                     "--out", str(tmp_path)])
        assert code == 4
        report = json.loads((tmp_path / "design_pd_rhp_root_report.json").read_text())
        assert (report["verdict"], report["coverage_caveat"], report["root_count"]) == (
            "unstable", False, None)
        assert [r["re"] for r in report["roots"] if r["re"] > 0] == pytest.approx([0.0024],
                                                                                  rel=0.05)

    @pytest.mark.parametrize("plant, design, code, reason", [
        # every branch of this right-half-plane pole has |delta| >= 3; the design
        # (delta ~ 3.672) stands, but its model order 1 + delta - alpha is out of range
        ({"a0": 0.30070129922174715, "a1": -1.9629076690716651, "a2": 1.2268885431551357,
          "alpha": 0.823758163392412, "beta": 0.15790469754154754},
         {"type": "pd", "ess": 37.79215923541365,
          "poles": [[0.9467953735487783, 0.4155707748055969]]}, 4, "GL order 3.848"),
        # (a0 + K) / a2 overflows in the model for a subnormal a2
        ({**PLANT, "a2": 5e-324}, {"type": "pd", "ess": 4.0, "poles": [[-1.0, 6.0]]}, 0,
         "gain must be finite"),
    ], ids=["order", "gain"])
    def test_design_that_cannot_be_simulated_is_reported(self, tmp_path, capsys, plant, design,
                                                         code, reason):
        doc = {"plant": plant, "design": design}
        assert main(["design", "--config", str(write_config(tmp_path, doc))]) == code
        assert (tmp_path / "report.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"design cannot be simulated: {reason}")

    def test_integer_design(self, tmp_path):
        doc = {
            "plant": PLANT,
            "design": {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "integer": True},
        }
        code = main(["design", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["controller"]["K"] == pytest.approx(36.0854, abs=1e-3)
        assert report["controller"]["Td"] == pytest.approx(4.0141, abs=1e-3)

    @pytest.mark.parametrize("value", ["false", 1, 0, None, [True]])
    def test_integer_flag_must_be_a_boolean(self, tmp_path, capsys, value):
        # read by its truth value, "false" would run the integer design and drop "ess"
        doc = json.loads((CONFIGS / "design_pd_integer.json").read_text())
        doc["design"].update(integer=value, ess=4.0)
        assert main(["design", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "'design.integer'" in capsys.readouterr().err
        assert not (tmp_path / "design_pd_integer_report.json").exists()

    def test_pi_design(self, tmp_path):
        doc = {
            "plant": {"a0": 1.0, "a1": 4.0, "a2": 1.0, "alpha": 2.0, "beta": 1.0},
            "design": {"type": "pi", "poles": [[-1.0, 1.0], [-1.0, -1.0], [-2.0, 0.0]]},
        }
        code = main(["design", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["controller"]["type"] == "pi"
        assert report["controller"]["lambda"] == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_pi_design_exit5(self, tmp_path, capsys):
        # the second pole set overflows the solver's iterates on the way
        cases = [
            ({"a0": 1.0, "a1": 4.0, "a2": 1.0, "alpha": 2.0, "beta": 1.0},
             [[-1e6, 0.0], [-1e-6, 0.0], [-1.0, 0.0]]),
            (PLANT, [[-1.0, 2.0], [-1.0, -2.0], [-3.0, 0.0]]),
        ]
        for plant, poles in cases:
            doc = {"plant": plant, "design": {"type": "pi", "poles": poles}}
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["design", "--config", str(write_config(tmp_path, doc))])
            assert code == 5
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("design solver failed")


class TestPoles:
    def test_golden_poles(self, tmp_path):
        doc = {
            "plant": PLANT,
            "controller": {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859},
            "sim": GOLDEN_SIM,
        }
        code = main(["poles", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "poles.json").read_text())
        found = [complex(r["re"], r["im"]) for r in report["roots"]]
        assert min(abs(v - (-1 + 6j)) for v in found) < 5e-2

    def test_integer_poly_uses_commensurate(self, tmp_path):
        doc = {
            "plant": {"a0": 1.0, "a1": 0.5, "a2": 0.8, "alpha": 2.0, "beta": 1.0},
            "controller": {"type": "pd", "K": 24.0, "Td": 4.0, "delta": 1.0},
        }
        code = main(["poles", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "poles.json").read_text())
        assert report["method"] == "commensurate"

    def test_real_root_is_written_real(self, tmp_path):
        code = main(["poles", "--config", str(CONFIGS / "unstable_pd_sim.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        roots = json.loads((tmp_path / "poles.json").read_text())["roots"]
        real = [r for r in roots if abs(r["re"] - 1.989) < 0.01]
        assert len(real) == 1
        assert real[0]["im"] == 0.0 and math.copysign(1.0, real[0]["im"]) == 1.0

    def test_far_pair_makes_the_loop_unstable(self, tmp_path):
        # P = 1e-8 s^4 - 1e-4 s^3 + s^2 + 2: |P| at the pair 5000 +- 8660i is about 1e-7,
        # while its terms are about 1e8
        code = main(["poles", "--config", str(CONFIGS / "poles_far_pair.json"),
                     "--out", str(tmp_path)])
        assert code == 0  # poles reports an unstable loop, and exits 0
        report = json.loads((tmp_path / "poles_far_pair.json").read_text())
        assert (report["verdict"], report["method"], report["root_count"]) == (
            "unstable", "commensurate", 4)
        found = sorted((complex(r["re"], r["im"]) for r in report["roots"]),
                       key=lambda z: (z.real, z.imag))
        want = sorted(np.roots([1e-8, -1e-4, 1.0, 0.0, 2.0]), key=lambda z: (z.real, z.imag))
        assert found == pytest.approx(want, rel=1e-8)

    def test_pair_near_zero_is_reported(self, tmp_path):
        # P = s + 1e-14 s^-1: its roots +-1e-7i lie next to s = 0, where P is not defined
        doc = {
            "plant": {"a0": 1.0, "a1": 0.0, "a2": 1.0, "alpha": 1.0, "beta": 0.5},
            "controller": {"type": "pd", "K": -1.0, "Td": 1e-14, "delta": -1.0},
        }
        code = main(["poles", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "poles.json").read_text())
        assert [r["im"] for r in report["roots"]] == pytest.approx([-1e-7, 1e-7], abs=1e-20)
        assert all(r["re"] == 0 for r in report["roots"])
        assert report["root_count"] == 2 and report["verdict"] == "stable"

    def test_zero_controller_open_loop_roots(self, tmp_path):
        doc = {
            "plant": PLANT,
            "controller": {"type": "pd", "K": 0.0, "Td": 0.0, "delta": 1.0},
        }
        code = main(["poles", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        report = json.loads((tmp_path / "poles.json").read_text())
        found = [complex(r["re"], r["im"]) for r in report["roots"]]
        # independent dense scan of |f| minima for 0.8 s^2.2 + 0.5 s^0.9 + 1
        def f(s):
            return 0.8 * s ** 2.2 + 0.5 * s ** 0.9 + 1.0

        grid_min = None
        for re in [x * 0.01 for x in range(-200, 201)]:
            for im in [x * 0.01 for x in range(1, 201)]:
                s = complex(re, im)
                v = abs(f(s))
                if grid_min is None or v < grid_min[0]:
                    grid_min = (v, s)
        assert found, "open loop must have principal-sheet roots"
        assert min(abs(v - grid_min[1]) for v in found) < 0.02


def _rename(block, old, new):
    block[new] = block.pop(old)


def _samples_input(doc):
    doc["sim"] = {"h": 0.01, "t_end": 1.0, "input": {"type": "samples", "values": [1.0] * 101}}
    return doc["sim"]["input"]


class TestConfigErrors:
    def test_missing_key_names_it(self, tmp_path, capsys):
        doc = {"plant": {"a0": 1.0, "a1": 0.5, "a2": 0.8, "alpha": 2.2}}
        code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
        assert code == 2
        assert "plant.beta" in capsys.readouterr().err

    def test_missing_block_is_named_without_a_dot(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "golden_pd_sim.json").read_text())
        del doc["controller"]
        assert main(["poles", "--config", str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == "config error: missing key 'controller'\n"

    @pytest.mark.parametrize("command, name, edit, key", [
        ("design", "design_pd_ess4", lambda d: d.update(desgin=d["design"]), "desgin"),
        ("poles", "pi_integer_sim", lambda d: d["controller"].update(Td=1.0), "controller.Td"),
        ("simulate", "golden_pd_sim", lambda d: d["controller"].update({"lambda": 0.5}),
         "controller.lambda"),
        ("simulate", "golden_pd_sim", lambda d: d["sim"]["input"].update(values=[1.0]),
         "sim.input.values"),
        ("simulate", "golden_pd_sim", lambda d: _samples_input(d).update(amplitude=2.0),
         "sim.input.amplitude"),
        ("design", "design_pd_integer", lambda d: d["design"].update(ess=4.0), "design.ess"),
        ("design", "design_pi_planted", lambda d: d["design"].update(ess=4.0), "design.ess"),
        ("poles", "poles_far_pair", lambda d: _rename(d["output"], "roots_json", "roots_jsn"),
         "output.roots_jsn"),
        # a misspelt key used to be dropped: the fractional design, the default CSV name,
        # a unit step, and "missing key '.controller'"
        ("design", "design_pd_integer",
         lambda d: (_rename(d["design"], "integer", "intger"), d["design"].update(ess=4)),
         "design.intger"),
        ("simulate", "golden_pd_sim", lambda d: d.update(output={"trajectory_cvs": "mine.csv"}),
         "output.trajectory_cvs"),
        ("simulate", "golden_pd_sim", lambda d: d["sim"].update(input={"amplitud": 5.0}),
         "sim.input.amplitud"),
        ("simulate", "golden_pd_sim", lambda d: _rename(d, "controller", "contoller"),
         "contoller"),
        # a key in a block the command does not use: read all the same
        ("poles", "golden_pd_sim", lambda d: d["sim"].update(hh=1), "sim.hh"),
        ("poles", "golden_pd_sim", lambda d: d["sim"]["input"].update(amplitud=5.0),
         "sim.input.amplitud"),
        ("simulate", "golden_pd_sim",
         lambda d: d.update(design={"poles": [[-1.0, 1.0]], "ess": 4, "bogus": 1}),
         "design.bogus"),
        ("simulate", "golden_pd_sim",
         lambda d: d.update(design={"type": "pi", "poles": [[-1.0, 0.0]], "ess": 4}),
         "design.ess"),
        ("design", "design_pd_ess4", lambda d: d.update(sim={**GOLDEN_SIM, "hh": 1}), "sim.hh"),
    ], ids=["top-level", "Td-on-pi", "lambda-on-pd", "values-on-step", "amplitude-on-samples",
            "ess-with-integer", "ess-on-pi", "output", "intger", "trajectory_cvs", "amplitud",
            "contoller", "poles-sim", "poles-sim-input", "simulate-design", "simulate-pi-design",
            "design-sim"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, name, edit, key):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        edit(doc)
        config = write_config(tmp_path, doc)
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: unknown key '{key}'\n"
        assert list(tmp_path.iterdir()) == [config]  # no output file

    def test_values_of_a_skipped_block_are_not_parsed(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "golden_pd_sim.json").read_text())
        doc["sim"]["h"] = "fast"  # `simulate` rejects it; `poles` reads only the sim keys
        config = write_config(tmp_path, doc)
        assert main(["poles", "--config", str(config)]) == 0
        assert main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: key 'sim.h' must be a number\n"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unknown_controller_type(self, tmp_path):
        doc = {"plant": PLANT, "controller": {"type": "pid"}, "sim": GOLDEN_SIM}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 2

    @pytest.mark.parametrize("key, value", [("memory_len", math.nan), ("t_end", math.inf)])
    def test_nonfinite_sim_value(self, tmp_path, capsys, key, value):
        # JSON from Python carries NaN and Infinity; both are config errors
        sim = dict(GOLDEN_SIM, **{key: value})
        doc = {"plant": PLANT, "controller": {"type": "pd", "K": 24.0, "Td": 6.9407,
                                              "delta": 0.71859}, "sim": sim}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, changes", [
        ("simulate", {"sim": {"h": 0.01, "t_end": 1.0,
                              "input": {"type": "samples", "values": [1.0] * 100}}}),
        ("simulate", {"sim": {"h": 0.01, "t_end": 1.0,
                              "input": {"type": "samples", "values": ["one"] * 101}}}),
        ("simulate", {"output": "trajectory.csv"}),
        ("simulate", {"output": {"trajectory_csv": 7}}),
        ("design", {"design": {"type": "pd", "poles": [["-1", 6], ["-1", -6]], "ess": 4.0}}),
    ], ids=["short-samples", "string-samples", "output-not-object", "output-name-not-string",
            "string-poles"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command, changes):
        doc = {"plant": PLANT, "sim": {"h": 0.01, "t_end": 1.0}, **changes}
        if command == "simulate":
            doc["controller"] = {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859}
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, name", [
        ("simulate", "trajectory_csv", "missing/x.csv"),
        ("design", "report_json", "nope/r.json"),
        ("poles", "roots_json", "../escape.json"),
    ])
    def test_output_name_with_a_directory_is_config_error(self, tmp_path, capsys, command,
                                                          key, name):
        doc = {"plant": PLANT, "sim": {"h": 0.01, "t_end": 1.0}, "output": {key: name}}
        if command == "design":
            doc["design"] = {"type": "pd", "poles": [[-1.0, 6.0], [-1.0, -6.0]], "ess": 4.0}
        else:
            doc["controller"] = {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859}
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        assert f"output.{key}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "escape.json").exists()

    @pytest.mark.parametrize("h, t_end, count", [(1e-3, 1e308, "inf"),
                                                 (1e-300, 12.0, "1.2e+301")])
    def test_huge_step_count_is_resource_limit(self, tmp_path, capsys, h, t_end, count):
        # t_end / h overflows a float, or rounds to a 300-digit int
        doc = {"plant": PLANT, "controller": {"type": "pd", "K": 24.0, "Td": 6.9407,
                                              "delta": 0.71859}, "sim": {"h": h, "t_end": t_end}}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 5
        err = capsys.readouterr().err
        assert f"error: {count} steps exceed the cap" in err and "FRACREG_MAX_STEPS" in err

    def test_model_gain_past_the_float_range_is_config_error(self, tmp_path, capsys):
        # (a0 + K) / a2 overflows for a subnormal a2
        doc = {"plant": {**PLANT, "a2": 5e-324},
               "controller": {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859},
               "sim": {"h": 0.01, "t_end": 0.1}}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid closed-loop model: gain must be finite")

    def test_huge_step_count_with_explicit_samples_is_config_error(self, tmp_path, capsys):
        doc = {"plant": PLANT, "controller": {"type": "pd", "K": 24.0, "Td": 6.9407,
                                              "delta": 0.71859},
               "sim": {"h": 1e-3, "t_end": 1e308,
                       "input": {"type": "samples", "values": [1.0, 1.0, 1.0]}}}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "need inf samples" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["abc", "0", "-5"])
    def test_bad_step_cap_is_config_error(self, tmp_path, capsys, monkeypatch, cap):
        monkeypatch.setenv("FRACREG_MAX_STEPS", cap)
        doc = {"plant": PLANT, "controller": {"type": "pd", "K": 24.0, "Td": 6.9407,
                                              "delta": 0.71859}, "sim": {"h": 0.01, "t_end": 1.0}}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "FRACREG_MAX_STEPS" in capsys.readouterr().err

    @pytest.mark.parametrize("controller, reason", [
        ({"K": -1.0, "Td": -0.8, "delta": 2.2}, "need at least two terms"),  # only a1 s^beta left
        ({"K": 3.8e307, "Td": 1.7976931348623157e308, "delta": 0.0}, "must be finite"),
    ])
    def test_degenerate_closed_loop_is_config_error(self, tmp_path, capsys, controller, reason):
        doc = {"plant": PLANT, "controller": {"type": "pd", **controller}}
        assert main(["poles", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid closed-loop polynomial") and reason in err

    def test_tiny_step_with_a_large_order_is_exit5(self, tmp_path, capsys):
        # h^-order of the PI state model's order 3 - alpha - lambda = 2.3 leaves the float range
        doc = {"plant": {"a0": 1.0, "a1": 0.5, "a2": 1.0, "alpha": 0.5, "beta": 0.2},
               "controller": {"type": "pi", "K": 1.0, "Ti": 1.0, "lambda": 0.2},
               "sim": {"h": 1e-300, "t_end": 1e-298}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
        assert code == 5
        assert capsys.readouterr().err.startswith("error: step 1e-300 is too small")

    def test_out_dir_option(self, tmp_path):
        doc = {
            "plant": PLANT,
            "controller": {"type": "pd", "K": 24.0, "Td": 6.9407, "delta": 0.71859},
            "sim": {"h": 0.01, "t_end": 1.0},
        }
        out = tmp_path / "results"
        code = main(
            ["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()


#: Edge values for a config number: signed zeros, a negative, subnormals, the float
#: range's ends, NaN and the infinities.
EXTREME_NUMBERS = [0.0, -0.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e308,
                   -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf]


#: A mutated config number: the edge values, any float, and ranges around the bundled ones.
NUMBERS = st.one_of(st.sampled_from(EXTREME_NUMBERS), st.floats(), st.floats(1e-4, 0.1),
                    st.floats(0.0, 3.0), st.floats(1e12, 1e308))


#: A value of the wrong type where a config number goes.
WRONG_TYPES = st.text(max_size=3) | st.none() | st.lists(NUMBERS, max_size=2)


def mutations(keys, numbers=NUMBERS):
    """Any subset of `keys`, each mapped to a number."""
    return st.fixed_dictionaries({}, optional=dict.fromkeys(keys, numbers))


def config_blocks(doc, path=()):
    """The path of `doc` and of every object nested in it."""
    yield path
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from config_blocks(value, (*path, key))


#: (command, bundled config, path of one of its blocks): each bundled config under a command
#: it runs, and each block present, whether or not that command uses it (`poles` skips `sim`).
BLOCKS = [(command, name, path)
          for command, name in [("simulate", "golden_pd_sim"), ("simulate", "pi_fractional_sim"),
                                ("simulate", "short_memory_sim"), ("design", "design_pd_ess4"),
                                ("design", "design_pd_integer"), ("design", "design_pi_planted"),
                                ("poles", "golden_pd_sim"), ("poles", "poles_far_pair")]
          for path in config_blocks(json.loads((CONFIGS / f"{name}.json").read_text()))]


#: Every key the config schema names, in any block.
KNOWN_KEYS = {"plant", "controller", "sim", "design", "output", "a0", "a1", "a2", "alpha", "beta",
              "type", "K", "Td", "delta", "Ti", "lambda", "h", "t_end", "memory_len", "input",
              "amplitude", "values", "poles", "ess", "integer", "trajectory_csv", "report_json",
              "roots_json"}


#: Derandomized, no example database; the fixtures hold one temp dir for every example.
FUZZ = settings(derandomize=True, database=None, deadline=5000,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestConfigFuzz:
    """Numbers of the bundled configs, mutated, end in a documented exit."""

    #: The path of each mutated number in its config.
    SIM_KEYS = {"h": ("sim", "h"), "t_end": ("sim", "t_end"),
                "memory_len": ("sim", "memory_len"), "amplitude": ("sim", "input", "amplitude")}
    DESIGN_KEYS = {"re1": ("design", "poles", 0, 0), "im1": ("design", "poles", 0, 1),
                   "re2": ("design", "poles", 1, 0), "im2": ("design", "poles", 1, 1),
                   "ess": ("design", "ess")}
    POLES_KEYS = {key: ("controller", key) for key in ("K", "Td", "delta")}

    def run(self, tmp_path, capsys, command, name, keys, mutation):
        """(exit code, stderr) of `command` on the bundled config `name`, mutated."""
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        for key, value in mutation.items():
            *parents, last = keys[key]
            block = doc
            for part in parents:
                block = block[part]
            block[last] = value
        return self.run_doc(tmp_path, capsys, command, doc)

    def run_doc(self, tmp_path, capsys, command, doc):
        """(exit code, stderr) of `command` on the config `doc`."""
        code = main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        event(f"exit {code}")
        assert "Traceback" not in err
        return code, err

    @given(mutation=mutations(SIM_KEYS))
    @settings(FUZZ, max_examples=200)
    def test_mutated_sim_block(self, tmp_path, monkeypatch, capsys, mutation):
        monkeypatch.setenv("FRACREG_MAX_STEPS", "3000")  # each run stays cheap
        code, err = self.run(tmp_path, capsys, "simulate", "golden_pd_sim", self.SIM_KEYS,
                             mutation)
        assert code in {0, 2, 3, 5}
        if code:
            assert err.startswith(("config error:", "simulation diverged:", "error:"))

    @given(mutation=mutations(DESIGN_KEYS, st.one_of(NUMBERS, st.floats(-10.0, 10.0))))
    @settings(FUZZ, max_examples=150)
    def test_mutated_design_block(self, tmp_path, capsys, mutation):
        code, err = self.run(tmp_path, capsys, "design", "design_pd_ess4", self.DESIGN_KEYS,
                             mutation)
        self.check_design_exit(code, err)

    @staticmethod
    def check_design_exit(code, err):
        assert code in {0, 2, 4, 5}
        if code in {2, 5}:
            assert err.startswith(("config error:", "design solver failed:", "solver failure:",
                                   "error:"))
        else:  # a designed loop, stable or not, and whether `simulate` can run it
            assert err == "" or (err.startswith("design cannot be simulated:")
                                 and err.count("\n") == 1)

    #: The mutated PI pole parts: numbers, and then one part may get a value of the
    #: wrong type.
    PI_PARTS = ("pair_re", "pair_im", "real")
    PI_MUTATIONS = st.tuples(
        mutations(PI_PARTS, st.one_of(NUMBERS, st.floats(-10.0, 10.0))),
        st.none() | st.tuples(st.sampled_from(PI_PARTS), WRONG_TYPES))

    @given(mutated=PI_MUTATIONS)
    @settings(FUZZ, max_examples=150)
    def test_mutated_pi_design(self, tmp_path, capsys, mutated):
        # the pair's parts move together, so the pole set stays closed under conjugation
        mutation, wrong_type = mutated
        if wrong_type is not None:
            mutation[wrong_type[0]] = wrong_type[1]
        doc = json.loads((CONFIGS / "design_pi_planted.json").read_text())
        upper, lower, real = doc["design"]["poles"]
        if "pair_re" in mutation:
            upper[0] = lower[0] = mutation["pair_re"]
        if "pair_im" in mutation:
            im = mutation["pair_im"]
            upper[1], lower[1] = im, -im if isinstance(im, float) else im
        real[0] = mutation.get("real", real[0])
        code, err = self.run_doc(tmp_path, capsys, "design", doc)
        self.check_design_exit(code, err)

    #: The plant numbers, each mutated to a number or to a value of the wrong type.
    PLANT_KEYS = {key: ("plant", key) for key in ("a0", "a1", "a2", "alpha", "beta")}

    @pytest.mark.parametrize("command, name", [("poles", "golden_pd_sim"),
                                               ("design", "design_pd_ess4"),
                                               ("design", "design_pi_planted"),
                                               ("simulate", "golden_pd_sim")])
    @given(mutation=mutations(PLANT_KEYS, st.one_of(NUMBERS, WRONG_TYPES)))
    @settings(FUZZ, max_examples=100)
    def test_mutated_plant_block(self, tmp_path, monkeypatch, capsys, command, name, mutation):
        monkeypatch.setenv("FRACREG_MAX_STEPS", "3000")  # each simulation stays cheap
        keys = self.PLANT_KEYS
        if command == "simulate":  # 2 000 steps, under the cap, so the mutated loop runs
            keys, mutation = {**keys, **self.SIM_KEYS}, {**mutation, "t_end": 2.0}
        code, err = self.run(tmp_path, capsys, command, name, keys, mutation)
        if command == "design":
            self.check_design_exit(code, err)
            return
        if command == "simulate":
            assert code in {0, 2, 3, 5}
            prefixes = ("config error:", "simulation diverged:", "error:")
        else:
            assert code in {0, 2, 4, 5}
            prefixes = ("config error:", "root search was inconclusive", "error:")
        if code:
            assert err.startswith(prefixes)
        else:
            assert err == ""

    @given(target=st.sampled_from(BLOCKS),
           key=st.text(st.characters(exclude_categories=["Cs"]), max_size=8).filter(
               lambda key: key not in KNOWN_KEYS),
           value=st.one_of(NUMBERS, WRONG_TYPES, st.dictionaries(st.text(max_size=2), NUMBERS)))
    @settings(FUZZ, max_examples=150)
    def test_unknown_key_in_any_block(self, tmp_path, monkeypatch, capsys, target, key, value):
        monkeypatch.setenv("FRACREG_MAX_STEPS", "3000")  # a run the key does not stop is cheap
        command, name, path = target
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        block = doc
        for part in path:
            block = block[part]
        block[key] = value
        code, err = self.run_doc(tmp_path, capsys, command, doc)
        assert code == 2
        assert err == f"config error: unknown key '{'.'.join((*path, key))}'\n"

    @given(mutation=mutations(POLES_KEYS, st.one_of(NUMBERS, st.floats(-100.0, 100.0))))
    @settings(FUZZ, max_examples=150)
    def test_mutated_poles_controller(self, tmp_path, capsys, mutation):
        code, err = self.run(tmp_path, capsys, "poles", "golden_pd_sim", self.POLES_KEYS,
                             mutation)
        assert code in {0, 2, 4, 5}
        if code:
            assert err.startswith(("config error:", "root search was inconclusive",
                                   "solver failure:", "error:"))
        else:
            assert err == ""
