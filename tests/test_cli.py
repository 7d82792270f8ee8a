import csv
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fracreg.cli import main

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


class TestConfigErrors:
    def test_missing_key_names_it(self, tmp_path, capsys):
        doc = {"plant": {"a0": 1.0, "a1": 0.5, "a2": 0.8, "alpha": 2.2}}
        code = main(["simulate", "--config", str(write_config(tmp_path, doc))])
        assert code == 2
        assert "plant.beta" in capsys.readouterr().err

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


class TestConfigFuzz:
    """The `sim` numbers of the golden config, mutated, end in a documented exit."""

    #: The keys mutated: where each sits in the `sim` block.
    KEYS = {"h": (), "t_end": (), "memory_len": (), "amplitude": ("input",)}

    @given(mutation=st.fixed_dictionaries({}, optional=dict.fromkeys(KEYS, st.one_of(
        st.sampled_from(EXTREME_NUMBERS), st.floats(), st.floats(1e-4, 0.1),
        st.floats(0.0, 3.0), st.floats(1e12, 1e308)))))
    @settings(max_examples=200, derandomize=True, database=None, deadline=5000,
              # the fixtures hold one temp dir and one cap for every example
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_sim_block(self, tmp_path, monkeypatch, capsys, mutation):
        monkeypatch.setenv("FRACREG_MAX_STEPS", "3000")  # each run stays cheap
        doc = json.loads((CONFIGS / "golden_pd_sim.json").read_text())
        for key, value in mutation.items():
            block = doc["sim"]
            for part in self.KEYS[key]:
                block = block[part]
            block[key] = value
        code = main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        event(f"exit {code}")
        assert code in {0, 2, 3, 5}
        assert "Traceback" not in err
        if code:
            assert err.startswith(("config error:", "simulation diverged:", "error:"))
