"""Record the correctness gate's reference values from the current code.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json.  Run it only on code whose numbers are
the accepted baseline; the benchmark then checks every run against it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# the same BLAS thread cap as run.py, so sums are accumulated in the same order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import fracreg.cli  # noqa: E402
from fracreg import (Plant, PdController, SimConfig, build_pd_model,  # noqa: E402
                     simulate_state_space)

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

CONFIGS = BENCH_DIR.parent / "configs"

# config_batch task kind -> (subcommand, bundled config it varies)
CLI_CASES = {
    "simulate_pd_short": ("simulate", "golden_pd_sim.json"),
    "simulate_pi": ("simulate", "pi_integer_sim.json"),
    "simulate_diverged": ("simulate", "unstable_pd_sim.json"),
    "design_ess4": ("design", "design_pd_ess4.json"),
    "design_ess2": ("design", "design_pd_ess2.json"),
    "design_integer": ("design", "design_pd_integer.json"),
    "poles_stable": ("poles", "golden_pd_sim.json"),
    "poles_unstable": ("poles", "unstable_pd_sim.json"),
}


def cli_cases(out_dir):
    exits, rows = {}, None
    for kind, (command, name) in CLI_CASES.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exits[kind] = fracreg.cli.main([command, "--config", str(CONFIGS / name),
                                            "--out", str(out_dir)])
        if kind == "simulate_diverged":
            csv = json.loads((CONFIGS / name).read_text())["output"]["trajectory_csv"]
            rows = len((Path(out_dir) / csv).read_text().splitlines()) - 1
    return exits, rows


def main():
    lh = workloads.LongHorizon()
    plan = lh.generate(0)
    golden, unstable = plan["tasks"][0], plan["tasks"][-1]
    ref = {}
    fp_plant = dict(workloads.GOLDEN_PLANT)
    ref["golden"] = {"plant": fp_plant, "pole": [-1.0, 6.0], "ess": 4.0,
                     "K": golden["ctrl"].K, "Td": golden["ctrl"].Td,
                     "delta": golden["ctrl"].delta}
    ref["pi_planted"] = {"plant": dict(workloads.PI_PLANT), "K": 5.0, "Ti": 4.0, "lam": 1.0}
    fp = gate.fingerprint(ref)
    ref["golden"]["poles"] = [[z.real, z.imag] for z in fp["poles"]]

    out = lh.run(golden, layers.RAW)
    ref["golden_trajectory"] = {
        "h": lh.h, "t_end": lh.t_end,
        "y_end": float(out["y"][-1]), "y_l2": float(np.linalg.norm(out["y"])),
        "u_end": float(out["u"][-1]), "u_l2": float(np.linalg.norm(out["u"])),
        "oracle_gap": float(np.max(np.abs(out["y"] - out["y_direct"]))),
    }
    out = lh.run(unstable, layers.RAW)
    ref["unstable"] = {"h": lh.h, "t_end": lh.t_end_unstable, "K": unstable["ctrl"].K,
                       "Td": unstable["ctrl"].Td, "delta": unstable["ctrl"].delta,
                       "state_space_index": out["ss_index"], "direct_index": out["direct_index"]}

    cb = workloads.ConfigBatch
    plant = Plant(**workloads.GOLDEN_PLANT)
    ctrl = PdController(K=cb.golden["K"], Td=cb.golden["Td"], delta=cb.golden["delta"])
    ref["short_memory_y_end"] = {
        repr(ml): {repr(t_end): float(simulate_state_space(
            build_pd_model(plant, ctrl), SimConfig(step=1e-3, t_end=t_end, memory_len=ml)
        ).output[-1]) for t_end in cb.t_ends}
        for ml in cb.memory_lens
    }
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        ref["cli_exit"], ref["diverged_cli_rows"] = cli_cases(tmp)

    problems = [name for name, ok, _ in gate.check_fingerprint(fp, ref) if not ok]
    if problems:
        raise SystemExit(f"fingerprint does not reproduce: {problems}")
    path = gate.REFERENCE_PATH
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
