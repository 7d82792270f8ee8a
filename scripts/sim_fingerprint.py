#!/usr/bin/env python3
"""Fingerprint of both simulators over a fixed set of closed loops.

For each loop and simulator it prints the step count n, the divergence
index (or "-"), the `repr` of the last output sample and of the output's
2-norm, and the sha256 of the output's bytes.  Two source trees that print
the same lines give bit-identical outputs, so run it in both trees to
check that a change to `simulate` or `glcalc` moves no number; where it
does, the printed values show by how much.

The loops, on the bundled PD^delta plant (a0 = 1, a1 = 0.5, a2 = 0.8,
alpha = 2.2, beta = 0.9) unless noted:
  - golden: PD^delta designed for the pole -1 + 6i at e_ss 4 %, at
    h = 5e-4 and 1e-3 over 12 s;
  - unstable: the 2 % design, at h = 5e-4 over 16 s and h = 1e-3 over 20 s,
    which diverges;
  - pi-0.5: PI^lambda with K = 2, Ti = 1, lambda = 0.5 (three states), at
    h = 5e-3 over 20 s; its poles 0.18 +- 2.01i make it grow, but not to
    the divergence limit;
  - pi-integer: the bundled integer PI loop (configs/pi_integer_sim.json);
  - short-memory: the golden loop at h = 1e-3 over 5 s with a 0.6 s memory.

With `--records FILE` it also writes every (loop, simulator) run to FILE as
JSON: name, n, divergence index (or null), y_end and norm (the output's
2-norm).  `scripts/compare_records.py` compares two such files.

Usage: PYTHONPATH=src python scripts/sim_fingerprint.py [--records FILE]
"""

import argparse
import hashlib
import json

import numpy as np

from fracreg import (DesignSpecPd, DivergedError, PiController, Plant, SimConfig,
                     build_pd_model, build_pi_model, design_pd_fractional, simulate_direct,
                     simulate_state_space)

PD_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
PI_PLANT = Plant(a0=1.0, a1=4.0, a2=1.0, alpha=2.0, beta=1.0)
POLE = complex(-1.0, 6.0)


def loops():
    """(name, plant, controller, state model, SimConfig) of every loop."""
    golden = design_pd_fractional(DesignSpecPd(plant=PD_PLANT, pole=POLE, ess_percent=4.0))
    unstable = design_pd_fractional(DesignSpecPd(plant=PD_PLANT, pole=POLE, ess_percent=2.0))
    pi_half = PiController(K=2.0, Ti=1.0, lam=0.5)
    pi_integer = PiController(K=5.0, Ti=4.0, lam=1.0)
    return [
        ("golden h=5e-4", PD_PLANT, golden, SimConfig(step=5e-4, t_end=12.0)),
        ("golden h=1e-3", PD_PLANT, golden, SimConfig(step=1e-3, t_end=12.0)),
        ("unstable h=5e-4", PD_PLANT, unstable, SimConfig(step=5e-4, t_end=16.0)),
        ("unstable h=1e-3", PD_PLANT, unstable, SimConfig(step=1e-3, t_end=20.0)),
        ("pi-0.5", PD_PLANT, pi_half, SimConfig(step=5e-3, t_end=20.0)),
        ("pi-integer", PI_PLANT, pi_integer, SimConfig(step=5e-3, t_end=15.0)),
        ("short-memory", PD_PLANT, golden, SimConfig(step=1e-3, t_end=5.0, memory_len=0.6)),
    ]


def run(simulate, *args):
    """(output, divergence index or None)."""
    try:
        return simulate(*args).output, None
    except DivergedError as exc:
        return exc.trajectory.output, exc.index


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", metavar="FILE", help="write every run to FILE as JSON")
    args = parser.parse_args()
    records = []
    for name, plant, ctrl, cfg in loops():
        build = build_pi_model if isinstance(ctrl, PiController) else build_pd_model
        model = build(plant, ctrl)
        for label, (y, index) in (("state-space", run(simulate_state_space, model, cfg)),
                                  ("direct", run(simulate_direct, plant, ctrl, cfg))):
            digest = hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()
            y_end, norm = float(y[-1]), float(np.linalg.norm(y))
            print(f"{name:16s} {label:11s} n {cfg.n_steps} index {'-' if index is None else index}"
                  f" y_end {y_end!r} |y| {norm!r} sha256 {digest[:16]}")
            records.append({"name": f"{name} {label}", "n": cfg.n_steps, "index": index,
                            "y_end": y_end, "norm": norm})
    if args.records:
        with open(args.records, "w") as out:  # one run a line
            out.write('{"runs": [\n' + ",\n".join(map(json.dumps, records)) + "\n]}\n")


if __name__ == "__main__":
    main()
