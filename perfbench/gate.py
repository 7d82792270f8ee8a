"""Correctness gate: reference values recorded from the seed code.

`reference.json` (written by make_reference.py) holds the numeric
fingerprint of the toolkit: the golden PD^delta design and its poles, the
golden trajectory at the long_horizon grid, the divergence index of the
unstable 2% loop, the planted PI^lambda recovery, the short-memory end
values that config_batch checks, and the expected CLI exit codes.  Every
run checks the parts its workload touches; a mismatch fails the task (or
the run, for the fingerprints checked once per run).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fracreg import (DesignSpecPd, DesignSpecPi, Plant, char_poly_pd, design_pd_fractional,
                     design_pi, find_roots)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Relative tolerance on designed (K, Td, delta): the design Newton solve
#: iterates to machine accuracy, so anything looser than this is a change.
DESIGN_RTOL = 1e-9
#: Absolute tolerance on pole positions (the pole residual floor is ~1e-10).
POLE_ATOL = 1e-8
#: Relative tolerance on trajectory summaries; a reordered GL sum moves
#: them by ~1e-13, a changed discretization by far more.
TRAJ_RTOL = 1e-9
#: Acceptance criterion 6 allows max|y_ss - y_direct| <= 0.02 at h = 1e-3
#: with a first-order ratio of at least 1.6, so <= 0.02 / 1.6 at h = 5e-4.
ORACLE_GAP_BOUND = 0.0125
#: Acceptance criterion 8: planted (K, Ti, lambda) recovered to 1e-6.
PI_ATOL = 1e-6
#: CSV values are written with 12 significant digits.
CSV_RTOL = 1e-8


def load_reference(path=REFERENCE_PATH):
    return json.loads(Path(path).read_text())


def close(got, want, rtol=0.0, atol=0.0):
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want))
                       <= atol + rtol * np.abs(np.asarray(want))))


def poles_match(got, want, atol=POLE_ATOL):
    """Same number of poles, each within `atol` of its sorted partner."""
    key = lambda z: (z.real, z.imag)  # noqa: E731
    got = sorted((complex(z) for z in got), key=key)
    want = sorted((complex(re, im) for re, im in want), key=key)
    return len(got) == len(want) and all(abs(a - b) <= atol for a, b in zip(got, want))


def check_fingerprint(fp, ref):
    """Compare a computed fingerprint (see `fingerprint`) with the reference.

    Returns a list of (check name, ok, detail).
    """
    g = ref["golden"]
    p = ref["pi_planted"]
    return [
        ("golden_design",
         close([fp["K"], fp["Td"], fp["delta"]], [g["K"], g["Td"], g["delta"]], rtol=DESIGN_RTOL),
         f"K={fp['K']!r} Td={fp['Td']!r} delta={fp['delta']!r}"),
        ("golden_poles", poles_match(fp["poles"], g["poles"]),
         f"poles={[complex(z) for z in fp['poles']]}"),
        ("pi_planted_recovery",
         close([fp["pi_K"], fp["pi_Ti"], fp["pi_lam"]], [p["K"], p["Ti"], p["lam"]], atol=PI_ATOL),
         f"K={fp['pi_K']!r} Ti={fp['pi_Ti']!r} lam={fp['pi_lam']!r}"),
    ]


def fingerprint(ref):
    """Golden design, its poles and the planted PI recovery, from the program."""
    g = ref["golden"]
    plant = Plant(**g["plant"])
    ctrl = design_pd_fractional(DesignSpecPd(plant=plant, pole=complex(*g["pole"]),
                                             ess_percent=g["ess"]))
    roots = find_roots(char_poly_pd(plant, ctrl)).roots
    p = ref["pi_planted"]
    pi_plant = Plant(**p["plant"])
    poles = tuple(np.roots([pi_plant.a2, pi_plant.a1, pi_plant.a0 + p["K"], p["Ti"]]))
    pi = design_pi(DesignSpecPi(plant=pi_plant, poles=poles))
    return {"K": ctrl.K, "Td": ctrl.Td, "delta": ctrl.delta,
            "poles": [r.value for r in roots],
            "pi_K": pi.K, "pi_Ti": pi.Ti, "pi_lam": pi.lam}
