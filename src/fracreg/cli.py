"""Command-line front end: simulate / design / poles.

Configurations are JSON documents (see README for the schema).  Exit
codes: 0 ok, 2 config error, 3 diverged simulation, 4 unstable design,
5 solver failure (including an exceeded step budget or a singular step)
or inconclusive root search.

`simulate` writes a CSV trajectory: a header line `t,w,y,x1,...,xN` (one
`x` column per state, none for a trajectory without states), then one line
per sample, in time order, each value formatted with `%.12g` and separated
by commas, every line ending in a newline.  These bytes are the contract; how
the writer forms them (one format operation per chunk of rows, constant
columns formatted once) does not change them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .charpoly import find_roots
from .design import (DesignSpecPd, DesignSpecPi, design_pd_fractional,
                     design_pd_integer, design_pi)
from .errors import (ConfigError, DivergedError, FracregError, NoSolutionError,
                     UnsupportedOrderError)
from .model import (FracPoly, PdController, PiController, Plant, build_pd_model,
                    build_pi_model, closed_loop)
from .simulate import SimConfig, StepInput, simulate_state_space

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_UNSTABLE = 4
EXIT_SOLVER = 5

_FLOAT_FMT = "%.12g"
_CSV_CHUNK_ROWS = 512


def _get(block, key, path, expect=None):
    if key not in block:
        raise ConfigError(f"missing key '{path}.{key}'")
    value = block[key]
    if expect is not None and not isinstance(value, expect):
        raise ConfigError(f"key '{path}.{key}' has wrong type")
    return value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num(block, key, path, default=None):
    if default is not None and key not in block:
        return default
    value = _get(block, key, path)
    if not _is_number(value):
        raise ConfigError(f"key '{path}.{key}' must be a number")
    return float(value)


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object")
    for key, name in output.items():
        # a bare name: no directory part, so the file lands inside the output directory
        if not (isinstance(name, str) and name not in ("", "..") and Path(name).name == name):
            raise ConfigError(f"'output.{key}' must be a file name without a directory part")
    return doc


def parse_plant(doc) -> Plant:
    block = _get(doc, "plant", "", dict)
    try:
        return Plant(
            a0=_num(block, "a0", "plant"),
            a1=_num(block, "a1", "plant"),
            a2=_num(block, "a2", "plant"),
            alpha=_num(block, "alpha", "plant"),
            beta=_num(block, "beta", "plant"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'plant' block: {exc}")


def parse_controller(doc):
    block = _get(doc, "controller", "", dict)
    kind = _get(block, "type", "controller")
    try:
        if kind == "pd":
            return PdController(
                K=_num(block, "K", "controller"),
                Td=_num(block, "Td", "controller"),
                delta=_num(block, "delta", "controller"),
            )
        if kind == "pi":
            return PiController(
                K=_num(block, "K", "controller"),
                Ti=_num(block, "Ti", "controller"),
                lam=_num(block, "lambda", "controller"),
            )
    except ValueError as exc:
        raise ConfigError(f"invalid 'controller' block: {exc}")
    raise ConfigError(f"unknown controller type {kind!r}")


def _parse_poles(block, path):
    raw = _get(block, "poles", path, list)
    poles = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_number, item))):
            raise ConfigError(f"'{path}.poles' entries must be [re, im] pairs of numbers")
        poles.append(complex(item[0], item[1]))
    return poles


def parse_sim(doc) -> SimConfig:
    block = _get(doc, "sim", "", dict)
    inp = block.get("input", {"type": "step", "amplitude": 1.0})
    if not isinstance(inp, dict):
        raise ConfigError("'sim.input' must be an object")
    kind = inp.get("type", "step")
    if kind == "step":
        input_spec = StepInput(amplitude=_num(inp, "amplitude", "sim.input", default=1.0))
    elif kind == "samples":
        input_spec = _get(inp, "values", "sim.input", list)
        if not all(map(_is_number, input_spec)):
            raise ConfigError("'sim.input.values' must be a list of numbers")
    else:
        raise ConfigError(f"unknown input type {kind!r}")
    memory_len = block.get("memory_len")
    if memory_len is not None:
        memory_len = _num(block, "memory_len", "sim")
    try:
        return SimConfig(
            step=_num(block, "h", "sim"),
            t_end=_num(block, "t_end", "sim"),
            memory_len=memory_len,
            input=input_spec,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'sim' block: {exc}")


def _out_path(doc, args, key, default):
    out_dir = Path(args.out) if args.out else Path(args.config).resolve().parent
    name = doc.get("output", {}).get(key, default)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def write_trajectory_csv(path, traj):
    """Write `traj` to `path` as CSV: the header `t,w,y,x1,...`, then `%.12g` rows.

    The bytes are those of formatting every value of every row with
    `%.12g`.  A column whose values are all bitwise equal (the `w` of a
    step input) is formatted once and written as a literal; `0.0` and
    `-0.0`, or NaNs with different payloads, are not equal bitwise, so such
    a column goes through the per-value path.  Each chunk of
    `_CSV_CHUNK_ROWS` rows is formatted by one `%` operation.
    """
    header = ["t", "w", "y"] + [f"x{i + 1}" for i in range(len(traj.states))]
    columns = [np.asarray(c, dtype=float)
               for c in (traj.times, traj.input, traj.output, *traj.states)]
    fields, varying = [], []
    for column in columns:
        bits = column.view(np.int64)
        if len(bits) and (bits == bits[0]).all():
            fields.append((_FLOAT_FMT % column[0]).replace("%", "%%"))
        else:
            fields.append(_FLOAT_FMT)
            varying.append(column)
    row_fmt = ",".join(fields) + "\n"
    chunk_fmt = row_fmt * _CSV_CHUNK_ROWS
    n_rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        # values go through Python floats a chunk at a time, to bound that copy
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, n_rows)
            values = (tuple(np.column_stack([c[start:stop] for c in varying]).ravel().tolist())
                      if varying else ())
            fmt = chunk_fmt if stop - start == _CSV_CHUNK_ROWS else row_fmt * (stop - start)
            fh.write(fmt % values)


def _controller_dict(ctrl):
    if isinstance(ctrl, PdController):
        return {"type": "pd", "K": ctrl.K, "Td": ctrl.Td, "delta": ctrl.delta}
    return {"type": "pi", "K": ctrl.K, "Ti": ctrl.Ti, "lambda": ctrl.lam}


def _report_roots(report):
    return {
        "roots": [
            {"re": r.value.real, "im": r.value.imag, "residual": r.residual}
            for r in report.roots
        ],
        "method": report.method,
        "verdict": report.verdict,
        "coverage_caveat": report.coverage_caveat,
        "root_count": report.root_count,
    }


def _build_model(plant, ctrl):
    if isinstance(ctrl, PdController):
        return build_pd_model(plant, ctrl)
    return build_pi_model(plant, ctrl)


def _roots_payload(doc, plant, ctrl, **timings):
    """Closed-loop roots of `ctrl` on `plant`: the report and the JSON payload."""
    poly = FracPoly.from_terms(closed_loop(plant, ctrl)[0])
    t0 = time.perf_counter()
    try:
        report = find_roots(poly)
    except ValueError as exc:  # e.g. a coefficient sum past the float range
        raise ConfigError(f"invalid closed-loop polynomial: {exc}")
    roots_s = time.perf_counter() - t0
    payload = {
        "config": doc,
        "controller": _controller_dict(ctrl),
        "characteristic_polynomial": [[c, e] for c, e in poly.terms],
        **_report_roots(report),
        "timings": {**timings, "roots_s": roots_s},
    }
    return report, payload


def _write_json(doc, args, key, default, payload):
    path = _out_path(doc, args, key, default)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(path)


def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    plant = parse_plant(doc)
    ctrl = parse_controller(doc)
    cfg = parse_sim(doc)
    try:
        model = _build_model(plant, ctrl)
    except ValueError as exc:  # a model gain past the float range
        raise ConfigError(f"invalid closed-loop model: {exc}")
    csv_path = _out_path(doc, args, "trajectory_csv", "trajectory.csv")
    try:
        traj, diverged = simulate_state_space(model, cfg), None
    except DivergedError as exc:
        # written once this block ends: its traceback holds the run's arrays
        traj, diverged = exc.trajectory, str(exc)
    write_trajectory_csv(csv_path, traj)
    if diverged is not None:
        print(f"simulation diverged: {diverged}", file=sys.stderr)
        return EXIT_DIVERGED
    print(csv_path)
    return EXIT_OK


def _resolve_design(doc, plant):
    block = _get(doc, "design", "", dict)
    kind = block.get("type", "pd")
    if kind not in ("pd", "pi"):
        raise ConfigError(f"unknown design type {kind!r}")
    t0 = time.perf_counter()
    poles = _parse_poles(block, "design")
    try:
        if kind == "pi":
            ctrl = design_pi(DesignSpecPi(plant=plant, poles=tuple(poles)))
        else:
            pole = next((p for p in poles if p.imag > 0), poles[0] if poles else None)
            if pole is None:
                raise ConfigError("'design.poles' must contain at least one pole")
            integer = block.get("integer", False)  # integer PD solves for K itself
            if not isinstance(integer, bool):
                raise ConfigError("key 'design.integer' must be true or false")
            ess = _num(block, "ess", "design") if "ess" in block and not integer else None
            K = _num(block, "K", "design") if "K" in block and not integer else None
            spec = DesignSpecPd(plant=plant, pole=pole, ess_percent=ess, K_override=K)
            ctrl = (design_pd_integer if integer else design_pd_fractional)(spec)
    except ValueError as exc:
        raise ConfigError(f"invalid 'design' block: {exc}")
    return ctrl, time.perf_counter() - t0


def cmd_design(args) -> int:
    doc = load_config(args.config)
    plant = parse_plant(doc)
    if "controller" in doc and "design" in doc:
        raise ConfigError("give 'controller' or 'design', not both")
    try:
        ctrl, design_s = _resolve_design(doc, plant)
    except NoSolutionError as exc:
        print(f"design solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    report, payload = _roots_payload(doc, plant, ctrl, design_s=design_s)
    _write_json(doc, args, "report_json", "report.json", payload)
    try:
        _build_model(plant, ctrl)
    except (UnsupportedOrderError, ValueError) as exc:  # an order or a gain `simulate` rejects
        print(f"design cannot be simulated: {exc}", file=sys.stderr)
    return EXIT_UNSTABLE if report.verdict == "unstable" else EXIT_OK


def cmd_poles(args) -> int:
    doc = load_config(args.config)
    plant = parse_plant(doc)
    ctrl = parse_controller(doc)
    report, payload = _roots_payload(doc, plant, ctrl)
    _write_json(doc, args, "roots_json", "poles.json", payload)
    if report.verdict == "inconclusive":
        print("root search was inconclusive", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `fracreg` argument parser, built once per process and shared by `main`."""
    parser = argparse.ArgumentParser(
        prog="fracreg",
        description="Fractional-order control loop simulation, pole analysis and design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("simulate", cmd_simulate), ("design", cmd_design), ("poles", cmd_poles)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to a RunConfig JSON file")
        sp.add_argument("--out", help="output directory (default: config directory)")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FracregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
