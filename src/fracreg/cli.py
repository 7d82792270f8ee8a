"""Command-line front end: simulate / design / poles.

Configurations are JSON documents (see README for the schema).  `_block` reads
each block against its keys: a key missing from it, or a key it does not read,
is a config error naming the key's path.  Every command reads the keys of every
block present; only the commands that use a block parse its values.  Exit
codes: 0 ok, 2 config error, 3 diverged simulation, 4 unstable design, 5 solver
failure (including an exceeded step budget or a singular step) or inconclusive
root search.

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


_PLANT_KEYS = ("a0", "a1", "a2", "alpha", "beta")
#: Each output key with its default file name.
_OUTPUTS = {"trajectory_csv": "trajectory.csv", "report_json": "report.json",
            "roots_json": "poles.json"}
#: Each controller type: its class, and each config key with the field it sets.
_CONTROLLERS = {"pd": (PdController, {"K": "K", "Td": "Td", "delta": "delta"}),
                "pi": (PiController, {"K": "K", "Ti": "Ti", "lambda": "lam"})}
#: Each input type: its required and its optional keys.
_INPUTS = {"step": ((), ("type", "amplitude")), "samples": (("type", "values"), ())}


def _block(parent, path, required, optional=()):
    """The object at the dotted config `path` in `parent` ("" for `parent` itself).

    A key of `required` it lacks, or a key in neither `required` nor `optional`, is
    a config error.  A block whose keys depend on its "type" is read once with the
    keys of every type, then again with its own type's keys.
    """
    key = path.rpartition(".")[2]
    if path and key not in parent:
        raise ConfigError(f"missing key '{path}'")
    block = parent[key] if path else parent
    if not isinstance(block, dict):
        raise ConfigError(f"'{path or 'config root'}' must be a JSON object")
    prefix = f"{path}." if path else ""
    for name in required:
        if name not in block:
            raise ConfigError(f"missing key '{prefix}{name}'")
    for name in block:
        if name not in required and name not in optional:
            raise ConfigError(f"unknown key '{prefix}{name}'")
    return block


def _kind(block, path, kinds, default=None):
    """The "type" of `block` (`default` if it has none), which must be one of `kinds`."""
    kind = block.get("type", default)
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"unknown {path} type {kind!r}")
    return kind


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num(block, key, path):
    if not _is_number(block[key]):
        raise ConfigError(f"key '{path}.{key}' must be a number")
    return float(block[key])


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _block(doc, "", (), _READERS)
    for key, read in _READERS.items():
        if key in doc:
            read(doc)
    return doc


def _output_block(doc):
    block = _block(doc, "output", (), _OUTPUTS)
    for key, name in block.items():
        # a bare name: no directory part, so the file lands inside the output directory
        if not (isinstance(name, str) and name not in ("", "..") and Path(name).name == name):
            raise ConfigError(f"'output.{key}' must be a file name without a directory part")


def parse_plant(doc) -> Plant:
    block = _block(doc, "plant", _PLANT_KEYS)
    try:
        return Plant(**{key: _num(block, key, "plant") for key in _PLANT_KEYS})
    except ValueError as exc:
        raise ConfigError(f"invalid 'plant' block: {exc}")


def _controller_block(doc):
    """The controller block, read against its type's keys, and that type."""
    every = {key for _, fields in _CONTROLLERS.values() for key in fields}
    kind = _kind(_block(doc, "controller", ("type",), every), "controller", _CONTROLLERS)
    return _block(doc, "controller", ("type", *_CONTROLLERS[kind][1])), kind


def parse_controller(doc):
    block, kind = _controller_block(doc)
    cls, fields = _CONTROLLERS[kind]
    try:
        return cls(**{field: _num(block, key, "controller") for key, field in fields.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid 'controller' block: {exc}")


def _sim_block(doc):
    """The sim block, and its input block with that input's type (None, None without one)."""
    block = _block(doc, "sim", ("h", "t_end"), ("memory_len", "input"))
    if "input" not in block:
        return block, None, None
    inp = _block(block, "sim.input", (), ("type", "amplitude", "values"))
    kind = _kind(inp, "sim.input", _INPUTS, "step")
    return block, _block(block, "sim.input", *_INPUTS[kind]), kind


def parse_sim(doc) -> SimConfig:
    block, inp, kind = _sim_block(doc)
    input_spec = StepInput()
    if inp is not None:
        if kind == "samples":
            input_spec = inp["values"]
            if not (isinstance(input_spec, list) and all(map(_is_number, input_spec))):
                raise ConfigError("'sim.input.values' must be a list of numbers")
        elif "amplitude" in inp:
            input_spec = StepInput(amplitude=_num(inp, "amplitude", "sim.input"))
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


def _out_path(doc, args, key):
    out_dir = Path(args.out) if args.out else Path(args.config).resolve().parent
    name = doc.get("output", {}).get(key, _OUTPUTS[key])
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
    kind = "pd" if isinstance(ctrl, PdController) else "pi"
    return {"type": kind, **{key: getattr(ctrl, f) for key, f in _CONTROLLERS[kind][1].items()}}


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
        "roots": [{"re": r.value.real, "im": r.value.imag, "residual": r.residual}
                  for r in report.roots],
        "method": report.method,
        "verdict": report.verdict,
        "coverage_caveat": report.coverage_caveat,
        "root_count": report.root_count,
        "timings": {**timings, "roots_s": roots_s},
    }
    return report, payload


def _write_json(doc, args, key, payload):
    path = _out_path(doc, args, key)
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
    csv_path = _out_path(doc, args, "trajectory_csv")
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


def _design_block(doc):
    """The design block, read against its type's keys, that type and the integer flag."""
    block = _block(doc, "design", ("poles",), ("type", "ess", "K", "integer"))
    kind = _kind(block, "design", ("pd", "pi"), "pd")
    integer = kind == "pd" and block.get("integer", False)  # integer PD solves for K itself
    if not isinstance(integer, bool):
        raise ConfigError("key 'design.integer' must be true or false")
    if kind == "pi" or integer:  # no gain rule: "ess" and "K" are unknown keys
        _block(doc, "design", ("poles",), ("type", "integer") if integer else ("type",))
    return block, kind, integer


#: The config root's keys, each with the reader of its block's keys: `load_config` reads
#: every block present, whatever the command (`poles` runs on `simulate` configs).
_READERS = {"output": _output_block, "plant": lambda doc: _block(doc, "plant", _PLANT_KEYS),
            "controller": _controller_block, "sim": _sim_block, "design": _design_block}


def _resolve_design(doc, plant):
    block, kind, integer = _design_block(doc)
    t0 = time.perf_counter()
    raw = block["poles"]
    if not (isinstance(raw, list) and all(isinstance(item, list) and len(item) == 2
                                          and all(map(_is_number, item)) for item in raw)):
        raise ConfigError("'design.poles' must be a list of [re, im] pairs of numbers")
    poles = [complex(re, im) for re, im in raw]
    try:
        if kind == "pi":
            ctrl = design_pi(DesignSpecPi(plant=plant, poles=tuple(poles)))
        else:
            pole = next((p for p in poles if p.imag > 0), poles[0] if poles else None)
            if pole is None:
                raise ConfigError("'design.poles' must contain at least one pole")
            ess = _num(block, "ess", "design") if "ess" in block else None
            K = _num(block, "K", "design") if "K" in block else None
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
    _write_json(doc, args, "report_json", payload)
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
    _write_json(doc, args, "roots_json", payload)
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
