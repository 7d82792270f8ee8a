"""The fracreg layers as the benchmark sees them: bare calls and traced calls.

Workload code calls fracreg only through an api namespace.  `RAW` holds
the program's own functions, so untraced runs execute the program
unmodified.  `traced_api(tracer)` holds the same functions wrapped in
spans, and `patched(tracer)` additionally swaps the wrappers into
`fracreg.cli` (every function it imports from another layer) and into
`fracreg.simulate.gl_coefficients`, for the duration of one traced task,
so the CLI's own time and the GL weight cost inside the simulators show
up as self time of their layers.

`PER_LAYER` lists every per-layer metric with its unit; `layer_metrics`
computes them from the spans of a traced run.
"""

from __future__ import annotations

import inspect
import math
from contextlib import contextmanager
from types import SimpleNamespace

import fracreg.cli
import fracreg.simulate
from fracreg import (build_pd_model, build_pi_model, char_poly_pd, char_poly_pi,
                     design_pd_fractional, design_pd_integer, design_pi, find_roots,
                     gl_series, simulate_direct, simulate_state_space)
from fracreg.errors import DivergedError, NoSolutionError

from tracer import ATTRS, END, NAME, START, busy_time, layer_of, self_times

RAW = SimpleNamespace(
    build_pd_model=build_pd_model,
    build_pi_model=build_pi_model,
    char_poly_pd=char_poly_pd,
    char_poly_pi=char_poly_pi,
    simulate_state_space=simulate_state_space,
    simulate_direct=simulate_direct,
    gl_series=gl_series,
    design_pd_fractional=design_pd_fractional,
    design_pd_integer=design_pd_integer,
    design_pi=design_pi,
    find_roots=find_roots,
    cli_main=fracreg.cli.main,
)


def window_macs(length, n_mem):
    """sum_{k=0}^{length-1} (min(k, n_mem) + 1): MACs of `length` GL sums."""
    full = min(length, n_mem + 1)
    return full * (full + 1) // 2 + (length - full) * (n_mem + 1)


def _n_mem(cfg, n):
    return n if cfg.memory_len is None else min(n, int(math.floor(cfg.memory_len / cfg.step)))


def _steps(result, exc):
    if isinstance(exc, DivergedError):
        return exc.index
    return 0 if result is None else len(result.output) - 1


def _note_divergence(rec, exc):
    if isinstance(exc, DivergedError):
        rec[ATTRS]["diverged"] = 1
        rec[ATTRS]["index"] = exc.index


def _annotate_state_space(rec, args, result, exc):
    model, cfg = args
    steps = _steps(result, exc)
    n_mem = _n_mem(cfg, cfg.n_steps)
    gl_state = sum(1 for eq in model.state_terms for t in eq if t.order != 0)
    gl_out = sum(1 for t in model.output_terms if t.order != 0)
    # state sums at k = 0..steps-1, output sums at k = 0..steps (one fewer if diverged)
    out_len = steps if exc is not None else steps + 1
    rec[ATTRS].update(steps=steps, macs=gl_state * window_macs(steps, n_mem)
                      + gl_out * window_macs(out_len, n_mem),
                      gl_free=int(gl_state + gl_out == 0))
    _note_divergence(rec, exc)


def _annotate_direct(rec, args, result, exc):
    _, _, cfg = args
    steps = _steps(result, exc)
    n_mem = _n_mem(cfg, cfg.n_steps)
    # each of k = 0..steps: two input-side sums of min(k, n_mem)+1 terms and
    # four output-side sums of min(k, n_mem) terms
    length = steps + 1
    rec[ATTRS].update(steps=steps, macs=6 * window_macs(length, n_mem) - 4 * length)
    _note_divergence(rec, exc)


def _annotate_gl_series(rec, args, result, exc):
    signal = args[0]
    memory_len = args[2] if len(args) > 2 else None
    n = len(signal)
    n_max = n - 1 if memory_len is None else min(n - 1, int(math.floor(memory_len / signal.step)))
    rec[ATTRS].update(samples=n, macs=window_macs(n, n_max))


def _annotate_gl_coefficients(rec, args, result, exc):
    rec[ATTRS]["weights"] = args[1] + 1


def _annotate_roots(rec, args, result, exc):
    if result is None:
        return
    rec[NAME] = "charpoly." + result.method.replace("-", "_")
    rec[ATTRS].update(roots=len(result.roots),
                      max_residual=max((r.residual for r in result.roots), default=0.0),
                      certain=int(not result.coverage_caveat))


def _annotate_design(rec, args, result, exc):
    if exc is None or isinstance(exc, NoSolutionError):
        rec[ATTRS]["solved"] = int(exc is None)


def _annotate_cli(rec, args, result, exc):
    rec[ATTRS]["exit"] = result


# api attribute -> (span name, annotator)
_SPANS = {
    "build_pd_model": ("model.build_pd_model", None),
    "build_pi_model": ("model.build_pi_model", None),
    "char_poly_pd": ("model.char_poly_pd", None),
    "char_poly_pi": ("model.char_poly_pi", None),
    "simulate_state_space": ("simulate.state_space", _annotate_state_space),
    "simulate_direct": ("simulate.direct", _annotate_direct),
    "gl_series": ("glcalc.gl_series", _annotate_gl_series),
    "design_pd_fractional": ("design.pd_fractional", _annotate_design),
    "design_pd_integer": ("design.pd_integer", _annotate_design),
    "design_pi": ("design.pi", _annotate_design),
    "find_roots": ("charpoly.find_roots", _annotate_roots),
    "cli_main": ("cli.main", _annotate_cli),
}


def traced_api(tracer):
    return SimpleNamespace(**{
        attr: tracer.wrap(name, getattr(RAW, attr), annotate)
        for attr, (name, annotate) in _SPANS.items()
    })


def cli_imports():
    """Names of the functions fracreg.cli imports from the other layers."""
    return sorted(
        name for name, obj in vars(fracreg.cli).items()
        if inspect.isfunction(obj) and obj.__module__ != fracreg.cli.__name__
        and obj.__module__.startswith("fracreg.")
    )


@contextmanager
def patched(tracer):
    """Install span wrappers inside fracreg.cli and fracreg.simulate; yields the traced api."""
    api = traced_api(tracer)
    swaps = {(fracreg.simulate, "gl_coefficients"): tracer.wrap(
        "glcalc.gl_coefficients", fracreg.simulate.gl_coefficients, _annotate_gl_coefficients)}
    for name in cli_imports():
        fn = getattr(fracreg.cli, name)
        layer = fn.__module__.rsplit(".", 1)[-1]
        swaps[(fracreg.cli, name)] = getattr(api, name, None) or tracer.wrap(f"{layer}.{name}", fn)
    saved = {key: getattr(*key) for key in swaps}
    try:
        for (module, name), fn in swaps.items():
            setattr(module, name, fn)
        yield api
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)


LAYERS = ("glcalc", "simulate", "charpoly", "design", "model", "cli")

PER_LAYER = [
    ("glcalc.gl_series.calls", "count"),
    ("glcalc.gl_series.busy_s", "s"),
    ("glcalc.gl_series.samples", "count"),
    ("glcalc.gl_series.macs", "mac.computed"),
    ("glcalc.gl_coefficients.calls", "count"),
    ("glcalc.gl_coefficients.busy_s", "s"),
    ("glcalc.gl_coefficients.weights", "count"),
    ("glcalc.self_s", "s"),
    ("simulate.state_space.calls", "count"),
    ("simulate.state_space.busy_s", "s"),
    ("simulate.state_space.steps", "count"),
    ("simulate.state_space.steps_per_s", "1/s"),
    ("simulate.direct.calls", "count"),
    ("simulate.direct.busy_s", "s"),
    ("simulate.direct.steps", "count"),
    ("simulate.direct.steps_per_s", "1/s"),
    ("simulate.history_macs", "mac.computed"),
    ("simulate.macs_per_s", "mac.computed/s"),
    ("simulate.diverged", "count"),
    ("simulate.divergence_index", "step"),
    ("simulate.gl_free_runs", "count"),
    ("simulate.self_s", "s"),
    ("charpoly.newton_grid.calls", "count"),
    ("charpoly.newton_grid.busy_s", "s"),
    ("charpoly.commensurate.calls", "count"),
    ("charpoly.commensurate.busy_s", "s"),
    ("charpoly.roots", "count"),
    ("charpoly.max_residual", "abs"),
    ("charpoly.certain_frac", "ratio"),
    ("charpoly.self_s", "s"),
    ("design.pd_fractional.calls", "count"),
    ("design.pd_fractional.busy_s", "s"),
    ("design.pd_integer.calls", "count"),
    ("design.pd_integer.busy_s", "s"),
    ("design.pi.calls", "count"),
    ("design.pi.busy_s", "s"),
    ("design.solved_frac", "ratio"),
    ("design.self_s", "s"),
    ("model.calls", "count"),
    ("model.busy_s", "s"),
    ("model.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("cli.csv_rows", "count"),
    ("cli.exit_mismatch", "count"),
    ("task.calls", "count"),
    ("task.wall_s", "s"),
    ("task.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cli_stats, overhead_s):
    """Every PER_LAYER metric from the spans of a traced run.

    `cli_stats` carries the counts the benchmark measured on the CLI's
    output files (bytes_out, csv_rows, exit_mismatch); `overhead_s` is the
    traced minus the untraced wall time of the same tasks.
    """
    own = self_times(spans)
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def recs(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(rec[ATTRS].get(key, 0) for rec in recs(name))

    def busy(name):
        return sum(rec[END] - rec[START] for rec in recs(name))

    def layer_self(layer):
        return sum(t for rec, t in zip(spans, own) if layer_of(rec[NAME]) == layer)

    m = {}
    for name, key in (("glcalc.gl_series", "samples"), ("glcalc.gl_coefficients", "weights")):
        m[name + ".calls"] = len(recs(name))
        m[name + ".busy_s"] = busy(name)
        m[name + "." + key] = total(name, key)
    m["glcalc.gl_series.macs"] = total("glcalc.gl_series", "macs")

    sims = ("simulate.state_space", "simulate.direct")
    for name in sims:
        m[name + ".calls"] = len(recs(name))
        m[name + ".busy_s"] = busy(name)
        m[name + ".steps"] = total(name, "steps")
        m[name + ".steps_per_s"] = _ratio(m[name + ".steps"], m[name + ".busy_s"])
    m["simulate.history_macs"] = sum(total(name, "macs") for name in sims)
    m["simulate.macs_per_s"] = _ratio(m["simulate.history_macs"], sum(busy(name) for name in sims))
    m["simulate.diverged"] = sum(total(name, "diverged") for name in sims)
    indices = sorted(rec[ATTRS]["index"] for name in sims for rec in recs(name)
                     if "index" in rec[ATTRS])
    m["simulate.divergence_index"] = indices[len(indices) // 2] if indices else 0
    m["simulate.gl_free_runs"] = total("simulate.state_space", "gl_free")

    roots = recs("charpoly.newton_grid") + recs("charpoly.commensurate")
    for name in ("charpoly.newton_grid", "charpoly.commensurate"):
        m[name + ".calls"] = len(recs(name))
        m[name + ".busy_s"] = busy(name)
    m["charpoly.roots"] = sum(rec[ATTRS]["roots"] for rec in roots)
    m["charpoly.max_residual"] = max((rec[ATTRS]["max_residual"] for rec in roots), default=0.0)
    m["charpoly.certain_frac"] = _ratio(sum(rec[ATTRS]["certain"] for rec in roots), len(roots))

    designs = ("design.pd_fractional", "design.pd_integer", "design.pi")
    for name in designs:
        m[name + ".calls"] = len(recs(name))
        m[name + ".busy_s"] = busy(name)
    m["design.solved_frac"] = _ratio(sum(total(name, "solved") for name in designs),
                                     sum(len(recs(name)) for name in designs))

    m["model.calls"] = sum(1 for rec in spans if layer_of(rec[NAME]) == "model")
    m["model.busy_s"] = busy_time(spans, lambda name: layer_of(name) == "model")

    m["cli.calls"] = len(recs("cli.main"))
    m["cli.busy_s"] = busy("cli.main")
    for key in ("bytes_out", "csv_rows", "exit_mismatch"):
        m["cli." + key] = cli_stats.get(key, 0)

    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self(layer)
    m["task.calls"] = len(recs("task"))
    m["task.wall_s"] = busy("task")
    m["task.self_s"] = layer_self("task")
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = overhead_s
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
