"""Traced runs: timing wrappers on topoflux's public functions and the per-layer metrics.

Each wrapper is installed at the module attribute its caller looks up (for
example ``topoflux.experiments.evolve`` for the calls made by the experiment
runners, and ``topoflux.dynamics.purity`` for the per-sample diagnostics
inside ``evolve``).  A span records its name, layer, start, end, parent and
the id of the workload call it belongs to (-1 for the set-up, which writes and
resolves the configs); spans stay in memory until the run writes them out.
Private helpers are never wrapped, so the metric names survive refactors that
delete them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from importlib import import_module
from pathlib import Path

LAYERS = ("cli", "config", "device", "experiments", "dynamics", "hilbert", "output", "gates")

# module -> public attributes looked up there by the code that calls them
WRAPPED = {
    "topoflux.cli": (
        "main",
        "load_config",
        "run_scenario",
        "run_sweep",
        "run_robustness",
        "derive_report",
        "verification_report",
        "write_json",
    ),
    "topoflux.config": ("load_config", "resolve", "validate_raw", "load_schema"),
    "topoflux.device": (
        "derive_statics",
        "solve_resonant_phase",
        "derive_couplings",
        "validity_report",
    ),
    "topoflux.experiments": (
        "run_scenario",
        "run_sweep",
        "run_robustness",
        "run_evolution",
        "build_schedule",
        "initial_state",
        "target_state",
        "scenario_fidelity",
        "evolve",
        "pulse_duration_for_area",
        "default_dt",
        "trajectory_checks",
        "fidelity_pure",
        "pure_density",
        "ideal_pulse_unitary",
        "emit_outputs",
        "write_json",
        "write_matrix_csv",
    ),
    "topoflux.dynamics": ("purity", "min_eigenvalue", "trace_error", "hermiticity_error"),
    "topoflux.output": (
        "write_trajectory_csv",
        "write_trajectory_svg",
        "write_json",
        "write_matrix_csv",
    ),
}

SCHEDULE_FUNCS = ("build_schedule", "pulse_duration_for_area")
DIAG_FUNCS = ("purity", "min_eigenvalue")

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "call_p50_s on scenario only"),
    "cli.calls": ("count", "lower", "call_p50_s on scenario only"),
    "config.load_s": ("s", "lower", "setup_s everywhere; call_p50_s on scenario"),
    "config.calls": ("count", "lower", "setup_s everywhere; call_p50_s on scenario"),
    "device.pipeline_s": ("s", "lower", "setup_s everywhere; call_p50_s on scenario"),
    "device.calls": ("count", "lower", "setup_s everywhere; call_p50_s on scenario"),
    "experiments.self_s": ("s", "lower", "evolutions_per_s on sweep and robustness"),
    "experiments.schedule_s": (
        "s",
        "lower",
        "call_p50_s on ramped; evolutions_per_s on sweep and robustness",
    ),
    "dynamics.evolve_s": (
        "s",
        "lower",
        "evolutions_per_s and call_p50_s on sweep, robustness and ramped",
    ),
    "dynamics.evolve_calls": (
        "count",
        "lower",
        "evolutions_per_s and call_p50_s on sweep, robustness and ramped",
    ),
    "dynamics.step_self_s": (
        "s",
        "lower",
        "evolutions_per_s and call_p50_s on sweep, robustness and ramped",
    ),
    "dynamics.share": (
        "ratio",
        "lower",
        "evolutions_per_s and call_p50_s on sweep, robustness and ramped",
    ),
    "hilbert.diag_s": (
        "s",
        "lower",
        "call_p50_s on scenario; evolutions_per_s on sweep and robustness",
    ),
    "hilbert.diag_calls": (
        "count",
        "lower",
        "call_p50_s on scenario; evolutions_per_s on sweep and robustness",
    ),
    "hilbert.fidelity_s": (
        "s",
        "lower",
        "call_p50_s on scenario; evolutions_per_s on sweep and robustness",
    ),
    "hilbert.diag_useful_ratio": (
        "ratio",
        "higher",
        "evolutions_per_s on sweep and robustness",
    ),
    "output.emit_s": ("s", "lower", "call_p50_s on scenario; near zero on ramped"),
    "output.bytes_written": ("bytes", "lower", "call_p50_s on scenario; near zero on ramped"),
    "output.files_written": ("count", "lower", "call_p50_s on scenario; near zero on ramped"),
    "gates.verify_s": ("s", "lower", "call_p50_s on scenario"),
    "gates.calls": ("count", "lower", "call_p50_s on scenario"),
    **{
        f"{layer}.errors": ("count", "lower", "failed_frac on every workload")
        for layer in LAYERS
    },
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced call time"),
    "trace.uncovered_share": ("ratio", "lower", "none: traced wall time outside every span"),
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    call_id: int | None
    start: float
    end: float = 0.0
    error: bool = False
    wrote: bool = False  # an output writer returned the path of the file it wrote
    bytes: int = 0
    rows: int = 0  # trajectory samples written to a CSV


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call_id: int | None = None
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self):
        for module_name, attrs in WRAPPED.items():
            module = import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                layer = getattr(fn, "__module__", "").removeprefix("topoflux.")
                if fn is None or layer not in LAYERS:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}", layer))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack
        counts_rows = fn.__name__ == "write_trajectory_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                id=len(spans),
                name=name,
                layer=layer,
                parent=stack[-1].id if stack else None,
                call_id=self.call_id,
                start=time.perf_counter(),
            )
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if layer == "output" and isinstance(result, Path):
                span.wrote = True
                span.bytes = result.stat().st_size
                if counts_rows:
                    span.rows = len(args[0])
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span], wall: float) -> dict:
    """Per-layer metrics of one traced phase lasting ``wall`` seconds."""
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def dur(s):
        return s.end - s.start

    def self_time(s):
        return dur(s) - child_time[s.id]

    def func(s):
        return s.name.rsplit(".", 1)[1]

    def is_entry(s):
        # a call into the layer from outside it; an exception leaving it escapes the layer
        return s.parent is None or by_id[s.parent].layer != s.layer

    def has_ancestor(s, names):
        p = s.parent
        while p is not None:
            if func(by_id[p]) in names:
                return True
            p = by_id[p].parent
        return False

    m = {}
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans if s.layer == layer and s.error and is_entry(s))

    def layer_self(layer):
        return sum(self_time(s) for s in spans if s.layer == layer)

    def entries(layer):
        return [s for s in spans if s.layer == layer and is_entry(s)]

    evolves = [s for s in spans if s.name == "dynamics.evolve"]
    diags = [s for s in spans if s.layer == "hilbert" and func(s) in DIAG_FUNCS]
    writers = [s for s in spans if s.wrote]

    # a recorded sample is useful when it reaches a trajectory file or is the
    # final state of an evolution whose trajectory nobody writes
    useful = sum(s.rows for s in writers)
    per_call = defaultdict(int)
    for s in evolves:
        per_call[s.call_id] += 1
    for s in writers:
        if func(s) == "write_trajectory_csv":
            per_call[s.call_id] -= 1
    useful += sum(max(n, 0) for n in per_call.values())
    computed = sum(1 for s in diags if func(s) == "min_eigenvalue")

    evolve_s = sum(dur(s) for s in evolves)
    m.update(
        {
            "cli.self_s": layer_self("cli"),
            "cli.calls": len(entries("cli")),
            "config.load_s": layer_self("config"),
            "config.calls": len(entries("config")),
            "device.pipeline_s": layer_self("device"),
            "device.calls": len(entries("device")),
            "experiments.self_s": layer_self("experiments"),
            "experiments.schedule_s": sum(
                dur(s)
                for s in spans
                if func(s) in SCHEDULE_FUNCS and not has_ancestor(s, SCHEDULE_FUNCS)
            ),
            "dynamics.evolve_s": evolve_s,
            "dynamics.evolve_calls": len(evolves),
            "dynamics.step_self_s": sum(self_time(s) for s in evolves),
            "dynamics.share": evolve_s / wall,
            "hilbert.diag_s": sum(dur(s) for s in diags),
            "hilbert.diag_calls": len(diags),
            "hilbert.fidelity_s": sum(dur(s) for s in spans if s.name == "hilbert.fidelity_pure"),
            "hilbert.diag_useful_ratio": useful / computed if computed else 1.0,
            "output.emit_s": sum(dur(s) for s in entries("output")),
            "output.bytes_written": sum(s.bytes for s in writers),
            "output.files_written": len(writers),
            "gates.verify_s": sum(dur(s) for s in entries("gates")),
            "gates.calls": len(entries("gates")),
            "trace.uncovered_share": 1.0 - sum(dur(s) for s in spans if s.parent is None) / wall,
        }
    )
    return m
