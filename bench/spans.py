"""Span recording around fermitope's public functions, installed from outside.

A layer is one ``fermitope`` module.  :meth:`Recorder.install` wraps every
public function a layer module defines and rebinds each module attribute
that refers to it (re-exports such as ``fermitope.one_rdm`` and
``from .gates import gate_matrix`` included), so calls between layers are
recorded without editing the package.  :meth:`Recorder.uninstall` puts the
original functions back.

A span holds its name (``<module>.<function>``), start, end, the index of
its parent span and the id of the task it ran for.  Spans stay in memory;
the metrics below are computed from them when the run ends.  The program
is single-threaded, so one stack of open spans is enough and the children
of a span never overlap.
"""

import importlib
import inspect
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("fock", "gates", "polytope", "functional", "noise", "tomography", "montecarlo", "cli")

# Entry points whose self time and call count are metrics.  Every traced
# function's error count (exceptions raised) is in the report's table.
ENTRIES = {
    "montecarlo": ("max_tolerated_sigma", "violation_probability", "merit_histogram"),
    "polytope": ("hill_climb_extremal",),
    "functional": ("quantum_functional",),
    "noise": ("evolve_noisy_protocol", "loschmidt_echo"),
    "tomography": ("reconstruct_one_rdm",),
    "fock": ("one_rdm", "natural_occupations"),
    "gates": ("apply_protocol", "gate_matrix"),
    "cli": ("main",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


class Recorder:
    """Records spans for calls made while :attr:`task` is not None."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.task: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module("fermitope")]
        modules += [importlib.import_module(f"fermitope.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        layer, entry = name.split(".", 1)
        # The montecarlo entries' ``n_samples`` is summed into ``montecarlo.samples``.
        sampled = layer == "montecarlo" and entry in ENTRIES["montecarlo"]
        signature = inspect.signature(fn) if sampled else None

        def spanned(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), 0.0, parent, self.task)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts["montecarlo.samples"] += bound.arguments["n_samples"]
            elif entry == "hill_climb_extremal":
                self.counts["polytope.iterations"] += result.iterations
                self.counts["polytope.accepted"] += result.accepted
            elif entry == "evolve_noisy_protocol":
                self.counts["noise.steps"] += len(result[0].times) - 1
            elif entry == "reconstruct_one_rdm":
                self.counts["tomography.settings"] += result.settings
            return result

        spanned.__wrapped__ = fn
        spanned.__name__ = fn.__name__
        spanned.__doc__ = fn.__doc__
        return spanned


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(
    recorder: Recorder, traced_wall: float, untraced_wall: float
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics and a per-function table from a finished traced run.

    Layer self times plus ``trace.unspanned_s`` add up to ``traced_wall``.
    """
    selfs = self_times(recorder.spans)
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(recorder.spans, selfs):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["self_s"] += own
        row["errors"] = recorder.counts[f"{span.name}.errors"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]

    metrics: dict[str, float] = {}
    for layer, entries in ENTRIES.items():
        for entry in entries:
            row = table.get(f"{layer}.{entry}", {"calls": 0, "self_s": 0.0, "errors": 0})
            for stat in ("self_s", "calls"):
                metrics[f"{layer}.{entry}.{stat}"] = row[stat]
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / traced_wall

    c = recorder.counts
    metrics["montecarlo.samples"] = c["montecarlo.samples"]
    metrics["montecarlo.samples_per_s"] = _rate(c["montecarlo.samples"], layer_self["montecarlo"])
    climb_s = metrics["polytope.hill_climb_extremal.self_s"]
    metrics["polytope.iterations_per_s"] = _rate(c["polytope.iterations"], climb_s)
    metrics["polytope.accept_ratio"] = (
        c["polytope.accepted"] / c["polytope.iterations"] if c["polytope.iterations"] else 0.0
    )
    metrics["noise.steps"] = c["noise.steps"]
    metrics["noise.steps_per_s"] = _rate(c["noise.steps"], layer_self["noise"])
    metrics["tomography.settings"] = c["tomography.settings"]
    metrics["tomography.settings_per_s"] = _rate(c["tomography.settings"], layer_self["tomography"])

    root_s = sum(s.end - s.start for s in recorder.spans if s.parent is None)
    metrics["trace.unspanned_s"] = traced_wall - root_s
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    layers = {
        layer: {"self_s": layer_self[layer], "share": metrics[f"{layer}.share"]}
        for layer in LAYERS
    }
    return metrics, {"layers": layers, "functions": table}
