"""Timing spans around the public functions of each eulerlab module.

The tracer replaces module functions, methods and ``cached_property``
functions with wrappers that record a span (layer name, start, end,
parent span, and a work quantity such as bytes or points) in memory.
Nothing under ``src/`` changes.  A function imported by name into several
modules (``to_coeffs``, ``write_snapshot``, ...) is rebound in every
eulerlab module that holds it, so no call escapes.

A span's self time is its duration minus the part of it covered by its
child spans; summed over every span under a root, self times add up to
the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _fft_bytes(args, kwargs, result) -> float:
    return float(args[0].nbytes + result.nbytes)


def _points(args, kwargs, result) -> float:
    points = np.asarray(args[1])
    return float(points.shape[0]) if points.ndim else 1.0


def _snapshot_bytes(args, kwargs, result) -> float:
    return 32.0 + sum(8.0 * f.size for f in args[1])


def _data_bytes(args, kwargs, result) -> float:
    return float(len(args[1]))


def _iterations(args, kwargs, result) -> float:
    return float(result.iterations)


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    path: str  # attribute path inside the module, e.g. "VelocitySampler.__call__"
    quantity: Callable | None = None


TARGETS = (
    Target("fields.fft", "eulerlab.fields", "to_coeffs", _fft_bytes),
    Target("fields.fft", "eulerlab.fields", "to_values", _fft_bytes),
    Target("fields.eval_at", "eulerlab.fields", "SpectralField1.eval_at", _points),
    Target("fields.eval_at", "eulerlab.fields", "SpectralField2.eval_at", _points),
    Target("operators.transport", "eulerlab.operators", "transport_coeffs"),
    Target("lagrangian.sampler_build", "eulerlab.lagrangian", "VelocitySampler.__init__"),
    Target("lagrangian.sampler_eval", "eulerlab.lagrangian", "VelocitySampler.__call__",
           _points),
    Target("lagrangian.scalar", "eulerlab.lagrangian", "passive_scalar_evolve"),
    Target("euler2d.run", "eulerlab.euler2d", "run"),
    Target("ipm.run", "eulerlab.ipm", "ipm_run"),
    Target("models1d.refined_sup", "eulerlab.models1d", "refined_sup"),
    Target("models1d.run", "eulerlab.models1d", "model_run"),
    Target("selfsim.operator_build", "eulerlab.selfsim", "ProfileProblem.hilbert_matrix.func"),
    Target("selfsim.operator_build", "eulerlab.selfsim", "ProfileProblem.deriv_matrix.func"),
    Target("selfsim.newton", "eulerlab.selfsim", "newton_solve", _iterations),
    Target("selfsim.lemma", "eulerlab.selfsim", "lemma_decomposition_check"),
    Target("snapshots.write", "eulerlab.snapshots", "write_snapshot", _snapshot_bytes),
    Target("cli.csv", "eulerlab.cli", "csv_bytes"),
    Target("cli.manifest", "eulerlab.cli", "RunManifest.write"),
    Target("cli.write", "eulerlab.cli", "atomic_write", _data_bytes),
    Target("config.parse", "eulerlab.config", "parse_config"),
)

ROOT = "cli.dispatch"

# per-layer metric -> (layer, what): "self" sums self seconds, "calls"
# counts spans, a number sums the spans' quantities times that scale.
METRICS = {
    "fields.fft_s": ("fields.fft", "self"),
    "fields.fft_calls": ("fields.fft", "calls"),
    "fields.fft_mb": ("fields.fft", 1e-6),
    "fields.eval_at_s": ("fields.eval_at", "self"),
    "fields.eval_at_points": ("fields.eval_at", 1.0),
    "operators.transport_s": ("operators.transport", "self"),
    "operators.transport_calls": ("operators.transport", "calls"),
    "lagrangian.sampler_build_s": ("lagrangian.sampler_build", "self"),
    "lagrangian.sampler_builds": ("lagrangian.sampler_build", "calls"),
    "lagrangian.sampler_eval_s": ("lagrangian.sampler_eval", "self"),
    "lagrangian.points_sampled": ("lagrangian.sampler_eval", 1.0),
    "lagrangian.scalar_self_s": ("lagrangian.scalar", "self"),
    "euler2d.run_self_s": ("euler2d.run", "self"),
    "ipm.run_self_s": ("ipm.run", "self"),
    "models1d.refined_sup_s": ("models1d.refined_sup", "self"),
    "models1d.refined_sup_calls": ("models1d.refined_sup", "calls"),
    "models1d.run_self_s": ("models1d.run", "self"),
    "selfsim.operator_build_s": ("selfsim.operator_build", "self"),
    "selfsim.newton_self_s": ("selfsim.newton", "self"),
    "selfsim.newton_iterations": ("selfsim.newton", 1.0),
    "selfsim.lemma_s": ("selfsim.lemma", "self"),
    "snapshots.write_s": ("snapshots.write", "self"),
    "snapshots.mb_written": ("snapshots.write", 1e-6),
    "cli.csv_s": ("cli.csv", "self"),
    "cli.manifest_s": ("cli.manifest", "self"),
    "cli.write_s": ("cli.write", "self"),
    "cli.mb_written": ("cli.write", 1e-6),
    "cli.dispatch_self_s": (ROOT, "self"),
    "config.parse_s": ("config.parse", "self"),
}


class Tracer:
    """Records spans in memory; ``install`` wraps the targets in place."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: list[str] = []
        self.spans: list[list] = []  # [layer index, start, end, parent, quantity]
        self.missing: list[str] = []  # targets that could not be found
        self.targets: tuple = ()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn: Callable, quantity: Callable | None = None) -> Callable:
        layer_id = self._layer_id(layer)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer_id, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if quantity is not None:
                rec[4] = quantity(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others in ``missing``."""
        self.targets = tuple(targets)
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                *owner_path, attr = target.path.split(".")
                owner = module
                for name in owner_path:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.path}")
                continue
            wrapped = self.wrap(target.layer, original, target.quantity)
            if owner is module:
                # rebind every eulerlab module attribute that holds the function
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("eulerlab"):
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, name, wrapped, original)
            else:
                self._set(owner, attr, wrapped, original)

    def _set(self, owner, attr: str, value, original) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def absent_layers(self) -> set:
        """Layers none of whose targets could be wrapped."""
        found = {t.layer for t in self.targets
                 if f"{t.module}.{t.path}" not in self.missing}
        return {t.layer for t in self.targets} - found

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "spans": self.spans,
                       "absent": sorted(self.absent_layers())}, fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals.

    ``spans`` rows are ``[layer, start, end, parent, quantity]`` and a
    parent always precedes its children.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(layers: list[str], spans: list, absent=()) -> dict:
    """Per-layer metrics and ``trace.run_s`` from a span dump.

    Metrics of layers in ``absent`` (every target missing) are left out.
    Self times of the spans under the ``cli.dispatch`` roots sum to
    ``trace.run_s``.
    """
    root_of = []
    for i, rec in enumerate(spans):
        root_of.append(i if rec[3] < 0 else root_of[rec[3]])
    selfs = self_times(spans)
    totals: dict[str, list[float]] = {layer: [0.0, 0.0, 0.0] for layer in layers}
    for rec, own in zip(spans, selfs):
        acc = totals[layers[rec[0]]]
        acc[0] += own
        acc[1] += 1
        acc[2] += rec[4]
    metrics = {}
    for name, (layer, what) in METRICS.items():
        if layer in absent:
            continue
        acc = totals.get(layer, [0.0, 0.0, 0.0])
        if what == "self":
            metrics[name] = acc[0]
        elif what == "calls":
            metrics[name] = acc[1]
        else:
            metrics[name] = acc[2] * what
    root_id = layers.index(ROOT) if ROOT in layers else -1
    metrics["trace.run_s"] = sum(rec[2] - rec[1] for rec in spans
                                 if rec[0] == root_id and rec[3] < 0)
    metrics["trace.self_sum_s"] = sum(own for i, own in enumerate(selfs)
                                      if spans[root_of[i]][0] == root_id)
    return metrics
