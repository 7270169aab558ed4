"""In-memory span tracer that wraps the public functions of echochan's modules.

The modules bind imported names locally (``readout.harvest``,
``evaluation.harvest``, ``cli.fit`` ...), so ``traced()`` replaces every
module attribute that refers to a public function of one of the layer
modules, and restores them all on exit. Spans carry the thread id because
``accumulate_dataset`` runs ``harvest`` on a thread pool; a span's parent
is the innermost open span on the same thread. A few functions also
record counts at the same boundary (see ``_COUNTERS``); nothing holds on
to arguments or results, so tracing does not change peak memory much.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

LAYERS = ("channelsim", "store", "numerics", "reservoir", "readout", "evaluation", "transfer", "cli")


@dataclass
class Span:
    name: str
    thread: int
    parent: Optional["Span"]
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, threading.get_ident(), stack[-1] if stack else None)
        stack.append(span)
        counter = _COUNTERS.get(name)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.end = time.perf_counter()
            span.failed = True
            if counter is not None:
                span.counts = counter(_bind(fn, args, kwargs), None, exc)
            raise
        else:
            span.end = time.perf_counter()
            if counter is not None:
                span.counts = counter(_bind(fn, args, kwargs), result, None)
            return result
        finally:
            stack.pop()
            if span.parent is not None:
                span.parent.child_time += span.duration
            self.spans.append(span)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every public layer function for the duration of the block."""
    modules = [importlib.import_module(f"echochan.{layer}") for layer in LAYERS]
    owners = {mod.__name__ for mod in modules}
    wrappers: dict[int, object] = {}
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ not in owners or value.__name__.startswith("_"):
                continue
            name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
            wrapper = wrappers.setdefault(id(value), _wrap(tracer, name, value))
            patched.append((mod, attr, value))
            setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


# --- counts recorded at span boundaries -------------------------------------


def _state_gflop(config, steps: int, sequences: int = 1) -> float:
    """2*N*(N + K + L*fb)*T floating-point operations per stepped sequence."""
    n, k, l = config.reservoir_size, config.input_dim, config.output_dim
    fb = 1 if config.use_feedback else 0
    return 2.0 * n * (n + k + l * fb) * steps * sequences / 1e9


def _count_harvest(arguments, result, exc):
    inputs = arguments["inputs"]
    return {"state_gflop": _state_gflop(arguments["r"].config, inputs.shape[1])}


def _count_evaluate(arguments, result, exc):
    config, dataset = arguments["r"].config, arguments["dataset"]
    counts = {"sequences": dataset.num_sequences}
    if config.use_feedback:  # the closed loop steps the reservoir itself
        counts["closed_loop_gflop"] = _state_gflop(config, dataset.seq_len, dataset.num_sequences)
    if result is not None:
        counts["samples_used"] = result.samples_used
        counts["samples_excluded"] = result.samples_excluded
    return counts


def _count_accumulate_dataset(arguments, result, exc):
    return {} if result is None else {"samples_seen": result.samples_seen}


def _count_solve(arguments, result, exc):
    counts = {"method": type(arguments["method"]).__name__.lower()}
    if exc is not None and getattr(exc, "iterations", None) is not None:
        counts["lasso_cycles"] = exc.iterations
    return counts


def _count_sweep(arguments, result, exc):
    if result is None:
        return {}
    return {"cells": len(result.rows), "failed": sum(row.error is not None for row in result.rows)}


def _count_generate(arguments, result, exc):
    return {} if result is None else {"sequences": result.num_sequences}


def _count_read(arguments, result, exc):
    return {"bytes_read": os.path.getsize(arguments["path"])} if exc is None else {}


def _count_write(arguments, result, exc):
    return {"bytes_written": os.path.getsize(arguments["path"])} if exc is None else {}


_COUNTERS = {
    "reservoir.harvest": _count_harvest,
    "evaluation.evaluate": _count_evaluate,
    "readout.accumulate_dataset": _count_accumulate_dataset,
    "readout.solve": _count_solve,
    "evaluation.run_sweep": _count_sweep,
    "channelsim.generate_dataset": _count_generate,
    "store.load_dataset": _count_read,
    "store.load_model": _count_read,
    "store.save_dataset": _count_write,
    "store.save_model": _count_write,
}

# --- per-layer metrics ------------------------------------------------------

# name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "reservoir.harvest_s": "s",
    "reservoir.harvest_calls": "count",
    "reservoir.harvest_ms_p50": "ms",
    "reservoir.harvest_ms_p90": "ms",
    "reservoir.state_gflop": "GFLOP",
    "reservoir.state_gflops": "GFLOP/s",
    "reservoir.build_s": "s",
    "reservoir.builds": "count",
    "numerics.spectral_radius_s": "s",
    "numerics.spectral_radius_calls": "count",
    "readout.accumulate_dataset_s": "s",
    "readout.fold_s": "s",
    "readout.samples_seen": "count",
    "readout.solve_s.ridge": "s",
    "readout.solve_s.linear": "s",
    "readout.solve_s.lasso": "s",
    "readout.solve_failed": "count",
    "readout.lasso_cycles": "count",
    "numerics.solve_spd_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.sequences": "count",
    "evaluation.samples_used": "count",
    "evaluation.samples_excluded": "count",
    "evaluation.sweep_cells": "count",
    "evaluation.sweep_cells_failed": "count",
    "transfer.pretrain_s": "s",
    "transfer.fine_tune_s": "s",
    "transfer.direct_eval_s": "s",
    "channelsim.generate_s": "s",
    "channelsim.sequences": "count",
    "store.save_dataset_s": "s",
    "store.load_dataset_s": "s",
    "store.save_model_s": "s",
    "store.load_model_s": "s",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "ops_failed_ratio": "ratio",
}


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold spans into the per-layer metrics (all but ``trace.overhead_s``
    and ``ops_failed_ratio``, which the caller measures)."""

    def pick(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in pick(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in pick(name))

    harvests = pick("reservoir.harvest")
    harvest_ms = [1e3 * s.duration for s in harvests]
    closed_loop = [s for s in pick("evaluation.evaluate") if "closed_loop_gflop" in s.counts]
    gflop = count("reservoir.harvest", "state_gflop") + sum(
        s.counts["closed_loop_gflop"] for s in closed_loop
    )
    stepping_s = sum(s.duration for s in harvests) + sum(s.self_time for s in closed_loop)
    solves = pick("readout.solve")
    metrics = {
        "reservoir.harvest_s": total("reservoir.harvest"),
        "reservoir.harvest_calls": len(harvests),
        "reservoir.harvest_ms_p50": _quantile(harvest_ms, 0.5),
        "reservoir.harvest_ms_p90": _quantile(harvest_ms, 0.9),
        "reservoir.state_gflop": gflop,
        "reservoir.state_gflops": gflop / stepping_s if stepping_s > 0 else 0.0,
        "reservoir.build_s": total("reservoir.build"),
        "reservoir.builds": len(pick("reservoir.build")),
        "numerics.spectral_radius_s": total("numerics.spectral_radius"),
        "numerics.spectral_radius_calls": len(pick("numerics.spectral_radius")),
        "readout.accumulate_dataset_s": total("readout.accumulate_dataset"),
        "readout.fold_s": sum(s.self_time for s in pick("readout.accumulate") + pick("readout.merge")),
        "readout.samples_seen": count("readout.accumulate_dataset", "samples_seen"),
        "readout.solve_failed": sum(s.failed for s in solves),
        "readout.lasso_cycles": sum(s.counts.get("lasso_cycles", 0) for s in solves),
        "numerics.solve_spd_s": total("numerics.solve_spd"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.sequences": count("evaluation.evaluate", "sequences"),
        "evaluation.samples_used": count("evaluation.evaluate", "samples_used"),
        "evaluation.samples_excluded": count("evaluation.evaluate", "samples_excluded"),
        "evaluation.sweep_cells": count("evaluation.run_sweep", "cells"),
        "evaluation.sweep_cells_failed": count("evaluation.run_sweep", "failed"),
        "transfer.pretrain_s": total("transfer.pretrain"),
        "transfer.fine_tune_s": total("transfer.fine_tune"),
        "transfer.direct_eval_s": total("transfer.direct_transfer_eval"),
        "channelsim.generate_s": total("channelsim.generate_dataset"),
        "channelsim.sequences": count("channelsim.generate_dataset", "sequences"),
        "store.save_dataset_s": total("store.save_dataset"),
        "store.load_dataset_s": total("store.load_dataset"),
        "store.save_model_s": total("store.save_model"),
        "store.load_model_s": total("store.load_model"),
        "store.bytes_read": count("store.load_dataset", "bytes_read")
        + count("store.load_model", "bytes_read"),
        "store.bytes_written": count("store.save_dataset", "bytes_written")
        + count("store.save_model", "bytes_written"),
        "cli.self_s": sum(s.self_time for s in pick("cli.main")),
    }
    for method in ("ridge", "linear", "lasso"):
        metrics[f"readout.solve_s.{method}"] = sum(
            s.duration for s in solves if s.counts.get("method") == method
        )
    return metrics
