"""Span tracing of the program's layers, installed from outside the program.

``install`` wraps the public functions and methods of the goalevo modules
listed in ``LAYERS``. Every call then records one span: its duration and its
self time (the duration minus the time spent in the spans it directly
caused). Spans are kept in memory, per name, and written out by ``save``.

The evolve command evaluates genomes in forked pool workers. The worker
entry point is wrapped so that each worker call returns the spans it
recorded attached to its result, and the parent merges them when the pool
hands the results back; the parent also records each pool round trip as a
``pool.map`` span, so its waits are not counted as evolution time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# The goalevo modules traced. A span's layer is the first part of its name.
LAYERS = ("env", "predictor", "policy", "goal_net", "neat", "stats", "cli")

# Spans named after the layer operation they stand for rather than the
# Python name of the method.
RENAMED = {
    "env.GridBattleEnv.reset": "env.reset",
    "env.GridBattleEnv.step": "env.step",
    "env.GridBattleEnv.observe": "env.observe",
    "predictor.PredictorNet.forward": "predictor.forward",
    "predictor.ReplayBuffer.sample": "predictor.replay_sample",
    "policy.StaticGoal.__call__": "policy.provider",
    "policy.HardcodedGoal.__call__": "policy.provider",
    "policy.DefensiveGoal.__call__": "policy.provider",
    "policy.NetworkGoal.__call__": "policy.provider",
}

# Spans whose result length is summed, for a per-item cost.
SIZED = {"predictor.episode_to_samples"}

WORKER_ENTRY = "pool.worker"
POOL_MAP = "pool.map"
_SHIPPED_ATTR = "bench_spans"


def now() -> float:
    """CLOCK_MONOTONIC, the same clock in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """Per-name span durations and self times of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, list[float]] = {}
        self.sizes: dict[str, int] = {}
        self.stack: list[float] = []  # child time of each open span

    def record(self, name: str, duration: float, self_time: float) -> None:
        self.durations.setdefault(name, []).append(duration)
        self.self_times.setdefault(name, []).append(self_time)

    def take(self) -> dict:
        """The spans recorded so far, removed from the recorder."""
        taken = {"durations": self.durations, "self_times": self.self_times,
                 "sizes": self.sizes}
        self.reset()
        return taken

    def merge(self, taken: dict) -> None:
        for name, values in taken["durations"].items():
            self.durations.setdefault(name, []).extend(values)
            self.self_times.setdefault(name, []).extend(
                taken["self_times"][name])
        for name, size in taken["sizes"].items():
            self.sizes[name] = self.sizes.get(name, 0) + size

    def save(self, path: Path) -> None:
        arrays = {}
        for name, values in self.durations.items():
            arrays[f"{name}|dur"] = np.asarray(values)
            arrays[f"{name}|self"] = np.asarray(self.self_times[name])
        np.savez(path, sizes=np.frombuffer(
            json.dumps(self.sizes).encode(), dtype=np.uint8), **arrays)


def load(path: Path) -> dict:
    """Inverse of ``Recorder.save``: name -> {"dur", "self"} arrays, plus
    the summed result sizes under ``sizes``."""
    with np.load(path) as data:
        spans: dict = {}
        for key in data.files:
            if key == "sizes":
                continue
            name, kind = key.rsplit("|", 1)
            spans.setdefault(name, {})[kind] = data[key]
        sizes = json.loads(data["sizes"].tobytes().decode())
    return {"spans": spans, "sizes": sizes}


def _span(recorder: Recorder, fn, name: str):
    sized = name in SIZED

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.stack.append(0.0)
        start = now()
        try:
            result = fn(*args, **kwargs)
            if sized:
                recorder.sizes[name] = recorder.sizes.get(name, 0) + len(result)
            return result
        finally:
            duration = now() - start
            child = recorder.stack.pop()
            if recorder.stack:
                recorder.stack[-1] += duration
            recorder.record(name, duration, duration - child)

    return traced


def _worker_entry(recorder: Recorder, fn):
    """Pool worker entry: start from an empty recorder in each forked
    worker, and ship the spans of every call back with its result."""
    inner = _span(recorder, fn, WORKER_ENTRY)

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        if recorder.pid != os.getpid():
            recorder.pid = os.getpid()
            recorder.reset()
        result = inner(*args, **kwargs)
        setattr(result, _SHIPPED_ATTR, recorder.take())
        return result

    return entry


def _evolve_loop(recorder: Recorder, fn):
    """Parent side of the pool: time each ``eval_map`` round trip and merge
    the spans the workers shipped back."""

    @functools.wraps(fn)
    def loop(*args, **kwargs):
        eval_map = kwargs.get("eval_map")
        if eval_map is not None:
            timed_map = _span(recorder, eval_map, POOL_MAP)

            def merging_map(genomes, gen_seed):
                results = timed_map(genomes, gen_seed)
                for result in results:
                    shipped = result.__dict__.pop(_SHIPPED_ATTR, None)
                    if shipped is not None:
                        recorder.merge(shipped)
                return results

            kwargs["eval_map"] = merging_map
        return fn(*args, **kwargs)

    return loop


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the public functions
    defined in ``module`` and the public methods of its public classes;
    goal providers are traced through ``__call__``."""
    short = module.__name__.rsplit(".", 1)[1]
    found = []
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((f"{short}.{attr}", module, attr, value))
        elif inspect.isclass(value):
            for meth, fn in sorted(vars(value).items()):
                if inspect.isfunction(fn) and (meth == "__call__"
                                               or not meth.startswith("_")):
                    found.append((f"{short}.{attr}.{meth}", value, meth, fn))
    return found


def install(recorder: Recorder) -> None:
    """Wrap every public function and method of the program's layers.

    A module-level function is replaced in every goalevo module that holds
    it, since modules import each other's functions by name.
    """
    import importlib

    modules = {name: importlib.import_module(f"goalevo.{name}")
               for name in LAYERS}
    program = [m for name, m in sys.modules.items()
               if name.startswith("goalevo.") and m is not None]
    for module in modules.values():
        for qualname, owner, attr, fn in _public_callables(module):
            name = RENAMED.get(qualname, qualname)
            wrapped = _span(recorder, fn, name)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                continue
            for other in program:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)
    neat = modules["neat"]
    neat._worker_eval = _worker_entry(recorder, neat._worker_eval)
    neat.evolve_against = _evolve_loop(recorder, neat.evolve_against)
