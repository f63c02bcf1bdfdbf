"""Span tracing of framecoh's layers, installed from outside the package.

`Tracer.install` wraps every public function of each layer module, plus the
`Frame` constructor and the methods of `GF2m`, and rebinds each wrapped
object wherever a framecoh module (or a module-level dict such as the
experiment registry) holds it.  Each call records a span (name, start, end,
parent) in memory; self time is a span's duration minus the time covered by
its child spans.  Probe work (numerics checks done by the benchmark) runs
inside "probe" spans, whose time is charged to no layer and subtracted from
the traced wall time.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import sys
import time

#: framecoh modules, each one layer; span names are "<layer>.<function>".
LAYERS = (
    "constructions",
    "gf2m",
    "frame",
    "equivalence",
    "ost",
    "bounds",
    "frameio",
    "experiments",
    "cli",
)

#: spectral_norm probes solve an eigenproblem of the smaller Gram; above this
#: side length the probe would dominate the traced run, so it is skipped.
PROBE_MAX_SIDE = 1024

_START, _END = 1, 2  # positions in a span: [name, start, end, parent]


class Tracer:
    """In-memory span recorder plus the counters the layer hooks fill."""

    def __init__(self, probes: bool = True):
        self.probes = probes
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self.rel_err_max = 0.0
        self.names: set[str] = set()

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        return _Span(self, name)

    def call(self, name, fn, args, kwargs, hook):
        with self.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap the layers' public callables and rebind every reference."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"framecoh.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[id(obj)] = self._wrap(name, obj, _HOOKS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "framecoh" or mod_name.startswith("framecoh.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        frame_mod = importlib.import_module("framecoh.frame")
        frame_mod.Frame.__init__ = self._wrap("frame.Frame", frame_mod.Frame.__init__, None)
        gf = importlib.import_module("framecoh.gf2m").GF2m
        for attr, obj in list(vars(gf).items()):
            if isinstance(obj, functools.cached_property):
                obj.func = self._wrap("gf2m.GF2m", obj.func, None)
            elif inspect.isfunction(obj):
                setattr(gf, attr, self._wrap("gf2m.GF2m", obj, None))

    def _wrap(self, name, fn, hook):
        self.names.add(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return traced

    # -- reduction -------------------------------------------------------
    def summary(self) -> dict:
        """Calls, total and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][_START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][_END] = time.perf_counter()
        self.tracer.stack.pop()
        return False


def _bound(fn_args, fn_kwargs, position, keyword):
    return fn_kwargs[keyword] if keyword in fn_kwargs else fn_args[position]


def _gram_hook(tracer, args, kwargs, result):
    # computed from the shapes, not counted: 2MN^2 real, 8MN^2 complex
    frame = _bound(args, kwargs, 0, "frame")
    m, n = frame.rows, frame.cols
    per_entry = 8 if frame.is_complex else 2
    tracer.counters["frame.gram.flop"] += per_entry * m * n * n


def _spectral_norm_hook(tracer, args, kwargs, result):
    if not tracer.probes:
        return
    data = _bound(args, kwargs, 0, "frame").data
    m, n = data.shape
    if min(m, n) > PROBE_MAX_SIDE:
        tracer.counters["frame.spectral_norm.probes_skipped"] += 1
        return
    import numpy as np

    with tracer.span("probe"):
        small = data @ data.conj().T if m <= n else data.conj().T @ data
        exact = float(np.sqrt(max(np.linalg.eigvalsh(small)[-1], 0.0)))
        if exact > 0.0:
            tracer.rel_err_max = max(tracer.rel_err_max, abs(result - exact) / exact)
        tracer.counters["frame.spectral_norm.probes"] += 1


def _built_hook(tracer, args, kwargs, result):
    tracer.counters["constructions.bytes_built"] += result.data.nbytes


def _oracle_hook(tracer, args, kwargs, result):
    cols = _bound(args, kwargs, 0, "frame").cols
    tracer.counters["equivalence.oracle_patterns"] += 1 << (cols - 1)


def _weak_rip_hook(tracer, args, kwargs, result):
    tracer.counters["ost.weak_rip_estimate.trials"] += _bound(args, kwargs, 3, "trials")


def _recover_hook(tracer, args, kwargs, result):
    tracer.counters["ost.ost_recover.rank_deficient"] += bool(result.rank_deficient)


def _file_hook(name):
    def hook(tracer, args, kwargs, result):
        tracer.counters[f"{name}.bytes"] += os.path.getsize(_bound(args, kwargs, 0, "path"))

    return hook


_HOOKS = {
    "frame.gram": _gram_hook,
    "frame.spectral_norm": _spectral_norm_hook,
    "constructions.build_gaussian": _built_hook,
    "constructions.harmonic_frame_from_rows": _built_hook,
    "constructions.build_code_frame": _built_hook,
    "equivalence.exhaustive_flip_oracle": _oracle_hook,
    "ost.weak_rip_estimate": _weak_rip_hook,
    "ost.ost_recover": _recover_hook,
    "frameio.read_frame": _file_hook("frameio.read_frame"),
    "frameio.write_frame": _file_hook("frameio.write_frame"),
}


def layer_metrics(tracer: Tracer, n_ops: int, warnings_by_layer: dict) -> dict:
    """Per-op figures for every traced name and layer, keyed as in BENCHMARK.json."""
    summary = tracer.summary()
    out = {}
    layer_self = collections.Counter()
    for name, row in summary.items():
        out[f"{name}.calls"] = row["calls"] / n_ops
        out[f"{name}.self_s"] = row["self_s"] / n_ops
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / n_ops
        out[f"{layer}.runtime_warnings"] = warnings_by_layer.get(layer, 0) / n_ops
    c = tracer.counters

    def rate(amount, name):
        secs = summary[name]["self_s"]
        return amount / secs if secs > 0 else 0.0

    mib = 1 << 20
    out["frame.gram.gflop"] = c["frame.gram.flop"] / 1e9 / n_ops
    out["frame.gram.gflops"] = rate(c["frame.gram.flop"] / 1e9, "frame.gram")
    out["frame.spectral_norm.rel_err_max"] = tracer.rel_err_max
    for key in ("probes", "probes_skipped"):
        out[f"frame.spectral_norm.{key}"] = c[f"frame.spectral_norm.{key}"] / n_ops
    out["constructions.mib_built"] = c["constructions.bytes_built"] / mib / n_ops
    out["equivalence.oracle_patterns_per_s"] = rate(
        c["equivalence.oracle_patterns"], "equivalence.exhaustive_flip_oracle"
    )
    out["ost.weak_rip_estimate.trials_per_s"] = rate(
        c["ost.weak_rip_estimate.trials"], "ost.weak_rip_estimate"
    )
    calls = summary["ost.ost_recover"]["calls"]
    out["ost.ost_recover.rank_deficient_ratio"] = (
        c["ost.ost_recover.rank_deficient"] / calls if calls else 0.0
    )
    for name in ("frameio.read_frame", "frameio.write_frame"):
        out[f"{name}.mib"] = c[f"{name}.bytes"] / mib / n_ops
        out[f"{name}.mib_per_s"] = rate(c[f"{name}.bytes"] / mib, name)
    return out
