"""Span tracing around the public functions of each ``invclt`` module.

Tracing is installed from the benchmark's side: every layer in ``LAYERS``
names a function (or a method, ``Class.method``) of one ``invclt`` module.
``install`` replaces that object wherever the package binds it -- the
module attribute of the same name in every ``invclt`` module (``bounds.ecdf``,
``coupling.involution_matrix``, ``cli.standardize`` ...) and every value of a
module-level dict (``checks.CHECKS``) -- with a wrapper that records a span.
``uninstall`` puts every original object back.  An untraced run never calls
``install``, so it runs the program's own objects.

A span is ``(id, parent, name, start, end, thread)``.  Recording takes a lock,
and each thread keeps its own stack of open spans, so spans opened in the
``rng.run_chunked`` pool threads link to the ``rng.run_chunked`` span that
started them.  A layer's self time is its span time minus the part covered by
its child spans; the check families report their whole span time instead,
since they partition a ``verify`` run.

Counters (``*.rows``, ``*.terms``, ``*.atoms``, ``*.pieces``, ``*.bytes``,
``rng.chunks``, ``involutions.enumerated``) are computed from argument and
result shapes, not measured, and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# the check families behind ``invclt verify``, as keyed in ``checks.CHECKS``
CHECK_FAMILIES = (
    "hat_marginals",
    "sigma_consistency",
    "brute_force_moments",
    "lemma_3_3_normalization",
    "stein_linearity",
    "stein_second_moment",
    "case_exhaustiveness",
    "impossible_cases_21_12",
    "completion_uniformity",
    "p2_joint_law",
    "p3_structural_zeros",
    "zero_bias_moments",
    "zero_bias_cdf",
    "exchangeability",
    "zero_bias_draw_invariants",
    "bound_chain",
    "truncation_inequalities",
)


def _table_bytes(args, result) -> int:
    # the n^4 weights plus their cumulative sum
    return sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))


@dataclass(frozen=True)
class Layer:
    """One traced function: metric prefix, ``invclt`` module and attribute."""

    metric: str
    module: str
    attr: str
    counter: str | None = None
    measure: Callable[[dict, object], int] | None = None
    adopts: str | None = None  # callable argument whose calls nest under this span
    inclusive: bool = False  # report span time, children included


# Metric names cannot start with "_", so the ``_kernels`` layers are
# reported as ``kernels.*``.
LAYERS = (
    Layer("kernels.match_pairs", "_kernels", "match_pairs",
          "kernels.match_pairs.rows", lambda a, r: len(a["choices"])),
    Layer("kernels.y_batch", "_kernels", "y_batch"),
    Layer("kernels.case_terms", "_kernels", "case_terms",
          "kernels.case_terms.rows", lambda a, r: len(a["images"])),
    Layer("kernels.exact_gap", "_kernels", "exact_gap",
          "kernels.exact_gap.terms", lambda a, r: len(a["invs"]) * len(a["quads"])),
    Layer("involutions.draw_choices", "involutions", "draw_choices"),
    Layer("involutions.enumerate", "involutions", "enumerate_involutions",
          "involutions.enumerated", lambda a, r: 1),
    Layer("involutions.enumerate", "involutions", "involution_matrix"),
    Layer("involutions.exact_w_distribution", "involutions", "exact_w_distribution"),
    Layer("coupling.square_bias_table", "coupling", "square_bias_table",
          "coupling.square_bias_table.bytes", _table_bytes),
    Layer("coupling.quad_sample", "coupling", "QuadrupleTable.sample",
          "coupling.quad_sample.rows", lambda a, r: len(a["us"])),
    Layer("coupling.quad_sample", "coupling", "sample_quadruples_rejection",
          "coupling.quad_sample.rows", lambda a, r: a["count"]),
    Layer("coupling.estimate_gap", "coupling", "estimate_gap"),
    Layer("coupling.exhaustive_sweep", "coupling", "exhaustive_sweep"),
    Layer("distances.ecdf", "distances", "ecdf",
          "distances.ecdf.atoms", lambda a, r: len(r.xs)),
    Layer("distances.kolmogorov_distance", "distances", "kolmogorov_distance"),
    Layer("distances.l1_distance", "distances", "l1_distance",
          "distances.l1_distance.pieces", lambda a, r: len(a["F"].xs) + 1),
    Layer("bounds.theorem_bounds", "bounds", "theorem_bounds"),
    Layer("bounds.truncate", "bounds", "truncate"),
    Layer("bounds.exact_collision_probability", "bounds", "exact_collision_probability"),
    Layer("bounds.lower_bound_experiment", "bounds", "lower_bound_experiment"),
    Layer("arrays.standardize", "arrays", "standardize"),
    Layer("arrays.moments", "arrays", "moments"),
    Layer("rng.run_chunked", "rng", "run_chunked",
          "rng.chunks", lambda a, r: len(r), adopts="worker"),
)


def check_layers() -> tuple[Layer, ...]:
    return tuple(
        Layer(f"checks.{family}", "checks", "", inclusive=True) for family in CHECK_FAMILIES
    )


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS + check_layers():
        units[f"{layer.metric}.s"] = "s"
        if layer.counter:
            kind = "bytes" if layer.counter.endswith(".bytes") else "count"
            units[layer.counter] = f"{kind}.computed"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.uncounted: set[str] = set()  # counters whose shape rule failed

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    @contextmanager
    def adopt(self, parent: int):
        """Make ``parent`` the open span of this thread for the body."""
        saved = self._stack()
        self._local.stack = [parent]
        try:
            yield
        finally:
            self._local.stack = saved

    def count(self, name: str, k: int) -> None:
        with self._lock:
            self.counts[name] += int(k)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_seconds(spans, inclusive: set[str]) -> dict[str, float]:
    """Seconds per span name: self time, or span time for ``inclusive`` names."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        busy = end - start
        if name not in inclusive:
            busy -= _covered(children.get(sid, []), start, end)
        out[name] += busy
    return out


def report(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values: seconds for every layer, then the counters."""
    inclusive = {layer.metric for layer in LAYERS + check_layers() if layer.inclusive}
    secs = layer_seconds(tracer.spans, inclusive)
    out: dict[str, float] = {}
    for name in metric_units():
        if name.endswith(".s"):
            out[name] = secs.get(name[:-2], 0.0)
        elif name != "trace.overhead_s":
            out[name] = tracer.counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def package_modules() -> list:
    """``invclt`` and every submodule of it."""
    pkg = importlib.import_module("invclt")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"invclt.{info.name}"))
    return mods


def binding_snapshot() -> dict[tuple, int]:
    """Identity of every module attribute, module-level dict value and class
    attribute in the package; equal snapshots mean nothing stayed patched."""
    snap: dict[tuple, int] = {}
    for mod in package_modules():
        for name, value in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    snap[(mod.__name__, name, repr(key))] = id(item)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for key, item in vars(value).items():
                    snap[(mod.__name__, name, "." + key)] = id(item)
    return snap


def _wrap(tracer: Tracer, layer: Layer, fn):
    sig = inspect.signature(fn)

    def counted(args, kwargs, result) -> None:
        if layer.measure is None:
            return
        try:
            bound = sig.bind(*args, **kwargs).arguments
            tracer.count(layer.counter, layer.measure(bound, result))
        except (KeyError, TypeError, AttributeError):
            tracer.uncounted.add(layer.counter)

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    with tracer.span(layer.metric):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    counted(args, kwargs, item)
                    yield item
            finally:
                it.close()

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer.metric) as sid:
            if layer.adopts:
                bound = sig.bind(*args, **kwargs)
                inner = bound.arguments[layer.adopts]

                def linked(*a, **kw):
                    with tracer.adopt(sid):
                        return inner(*a, **kw)

                bound.arguments[layer.adopts] = linked
                args, kwargs = bound.args, bound.kwargs
            result = fn(*args, **kwargs)
        counted(args, kwargs, result)
        return result

    return traced


class Installation:
    """The wrappers placed by ``install``; ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.restore: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    def _set(self, owner, key, value, is_dict: bool) -> None:
        old = owner[key] if is_dict else vars(owner)[key]
        self.restore.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self.restore):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self.restore.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer at every binding; layers the package lacks are listed
    in ``Installation.missing`` and report zero."""
    inst = Installation()
    mods = package_modules()
    # (layer, owner, key in owner, name the package binds the object under)
    targets: list[tuple[Layer, object, str, str]] = []
    for layer in LAYERS:
        owner = importlib.import_module(f"invclt.{layer.module}")
        *path, name = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            inst.missing.append(f"{layer.module}.{layer.attr}")
            continue
        targets.append((layer, owner, name, name))
    checks = importlib.import_module("invclt.checks")
    for layer in check_layers():
        family = layer.metric.split(".", 1)[1]
        fn = getattr(checks, "CHECKS", {}).get(family)
        if fn is None:
            inst.missing.append(layer.metric)
            continue
        targets.append((layer, checks.CHECKS, family, fn.__name__))

    for layer, owner, name, attr in targets:
        is_dict = isinstance(owner, dict)
        original = owner[name] if is_dict else vars(owner)[name]
        wrapped = _wrap(tracer, layer, original)
        if isinstance(owner, type):
            inst._set(owner, name, wrapped, False)
            continue
        for mod in mods:
            if vars(mod).get(attr) is original:
                inst._set(mod, attr, wrapped, False)
            for var, table in list(vars(mod).items()):
                if isinstance(table, dict) and not var.startswith("__"):
                    for key in [k for k, v in table.items() if v is original]:
                        inst._set(table, key, wrapped, True)
    return inst
