"""In-memory spans around carnotdim's public calls, and per-layer tables.

The tracer never edits the package.  It rebinds each public function of a
carnotdim module in every module namespace that holds it (the import sites),
so a call made through ``from .thermo import estimate_distortion`` inside
``systems`` is caught under site ``systems``.  A few methods that carry the
costs the benchmark tracks are wrapped on their classes.  Everything is
restored by ``uninstall``.

A span is (key, site, start, end, parent, op): ``key`` is
``<defining module>.<function>``, the layer is the module, and ``op`` is the
benchmark operation that caused it.  A layer's self time is the summed
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("groups", "conformal", "gdms", "thermo", "systems", "dimension")
# type tests called several times per chain: a span would cost more than the call
SKIP = {"groups.is_infinity"}
METHODS = {
    "conformal.ConformalChain": ("__init__",),
    "gdms.GdmsSpec": ("__init__", "finite_irreducibility", "admissible_words"),
}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _box_candidates(r_hi: float, m1: int, m2: int) -> int:
    """Bounding-box size |z_j| <= r_hi, |t_j| <= r_hi^2 (strict) of a lattice scan."""
    zmax = max(math.ceil(r_hi) - 1, 0)
    tmax = max(math.ceil(r_hi * r_hi) - 1, 0)
    return (2 * zmax + 1) ** m1 * (2 * tmax + 1) ** m2


def _lattice_hook(points):
    """Count lattice points kept (points(result)) and bounding-box candidates."""
    def hook(tr, fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        tr.counts["lattice_candidates"] += _box_candidates(a["r_hi"], a["g"].m1, a["g"].m2)
        tr.counts["lattice_points"] += points(result)
    return hook


def _packing_hook(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    g = a["g"]
    # candidate count of the greedy packing, from its documented sizing rule
    area = (a["radius"] / a["separation"]) ** (g.Q - 1)
    tr.counts["packing_candidates"] += int(min(max(a["oversample"] * area, 1024),
                                               a["max_points"]))
    tr.counts["packing_accepted"] += int(result[0].shape[0])


def _bowen_hook(tr, fn, args, kwargs, result):
    tr.counts["bisection_iters"] += int(result.iterations)
    tr.sums["slack"] += float(result.slack)


HOOKS = {
    "groups.lattice_norm_histogram": _lattice_hook(lambda res: int(res[1].sum())),
    "groups.lattice_shell_array": _lattice_hook(lambda res: int(res[0].shape[0])),
    "systems.sphere_packing": _packing_hook,
    "thermo.bowen_dim": _bowen_hook,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)
        self._stack = []
        self._undo = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, key, site="bench"):
        """A span opened by the benchmark itself, around one operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (key, site, t0, t1, parent, self.op)

    def _wrap(self, key, site, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(key)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        spans[idx] = (key, site, t0, t1, parent, tracer.op)
                    tracer.counts[key + ":items"] += 1
                    yield item
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (key, site, t0, t1, parent, tracer.op)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self):
        pkg = self.package.__name__
        sites = [self.package] + [sys.modules[f"{pkg}.{m}"] for m in LAYERS]
        for site in sites:
            site_name = site.__name__.rpartition(".")[2]
            for name, obj in list(vars(site).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                mod = obj.__module__ or ""
                layer = mod.rpartition(".")[2]
                key = f"{layer}.{name}"
                if not mod.startswith(pkg + ".") or layer not in LAYERS or key in SKIP:
                    continue
                setattr(site, name, self._wrap(key, site_name, obj))
                self._undo.append((site, name, obj))
        for qual, methods in METHODS.items():
            layer, cls_name = qual.split(".")
            cls = getattr(sys.modules[f"{pkg}.{layer}"], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                key = qual if meth == "__init__" else f"{layer}.{meth}"
                setattr(cls, meth, self._wrap(key, layer, orig))
                self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.sums.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class SpanTable:
    """Self times per layer and outermost inclusive times per key set."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for key, site, t0, t1, parent, op in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_by_key = defaultdict(float)
        self.self_by_layer = defaultdict(float)
        self.calls = defaultdict(int)
        for i, (key, site, t0, t1, parent, op) in enumerate(spans):
            s = (t1 - t0) - child[i]
            self.self_by_key[key] += s
            self.self_by_layer[key.partition(".")[0]] += s
            self.calls[key] += 1

    def inclusive(self, keys, site=None) -> float:
        """Summed duration of spans in `keys` (optionally from one import
        site) that have no ancestor in `keys`, so nesting is counted once."""
        keys = set(keys)
        total = 0.0
        for key, s_site, t0, t1, parent, op in self.spans:
            if key not in keys or (site is not None and s_site != site):
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in keys:
                p = self.spans[p][4]
            if p < 0:
                total += t1 - t0
        return total
