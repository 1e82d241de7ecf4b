"""Per-layer tracing of takagi-lab from outside the package.

:meth:`Tracer.install` wraps the public functions named in ``LAYERS``.
Each wrapper is a span: it counts the call and adds its self time (its
duration minus the time its child spans cover).  Wrappers replace the
original in every ``takagi_lab`` module that holds a reference to it,
since ``from .plf import build_Gn`` gives ``measure`` its own binding.
A function that no longer exists is recorded as absent and reported
with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer module -> traced public functions ("Class.method" for methods)
LAYERS = {
    "exactnum": ("parse_rat", "format_rat"),
    "takagi": ("G", "takagi_enclosure", "takagi_exact", "slope_seq"),
    "plf": ("build_Gn", "solve_affine_ge", "solve_affine_le",
            "IntervalSet.clip", "IntervalSet.measure"),
    "measure": ("certify_lower", "quotient_set_bounds", "quotient_set_sides"),
    "analysis": ("verify_lemma", "blowup_check", "refute", "classify",
                 "certificate", "to_jsonable"),
    "cli": ("run", "sample_rows"),
}

COUNTERS = ("plf.breakpoints", "plf.intervals", "takagi.G.terms",
            "measure.rungs", "measure.certified", "measure.depth_used_max")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}.{fn}.{kind}": unit for layer, fns in LAYERS.items()
             for fn in fns for kind, unit in (("calls", "count"), ("self_s", "s"))}
    units.update({"plf.breakpoints": "count", "plf.intervals": "count",
                  "takagi.G.terms": "count", "measure.rungs_per_certify": "ratio",
                  "measure.certified_ratio": "ratio", "measure.depth_used_max": "depth"})
    return units


PACKAGE = "takagi_lab"


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats: dict[str, list] = {}  # "layer.fn" -> [calls, self seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [key, child seconds]

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, names in self.layers.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                module = None
            for name in names:
                key = f"{layer}.{name}"
                self.stats[key] = [0, 0.0]
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, original, _AFTER.get(key))
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for ref, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, ref, wrapper)

    def _wrap(self, key, fn, after):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return span

    def parent(self) -> str | None:
        """The innermost open span (valid inside an ``after`` hook)."""
        return self._stack[-1][0] if self._stack else None

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures for every name in :func:`metric_units`."""
        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                calls, self_s = self.stats.get(f"{layer}.{fn}", (0, 0.0))
                out[f"{layer}.{fn}.calls"] = calls / passes
                out[f"{layer}.{fn}.self_s"] = self_s / passes
        c = self.counters
        certifies = self.stats.get("measure.certify_lower", (0,))[0]
        out["plf.breakpoints"] = c["plf.breakpoints"] / passes
        out["plf.intervals"] = c["plf.intervals"] / passes
        out["takagi.G.terms"] = c["takagi.G.terms"] / passes
        out["measure.rungs_per_certify"] = c["measure.rungs"] / certifies if certifies else 0.0
        out["measure.certified_ratio"] = (c["measure.certified"] / c["measure.rungs"]
                                          if c["measure.rungs"] else 0.0)
        out["measure.depth_used_max"] = c["measure.depth_used_max"]
        return out


def _count_breakpoints(tracer, args, plf):
    tracer.counters["plf.breakpoints"] += len(plf.breakpoints)


def _count_intervals(tracer, args, interval_set):
    # solve_affine_le delegates here, so both directions are counted once
    tracer.counters["plf.intervals"] += len(interval_set)


def _count_terms(tracer, args, value):
    tracer.counters["takagi.G.terms"] += args[0]


def _count_rung(tracer, args, bound):
    if tracer.parent() == "measure.certify_lower":
        tracer.counters["measure.rungs"] += 1


def _count_certify(tracer, args, result):
    _best, depth_used, status = result
    c = tracer.counters
    c["measure.certified"] += status == "certified"
    c["measure.depth_used_max"] = max(c["measure.depth_used_max"], depth_used)


_AFTER = {
    "plf.build_Gn": _count_breakpoints,
    "plf.solve_affine_ge": _count_intervals,
    "takagi.G": _count_terms,
    "measure.quotient_set_bounds": _count_rung,
    "measure.certify_lower": _count_certify,
}
