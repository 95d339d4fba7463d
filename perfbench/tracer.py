"""Spans and counters recorded around calls into obslab, from outside it.

A `Tracer` replaces functions at every module attribute through which the
package looks them up (its import sites) with one shared wrapper per
function.  Each wrapped call records a span (name, start, end, parent span,
run id) and lets a per-function hook add counts derived from the call's
arguments and result.  Spans stay in memory until `write_spans`.  `restore`
puts every original attribute back.

Self time is a span's duration minus the union of its children's intervals,
clipped to the span; the sum of self times over a proper span tree equals
the union of its root spans.
"""
from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# hook(counters, args, kwargs, result, seconds) -> None
Hook = Callable[[dict, tuple, dict, object, float], None]


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int   # index into Tracer.spans; -1 for a root span
    run_id: str


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    `sites` are the import sites the benchmark expects, written
    "module:attr" or "module:Class.attr"; the first names the definition.
    Other obslab modules that bind the same object are wrapped too.  When an
    expected site is gone, the probe's metrics are reported missing.
    """

    name: str
    layer: str
    sites: tuple
    hook: Optional[Hook] = None
    generator: bool = False
    # transforms the result before it is returned (used to wrap the
    # coefficient functions of freshly built problems)
    post: Optional[Callable] = None


def resolve(site: str):
    """(owner object, attribute name) for a "module:attr" site, or None."""
    mod_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def interval_union(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per-span self time: duration minus the union of child intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        kids = children.get(i, ())
        covered = interval_union((max(c.start, s.start), min(c.end, s.end))
                                 for c in kids)
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans and counters for the probes it has installed."""

    def __init__(self, package: str = "obslab"):
        self.package = package
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.run_id = ""
        self.missing: dict = {}          # probe name -> missing sites
        self._stack: list = []           # indices of open spans
        self._patches: list = []         # (owner, attr, original)
        self._wrappers: dict = {}        # id(original) -> wrapper
        self._wrapper_ids: set = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0,
                               parent, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span.end - span.start

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        """A wrapper around `fn` that records one span per call."""
        name, layer, hook, post = probe.name, probe.layer, probe.hook, probe.post
        tracer = self

        if probe.generator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._traced_generator(probe, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name, layer)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(idx)
                    tracer.counters[f"{layer}.errors"] += 1
                    raise
                seconds = tracer._close(idx)
                tracer.counters[f"{name}.calls"] += 1
                tracer.counters[f"{name}.s"] += seconds
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result, seconds)
                return post(tracer, result) if post is not None else result
        self._wrapper_ids.add(id(wrapper))
        return wrapper

    def _traced_generator(self, probe: Probe, gen):
        """Yield from `gen`, with one span per resumption."""
        name, layer = probe.name, probe.layer
        self.counters[f"{name}.calls"] += 1
        try:
            while True:
                idx = self._open(name, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    self.counters[f"{name}.s"] += self._close(idx)
                    return
                except BaseException:
                    self._close(idx)
                    self.counters[f"{layer}.errors"] += 1
                    raise
                self.counters[f"{name}.s"] += self._close(idx)
                self.counters[f"{name}.yields"] += 1
                yield item
        finally:
            gen.close()

    # -- installing --------------------------------------------------------

    def _package_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package
                                      or n.startswith(self.package + "."))]

    def install(self, probes) -> None:
        """Wrap every probe at its expected sites and at every other
        package module attribute bound to the same object."""
        modules = self._package_modules()
        for probe in probes:
            targets = {}
            for site in probe.sites:
                found = resolve(site)
                if found is None:
                    self.missing.setdefault(probe.name, []).append(site)
                    continue
                owner, attr = found
                targets[(id(owner), attr)] = found
                if isinstance(owner, type):
                    continue   # a method has one site: its class
                original = getattr(owner, attr)
                for mod in modules:
                    for name, value in vars(mod).items():
                        if value is original:
                            targets[(id(mod), name)] = (mod, name)
            for owner, attr in targets.values():
                self._patch(probe, owner, attr)

    def _patch(self, probe: Probe, owner, attr: str) -> None:
        current = getattr(owner, attr)
        if id(current) in self._wrapper_ids:
            return
        wrapper = self._wrappers.get(id(current))
        if wrapper is None:
            wrapper = self.wrap(probe, current)
            self._wrappers[id(current)] = wrapper
        self._patches.append((owner, attr, current))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute `install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()
        self._wrapper_ids.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "layer", "start", "end", "parent",
                        "run_id"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, s.layer, repr(s.start), repr(s.end),
                            s.parent, s.run_id])
