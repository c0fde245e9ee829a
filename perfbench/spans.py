"""In-memory spans recorded by wrappers around the program's public functions.

The benchmark installs the wrappers from outside the program: each public
function a module of ``mvgear`` defines is replaced, under every name it is
looked up by (``mvgear.cli`` imports ``load_returns_csv`` by name, so
``mvgear.cli.load_returns_csv`` is replaced as well as
``mvgear.moments.load_returns_csv``), plus ``CovMatrix.from_entries`` and
``numpy.linalg.eigh``. A span is recorded when a call crosses from one layer
into another, or when the function has a metric of its own (``NAMED``); a
call a layer makes to itself runs unrecorded, so ``<layer>.calls`` counts
layer crossings. Spans stay in memory as
``[name, layer, start, end, parent, request_id]`` until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("cli", "moments", "solvers", "geometry", "robust", "diversity",
          "oracle", "serialize")

# Spans that always record, because a per-layer metric is read from them.
PARSE = "moments.load_returns_csv"
SPECTRUM = "moments.CovMatrix.from_entries"
SHRINK = "robust.shrink_covariance"
LOAD = "serialize.load_portfolio_json"
SAMPLE = "oracle.dominance_sample"
EIGH = "eigh"
NAMED = frozenset({PARSE, SPECTRUM, SHRINK, LOAD, SAMPLE, EIGH,
                   "serialize.dumps", "serialize.csv_lines"})
# Called once per output cell, and only from inside serialize: a wrapper
# there would be most of the tracing overhead and record nothing new.
UNWRAPPED = frozenset({"serialize.fmt_float"})

NAME, LAYER, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request_id: int | None = None
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, name: str, layer: str | None, fn, locations, after=None):
        """Wrapper that records ``fn`` as span ``name``.

        ``layer`` None attributes the span to its caller's layer (eigh).
        While ``fn`` runs, ``locations`` point back at ``fn``, so a recursive
        function (``serialize.dumps``) is one span.
        """
        spans, stack = self.spans, self.stack
        named = name in NAMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            caller = spans[parent][LAYER] if parent is not None else None
            own = layer or caller or "cli"
            if not named and own == caller:
                return fn(*args, **kwargs)
            record = [name, own, 0.0, 0.0, parent, self.request_id]
            spans.append(record)
            stack.append(len(spans) - 1)
            for owner, attr in locations:
                setattr(owner, attr, fn)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                for owner, attr in locations:
                    setattr(owner, attr, wrapper)
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Patch every public mvgear function, from_entries and eigh."""
        import mvgear
        from mvgear import moments

        modules = [getattr(mvgear, layer) for layer in LAYERS]
        namespaces = [mvgear, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or f"{layer}.{attr}" in UNWRAPPED):
                    continue
                locations = [(ns, key) for ns in namespaces
                             for key, value in vars(ns).items() if value is fn]
                name = f"{layer}.{attr}"
                inner = _count_samples(self, fn) if name == SAMPLE else fn
                self._patch_all(locations, self.wrap(name, layer, inner, locations,
                                                     AFTER.get(name)))

        cls = moments.CovMatrix
        original = cls.__dict__["from_entries"]
        self._patch_all([(cls, "from_entries")], classmethod(
            self.wrap(SPECTRUM, "moments", original.__func__, [])))

        eigh = [(np.linalg, "eigh")]
        self._patch_all(eigh, self.wrap(EIGH, None, np.linalg.eigh, eigh))

    def _patch_all(self, locations, wrapper) -> None:
        for owner, attr in locations:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, layer, start, end, parent, request_id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "layer": span[LAYER],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "request_id": span[REQUEST],
                }) + "\n")


# -- counters read from call results --------------------------------------
def _after_parse(tracer, args, kwargs, panel):
    tracer.count("parse.cells", panel.rows.size)


def _after_serialize(tracer, args, kwargs, text):
    tracer.count("serialize.bytes_out", len(text.encode("utf-8")))


def _count_samples(tracer, fn):
    """dominance_sample with its sample count and array bytes counted."""

    def counted(callback):
        def call(batch):
            out = np.asarray(callback(batch))
            tracer.count("oracle.bytes_computed", batch.nbytes + out.nbytes)
            return out
        return call

    @functools.wraps(fn)
    def sample(objective, projector, dim, count, seed):
        tracer.count("oracle.samples", dim * count)
        return fn(counted(objective), counted(projector), dim, count, seed)

    return sample


AFTER = {
    PARSE: _after_parse,
    "serialize.dumps": _after_serialize,
    "serialize.csv_lines": _after_serialize,
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
