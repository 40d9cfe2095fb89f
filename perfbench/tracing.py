"""Out-of-program tracing: spans around calls into each layer.

:func:`install` monkeypatches the public functions of every layer with
wrappers that record a :class:`Span` (name, start, end, parents,
request id) into a :class:`Recorder`.  Nothing in the program changes;
uninstalling restores the originals.  Spans stay in memory and are
written out once, at exit (:meth:`Recorder.dump`).

A span's *layer* is the first dotted part of its name.  ``op`` (one
benchmark operation: a call, a request or a tick batch) and ``loadgen``
belong to the benchmark itself and count as unattributed time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict

LAYERS = ("api", "finance", "engine", "batch_sim", "backends", "service",
          "serve", "stream")


class Span:
    __slots__ = ("id", "name", "start", "end", "parents", "rid", "tag")

    def __init__(self, id, name, start, end=None, parents=(), rid=None,
                 tag=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parents = tuple(parents)
        self.rid = rid
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, list(self.parents),
                self.rid, self.tag]

    @classmethod
    def from_list(cls, row) -> "Span":
        tag = row[6]
        return cls(row[0], row[1], row[2], row[3], row[4], row[5],
                   tuple(tag) if isinstance(tag, list) else tag)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans and counters of one process.  Thread-safe for appends."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: "list[Span]" = []
        self.counters: "dict[str, float]" = defaultdict(float)
        self.samples: "dict[str, list[float]]" = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def _new(self, name, parents, rid, tag=None) -> Span:
        span_id = (self.pid << 32) | next(self._ids)
        if parents is None:
            parent = self.current()
            parents = (parent.id,) if parent is not None else ()
            if rid is None and parent is not None:
                rid = parent.rid
        span = Span(span_id, name, time.monotonic(), None, parents, rid, tag)
        if span.rid is None and not span.parents:
            span.rid = span_id  # a root names its own request
        return span

    def open(self, name, parents=None, rid=None, tag=None) -> Span:
        """Start a span on this thread's stack (child of the top)."""
        span = self._new(name, parents, rid, tag)
        self._stack().append(span)
        return span

    def close(self, span: Span, end: "float | None" = None) -> None:
        span.end = time.monotonic() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def detached(self, name, parents=None, rid=None, tag=None) -> Span:
        """Start a span that another thread (or a callback) finishes."""
        return self._new(name, parents, rid, tag)

    def finish(self, span: Span, end: "float | None" = None) -> None:
        span.end = time.monotonic() if end is None else end
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def dump(self, path) -> None:
        with self._lock:
            document = {"pid": self.pid,
                        "spans": [span.as_list() for span in self.spans],
                        "counters": dict(self.counters),
                        "samples": dict(self.samples)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    def merge_file(self, path) -> None:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        with self._lock:
            self.spans.extend(Span.from_list(row)
                              for row in document["spans"])
            for name, value in document["counters"].items():
                self.counters[name] += value
            for name, values in document["samples"].items():
                self.samples[name].extend(values)


# ---------------------------------------------------------------------------
# self-time arithmetic


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_map(spans) -> "dict[int, list[Span]]":
    children: "dict[int, list[Span]]" = defaultdict(list)
    for span in spans:
        for parent in span.parents:
            children[parent].append(span)
    return children


def self_time(span: Span, children: "dict[int, list[Span]]") -> float:
    """Duration minus the part of it that child spans cover."""
    lo, hi = span.start, span.end
    kids = [(max(k.start, lo), min(k.end, hi))
            for k in children.get(span.id, ())]
    return span.duration - _covered((a, b) for a, b in kids if b > a)


def attribute(spans, roots) -> "tuple[dict[str, float], float]":
    """Self time per layer over the trees under ``roots``.

    Every span is clipped to its parent's interval on the way down, so
    the self times of one tree add up to its root's duration (children
    that overlap each other aside).  Returns ``(seconds per layer or
    bench name, total root seconds)``.
    """
    children = children_map(spans)
    totals: "dict[str, float]" = defaultdict(float)
    root_total = 0.0
    for root in roots:
        root_total += root.duration
        stack = [(root, root.start, root.end)]
        while stack:
            span, lo, hi = stack.pop()
            a, b = max(span.start, lo), min(span.end, hi)
            if b <= a:
                continue
            kids = children.get(span.id, ())
            covered = _covered(
                (max(k.start, a), min(k.end, b)) for k in kids
                if min(k.end, b) > max(k.start, a))
            totals[layer_of(span.name)] += (b - a) - covered
            stack.extend((kid, a, b) for kid in kids)
    return dict(totals), root_total


# ---------------------------------------------------------------------------
# wrappers


def _timed(recorder: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result
    return wrapper


class Patcher:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self):
        self._undo: "list[tuple[object, str, object]]" = []

    def swap(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _roll_counts(recorder: Recorder):
    def after(span, args, kwargs, result):
        leaf_v = args[2] if len(args) > 2 else kwargs["leaf_v"]
        steps = int(args[8] if len(args) > 8 else kwargs["steps"])
        n = int(leaf_v.shape[0])
        nodes = n * steps * (steps + 1) // 2
        recorder.count("backends.roll.calls")
        recorder.count("backends.roll.nodes", nodes)
        # computed, not measured: per node update the recurrence reads
        # S[k], V[k], V[k+1] and writes S', V[k] in the working dtype
        recorder.count("backends.roll.bytes_computed",
                       nodes * 5 * leaf_v.dtype.itemsize)
    return after


def _engine_counts(recorder: Recorder, name: str):
    def after(span, args, kwargs, result):
        recorder.count(f"{name}.calls")
        stats = getattr(result, "stats", None)
        if stats is not None:
            recorder.count("engine.retries", stats.retries)
            recorder.count("engine.quarantined", stats.quarantined_options)
    return after


def request_key(request) -> tuple:
    """Content key matching a client request to its shard-side span."""
    first = request.options[0]
    return (len(request.options), float(first.spot).hex(),
            float(first.strike).hex(), float(first.volatility).hex(),
            float(first.maturity).hex())


class _ServiceProbe:
    """Wrappers that follow a request from submit into its engine call.

    ``service.request`` spans run from submit to future resolution; the
    engine call that carries a request is found by the identity of the
    request's first option inside the merged flush request, and becomes
    that span's child (a coalesced flush has several parents).
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.pending: "dict[int, Span]" = {}
        self.lock = threading.Lock()

    def submit(self, fn):
        recorder, probe = self.recorder, self

        @functools.wraps(fn)
        def wrapper(service, request, *args, **kwargs):
            request_span = recorder.detached("service.request",
                                             tag=request_key(request))
            marker = id(request.options[0])
            with probe.lock:
                probe.pending[marker] = request_span
            submit_span = recorder.open("service.submit",
                                        parents=(request_span.id,),
                                        rid=request_span.rid)
            recorder.count("service.submit.calls")
            try:
                future = fn(service, request, *args, **kwargs)
            except BaseException:
                recorder.close(submit_span)
                probe._done(marker, request_span)
                raise
            recorder.close(submit_span)
            future.add_done_callback(
                lambda _f: probe._done(marker, request_span))
            return future
        return wrapper

    def _done(self, marker: int, span: Span) -> None:
        with self.lock:
            if self.pending.get(marker) is span:
                del self.pending[marker]
        self.recorder.sample("service.result_ms",
                             (time.monotonic() - span.start) * 1e3)
        self.recorder.finish(span)

    def run_request(self, fn):
        recorder, probe = self.recorder, self

        @functools.wraps(fn)
        def wrapper(engine, request, *args, **kwargs):
            now = time.monotonic()
            with probe.lock:
                carried = [probe.pending.pop(id(option), None)
                           for option in request.options]
            parents = [span.id for span in carried if span is not None]
            for span in carried:
                if span is not None:
                    recorder.sample("service.wait_ms",
                                    (now - span.start) * 1e3)
            span = recorder.open("api.run_request",
                                 parents=tuple(parents) or None)
            try:
                return fn(engine, request, *args, **kwargs)
            finally:
                recorder.close(span)
        return wrapper


def _json_shim(recorder: Recorder, module):
    """``json`` stand-in whose dumps/loads are timed as wire codec."""
    return types.SimpleNamespace(
        dumps=_timed(recorder, "serve.codec.dumps", module.dumps),
        loads=_timed(recorder, "serve.codec.loads", module.loads))


def install(recorder: Recorder, *, client: bool = False) -> Patcher:
    """Wrap every layer's public entry points; returns the undo handle.

    ``client=True`` also wraps the HTTP client and its wire codec.
    """
    import repro
    import repro.api as api
    import repro.service.service as service_module
    import repro.engine.scheduler as scheduler
    from repro.backends.cnative import CNativeBackend
    from repro.backends.numpy_backend import NumpyBackend
    from repro.engine import PricingEngine
    from repro.service import PricingService
    from repro.stream import PositionBook, StreamRunner

    patch = Patcher()
    facade = _timed(recorder, "api.price", api.price,
                    lambda *_: recorder.count("api.price.calls"))
    patch.swap(api, "price", facade)
    patch.swap(repro, "price", facade)
    patch.swap(api.PricingRequest, "__post_init__",
               _timed(recorder, "api.request",
                      api.PricingRequest.__post_init__))
    for name in ("run", "run_greeks"):
        patch.swap(PricingEngine, name, _timed(
            recorder, f"engine.{name}", getattr(PricingEngine, name),
            _engine_counts(recorder, f"engine.{name}")))
    for name in ("simulate_kernel_a_batch", "simulate_kernel_b_batch"):
        patch.swap(scheduler, name, _timed(
            recorder, "batch_sim.simulate", getattr(scheduler, name)))
    for backend in (CNativeBackend, NumpyBackend):
        patch.swap(backend, "roll_levels", _timed(
            recorder, "backends.roll", backend.roll_levels,
            _roll_counts(recorder)))
    patch.swap(scheduler, "price_binomial", _timed(
        recorder, "finance.price_binomial", scheduler.price_binomial,
        lambda *_: recorder.count("finance.price_binomial.calls")))
    probe = _ServiceProbe(recorder)
    patch.swap(PricingService, "submit", probe.submit(PricingService.submit))
    patch.swap(service_module, "run_request",
               probe.run_request(service_module.run_request))
    patch.swap(StreamRunner, "apply", _timed(
        recorder, "stream.apply", StreamRunner.apply))
    patch.swap(StreamRunner, "revalue", _timed(
        recorder, "stream.revalue", StreamRunner.revalue))
    patch.swap(PositionBook, "aggregate", _timed(
        recorder, "stream.aggregate", PositionBook.aggregate))
    if client:
        import repro.serve.client as client_module

        patch.swap(client_module.ServeClient, "price", _timed(
            recorder, "serve.client", client_module.ServeClient.price))
        patch.swap(api.PricingRequest, "to_dict", _timed(
            recorder, "serve.codec.to_dict", api.PricingRequest.to_dict))
        from_dict = api.BatchResult.__dict__["from_dict"].__func__
        patch.swap(api.BatchResult, "from_dict", classmethod(_timed(
            recorder, "serve.codec.from_dict", from_dict)))
        patch.swap(client_module, "json",
                   _json_shim(recorder, client_module.json))
    return patch


__all__ = ["LAYERS", "Patcher", "Recorder", "Span", "attribute",
           "children_map", "install", "layer_of", "self_time"]
