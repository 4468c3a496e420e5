"""In-memory spans recorded around calls into relcommit's layers.

A span is (id, parent id, operation id, name, arg, start ns, end ns).  Spans
are only recorded from the benchmark's own files: around each operation,
around each call into a layer, inside strategy objects handed to the engine,
and inside wrappers temporarily installed over a module's public functions.
A layer's self time is its spans' duration minus the time covered by their
child spans.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Spans kept for the output file; aggregates cover every span recorded.
KEEP_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.spans = []      # spans of the current batch, not yet aggregated
        self.kept = []       # raw spans retained for the output file
        self.dropped = 0
        self._stack = []
        self._next_id = 0
        self.op = -1
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.by_arg_ns = defaultdict(lambda: defaultdict(int))
        self.by_arg_count = defaultdict(lambda: defaultdict(int))

    def begin_op(self):
        self.op += 1

    def start(self, name: str, arg: int = -1) -> list:
        span = [self._next_id, self._stack[-1][0] if self._stack else -1,
                self.op, name, arg, perf_counter_ns(), 0]
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def stop(self, span: list):
        span[6] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, arg: int = -1, **kwargs):
        span = self.start(name, arg)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stop(span)

    def flush(self):
        """Fold the current batch of finished spans into the aggregates."""
        if self._stack:
            raise RuntimeError("flush with open spans")
        child = defaultdict(int)
        for sid, parent, _op, _name, _arg, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, _parent, _op, name, arg, t0, t1 in self.spans:
            dur = t1 - t0
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child.get(sid, 0)
            self.count[name] += 1
            if arg >= 0:
                self.by_arg_ns[name][arg] += dur
                self.by_arg_count[name][arg] += 1
        room = KEEP_SPANS - len(self.kept)
        self.kept.extend(self.spans[:max(room, 0)])
        self.dropped += max(len(self.spans) - max(room, 0), 0)
        self.spans = []

    def layer_self_ns(self) -> dict:
        """Self time per layer: the span name's prefix before the first dot."""
        out = defaultdict(int)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return dict(out)

    def write_to(self, fh):
        """One header line, then one JSON list per kept span."""
        fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "arg",
                                        "start_ns", "end_ns"],
                             "kept": len(self.kept),
                             "dropped": self.dropped}) + "\n")
        for span in self.kept:
            fh.write(json.dumps(span) + "\n")


class TracedStrategy:
    """A strategy object that records one span per call of the wrapped one."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def begin_session(self, params, prover_seed):
        begin = getattr(self._inner, "begin_session", None)
        if begin is not None:
            begin(params, prover_seed)

    def __call__(self, party, round_index, view):
        span = self._tracer.start(self._name, round_index)
        try:
            return self._inner(party, round_index, view)
        finally:
            self._tracer.stop(span)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        span = tracer.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.stop(span)
    traced.__wrapped__ = fn
    return traced


@contextmanager
def traced_module(tracer: Tracer, module, layer: str):
    """Wrap the module's public functions in spans named '<layer>.<name>'.

    The wrappers replace the module attributes, so calls that look the name
    up on the module at call time -- from other modules or from within the
    module itself -- are recorded.  The originals are restored on exit.
    """
    originals = {
        name: fn for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }
    for name, fn in originals.items():
        setattr(module, name, _wrap(tracer, f"{layer}.{name}", fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
