"""In-memory spans for the traced benchmark pass.

A span records a name, a start and an end (seconds since the tracer was
made) and the span that was open when it began.  Spans open around the
benchmark's own calls into qctrans, and around module functions that qctrans
calls internally.  The latter are reached by replacing the module attribute
that the caller looks up, for the length of one traced pass, so the program
itself carries no tracing code.  The replaced functions all run on the
calling thread (the pool threads of ``run_ensemble`` only integrate), so one
stack of open spans suffices.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter() - self.t0

    def patch(self, module, attr, name, observe=None):
        """Trace calls to ``module.attr``; ``observe(args, result)`` sees each call."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def total(self, name, parent=None):
        """Summed duration of the spans called ``name`` (under a ``parent`` name)."""
        return sum((s["end"] - s["start"] for s in self.spans
                    if s["name"] == name and (parent is None or self._parent_name(s) == parent)), 0.0)

    def self_time(self, name):
        """Summed duration of the ``name`` spans minus what their children cover."""
        own = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in own)
        return self.total(name) - children

    def _parent_name(self, span):
        return None if span["parent"] is None else self.spans[span["parent"]]["name"]
