"""Spans recorded from outside the program, and the gateway probe.

The benchmark never edits the package: it opens a span around each call it
makes into a layer's public functions, wraps module functions the program
calls in spans for the duration of a trial, and wraps the backend the program
builds in a :class:`GatewayProbe`. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from tsgdm.gateway import CallCounter

# Span fields, stored as lists because a traced trial opens thousands.
_ID, _NAME, _PARENT, _TRIAL, _START, _END = range(6)


class Tracer:
    """In-memory spans: name, start, end, parent span and trial id.

    Single-threaded: a span opened inside another becomes its child.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.trial: str | None = None

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, self._open[-1] if self._open else None, self.trial, perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[_ID])
        try:
            yield record[_ID]
        finally:
            self._open.pop()
            record[_END] = perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the innermost open one."""
        self.spans.append([len(self.spans), name, self._open[-1] if self._open else None, self.trial, start, end])

    def self_times(self) -> dict[int, float]:
        """Each span's time minus the time its direct children cover."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s[_PARENT] is not None:
                covered[s[_PARENT]] = covered.get(s[_PARENT], 0.0) + s[_END] - s[_START]
        return {s[_ID]: s[_END] - s[_START] - covered.get(s[_ID], 0.0) for s in self.spans}

    def durations(self, name: str) -> list[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def write(self, path: Path) -> None:
        keys = ("id", "name", "parent", "trial", "start", "end")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def phase_of(tag: str) -> str:
    """The call's phase: the tag prefix before the first ``/``."""
    return tag.split("/", 1)[0]


class GatewayProbe(CallCounter):
    """The package's call and token counter, plus a trace.

    With a tracer it also records one span per call, named after the call's
    phase, and keeps every (request, result, start, end) in ``log``.
    """

    def __init__(self, inner, tracer: Tracer | None = None) -> None:
        super().__init__(inner)
        self.tracer = tracer
        self.log: list[tuple] = []

    def complete(self, request):
        if self.tracer is None:
            return super().complete(request)
        start = perf_counter()
        result = super().complete(request)
        end = perf_counter()
        self.tracer.add(phase_of(request.request_tag), start, end)
        self.log.append((request, result, start, end))
        return result


@contextmanager
def patched(owner, name: str, replacement):
    """Set ``owner.name`` to ``replacement`` for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def spanned(tracer: Tracer, name: str, fn, span_ids: list[int] | None = None):
    """``fn`` with each call inside a span ``name``, whose id goes to ``span_ids``."""

    def call(*args, **kwargs):
        with tracer.span(name) as span_id:
            if span_ids is not None:
                span_ids.append(span_id)
            return fn(*args, **kwargs)

    return call
