"""Tracing from outside the program: wrap public module attributes in spans.

The tracer replaces a module attribute (for instance
``airgaplab.keyframe.frame_encode``) with a wrapper that records a span
around each call and then calls the original.  Callers that resolve the
attribute at call time, as ``harness.run_scenario`` does for its stages,
therefore pass through the wrapper; nothing under ``src/`` is edited.
Spans stay in memory until the run ends; ``restore`` puts every original
back and fails if any wrapper was replaced behind the tracer's back.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

ROOT = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note", "raised")

    def __init__(self, name: str, parent: int, op):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.note = None  # value from the wrapper's note function
        self.raised = ""  # exception class name, if the call raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Route calls of ``owner.attr`` through a span called `name`.

        `note(args, result)` runs after the span has ended and its value is
        kept on the span, so that what it computes is not timed.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._op is None:  # outside an op, e.g. the benchmark's own checks
                return original(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, self._op)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as one op: a root span that owns every span
        recorded while it runs."""
        root = Span(ROOT, -1, op_id)
        self.spans.append(root)
        self._stack.append(len(self.spans) - 1)
        self._op = op_id
        try:
            root.start = perf_counter()
            return fn(*args)
        finally:
            root.end = perf_counter()
            self._stack.pop()
            self._op = None

    def restore(self) -> None:
        """Put every wrapped attribute back; raise if one was not ours."""
        foreign = []
        for owner, attr, original, wrapper in reversed(self._patches):
            if getattr(owner, attr) is not wrapper:
                foreign.append(f"{owner.__name__}.{attr}")
            setattr(owner, attr, original)
        self._patches.clear()
        if foreign:
            raise RuntimeError(f"wrappers replaced during the traced run: {foreign}")

    def dump(self, path) -> None:
        """Write one JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")
