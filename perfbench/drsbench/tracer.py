"""In-memory span tracer that wraps functions from the outside.

The tracer replaces an attribute (a module-level function, or a method on
a class) with a wrapper that records one span per call: its name, start
and end on ``time.perf_counter``, and the span that was open when it
started.  Spans live in flat arrays until the run ends, so a traced pass
with a million spans costs tens of megabytes, not a Python object per
span.  Patching happens on the attribute the caller looks up: drsplit
binds names at import (``from .qp import estimate_eta``), so wrapping
``drsplit.qp.estimate_eta`` does not reach ``drsplit.baselines.estimate_eta``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter

__all__ = ["SpanStat", "Tracer"]


@dataclass(frozen=True)
class SpanStat:
    calls: int
    total_s: float   # sum of span durations
    self_s: float    # total_s minus the time covered by direct child spans


class Tracer:
    """Span recorder with reversible attribute patches.

    Use as a context manager so every patch is undone even when the
    traced code raises::

        with Tracer() as tr:
            tr.patch(drsplit.qp, "estimate_eta", "qp.estimate_eta")
            ...
        tr.summary()
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kept: dict[str, list] = {}
        self.raised: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.kept[name] = []
            self.raised[name] = 0
        return self._ids[name]

    def wrap(self, name: str, fn, keep=None):
        """Return fn wrapped in a span; keep(out), if given, is stored."""
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, kept, raised = self._stack, self.kept[name], self.raised

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter()
                stack.pop()
                raised[name] += 1
                raise
            end[idx] = perf_counter()
            stack.pop()
            if keep is not None:
                kept.append(keep(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, keep=None) -> None:
        """Replace owner.attr by a traced wrapper until restore()."""
        original = vars(owner)[attr]
        if hasattr(original, "__wrapped__"):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep))

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called name, in call order."""
        nid = self._ids.get(name)
        return [e - s for i, s, e in zip(self.name_id, self.start, self.end)
                if i == nid]

    def summary(self) -> dict[str, SpanStat]:
        """Calls, total and self time per span name."""
        if len(self._stack) != 1:
            raise RuntimeError("summary() called with spans still open")
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                child[p] += e - s
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for idx, (nid, s, e) in enumerate(zip(self.name_id, self.start,
                                              self.end)):
            calls[nid] += 1
            total[nid] += e - s
            own[nid] += e - s - child[idx]
        return {name: SpanStat(calls[i], total[i], own[i])
                for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write every span to an .npz file (names, name_id, parent, start, end)."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
