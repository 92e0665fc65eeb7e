"""Spans around the program's public methods, for the traced run only.

:class:`Tracer` wraps methods at class level (and two module-level codec
functions) while a traced sample runs and restores them afterwards, so
untraced samples in the same process run the program unchanged.  Spans
are kept in memory as ``(label, start_ns, end_ns, parent)`` tuples and
folded into per-label totals after each sample; the last traced
sample's spans are written out when the run ends.

Spans are timed on ``refloop.clock_ns``, which leaves out the
reference chunks that interrupt a sample.  The root span is
``PipelineExecutor.execute``.  A layer's time is the
inclusive duration of its spans; ``service.self`` is the root's
duration minus its direct children, so self time plus the direct
children's times equals the execute wall exactly.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from typing import Any, Callable

from refloop import clock_ns

_MISSING = object()

ROOT = "execute"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.bytes = Counter()
        self.last_spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        label: str,
        classify: Callable[[Any], str] | None = None,
        measure: Callable[[tuple, Any], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *classify* may relabel a span from the call's result (``process``
        split by decision); *measure* returns bytes to count under the
        label (the codec)."""
        original = owner.__dict__.get(attr, _MISSING)
        func = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        sizes = self.bytes

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[index] = (label, start, clock_ns(), parent)
                stack.pop()
                raise
            end = clock_ns()
            stack.pop()
            spans[index] = (
                classify(result) if classify is not None else label,
                start,
                end,
                parent,
            )
            if measure is not None:
                sizes[label] += measure(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self, executor: Any) -> None:
        """Wrap every layer the executor's run can reach."""
        from repro.core.mvcc import VisibilityEngine
        from repro.core.protocol import DecisionStatus
        from repro.engine.pipeline import transport
        from repro.engine.pipeline.admission import AdmissionQueue
        from repro.storage.wal import DurableLog, UndoLog

        def decision(result: Any) -> str:
            if result.status is DecisionStatus.REJECT:
                return "core.reject"
            return "core.accept"

        self.wrap(type(executor), "execute", ROOT)
        self.wrap(AdmissionQueue, "pop", "admission.pop")
        scheduler = type(executor.scheduler)
        self.wrap(scheduler, "process", "core.process", classify=decision)
        self.wrap(scheduler, "restart", "core.restart")
        self.wrap(scheduler, "commit", "core.commit")
        self.wrap(VisibilityEngine, "resolve_read", "mvcc.resolve_read")
        database = type(executor.database)
        self.wrap(database, "read", "storage.apply")
        self.wrap(database, "write", "storage.apply")
        self.wrap(UndoLog, "rollback", "storage.undo")
        plane = executor.parallel_plane
        if plane is not None:
            self.wrap(type(plane), "run_window", "plane.run_window")
            self.wrap(transport.TcpTransport, "send", "transport.send")
            self.wrap(transport.TcpTransport, "recv", "transport.recv")
            self.wrap(
                transport,
                "encode_payload",
                "transport.codec",
                measure=lambda args, result: len(result),
            )
            self.wrap(
                transport,
                "decode_payload",
                "transport.codec",
                measure=lambda args, result: len(args[0]),
            )
            self.wrap(DurableLog, "append", "wal.append")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def fold(self) -> dict[str, Any]:
        """Per-label totals of the spans recorded since the last fold.

        Returns ``{"ms": {label: ms}, "calls": {label: n}, "bytes":
        {label: n}, "children_ms": {label: ms}}`` where ``ms`` holds
        inclusive times (``execute`` is the root's wall and
        ``service.self`` its self time) and ``children_ms`` the direct
        children of the root, which sum with ``service.self`` to
        ``execute``.  Clears the span buffer afterwards."""
        spans = [span for span in self.spans if span is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("fold() called while a traced call is open")
        ms: Counter = Counter()
        calls: Counter = Counter()
        children: Counter = Counter()
        roots = {
            index for index, span in enumerate(spans) if span[0] == ROOT
        }
        for label, start, end, parent in spans:
            duration = (end - start) / 1e6
            ms[label] += duration
            calls[label] += 1
            if parent in roots:
                children[label] += duration
        ms["service.self"] = ms[ROOT] - sum(children.values())
        folded = {
            "ms": dict(ms),
            "calls": dict(calls),
            "bytes": dict(self.bytes),
            "children_ms": dict(children),
        }
        self.last_spans = spans
        self.spans.clear()
        self.bytes.clear()
        return folded

    def dump(self, path: str) -> None:
        """Write the last folded sample's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for label, start, end, parent in self.last_spans:
                handle.write(
                    json.dumps(
                        {"name": label, "start_ns": start, "end_ns": end,
                         "parent": parent}
                    )
                    + "\n"
                )
