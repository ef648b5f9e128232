"""The traced run's ledger: spans and counts at each layer boundary.

The benchmark records spans from its own files: :class:`Ledger` wraps the
public functions and methods each layer exposes, times every call into
them, and restores every wrapped attribute afterwards, so the untraced
runs execute the repository's code unmodified.

Two kinds of boundary are recorded:

* *spans* (``record=True``) -- coarse boundaries such as one SE solve or
  one stage-3 call.  Each is kept in memory as ``name, start, end,
  parent, op`` and written out as JSON lines when the run ends.
* *hot* boundaries (``record=False``) -- calls made up to millions of
  times per run (``SimulationEngine.step``, ``Telemetry.event``).  Only
  their call count, inclusive time, self time and the recorded span they
  ran under are kept, so the ledger's memory stays flat.

Self time is a frame's duration minus the time its child frames cover;
summed over every layer frame it partitions the traced wall, which is
what ``trace.coverage`` checks.  Calls counted with :meth:`count_method`
(``Network.send``) open no frame, so their time stays in the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The span the benchmark opens around each operation; not a repo layer.
OP_SPAN = "bench.op"


class Ledger:
    """Span stack, per-boundary aggregates and the patch/restore log."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: Recorded spans: ``[name, start, end, parent_index, op_id]``.
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive time of outermost frames per key (recursion-safe).
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: ``(key, enclosing recorded span name) -> (calls, inclusive s)``.
        self.under: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: List[list] = []  # frames: [key, child_time]
        self._span_stack: List[int] = []  # indices into self.spans
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # frames
    # ------------------------------------------------------------------ #
    def _timed(
        self,
        key: str,
        fn: Callable,
        record: bool,
        after: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        depth = self._depth
        calls = self.calls
        total = self.total
        self_time = self.self_time
        under = self.under
        clock = time.perf_counter
        t0 = self.t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            index = -1
            if record:
                index = len(spans)
                parent = span_stack[-1] if span_stack else -1
                spans.append([key, 0.0, 0.0, parent, self.op_id])
                span_stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] -= 1
                duration = end - start
                calls[key] += 1
                self_time[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    span_stack.pop()
                    spans[index][1] = start - t0
                    spans[index][2] = end - t0
                if not depth[key]:
                    total[key] += duration
                    enclosing = spans[span_stack[-1]][0] if span_stack else ""
                    cell = under[(key, enclosing)]
                    cell[0] += 1
                    cell[1] += duration
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def op(self, fn: Callable, *args, **kwargs):
        """Run one benchmark operation under its own op id and span."""
        self.op_id += 1
        return self._timed(OP_SPAN, fn, record=True)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, replacement)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        key: str,
        record: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``cls.attr`` (a plain function attribute)."""
        self._patch(cls, attr, self._timed(key, getattr(cls, attr), record, after))

    def wrap_function(
        self,
        module,
        attr: str,
        key: str,
        record: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Time a module-level function through every binding of it.

        ``from module import name`` copies the binding into the importer,
        so each ``repro.*`` module holding the same function object is
        patched too.
        """
        original = getattr(module, attr)
        wrapper = self._timed(key, original, record, after)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, binding, wrapper)

    def count_method(self, cls: type, attr: str, key: str) -> None:
        """Count calls of ``cls.attr`` without timing them."""
        fn = getattr(cls, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(cls, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, newest first, and verify it."""
        patches, self._patches = self._patches, []
        for owner, attr, original, own in reversed(patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for owner, attr, original, own in patches:
            current = vars(owner).get(attr) if own else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    @property
    def patched(self) -> int:
        """Number of attributes currently wrapped."""
        return len(self._patches)

    # ------------------------------------------------------------------ #
    # read-out
    # ------------------------------------------------------------------ #
    def t(self, key: str) -> float:
        """Inclusive seconds in outermost frames of ``key``."""
        return self.total.get(key, 0.0)

    def under_calls(self, key: str, enclosing: str) -> int:
        return int(self.under[(key, enclosing)][0]) if (key, enclosing) in self.under else 0

    def under_time(self, key: str, enclosing: str) -> float:
        return self.under[(key, enclosing)][1] if (key, enclosing) in self.under else 0.0

    def child_span_time(self, child: str, parent: str) -> float:
        """Seconds of recorded ``child`` spans whose parent span is ``parent``."""
        return sum(
            end - start
            for name, start, end, parent_index, _ in self.spans
            if name == child and parent_index >= 0 and self.spans[parent_index][0] == parent
        )

    def layer_self_time(self) -> Dict[str, float]:
        """Self seconds per layer (the key's first dotted component)."""
        layers: Dict[str, float] = defaultdict(float)
        for key, seconds in self.self_time.items():
            if key != OP_SPAN:
                layers[key.split(".", 1)[0]] += seconds
        return dict(layers)

    def write(self, path: str, summary: dict) -> None:
        """Write the spans, the hot-boundary aggregates and ``summary``."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"type": "span", "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
            for key in sorted(self.calls):
                handle.write(
                    json.dumps(
                        {"type": "boundary", "name": key, "calls": self.calls[key],
                         "total_s": self.total.get(key, 0.0),
                         "self_s": self.self_time.get(key, 0.0)}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"type": "summary", **summary}, sort_keys=True) + "\n")
