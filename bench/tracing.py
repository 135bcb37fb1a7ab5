"""Spans around greenlb's public names, recorded from outside the program.

A :class:`Tracer` replaces module attributes (or class methods) with wrappers
that record one span per call: layer id, start and end in ns, and the part of
the span covered by its direct child spans.  A layer's self time is its span
minus that child time.  Spans stay in memory and are written out at the end.

Only the process that installs a tracer holds wrappers.  Pool workers forked
from it inherit the wrappers; each worker appends its spans to a file in the
output directory whenever its outermost span closes (one sweep task), and the
parent collects those files after the sweep.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

FIELDS = 4  # layer, start_ns, end_ns, child_ns


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.out_dir.glob("spans-*.pkl"):
            stale.unlink()
        self.layers: list[str] = []
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_worker = False
        self._installed: list[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = array("q")
        self.counts = Counter()
        self._stack = []
        self._in_worker = True

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper for ``layer``.

        ``count(counts, args, result)`` may add counters from a call's
        arguments and return value.
        """
        original = getattr(owner, attr)
        layer_id = len(self.layers)
        self.layers.append(layer)
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                self.spans.extend((layer_id, start, end, child))
            if count is not None:
                count(self.counts, args, result)
            if self._in_worker and not stack:
                self._flush()
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.pkl"
        with open(path, "ab") as fh:
            pickle.dump((self.spans.tobytes(), dict(self.counts)), fh)
        self.spans = array("q")
        self.counts = Counter()

    def collect_workers(self) -> None:
        """Move the spans pool workers wrote into this process's store."""
        for path in sorted(self.out_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        raw, counts = pickle.load(fh)
                    except EOFError:
                        break
                    self.spans.frombytes(raw)
                    self.counts.update(counts)
            path.unlink()

    def table(self) -> np.ndarray:
        """All spans as an (n, 4) int64 array: layer, start, end, child."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per layer: (calls, span ns, self ns)."""
        t = self.table()
        out = {}
        for layer_id, name in enumerate(self.layers):
            rows = t[t[:, 0] == layer_id]
            span = int((rows[:, 2] - rows[:, 1]).sum())
            out[name] = (len(rows), span, span - int(rows[:, 3].sum()))
        return out

    def write(self, path: Path) -> None:
        t = self.table()
        np.savez(path, layers=np.array(self.layers), layer=t[:, 0], start_ns=t[:, 1],
                 end_ns=t[:, 2], child_ns=t[:, 3])
