"""In-memory spans: name, start, end and parent, written out when the run ends.

Spans are recorded by the benchmark around its own calls into the package's
public functions; nothing inside the package is instrumented.  A span's
layer is the first dotted component of its name (``primes.jacobi`` belongs
to ``primes``).  Self time is a span's duration minus the part covered by
its child spans.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, nid: int, t0: int, t1: int) -> None:
        """Close a leaf span measured by the caller."""
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.start.append(t0)
        self.end.append(t1)

    def call(self, nid: int, fn, *args):
        """fn(*args) inside a leaf span."""
        t0 = perf_counter_ns()
        out = fn(*args)
        t1 = perf_counter_ns()
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.start.append(t0)
        self.end.append(t1)
        return out

    @contextmanager
    def span(self, name: str):
        """A span that may contain others."""
        idx = len(self.start)
        self.name_id.append(self.id(name))
        self.parent.append(self._open[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.end[idx] = perf_counter_ns()

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return name_id, parent, dur

    def summary(self) -> dict[str, list[int]]:
        """name -> [span count, total ns, self ns]."""
        name_id, parent, dur = self.arrays()
        covered = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        k = len(self.names)
        counts = np.bincount(name_id, minlength=k)
        totals = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=own, minlength=k)
        return {
            name: [int(counts[i]), int(totals[i]), int(selfs[i])]
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """All spans as parallel arrays (.npz) with the name table as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name_id, parent, _ = self.arrays()
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=name_id,
            parent=parent,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
