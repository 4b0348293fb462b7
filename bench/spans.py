"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end, parent span and operation id. Spans are
only recorded by the benchmark's own files, around each public call it makes
into a module (and around each optimizer start, see run.py); nothing inside
the package is instrumented. The first dotted component of a span name is the
package module it measures, so "procedures.build_procedure" belongs to the
"procedures" layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

# operation ids that are not workload ops
PROBE = -1
VERIFICATION = -2

NAME, START, END, PARENT, OP, FAILED = range(6)


def direct(name, fn, *args, **kwargs):
    """Untraced stand-in for Tracer.call: the same call without a span."""
    return fn(*args, **kwargs)


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Keeps every span in a list; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list = []
        self.op_id = PROBE
        self.active = False  # read by hooks that should record only during traced ops
        self._stack: list = []

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.spans[index][FAILED] = True
            raise
        finally:
            self.close(index)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, False])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def top_level_seconds(self) -> dict:
        """Sum of the durations of each op's top-level spans, by op id."""
        out: dict = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is None and s[OP] >= 0:
                out[s[OP]] += s[END] - s[START]
        return out

    def totals(self, keep) -> tuple:
        """Per span name and per module: [busy_s, self_s, calls, failed].

        Only spans whose op id satisfies ``keep`` are counted. A span's self
        time is its duration minus that of its direct children. A module's
        busy time and calls count its entry spans (those whose parent lies in
        another module or is absent); its self time sums the self time of all
        its spans.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        by_name: dict = defaultdict(lambda: [0.0, 0.0, 0, 0])
        by_module: dict = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for k, s in enumerate(self.spans):
            if not keep(s[OP]):
                continue
            dur = s[END] - s[START]
            row = by_name[s[NAME]]
            row[0] += dur
            row[1] += dur - child[k]
            row[2] += 1
            row[3] += int(s[FAILED])
            mod = module_of(s[NAME])
            mrow = by_module[mod]
            mrow[1] += dur - child[k]
            parent = s[PARENT]
            if parent is None or module_of(self.spans[parent][NAME]) != mod:
                mrow[0] += dur
                mrow[2] += 1
                mrow[3] += int(s[FAILED])
        return by_name, by_module

    def dump(self) -> list:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "op": s[OP], "failed": s[FAILED]}
            for s in self.spans
        ]
