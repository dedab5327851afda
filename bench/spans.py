"""In-memory spans and counters around the benchmark's calls into pndislo.

A span is (name, start, end, parent, task).  The tracer keeps them in a list
and the worker writes them out when the run ends; nothing is written while
tasks are being timed.  `NullTracer` has the same interface and records
nothing, so untraced and traced runs execute the same task code.
"""

import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def begin_task(self, task_id):
        pass

    def end_task(self):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []            # [name, start, end, parent, task]
        self.counts = defaultdict(int)
        self._task = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._task])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def count(self, name, n=1):
        self.counts[name] += n

    def begin_task(self, task_id):
        self._task = task_id
        self._open("task")

    def end_task(self):
        while self._stack:
            self._close()
        self._task = None

    def busy(self):
        """Summed duration per span name, excluding the task roots."""
        out = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            if name != "task":
                out[name] += t1 - t0
        return dict(out)
