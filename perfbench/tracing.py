"""In-memory spans recorded around calls into the program's layers.

The program's modules import their collaborators by name
(``from .sparse import spmv``), so a wrapper on ``sparse.spmv`` alone would
never be called. :meth:`Tracer.wrap` therefore rebinds the name in the
module that makes the call. Spans are kept in a list and written out once,
when the run ends.
"""

import time
from collections import defaultdict


class Tracer:
    """Records one span per wrapped call: name, parent, start and end.

    A span is the list ``[name, parent_index, start, end, result]``; the
    result is kept only for spans opened with ``keep_result``. Calls are
    single threaded, so the open spans form a stack and every span's
    children lie inside it without overlapping.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._restore = []

    def call(self, name, fn, *args, keep_result=False, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            span[2] = start
            self._stack.pop()
        if keep_result:
            span[4] = result
        return result

    def wrap(self, module, attr, name, count=None, keep_result=False):
        """Rebind ``module.attr`` so each call through it records a span.

        ``count(counters, args, result)`` adds work counts measured at the
        same boundary.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, keep_result=keep_result, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def reset(self):
        """Drop the spans and counts recorded so far (after a warm-up)."""
        self.spans.clear()
        self.counters.clear()

    def unwrap(self):
        """Put every rebound name back."""
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def children_of(self, index):
        """Indices of the direct children of span ``index``.

        A span's descendants are recorded right after it, so the scan stops
        at the first span that is not one of them.
        """
        kids = []
        depth = {index}
        for child in range(index + 1, len(self.spans)):
            parent = self.spans[child][1]
            if parent not in depth:
                break
            depth.add(child)
            if parent == index:
                kids.append(child)
        return kids

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its direct children
        cover.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, _parent, start, end, _result) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return out

    def write(self, path):
        """Write the spans as CSV: index, name, parent, start and end in seconds."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for index, (name, parent, start, end, _result) in enumerate(self.spans):
                fh.write(f"{index},{name},{parent},{start - origin:.9f},{end - origin:.9f}\n")
