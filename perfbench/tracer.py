"""Spans around the calls into qvpmaps' layers, recorded from outside the
program.

While a Tracer is installed, each layer function is replaced by a wrapper
that records a span (name, start, end, parent, op id).  The modules use
``from .x import y``, so one function can be reachable under several module
attributes (``cli.grow_2d`` and ``manifold.grow_2d``); every attribute of a
qvpmaps module that holds the original function is replaced, and all of them
are restored on exit.  Methods of ``GenericMapParams`` are replaced on the
class.  A generator (``_candidate_pairs``) gets one span per resume, so its
self time is the time spent producing items, not the time its consumer spends
between them; the span sequence ends when the generator is exhausted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name, after=None):
        """Wrapper recording one span per call.

        ``after(counts, result, args)`` runs after the span has closed, so
        its own cost is not charged to the layer.  An exception counts as
        ``<name>.raised`` and propagates.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.close(idx)
                tracer.counts[name + ".raised"] += 1
                raise
            tracer.close(idx)
            if after is not None:
                after(tracer.counts, result, args)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """Wrapper recording one span per resume and counting ``<name>.items``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[name + ".items"] += 1
                yield item

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each target for the length of the block.

        ``targets`` holds (owner, attribute, wrapper factory) triples; the
        owner is a module or a class.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qvpmaps" or n.startswith("qvpmaps."))
        ]
        try:
            for owner, attr, make in targets:
                orig = getattr(owner, attr)
                wrapper = make(orig)
                holders = [(owner, attr)]
                for m in modules:
                    holders += [
                        (m, k) for k, v in vars(m).items()
                        if v is orig and (m, k) != (owner, attr)
                    ]
                for holder, key in holders:
                    self._patches.append((holder, key, orig))
                    setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, orig in reversed(self._patches):
                setattr(holder, key, orig)
            self._patches.clear()


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        ivs = sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children[i]
        )
        covered = 0.0
        lo = hi = None
        for a, b in ivs:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def busy_and_calls(spans):
    """Summed self time and span count per span name."""
    busy, calls = Counter(), Counter()
    for s, t in zip(spans, self_times(spans)):
        busy[s[NAME]] += t
        calls[s[NAME]] += 1
    return busy, calls
