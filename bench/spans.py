"""Spans and counters recorded from outside the program.

`Tracer.wrap` replaces a function by name in the module that calls it, so
calls made from one streetinv module into the next are timed without
touching the package. Spans (name, start, end, parent) and counters are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, observe=None, on_enter=None, on_exit=None) -> None:
        """Record a span named `name` around every call of `module.attr`.

        `observe(tracer, args, result)` runs after a call returns, outside
        the span; `on_enter()` and `on_exit()` run inside it at its edges.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if on_enter is not None:
                on_enter()
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if on_exit is not None:
                    on_exit()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[k]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[0]] += 1
        return dict(totals)


_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE


class RssPeak:
    """Peak resident memory between `start()` and `stop()`, sampled.

    A daemon thread reads the process RSS every 5 ms while a window
    is open; `stop()` returns the peak above the RSS at `start()`, in MB.
    Spans longer than a few thread switches (5 ms each) are covered.
    """

    def __init__(self, interval_s: float = 0.005):
        self._interval = interval_s
        self._open = threading.Event()
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._base = 0
        self._peak = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._halt.is_set():
            if self._open.wait(0.05):
                rss = rss_bytes()
                with self._lock:
                    if self._open.is_set():
                        self._peak = max(self._peak, rss)
                time.sleep(self._interval)

    def start(self) -> None:
        with self._lock:
            self._base = self._peak = rss_bytes()
            self._open.set()

    def stop(self) -> float:
        with self._lock:
            self._open.clear()
            return (max(self._peak, rss_bytes()) - self._base) / 2**20

    def close(self) -> None:
        self._halt.set()
        self._open.clear()
        self._thread.join(timeout=5.0)
