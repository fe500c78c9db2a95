"""The benchmark's contract with the package: every name its tracer wraps exists.

`bench/run.py --trace 1` replaces streetinv functions by module and name
from outside the package, so renaming or removing one breaks the traced
benchmark. This test finds that without running it.
"""

import importlib.util
import os
import types
from unittest import mock

BENCH_RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py")


class NameCheck:
    """A tracer stand-in that only looks up what it is asked to wrap."""

    def __init__(self):
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def wrap(self, module, attr, name, **hooks):
        target = getattr(module, attr, None)
        (self.wrapped if callable(target) else self.missing).append(f"{module.__name__}.{attr}")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench_run = importlib.util.module_from_spec(spec)
    # Importing bench/run.py pins thread counts in the environment; undo it.
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(bench_run)
    tracer = NameCheck()
    rss = types.SimpleNamespace(start=lambda: None, stop=lambda: 0.0)
    bench_run.install_tracer(tracer, rss, [])
    assert tracer.missing == []
    assert "streetinv.refinement.estimate_center" in tracer.wrapped
    assert "streetinv.pipeline.estimate_center" in tracer.wrapped
