"""The benchmark's contract with the package: every name its tracer wraps exists,
and its traced counters count what the stages did.

`bench/run.py --trace 1` replaces streetinv functions by module and name
from outside the package, so renaming or removing one breaks the traced
benchmark, and changing what a stage returns can make its counters wrong.
These tests find both without running the benchmark.
"""

import importlib.util
import os
import types
from unittest import mock

from streetinv import Cluster, ObservationTable, RunConfig, default_scene_spec, generate_scene, pipeline

from conftest import oracle_associate, oracle_merge_undermatched, oracle_split_overmatched

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # Importing bench/run.py pins thread counts in the environment; undo it.
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


class NameCheck:
    """A tracer stand-in that only looks up what it is asked to wrap."""

    def __init__(self):
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def wrap(self, module, attr, name, **hooks):
        target = getattr(module, attr, None)
        (self.wrapped if callable(target) else self.missing).append(f"{module.__name__}.{attr}")


NO_RSS = types.SimpleNamespace(start=lambda: None, stop=lambda: 0.0)


def test_every_traced_name_resolves():
    tracer = NameCheck()
    _bench_module("run").install_tracer(tracer, NO_RSS, [])
    assert tracer.missing == []
    assert "streetinv.refinement.estimate_center" in tracer.wrapped
    assert "streetinv.pipeline.estimate_center" in tracer.wrapped


def test_traced_counters_match_the_oracles():
    observations, truth = generate_scene(default_scene_spec(seed=5, n_objects=30, clutter_rate=1.0, drop_prob=0.1))
    cfg = RunConfig()
    tracer = _bench_module("spans").Tracer()
    _bench_module("run").install_tracer(tracer, NO_RSS, [])
    try:
        pipeline.run_pipeline(cfg, observations, truth)
    finally:
        tracer.unwrap_all()

    table = ObservationTable.from_observations(observations)
    initial = [Cluster(k, members) for k, members in oracle_associate(observations, cfg)[1]]
    split = oracle_split_overmatched(initial, table, cfg)
    merged = oracle_merge_undermatched(split, table, cfg)
    final = oracle_split_overmatched(merged, table, cfg)

    def singletons(clusters):
        return sum(c.size == 1 for c in clusters)

    multi = {c.cluster_id: c.size for c in split if c.size >= 2}
    expected = {
        "association.initial_clusters": len(initial),
        "refinement.rays_freed": singletons(split) - singletons(initial) + singletons(final) - singletons(merged),
        "refinement.singletons_absorbed": sum(c.size - multi[c.cluster_id] for c in merged if c.cluster_id in multi),
        "refinement.pairs_merged": len(merged) - len({c.cluster_id for c in split} & {c.cluster_id for c in merged}),
    }
    assert {name: tracer.counters[name] for name in expected} == expected
    assert min(expected.values()) > 0
