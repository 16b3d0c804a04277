"""Benchmark harness configuration.

Run with ``pytest benchmarks/ --benchmark-disable`` (shape checks only)
or ``--benchmark-only`` (timed).  Every benchmark regenerates one of
the paper's tables or figures (scaled down so a full sweep stays
tractable) and asserts the *shape* the paper reports — band ordering,
accuracy knees, noise degradation, multi-bit speedup — rather than
absolute numbers, per DESIGN.md's substitution statement.
"""

from __future__ import annotations

import pytest

from repro.experiments import REGISTRY


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments are heavy)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0,
        )

    return run


@pytest.fixture
def run_driver(once):
    """Bench one registered driver: ``build_spec(**kwargs)``, then run."""

    def run(name, **kwargs):
        info = REGISTRY[name]
        return once(info.run, info.build_spec(**kwargs))

    return run
