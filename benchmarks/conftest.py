"""Shared fixtures for the benchmark suite.

``REPRO_SCALE`` controls dataset sizes (default 0.02 keeps a full
``pytest benchmarks/ --benchmark-only`` run in minutes; 1.0 reproduces
the paper's sizes). Every benchmark prints the experiment's report table,
so run with ``-s`` to see the paper-vs-measured rows.

Headline benchmarks also emit perf-trajectory records via
:func:`perf_record` into ``BENCH_<area>.json`` (in the directory named by
``REPRO_BENCH_DIR``, default the working directory); CI diffs those files
against the committed baselines in ``benchmarks/baselines/`` with
``python -m repro.bench.perf compare``.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.bench.perf import record as perf_record  # noqa: F401  (re-export)

# The references that the ratio records time the fast paths against live
# in the repository's test package (``tests/reference``). ``python -m
# pytest`` from the repository root finds it on its own; a plain
# ``pytest benchmarks/`` starts with only ``benchmarks/`` on the path.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


@pytest.fixture(scope="session")
def repro_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.02"))


@pytest.fixture(scope="session")
def repro_seed() -> int:
    return int(os.environ.get("REPRO_SEED", "0"))


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer (the
    experiments are deterministic; repeated rounds only re-measure the
    same arithmetic)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
