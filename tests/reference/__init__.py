"""Reference implementations the equivalence suites compare against.

Each is the plainest correct version of a shipped fast path, kept here
rather than in ``src/repro`` because only tests and the benchmarks'
ratio records run them:

* :class:`NodeRadixCache` (``tests/reference/radix.py``) — the radix
  cache as a per-node object tree, for :class:`repro.llm.radix.
  RadixPrefixCache`;
* :class:`StepwiseEngine` / :func:`stepwise_engine`
  (``tests/reference/engine.py``) — the per-token replay loop on the node
  tree, for :class:`repro.llm.engine.SimulatedLLMEngine`.

The suites parametrize over names: :data:`RADIX_CACHES` maps ``"flat"``
(shipped) and ``"node"`` to cache classes, :data:`ENGINES` maps
``"vector"`` (shipped) and ``"stepwise"`` to engine constructors taking
``(model, cluster, config)``.
"""

from repro.llm.engine import SimulatedLLMEngine
from repro.llm.radix import RadixPrefixCache

from .engine import StepwiseEngine, stepwise_engine
from .radix import NodeRadixCache

RADIX_CACHES = {"flat": RadixPrefixCache, "node": NodeRadixCache}
ENGINES = {"vector": SimulatedLLMEngine, "stepwise": stepwise_engine}

__all__ = [
    "ENGINES",
    "NodeRadixCache",
    "RADIX_CACHES",
    "StepwiseEngine",
    "stepwise_engine",
]
