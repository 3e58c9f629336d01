"""Reference implementations the equivalence suites compare against.

Each is the plainest correct version of a shipped fast path, kept here
rather than in ``src/repro`` because only tests and the benchmarks'
ratio records run them:

* :class:`NodeRadixCache` (``tests/reference/radix.py``) — the radix
  cache as a per-node object tree, for :class:`repro.llm.radix.
  RadixPrefixCache`;
* :class:`StepwiseEngine` / :func:`stepwise_engine`
  (``tests/reference/engine.py``) — the per-token replay loop on the node
  tree, for :class:`repro.llm.engine.SimulatedLLMEngine`;
* :class:`TokenSumAdmission` (``tests/reference/engine.py``) — admission
  counted in tokens, for the engine's paged admission at
  ``block_tokens=1``;
* :class:`~tests.reference.blocks.IdsBlockManager`
  (``tests/reference/blocks.py``) — the block pool as ids on a free stack
  with a refcount dict, for the ledger of counts
  :class:`repro.llm.blocks.BlockManager`.

The suites parametrize over names: :data:`RADIX_CACHES` maps ``"flat"``
(shipped) and ``"node"`` to cache classes, :data:`ENGINES` maps
``"vector"`` (shipped) and ``"stepwise"`` to engine constructors taking
``(model, cluster, config)``, and :data:`TOKEN_SUM_ENGINES` maps the same
two names to their token-sum twins.
"""

from repro.llm.engine import SimulatedLLMEngine
from repro.llm.radix import RadixPrefixCache

from .engine import (
    StepwiseEngine,
    TokenSumAdmission,
    TokenSumEngine,
    stepwise_engine,
    token_sum_stepwise_engine,
)
from .radix import NodeRadixCache

RADIX_CACHES = {"flat": RadixPrefixCache, "node": NodeRadixCache}
ENGINES = {"vector": SimulatedLLMEngine, "stepwise": stepwise_engine}
TOKEN_SUM_ENGINES = {"vector": TokenSumEngine, "stepwise": token_sum_stepwise_engine}

__all__ = [
    "ENGINES",
    "NodeRadixCache",
    "RADIX_CACHES",
    "StepwiseEngine",
    "TOKEN_SUM_ENGINES",
    "TokenSumAdmission",
    "TokenSumEngine",
    "stepwise_engine",
    "token_sum_stepwise_engine",
]
