"""Mini relational engine hosting the paper's ``LLM()`` operator.

The paper implements its operator as a PySpark UDF; this package provides
the equivalent substrate: a column-oriented :class:`~repro.relational.table.Table`,
expression evaluation, physical operators (scan/filter/project/join/
aggregate/limit), a catalog with FDs and statistics, an SQL-subset
front-end able to parse the paper's example queries, and the LLM operator
itself — which is where request reordering plugs into query execution.
"""

from repro.relational.catalog import Catalog, Database
from repro.relational.expressions import (
    And,
    Cmp,
    Col,
    Lit,
    LLMExpr,
    Not,
    Or,
)
from repro.relational.llm_functions import AnswerMemoStore, LLMCallStats, LLMRuntime
from repro.relational.optimizer import (
    OptimizerConfig,
    OptimizedPlan,
    explain_plan,
    optimize_plan,
)
from repro.relational.table import Table

__all__ = [
    "Table",
    "Catalog",
    "Database",
    "Col",
    "Lit",
    "Cmp",
    "And",
    "Or",
    "Not",
    "LLMExpr",
    "LLMRuntime",
    "LLMCallStats",
    "AnswerMemoStore",
    "OptimizerConfig",
    "OptimizedPlan",
    "optimize_plan",
    "explain_plan",
]
