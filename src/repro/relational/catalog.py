"""Catalog (named tables + their FDs/stats) and the Database facade.

The catalog is the bridge the paper assumes: "functional dependencies
(such as primary and foreign key relationships from the data schema) and
table statistics ... are readily available in many databases" (§1). The
:class:`Database` facade wires catalog + SQL front-end + LLM runtime into
one entry point:

    db = Database(runtime=LLMRuntime(client=...))
    db.register("movies", movies_table, fds=movies_fds)
    result = db.sql("SELECT movietitle FROM movies WHERE LLM('...', ...) = 'Yes'")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.fd import FunctionalDependencies
from repro.core.stats import TableStats
from repro.errors import SchemaError
from repro.relational.expressions import ExecutionContext
from repro.relational.llm_functions import AnswerMemoStore, LLMRuntime
from repro.relational.optimizer import (
    DEFAULT_OPTIMIZER_CONFIG,
    OptimizerConfig,
    explain_plan,
    optimize_plan,
)
from repro.relational.table import Table


@dataclass
class CatalogEntry:
    table: Table
    fds: FunctionalDependencies
    stats: TableStats


class Catalog:
    """Named tables with attached metadata."""

    def __init__(self):
        self._entries: Dict[str, CatalogEntry] = {}

    def register(
        self,
        name: str,
        table: Table,
        fds: Optional[FunctionalDependencies] = None,
    ) -> None:
        self._entries[name.lower()] = CatalogEntry(
            table=table,
            fds=fds or FunctionalDependencies.empty(),
            stats=TableStats.compute(table.to_reorder_table()),
        )

    def _entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown table {name!r}; registered: {sorted(self._entries)}"
            ) from None

    def get_table(self, name: str) -> Table:
        return self._entry(name).table

    def get_fds(self, name: str) -> FunctionalDependencies:
        return self._entry(name).fds

    def get_stats(self, name: str) -> TableStats:
        return self._entry(name).stats


class Database:
    """SQL-facing facade over the catalog, an LLM runtime, and the SQL
    optimizer (``optimizer_config`` defaults to every rewrite on; pass
    ``OptimizerConfig(enabled=False)`` for the unoptimized reference
    plans).

    The cross-call LLM answer memo is **database-scoped**: the session
    owns one bounded :class:`AnswerMemoStore` (``answer_memo``), adopted
    by / from the runtime, so every query in the session — and any other
    runtime the caller attaches to this store — shares cached answers and
    one set of hit/miss/eviction counters.
    """

    def __init__(
        self,
        runtime: Optional[LLMRuntime] = None,
        optimizer_config: OptimizerConfig = DEFAULT_OPTIMIZER_CONFIG,
        answer_memo: Optional[AnswerMemoStore] = None,
    ):
        self.catalog = Catalog()
        self.runtime = runtime or LLMRuntime()
        if answer_memo is not None:
            # An explicit store wins: the runtime joins the session scope.
            self.answer_memo = answer_memo
            self.runtime.memo_store = answer_memo
        else:
            # Adopt the runtime's store as the session store, so a caller
            # who pre-built a runtime keeps any answers it already cached.
            self.answer_memo = self.runtime.memo_store
        self.optimizer_config = optimizer_config

    def register(
        self,
        name: str,
        table: Table,
        fds: Optional[FunctionalDependencies] = None,
    ) -> None:
        self.catalog.register(name, table, fds=fds)

    def context(self, fds: Optional[FunctionalDependencies] = None) -> ExecutionContext:
        return ExecutionContext(
            llm_runtime=self.runtime, catalog=self.catalog, fds=fds
        )

    def sql(self, query: str) -> Table:
        """Parse, plan, optimize, and execute a SQL string.

        The FDs of every catalog table the plan scans are merged and made
        available to LLM operators via the execution context (the runtime's
        own ``fds``, if set, take precedence)."""
        from repro.relational.sql import collect_scan_names, plan_sql

        plan = plan_sql(query)
        merged = FunctionalDependencies.empty()
        for name in collect_scan_names(plan):
            merged = merged.merge(self.catalog.get_fds(name))
        plan = optimize_plan(
            plan, catalog=self.catalog, config=self.optimizer_config
        ).plan
        return plan.execute(self.context(fds=merged if len(merged) else None))

    def explain(self, query: str) -> str:
        """Render the optimized plan for ``query`` without executing it:
        the tree, the rewrites that fired, and the estimated LLM prompt
        tokens per operator. Unknown tables raise
        :class:`~repro.errors.SchemaError` up front, exactly as execution
        would — an EXPLAIN of an unresolvable plan is meaningless."""
        from repro.relational.sql import collect_scan_names, plan_sql

        plan = plan_sql(query)
        for name in collect_scan_names(plan):
            self.catalog.get_table(name)  # raises SchemaError when unknown
        return explain_plan(
            plan, catalog=self.catalog, config=self.optimizer_config
        )
