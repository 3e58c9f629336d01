"""LLM-aware SQL optimizer: plan rewrites between planner and execution.

The planner (:mod:`repro.relational.sql.planner`) is deliberately
rule-based and order-preserving; this module is where the paper's
SQL-level optimizations (§3/§5) live. All rewrites are
semantics-preserving — they change *which rows reach an LLM operator and
in what order LLM predicates run*, never the query result:

``split_where_conjuncts``
    ``Filter(a AND b AND ...)`` becomes a chain of single-conjunct
    filters, so each predicate can be placed independently.
``pushdown_non_llm_filters``
    Conjuncts that touch no ``LLM(...)`` expression are evaluated first
    (below every LLM filter): cheap relational predicates shrink the
    table before any model call is issued.
``reorder_llm_predicates``
    Multiple LLM conjuncts run cheapest-expected-cost first, ranked by
    ``estimated prompt tokens per row x estimated selectivity`` (stats
    from the catalog when available; stable ties keep query order).
``push_limit_below_project``
    ``LIMIT`` moves below a row-wise ``Project`` so
    ``SELECT LLM(...) ... LIMIT n`` only calls the model on the ``n``
    surviving rows. (Every Project is deterministic row-wise here:
    aggregates are lifted into ``Aggregate`` by the planner.)

The unoptimized plan is kept as the equivalence oracle:
``OptimizerConfig(enabled=False)`` disables every rewrite, and
``LLMRuntime(dedup=False, memo=False)`` the runtime-level input dedup /
answer memo in :class:`~repro.relational.llm_functions.LLMRuntime`
(``tests/relational/test_optimizer_equivalence.py``).

``explain_plan`` / ``Database.explain`` render the optimized tree with
the rewrites that fired and the estimated LLM prompt tokens per operator.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import TableStats
from repro.llm.costmodel import estimate_tokens
from repro.llm.prompts import SYSTEM_TEMPLATE
from repro.relational.expressions import (
    And,
    Cmp,
    Col,
    Expr,
    IsNotNull,
    Lit,
    LLMExpr,
    Not,
    Or,
    iter_sub_expressions,
)
from repro.relational.operators import (
    Aggregate,
    CatalogScan,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    TableSource,
)

#: JSON punctuation per serialized cell: quotes, colon, comma, spaces.
_CELL_OVERHEAD_CHARS = 8.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Switches and estimation constants for the optimizer.

    ``enabled=False`` keeps the unoptimized plan (the oracle). The
    selectivity defaults are deliberately neutral (0.5): without
    per-predicate feedback the ranking degenerates to
    cheapest-tokens-first, which is the safe ordering when every LLM
    predicate is equally likely to pass rows.
    """

    enabled: bool = True
    split_conjuncts: bool = True
    pushdown_non_llm: bool = True
    reorder_llm_predicates: bool = True
    limit_pushdown: bool = True
    #: Estimated fraction of rows an LLM predicate keeps.
    llm_selectivity: float = 0.5
    #: Estimated fraction of rows a non-LLM predicate keeps.
    non_llm_selectivity: float = 0.5
    #: Fallback average cell width when no column statistics are known.
    default_cell_chars: float = 48.0
    #: Fallback field count for ``LLM(..., *)`` with no known schema.
    default_n_fields: int = 6


DEFAULT_OPTIMIZER_CONFIG = OptimizerConfig()


# --------------------------------------------------------------- expression utils
def contains_llm(expr: Expr) -> bool:
    """True when ``expr`` contains an ``LLM(...)`` call anywhere."""
    if isinstance(expr, LLMExpr):
        return True
    return any(contains_llm(sub) for sub in iter_sub_expressions(expr))


def find_llm_exprs(expr: Expr) -> List[LLMExpr]:
    """All ``LLM(...)`` calls inside ``expr``, in traversal order."""
    if isinstance(expr, LLMExpr):
        return [expr]
    out: List[LLMExpr] = []
    for sub in iter_sub_expressions(expr):
        out.extend(find_llm_exprs(sub))
    return out


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten an ``And`` tree into its conjuncts, left to right."""
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def format_expr(expr: Expr) -> str:
    """SQL-ish one-line rendering of an expression for explain output."""
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Lit):
        return f"'{expr.value}'" if isinstance(expr.value, str) else str(expr.value)
    if isinstance(expr, LLMExpr):
        q = expr.query if len(expr.query) <= 40 else expr.query[:37] + "..."
        return f"LLM('{q}', {', '.join(expr.fields)})"
    if isinstance(expr, Cmp):
        return f"{format_expr(expr.left)} {expr.op} {format_expr(expr.right)}"
    if isinstance(expr, And):
        return f"({format_expr(expr.left)} AND {format_expr(expr.right)})"
    if isinstance(expr, Or):
        return f"({format_expr(expr.left)} OR {format_expr(expr.right)})"
    if isinstance(expr, Not):
        return f"NOT {format_expr(expr.child)}"
    if isinstance(expr, IsNotNull):
        return f"{format_expr(expr.child)} IS NOT NULL"
    fn = getattr(expr, "fn", None)
    arg = getattr(expr, "arg", None)
    if fn is not None and isinstance(arg, Expr):  # AggCall without importing sql.nodes
        return f"{fn}({format_expr(arg)})"
    return expr.__class__.__name__


# --------------------------------------------------------------- cost estimation
def _collect_source_stats(
    node: PlanNode, catalog: Optional[Any]
) -> Tuple[Optional[int], Dict[str, float]]:
    """(row estimate, field -> avg chars) gathered from the scans below
    ``node``. Catalog stats are precomputed at ``register`` time; bare
    :class:`TableSource` nodes are measured on the spot. Joins of several
    scans keep the per-field maxima and the larger row count — a coarse
    but monotone estimate (inner-join fanout is unknowable here)."""
    rows: Optional[int] = None
    avg: Dict[str, float] = {}
    stack: List[PlanNode] = [node]
    while stack:
        cur = stack.pop()
        stats: Optional[TableStats] = None
        if isinstance(cur, CatalogScan) and catalog is not None:
            get_stats = getattr(catalog, "get_stats", None)
            if get_stats is not None:
                try:
                    stats = get_stats(cur.name)
                except Exception:
                    stats = None
        elif isinstance(cur, TableSource):
            stats = TableStats.compute(cur.table.to_reorder_table())
        if stats is not None:
            rows = stats.n_rows if rows is None else max(rows, stats.n_rows)
            for col in stats.columns:
                avg[col.name] = max(avg.get(col.name, 0.0), col.avg_len)
        for attr in ("child", "left", "right"):
            sub = getattr(cur, attr, None)
            if isinstance(sub, PlanNode):
                stack.append(sub)
    return rows, avg


def estimate_llm_tokens_per_row(
    expr: LLMExpr,
    field_avg_chars: Optional[Dict[str, float]] = None,
    config: OptimizerConfig = DEFAULT_OPTIMIZER_CONFIG,
) -> float:
    """Estimated prompt tokens for one row of ``expr``.

    Prompt = fixed header (system template + query) + one JSON cell per
    touched field; cell width comes from column statistics when known,
    else ``config.default_cell_chars``. Chars convert to tokens via
    :func:`repro.llm.costmodel.estimate_tokens`.
    """
    avg = field_avg_chars or {}
    chars = float(len(SYSTEM_TEMPLATE.format(query=expr.query)))
    named = [f for f in expr.fields if f != "*" and not f.endswith(".*")]
    has_star = len(named) < len(expr.fields)
    if has_star:
        if avg:
            named = list(dict.fromkeys(list(avg) + named))
        else:
            chars += config.default_n_fields * (
                config.default_cell_chars + _CELL_OVERHEAD_CHARS
            )
    for f in dict.fromkeys(named):
        bare = f.split(".", 1)[1] if "." in f else f
        width = avg.get(f, avg.get(bare, config.default_cell_chars))
        chars += width + len(bare) + _CELL_OVERHEAD_CHARS
    return float(estimate_tokens(chars))


def predicate_rank(
    pred: Expr,
    field_avg_chars: Optional[Dict[str, float]] = None,
    config: OptimizerConfig = DEFAULT_OPTIMIZER_CONFIG,
) -> float:
    """Ordering key for an LLM conjunct: estimated prompt tokens per row
    (summed over the LLM calls it contains) x estimated selectivity.
    Lower rank runs first."""
    tokens = sum(
        estimate_llm_tokens_per_row(e, field_avg_chars, config)
        for e in find_llm_exprs(pred)
    )
    return tokens * config.llm_selectivity


# ------------------------------------------------------------------- optimizer
@dataclass
class OptimizedPlan:
    """The rewritten tree plus what the optimizer did to it.

    ``node_notes`` is keyed by ``id(node)`` — valid for the lifetime of
    ``plan`` (this object keeps the tree alive).
    """

    plan: PlanNode
    fired: List[str] = field(default_factory=list)
    node_notes: Dict[int, str] = field(default_factory=dict)
    enabled: bool = True

    def note(self, node: PlanNode) -> Optional[str]:
        return self.node_notes.get(id(node))


def _with_child(node: PlanNode, **replacements: PlanNode) -> PlanNode:
    """Shallow-copy ``node`` with some children swapped (works for plain
    classes like the planner's ``_Passthrough`` as well as dataclasses)."""
    new = copy.copy(node)
    for attr, sub in replacements.items():
        setattr(new, attr, sub)
    return new


def optimize_plan(
    plan: PlanNode,
    catalog: Optional[Any] = None,
    config: OptimizerConfig = DEFAULT_OPTIMIZER_CONFIG,
) -> OptimizedPlan:
    """Apply the enabled rewrites to ``plan`` (the input tree is not
    mutated). Returns the rewritten tree and a report of what fired."""
    if not config.enabled:
        return OptimizedPlan(plan=plan, enabled=False)
    out = OptimizedPlan(plan=plan)
    out.plan = _rewrite(plan, catalog, config, out)
    out.fired = list(dict.fromkeys(out.fired))
    return out


def _rewrite(
    node: PlanNode, catalog: Optional[Any], config: OptimizerConfig, out: OptimizedPlan
) -> PlanNode:
    if isinstance(node, Filter):
        return _rewrite_filter_chain(node, catalog, config, out)
    if isinstance(node, Limit):
        child = _rewrite(node.child, catalog, config, out)
        if config.limit_pushdown and isinstance(child, Project):
            inner = Limit(child=child.child, n=node.n)
            new_project = _with_child(child, child=inner)
            out.fired.append("push_limit_below_project")
            note = "LIMIT pushed below row-wise Project"
            if any(contains_llm(e) for e, _ in new_project.items):
                note += f" (LLM projection now evaluates <= {node.n} rows)"
            out.node_notes[id(inner)] = note
            return new_project
        return _with_child(node, child=child)
    rewritten = {}
    for attr in ("child", "left", "right"):
        sub = getattr(node, attr, None)
        if isinstance(sub, PlanNode):
            rewritten[attr] = _rewrite(sub, catalog, config, out)
    return _with_child(node, **rewritten) if rewritten else node


def _rewrite_filter_chain(
    top: Filter, catalog: Optional[Any], config: OptimizerConfig, out: OptimizedPlan
) -> PlanNode:
    # Gather the maximal run of stacked filters; ``preds`` is top-down, so
    # execution order is ``reversed(preds)``.
    preds: List[Expr] = []
    cur: PlanNode = top
    while isinstance(cur, Filter):
        preds.append(cur.predicate)
        cur = cur.child
    base = _rewrite(cur, catalog, config, out)

    exec_order: List[Expr] = []
    for pred in reversed(preds):
        conjuncts = split_conjuncts(pred) if config.split_conjuncts else [pred]
        if len(conjuncts) > 1:
            out.fired.append("split_where_conjuncts")
        exec_order.extend(conjuncts)

    if not config.pushdown_non_llm:
        # Keep the original interleaving: rebuild the (possibly
        # conjunct-split) chain bottom-up and stop here.
        node: PlanNode = base
        for c in exec_order:
            node = Filter(child=node, predicate=c)
        return node

    non_llm = [c for c in exec_order if not contains_llm(c)]
    llm = [c for c in exec_order if contains_llm(c)]

    pushed_down = False
    if non_llm and llm:
        # Fired only if some non-LLM conjunct originally ran after an LLM one.
        seen_llm = False
        for c in exec_order:
            if contains_llm(c):
                seen_llm = True
            elif seen_llm:
                pushed_down = True
                break
        if pushed_down:
            out.fired.append("pushdown_non_llm_filters")

    _, field_avg = _collect_source_stats(base, catalog)
    ranks = {id(c): predicate_rank(c, field_avg, config) for c in llm}
    llm_sorted = llm
    if config.reorder_llm_predicates and len(llm) > 1:
        llm_sorted = sorted(llm, key=lambda c: ranks[id(c)])  # stable
        if [id(c) for c in llm_sorted] != [id(c) for c in llm]:
            out.fired.append("reorder_llm_predicates")

    node: PlanNode = base
    for c in non_llm:
        node = Filter(child=node, predicate=c)
        if pushed_down:
            out.node_notes[id(node)] = "non-LLM predicate, evaluated before LLM filters"
    for c in llm_sorted:
        node = Filter(child=node, predicate=c)
        tokens = sum(
            estimate_llm_tokens_per_row(e, field_avg, config) for e in find_llm_exprs(c)
        )
        out.node_notes[id(node)] = (
            f"LLM predicate: ~{tokens:.0f} est tok/row, "
            f"sel~{config.llm_selectivity:g}, rank={ranks[id(c)]:.1f}"
        )
    return node


# ---------------------------------------------------------------------- explain
def explain_plan(
    plan: PlanNode,
    catalog: Optional[Any] = None,
    config: OptimizerConfig = DEFAULT_OPTIMIZER_CONFIG,
) -> str:
    """Optimize ``plan`` and render the resulting tree, top-down, with the
    rewrites that fired and per-operator LLM token estimates."""
    optimized = optimize_plan(plan, catalog=catalog, config=config)
    if optimized.enabled:
        header = (
            "rewrites: " + ", ".join(optimized.fired)
            if optimized.fired
            else "rewrites: (none applied)"
        )
    else:
        header = "optimizer disabled (enabled=False); unoptimized plan"
    lines: List[str] = [header]
    # Source statistics are collected once for the whole tree (a join's
    # per-field maxima): token annotations are coarse estimates anyway, and
    # this keeps explain at one stats pass even for bare TableSource plans.
    _, field_avg = _collect_source_stats(optimized.plan, catalog)
    _render_node(optimized.plan, 0, catalog, config, optimized, field_avg, lines)
    return "\n".join(lines)


def _fmt_rows(rows: Optional[float]) -> str:
    return "?" if rows is None else f"{rows:.0f}"


def _render_node(
    node: PlanNode,
    depth: int,
    catalog: Optional[Any],
    config: OptimizerConfig,
    optimized: OptimizedPlan,
    field_avg: Dict[str, float],
    lines: List[str],
) -> Optional[float]:
    """Append this subtree's lines (parent first) and return its estimated
    output row count (``None`` when unknown)."""
    from repro.bench.reporting import fmt_tokens  # local: avoids an import cycle

    indent = "  " * depth
    slot = len(lines)
    lines.append("")  # placeholder; children render below it

    rows_out: Optional[float]
    if isinstance(node, TableSource):
        rows_out = float(node.table.n_rows)
        desc = f"TableSource  ~{_fmt_rows(rows_out)} rows"
    elif isinstance(node, CatalogScan):
        rows, _ = _collect_source_stats(node, catalog)
        rows_out = float(rows) if rows is not None else None
        desc = f"CatalogScan({node.name})  ~{_fmt_rows(rows_out)} rows"
    elif isinstance(node, Filter):
        rows_in = _render_node(node.child, depth + 1, catalog, config, optimized, field_avg, lines)
        llm_exprs = find_llm_exprs(node.predicate)
        if llm_exprs:
            per_row = sum(
                estimate_llm_tokens_per_row(e, field_avg, config) for e in llm_exprs
            )
            total = (
                f", ~{fmt_tokens(per_row * rows_in)} est LLM tok"
                if rows_in is not None
                else ""
            )
            desc = (
                f"Filter[LLM] {format_expr(node.predicate)}  "
                f"[~{_fmt_rows(rows_in)} rows in{total}]"
            )
            rows_out = None if rows_in is None else rows_in * config.llm_selectivity
        else:
            desc = (
                f"Filter {format_expr(node.predicate)}  [~{_fmt_rows(rows_in)} rows in]"
            )
            rows_out = None if rows_in is None else rows_in * config.non_llm_selectivity
    elif isinstance(node, Project):
        rows_in = _render_node(node.child, depth + 1, catalog, config, optimized, field_avg, lines)
        llm_items = [(e, a) for e, a in node.items if contains_llm(e)]
        desc = f"Project[{', '.join(a for _, a in node.items)}]"
        if llm_items:
            per_row = sum(
                estimate_llm_tokens_per_row(e, field_avg, config)
                for expr, _ in llm_items
                for e in find_llm_exprs(expr)
            )
            if rows_in is not None:
                desc += (
                    f"  [~{_fmt_rows(rows_in)} rows in, "
                    f"~{fmt_tokens(per_row * rows_in)} est LLM tok]"
                )
            else:
                desc += f"  [~{per_row:.0f} est LLM tok/row]"
        rows_out = rows_in
    elif isinstance(node, Join):
        left = _render_node(node.left, depth + 1, catalog, config, optimized, field_avg, lines)
        right = _render_node(node.right, depth + 1, catalog, config, optimized, field_avg, lines)
        rows_out = max(r for r in (left, right) if r is not None) if (
            left is not None or right is not None
        ) else None
        desc = f"Join({node.left_col} = {node.right_col})"
    elif isinstance(node, Aggregate):
        rows_in = _render_node(node.child, depth + 1, catalog, config, optimized, field_avg, lines)
        fns = ", ".join(f"{fn}({format_expr(e)}) AS {a}" for fn, e, a in node.aggs)
        group = f" GROUP BY {', '.join(node.group_by)}" if node.group_by else ""
        llm_args = [e for _, expr, _ in node.aggs for e in find_llm_exprs(expr)]
        desc = f"Aggregate[{fns}]{group}"
        if llm_args:
            per_row = sum(
                estimate_llm_tokens_per_row(e, field_avg, config) for e in llm_args
            )
            if rows_in is not None:
                desc += (
                    f"  [~{_fmt_rows(rows_in)} rows in, "
                    f"~{fmt_tokens(per_row * rows_in)} est LLM tok]"
                )
        rows_out = 1.0 if not node.group_by else rows_in
    elif isinstance(node, Limit):
        rows_in = _render_node(node.child, depth + 1, catalog, config, optimized, field_avg, lines)
        rows_out = float(node.n) if rows_in is None else min(float(node.n), rows_in)
        desc = f"Limit({node.n})"
    else:
        child = getattr(node, "child", None)
        rows_out = (
            _render_node(child, depth + 1, catalog, config, optimized, field_avg, lines)
            if isinstance(child, PlanNode)
            else None
        )
        name = node.__class__.__name__
        desc = "Project[*]" if name == "_Passthrough" else name

    note = optimized.note(node)
    lines[slot] = f"{indent}{desc}" + (f"  -- {note}" if note else "")
    return rows_out
