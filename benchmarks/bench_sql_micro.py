"""Micro-benchmarks of the LLM-aware SQL optimizer (PR 4).

Two workload shapes the paper's SQL layer is built around:

* **dedup-heavy**: a projection whose touched fields repeat across rows
  (6x row redundancy here) — with input dedup the engine sees one prompt
  per *distinct* row, so optimizer-on must issue <= 1/3 of the engine
  prompt tokens of optimizer-off while producing bit-identical output
  (the acceptance bar; the measured ratio lands near 1/6 and is recorded
  in ``extra_info``).
* **LLM-filter ordering**: a WHERE mixing a cheap relational predicate
  with two LLM predicates of very different per-row cost — conjunct
  splitting + pushdown + rank ordering cut the answerer invocations.

Both run the full stack: SQL front-end -> optimizer -> GGR reordering ->
serving simulator.
"""

from conftest import run_once

from repro.llm.client import SimulatedLLMClient
from repro.relational import Database, LLMRuntime, OptimizerConfig, Table


def _product_table(n_families=30, per_family=6):
    """6x redundancy on the fields the dedup query touches; ``sku`` keeps
    full rows distinct so only projected-field dedup can collapse them."""
    rows = []
    for f in range(n_families):
        for k in range(per_family):
            rows.append(
                {
                    "sku": f"sku-{f}-{k}",
                    "product_title": f"Widget family {f} deluxe edition",
                    "description": (
                        f"A long shared marketing description of widget family {f} "
                        "covering materials, warranty, and intended audience. " * 2
                    ),
                    "category": f"cat-{f % 4}",
                    "stock": (f * per_family + k) % 7,
                    "review": f"unique review text {f}/{k} with specific opinions",
                }
            )
    return Table.from_records(rows)


def _cells_answerer(query, cells, row_id):
    vals = {c.field: c.value for c in cells}
    if "family" in query:
        return vals.get("product_title", "?").split()[2]
    return "Yes" if hash(tuple(sorted(vals.items()))) % 2 == 0 else "No"


def _make_db(opt: bool):
    runtime = LLMRuntime(
        client=SimulatedLLMClient(),
        policy="ggr",
        answerer=_cells_answerer,
        dedup=opt,
        memo=opt,
    )
    db = Database(runtime=runtime, optimizer_config=OptimizerConfig(enabled=opt))
    db.register("products", _product_table())
    return db


DEDUP_SQL = (
    "SELECT LLM('classify the product family', product_title, description) "
    "AS family FROM products"
)

ORDERING_SQL = (
    "SELECT sku FROM products WHERE "
    "LLM('does this long description read as premium?', description, review) = 'Yes' "
    "AND stock >= 2 "
    "AND LLM('short?', category) = 'Yes'"
)


def _engine_prompt_tokens(db):
    return sum(
        c.engine_result.prompt_tokens
        for c in db.runtime.calls
        if c.engine_result is not None
    )


def bench_sql_dedup_heavy_optimized(benchmark):
    """Dedup-heavy projection with the optimizer on: engine prompt tokens
    must drop to <= 1/3 of the oracle's (6x redundancy -> ~1/6) with
    bit-identical output."""
    ref_db = _make_db(opt=False)
    ref_out = ref_db.sql(DEDUP_SQL)
    ref_tokens = _engine_prompt_tokens(ref_db)

    db = _make_db(opt=True)
    out = run_once(benchmark, lambda: db.sql(DEDUP_SQL))
    opt_tokens = _engine_prompt_tokens(db)

    assert out.fields == ref_out.fields
    assert all(out.column(f) == ref_out.column(f) for f in ref_out.fields)
    ratio = opt_tokens / ref_tokens
    assert ratio <= 1 / 3, f"dedup saved too little: {ratio:.3f} > 1/3"
    call = db.runtime.calls[-1]
    benchmark.extra_info["prompt_token_ratio"] = round(ratio, 4)
    benchmark.extra_info["engine_prompt_tokens"] = opt_tokens
    benchmark.extra_info["oracle_prompt_tokens"] = ref_tokens
    benchmark.extra_info["n_rows"] = call.n_rows
    benchmark.extra_info["n_distinct"] = call.n_distinct
    benchmark.extra_info["dedup_saved_prompt_tokens"] = call.dedup_saved_prompt_tokens


def bench_sql_dedup_heavy_oracle(benchmark):
    """The same query on the unoptimized oracle path
    (``OptimizerConfig(enabled=False)``, ``LLMRuntime(dedup=False,
    memo=False)``: one model call per row) — the comparison baseline."""
    db = _make_db(opt=False)
    run_once(benchmark, lambda: db.sql(DEDUP_SQL))
    benchmark.extra_info["engine_prompt_tokens"] = _engine_prompt_tokens(db)
    assert db.runtime.calls[-1].dedup_saved_prompt_tokens == 0


def bench_sql_llm_filter_ordering(benchmark):
    """Mixed-predicate WHERE: pushdown + rank ordering must cut answerer
    invocations versus the unoptimized conjunction (which evaluates every
    LLM predicate over every row)."""
    counts = {}

    def make_counting_db(opt):
        db = _make_db(opt)
        inner = db.runtime.answerer
        counts[opt] = 0

        def counting(q, cells, rid):
            counts[opt] += 1
            return inner(q, cells, rid)

        db.runtime.answerer = counting
        return db

    ref_db = make_counting_db(False)
    ref_out = ref_db.sql(ORDERING_SQL)

    db = make_counting_db(True)
    out = run_once(benchmark, lambda: db.sql(ORDERING_SQL))

    assert out.column("sku") == ref_out.column("sku")
    assert counts[True] < counts[False]
    benchmark.extra_info["llm_invocations_optimized"] = counts[True]
    benchmark.extra_info["llm_invocations_oracle"] = counts[False]
    explain = db.explain(ORDERING_SQL)
    assert "pushdown_non_llm_filters" in explain
    assert "reorder_llm_predicates" in explain


def bench_sql_answer_memo_replay(benchmark):
    """Re-running the dedup query against a warm runtime: the second pass
    answers every row from the cross-call memo without touching the
    engine."""
    db = _make_db(opt=True)
    first = db.sql(DEDUP_SQL)

    out = run_once(benchmark, lambda: db.sql(DEDUP_SQL))
    assert out.column("family") == first.column("family")
    replay = db.runtime.calls[-1]
    assert replay.memo_hits == replay.n_rows
    assert replay.engine_result is None
    benchmark.extra_info["memo_hits"] = replay.memo_hits
