"""Randomized optimizer-equivalence suite.

The unoptimized path (``OptimizerConfig(enabled=False)`` +
``LLMRuntime(dedup=False, memo=False)``) is the
equivalence oracle: for generated SQL over randomized tables, the
optimized engine must produce *identical* query results while issuing
strictly fewer-or-equal answerer invocations (dedup/memo can only remove
model calls, never add or change them).

The generated answerers are deterministic functions of ``(query, cells)``
— the property every real model has and the dedup/memo rewrites rely on.
"""

import hashlib
import random

import pytest

from repro.relational import Database, LLMRuntime, OptimizerConfig, Table

N_CASES = 24


def _hash01(*key) -> float:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**64


def cells_answerer(query, cells, row_id):
    """Deterministic in (query, sorted cells); independent of row order,
    schedule order, and row_id."""
    payload = tuple(sorted((c.field, c.value) for c in cells))
    u = _hash01(query, payload)
    if query.startswith("score"):
        return str(1 + int(u * 5))
    return "Yes" if u < 0.55 else "No"


def random_table(rng: random.Random) -> Table:
    """A table with deliberately heavy value redundancy so dedup has work:
    small domains for every column except the unique id."""
    n = rng.randint(8, 40)
    n_groups = rng.randint(1, 4)
    n_texts = rng.randint(2, 6)
    return Table(
        {
            "id": list(range(n)),
            "grp": [f"g{rng.randrange(n_groups)}" for _ in range(n)],
            "val": [rng.randrange(5) for _ in range(n)],
            "text": [f"shared text body {rng.randrange(n_texts)}" for _ in range(n)],
            "note": [f"note {rng.randrange(3)} padding words" for _ in range(n)],
        }
    )


def random_sql(rng: random.Random) -> str:
    """One SELECT from a small grammar mixing cheap and LLM predicates."""
    llm_preds = [
        "LLM('p1 keep?', text) = 'Yes'",
        "LLM('p2 long question about the row contents?', text, note, grp) = 'Yes'",
        "LLM('p3?', grp) = 'No'",
        "LLM('p4 mid-size?', note, grp) = 'Yes'",
    ]
    cheap_preds = [
        "val >= 2",
        "grp = 'g0'",
        "val < 4",
        "NOT grp = 'g1'",
        "text IS NOT NULL",
    ]
    n_llm = rng.randint(0, 2)
    n_cheap = rng.randint(0, 2)
    preds = rng.sample(llm_preds, n_llm) + rng.sample(cheap_preds, n_cheap)
    rng.shuffle(preds)
    where = f" WHERE {' AND '.join(preds)}" if preds else ""

    shape = rng.randrange(4)
    if shape == 0:
        select = "SELECT id, grp"
    elif shape == 1:
        select = "SELECT LLM('p5 summarize', text, note) AS s, id"
    elif shape == 2:
        select = "SELECT AVG(LLM('score the row', text)) AS s"
    else:
        select = "SELECT *"
    limit = f" LIMIT {rng.randint(1, 12)}" if rng.random() < 0.4 and shape != 2 else ""
    return f"{select} FROM t{where}{limit}"


class CountingAnswerer:
    def __init__(self):
        self.n = 0

    def __call__(self, query, cells, row_id):
        self.n += 1
        return cells_answerer(query, cells, row_id)


def run_one(sql: str, table: Table, opt: bool):
    counter = CountingAnswerer()
    runtime = LLMRuntime(answerer=counter, policy="original", dedup=opt, memo=opt)
    db = Database(runtime=runtime, optimizer_config=OptimizerConfig(enabled=opt))
    db.register("t", table)
    out = db.sql(sql)
    return out, counter.n


def tables_equal(a: Table, b: Table) -> bool:
    if a.fields != b.fields or a.n_rows != b.n_rows:
        return False
    return all(a.column(f) == b.column(f) for f in a.fields)


@pytest.mark.parametrize("case", range(N_CASES))
def test_optimized_matches_oracle(case):
    rng = random.Random(1000 + case)
    table = random_table(rng)
    for _ in range(3):
        sql = random_sql(rng)
        ref, ref_calls = run_one(sql, table, opt=False)
        opt, opt_calls = run_one(sql, table, opt=True)
        assert tables_equal(ref, opt), (
            f"case {case}: optimizer changed the result of {sql!r}:\n"
            f"reference {ref.fields} x {ref.n_rows} vs optimized "
            f"{opt.fields} x {opt.n_rows}"
        )
        assert opt_calls <= ref_calls, (
            f"case {case}: optimizer issued MORE answerer calls "
            f"({opt_calls} > {ref_calls}) for {sql!r}"
        )


def test_dedup_strictly_reduces_calls_on_redundant_table():
    rng = random.Random(7)
    table = random_table(rng)  # heavy redundancy by construction
    sql = "SELECT LLM('p1 keep?', text) AS k FROM t"
    _, ref_calls = run_one(sql, table, opt=False)
    _, opt_calls = run_one(sql, table, opt=True)
    assert opt_calls < ref_calls

    # GGR policy agrees with the original-order policy on outputs.
    counter = CountingAnswerer()
    runtime = LLMRuntime(answerer=counter, policy="ggr", dedup=True, memo=True)
    db = Database(runtime=runtime, optimizer_config=OptimizerConfig(enabled=True))
    db.register("t", table)
    out_ggr = db.sql(sql)
    out_ref, _ = run_one(sql, table, opt=False)
    assert tables_equal(out_ggr, out_ref)
    assert counter.n == opt_calls
