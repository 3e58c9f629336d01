"""The carried column encoding against its reference: rendered strings.

A :class:`Table` encodes each column once and its operators carry the
codes along; the LLM operator and the solvers run on them. The layer's one
reference is the string path: every cell rendered with ``render_value``,
then ``compile_table(ReorderTable(...))``. Random tables, whose columns mix
values that render alike (``1``, ``1.0``, ``"1"``; ``True``, ``"true"``;
``None``, ``""``) and non-ASCII strings, go through random chains of
``take`` / ``filter`` / ``head`` / ``select`` / ``rename`` / ``join``. The
derived table's encoding must give the reference's vocabulary order, codes
and lengths and the same GGR schedule, and ``LLMRuntime.execute`` must give
the reference's answers and prompt ids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import compile_table
from repro.core.reorder import reorder
from repro.core.table import ReorderTable
from repro.llm.client import SimulatedLLMClient
from repro.llm.prompts import build_prompt
from repro.llm.tokenizer import HashTokenizer
from repro.relational import LLMRuntime, Table
from repro.relational.expressions import LLMExpr
from repro.relational.table import render_value

VALUES = (None, "", 1, 1.0, True, False, "1", "true", 0, 0.0, "0", 2.5, "2.5",
          "é", "naïve café", "日本", "a b", 'q"uote')

_value = st.sampled_from(VALUES)


@st.composite
def _tables(draw, prefix="c", min_cols=1):
    n = draw(st.integers(0, 9))
    m = draw(st.integers(min_cols, 4))
    return Table({f"{prefix}{j}": draw(st.lists(_value, min_size=n, max_size=n))
                  for j in range(m)})


@st.composite
def _derived(draw):
    """A random table, some of its columns encoded up front, then a chain
    of operators (encoded columns carry their codes; the rest are encoded
    on first use)."""
    table = draw(_tables())
    for f in table.fields:
        if draw(st.booleans()):
            table.encoding(f)
    for step in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["take", "filter", "head", "select", "rename", "join"]))
        n, fields = table.n_rows, list(table.fields)
        if op == "take":
            idx = draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
            table = table.take(idx)
        elif op == "filter":
            table = table.filter(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        elif op == "head":
            table = table.head(draw(st.integers(0, n + 1)))
        elif op == "select":
            keep = draw(st.permutations(fields))
            table = table.select(keep[: draw(st.integers(1, len(keep)))])
        elif op == "rename":
            table = table.rename({f: f"{f}_{step}" for f in fields if draw(st.booleans())})
        else:
            right = draw(_tables(prefix=f"r{step}_", min_cols=2))
            for f in right.fields:
                if draw(st.booleans()):
                    right.encoding(f)
            table = table.join(right, draw(st.sampled_from(fields)), right.fields[0])
    return table


def rendered(table: Table, fields) -> ReorderTable:
    """The reference view: every cell rendered, nothing carried."""
    cols = [[render_value(v) for v in table.column(f)] for f in fields]
    return ReorderTable(fields, list(zip(*cols)) if cols else [])


def assert_same_encoding(got, want):
    assert got.fields == want.fields
    assert got.values == want.values
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.lengths, want.lengths)
    for a, b in zip(got.code_lens + got.first_pos, want.code_lens + want.first_pos):
        assert np.array_equal(a, b)


def schedule_cells(result):
    return [(r.row_id, r.cells) for r in result.schedule.rows]


def answerer(query, cells, row_id):
    return f"{row_id}:" + "|".join(f"{c.field}={c.value}" for c in cells)


class RecordingClient(SimulatedLLMClient):
    def generate_encoded(self, encoded, *args, **kwargs):
        self.sent = [ids for ids, _ in encoded]
        return super().generate_encoded(encoded, *args, **kwargs)


def reference_execute(table: Table, query: str, fields):
    """The LLM operator on rendered strings: dedup rows in first-appearance
    order, GGR over the distinct rows, one whole-prompt encode per row."""
    rows = rendered(table, fields).rows
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    distinct = list(first)
    result = reorder(ReorderTable(fields, distinct), "ggr", validate=True)
    tok = HashTokenizer()
    answer_of, ids = {}, []
    for r in result.schedule.rows:
        row = distinct[r.row_id]
        answer_of[row] = answerer(query, r.cells, first[row])
        ids.append(tuple(tok.encode(build_prompt(query, r.cells))))
    return [answer_of[row] for row in rows], ids


class TestCarriedEncoding:
    @settings(max_examples=300, deadline=None)
    @given(table=_derived())
    def test_matches_rendered_strings(self, table):
        fields = list(table.fields)
        want_table = rendered(table, fields)
        got_table = table.to_reorder_table()
        assert_same_encoding(compile_table(got_table), compile_table(want_table))
        assert got_table.rows == want_table.rows
        got = reorder(table.to_reorder_table(), "ggr", validate=True)
        want = reorder(want_table, "ggr", validate=True)
        assert schedule_cells(got) == schedule_cells(want)
        assert (got.exact_phc, got.exact_phr) == (want.exact_phc, want.exact_phr)

    @settings(max_examples=200, deadline=None)
    @given(table=_derived(), data=st.data())
    def test_llm_operator_matches_string_reference(self, table, data):
        fields = list(data.draw(st.permutations(table.fields)))
        fields = fields[: data.draw(st.integers(1, len(fields)))]
        client = RecordingClient()
        runtime = LLMRuntime(client=client, answerer=answerer)
        answers = runtime.execute(table, LLMExpr("Is it so?", tuple(fields)))
        want_answers, want_ids = reference_execute(table, "Is it so?", fields)
        assert answers == want_answers
        assert getattr(client, "sent", []) == want_ids

    def test_values_that_render_alike_share_a_code(self):
        table = Table({"a": [1, 1.0, "1", True, "true", None, "", 2.5]})
        vocab, codes = table.encoding("a")
        assert vocab == ("", "1", "2.5", "true")
        assert codes.tolist() == [1, 1, 1, 3, 3, 0, 0, 2]

    def test_operators_carry_codes_without_rendering(self, monkeypatch):
        import repro.relational.table as table_mod

        left = Table({"k": [1, 2, 2], "v": ["x", "y", "z"]})
        right = Table({"rk": [2, 1], "w": [True, None]})
        for t in (left, right):
            t.to_reorder_table()
        monkeypatch.setattr(table_mod, "render_value", None)  # any call fails
        out = (
            left.join(right, "k", "rk")
            .filter([True, True, False])
            .rename({"v": "v2"})
            .select(["w", "v2"])
            .take([1, 0, 1])
            .head(2)
        )
        assert out.to_reorder_table().rows == (("true", "y"), ("", "x"))
