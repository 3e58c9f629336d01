"""Prompt construction for the LLM operator (paper §5 and Appendix C).

The operator serializes each scheduled row as JSON after a fixed header
(system prompt + user query). Field order inside the JSON follows the
request schedule — that is how the reordering algorithms control prefix
sharing. The header is identical for every row of a query, so it is the
first (and for unordered data often the only) shared prefix.

The LLM operator never builds these strings: :func:`encode_rows` assembles
each row's ids from the header's and one memoized encoding per distinct cell
segment (``{"f": "v"`` for the first cell, ``, "f": "v"`` after it, then
``}``). Every cut falls right before ``{``, ``,`` or ``}``, which is exact
(see :mod:`repro.llm.tokenizer`). Since :func:`escape_json_string` escapes
every ``"``, a repeated cell yields a repeated segment. :func:`build_prompt`
renders the prompt as text: the reference the id path is tested against.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.table import Cell
from repro.llm.radix import pack_tokens

#: Appendix C system prompt, verbatim modulo whitespace normalization.
SYSTEM_TEMPLATE = (
    "You are a data analyst. Use the provided JSON data to answer the user "
    "query based on the specified fields. Respond with only the answer, "
    "no extra formatting.\n"
    "Answer the below query:\n"
    "{query}\n"
    "Given the following data:\n"
)


def escape_json_string(value: str) -> str:
    """Minimal JSON string escaping (keeps the tokenizer's piece boundaries
    stable across identical values)."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def render_cells(cells: Iterable[Cell]) -> str:
    """Serialize cells as a JSON object, preserving the given order."""
    parts = [f'"{escape_json_string(c.field)}": "{escape_json_string(c.value)}"' for c in cells]
    return "{" + ", ".join(parts) + "}"


def build_prompt(query: str, cells: Sequence[Cell]) -> str:
    """Full prompt for one row: header + JSON-encoded row data."""
    return SYSTEM_TEMPLATE.format(query=query) + render_cells(cells)


def encode_rows(
    tokenizer,
    query: str,
    rows: Sequence[Sequence[Cell]],
    keys: Optional[Sequence[Sequence[Hashable]]] = None,
) -> List[Tuple[Tuple[int, ...], bytes]]:
    """``(ids, packed)`` of ``build_prompt(query, cells)`` for each row,
    equal to a whole-prompt encode of each in turn (vocabulary included),
    with the header and each distinct cell segment tokenized once.

    ``keys[i][j]`` names cell ``rows[i][j]`` in the segment memo: equal
    keys must mean equal cells. The LLM operator passes the schedule's
    cell codes (:func:`repro.core.phc.cell_codes`), which hash faster than
    cells; by default a cell is its own key."""
    # (ids, packed) by key: one memo for a row's first cell (led by '{"'),
    # one for the others (led by ', "'). Packing is fixed-width, so a
    # row's packed bytes are its segments'.
    first: Dict[Hashable, Tuple[List[int], bytes]] = {}
    rest: Dict[Hashable, Tuple[List[int], bytes]] = {}
    encode = tokenizer.encode

    def segment(memo: dict, key: Hashable, text: str) -> Tuple[List[int], bytes]:
        ids = encode(text)
        seg = memo[key] = (ids, pack_tokens(ids))
        return seg

    out = []
    if not rows:
        return out
    head_ids, head_packed = segment({}, None, SYSTEM_TEMPLATE.format(query=query))
    closes: Dict[str, Tuple[List[int], bytes]] = {}
    for cells, row_keys in zip(rows, rows if keys is None else keys):
        ids, packed = head_ids.copy(), [head_packed]
        memo, lead = first, '{"'
        for c, key in zip(cells, row_keys):
            seg = memo.get(key) or segment(
                memo,
                key,
                f'{lead}{escape_json_string(c.field)}": "{escape_json_string(c.value)}"',
            )
            ids += seg[0]
            packed.append(seg[1])
            memo, lead = rest, ', "'
        close = "}" if cells else "{}"
        seg = closes.get(close) or segment(closes, close, close)
        ids += seg[0]
        packed.append(seg[1])
        out.append((tuple(ids), b"".join(packed)))
    return out
