"""Prompt construction for the LLM operator (paper §5 and Appendix C).

The operator serializes each scheduled row as JSON after a fixed header
(system prompt + user query). Field order inside the JSON follows the
request schedule — that is how the reordering algorithms control prefix
sharing. The header is identical for every row of a query, so it is the
first (and for unordered data often the only) shared prefix.

The client tokenizes a prompt in segments (``encode_cache.prompt_segments``):
the header up to the row's opening ``{"``, then one segment per ``, "``-led
field. Exactness does not depend on this format, since any cut right before
``{`` or ``,`` is exact. Reuse does: :func:`escape_json_string` escapes
every ``"`` in field names and values, so ``{"`` and ``, "`` occur in the
row only where :func:`render_cells` puts them, and a repeated cell yields a
repeated segment.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.table import Cell

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
