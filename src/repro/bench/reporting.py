"""ASCII reporting: every experiment renders the same rows the paper
prints, with a paper-reported column next to the measured one."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _nearest_rank(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank pick from an already-sorted, non-empty series."""
    if q == 0:
        return sorted_vals[0]
    return sorted_vals[math.ceil(q / 100.0 * len(sorted_vals)) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The nearest-rank definition always returns an actual observation —
    the right choice for latency SLOs (a reported p99 is a latency some
    request really saw) and for bootstrap confidence bounds. Empty input
    returns 0.0 (empty-safe for zero-request traces), out-of-range ``q``
    raises.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    vals = sorted(float(v) for v in values)
    if not vals:
        return 0.0
    return _nearest_rank(vals, q)


def latency_percentiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(p50, p95, p99) of one latency series, sorting it once — the
    triple every serving report prints. Empty-safe like
    :func:`percentile`."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return (0.0, 0.0, 0.0)
    return (
        _nearest_rank(vals, 50),
        _nearest_rank(vals, 95),
        _nearest_rank(vals, 99),
    )


def fmt_speedup(baseline_seconds: float, new_seconds: float) -> str:
    """'2.5x' formatting used throughout the figures."""
    if new_seconds <= 0:
        return "inf"
    return f"{baseline_seconds / new_seconds:.1f}x"


def fmt_pct(x: float, digits: int = 1) -> str:
    return f"{100 * x:.{digits}f}%"


def fmt_tokens(n: float) -> str:
    """Compact token-count formatting ('842', '1.2k', '5.4M') used by the
    optimizer's EXPLAIN annotations and the SQL micro-benchmarks."""
    n = float(n)
    if n >= 1e6:
        return f"{n / 1e6:.1f}M"
    if n >= 1e3:
        return f"{n / 1e3:.1f}k"
    return f"{n:.0f}"


def fmt_seconds(s: float) -> str:
    if s >= 100:
        return f"{s:.0f}s"
    if s >= 1:
        return f"{s:.1f}s"
    return f"{s * 1000:.0f}ms"


class ResultTable:
    """A fixed-width text table."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

        sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [self.title, sep, line(self.headers), sep]
        out.extend(line(r) for r in self.rows)
        out.append(sep)
        return "\n".join(out)


@dataclass
class ExperimentOutput:
    """Everything an experiment produces: tables, free-text notes, and a
    flat metrics dict for assertions/EXPERIMENTS.md."""

    name: str
    tables: List[ResultTable] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.name} =="]
        for t in self.tables:
            parts.append(t.render())
        for n in self.notes:
            parts.append(f"note: {n}")
        return "\n\n".join(parts)


def default_scale(fallback: float = 0.05) -> float:
    """Experiment scale: REPRO_SCALE env var or a bench-friendly default.

    ``scale=1.0`` reproduces the paper's full dataset sizes; the default
    keeps a full harness run in CI-sized time budgets.
    """
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return fallback
    value = float(raw)
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {raw!r}")
    if not math.isfinite(value):
        raise ValueError(f"REPRO_SCALE must be finite, got {raw!r}")
    return value
