"""Functional dependencies (paper §4.2.1) and single-attribute FD mining.

GGR uses FDs to shrink its search: once a value in field ``f`` is chosen as
the group prefix, every field functionally determined by ``f`` is appended
to the prefix immediately (those cells are guaranteed — or, for mined *soft*
FDs, very likely — to repeat across the group), and the recursion proceeds
on the remaining fields only.

The paper's Appendix B lists FD *groups* per dataset (sets of mutually
determining fields, e.g. ``movieinfo ↔ movietitle ↔ rottentomatoeslink``),
which is what :meth:`FunctionalDependencies.add_group` models; arbitrary
directed single-attribute dependencies are supported too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.compiled import compile_table
from repro.core.table import ReorderTable
from repro.errors import SolverError


@dataclass
class FunctionalDependencies:
    """A set of single-attribute functional dependencies ``a -> b``.

    ``determined(a)`` returns the *closure* of ``a`` under the stored edges
    (excluding ``a`` itself): every field whose value is pinned once ``a``'s
    value is pinned.
    """

    _edges: Dict[str, Set[str]] = field(default_factory=dict)

    def add(self, determinant: str, dependent: str) -> None:
        """Record ``determinant -> dependent``."""
        if determinant == dependent:
            return
        self._edges.setdefault(determinant, set()).add(dependent)

    def add_group(self, fields: Iterable[str]) -> None:
        """Record mutual dependencies among ``fields`` (paper App. B style)."""
        group = list(dict.fromkeys(fields))
        for a in group:
            for b in group:
                if a != b:
                    self.add(a, b)

    def determined(self, determinant: str) -> FrozenSet[str]:
        """Transitive closure of fields determined by ``determinant``."""
        seen: Set[str] = set()
        frontier = [determinant]
        while frontier:
            cur = frontier.pop()
            for nxt in self._edges.get(cur, ()):
                if nxt not in seen and nxt != determinant:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted((a, b) for a, deps in self._edges.items() for b in deps)

    def restrict(self, fields: Iterable[str]) -> "FunctionalDependencies":
        """Project the FD set onto a subset of fields."""
        keep = set(fields)
        out = FunctionalDependencies()
        for a, b in self.edges():
            if a in keep and b in keep:
                out.add(a, b)
        return out

    def merge(self, other: "FunctionalDependencies") -> "FunctionalDependencies":
        """Union of two FD sets (used when a query touches several tables
        with disjoint field names)."""
        out = FunctionalDependencies()
        for a, b in self.edges() + other.edges():
            out.add(a, b)
        return out

    def __len__(self) -> int:
        return sum(len(v) for v in self._edges.values())

    def __bool__(self) -> bool:
        return len(self) > 0

    @staticmethod
    def empty() -> "FunctionalDependencies":
        return FunctionalDependencies()

    @staticmethod
    def from_groups(groups: Sequence[Sequence[str]]) -> "FunctionalDependencies":
        fds = FunctionalDependencies()
        for g in groups:
            fds.add_group(g)
        return fds


def _holds(
    col_a: Sequence[str], col_b: Sequence[str], rows: Sequence[int], tolerance: float
) -> bool:
    """Does ``a -> b`` hold over ``rows``, allowing a ``tolerance`` fraction
    of violating rows (soft FD)?"""
    mapping: Dict[str, str] = {}
    violations = 0
    budget = int(tolerance * len(rows))
    for i in rows:
        a, b = col_a[i], col_b[i]
        prev = mapping.get(a)
        if prev is None:
            mapping[a] = b
        elif prev != b:
            violations += 1
            if violations > budget:
                return False
    return True


def mine_fds(
    table: ReorderTable,
    sample_rows: int = 2000,
    tolerance: float = 0.0,
    seed: int = 0,
    max_cardinality_ratio: float = 0.98,
) -> FunctionalDependencies:
    """Discover single-attribute FDs ``a -> b`` from data.

    Databases usually *know* their FDs (keys, join columns); this miner
    exists for raw tables. It checks every ordered field pair on a row
    sample, skipping determinant columns that are nearly unique
    (``cardinality/n > max_cardinality_ratio``): such FDs are trivially true
    and useless to GGR because the "groups" they describe have one row.

    ``sample_rows`` caps the rows checked (0 checks every row);
    ``tolerance`` in ``[0, 1]`` above 0 accepts soft FDs that hold on all
    but that fraction of sampled rows (cf. CORDS-style soft dependencies
    referenced in §2). Either out of range raises :class:`SolverError`.
    """
    if (
        not isinstance(sample_rows, Integral)
        or isinstance(sample_rows, bool)
        or sample_rows < 0
    ):
        raise SolverError(
            f"sample_rows must be an integer >= 0, got {sample_rows!r}"
        )
    if (
        not isinstance(tolerance, Real)
        or isinstance(tolerance, bool)
        or not 0 <= tolerance <= 1  # also rejects NaN
    ):
        raise SolverError(
            f"tolerance must be a number in [0, 1], got {tolerance!r}"
        )
    n = table.n_rows
    if n == 0 or table.n_fields < 2:
        return FunctionalDependencies()
    if 0 < sample_rows < n:
        rng = random.Random(seed)
        rows = sorted(rng.sample(range(n), sample_rows))
    else:
        rows = list(range(n))
    return _mine_fds_compiled(table, rows, tolerance, max_cardinality_ratio)


def _mine_fds_python(
    table: ReorderTable,
    rows: List[int],
    tolerance: float,
    max_cardinality_ratio: float,
) -> FunctionalDependencies:
    """Reference string-path miner (equivalence oracle)."""
    columns = [table.column(i) for i in range(table.n_fields)]
    cardinality = [len({col[i] for i in rows}) for col in columns]

    fds = FunctionalDependencies()
    for ai, a in enumerate(table.fields):
        if cardinality[ai] > max_cardinality_ratio * len(rows):
            continue
        if cardinality[ai] <= 1:
            # Constant column: determines everything vacuously but carries no
            # grouping signal; skip as determinant.
            continue
        for bi, b in enumerate(table.fields):
            if ai == bi:
                continue
            # a -> b can only hold if a has at least as many distinct values
            # (minus the violation budget, for soft FDs).
            if cardinality[ai] + tolerance * len(rows) < cardinality[bi]:
                continue
            if _holds(columns[ai], columns[bi], rows, tolerance):
                fds.add(a, b)
    return fds


def _mine_fds_compiled(
    table: ReorderTable,
    rows: List[int],
    tolerance: float,
    max_cardinality_ratio: float,
) -> FunctionalDependencies:
    """Code-based miner over the compiled columnar form.

    Identical outcome to :func:`_mine_fds_python`: ``a -> b`` holds when
    mapping each ``a``-code to the ``b``-code of its first sampled
    occurrence leaves at most the violation budget of mismatching rows —
    exactly the reference's streaming first-seen-mapping count.
    """
    import numpy as np

    ct = compile_table(table)
    rows_arr = np.asarray(rows, dtype=np.int64)
    sub = ct.codes[rows_arr, :]
    cardinality = [
        int(np.unique(sub[:, j]).size) for j in range(table.n_fields)
    ]
    n_sample = len(rows)
    budget = int(tolerance * n_sample)

    fds = FunctionalDependencies()
    for ai, a in enumerate(table.fields):
        if cardinality[ai] > max_cardinality_ratio * n_sample:
            continue
        if cardinality[ai] <= 1:
            continue
        ca = sub[:, ai]
        _, first_idx, inverse = np.unique(
            ca, return_index=True, return_inverse=True
        )
        for bi, b in enumerate(table.fields):
            if ai == bi:
                continue
            if cardinality[ai] + tolerance * n_sample < cardinality[bi]:
                continue
            cb = sub[:, bi]
            violations = int((cb != cb[first_idx][inverse]).sum())
            if violations <= budget:
                fds.add(a, b)
    return fds
