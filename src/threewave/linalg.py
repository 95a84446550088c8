"""Exact null space of a homogeneous linear system over the parameter
function field.

The rows are polynomials in parameter symbols. A fraction-free Gauss-Jordan
elimination reduces them: each update is ``pivot*row - entry*pivot_row``
followed by removal of the row's polynomial content, so rational functions
appear only in the null-space basis. Pivots are chosen greedily by entry
complexity, which makes the frequent "one unknown pinned per row" constraint
systems collapse cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import MultiPoly, poly_gcd_many
from .ratfunc import RationalFn


@dataclass(frozen=True)
class LinearSolution:
    rank: int
    nullspace: tuple[tuple[RationalFn, ...], ...]

    @property
    def nullity(self) -> int:
        return len(self.nullspace)


def linear_solve(matrix: Sequence[Sequence[MultiPoly]]) -> LinearSolution:
    """Rank and null space of ``matrix * x = 0``: one basis vector per free
    column, with 1 in that column and 0 in the other free columns."""
    if not matrix or not matrix[0]:
        raise ValueError("cannot infer symbol table from an empty system")
    table = matrix[0][0].table
    ncols = len(matrix[0])
    for row in matrix:
        for entry in row:
            if any(s.kind != "parameter" for s in entry.variables()):
                raise ValueError("linear_solve entries must involve parameters only")

    rows = [_normalize_row(list(r)) for r in matrix if any(not e.is_zero() for e in r)]
    pivots: list[tuple[int, int]] = []  # (row index in rows, column)
    pivot_cols: set[int] = set()
    remaining = set(range(len(rows)))
    while True:
        best = None
        for ri in remaining:
            row = rows[ri]
            nnz = sum(1 for e in row if not e.is_zero())
            if nnz == 0:
                continue
            for c in range(ncols):
                if c in pivot_cols or row[c].is_zero():
                    continue
                e = row[c]
                key = (e.total_degree(), e.term_count(), nnz, c, ri)
                if best is None or key < best[0]:
                    best = (key, ri, c)
        if best is None:
            break
        _, ri, col = best
        pivots.append((ri, col))
        pivot_cols.add(col)
        remaining.discard(ri)
        prow = rows[ri]
        pe = prow[col]
        for rj in range(len(rows)):
            if rj == ri or rows[rj][col].is_zero():
                continue
            factor = rows[rj][col]
            rows[rj] = _normalize_row([pe * a - factor * b for a, b in zip(rows[rj], prow)])

    # after Gauss-Jordan a pivot row holds its pivot and free columns only
    zero, one = RationalFn.const(table, 0), RationalFn.const(table, 1)
    nullspace = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for ri, col in pivots:
            row = rows[ri]
            if not row[fc].is_zero():
                vec[col] = RationalFn(-row[fc], row[col])
        nullspace.append(tuple(vec))
    return LinearSolution(rank=len(pivots), nullspace=tuple(nullspace))


def _normalize_row(row: list[MultiPoly]) -> list[MultiPoly]:
    nz = [e for e in row if not e.is_zero()]
    if not nz:
        return row
    g = poly_gcd_many(nz)
    if not g.is_constant():
        row = [e.exact_divide(g) if not e.is_zero() else e for e in row]
        nz = [e for e in row if not e.is_zero()]
    lead = nz[0].leading_coefficient()
    if lead.is_one():
        return row
    inv = lead.inverse()
    return [e.map_coefficients(lambda c: c * inv) for e in row]
