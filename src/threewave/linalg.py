"""Exact null space of a homogeneous linear system over the parameter
function field.

The rows are polynomials in parameter symbols, each kept sparse as a
``{column: nonzero entry}`` map, since the holomorphy systems are mostly
zeros. A fraction-free Gauss-Jordan elimination reduces them: each update is
``pivot*row - entry*pivot_row``, which scales the row's own entries and
subtracts over the pivot row's support only, followed by removal of the
row's polynomial content, so rational functions appear only in the
null-space basis. Pivots are chosen greedily by entry complexity (total
degree, term count, then the row's nonzero count), which makes the frequent
"one unknown pinned per row" constraint systems collapse cheaply.
"""

from __future__ import annotations

from typing import Sequence

from .poly import MultiPoly, poly_gcd_many, symbols_in
from .ratfunc import RationalFn
from .records import Record


class LinearSolution(Record):
    __slots__ = ("rank", "nullspace")  # int, a tuple of basis vectors (tuples of RationalFn)

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
    if any(s.kind != "parameter" for s in symbols_in([e for row in matrix for e in row])):
        raise ValueError("linear_solve entries must involve parameters only")

    # each row is a sparse {column: nonzero entry} map
    rows = [_normalize_row({c: e for c, e in enumerate(r) if not e.is_zero()}) for r in matrix]
    rows = [row for row in rows if row]
    pivots: list[tuple[int, int]] = []  # (row index in rows, column)
    pivot_cols: set[int] = set()
    remaining = set(range(len(rows)))
    while True:
        best = None
        for ri in remaining:
            row = rows[ri]
            nnz = len(row)
            for c, e in row.items():
                if c in pivot_cols:
                    continue
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
        scale = not (pe.is_constant() and pe.constant_value().is_one())
        for rj, row in enumerate(rows):
            factor = row.get(col)
            if rj == ri or factor is None:
                continue
            new = {c: pe * a for c, a in row.items()} if scale else dict(row)
            for c, b in prow.items():
                a = new.get(c)
                e = -(factor * b) if a is None else a - factor * b
                if e.is_zero():
                    del new[c]
                else:
                    new[c] = e
            rows[rj] = _normalize_row(new)

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
            if fc in row:
                vec[col] = RationalFn(-row[fc], row[col])
        nullspace.append(tuple(vec))
    return LinearSolution(rank=len(pivots), nullspace=tuple(nullspace))


def _normalize_row(row: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Divide a sparse row by its polynomial content, then make the leading
    coefficient of its first entry 1. A nonzero constant entry makes the
    content a unit, so its gcd is skipped."""
    if not row:
        return row
    if not any(e.is_constant() for e in row.values()):
        g = poly_gcd_many([row[c] for c in sorted(row)])
        if not g.is_constant():
            row = {c: e.exact_divide(g) for c, e in row.items()}
    lead = row[min(row)].leading_coefficient()
    if lead.is_one():
        return row
    inv = lead.inverse()
    return {c: e.map_coefficients(lambda x: x * inv) for c, e in row.items()}
