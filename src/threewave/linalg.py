"""Exact linear solving over the parameter function field.

The solver takes a matrix/vector of :class:`~threewave.ratfunc.RationalFn`
entries in parameter symbols, clears denominators row by row, and runs a
fraction-free Gauss-Jordan elimination on polynomial rows: each update is
``pivot*row - entry*pivot_row`` followed by removal of the row's polynomial
content, so no rational-function arithmetic happens until back-substitution.
Pivots are chosen greedily by entry complexity, which makes the frequent
"one unknown pinned per row" constraint systems collapse cheaply.

The result carries rank, a particular solution (free unknowns set to zero),
a null-space basis, and -- for inconsistent systems -- the offending reduced
row as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly, poly_gcd_many
from .ratfunc import RationalFn, clear_denominators
from .symbols import SymbolTable


@dataclass(frozen=True)
class LinearSolution:
    rank: int
    consistent: bool
    pivot_columns: tuple[int, ...]
    free_columns: tuple[int, ...]
    particular: tuple[RationalFn, ...] | None
    nullspace: tuple[tuple[RationalFn, ...], ...]
    certificate: tuple[MultiPoly, ...] | None  # reduced row proving 0 == nonzero

    @property
    def nullity(self) -> int:
        return len(self.nullspace)


def linear_solve(
    matrix: list[list[RationalFn]],
    rhs: list[RationalFn] | None = None,
    table: SymbolTable | None = None,
) -> LinearSolution:
    """Solve ``matrix * x = rhs`` exactly (homogeneous when rhs is None)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if table is None:
        if nrows:
            table = matrix[0][0].table
        elif rhs:
            table = rhs[0].table
        else:
            raise ValueError("cannot infer symbol table from an empty system")
    zero_rf = RationalFn.const(table, 0)
    if rhs is None:
        rhs = [zero_rf] * nrows
    if len(rhs) != nrows:
        raise ValueError("rhs length does not match matrix")
    for row in matrix:
        for entry in row:
            if not entry.depends_only_on_parameters():
                raise ValueError("linear_solve entries must involve parameters only")

    rows = [_clear_row(matrix[i], rhs[i]) for i in range(nrows)]
    rows = [r for r in rows if any(not e.is_zero() for e in r)]

    pivots: list[tuple[int, int]] = []  # (row index in rows, column)
    pivot_cols: set[int] = set()
    remaining = set(range(len(rows)))
    while True:
        best = None
        for ri in remaining:
            row = rows[ri]
            nnz = sum(1 for c in range(ncols) if not row[c].is_zero())
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
            new = [pe * a - factor * b for a, b in zip(rows[rj], prow)]
            rows[rj] = _normalize_row(new)

    certificate = None
    consistent = True
    for ri in remaining:
        row = rows[ri]
        if all(row[c].is_zero() for c in range(ncols)) and not row[ncols].is_zero():
            consistent = False
            certificate = tuple(row)
            break

    rank = len(pivots)
    pivot_columns = tuple(sorted(pivot_cols))
    free_columns = tuple(c for c in range(ncols) if c not in pivot_cols)

    particular = None
    nullspace: list[tuple[RationalFn, ...]] = []
    if consistent:
        sol = [zero_rf] * ncols
        for ri, col in pivots:
            row = rows[ri]
            acc = RationalFn.from_poly(row[ncols])
            # after Gauss-Jordan only free columns remain alongside the pivot
            for c in free_columns:
                if not row[c].is_zero():
                    acc = acc - RationalFn.from_poly(row[c]) * sol[c]
            sol[col] = acc / RationalFn.from_poly(row[col])
        particular = tuple(sol)
        one_rf = RationalFn.const(table, 1)
        for fc in free_columns:
            vec = [zero_rf] * ncols
            vec[fc] = one_rf
            for ri, col in pivots:
                row = rows[ri]
                if not row[fc].is_zero():
                    vec[col] = -RationalFn.from_poly(row[fc]) / RationalFn.from_poly(row[col])
            nullspace.append(tuple(vec))

    return LinearSolution(
        rank=rank,
        consistent=consistent,
        pivot_columns=pivot_columns,
        free_columns=free_columns,
        particular=particular,
        nullspace=tuple(nullspace),
        certificate=certificate,
    )


def _clear_row(row: list[RationalFn], b: RationalFn) -> list[MultiPoly]:
    entries = list(row) + [b]
    return _normalize_row(clear_denominators(entries, entries[0].table)[1])


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
