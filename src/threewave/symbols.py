"""Symbols and symbol tables.

A symbol is a named unknown, either a ``state`` variable (a phase-space or
chart coordinate) or a ``parameter`` (a constant of the system, an ansatz
coefficient, an eigenvalue unknown...). A symbol table is an immutable ordered
tuple of symbols; the position of a symbol fixes its slot in every exponent
vector and its weight in the graded-lexicographic monomial order. Both are
records (:class:`~threewave.records.Record`): a table's one field is its
tuple of symbols, and its index by name is derived from it.

Tables only grow: :meth:`SymbolTable.extend` returns a fresh table with the
new symbols appended, so exponent vectors of existing polynomials stay valid
prefixes and can be migrated by zero-padding.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .records import Record, set_values

STATE = "state"
PARAMETER = "parameter"

# "i" is the imaginary unit in the expression syntax and can never be a symbol.
RESERVED_NAMES = {"i"}


class Symbol(Record):
    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str = STATE):
        if kind not in (STATE, PARAMETER):
            raise ValueError(f"unknown symbol kind {kind!r}")
        if not name or name in RESERVED_NAMES:
            raise ValueError(f"invalid symbol name {name!r}")
        # the slots set directly, without the generic constructor's argument
        # binding: symbols are the records built most often
        set_name, set_kind = self._setters
        set_name(self, name)
        set_kind(self, kind)
        set_values(self, (name, kind))

    def __str__(self):
        return self.name


def state(name: str) -> Symbol:
    return Symbol(name, STATE)


def parameter(name: str) -> Symbol:
    return Symbol(name, PARAMETER)


class SymbolTable(Record):
    """Immutable ordered collection of symbols with unique names."""

    __slots__ = ("symbols", "_index")  # a tuple of Symbols; derived: name -> position

    def __init__(self, symbols: Iterable[Symbol]):
        syms = tuple(symbols)
        index = {s.name: k for k, s in enumerate(syms)}
        if len(index) != len(syms):
            raise ValueError(f"duplicate symbol names in table: {[s.name for s in syms]}")
        Record.__init__(self, syms)
        SymbolTable._index.__set__(self, index)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, sym) -> bool:
        if isinstance(sym, Symbol):
            k = self._index.get(sym.name)
            return k is not None and self.symbols[k] == sym
        return sym in self._index

    def index(self, sym: Symbol | str) -> int:
        name = sym.name if isinstance(sym, Symbol) else sym
        k = self._index.get(name)
        if k is None:
            raise KeyError(f"symbol {name!r} not in table")
        return k

    def get(self, name: str) -> Symbol | None:
        k = self._index.get(name)
        return self.symbols[k] if k is not None else None

    def extend(self, new_symbols: Iterable[Symbol]) -> "SymbolTable":
        """Table with ``new_symbols`` appended (names must be fresh)."""
        return SymbolTable(self.symbols + tuple(new_symbols))

    def parameters(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.symbols if s.kind == PARAMETER)

    def __repr__(self):  # the names only: SymbolTableMismatch messages print it
        return f"SymbolTable({', '.join(s.name for s in self.symbols)})"


def names_apart(table: SymbolTable, names: Callable[[str], Sequence[str]]) -> Sequence[str]:
    """``names(pad)`` for the shortest run of underscores ``pad`` that leaves
    none of them in ``table``: internal unknowns such as ``c1..c30`` become
    ``c_1..c_30`` rather than capture a model symbol of the same name."""
    pad = ""
    while any(table.get(n) is not None for n in names(pad)):
        pad += "_"
    return names(pad)


def table(*names_and_kinds) -> SymbolTable:
    """Build a table from 'name' (state) or 'name:parameter' strings or Symbols."""
    syms = []
    for item in names_and_kinds:
        if isinstance(item, Symbol):
            syms.append(item)
        elif item.endswith(":parameter"):
            syms.append(parameter(item.split(":")[0]))
        else:
            syms.append(state(item))
    return SymbolTable(syms)
