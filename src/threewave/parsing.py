"""Canonical expression syntax and the model/atlas file format.

The expression language matches the canonical text emitted by
``MultiPoly.text`` / ``RationalFn.text``: integers, ``i`` for sqrt(-1),
symbol names, ``+ - * / ^`` and parentheses. Parsing always produces a
:class:`~threewave.ratfunc.RationalFn` over a caller-supplied table, so a
round trip through text is exact.

Model files are line oriented; ``#`` starts a comment. Recognized directives::

    params delta gamma
    chart U1 : x1 y1 z1 @ x1        # '@ boundary-variable' is optional
    system U0 : expr ; expr ; expr
    map U0 U1 : f1 ; f2 ; f3 | g1 ; g2 ; g3
    atlas projective : U1 U2 U3
    symmetry pi : x ; -y ; z | alpha1 -> -alpha3, alpha5 -> -alpha5
    relation (s*pi)^2

Each chart is declared once, and its boundary variable, when given, is one of
its three variables. ``system`` attaches a vector field to a declared chart;
``map`` gives the forward triple (in source variables) and the inverse triple
(in target variables), which is verified symbolically on load. ``atlas``
names a list of charts reached by maps out of the base chart (the chart of
the ``system`` line); a file without ``atlas`` lines uses every map out of
its base chart under every atlas name.

``symmetry`` declares a state map in the base chart's variables and, after
an optional ``|``, its action on the parameters; a parameter it does not
list is left fixed. It is not verified on load: ``verify-symmetry`` checks
that it is a twisted involution leaving the field invariant. ``relation``
declares a word in the symmetry names (``*``, parentheses, ``^N``) that
should compose to the identity.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Collection

from .gaussian import GaussianRational
from .geometry import Chart, ChartMap, SymmetryMap, VectorField, identity_map
from .ratfunc import RationalFn
from .symbols import STATE, Symbol, SymbolTable, parameter, state

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[()+\-*/^]))")


class ExprError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"cannot tokenize {rest[:12]!r}")
        num, name, op = m.groups()
        out.append(num or name or ("^" if op == "**" else op))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], table: SymbolTable):
        self.tokens = tokens
        self.pos = 0
        self.table = table

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def pop(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> RationalFn:
        value = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self) -> RationalFn:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.pop()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFn:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.pop()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> RationalFn:
        tok = self.peek()
        if tok == "-":
            self.pop()
            return -self.factor()
        if tok == "+":
            self.pop()
            return self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.pop()
            sign = 1
            if self.peek() == "-":
                self.pop()
                sign = -1
            exp_tok = self.pop()
            if not exp_tok.isdigit():
                raise ExprError(f"expected integer exponent, got {exp_tok!r}")
            return base ** (sign * int(exp_tok))
        return base

    def atom(self) -> RationalFn:
        tok = self.pop()
        if tok == "(":
            value = self.expr()
            if self.pop() != ")":
                raise ExprError("missing closing parenthesis")
            return value
        if tok.isdigit():
            return RationalFn.const(self.table, int(tok))
        if tok == "i":
            return RationalFn.const(self.table, GaussianRational(0, 1))
        sym = self.table.get(tok)
        if sym is None:
            raise ExprError(f"unknown symbol {tok!r}")
        return RationalFn.var(self.table, sym)


def parse_expr(text: str, table: SymbolTable) -> RationalFn:
    return _Parser(tokenize(text), table).parse()


def parse_triple(text: str, table: SymbolTable) -> tuple[RationalFn, RationalFn, RationalFn]:
    parts = text.split(";")
    if len(parts) != 3:
        raise ExprError(f"expected three ';'-separated expressions, got {len(parts)}")
    return tuple(parse_expr(p, table) for p in parts)


def parse_param_map(text: str, table: SymbolTable) -> dict[Symbol, RationalFn]:
    """'p -> expr, ...' as a map of every parameter of ``table``, completed
    with the identity on the parameters the text does not list."""
    params = table.parameters()
    moved: dict[Symbol, RationalFn] = {}
    for item in filter(str.strip, text.split(",")):
        name, arrow, expr = item.partition("->")
        sym = table.get(name.strip())
        if not arrow or sym not in params:
            raise ExprError(f"expected 'parameter -> expression', got {item.strip()!r}")
        if sym in moved:
            raise ExprError(f"parameter {sym.name!r} is mapped twice")
        moved[sym] = parse_expr(expr, table)
        if any(s.kind == STATE for s in moved[sym].variables()):
            raise ExprError(f"the image of parameter {sym.name!r} involves state variables")
    return {p: moved[p] if p in moved else RationalFn.var(table, p) for p in params}


def parse_word(text: str, names: Collection[str]) -> tuple[str, ...]:
    """The letters of a word such as ``(s*pi)^2`` in the symmetry ``names``,
    with parentheses and powers expanded: ``('s', 'pi', 's', 'pi')``."""
    tokens = tokenize(text)[::-1]  # a stack, next token last

    def power() -> tuple[str, ...]:
        tok = tokens.pop() if tokens else "end of input"
        if tok == "(":
            letters = product()
            if not tokens or tokens.pop() != ")":
                raise ExprError(f"relation {text!r}: missing closing parenthesis")
        elif tok in names:
            letters = (tok,)
        else:
            raise ExprError(f"relation {text!r}: {tok!r} is not a declared symmetry")
        if tokens and tokens[-1] == "^":
            tokens.pop()
            n = tokens.pop() if tokens else ""
            if not n.isdigit() or int(n) < 1:
                raise ExprError(f"relation {text!r}: expected a positive integer exponent")
            letters *= int(n)
        return letters

    def product() -> tuple[str, ...]:
        letters = power()
        while tokens and tokens[-1] == "*":
            tokens.pop()
            letters += power()
        return letters

    letters = product()
    if tokens:
        raise ExprError(f"relation {text!r}: trailing input at {tokens[-1]!r}")
    return letters


# -- model files ------------------------------------------------------------------


class ModelFile:
    """Parsed contents of a model/atlas file over one symbol table.

    ``name`` is the built-in name or the path the file was loaded from. A
    model hashes by identity, and the results derived from it live on it,
    in ``_derived`` (``models.per_model``). Editing a parsed model is
    unsupported: its derived results would not follow the edit.
    """

    def __init__(self, table: SymbolTable, name: str):
        self.table = table
        self.name = name
        self.charts: dict[str, Chart] = {}
        self.maps: list[ChartMap] = []
        self.fields: dict[str, VectorField] = {}  # chart name -> field
        self.atlases: dict[str, tuple[str, ...]] = {}  # name -> charts
        self.symmetries: dict[str, SymmetryMap] = {}
        self.relations: dict[str, tuple[str, ...]] = {}  # word -> letters
        self._derived: dict = {}

    def chart(self, name: str) -> Chart:
        if name not in self.charts:
            raise KeyError(f"chart {name!r} not declared")
        return self.charts[name]

    @property
    def base(self) -> Chart:
        """The chart of the model's single ``system`` line."""
        if len(self.fields) != 1:
            raise ValueError(f"model {self.name} must define exactly one system")
        return next(iter(self.fields.values())).chart

    def atlas(self, name: str) -> list[ChartMap]:
        """The identity chart of the base, then the maps of atlas ``name``
        (every map out of the base when the model declares no atlas)."""
        base = self.base
        out = [m for m in self.maps if m.source == base]
        if self.atlases:
            if name not in self.atlases:
                raise KeyError(f"atlas {name!r} not declared; known: {sorted(self.atlases)}")
            by_target = {m.target.name: m for m in out}
            out = [by_target[c] for c in self.atlases[name]]
        return [self.identity] + out

    @cached_property
    def identity(self) -> ChartMap:
        """The identity map of the base chart, one object per model, so that
        results memoized per map hold for it too."""
        return identity_map(self.base, self.table)


def parse_model(text: str, name: str = "<model>") -> ModelFile:
    """Parse a model file (two passes: declarations, then expressions)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)

    symbols: list[Symbol] = []
    chart_specs: list[tuple[str, list[str], str]] = []  # name, variables, boundary or ''
    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "params":
            symbols.extend(parameter(n) for n in rest.split())
        elif head == "chart":
            chart_name, _, spec = rest.partition(":")
            spec, _, boundary = spec.partition("@")
            chart_name, var_names, boundary = chart_name.strip(), spec.split(), boundary.strip()
            if len(var_names) != 3:
                raise ExprError(f"chart {chart_name!r} needs exactly three variables")
            if any(name == chart_name for name, _, _ in chart_specs):
                raise ExprError(f"chart {chart_name!r} is declared twice")
            if boundary and boundary not in var_names:
                raise ExprError(f"chart {chart_name!r}: boundary symbol must be one of "
                                "the chart variables")
            chart_specs.append((chart_name, var_names, boundary))

    states = [state(n) for _, names, _ in chart_specs for n in names]
    table = SymbolTable(tuple(states) + tuple(symbols))
    model = ModelFile(table, name)
    for chart_name, var_names, boundary in chart_specs:
        vars3 = tuple(table.get(n) for n in var_names)
        bsym = table.get(boundary) if boundary else None
        model.charts[chart_name] = Chart(chart_name, vars3, boundary=bsym)

    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "system":
            chart_name, _, exprs = rest.partition(":")
            chart = model.chart(chart_name.strip())
            if chart.name in model.fields:
                raise ExprError(f"chart {chart.name!r} has a second system")
            model.fields[chart.name] = VectorField(chart, parse_triple(exprs, table))
        elif head == "map":
            spec, _, exprs = rest.partition(":")
            names = spec.split()
            if len(names) != 2:
                raise ExprError(f"map needs 'SOURCE TARGET', got {spec!r}")
            fwd_text, _, inv_text = exprs.partition("|")
            if not inv_text:
                raise ExprError("map needs 'forward-triple | inverse-triple'")
            if any((m.source.name, m.target.name) == tuple(names) for m in model.maps):
                raise ExprError(f"map {names[0]} {names[1]} is declared twice")
            cmap = ChartMap(
                model.chart(names[0]),
                model.chart(names[1]),
                parse_triple(fwd_text, table),
                parse_triple(inv_text, table),
            )
            model.maps.append(cmap)
        elif head == "atlas":
            atlas_name, _, chart_names = rest.partition(":")
            if atlas_name.strip() in model.atlases:
                raise ExprError(f"atlas {atlas_name.strip()!r} is declared twice")
            model.atlases[atlas_name.strip()] = tuple(chart_names.split())
        elif head not in ("params", "chart", "symmetry", "relation"):
            raise ExprError(f"unknown directive {head!r}")
    # symmetries act on the base chart, so they are read once every system is,
    # and relations once every symmetry is
    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "symmetry":
            sym_name, _, spec = rest.partition(":")
            sym_name = sym_name.strip()
            if not sym_name.isidentifier() or sym_name in model.symmetries:
                raise ExprError(f"symmetry name {sym_name!r} is not a fresh identifier")
            state_text, _, pmap_text = spec.partition("|")
            state_map = parse_triple(state_text, table)
            states = {s for c in state_map for s in c.variables() if s.kind == STATE}
            if not states <= set(model.base.vars):
                raise ExprError(f"symmetry {sym_name!r} uses variables outside the base chart")
            model.symmetries[sym_name] = SymmetryMap(
                sym_name, model.base, state_map, parse_param_map(pmap_text, table)
            )
    words = [line.partition(" ")[2].strip() for line in lines if line.startswith("relation ")]
    model.relations = {word: parse_word(word, model.symmetries) for word in words}
    if model.atlases:
        reached = {m.target.name for m in model.maps if m.source == model.base}
        for atlas_name, chart_names in model.atlases.items():
            missing = [c for c in chart_names if c not in reached]
            if missing:
                raise ExprError(f"atlas {atlas_name!r}: no map from the base chart to {missing}")
    return model


def load_model(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), path)


def render_model(model: ModelFile) -> str:
    """Serialize a model back into the file format, in declaration order, so
    that parsing the text rebuilds the same symbol table."""
    out = []
    params = model.table.parameters()
    if params:
        out.append("params " + " ".join(s.name for s in params))
    for c in model.charts.values():
        boundary = f" @ {c.boundary.name}" if c.boundary else ""
        out.append(f"chart {c.name} : {' '.join(s.name for s in c.vars)}{boundary}")
    for name, v in model.fields.items():
        exprs = " ; ".join(c.text() for c in v.components)
        out.append(f"system {name} : {exprs}")
    for m in model.maps:
        fwd = " ; ".join(f.text() for f in m.forward)
        inv = " ; ".join(g.text() for g in m.inverse)
        out.append(f"map {m.source.name} {m.target.name} : {fwd} | {inv}")
    for name, chart_names in model.atlases.items():
        out.append(f"atlas {name} : {' '.join(chart_names)}")
    for sigma in model.symmetries.values():
        state_text = " ; ".join(c.text() for c in sigma.state)
        pmap = ", ".join(f"{p.name} -> {e.text()}" for p, e in sigma.param_map.items())
        out.append(f"symmetry {sigma.name} : {state_text}" + (f" | {pmap}" if pmap else ""))
    for word in model.relations:
        out.append(f"relation {word}")
    return "\n".join(out) + "\n"
