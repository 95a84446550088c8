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

``system`` attaches a vector field to a declared chart; ``map`` gives the
forward triple (in source variables) and the inverse triple (in target
variables), which is verified symbolically on load. ``atlas`` names a list of
charts reached by maps out of the base chart (the chart of the ``system``
line); a file without ``atlas`` lines uses every map out of its base chart
under every atlas name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .gaussian import GaussianRational
from .geometry import Chart, ChartMap, VectorField, identity_map
from .ratfunc import RationalFn
from .symbols import Symbol, SymbolTable, parameter, state

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


# -- model files ------------------------------------------------------------------


@dataclass
class ModelFile:
    """Parsed contents of a model/atlas file over one symbol table.

    ``name`` is the built-in name or the path the file was loaded from.
    """

    table: SymbolTable
    name: str = "<model>"
    charts: dict[str, Chart] = field(default_factory=dict)
    maps: list[ChartMap] = field(default_factory=list)
    fields: dict[str, VectorField] = field(default_factory=dict)  # chart name -> field
    atlases: dict[str, tuple[str, ...]] = field(default_factory=dict)  # name -> charts

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
        return [identity_map(base, self.table)] + out


def parse_model(text: str, name: str = "<model>") -> ModelFile:
    """Parse a model file (two passes: declarations, then expressions)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)

    symbols: list[Symbol] = []
    chart_specs: list[tuple[str, list[str], str | None]] = []
    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "params":
            symbols.extend(parameter(n) for n in rest.split())
        elif head == "chart":
            chart_name, _, spec = rest.partition(":")
            spec, _, boundary = spec.partition("@")
            var_names = spec.split()
            if len(var_names) != 3:
                raise ExprError(f"chart {chart_name.strip()!r} needs exactly three variables")
            chart_specs.append((chart_name.strip(), var_names, boundary.strip() or None))

    states = [state(n) for _, names, _ in chart_specs for n in names]
    table = SymbolTable(tuple(states) + tuple(symbols))
    model = ModelFile(table=table, name=name)
    for chart_name, var_names, boundary in chart_specs:
        vars3 = tuple(table.get(n) for n in var_names)
        bsym = table.get(boundary) if boundary else None
        model.charts[chart_name] = Chart(chart_name, vars3, boundary=bsym)

    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "system":
            chart_name, _, exprs = rest.partition(":")
            chart = model.chart(chart_name.strip())
            model.fields[chart.name] = VectorField(chart, parse_triple(exprs, table))
        elif head == "map":
            spec, _, exprs = rest.partition(":")
            names = spec.split()
            if len(names) != 2:
                raise ExprError(f"map needs 'SOURCE TARGET', got {spec!r}")
            fwd_text, _, inv_text = exprs.partition("|")
            if not inv_text:
                raise ExprError("map needs 'forward-triple | inverse-triple'")
            cmap = ChartMap(
                model.chart(names[0]),
                model.chart(names[1]),
                parse_triple(fwd_text, table),
                parse_triple(inv_text, table),
            )
            model.maps.append(cmap)
        elif head == "atlas":
            atlas_name, _, chart_names = rest.partition(":")
            model.atlases[atlas_name.strip()] = tuple(chart_names.split())
        elif head in ("params", "chart"):
            continue
        else:
            raise ExprError(f"unknown directive {head!r}")
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
    return "\n".join(out) + "\n"
