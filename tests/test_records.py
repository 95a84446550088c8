import weakref

import pytest

from threewave.geometry import Chart, VectorField
from threewave.numerics import TrajectoryPoint
from threewave.ratfunc import RationalFn
from threewave.records import Record
from threewave.singular import AccessiblePoint, Balance
from threewave.symbols import Symbol, SymbolTable, table

T = table("x", "y", "z", "a:parameter")
X, Y, Z, A = T.symbols
CHART = Chart("U1", (X, Y, Z), boundary=X)


def _one(value):
    return RationalFn.const(T, value)


class Pair(Record):
    __slots__ = ("left", "right")


class Other(Record):
    __slots__ = ("left", "right")


class Triple(Record):
    __slots__ = ("left", "right", "tail")
    _defaults = {"tail": ()}


# per record class: a record, one equal to it built apart, one that differs
# in a single field, and a field to assign to
CASES = {
    "Symbol": (Symbol("a", "parameter"), Symbol(name="a", kind="parameter"), Symbol("a"), "name"),
    "Chart": (CHART, Chart("U1", (X, Y, Z), X), Chart("U1", (X, Y, Z)), "boundary"),
    "SymbolTable": (T, SymbolTable(iter([X, Y, Z, A])), table("x", "y", "z"), "symbols"),
    "VectorField": (
        VectorField(CHART, (_one(0), _one(1), _one(2))),
        VectorField(CHART, [_one(0), _one(1), _one(2)]),
        VectorField(CHART, (_one(0), _one(1), _one(3))),
        "components",
    ),
    "AccessiblePoint": (
        AccessiblePoint(CHART, (_one(0), _one(1), _one(2))),
        AccessiblePoint(chart=CHART, coords=(_one(0), _one(1), _one(2)), multiplicity=1),
        AccessiblePoint(CHART, (_one(0), _one(1), _one(2)), 2),
        "coords",
    ),
    "Balance": (
        Balance((1, 1, 2), (_one(1), _one(2), _one(3))),
        Balance((1, 1, 2), (_one(1), _one(2), _one(3)), ()),
        Balance((1, 1, 2), (_one(1), _one(2), _one(3)), ("lead1",)),
        "exponents",
    ),
    "TrajectoryPoint": (
        TrajectoryPoint(0.5j, (1j, 2j, 3j), "U0"),
        TrajectoryPoint(t=0.5j, state=(1j, 2j, 3j), chart="U0", err=0.0),
        TrajectoryPoint(0.5j, (1j, 2j, 3j), "U0", 1e-3),
        "t",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_records_compare_and_hash_by_value_and_refuse_assignment(name):
    record, same, other, field = CASES[name]
    assert record == same and record is not same and hash(record) == hash(same)
    assert record != other and not record == other
    assert {record: 1}[same] == 1 and len({record, same, other}) == 2
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


# a NamedTuple is a tuple, which takes no weak reference
@pytest.mark.parametrize("name", [name for name in CASES if name != "TrajectoryPoint"])
def test_records_may_be_weakly_referenced(name):
    record = CASES[name][0]
    assert weakref.ref(record)() is record


def test_a_symbol_tables_name_index_is_derived_and_no_field():
    assert SymbolTable._fields == ("symbols",) and T.index("z") == 2 and T.get("w") is None
    assert repr(T) == "SymbolTable(x, y, z, a)"
    with pytest.raises(AttributeError):
        T._index = {}
    with pytest.raises(ValueError, match="duplicate symbol names"):
        SymbolTable([X, Symbol("x")])


def test_a_record_equals_only_records_of_its_own_class():
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Other(1, 2)
    assert Pair(1, 2) != (1, 2) and hash(Pair(1, 2)) == hash((1, 2))  # a dataclass's hash
    assert repr(Pair(1, "b")) == "Pair(left=1, right='b')"
    pair = Pair(1, 2)
    assert weakref.ref(pair)() is pair


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, "misses the fields"),
    ((1, 2, 3, 4), {}, "takes 3 fields"),
    ((1, 2), {"left": 1}, "unknown or repeated field 'left'"),
    ((1, 2), {"other": 1}, "unknown or repeated field 'other'"),
])
def test_a_record_refuses_arguments_that_do_not_name_its_fields(args, kwargs, message):
    assert Triple(1, 2) == Triple(1, 2, ()) == Triple(right=2, left=1)
    with pytest.raises(TypeError, match=message):
        Triple(*args, **kwargs)


def test_symbols_and_charts_keep_their_validation():
    with pytest.raises(ValueError, match="unknown symbol kind"):
        Symbol("x", "constant")
    with pytest.raises(ValueError, match="invalid symbol name"):
        Symbol("i")
    with pytest.raises(ValueError, match="three-dimensional"):
        Chart("C", (X, Y))
    with pytest.raises(ValueError, match="boundary symbol"):
        Chart("C", (X, Y, Z), boundary=A)
