"""Immutable value records whose methods are written once, here.

A record class lists its fields in ``__slots__``, in constructor order, and
the defaults of trailing fields in ``_defaults``. A slot whose name starts
with ``_`` holds a value derived from the fields, which the class's own
constructor sets; it is no field. :class:`Record` gives each such class a
constructor taking the fields by position or by name, immutability,
equality and hashing by the tuple of field values (a record equals only
records of its own class), weak references, and a ``Name(field=value, ...)``
repr. A dataclass compiles these methods afresh for every class at every
import, and no bytecode cache keeps them; a record class costs no more to
import than any other class.
"""

from __future__ import annotations


class Record:
    # the field values in slot order, kept whole so that equality and the hash
    # read one attribute; records may be weakly referenced
    __slots__ = ("_values", "__weakref__")
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # each field's own setter, which bypasses the refusing __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        set_values(self, args)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, from the positional and keyword arguments
        and then the defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)} values")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values[name] = value
        values = {**cls._defaults, **values}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} misses the fields {missing}")
        return tuple(values[name] for name in fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


# the setter of a record's tuple of field values, which a record class that
# sets its fields itself calls too
set_values = Record.__dict__["_values"].__set__
