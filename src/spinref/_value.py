"""The shared base of spinref's value types.

A value class lists its fields in ``__slots__``, in order, and stores them
in its own ``__init__`` with ``set_field``.  An instance then equals only
an instance of the same class with equal fields, hashes as the tuple of
its fields, prints as ``Name(field=value, ...)``, pickles and copies, and
refuses assignment and deletion with AttributeError.  A subclass that adds
no field declares ``__slots__ = ()``.  An instance with a dict field is
unhashable, as the tuple of its fields is.
"""

from __future__ import annotations

from operator import attrgetter

# Stores a field from __init__, past Value.__setattr__.
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += cls.__dict__.get("__slots__", ())
        # the bare value for one field, a tuple for more
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        if len(cls._fields) == 1:
            def __hash__(self):
                return hash((key(self),))
        else:
            def __hash__(self):
                return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            set_field(self, name, value)
