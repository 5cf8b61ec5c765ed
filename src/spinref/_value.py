"""The shared base of spinref's value types.

A value class lists its fields in ``__slots__``, in order.  One that only
stores its arguments writes no ``__init__``: ``Value.__init__`` takes one
value per field, by position or name.  One that checks, derives or
defaults a field writes its own, storing each field with ``set_field``.
An instance equals only an instance of the same class with equal fields,
hashes as the tuple of its fields, prints as ``Name(field=value, ...)``,
pickles and copies, and refuses assignment and deletion with
AttributeError.  A subclass that adds no field declares ``__slots__ = ()``.
An instance with a dict field is unhashable, as the tuple of its fields is.
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

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # by name exactly the fields that the positional arguments leave
            if len(args) > len(fields) or kwargs.keys() != set(fields[len(args):]):
                raise TypeError(f"{self.__class__.__qualname__}({', '.join(fields)}) takes one "
                                f"value per field, got {len(args)} and names {sorted(kwargs)}")
            for name, value in kwargs.items():
                set_field(self, name, value)
        for name, value in zip(fields, args):
            set_field(self, name, value)

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
        Value.__init__(self, *state)
