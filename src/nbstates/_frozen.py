"""The immutable base of the package's value types.

A subclass names its fields in ``_fields`` and its slots in ``__slots__``,
and its ``__init__`` stores each field with ``_store`` once it is checked.
Instances compare and hash by the tuple of their fields and show them as
``Name(field=value, ...)``; a type whose fields hold arrays sets ``__eq__``
and ``__hash__`` back to ``object``'s and compares by identity.  Assigning
or deleting an attribute raises AttributeError.  No method of such a class
is generated or compiled when its module is imported.
"""


class Frozen:
    __slots__ = ()
    _fields = ()

    def _store(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
