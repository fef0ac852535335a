"""Base of the immutable value classes: plain classes, so that importing
hmideals does not import dataclasses (and with it inspect).  A subclass
lists its fields in _fields and __slots__ and binds them in __init__ with
object.__setattr__.  ==, hash, repr (as Name(field=value, ...)) and
pickling, which rebuilds through __init__, see the fields only."""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")
    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return (type(self), self._values())
