"""Immutable records: the shared behaviour of the package's value types.

Equality, hashing, the repr, immutability, copying and replace live once
in this base class, so no module generates or compiles per-class code at
import.
"""

_set = object.__setattr__


class Record:
    """Base of an immutable value whose fields are its __slots__, in order.

    A subclass names its fields in __slots__; its own __init__ takes the
    constructor arguments and passes every field value, in __slots__
    order, to _assign.
    Records compare equal when they are of the same class with equal field
    tuples, hash as that tuple, and cannot be assigned to.
    """

    __slots__ = ()

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        self._assign(*state)

    def replace(self, **changes):
        """A copy with the given constructor arguments changed."""
        code = type(self).__init__.__code__
        params = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
        for name in changes:
            if name in self.__slots__ and name not in params:
                raise ValueError("field %s is derived, it cannot be given "
                                 "to replace()" % name)
        return type(self)(**{name: changes.pop(name, getattr(self, name))
                             for name in params}, **changes)
