"""The base class of the package's immutable value types."""

# sets a field of a Frozen instance, which its own __setattr__ refuses
set_field = object.__setattr__


class Frozen:
    """An immutable value whose fields, in order, are named in ``_fields``.

    ``__init__`` sets each field with ``set_field``; after that no attribute
    can be assigned or deleted.  ``repr`` is ``Name(field=value, ...)`` and
    a copy or pickle is rebuilt through ``__init__``.  Each subclass writes
    its own ``__eq__`` (the field tuples of two instances of the same class,
    ``NotImplemented`` for any other operand) and ``__hash__`` (the hash of
    that tuple), which run faster than one generic pair over ``_fields``."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
