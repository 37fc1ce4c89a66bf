"""Immutable slotted records, for those a ``NamedTuple`` cannot hold: one with its own
``__len__`` (which ``_make`` and ``_replace`` read) or with state beyond its fields.

Equality, hash and ``repr`` follow the ``_fields`` as a frozen dataclass's do, without
the cold-start cost of importing ``dataclasses`` (and with it ``inspect``).
"""


class Record:
    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):  # copy and pickle rebuild a record from its class and field values
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
