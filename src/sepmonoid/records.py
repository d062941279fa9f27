"""Plain result records: what the library returns, without dataclasses.

A record's fields are the parameters of its own __init__, in order.  Two
records are equal when they are of the same class and their fields are
equal, and the repr is Name(field=value, ...), both as dataclasses generate
them; a class names in `_hidden` the fields that its repr leaves out.  A
Record is unhashable.  A FrozenRecord hashes on its fields and refuses
assignment, so its __init__ writes the fields into self.__dict__.
"""


class Record:
    _fields = _hidden = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
