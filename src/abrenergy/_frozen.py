"""Frozen value classes, built without the ``dataclasses`` module.

``dataclasses`` imports ``inspect`` and compiles each class's methods from
generated source, a start-up cost every command would pay.  ``frozen``
gives a class the same behaviour from closures.
"""

from __future__ import annotations

from operator import attrgetter


def frozen(cls: type) -> type:
    """``cls`` as an immutable value over the fields its body annotates, in order.

    A field assigned in the class body takes that value as its default.
    Like ``@dataclass(frozen=True)``, the class gets:

    - ``__init__``, taking the fields by position or by name and raising
      TypeError for a missing, unknown or repeated argument; it then calls
      ``__post_init__``, looked up on each construction, when the class has
      one;
    - ``__eq__`` and ``__hash__`` over the fields, so a value equals only
      a value of the same class with equal fields;
    - ``__setattr__`` and ``__delattr__`` raising AttributeError;
    - a ``__repr__`` naming each field.

    The fields are instance attributes, stored in the instance ``__dict__``
    in one update, which ``functools.cached_property`` uses too; their names
    are the class attribute ``_fields``.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    known = frozenset(names)
    title = cls.__qualname__
    fields_of = attrgetter(*names)

    def bound(args: tuple, kwargs: dict) -> map:
        """Every field's value in order, from arguments other than one per field by position."""
        values = dict(zip(names, args))
        if len(args) > len(names) or not known.issuperset(kwargs) or values.keys() & kwargs.keys():
            raise TypeError(_argument_fault(title, names, args, kwargs))
        values = {**defaults, **values, **kwargs}
        if len(values) < len(names):
            missing = next(name for name in names if name not in values)
            raise TypeError(f"{title}() missing required argument {missing!r}")
        return map(values.__getitem__, names)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(names):
            args = bound(args, kwargs)
        self.__dict__.update(zip(names, args))
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields_of(self) == fields_of(other)

    def __hash__(self) -> int:
        return hash(fields_of(self))

    def __repr__(self) -> str:
        return f"{title}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    cls._fields = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _argument_fault(title: str, names: tuple, args: tuple, kwargs: dict) -> str:
    if len(args) > len(names):
        return f"{title}() takes {len(names)} arguments, got {len(args)} by position"
    name = next(name for name in kwargs if name not in names or names.index(name) < len(args))
    if name not in names:
        return f"{title}() got an unexpected keyword argument {name!r}"
    return f"{title}() got multiple values for argument {name!r}"


def _refuse_assignment(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _refuse_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
