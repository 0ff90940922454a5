"""Test helpers for the package's frozen value classes."""

from __future__ import annotations


def replace(obj: object, /, **changes: object) -> object:
    """A new value of ``obj``'s class with ``changes`` to its fields, checked
    again by ``__post_init__``."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
