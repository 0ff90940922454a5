"""Text laid out from columns of formatted cells, shared by the JSON and CSV writers,
and the format version that every saved report, fit and points file carries."""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from itertools import chain, repeat

#: The ``schema`` of the reports, fits and points files this version writes,
#: and the only one it reads.
SCHEMA = 2


def lay_out(columns: Iterable[Iterable[str]], template: Sequence[str]) -> str:
    """Rows of cells as text: for each row, ``template[0]``, the row's first
    cell, ``template[1]``, its second cell, and so on, ending with
    ``template[-1]``."""
    pieces: list[Iterable[str]] = []
    for text, column in zip(template, columns):
        pieces += (repeat(text), column)
    pieces.append(repeat(template[-1]))
    return "".join(chain.from_iterable(zip(*pieces)))


def json_array(keys: Sequence[str], columns: Sequence[Sequence[str]], depth: int) -> str:
    """A JSON array of objects as ``json.dumps(..., indent=2)`` writes it for
    a key indented ``depth`` levels: row ``i``'s object maps each key to its
    column's ``i``-th cell, which is already JSON text."""
    if not columns[0]:
        return "[]"
    outer = "\n" + "  " * depth
    item = outer + "  "
    # each object starts with the comma that separates it from the one before
    template = [
        ("," if i else "," + item + "{") + item + "  " + json.dumps(key) + ": "
        for i, key in enumerate(keys)
    ]
    return "[" + lay_out(columns, [*template, item + "}"])[1:] + outer + "]"
