"""Text laid out from columns of formatted cells, shared by the JSON and CSV writers."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, repeat


def lay_out(columns: Sequence[Sequence[str]], template: Sequence[str]) -> str:
    """Rows of cells as text: for each row, ``template[0]``, the row's first
    cell, ``template[1]``, its second cell, and so on, ending with
    ``template[-1]``."""
    pieces: list[Iterable[str]] = []
    for text, column in zip(template, columns):
        pieces += (repeat(text), column)
    pieces.append(repeat(template[-1]))
    return "".join(chain.from_iterable(zip(*pieces)))
