"""The Dataset record and the one CSV writer that renders every command.

Comment lines are prefixed with '#', numbers are printed with repr so they
round-trip losslessly, and a string cell is written as is.  The text comes
in blocks of at most BLOCK_ROWS rows, so a caller can write it block by block.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import check_type

BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class Dataset:
    meta: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple, ...] | np.ndarray  # row tuples, or a 2-D float array of rows
    footer: tuple[str, ...] = ()


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def csv_blocks(ds: Dataset) -> Iterator[str]:
    """The CSV text of ds: the meta comments and header, the rows
    BLOCK_ROWS at a time, then the footer comments."""
    check_type("ds", ds, Dataset)
    yield "".join(f"# {line}\n" for line in ds.meta) + ",".join(ds.columns) + "\n"
    floats = isinstance(ds.rows, np.ndarray)  # its tolist() gives Python floats: repr each
    cell = repr if floats else _cell
    for start in range(0, len(ds.rows), BLOCK_ROWS):
        block = ds.rows[start : start + BLOCK_ROWS]
        yield "".join([",".join(map(cell, row)) + "\n" for row in (block.tolist() if floats else block)])
    yield "".join(f"# {line}\n" for line in ds.footer)


def to_csv(ds: Dataset) -> str:
    """The dataset as CSV text: meta comments, header, rows, footer comments."""
    return "".join(csv_blocks(ds))
