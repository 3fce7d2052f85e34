"""The Dataset record and the one CSV writer that renders every command.

Comment lines are prefixed with '#', and every cell is printed with str: a
float as its repr, so it round-trips losslessly, an int as its digits and a
string as is.  The text comes in blocks of at most BLOCK_ROWS rows, so a
caller can write it block by block.
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


def csv_blocks(ds: Dataset) -> Iterator[str]:
    """The CSV text of ds: the meta comments and header, the rows
    BLOCK_ROWS at a time, then the footer comments."""
    check_type("ds", ds, Dataset)
    yield "".join(f"# {line}\n" for line in ds.meta) + ",".join(ds.columns) + "\n"
    for start in range(0, len(ds.rows), BLOCK_ROWS):
        block = ds.rows[start : start + BLOCK_ROWS]
        rows = block.tolist() if isinstance(block, np.ndarray) else block
        yield "".join([",".join(map(str, row)) + "\n" for row in rows])
    yield "".join(f"# {line}\n" for line in ds.footer)


def to_csv(ds: Dataset) -> str:
    """The dataset as CSV text: meta comments, header, rows, footer comments."""
    return "".join(csv_blocks(ds))
