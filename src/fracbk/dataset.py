"""The Dataset record and the one CSV writer that renders every command.

Comment lines are prefixed with '#', numbers are printed with repr so they
round-trip losslessly, and a string cell is written as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Dataset:
    name: str
    meta: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    footer: tuple[str, ...] = ()


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def to_csv(ds: Dataset) -> str:
    """The dataset as CSV text: meta comments, header, rows, footer comments."""
    lines = [f"# {line}" for line in ds.meta]
    lines.append(",".join(ds.columns))
    lines.extend(",".join(_cell(v) for v in row) for row in ds.rows)
    lines.extend(f"# {line}" for line in ds.footer)
    return "\n".join(lines) + "\n"
