"""Plain-text symmetric matrix files.

Format: first line holds the dimension d, then d lines of d
whitespace-separated finite decimals.  ``nan`` and ``inf`` entries are
rejected with their location.  Symmetry is validated at 1e-12 relative
tolerance and asymmetric input is rejected outright.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError
from .matcore import SYM_TOL, symmetric_part


def load_symmetric_matrix(path) -> np.ndarray:
    """Parse a matrix file; raise :class:`MatrixParseError` with the location."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixParseError("missing dimension header", line=1, column=1)
    header = lines[0].strip()
    try:
        d = int(header)
    except ValueError:
        raise MatrixParseError(f"first line must be the dimension, got {header!r}",
                               line=1, column=1) from None
    if d < 1:
        raise MatrixParseError(f"dimension must be positive, got {d}", line=1, column=1)

    data = lines[1:]
    while data and not data[-1].strip():
        data.pop()
    if len(data) != d:
        raise MatrixParseError(f"expected {d} matrix rows, found {len(data)}",
                               line=1 + len(data) + 1)

    rows = []
    for line_no, raw in enumerate(data, start=2):
        tokens = raw.split()
        if len(tokens) != d:
            raise MatrixParseError(f"expected {d} entries, found {len(tokens)}",
                                   line=line_no, column=len(tokens) + 1)
        values = []
        for col, token in enumerate(tokens, start=1):
            try:
                value = float(token)
            except ValueError:
                raise MatrixParseError(f"invalid number {token!r}",
                                       line=line_no, column=col) from None
            if not math.isfinite(value):
                raise MatrixParseError(f"non-finite number {token!r}",
                                       line=line_no, column=col)
            values.append(value)
        rows.append(values)

    m = np.array(rows, dtype=float)
    scale = float(np.max(np.abs(m)))
    asym = np.abs(m - m.T)
    if float(asym.max()) > SYM_TOL * scale:
        i, j = divmod(int(np.argmax(asym)), d)
        raise MatrixParseError(
            f"matrix is not symmetric: entry ({i + 1},{j + 1}) != entry ({j + 1},{i + 1})",
            line=i + 2, column=j + 1,
        )
    return symmetric_part(m)


def dump_symmetric_matrix(m) -> str:
    """Render a square matrix in the file format accepted by the loader."""
    a = np.asarray(m, dtype=float)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
