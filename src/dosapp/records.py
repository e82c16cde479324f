"""Tensor records: the one text format of checkpoints, masks and scores.

Header lines, the first opening with the format's magic and version, then a
``<head> shape=d0,d1`` line and a body line per tensor: ``float.hex`` values
(bit-exact) for float64, a ``0``/``1`` string for bool. An optional ``end``
trailer tells a whole file from one cut between two records.
"""

from __future__ import annotations

import math

import numpy as np


def write_records(path, header: list[str], records, end: bool = False) -> None:
    """Write the header lines, then a head and a body line per (head, array)."""
    lines = list(header)
    for head, arr in records:
        lines.append(f"{head} shape={','.join(str(s) for s in arr.shape)}")
        if arr.dtype == np.bool_:
            lines.append("".join("1" if v else "0" for v in arr.ravel()))
        else:
            lines.append(" ".join(float.hex(float(v)) for v in arr.ravel()))
    if end:
        lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path, magic: str, dtype, header_lines: int = 1,
                 end: bool = False) -> tuple[list[str], list[tuple[str, np.ndarray]]]:
    """Inverse of write_records: (header lines, [(head, array)]) in file order.

    A wrong magic, or a cut or corrupt file, raises a ValueError naming the
    file and, where there is one, the record.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    found = lines[0] if text else "<empty file>"
    if found != magic and not found.startswith(magic + " "):
        raise ValueError(f"unsupported header {found!r} in {path} (want {magic!r})")
    if lines.pop() != "":
        raise ValueError(f"{path}: truncated file (no final newline)")
    if end and lines.pop() != "end":
        raise ValueError(f"{path}: truncated file (no 'end' line)")
    if len(lines) < header_lines:
        raise ValueError(f"{path}: truncated header ({len(lines)} of {header_lines} lines)")
    if (len(lines) - header_lines) % 2:
        raise ValueError(f"{path}: record {lines[-1]!r} has no body line")
    records = []
    for head_line, values in zip(lines[header_lines::2], lines[header_lines + 1::2]):
        head, _, shape_text = head_line.rpartition(" shape=")
        try:
            shape = tuple(int(s) for s in shape_text.split(","))
            if dtype is bool and set(values) - {"0", "1"}:
                raise ValueError("bits other than 0/1")
            arr = np.array([ch == "1" for ch in values] if dtype is bool
                           else [float.fromhex(tok) for tok in values.split()], dtype=dtype)
            if not head or arr.size != math.prod(shape):
                raise ValueError(f"{arr.size} values for shape {shape}" if head else "no name")
        except ValueError as err:
            raise ValueError(f"{path}: malformed record {head_line!r} ({err})") from None
        records.append((head, arr.reshape(shape)))
    return lines[:header_lines], records
