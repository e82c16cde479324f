"""Tensor records: the one text format of checkpoints, masks and scores.

A header line ``<magic> v2 <json object>``, then a ``<name> shape=d0,d1``
line and a body line per tensor: ``float.hex`` values (bit-exact) for
float64, a ``0``/``1`` string for bool. The last line is ``end``, so a file
cut anywhere, even between two records, is rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np

VERSION = "v2"


def write_records(path, magic: str, attrs: dict, records) -> None:
    """Write the header line, a name and a body line per (name, array), and ``end``."""
    lines = [f"{magic} {VERSION} {json.dumps(attrs, sort_keys=True)}"]
    for name, arr in records:
        lines.append(f"{name} shape={','.join(str(s) for s in arr.shape)}")
        if arr.dtype == np.bool_:
            lines.append("".join("1" if v else "0" for v in arr.ravel()))
        else:
            lines.append(" ".join(float.hex(float(v)) for v in arr.ravel()))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path, magic: str, dtype, keys: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of write_records: (header attributes, {name: array} in file order).

    ``keys`` maps each header attribute to its JSON type (``int``, ``float``,
    ``str``, ``list`` or ``dict``), and the header must hold exactly those.
    A wrong magic or version, or a cut or corrupt file, raises a ValueError
    naming the file and, where there is one, the record.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    want = f"{magic} {VERSION}"
    found = lines[0] if text else "<empty file>"
    if not found.startswith(want + " "):
        raise ValueError(f"unsupported header {found!r} in {path} (want {want!r})")
    if lines.pop() != "":
        raise ValueError(f"{path}: truncated file (no final newline)")
    if lines.pop() != "end":
        raise ValueError(f"{path}: truncated file (no 'end' line)")
    try:
        attrs = json.loads(found[len(want):])
        if not isinstance(attrs, dict) or sorted(attrs) != sorted(keys):
            raise ValueError(f"want a JSON object with keys {sorted(keys)}")
        for key, kind in keys.items():
            if type(attrs[key]) is not kind:  # not isinstance: true is no int
                raise ValueError(f"{key} is not a {kind.__name__}")
    except ValueError as err:
        raise ValueError(f"{path}: malformed header {found!r} ({err})") from None
    if len(lines) % 2 == 0:
        raise ValueError(f"{path}: record {lines[-1]!r} has no body line")
    records = {}
    for head_line, values in zip(lines[1::2], lines[2::2]):
        name, _, shape_text = head_line.rpartition(" shape=")
        try:
            shape = tuple(int(s) for s in shape_text.split(","))
            if dtype is bool and set(values) - {"0", "1"}:
                raise ValueError("bits other than 0/1")
            arr = np.array([ch == "1" for ch in values] if dtype is bool
                           else [float.fromhex(tok) for tok in values.split()], dtype=dtype)
            if not name or name in records:
                raise ValueError("repeated name" if name else "no name")
            if arr.size != math.prod(shape):
                raise ValueError(f"{arr.size} values for shape {shape}")
        except ValueError as err:
            raise ValueError(f"{path}: malformed record {head_line!r} ({err})") from None
        records[name] = arr.reshape(shape)
    return attrs, records
