"""Tensor records: the one file format of checkpoints and masks.

A header line ``<magic> v4 <json object>``, then a ``<name> shape=d0,d1``
line and a body line per tensor: the base64 of the array's raw bytes,
little-endian float64 (bit-exact) or one byte of 0/1 per bool. The last
line is ``end sha256=<hex>``, the digest of every byte before it, so a file
cut anywhere or changed in any byte is rejected.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math

import numpy as np

VERSION = "v4"


def _wire(dtype) -> np.dtype:
    return np.dtype(np.uint8 if dtype in (bool, np.bool_) else "<f8")


def write_records(path, magic: str, attrs: dict, records) -> None:
    """Write the header line, a name and a body line per (name, array), and the end line;
    a record read_records could not read back raises a ValueError before the file opens."""
    lines = [f"{magic} {VERSION} {json.dumps(attrs, sort_keys=True)}".encode()]
    names = set()
    for name, arr in records:
        if not name or name in names or "\n" in name or "\r" in name or arr.ndim == 0:
            raise ValueError(f"{path}: cannot write record {name!r} of shape {arr.shape} (no name, "
                             "a repeated or multi-line name, or a 0-d array)")
        if arr.dtype != np.bool_ and not np.isfinite(arr).all():
            raise ValueError(f"{path}: cannot write record {name!r}: it holds a nan or inf")
        names.add(name)
        lines.append(f"{name} shape={','.join(str(s) for s in arr.shape)}".encode())
        lines.append(base64.b64encode(arr.astype(_wire(arr.dtype), copy=False).tobytes()))
    body = b"\n".join(lines) + b"\n"
    with open(path, "wb") as fh:
        fh.write(body + f"end sha256={hashlib.sha256(body).hexdigest()}\n".encode())


def read_records(path, magic: str, dtype, keys: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of write_records: (header attributes, {name: array} in file order).

    ``keys`` maps each header attribute to its JSON type (``int``, ``float``,
    ``str``, ``list`` or ``dict``), and the header must hold exactly those.
    A wrong magic or version, or a cut or corrupt file, raises a ValueError
    naming the file and, where there is one, the record.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    want = f"{magic} {VERSION}"
    if not data.startswith(want.encode() + b" "):
        found = data.split(b"\n", 1)[0].decode(errors="replace") if data else "<empty file>"
        raise ValueError(f"unsupported header {found!r} in {path} (want {want!r})")
    if not data.endswith(b"\n"):
        raise ValueError(f"{path}: truncated file (no final newline)")
    body, _, end = data[:-1].rpartition(b"\n")
    if not end.startswith(b"end sha256="):
        raise ValueError(f"{path}: truncated file (no 'end' line)")
    if end[len(b"end sha256="):] != hashlib.sha256(body + b"\n").hexdigest().encode():
        raise ValueError(f"{path}: checksum mismatch (the file was changed after it was written)")
    try:
        lines = body.decode().split("\n")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err})") from None
    try:
        attrs = json.loads(lines[0][len(want):])
        if not isinstance(attrs, dict) or sorted(attrs) != sorted(keys):
            raise ValueError(f"want a JSON object with keys {sorted(keys)}")
        for key, kind in keys.items():
            if type(attrs[key]) is not kind:  # not isinstance: true is no int
                raise ValueError(f"{key} is not a {kind.__name__}")
    except ValueError as err:
        raise ValueError(f"{path}: malformed header {lines[0]!r} ({err})") from None
    if len(lines) % 2 == 0:
        raise ValueError(f"{path}: record {lines[-1]!r} has no body line")
    wire = _wire(dtype)
    records = {}
    for head_line, values in zip(lines[1::2], lines[2::2]):
        name, _, shape_text = head_line.rpartition(" shape=")
        try:
            shape = tuple(int(s) for s in shape_text.split(","))
            raw = base64.b64decode(values, validate=True)
            if not name or name in records:
                raise ValueError("repeated name" if name else "no name")
            if len(raw) != math.prod(shape) * wire.itemsize:
                raise ValueError(f"{len(raw)} bytes for shape {shape}")
            arr = np.frombuffer(raw, wire)
            if dtype is bool and (arr > 1).any():
                raise ValueError("bits other than 0/1")
            if dtype is not bool and not np.isfinite(arr).all():
                raise ValueError("a nan or inf value")
            records[name] = arr.astype(dtype).reshape(shape)
        except ValueError as err:  # binascii.Error is one too
            raise ValueError(f"{path}: malformed record {head_line!r} ({err})") from None
    return attrs, records
