"""Binary field snapshots.

Layout: a 32-byte header followed by ``count`` blocks of nx*ny float64
samples, little endian, row major (x is the slow index).

Header (little endian)::

    offset  size  field
    0       4     magic  b"EULB"
    4       4     version, u32
    8       4     nx, u32
    12      4     ny, u32
    16      4     count, u32 (number of field blocks)
    20      4     padding (zeros)
    24      8     time, f64
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Sequence

import numpy as np

MAGIC = b"EULB"
VERSION = 1
_HEADER = struct.Struct("<4sIIII4xd")

assert _HEADER.size == 32


def _replace(path: str | os.PathLike, chunks: Iterable) -> None:
    """Write ``chunks`` (bytes-like) in turn to a temp file beside ``path``,
    then rename it over ``path``; on any failure the temp file is removed.
    A snapshot passes its field blocks as chunks, so they are never joined
    into one bytes object."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` by temp file and rename, so readers never
    see a partial file and a failed write leaves none behind."""
    _replace(path, (data,))


def write_snapshot(path: str | os.PathLike, fields: Sequence[np.ndarray], time: float) -> None:
    """Write field blocks atomically (temp file + rename)."""
    fields = [np.ascontiguousarray(f, dtype="<f8") for f in fields]
    if not fields:
        raise ValueError("at least one field block is required")
    nx, ny = fields[0].shape
    for f in fields:
        if f.shape != (nx, ny):
            raise ValueError("all field blocks must share one shape")
    _replace(path, (_HEADER.pack(MAGIC, VERSION, nx, ny, len(fields), float(time)), *fields))


def read_snapshot(path: str | os.PathLike) -> tuple[list[np.ndarray], float]:
    """Read back (fields, time); validates magic and length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("snapshot file too short")
    magic, version, nx, ny, count, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a field snapshot")
    if version != VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    expected = _HEADER.size + count * nx * ny * 8
    if len(raw) != expected:
        raise ValueError(f"snapshot length {len(raw)} != expected {expected}")
    block = nx * ny * 8
    fields = []
    for i in range(count):
        start = _HEADER.size + i * block
        arr = np.frombuffer(raw[start:start + block], dtype="<f8").reshape(nx, ny)
        fields.append(arr.copy())
    return fields, float(time)
