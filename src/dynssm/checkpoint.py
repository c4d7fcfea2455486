"""Flat binary container for named parameter arrays.

Layout (all integers little-endian):
  magic "DYNS" | format version u32 | records until EOF
  record: name length u32 | UTF-8 name | rank u32 | extents u64[rank]
          | row-major float64 payload
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ParseError

MAGIC = b"DYNS"
VERSION = 1


def save_params(path, params: Mapping[str, np.ndarray]) -> None:
    """Write named arrays to ``path``; values are stored as float64."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name, arr in params.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype("<f8").tobytes(order="C"))


def load_params(path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_params`.

    Raises ParseError on a bad header, a truncated record or a repeated name.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise ParseError(f"{path}: unsupported container version {version}")
    pos = 8
    out: dict[str, np.ndarray] = {}
    while pos < len(raw):
        try:
            (name_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}Q", raw, pos)
            pos += 8 * rank
            count = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
            pos += 8 * count
        except (struct.error, UnicodeDecodeError, ValueError) as e:
            raise ParseError(f"{path}: truncated or corrupt record at byte {pos}: {e}")
        if pos > len(raw):
            raise ParseError(f"{path}: payload for {name!r} runs past end of file")
        if name in out:
            raise ParseError(f"{path}: duplicate record name {name!r}")
        out[name] = arr.reshape(shape).astype(np.float64)
    return out
