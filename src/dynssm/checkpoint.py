"""Flat binary container for named parameter arrays.

Layout (all integers little-endian):
  magic "DYNS" | format version u32 | records until EOF
  record: name length u32 | UTF-8 name | rank u32 | extents u64[rank]
          | row-major float64 payload
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ParseError

MAGIC = b"DYNS"
VERSION = 2
V1_DROPPED = "encoder.attn.bk"   # v2: v1's layout, without the dead key bias


def save_params(path, params: Mapping[str, np.ndarray]) -> None:
    """Write named arrays to ``path``; values are stored as float64.

    The file is written whole to ``<path>.tmp`` beside it, synced, and then
    renamed over ``path``, so a failure leaves any previous file intact.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
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
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_params(path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_params`.

    Raises ParseError on a bad header, a truncated record or a repeated name.
    A v1 file is read without its ``V1_DROPPED`` record.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version not in (1, VERSION):
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
        except (struct.error, UnicodeDecodeError) as e:
            raise ParseError(f"{path}: truncated or corrupt record at byte {pos}: {e}")
        count = math.prod(shape)   # Python ints: np.prod wraps or overflows
        if 8 * count > len(raw) - pos:
            raise ParseError(f"{path}: payload for {name!r} runs past end of file")
        try:   # (0, 2**63) passes the byte check, but numpy cannot make it
            arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(shape)
        except ValueError as e:
            raise ParseError(f"{path}: extents {shape} of {name!r}: {e}")
        pos += 8 * count
        if name in out:
            raise ParseError(f"{path}: duplicate record name {name!r}")
        out[name] = arr.astype(np.float64)
    if version == 1:
        out.pop(V1_DROPPED, None)
    return out
