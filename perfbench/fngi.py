"""Stand-alone reader and writer for the `.fngi` tensor container.

Written from the layout documented in `fungi/store.py`, not by importing it,
so the benchmark checks the program's files with its own decoder: a file
the program wrote must parse here, with every section's CRC intact.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"FNGI"
_TAGS = {0: np.float32, 1: np.float64, 2: np.uint8, 3: np.int32}
_DTYPES = {np.dtype(dt): tag for tag, dt in _TAGS.items()}


class FngiError(ValueError):
    """The bytes are not a well-formed container or a CRC does not match."""


def read(path):
    """Ordered dict name -> ndarray; raises FngiError on any defect."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise FngiError(f"{path}: bad magic")
    try:
        _version, count = struct.unpack_from("<HI", data, 4)
        offset = 10
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            tag, rank = struct.unpack_from("<BB", data, offset)
            offset += 2
            shape = struct.unpack_from(f"<{rank}Q", data, offset)
            offset += 8 * rank
            (length,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            payload = data[offset : offset + length]
            offset += length
            (crc,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if len(payload) != length or zlib.crc32(payload) != crc:
                raise FngiError(f"{path}: crc mismatch in section {name!r}")
            if tag in _TAGS:
                out[name] = np.frombuffer(payload, dtype=_TAGS[tag]).reshape(shape)
    except (struct.error, ValueError) as exc:
        raise FngiError(f"{path}: truncated ({exc})") from exc
    if offset != len(data):
        raise FngiError(f"{path}: trailing bytes")
    return out


def write(path, sections):
    """Write name -> ndarray (float32/float64/uint8/int32) or str sections."""
    blob = bytearray(MAGIC + struct.pack("<HI", 1, len(sections)))
    for name, value in sections.items():
        if isinstance(value, str):
            value = np.frombuffer(value.encode("utf-8"), dtype=np.uint8)
        array = np.ascontiguousarray(value)
        name_b = name.encode("utf-8")
        payload = array.tobytes()
        blob += struct.pack("<H", len(name_b)) + name_b
        blob += struct.pack("<BB", _DTYPES[array.dtype], array.ndim)
        blob += struct.pack(f"<{array.ndim}Q", *array.shape)
        blob += struct.pack("<Q", len(payload)) + payload
        blob += struct.pack("<I", zlib.crc32(payload))
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
