"""Binary container for named tensors with per-section integrity checks.

Layout (all integers little-endian):

    magic "FNGI" | version u16 | section count u32
    per section:
        name length u16 | name bytes (utf-8)
        dtype tag u8 | rank u8 | extents u64 * rank
        payload length u64 | payload bytes | crc32 u32

The crc covers the payload only. A reader accepts version FORMAT_VERSION
and the four dtype tags of `_DTYPE_TAGS` alone: any other version or tag
is a malformed file. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"FNGI"
FORMAT_VERSION = 1

_DTYPE_TAGS = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.uint8): 2,
    np.dtype(np.int32): 3,
}
_TAG_DTYPES = {tag: dt for dt, tag in _DTYPE_TAGS.items()}


class StoreError(ValueError):
    """Malformed or corrupted tensor-store file."""


def encode_text(text):
    """Text payloads are stored as u8 sections."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def decode_text(array):
    return bytes(np.asarray(array, dtype=np.uint8)).decode("utf-8")


def write_sections(path, sections):
    """Write an ordered mapping name -> ndarray; atomic replace on success.
    Arrays are written as they are: a dtype outside `_DTYPE_TAGS` raises
    StoreError naming its section, and nothing is cast."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<HI", FORMAT_VERSION, len(sections))
    for name, array in sections.items():
        array = np.ascontiguousarray(array)
        if array.dtype not in _DTYPE_TAGS:
            raise StoreError(f"section {name!r} has unsupported dtype {array.dtype}")
        name_b = name.encode("utf-8")
        payload = array.tobytes()
        blob += struct.pack("<H", len(name_b)) + name_b
        blob += struct.pack("<BB", _DTYPE_TAGS[array.dtype], array.ndim)
        blob += struct.pack(f"<{array.ndim}Q", *array.shape)
        blob += struct.pack("<Q", len(payload))
        blob += payload
        blob += struct.pack("<I", zlib.crc32(payload))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)


def read_sections(path, required):
    """Read a tensor-store file into an ordered dict name -> ndarray.

    Every malformed file (truncated, corrupted, or with headers that
    disagree with its payloads) raises StoreError, and so does one that
    lacks a section named in `required`: the CRC does not cover a section's
    name, so a bit flip there still reads back, under another name.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    offset = 0

    def take(n):
        nonlocal offset
        if n > len(data) - offset:
            raise StoreError(f"{path}: truncated after {len(data)} bytes")
        offset += n
        return view[offset - n : offset]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != MAGIC:
        raise StoreError(f"{path}: bad magic")
    version, count = unpack("<HI")
    if version != FORMAT_VERSION:
        raise StoreError(f"{path}: unsupported format version {version}")
    out = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path}: section name is not utf-8") from exc
        tag, rank = unpack("<BB")
        shape = unpack(f"<{rank}Q")
        (payload_len,) = unpack("<Q")
        payload = take(payload_len)
        (crc,) = unpack("<I")
        if zlib.crc32(payload) != crc:
            raise StoreError(f"{path}: crc mismatch in section {name!r}")
        if tag not in _TAG_DTYPES:
            raise StoreError(f"{path}: unknown dtype tag {tag} in section {name!r}")
        dtype = _TAG_DTYPES[tag]
        if payload_len != math.prod(shape) * dtype.itemsize:
            raise StoreError(f"{path}: payload length mismatch in section {name!r}")
        try:
            out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        except (ValueError, OverflowError) as exc:  # an empty payload with a huge extent
            raise StoreError(f"{path}: bad shape {shape} in section {name!r}") from exc
    if offset != len(data):
        raise StoreError(f"{path}: trailing bytes after last section")
    missing = [name for name in required if name not in out]
    if missing:
        raise StoreError(f"{path}: missing required section(s) {', '.join(map(repr, missing))}")
    return out
