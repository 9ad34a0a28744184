"""How every artifact file is framed, and how a malformed one is rejected.

A binary artifact (the P2CI index, the P2CM model) is a magic,
little-endian u32 header fields, then payload blocks: `pack` writes one
and `Reader` walks one from the front. `read_file` reads a whole
artifact into one writable buffer, so `Reader.array` hands out views of
its blocks in place, with no copy. A JSON document (the index manifest,
a config file) is one UTF-8 JSON object, read by `decode_json`. Every
short read, bad magic, trailing byte, undecodable or too deeply nested
document and non-object root raises FormatError naming the artifact
and the part, as does a NaN or infinity in a float block read by
`Reader.f4` or checked by `finite` (the model's tower weights, the
index's embeddings); a writer's `f4` refuses the same blocks before
any file is opened. A document's fields are checked where they are
read: the index manifest's by `PatchIndex.category_records`, a config
file's by `config.from_dict`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from typing import Sequence

import numpy as np

from .errors import FormatError


def pack(magic: bytes, header: Sequence[int], *blocks) -> bytes:
    """magic, each header field as a u32, then the blocks' bytes in order.

    A block is bytes or a C-contiguous array, written in its own dtype.
    """
    return b"".join([magic, struct.pack(f"<{len(header)}I", *header), *blocks])


def f4(what: str, part: str, *arrays) -> list[np.ndarray]:
    """The arrays as finite C-contiguous little-endian f32 blocks for `pack`."""
    return [finite(np.ascontiguousarray(a, dtype="<f4"), what, part) for a in arrays]


def finite(values: np.ndarray, what: str, part: str) -> np.ndarray:
    """The values, if none is NaN or infinite."""
    if not np.isfinite(values).all():
        raise FormatError(f"{what}: non-finite value in {part}")
    return values


def read_file(path: str) -> bytearray:
    """The whole file as one writable buffer, sized by fstat and filled by readinto.

    A file that shrinks between the two calls yields only the bytes read.
    """
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf) :]
    return buf


class Reader:
    """Forward cursor over one artifact's bytes, starting after its magic."""

    def __init__(self, buf: bytes, what: str, magic: bytes = b""):
        if buf[: len(magic)] != magic:
            raise FormatError(
                f"{what}: bad magic {bytes(buf[: len(magic)])!r}, expected {magic!r}"
            )
        self.buf = buf
        self.what = what
        self.pos = len(magic)

    def _advance(self, size: int, part: str) -> int:
        start = self.pos
        left = len(self.buf) - start
        if size > left:
            raise FormatError(
                f"{self.what}: truncated {part} ({size} bytes needed, {left} left)"
            )
        self.pos = start + size
        return start

    def u32(self, count: int, part: str) -> tuple[int, ...]:
        start = self._advance(4 * count, part)
        return struct.unpack_from(f"<{count}I", self.buf, start)

    def take(self, size: int, part: str) -> bytes:
        start = self._advance(size, part)
        return self.buf[start : self.pos]

    def array(self, dtype, shape: tuple[int, ...], part: str) -> np.ndarray:
        """The C-contiguous block of `shape` items of `dtype` at the cursor.

        A view of the caller's buffer, not a copy: writable when the
        buffer is (a bytearray) and aligned when the block's offset is a
        multiple of the item size.
        """
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dtype.itemsize, part)
        values = np.frombuffer(self.buf, dtype=dtype, count=count, offset=start)
        return values.reshape(shape)

    def f4(self, shapes: Sequence[tuple[int, ...]], part: str) -> list[np.ndarray]:
        """One finite <f4 block holding every shape in order, widened to f64 once.

        The arrays are writable, C-contiguous views of that one f64 block.
        """
        sizes = [math.prod(shape) for shape in shapes]
        block = finite(self.array("<f4", (sum(sizes),), part), self.what, part)
        block = block.astype(np.float64)
        starts = itertools.accumulate(sizes, initial=0)
        return [
            block[start : start + size].reshape(shape)
            for start, size, shape in zip(starts, sizes, shapes)
        ]

    def end(self) -> None:
        """The artifact must end exactly at the cursor."""
        if self.pos != len(self.buf):
            raise FormatError(f"{self.what}: {len(self.buf) - self.pos} trailing bytes")


def decode_json(raw: bytes, what: str) -> dict:
    """One UTF-8 JSON object; anything else is a FormatError naming `what`."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    # ValueError: UnicodeDecodeError and JSONDecodeError alike;
    # RecursionError: nesting deeper than the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} is not a JSON object")
    return doc
