"""How every artifact file is framed, and how a malformed one is rejected.

A binary artifact (the P2CI index, the P2CM model, a POSE section) is
a magic, little-endian u32 header fields, then payload blocks: `pack`
writes one and `Reader` walks one from the front. A JSON document (a
view set, a benchmark manifest, the index manifest, a config file) is
one UTF-8 JSON object, read by `decode_json`. Every short read, bad
magic, trailing byte, undecodable document, non-object root and missing
or mistyped field raises FormatError naming the artifact and the part,
as does a NaN or infinity in a float block read by `Reader.f4` or
checked by `Reader.finite` (the model's tower weights, the pose head's
weights and its medoids, the index's embeddings).
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from .errors import FormatError


def pack(magic: bytes, header: Sequence[int], *blocks) -> bytes:
    """magic, each header field as a u32, then the blocks' bytes in order.

    A block is bytes or a C-contiguous array, written in its own dtype.
    """
    return b"".join([magic, struct.pack(f"<{len(header)}I", *header), *blocks])


def f4(*arrays) -> list[np.ndarray]:
    """The arrays as C-contiguous little-endian f32 blocks for `pack`."""
    return [np.ascontiguousarray(a, dtype="<f4") for a in arrays]


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

    def array(self, dtype, count: int, part: str) -> np.ndarray:
        """`count` items of `dtype` at the cursor: a read-only view, not a copy."""
        dtype = np.dtype(dtype)
        start = self._advance(count * dtype.itemsize, part)
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=start)

    def f4(self, shapes: Sequence[tuple[int, ...]], part: str) -> list[np.ndarray]:
        """One finite <f4 block per shape, each widened to a writable f64 array."""
        return [
            self.finite(self.array("<f4", math.prod(shape), part), part)
            .astype(np.float64)
            .reshape(shape)
            for shape in shapes
        ]

    def finite(self, values: np.ndarray, part: str) -> np.ndarray:
        """The values, if none is NaN or infinite."""
        if not np.isfinite(values).all():
            raise FormatError(f"{self.what}: non-finite value in {part}")
        return values

    def end(self) -> None:
        """The artifact must end exactly at the cursor."""
        if self.pos != len(self.buf):
            raise FormatError(f"{self.what}: {len(self.buf) - self.pos} trailing bytes")


def decode_json(raw: bytes, what: str) -> dict:
    """One UTF-8 JSON object; anything else is a FormatError naming `what`."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"{what} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} is not a JSON object")
    return doc


@contextmanager
def fields(what: str) -> Iterator[None]:
    """Turn a missing or mistyped field of a decoded document into FormatError."""
    try:
        yield
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what}: missing or malformed field: {exc!r}") from exc
