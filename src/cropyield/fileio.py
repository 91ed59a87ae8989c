"""Shared on-disk conventions: FNV-1a checksums, seeded RNG streams, the container codec.

Dataset and checkpoint files are one container format: text header lines,
then records of one text metadata line and one raw little-endian float64
payload each, then a trailing 8-byte little-endian FNV-1a checksum over every
record byte (the header lines are outside it). ``write_container`` and
``ContainerReader`` are the only writer and reader; ``synthdata`` and the
checkpoint functions below are schemas over them.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import ChecksumMismatchError, MalformedHeaderError, TruncatedPayloadError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_LINE = 4096  # longest text line a reader accepts, newline included

CHECKPOINT_MAGIC = "MTMSCK"


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``; pass a previous digest to continue a stream."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic RNG stream named by ``label``."""
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, fnv1a64(label.encode())]))


# -- container codec ----------------------------------------------------------------


def write_container(path, header: list, records) -> None:
    """Write the ``header`` lines, one (metadata line, float64 array) pair per
    item of ``records`` (any iterable), then the checksum trailer."""
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        digest = _FNV_OFFSET
        for meta, arr in records:
            meta = (meta + "\n").encode()
            payload = np.asarray(arr, dtype="<f8").tobytes()  # C order whatever the layout
            fh.write(meta)
            fh.write(payload)
            digest = fnv1a64(payload, fnv1a64(meta, digest))
        fh.write(struct.pack("<Q", digest))


def positive_int(field: str) -> int:
    """Field converter for a dimension: a positive integer, else ValueError."""
    value = int(field)
    if value < 1:
        raise ValueError(f"{field} is not a positive integer")
    return value


class ContainerReader:
    """Streams one container record by record, as a context manager that checks
    the trailer on a clean exit. Every disagreement between the bytes and their
    declared layout raises a ``DataFormatError`` subclass."""

    def __init__(self, path, what: str):
        self._fh = open(path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self.what = what
        self.digest = _FNV_OFFSET

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        with self._fh:
            if exc_type is None:
                self._check_trailer()

    def fields(self, what: str, types, rest=None, checksum: bool = True) -> list:
        """The next line's whitespace-separated fields, each converted by its
        entry of ``types``; fields beyond those by ``rest`` if given."""
        raw = self._fh.readline(_MAX_LINE)
        if not raw.endswith(b"\n"):
            raise (MalformedHeaderError if len(raw) == _MAX_LINE else TruncatedPayloadError)(
                f"{self.what} {what}: no newline in the {len(raw)} bytes read")
        if checksum:
            self.digest = fnv1a64(raw, self.digest)
        try:  # UnicodeDecodeError is a ValueError too
            values = raw.decode().split()
            extra = len(values) - len(types)
            if extra < 0 or (extra and rest is None):
                raise ValueError(f"{len(values)} fields, expected {len(types)}")
            return [conv(v) for conv, v in zip([*types, *[rest] * extra], values)]
        except ValueError as err:
            raise MalformedHeaderError(f"{self.what} {what} {raw[:80]!r}: {err}") from None

    def payload(self, shape: tuple, what: str) -> np.ndarray:
        """The next float64 array; its size is checked against the file before reading."""
        size, left = 8 * math.prod(shape), self._size - self._fh.tell() - 8
        if size > left:
            raise TruncatedPayloadError(
                f"{self.what} {what}: {size} payload bytes declared, only {left} left")
        buf = self._fh.read(size)
        self.digest = fnv1a64(buf, self.digest)
        return np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)

    def _check_trailer(self) -> None:
        left = self._size - self._fh.tell()
        if left != 8:
            raise (TruncatedPayloadError if left < 8 else MalformedHeaderError)(
                f"{self.what}: {left} bytes after the declared records, not the 8-byte checksum")
        stored = struct.unpack("<Q", self._fh.read(8))[0]
        if stored != self.digest:
            raise ChecksumMismatchError(f"{self.what} checksum mismatch: stored {stored:016x}, "
                                        f"computed {self.digest:016x}")


# -- checkpoint schema --------------------------------------------------------------


def save_checkpoint(path, tensors: dict) -> None:
    """Write named float64 arrays; names are sorted so output is byte-stable."""
    names = sorted(tensors)
    write_container(path, [f"{CHECKPOINT_MAGIC} v1 {len(names)}"], (
        (name + " " + " ".join(str(d) for d in np.shape(tensors[name])), tensors[name])
        for name in names))


def load_checkpoint(path) -> dict:
    with ContainerReader(path, "checkpoint") as rd:
        magic, version, count = rd.fields("header", (str, str, int), checksum=False)
        if (magic, version) != (CHECKPOINT_MAGIC, "v1") or count < 0:
            raise MalformedHeaderError(f"bad checkpoint header: {magic} {version} {count}")
        tensors = {}
        for _ in range(count):
            name, *shape = rd.fields("tensor metadata", (str,), rest=positive_int)
            tensors[name] = rd.payload(tuple(shape), f"tensor {name!r}")
    return tensors
