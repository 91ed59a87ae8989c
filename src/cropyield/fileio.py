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
_FNV_BLOCK = 1 << 16  # bytes per array evaluation; bounds its temporaries
_FNV_ARRAY_MIN = 2048  # shorter inputs take the per-byte loop, which is faster there
# P^B, ..., P^2, P^1 mod 2^64 for B = _FNV_BLOCK
_FNV_POWERS = np.multiply.accumulate(np.full(_FNV_BLOCK, _FNV_PRIME, dtype=np.uint64))[::-1]
_WORD_SHIFTS = [np.uint64(1 << k) for k in range(6)]
_MAX_LINE = 4096  # longest text line a reader accepts, newline included

CHECKPOINT_MAGIC = "MTMSCK"


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``; pass a previous digest to continue a stream.

    Long inputs are evaluated exactly with arrays. A step h' = (h ^ b)·P adds
    d = (l ^ b) - l to h, where l is h's low byte, so h_n = h_0·P^n + Σ d_i·P^(n-i)
    mod 2^64: one dot product with a table of powers once every l_i is known. The
    low bytes run on their own, l' = (l ^ b)·P mod 256, and because P is odd bit j
    of l' is bit j of (l ^ b) XOR a function of its lower bits: each bit-plane of
    the l_i is one prefix-XOR scan once the planes below it are known.
    """
    return (_fnv1a64_loop if len(data) < _FNV_ARRAY_MIN else _fnv1a64_array)(data, h)


def _fnv1a64_loop(data, h: int) -> int:
    """The per-byte definition of FNV-1a-64."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _fnv1a64_array(data, h: int) -> int:
    """``fnv1a64`` as array operations, block by block."""
    view = np.frombuffer(data, dtype=np.uint8)
    for at in range(0, len(view), _FNV_BLOCK):
        h = _fnv1a64_block(view[at:at + _FNV_BLOCK], h)
    return h


def _fnv1a64_block(b: np.ndarray, h: int) -> int:
    """``fnv1a64`` of the at most ``_FNV_BLOCK`` bytes ``b``."""
    n = len(b)
    # l_i ^ b_i with the bits of l_i found so far, padded to whole 64-bit words
    x = np.zeros(-(-n // 64) * 64, dtype=np.uint8)
    x[:n] = b
    for j in range(8):
        # with bits < j of l final and bit j still 0, bit j of x·P is bit j of l_(i+1) ^ l_i
        steps = np.packbits(x * np.uint8(_FNV_PRIME & 0xFF) & np.uint8(1 << j),
                            bitorder="little").view("<u8")
        scan = steps.copy()
        for k in _WORD_SHIFTS:  # prefix XOR inside each 64-bit word
            scan ^= scan << k
        # ... then across words: word w takes the parity of every word before it
        scan[1:] ^= np.bitwise_xor.accumulate(scan.view("<i8") >> 63)[:-1].view(np.uint64)
        scan ^= steps  # exclusive scan: bit i is l_i ^ l_0
        if h >> j & 1:
            np.invert(scan, out=scan)
        x ^= np.unpackbits(scan.view(np.uint8), bitorder="little") << np.uint8(j)
    x = x[:n]
    d = np.subtract(x, x ^ b, dtype=np.int64).view(np.uint64)  # uint64 arithmetic wraps mod 2^64
    return (h * int(_FNV_POWERS[-n]) + int(np.dot(d, _FNV_POWERS[-n:]))) & _MASK64


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
            digest = fnv1a64(meta + payload, digest)  # one call: the array path pays per call
        fh.write(struct.pack("<Q", digest))


def container_trailer(path) -> int:
    """The checksum trailer of a container file (its last 8 bytes)."""
    with open(path, "rb") as fh:
        fh.seek(-8, os.SEEK_END)
        return struct.unpack("<Q", fh.read(8))[0]


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
        self.digest = _FNV_OFFSET  # over the records up to the last payload read
        self._unhashed = b""  # checksummed lines read since, hashed with the next payload

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
            self._unhashed += raw
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
        size, left = 8 * math.prod(shape), self._size - self._fh.tell()
        if size + 8 > left:  # the payload, then at least the 8-byte checksum
            raise TruncatedPayloadError(
                f"{self.what} {what}: {size} payload bytes declared, only {left} left in the "
                f"file, which must also hold the 8-byte checksum")
        buf = self._fh.read(size)
        self.digest = fnv1a64(self._unhashed + buf, self.digest)
        self._unhashed = b""
        return np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)

    def _check_trailer(self) -> None:
        left = self._size - self._fh.tell()
        if left != 8:
            raise (TruncatedPayloadError if left < 8 else MalformedHeaderError)(
                f"{self.what}: {left} bytes after the declared records, not the 8-byte checksum")
        stored = struct.unpack("<Q", self._fh.read(8))[0]
        computed = fnv1a64(self._unhashed, self.digest)
        if stored != computed:
            raise ChecksumMismatchError(f"{self.what} checksum mismatch: stored {stored:016x}, "
                                        f"computed {computed:016x}")


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
