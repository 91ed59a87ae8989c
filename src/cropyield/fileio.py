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
_FNV_SPAN = 1 << 18  # bytes per bit-plane scan; bounds its temporaries
_FNV_CHUNK = 1 << 16  # bytes per power-table dot; the table takes 8 bytes per byte
# Shorter inputs take the per-byte loop. On one core of a 2-core x86 machine the
# loop costs about 0.105 µs per byte and the array path at least 140 µs a call
# up to 4 KiB, so they cross near 1.4 KiB; up to 2 KiB they stay within 40 µs,
# less than the spread between repeats. Besides `rng_for`'s labels, only a
# container's last flush hashes so few bytes.
_FNV_ARRAY_MIN = 2048
# P^C, ..., P^2, P^1 mod 2^64 for C = _FNV_CHUNK
_FNV_POWERS = np.multiply.accumulate(np.full(_FNV_CHUNK, _FNV_PRIME, dtype=np.uint64))[::-1]
_WORD_SHIFTS = [np.uint64(1 << k) for k in range(6)]
_MAX_LINE = 4096  # longest text line a reader accepts, newline included

CHECKPOINT_MAGIC = "MTMSCK"


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over ``data``; pass a previous digest to continue a stream.

    Long inputs are evaluated exactly with arrays. A step h' = (h ^ b)·P adds
    d = (l ^ b) - l to h, where l is h's low byte, so over m bytes
    h_m = h_0·P^m + Σ d_i·P^(m-i) mod 2^64: once every l_i is known, one dot
    product with a table of powers per chunk of at most ``_FNV_CHUNK`` bytes,
    h = h·P^m + Σ d·P^(m..1). The low bytes run on their own,
    l' = (l ^ b)·P mod 256, and because P is odd bit j of l' is bit j of
    (l ^ b) XOR a function of its lower bits: each bit-plane of the l_i is one
    prefix-XOR scan, over spans of at most ``_FNV_SPAN`` bytes, once the planes
    below it are known.
    """
    return (_fnv1a64_loop if len(data) < _FNV_ARRAY_MIN else _fnv1a64_array)(data, h)


def _fnv1a64_loop(data, h: int) -> int:
    """The per-byte definition of FNV-1a-64."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _fnv1a64_array(data, h: int) -> int:
    """``fnv1a64`` as array operations, span by span."""
    view = np.frombuffer(data, dtype=np.uint8)
    for at in range(0, len(view), _FNV_SPAN):
        h = _fnv1a64_span(view[at:at + _FNV_SPAN], h)
    return h


def _fnv1a64_span(b: np.ndarray, h: int) -> int:
    """``fnv1a64`` of the at most ``_FNV_SPAN`` bytes ``b``."""
    n = len(b)
    # l_i ^ b_i with the bits of l_i found so far, padded to whole 64-bit words
    x = np.zeros(-(-n // 64) * 64, dtype=np.uint8)
    x[:n] = b
    step = np.empty_like(x)
    for j in range(8):
        # with bits < j of l final and bit j still 0, bit j of x·P is bit j of l_(i+1) ^ l_i
        np.multiply(x, np.uint8(_FNV_PRIME & 0xFF), out=step)
        np.bitwise_and(step, np.uint8(1 << j), out=step)
        steps = np.packbits(step, bitorder="little").view("<u8")
        scan = steps.copy()
        for k in _WORD_SHIFTS:  # prefix XOR inside each 64-bit word
            scan ^= scan << k
        # ... then across words: word w takes the parity of every word before it
        scan[1:] ^= np.bitwise_xor.accumulate(scan.view("<i8") >> 63)[:-1].view(np.uint64)
        scan ^= steps  # exclusive scan: bit i is l_i ^ l_0
        if h >> j & 1:
            np.invert(scan, out=scan)
        bits = np.unpackbits(scan.view(np.uint8), bitorder="little")
        x ^= np.multiply(bits, np.uint8(1 << j), out=bits)  # a uint8 multiply outruns a shift
    x = x[:n]
    d = np.subtract(x, np.bitwise_xor(x, b, out=step[:n]), dtype=np.int16)  # (l ^ b) - l
    wide = np.empty(min(n, _FNV_CHUNK), dtype=np.uint64)
    for at in range(0, n, _FNV_CHUNK):
        m = min(_FNV_CHUNK, n - at)
        np.copyto(wide[:m], d[at:at + m], casting="unsafe")  # mod 2^64, as the dot's arithmetic
        h = (h * int(_FNV_POWERS[-m]) + int(np.dot(wide[:m], _FNV_POWERS[-m:]))) & _MASK64
    return h


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic RNG stream named by ``label``."""
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, fnv1a64(label.encode())]))


# -- container codec ----------------------------------------------------------------


class _Digest:
    """The FNV-1a-64 of a byte stream, hashed with one ``fnv1a64`` call once at
    least ``_FNV_SPAN`` bytes are pending: the array path pays a fixed cost per
    call, and a record of a dataset is a fraction of a span."""

    def __init__(self):
        self._h = _FNV_OFFSET
        self._pending: list[bytes] = []  # passed to update and not hashed yet
        self._size = 0  # their total length

    def update(self, data: bytes) -> None:
        self._pending.append(data)
        self._size += len(data)
        if self._size >= _FNV_SPAN:
            self._flush()

    def value(self) -> int:
        """The digest of every byte passed to ``update``."""
        self._flush()
        return self._h

    def _flush(self) -> None:
        if self._pending:
            self._h = fnv1a64(b"".join(self._pending), self._h)
            self._pending, self._size = [], 0


def write_container(path, header: list, records) -> None:
    """Write the ``header`` lines, one (metadata line, float64 array) pair per
    item of ``records`` (any iterable), then the checksum trailer."""
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        digest = _Digest()
        for meta, arr in records:
            meta = (meta + "\n").encode()
            payload = np.asarray(arr, dtype="<f8").tobytes()  # C order whatever the layout
            fh.write(meta)
            fh.write(payload)
            digest.update(meta)
            digest.update(payload)
        fh.write(struct.pack("<Q", digest.value()))


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
        self._digest = _Digest()  # of the checksummed lines and payloads read so far

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
            self._digest.update(raw)
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
        self._digest.update(buf)
        return np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)

    def _check_trailer(self) -> None:
        left = self._size - self._fh.tell()
        if left != 8:
            raise (TruncatedPayloadError if left < 8 else MalformedHeaderError)(
                f"{self.what}: {left} bytes after the declared records, not the 8-byte checksum")
        stored = struct.unpack("<Q", self._fh.read(8))[0]
        computed = self._digest.value()
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
