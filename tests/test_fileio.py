"""The container codec under corruption: every one-byte mutation of a dataset or
a checkpoint is refused with an error the CLI exits 3 on, or loads what was
saved; the corruptions once seen to crash the loaders are explicit cases. The
array evaluation of FNV-1a-64 agrees with the per-byte definition."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cropyield import fileio
from cropyield import synthdata as sd
from cropyield.cli import main
from cropyield.errors import (
    ChecksumMismatchError,
    ConfigError,
    CropYieldError,
    MalformedHeaderError,
    NumericalError,
    TruncatedPayloadError,
)

KINDS = ("flip", "delete", "insert", "truncate")


@pytest.fixture(scope="module")
def originals(containers, tmp_path_factory):
    """(container, its saved bytes, a path to write mutants to) for each container."""
    work = tmp_path_factory.mktemp("fuzz")
    out = []
    for c in containers:
        c.write(work / c.name)
        out.append((c, (work / c.name).read_bytes(), work / f"{c.name}.mutant"))
    return out


def mutate(raw: bytes, kind: str, offset: int, value: int) -> bytes:
    if kind == "truncate":
        return raw[:offset]
    if kind == "delete":
        return raw[:offset] + raw[offset + 1:]
    if kind == "insert":
        return raw[:offset] + bytes([value]) + raw[offset:]
    return raw[:offset] + bytes([raw[offset] ^ value]) + raw[offset + 1:]  # flip, value != 0


def assert_refused_or_equal(container, path, mutant: bytes):
    path.write_bytes(mutant)
    try:
        got = container.read(path)
    except CropYieldError as err:
        # the CLI exits 2 on ConfigError, 4 on NumericalError and 3 on every other one
        assert not isinstance(err, (ConfigError, NumericalError)), repr(err)
        return
    # only whitespace in the unchecksummed header lines can change and still load
    assert got == container.expected


class TestMutationFuzz:
    def test_every_offset_of_every_kind(self, originals):
        for c, raw, path in originals:
            for offset in range(len(raw)):
                for kind in KINDS:
                    assert_refused_or_equal(c, path, mutate(raw, kind, offset, 0xFF))

    @settings(deadline=None, max_examples=300)
    @given(which=st.integers(0, 1), kind=st.sampled_from(KINDS), offset=st.integers(0, 10**6),
           value=st.integers(1, 255))
    def test_random_byte_values(self, originals, which, kind, offset, value):
        c, raw, path = originals[which]
        assert_refused_or_equal(c, path, mutate(raw, kind, offset % len(raw), value))

    def test_header_whitespace_loads_the_same(self, originals):
        c, raw, path = originals[0]
        path.write_bytes(raw.replace(b" ", b"  ", 1))
        assert c.read(path) == c.expected


# -- corruptions that crashed the loaders with ValueError, UnicodeDecodeError or MemoryError

def _dataset_bytes(tmp_path) -> bytes:
    ds = sd.generate_dataset(sd.BandSpec("S1"), 10, 3, 8, 8, seed=1)
    sd.save_dataset(ds, tmp_path / "good.mtms")
    return (tmp_path / "good.mtms").read_bytes()


def _first_yield_prefixed(raw: bytes) -> bytes:
    header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1  # after the band line
    yield_at = raw.rindex(b" ", header_end, raw.index(b"\n", header_end)) + 1
    return raw[:yield_at] + b"x" + raw[yield_at:]


def _band_line_not_utf8(raw: bytes) -> bytes:
    at = raw.index(b"\n") + 1
    return raw[:at] + b"\xff" + raw[at + 1:]


DATASET_CASES = {
    "yield_not_a_number": (_first_yield_prefixed, MalformedHeaderError),
    "band_line_not_utf8": (_band_line_not_utf8, MalformedHeaderError),
    "dims_1e6_by_1e6": (lambda raw: raw.replace(b" 8 8 2\n", b" 1000000 1000000 2\n", 1),
                        TruncatedPayloadError),
    "negative_dims": (lambda raw: raw.replace(b" 8 8 2\n", b" -8 8 2\n", 1), MalformedHeaderError),
}
CHECKPOINT_CASES = {"shape_not_a_number": b"a 2 x\n", "negative_shape": b"a 2 -3\n"}


def _checkpoint_bytes(tmp_path, meta: bytes) -> bytes:
    fileio.save_checkpoint(tmp_path / "good.ckpt", {"a": np.arange(2.0)})
    return (tmp_path / "good.ckpt").read_bytes().replace(b"a 2\n", meta, 1)


class TestReproducedCorruptions:
    @pytest.mark.parametrize("case", sorted(DATASET_CASES))
    def test_dataset_refused_with_its_type(self, case, tmp_path):
        corrupt, error = DATASET_CASES[case]
        bad = tmp_path / "bad.mtms"
        bad.write_bytes(corrupt(_dataset_bytes(tmp_path)))
        with pytest.raises(error):
            sd.load_dataset(bad)

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
    def test_checkpoint_refused_with_its_type(self, case, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(_checkpoint_bytes(tmp_path, CHECKPOINT_CASES[case]))
        with pytest.raises(MalformedHeaderError):
            fileio.load_checkpoint(bad)

    def test_cut_inside_the_first_payload_reports_the_bytes_left(self, tmp_path):
        full, cut = tmp_path / "full.mtms", tmp_path / "cut.mtms"
        sd.save_dataset(sd.generate_dataset(sd.BandSpec("S2"), 10, 6, 10, 10, seed=1), full)
        head = full.read_bytes()[:100]
        cut.write_bytes(head)
        left = 100 - len(b"".join(head.splitlines(keepends=True)[:3]))  # after plot 0's line
        with pytest.raises(TruncatedPayloadError,
                           match=f"57600 payload bytes declared, only {left} left in the file"):
            sd.load_dataset(cut)
        assert left == 5

    def test_huge_dims_refused_before_any_allocation(self, tmp_path):
        bad = tmp_path / "bad.mtms"
        bad.write_bytes(DATASET_CASES["dims_1e6_by_1e6"][0](_dataset_bytes(tmp_path)))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError):
                sd.load_dataset(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 10^6 x 10^6 plot would need 96 TB

    @pytest.mark.parametrize("case", sorted(DATASET_CASES))
    def test_pipeline_exits_3_on_a_corrupt_dataset(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.mtms"
        bad.write_bytes(DATASET_CASES[case][0](_dataset_bytes(tmp_path)))
        assert main(["pipeline", "--data", str(bad), "--out", str(tmp_path / "run")]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
    def test_pipeline_exits_3_on_a_corrupt_checkpoint(self, case, tmp_path, capsys):
        data, run = tmp_path / "good.mtms", tmp_path / "run"
        data.write_bytes(_dataset_bytes(tmp_path))
        run.mkdir()
        for name in ("pretrain_loss.txt", "pretrain_stats.kv"):
            (run / name).write_text("")
        (run / "pretrain.ckpt").write_bytes(_checkpoint_bytes(tmp_path, CHECKPOINT_CASES[case]))
        argv = ["pipeline", "--data", str(data), "--out", str(run), "--stage", "select"]
        assert main(argv) == 3
        assert "checkpoint tensor metadata" in capsys.readouterr().err


def test_bytes_after_the_checksum_refused(originals):
    for c, raw, path in originals:
        path.write_bytes(raw + b"\n")
        with pytest.raises(MalformedHeaderError):
            c.read(path)


def test_line_longer_than_the_limit_refused(originals):
    # a reader never buffers more than one line's limit looking for a newline
    for c, raw, path in originals:
        path.write_bytes(raw[:6] + b"x" * 10_000 + raw[6:])
        with pytest.raises(MalformedHeaderError, match="no newline in the 4096 bytes"):
            c.read(path)


# -- FNV-1a-64: the array evaluation against the per-byte definition ----------------

SPAN, CHUNK, SWITCH = fileio._FNV_SPAN, fileio._FNV_CHUNK, fileio._FNV_ARRAY_MIN
OFFSET = 0xCBF29CE484222325  # the digest of no bytes
STARTS = [0, 1, 2**64 - 1, OFFSET,
          *map(int, np.random.default_rng(5).integers(0, 2**64, 4, dtype=np.uint64))]
reference = fileio._fnv1a64_loop


def random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


class TestFnv1a64:
    def test_every_short_length(self):
        data = random_bytes(300)
        for n in range(301):
            for h in STARTS:
                assert fileio._fnv1a64_array(data[:n], h) == reference(data[:n], h), (n, h)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
                                   SWITCH - 1, SWITCH, SWITCH + 1])
    def test_block_edges_and_the_switch(self, n):
        """The edges of the power-table chunk, and the switch to the array path."""
        data = random_bytes(n, seed=n)
        for h in STARTS:
            want = reference(data, h)
            assert fileio.fnv1a64(data, h) == want
            assert fileio._fnv1a64_array(data, h) == want

    # 2·CHUNK and SPAN + CHUNK end on a chunk boundary inside a span
    @pytest.mark.parametrize("n", [SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 1, 2 * CHUNK, SPAN + CHUNK])
    def test_span_edges(self, n):
        data = random_bytes(n, seed=n)
        for h in STARTS:
            assert fileio.fnv1a64(data, h) == reference(data, h), h

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    def test_constant_buffers(self, fill):
        for n in (1, 63, 64, 65, 300, SWITCH, CHUNK + 1, SPAN + 1):
            data = bytes([fill]) * n
            for h in STARTS:
                assert fileio._fnv1a64_array(data, h) == reference(data, h), (n, h)

    def test_every_split_continues_the_stream(self):
        data = random_bytes(1024, seed=1)
        whole = reference(data, OFFSET)
        for at in range(len(data) + 1):
            head = fileio._fnv1a64_array(data[:at], OFFSET)
            assert fileio._fnv1a64_array(data[at:], head) == whole
            assert fileio.fnv1a64(data[at:], fileio.fnv1a64(data[:at])) == whole

    def test_temporaries_grow_with_the_span_not_the_input(self):
        peaks = {}
        for mib in (1, 8):
            data = random_bytes(mib << 20, seed=mib)
            tracemalloc.start()
            try:
                fileio.fnv1a64(data)
                peaks[mib] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= peaks[1] + (64 << 10), peaks
        assert peaks[1] < 8 * SPAN, peaks  # about 7 spans of uint8, int16 and uint64 arrays

    @settings(deadline=None, max_examples=200)
    @given(data=st.binary(max_size=3 * SWITCH), h=st.integers(0, 2**64 - 1))
    def test_property_any_bytes_any_start(self, data, h):
        want = reference(data, h)
        assert fileio._fnv1a64_array(data, h) == want
        assert fileio.fnv1a64(data, h) == want

    @pytest.mark.parametrize("data, digest", [(b"foobar", 0x85944171F73967E8),
                                              (b"chongo was here!\n", 0x46810940EFF5F915)])
    def test_published_vectors(self, data, digest):
        assert fileio.fnv1a64(data) == digest
        assert fileio._fnv1a64_array(data, OFFSET) == digest


def test_a_line_with_no_payload_after_it_is_checksummed(tmp_path):
    def read_line(path):
        with fileio.ContainerReader(path, "lines") as rd:
            rd.fields("header", (str,), checksum=False)
            return rd.fields("line", (str, int))

    path, line = tmp_path / "lines", b"x 1\n"
    path.write_bytes(b"header\n" + line + reference(line, OFFSET).to_bytes(8, "little"))
    assert read_line(path) == ["x", 1]
    path.write_bytes(b"header\n" + line + OFFSET.to_bytes(8, "little"))
    with pytest.raises(ChecksumMismatchError):
        read_line(path)


def test_checkpoint_records_straddling_the_hash_block(tmp_path):
    """A 70,000-float tensor spans several hash blocks and sits between two
    records short enough for the per-byte loop."""
    rng = np.random.default_rng(3)
    tensors = {"a": np.array(-1.5), "b": rng.standard_normal(70_000), "c": rng.standard_normal(8)}
    path = tmp_path / "big.ckpt"
    fileio.save_checkpoint(path, tensors)
    raw = path.read_bytes()
    records = raw[raw.index(b"\n") + 1:-8]
    assert int.from_bytes(raw[-8:], "little") == reference(records, OFFSET)
    loaded = fileio.load_checkpoint(path)
    assert all(loaded[name].tobytes() == t.tobytes() for name, t in tensors.items())
    at = raw.index(b"\n") + 1
    for name, tensor in sorted(tensors.items()):  # a flipped byte in every record is refused
        at += len(f"{name} {' '.join(map(str, tensor.shape))}\n")  # past the metadata line
        for offset in {0, tensor.nbytes // 2, tensor.nbytes - 1}:
            bad = bytearray(raw)
            bad[at + offset] ^= 0x01
            path.write_bytes(bytes(bad))
            with pytest.raises(ChecksumMismatchError):
                fileio.load_checkpoint(path)
        at += tensor.nbytes
    assert at == len(raw) - 8


# -- one buffered digest per container: hashed once per span of records ------------

def _counting(monkeypatch):
    """Count the calls and bytes of ``fileio.fnv1a64``, which every digest goes through."""
    calls, real = [], fileio.fnv1a64

    def counted(data, h=OFFSET):
        calls.append(len(data))
        return real(data, h)

    monkeypatch.setattr(fileio, "fnv1a64", counted)
    return calls


def _records(raw: bytes, header_lines: int) -> tuple[int, int]:
    """Where the checksummed records start and end in a container's bytes."""
    at = 0
    for _ in range(header_lines):
        at = raw.index(b"\n", at) + 1
    return at, len(raw) - 8


class TestContainerStream:
    """15 S2 plots at 10x10, T=6: 57.6 KB of payload each, over three spans in all."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return sd.generate_dataset(sd.BandSpec("S2"), 15, 6, 10, 10, seed=4)

    def test_save_and_load_hash_each_record_byte_once_per_span(self, dataset, tmp_path,
                                                                monkeypatch):
        calls = _counting(monkeypatch)
        path = tmp_path / "d.mtms"
        sd.save_dataset(dataset, path)
        raw = path.read_bytes()
        start, end = _records(raw, 2)
        size = end - start
        assert size > 3 * SPAN
        assert sum(calls) == size and len(calls) <= -(-size // SPAN) + 1, calls
        calls.clear()
        loaded = sd.load_dataset(path)
        assert sum(calls) == size and len(calls) <= -(-size // SPAN) + 1, calls
        # the reader never holds more than a span and one record of unhashed bytes
        assert max(calls) < SPAN + 57_600 + 64 <= 2 * SPAN
        sd.save_dataset(loaded, tmp_path / "again.mtms")
        assert (tmp_path / "again.mtms").read_bytes() == raw
        assert int.from_bytes(raw[-8:], "little") == reference(raw[start:end], OFFSET)

    def test_a_flipped_byte_in_any_record_is_refused(self, dataset, tmp_path):
        path = tmp_path / "d.mtms"
        sd.save_dataset(dataset, path)
        raw = path.read_bytes()
        start, end = _records(raw, 2)
        first_payload = raw.index(b"\n", start) + 1
        # in the first record, in the one that holds the first flush's span boundary, in the last
        for offset in (first_payload, start + SPAN, end - 1):
            bad = bytearray(raw)
            bad[offset] ^= 0x01
            path.write_bytes(bytes(bad))
            with pytest.raises(ChecksumMismatchError):
                sd.load_dataset(path)
