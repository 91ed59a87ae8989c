import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cropyield import fileio
from cropyield import synthdata as sd
from cropyield.errors import (
    ChecksumMismatchError,
    DomainError,
    MalformedHeaderError,
    TruncatedPayloadError,
)


@pytest.fixture(scope="module")
def small_ds():
    return sd.generate_dataset(sd.BandSpec("S2"), n_plots=12, t_steps=4, height=8, width=8, seed=7)


class TestGenerate:
    @pytest.mark.parametrize("source,c", [("S1", 2), ("S2", 12), ("L8", 8)])
    def test_band_counts_match_source(self, source, c):
        ds = sd.generate_dataset(sd.BandSpec(source), 10, 3, 8, 8, seed=1)
        assert ds.band_spec.channels == c
        assert all(s.x.shape[3] == c for s in ds.samples)

    def test_determinism(self, small_ds):
        again = sd.generate_dataset(sd.BandSpec("S2"), 12, 4, 8, 8, seed=7)
        for a, b in zip(small_ds.samples, again.samples):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.y == b.y and a.season_tag == b.season_tag

    def test_values_in_unit_interval_and_positive_yield(self, small_ds):
        for s in small_ds.samples:
            assert s.x.min() >= 0.0 and s.x.max() <= 1.0
            assert s.y > 0.0

    def test_invalid_dims_rejected(self):
        with pytest.raises(DomainError):
            sd.generate_dataset(sd.BandSpec("S2"), 5, 4, 8, 8, seed=1)
        with pytest.raises(DomainError):
            sd.generate_dataset(sd.BandSpec("S2"), 10, 1, 8, 8, seed=1)
        with pytest.raises(DomainError):
            sd.generate_dataset(sd.BandSpec("S2"), 10, 4, 4, 8, seed=1)
        with pytest.raises(DomainError):
            sd.BandSpec("S3")

    def test_yield_correlates_with_fertility_signal(self):
        # the vegetation band late-season mean should predict yield well by design
        ds = sd.generate_dataset(sd.BandSpec("S2"), 40, 5, 8, 8, seed=3)
        veg = np.array([s.x[-2:, :, :, ds.band_spec.veg_band].mean() for s in ds.samples])
        y = np.array([s.y for s in ds.samples])
        r = np.corrcoef(veg, y)[0, 1]
        assert r > 0.8


def enhance_image(img):
    """``enhance_sample`` of one [H,W] image."""
    return sd.enhance_sample(img[None, :, :, None])[0, :, :, 0]


class TestLaplacian:
    def test_constant_interior_unchanged(self):
        img = np.full((6, 6), 3.7)
        out = enhance_image(img)
        np.testing.assert_allclose(out[1:-1, 1:-1], img[1:-1, 1:-1])

    def test_unit_impulse(self):
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        out = enhance_image(img)
        assert out[2, 2] == 5.0
        for i, j in [(1, 2), (3, 2), (2, 1), (2, 3)]:
            assert out[i, j] == -1.0

    def test_linear_ramp_interior_unchanged(self):
        i, j = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
        img = 2.0 * i + 3.0 * j + 1.0
        out = enhance_image(img)
        np.testing.assert_allclose(out[1:-1, 1:-1], img[1:-1, 1:-1], atol=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10**6), a=st.floats(-4, 4))
    def test_linearity(self, seed, a):
        img = np.random.default_rng(seed).normal(size=(5, 6))
        lhs = enhance_image(a * img)
        rhs = a * enhance_image(img)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_enhance_sample_matches_per_band(self, small_ds):
        # each (time step, band) image is sharpened alone: no mixing across either axis
        x = small_ds.samples[0].x
        out = sd.enhance_sample(x)
        for t in (0, x.shape[0] - 1):
            for c in (0, x.shape[3] - 1):
                np.testing.assert_array_equal(out[t, :, :, c], enhance_image(x[t, :, :, c]))


class TestSplit:
    def test_100_gives_80_10_10(self):
        ds = sd.generate_dataset(sd.BandSpec("S1"), 100, 2, 8, 8, seed=2)
        out = sd.split_dataset(ds, seed=5)
        assert (len(out.split.train), len(out.split.val), len(out.split.test)) == (80, 10, 10)

    def test_10_gives_8_1_1(self, small_ds):
        ds = sd.generate_dataset(sd.BandSpec("S1"), 10, 2, 8, 8, seed=2)
        out = sd.split_dataset(ds, seed=5)
        assert (len(out.split.train), len(out.split.val), len(out.split.test)) == (8, 1, 1)

    def test_same_seed_identical(self, small_ds):
        a = sd.split_dataset(small_ds, seed=9)
        b = sd.split_dataset(small_ds, seed=9)
        assert a.split == b.split

    @settings(deadline=None, max_examples=20)
    @given(n=st.integers(10, 200), seed=st.integers(0, 10**6))
    def test_partition_property(self, n, seed):
        perm = sd.rng_for(seed, "split").permutation(n)
        ds = sd.Dataset.__new__(sd.Dataset)  # avoid generating big arrays
        ds.band_spec = sd.BandSpec("S1")
        ds.samples = [None] * n
        ds.split = None
        out = sd.split_dataset(ds, seed=seed)
        all_idx = out.split.train + out.split.val + out.split.test
        assert sorted(all_idx) == list(range(n))
        assert len(out.split.train) == (8 * n) // 10
        assert len(out.split.val) == n // 10
        del perm

    def test_too_few_rejected(self):
        ds = sd.Dataset.__new__(sd.Dataset)
        ds.band_spec = sd.BandSpec("S1")
        ds.samples = [None] * 9
        ds.split = None
        with pytest.raises(DomainError):
            sd.split_dataset(ds, seed=0)


class TestFileFormat:
    """Every test runs on both containers, the dataset and the checkpoint."""

    def test_round_trip_bit_exact(self, containers, tmp_path):
        for c in containers:
            p = tmp_path / c.name
            c.write(p)
            assert c.read(p) == c.expected, c.name

    def test_save_is_deterministic(self, containers, tmp_path):
        for c in containers:
            p1, p2 = tmp_path / f"{c.name}.a", tmp_path / f"{c.name}.b"
            c.write(p1)
            c.write(p2)
            assert p1.read_bytes() == p2.read_bytes(), c.name

    def test_wrong_magic(self, containers, tmp_path):
        for c in containers:
            p = tmp_path / c.name
            c.write(p)
            p.write_bytes(b"XXXXXX" + p.read_bytes()[6:])
            with pytest.raises(MalformedHeaderError):
                c.read(p)

    def test_truncated_by_one_byte(self, containers, tmp_path):
        for c in containers:
            p = tmp_path / c.name
            c.write(p)
            p.write_bytes(p.read_bytes()[:-1])
            with pytest.raises(TruncatedPayloadError):
                c.read(p)

    def test_corrupted_payload_byte(self, containers, tmp_path):
        for c in containers:
            p = tmp_path / c.name
            c.write(p)
            raw = bytearray(p.read_bytes())
            raw[len(raw) // 2] ^= 0xFF  # inside a payload in both small containers
            p.write_bytes(bytes(raw))
            with pytest.raises(ChecksumMismatchError):
                c.read(p)

    def test_fnv_reference_value(self):
        # published FNV-1a 64-bit test vector
        assert fileio.fnv1a64(b"") == 0xCBF29CE484222325
        assert fileio.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
