import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cropyield import evalmetrics as em
from cropyield import synthdata as sd
from cropyield.errors import DomainError, ShapeMismatchError


def streaming_mape(y, y_pred):
    """Independent oracle: plain accumulation loop with math.* functions."""
    total, n = 0.0, 0
    for yi, pi in zip(y, y_pred):
        total += abs((yi - pi) / yi)
        n += 1
    return total / n


def streaming_rmsle(y, y_pred):
    total, n = 0.0, 0
    for yi, pi in zip(y, y_pred):
        d = math.log(1.0 + yi) - math.log(1.0 + pi)
        total += d * d
        n += 1
    return math.sqrt(total / n)


def streaming_smape(y, y_pred):
    total, n = 0.0, 0
    for yi, pi in zip(y, y_pred):
        total += abs(yi - pi) / ((abs(yi) + abs(pi)) / 2.0)
        n += 1
    return total / n


class TestHandValues:
    def test_mape(self):
        assert em.mape([100.0], [100.0]) == 0.0
        assert abs(em.mape([100.0], [110.0]) - 0.10) < 1e-12
        assert abs(em.mape([100.0, 200.0], [110.0, 180.0]) - 0.10) < 1e-12

    def test_rmsle(self):
        assert em.rmsle([5.0, 7.0], [5.0, 7.0]) == 0.0
        assert abs(em.rmsle([math.e - 1.0], [0.0]) - 1.0) < 1e-12

    def test_rmsle_swap_invariant(self):
        rng = np.random.default_rng(0)
        y, p = rng.uniform(1, 10, 20), rng.uniform(1, 10, 20)
        assert em.rmsle(y, p) == pytest.approx(em.rmsle(p, y), rel=1e-15)

    def test_smape(self):
        assert em.smape([50.0], [50.0]) == 0.0
        assert abs(em.smape([100.0], [300.0]) - 1.0) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            em.mape([0.0], [1.0])
        with pytest.raises(DomainError):
            em.rmsle([-2.0], [1.0])
        with pytest.raises(DomainError):
            em.smape([0.0], [0.0])
        with pytest.raises(ShapeMismatchError):
            em.mape([1.0], [1.0, 2.0])


class TestAgainstStreamingOracle:
    def test_thousand_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            y = rng.uniform(0.1, 100.0, n)
            p = rng.uniform(0.1, 100.0, n)
            assert em.mape(y, p) == pytest.approx(streaming_mape(y, p), rel=1e-9)
            assert em.rmsle(y, p) == pytest.approx(streaming_rmsle(y, p), rel=1e-9)
            assert em.smape(y, p) == pytest.approx(streaming_smape(y, p), rel=1e-9)


class TestProperties:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), c=st.floats(0.01, 100.0))
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 50.0, 10)
        p = rng.uniform(0.5, 50.0, 10)
        assert em.mape(c * y, c * p) == pytest.approx(em.mape(y, p), rel=1e-9)
        assert em.smape(c * y, c * p) == pytest.approx(em.smape(y, p), rel=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6))
    def test_zero_iff_equal_and_smape_bound(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 50.0, 8)
        p = rng.uniform(0.5, 50.0, 8)
        for fn in (em.mape, em.rmsle, em.smape):
            assert fn(y, y) == 0.0
            if not np.allclose(y, p):
                assert fn(y, p) > 0.0
        assert em.smape(y, p) <= 2.0


def identity_model(sample):
    return sample.y


def scored(predict, ds, idx, baseline_constant=100.0):
    """``evaluate`` of the samples ``idx`` and ``predict``'s yield for each."""
    samples = [ds.samples[i] for i in idx]
    return em.evaluate(samples, [predict(s) for s in samples], baseline_constant)


@pytest.fixture(scope="module")
def ds():
    return sd.generate_dataset(sd.BandSpec("S1"), 15, 3, 8, 8, seed=9)


class TestEvaluate:

    def test_perfect_model_all_zero(self, ds):
        report = scored(identity_model, ds, range(15))
        assert report.mape == report.rmsle == report.smape == 0.0

    def test_group_recombination(self, ds):
        rng = np.random.default_rng(2)
        noisy = {i: ds.samples[i].y * (1 + 0.1 * rng.normal()) for i in range(15)}
        report = scored(lambda s: noisy[s.plot_id], ds, range(15))
        # global MAPE is the sample-count-weighted mean of the group MAPEs
        weighted = sum(g["mape"] * g["n"] for g in report.per_group.values())
        assert weighted / report.n == pytest.approx(report.mape, rel=1e-12)
        assert sum(g["n"] for g in report.per_group.values()) == report.n

    def test_baseline_row(self, ds):
        train_mean = float(np.mean([s.y for s in ds.samples[:10]]))
        report = scored(identity_model, ds, range(10, 15), baseline_constant=train_mean)
        assert report.baseline["mape"] > 0.0
        expected = em.mape([s.y for s in ds.samples[10:15]],
                           [train_mean] * 5)
        assert report.baseline["mape"] == pytest.approx(expected, rel=1e-12)

    def test_empty_split_rejected(self, ds):
        with pytest.raises(DomainError):
            scored(identity_model, ds, [])

    def test_report_files_round_trip(self, ds, tmp_path):
        report = scored(identity_model, ds, range(15))
        table, kv = tmp_path / "report.txt", tmp_path / "report.kv"
        em.write_report_table(report, table)
        em.write_report_kv(report, kv)
        text = table.read_text()
        assert text.startswith("metric,value,group,n\n")
        assert "baseline_mape" in text
        back = em.read_report_kv(kv)
        assert float(back["mape"]) == report.mape
        assert int(back["n"]) == 15
        assert float(back["baseline_smape"]) == report.baseline["smape"]
