import math

import numpy as np
import pytest

from cropyield import diffusion as df
from cropyield import tensor as tc
from cropyield.errors import DomainError, NumericalError
from cropyield.tensor import Tensor


class ZeroDenoiser:
    def forward(self, z, t):
        return Tensor(np.zeros_like(z.data))


class EchoDenoiser:
    """Returns a fixed array regardless of input."""

    def __init__(self, out):
        self.out = out

    def forward(self, z, t):
        return Tensor(np.array(self.out, copy=True))


class IdentityDenoiser:
    def forward(self, z, t):
        return z if isinstance(z, Tensor) else Tensor(z)


@pytest.fixture
def sched():
    return df.linear_schedule(10, 0.95, 0.30)


class TestSchedule:
    def test_monotone_and_bounded(self, sched):
        b = np.array(sched.betas)
        assert np.all(b >= 0) and np.all(b <= 1)
        assert np.all(np.diff(b) <= 0)

    def test_bad_schedules_rejected(self):
        with pytest.raises(DomainError):
            df.NoiseSchedule((0.3, 0.9))  # increasing
        with pytest.raises(DomainError):
            df.NoiseSchedule((1.2, 0.5))

    def test_t_out_of_range(self, sched):
        with pytest.raises(DomainError):
            sched.beta(0)
        with pytest.raises(DomainError):
            sched.beta(11)


class TestForwardDiffuse:
    def test_beta_one_is_identity(self):
        sched = df.NoiseSchedule((1.0, 0.5))
        z0 = np.random.default_rng(0).normal(size=(2, 4, 4))
        out = df.forward_diffuse(z0, 1, sched, np.random.default_rng(1))
        np.testing.assert_array_equal(out, z0)

    def test_beta_zero_standard_normal_moments(self):
        sched = df.NoiseSchedule((1.0, 0.0))
        rng = np.random.default_rng(2)
        draws = np.array([df.forward_diffuse(np.full((5, 5), 3.0), 2, sched, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.0) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_beta_half_ones_moments(self):
        sched = df.NoiseSchedule((1.0, 0.5))
        rng = np.random.default_rng(3)
        draws = np.array([df.forward_diffuse(np.ones((5, 5)), 2, sched, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.5) < 0.05
        assert abs(draws.var() - 0.5) < 0.05

    def test_t_out_of_range(self, sched):
        with pytest.raises(DomainError):
            df.forward_diffuse(np.ones((2, 2)), 0, sched, np.random.default_rng(0))


class TestReverseStep:
    def test_sigma_zero_returns_mean_exactly(self, sched):
        rng = np.random.default_rng(4)
        den = df.init_denoiser(2, 4, sched.steps, rng)
        z = rng.normal(size=(2, 5, 5))
        out = df.reverse_step(z, 3, den, 0.0, rng)
        np.testing.assert_array_equal(out, den.forward(Tensor(z), 3).data)

    def test_zero_denoiser_unit_sigma_standard_normal(self):
        rng = np.random.default_rng(5)
        draws = np.array([
            df.reverse_step(np.ones((4, 4)), 1, ZeroDenoiser(), 1.0, rng) for _ in range(10_000)
        ])
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_shape_preserved(self, sched):
        rng = np.random.default_rng(6)
        den = df.init_denoiser(3, 4, sched.steps, rng)
        z = rng.normal(size=(3, 6, 7))
        assert df.reverse_step(z, 2, den, 0.5, rng).shape == z.shape


class TestTrajectoryConsistency:
    def test_forced_equal_is_zero(self, sched):
        z0 = np.random.default_rng(7).normal(size=(2, 4, 4))
        target = df.forward_diffuse(z0, 4, sched, np.random.default_rng(42))
        out = df.trajectory_consistency(z0, 4, EchoDenoiser(target), sched, np.random.default_rng(42))
        assert out.item() == 0.0

    def test_constant_offset_gives_n_c_squared(self, sched):
        z0 = np.random.default_rng(8).normal(size=(2, 4, 4))
        c = 0.37
        target = df.forward_diffuse(z0, 4, sched, np.random.default_rng(43))
        out = df.trajectory_consistency(z0, 4, EchoDenoiser(target + c), sched, np.random.default_rng(43))
        assert abs(out.item() - z0.size * c * c) < 1e-9

    def test_non_negative(self, sched):
        rng = np.random.default_rng(9)
        den = df.init_denoiser(2, 4, sched.steps, rng)
        for seed in range(5):
            z0 = np.random.default_rng(seed).normal(size=(2, 4, 4))
            assert df.trajectory_consistency(z0, 3, den, sched, np.random.default_rng(seed)).item() >= 0.0


class TestDiffusionLoss:
    def test_lambda_zero_equals_reconstruction_sum(self, sched):
        rng = np.random.default_rng(10)
        den = df.init_denoiser(2, 4, sched.steps, rng)
        z0 = rng.normal(size=(2, 5, 5))
        got = df.diffusion_loss(z0, den, sched, 0.0, np.random.default_rng(77))
        # independent recomputation with the identical rng stream
        rng2 = np.random.default_rng(77)
        want = 0.0
        for t in range(1, sched.steps + 1):
            z_t = df.forward_diffuse(z0, t, sched, rng2)
            want += float(((den.forward(Tensor(z_t), t).data - z0) ** 2).mean())
        assert abs(got.item() - want) < 1e-12

    def test_perfect_denoiser_single_step_beta_one(self):
        sched = df.NoiseSchedule((1.0,))
        z0 = np.random.default_rng(11).normal(size=(2, 4, 4))
        out = df.diffusion_loss(z0, IdentityDenoiser(), sched, 0.5, np.random.default_rng(0))
        assert out.item() == 0.0

    def test_gradient_wrt_denoiser_params(self, sched):
        rng = np.random.default_rng(12)
        den = df.init_denoiser(2, 3, sched.steps, rng)
        z0 = rng.normal(size=(2, 5, 5)) * 0.5

        worst = 0.0
        for p in den.parameters():
            err = tc.grad_check(
                lambda _p: df.diffusion_loss(z0, den, sched, 0.1, np.random.default_rng(5)), p
            )
            worst = max(worst, err)
        assert worst < 1e-4


class TestAugmentPair:
    def test_depth_zero_is_identity(self, sched):
        rng = np.random.default_rng(13)
        den = df.init_denoiser(2, 4, sched.steps, rng)
        frame = rng.uniform(size=(2, 5, 5))
        a, b = df.augment_pair(frame, den, sched, 0, rng)
        np.testing.assert_array_equal(a, frame)
        np.testing.assert_array_equal(b, frame)

    def test_same_seed_same_pair(self, sched):
        rng = np.random.default_rng(14)
        den = df.init_denoiser(2, 4, sched.steps, rng)
        frame = rng.uniform(size=(2, 5, 5))
        a1, b1 = df.augment_pair(frame, den, sched, 5, np.random.default_rng(99))
        a2, b2 = df.augment_pair(frame, den, sched, 5, np.random.default_rng(99))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_views_differ_from_input_and_each_other(self, sched):
        rng = np.random.default_rng(15)
        den = df.init_denoiser(2, 4, sched.steps, rng)
        frame = rng.uniform(size=(2, 5, 5))
        a, b = df.augment_pair(frame, den, sched, 5, rng)
        assert not np.array_equal(a, frame)
        assert not np.array_equal(a, b)

    def test_depth_beyond_schedule_rejected(self, sched):
        with pytest.raises(DomainError):
            df.augment_pair(np.ones((1, 5, 5)), ZeroDenoiser(), sched, 11, np.random.default_rng(0))


def test_train_denoiser_reduces_loss():
    sched = df.linear_schedule(6, 0.95, 0.4)
    rng = np.random.default_rng(16)
    frames = [rng.uniform(size=(2, 6, 6)) for _ in range(6)]
    den, history = df.train_denoiser(frames, 2, sched, np.random.default_rng(17), epochs=8, lr=0.002)
    assert history[-1] < history[0]


def test_trained_round_trip_stays_near_input():
    # half-depth round trips through a trained denoiser deviate by well under
    # half the input dynamic range
    sched = df.linear_schedule(10, 0.95, 0.30)
    rng = np.random.default_rng(18)
    frames = [rng.uniform(size=(3, 8, 8)) for _ in range(10)]
    den, _ = df.train_denoiser(frames, 3, sched, np.random.default_rng(19), epochs=8)
    probe = frames[0]
    dyn = probe.max() - probe.min()
    mads = []
    for _ in range(10):
        a, b = df.augment_pair(probe, den, sched, sched.steps // 2, rng)
        mads.append(np.mean(np.abs(a - probe)))
        mads.append(np.mean(np.abs(b - probe)))
    assert np.mean(mads) < 0.5 * dyn


def test_train_denoiser_raise_names_its_stage():
    sched = df.linear_schedule(4, 0.95, 0.5)
    frames = [np.full((2, 5, 5), np.nan)]
    with pytest.raises(NumericalError, match="^denoiser training diverged"):
        df.train_denoiser(frames, 2, sched, np.random.default_rng(0), epochs=1)
