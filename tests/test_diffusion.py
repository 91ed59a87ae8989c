import math

import numpy as np
import pytest

from cropyield import diffusion as df
from cropyield import tensor as tc
from cropyield.errors import DomainError, NumericalError
from cropyield.tensor import Tensor


class ZeroDenoiser:
    def __init__(self, sched):
        self.sched = sched

    def forward(self, z, t):
        return Tensor(np.zeros_like(z.data))


class OracleDenoiser:
    """Returns the clean image for a noisy input and, for the clean image at
    timestep t, the recorded noisy target of t plus ``offset``."""

    def __init__(self, z0, targets, sched, offset=0.0):
        self.z0, self.targets, self.sched, self.offset = z0, targets, sched, offset

    def forward(self, z, t):
        ts = np.broadcast_to(t, len(z.data))
        return Tensor(np.stack([
            self.targets[tn - 1] + self.offset if np.array_equal(zn, self.z0) else self.z0
            for zn, tn in zip(z.data, ts)]))


class IdentityDenoiser:
    def __init__(self, sched):
        self.sched = sched

    def forward(self, z, t):
        return z if isinstance(z, Tensor) else Tensor(z)


def _conv(x, kernels, padding):
    """A convolution of one [C,H,W] map, as a one-item ``conv_items``."""
    (out,) = tc.conv_items(tc.reshape(x, (1,) + x.data.shape), [kernels], padding)
    return tc.reshape(out, out.data.shape[1:])


def _ref_forward(den, z, t):
    """The denoiser before the item axis: one [C,H,W] image per call."""
    t_map = Tensor(np.full((1,) + z.data.shape[1:], t / den.sched.steps))
    x = tc.concat([z, t_map], axis=0)
    h = tc.relu(_conv(x, den.conv1, 1) + tc.reshape(den.b1, (-1, 1, 1)))
    return _conv(h, den.conv2, 1) + tc.reshape(den.b2, (-1, 1, 1))


def _ref_loss(z0, den, lam, rng):
    """``diffusion_loss`` before the item axis: one denoiser graph per term."""
    sched = den.sched
    targets = {t: df.forward_diffuse(z0, t, sched, rng) for t in range(1, sched.steps + 1)}
    z0_t = Tensor(z0)
    total = Tensor(0.0)
    for t in range(1, sched.steps + 1):
        diff = _ref_forward(den, Tensor(targets[t]), t) - z0_t
        total = total + (diff * diff).mean()
    if lam > 0:
        subset = rng.choice(sched.steps, size=math.ceil(sched.steps / 2), replace=False) + 1
        for t in sorted(int(t) for t in subset):
            diff = Tensor(targets[t]) - _ref_forward(den, Tensor(z0), t)
            total = total + lam * (diff * diff).sum()
    return total


def _scalar_tail_loss(z0, den, lam, rng):
    """``diffusion_loss`` with its sum as a chain of scalar nodes: three nodes
    per term (``sums[i, 0]``, ``/ z0.size`` or ``lam *``, ``+``)."""
    steps = den.sched.steps
    betas = np.asarray(den.sched.betas, dtype=np.float64)
    noisy = betas != 1.0
    eps = rng.standard_normal((int(noisy.sum()),) + np.shape(z0))
    beta = betas[noisy].reshape((-1,) + (1,) * np.ndim(z0))
    targets = np.repeat(np.asarray(z0, dtype=np.float64)[None], steps, axis=0)
    targets[noisy] = beta * z0 + np.sqrt(1.0 - beta) * eps
    ts = list(range(1, steps + 1))
    if lam > 0:
        ts += sorted(int(t) for t in rng.choice(steps, size=math.ceil(steps / 2),
                                                replace=False) + 1)
    traj = np.array(ts[steps:], dtype=np.intp) - 1
    clean = np.broadcast_to(z0, (len(traj),) + np.shape(z0))
    out = den.forward(Tensor(np.concatenate([targets, clean])), ts)
    diff = out - Tensor(np.concatenate([np.broadcast_to(z0, targets.shape), targets[traj]]))
    sums = tc.tsum(tc.reshape(diff * diff, (len(ts), -1)), axis=1)
    total = Tensor(0.0)
    for i in range(len(ts)):
        total = total + (sums[i, 0] / z0.size if i < steps else lam * sums[i, 0])
    return total


def _ref_augment(frames, den, rng):
    """``augment_pair`` before the item axis: frame by frame, view by view,
    one forward draw, one denoiser call and one reverse draw per round trip
    through t = 1. Both draws are made whenever beta_1 < 1, even at a zero
    ``SIGMA_SCALE``."""
    sched = den.sched
    beta = sched.beta(1)
    sigma = df.SIGMA_SCALE * math.sqrt(1.0 - beta)

    def round_trip(frame):
        z = df.forward_diffuse(frame, 1, sched, rng)
        with tc.no_grad():
            z = _ref_forward(den, Tensor(z), 1).data
        if beta != 1.0:
            z = z + sigma * rng.standard_normal(z.shape)
        return z

    pairs = [(round_trip(f), round_trip(f)) for f in frames]
    return np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.fixture
def sched():
    return df.linear_schedule(steps=10, beta_end=0.30)


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
    def test_sigma_zero_returns_mean_exactly(self):
        # beta_1 = 1: no forward noise, and sigma_1 = 0 whatever the scale
        sched = df.NoiseSchedule((1.0, 0.5))
        rng = np.random.default_rng(4)
        den = df.init_denoiser(2, 4, sched, rng)
        z = rng.normal(size=(3, 2, 5, 5))
        a, b = df.augment_pair(z, den, rng)
        np.testing.assert_array_equal(a, den.forward(Tensor(z), 1).data)
        np.testing.assert_array_equal(b, a)

    def test_zero_denoiser_unit_sigma_standard_normal(self, monkeypatch):
        # sigma_1 = 2 sqrt(1 - 0.75) = 1
        monkeypatch.setattr(df, "SIGMA_SCALE", 2.0)
        sched = df.NoiseSchedule((0.75,))
        draws = np.concatenate(df.augment_pair(
            np.ones((5_000, 1, 4, 4)), ZeroDenoiser(sched), np.random.default_rng(5)))
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_shape_preserved(self, sched):
        rng = np.random.default_rng(6)
        den = df.init_denoiser(3, 4, sched, rng)
        z = rng.normal(size=(2, 3, 6, 7))
        a, b = df.augment_pair(z, den, rng)
        assert a.shape == b.shape == z.shape


class TestTrajectoryConsistency:
    """The trajectory term of ``diffusion_loss``: the reconstruction terms
    are zeroed by an oracle that returns the clean image for noisy inputs."""

    @staticmethod
    def _targets(z0, sched, seed):
        rng = np.random.default_rng(seed)
        return [df.forward_diffuse(z0, t, sched, rng) for t in range(1, sched.steps + 1)]

    def test_forced_equal_is_zero(self, sched):
        z0 = np.random.default_rng(7).normal(size=(2, 4, 4))
        den = OracleDenoiser(z0, self._targets(z0, sched, 42), sched)
        out = df.diffusion_loss(z0, den, 0.5, np.random.default_rng(42))
        assert out.item() == 0.0

    def test_constant_offset_gives_n_c_squared(self, sched):
        z0 = np.random.default_rng(8).normal(size=(2, 4, 4))
        c, lam = 0.37, 0.5
        den = OracleDenoiser(z0, self._targets(z0, sched, 43), sched, offset=c)
        out = df.diffusion_loss(z0, den, lam, np.random.default_rng(43))
        terms = math.ceil(sched.steps / 2)
        assert abs(out.item() - lam * terms * z0.size * c * c) < 1e-9

    def test_non_negative(self, sched):
        rng = np.random.default_rng(9)
        den = df.init_denoiser(2, 4, sched, rng)
        for seed in range(5):
            z0 = np.random.default_rng(seed).normal(size=(2, 4, 4))
            with_traj = df.diffusion_loss(z0, den, 1.0, np.random.default_rng(seed))
            recon = df.diffusion_loss(z0, den, 0.0, np.random.default_rng(seed))
            assert with_traj.item() >= recon.item()


class TestDiffusionLoss:
    def test_lambda_zero_equals_reconstruction_sum(self, sched):
        rng = np.random.default_rng(10)
        den = df.init_denoiser(2, 4, sched, rng)
        z0 = rng.normal(size=(2, 5, 5))
        got = df.diffusion_loss(z0, den, 0.0, np.random.default_rng(77))
        # independent recomputation with the identical rng stream
        rng2 = np.random.default_rng(77)
        want = 0.0
        for t in range(1, sched.steps + 1):
            z_t = df.forward_diffuse(z0, t, sched, rng2)
            want += float(((den.forward(Tensor(z_t[None]), t).data[0] - z0) ** 2).mean())
        assert abs(got.item() - want) < 1e-12

    def test_perfect_denoiser_single_step_beta_one(self):
        sched = df.NoiseSchedule((1.0,))
        z0 = np.random.default_rng(11).normal(size=(2, 4, 4))
        out = df.diffusion_loss(z0, IdentityDenoiser(sched), 0.5, np.random.default_rng(0))
        assert out.item() == 0.0

    def test_gradient_wrt_denoiser_params(self, sched):
        rng = np.random.default_rng(12)
        den = df.init_denoiser(2, 3, sched, rng)
        z0 = rng.normal(size=(2, 5, 5)) * 0.5

        worst = 0.0
        for p in den.parameters():
            err = tc.grad_check(
                lambda _p: df.diffusion_loss(z0, den, 0.1, np.random.default_rng(5)), p
            )
            worst = max(worst, err)
        assert worst < 1e-4


class TestAugmentPair:
    def test_same_seed_same_pair(self, sched):
        rng = np.random.default_rng(14)
        den = df.init_denoiser(2, 4, sched, rng)
        frames = rng.uniform(size=(3, 2, 5, 5))
        a1, b1 = df.augment_pair(frames, den, np.random.default_rng(99))
        a2, b2 = df.augment_pair(frames, den, np.random.default_rng(99))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_views_differ_from_input_and_each_other(self, sched):
        rng = np.random.default_rng(15)
        den = df.init_denoiser(2, 4, sched, rng)
        frames = rng.uniform(size=(3, 2, 5, 5))
        a, b = df.augment_pair(frames, den, rng)
        for m in range(3):
            assert not np.array_equal(a[m], frames[m])
            assert not np.array_equal(a[m], b[m])

    def test_one_denoiser_pass_at_t1(self, sched):
        calls = []

        class Recording(ZeroDenoiser):
            def forward(self, z, t):
                calls.append((z.data.shape, t))
                return z

        frames = np.random.default_rng(16).uniform(size=(3, 2, 5, 5))
        df.augment_pair(frames, Recording(sched), np.random.default_rng(17))
        assert calls == [((6, 2, 5, 5), 1)]

    def test_beta_one_draws_nothing(self):
        rng = np.random.default_rng(18)
        state = rng.bit_generator.state
        a, b = df.augment_pair(np.ones((2, 1, 4, 4)), ZeroDenoiser(df.NoiseSchedule((1.0, 0.5))),
                               rng)
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(a, 0.0)
        np.testing.assert_array_equal(b, 0.0)


class TestBitExact:
    """The item axis against the per-term loss and the per-frame augmentation:
    the same loss and views bit for bit, the same draws from the generator,
    and the denoiser's gradients (summed over the items) to 1e-10."""

    CASES = {
        "default": (df.linear_schedule(steps=10, beta_end=0.30), 0.1),
        "lam_zero": (df.linear_schedule(steps=10, beta_end=0.30), 0.0),
        "odd_steps": (df.NoiseSchedule(tuple(np.linspace(0.9, 0.2, 7))), 0.3),
        "beta_one": (df.NoiseSchedule((1.0, 1.0, 0.8, 0.5)), 0.1),
        "long_odd": (df.linear_schedule(steps=21, beta_end=0.2), 0.1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loss_and_gradients(self, case):
        sched, lam = self.CASES[case]
        rng = np.random.default_rng(20)
        den = df.init_denoiser(3, 4, sched, rng)
        z0 = rng.normal(size=(3, 6, 5))
        got_rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        runs = []
        for loss_fn in (lambda: df.diffusion_loss(z0, den, lam, got_rng),
                        lambda: _ref_loss(z0, den, lam, ref_rng)):
            for p in den.parameters():
                p.zero_grad()
            loss = loss_fn()
            loss.backward()
            runs.append((_bits(loss.data), [p.grad for p in den.parameters()]))
        (got_loss, got_grads), (want_loss, want_grads) = runs
        np.testing.assert_array_equal(got_loss, want_loss)
        for got, want in zip(got_grads, want_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert got_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loss_sum_matches_the_scalar_chain(self, case):
        """The loss's one ordered-sum node against a chain of scalar nodes:
        the loss and every denoiser gradient bit for bit."""
        sched, lam = self.CASES[case]
        rng = np.random.default_rng(24)
        den = df.init_denoiser(3, 4, sched, rng)
        z0 = rng.normal(size=(3, 6, 5))
        runs = []
        for loss_fn in (df.diffusion_loss, _scalar_tail_loss):
            for p in den.parameters():
                p.zero_grad()
            loss = loss_fn(z0, den, lam, np.random.default_rng(25))
            loss.backward()
            runs.append([loss.data] + [p.grad for p in den.parameters()])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("earlier_calls", [0, 1, 3])
    @pytest.mark.parametrize("sigma_scale", [0.1, 0.0])
    @pytest.mark.parametrize("m", [1, 6])
    def test_views(self, case, earlier_calls, sigma_scale, m, monkeypatch):
        """``earlier_calls`` + 1 successive calls on one generator, each
        against the reference's, with ``SIGMA_SCALE`` set to ``sigma_scale``:
        a zero scale still draws the reverse plane, so the calls after the
        first read the same stream as the reference's."""
        monkeypatch.setattr(df, "SIGMA_SCALE", sigma_scale)
        sched, _ = self.CASES[case]
        rng = np.random.default_rng(22)
        den = df.init_denoiser(3, 4, sched, rng)
        frames = rng.normal(size=(m, 3, 6, 5))
        got_rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        for _ in range(earlier_calls + 1):
            got = df.augment_pair(frames, den, got_rng)
            want = _ref_augment(frames, den, ref_rng)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(_bits(g), _bits(w))
        assert got_rng.random() == ref_rng.random()


def test_train_denoiser_reduces_loss(monkeypatch):
    monkeypatch.setattr(df, "DENOISER_LR", 0.002)
    sched = df.linear_schedule(steps=6, beta_end=0.4)
    rng = np.random.default_rng(16)
    frames = [rng.uniform(size=(2, 6, 6)) for _ in range(6)]
    den, history = df.train_denoiser(frames, sched, np.random.default_rng(17), epochs=8)
    assert history[-1] < history[0]


def test_trained_round_trip_stays_near_input():
    # round trips through t = 1 of a trained denoiser deviate by well under
    # half the input dynamic range
    sched = df.linear_schedule(steps=10, beta_end=0.30)
    rng = np.random.default_rng(18)
    frames = [rng.uniform(size=(3, 8, 8)) for _ in range(10)]
    den, _ = df.train_denoiser(frames, sched, np.random.default_rng(19), epochs=8)
    probe = frames[0]
    dyn = probe.max() - probe.min()
    mads = []
    for _ in range(10):
        (a,), (b,) = df.augment_pair(probe[None], den, rng)
        mads.append(np.mean(np.abs(a - probe)))
        mads.append(np.mean(np.abs(b - probe)))
    assert np.mean(mads) < 0.5 * dyn


def test_train_denoiser_raise_names_its_stage():
    sched = df.linear_schedule(steps=4, beta_end=0.5)
    frames = [np.full((2, 5, 5), np.nan)]
    with pytest.raises(NumericalError, match="^denoiser training diverged"):
        df.train_denoiser(frames, sched, np.random.default_rng(0), epochs=1)
