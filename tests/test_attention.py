import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cropyield import attention as at
from cropyield import tensor as tc
from cropyield.errors import ConfigError, DomainError, ShapeMismatchError
from cropyield.tensor import Tensor


def make_params(channels=4, rng_seed=0, **kw):
    return at.init_ssa_params(channels, np.random.default_rng(rng_seed), groups=2, **kw)


class TestSeAttention:
    def test_zero_input_zero_output(self):
        p = make_params()
        out = at.se_attention(Tensor(np.zeros((1, 4, 5, 5))), p.se)
        assert np.all(out.data == 0.0)

    def test_zero_weights_half_scale(self):
        se = at.SeParams(w1=tc.param(np.zeros((2, 4))), w2=tc.param(np.zeros((4, 2))))
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 5, 5))
        out = at.se_attention(Tensor(h[None]), se)
        np.testing.assert_allclose(out.data[0], 0.5 * h, atol=1e-12)

    def test_ratio_constant_per_channel(self):
        p = make_params()
        h = np.random.default_rng(2).normal(size=(4, 6, 6)) + 5.0  # keep away from 0
        out = at.se_attention(Tensor(h[None]), p.se)
        ratio = out.data[0] / h
        for c in range(4):
            assert np.allclose(ratio[c], ratio[c].flat[0])
            assert 0.0 < ratio[c].flat[0] < 1.0

    def test_never_increases_magnitude_or_flips_sign(self):
        p = make_params()
        h = np.random.default_rng(3).normal(size=(4, 5, 5))
        out = at.se_attention(Tensor(h[None]), p.se).data[0]
        assert np.all(np.abs(out) <= np.abs(h))
        assert np.all(out * h >= 0.0)


class TestChannelShuffle:
    def test_g1_identity(self):
        x = np.random.default_rng(4).normal(size=(6, 3, 3))
        out = at.channel_shuffle(Tensor(x), 1)
        np.testing.assert_array_equal(out.data, x)

    def test_c4_g2_order(self):
        x = np.stack([np.full((2, 2), i) for i in range(4)])
        out = at.channel_shuffle(Tensor(x), 2)
        assert [out.data[i, 0, 0] for i in range(4)] == [0, 2, 1, 3]

    def test_shuffle_then_inverse_groups_identity(self):
        x = np.random.default_rng(5).normal(size=(8, 3, 3))
        once = at.channel_shuffle(Tensor(x), 2)
        back = at.channel_shuffle(once, 4)
        np.testing.assert_array_equal(back.data, x)

    @settings(deadline=None, max_examples=20)
    @given(groups=st.sampled_from([1, 2, 3, 6]), seed=st.integers(0, 10**6))
    def test_permutation_preserves_channel_multiset(self, groups, seed):
        x = np.random.default_rng(seed).normal(size=(6, 2, 2))
        out = at.channel_shuffle(Tensor(x), groups).data
        got = sorted(tuple(ch.ravel()) for ch in out)
        want = sorted(tuple(ch.ravel()) for ch in x)
        assert got == want

    def test_bad_groups_rejected(self):
        with pytest.raises(ShapeMismatchError):
            at.channel_shuffle(Tensor(np.zeros((5, 2, 2))), 2)


class TestTemporalAttention:
    def test_single_term(self):
        p = make_params(history=1)
        h = Tensor(np.random.default_rng(6).normal(size=(1, 4, 5, 5)))
        got = at.temporal_attention([h], p)
        want = p.w_temporal.data[0] * at.channel_shuffle(at.se_attention(h, p.se), p.groups).data
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_zero_weights_zero_map(self):
        p = make_params()
        p.w_temporal.data[:] = 0.0
        hist = [Tensor(np.random.default_rng(7).normal(size=(1, 4, 5, 5))) for _ in range(2)]
        assert np.all(at.temporal_attention(hist, p).data == 0.0)

    def test_linear_in_weights(self):
        p = make_params()
        hist = [Tensor(np.random.default_rng(8).normal(size=(1, 4, 5, 5))) for _ in range(2)]
        base = at.temporal_attention(hist, p).data
        p.w_temporal.data[:] *= 2.0
        doubled = at.temporal_attention(hist, p).data
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_empty_history_rejected(self):
        with pytest.raises(DomainError):
            at.temporal_attention([], make_params())

    @pytest.mark.parametrize("mode", ["none", "shuffle_only"])
    def test_additive_in_history_without_se(self, mode):
        # the SE gate is nonlinear in its input, so history additivity holds
        # exactly only for the attention modes that bypass it
        p = make_params(attention_mode=mode)
        rng = np.random.default_rng(20)
        ha = [Tensor(rng.normal(size=(1, 4, 5, 5))) for _ in range(2)]
        hb = [Tensor(rng.normal(size=(1, 4, 5, 5))) for _ in range(2)]
        hsum = [Tensor(a.data + b.data) for a, b in zip(ha, hb)]
        lhs = at.temporal_attention(hsum, p).data
        rhs = at.temporal_attention(ha, p).data + at.temporal_attention(hb, p).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _conv(x, kernels, padding=0, dilation=1):
    """The convolution of one [C,H,W] map: a one-item ``conv_items``."""
    (out,) = tc.conv_items(tc.reshape(x, (1,) + x.shape), [kernels], padding, dilation)
    return tc.reshape(out, out.shape[1:])


class TestCondConv:
    def test_single_expert_equals_conv2d(self):
        p = make_params(experts=1)
        x = Tensor(np.random.default_rng(9).normal(size=(1, 4, 6, 6)))
        got = at.cond_conv(x, p)
        want = _conv(Tensor(x.data[0]), p.experts[0], padding=1)
        np.testing.assert_allclose(got.data[0], want.data, atol=1e-12)
        assert at.routing_weights(x, p)[0, 0] == 1.0

    def test_equal_experts_routing_invariant(self):
        p = make_params(experts=3)
        shared = np.random.default_rng(10).normal(size=p.experts[0].data.shape)
        for e in p.experts:
            e.data[:] = shared
        x = Tensor(np.random.default_rng(11).normal(size=(1, 4, 6, 6)))
        got = at.cond_conv(x, p)
        want = _conv(Tensor(x.data[0]), Tensor(shared), padding=1)
        np.testing.assert_allclose(got.data[0], want.data, atol=1e-10)

    def test_routing_is_probability_vector(self):
        p = make_params(experts=2)
        for seed in range(5):
            x = Tensor(np.random.default_rng(seed).normal(size=(1, 4, 6, 6)))
            pi = at.routing_weights(x, p)[0]
            assert np.all(pi > 0.0) and np.all(pi < 1.0)
            assert abs(pi.sum() - 1.0) < 1e-12


class TestConvStack:
    def test_zero_input_zero_output(self):
        p = make_params()
        out = at.conv_stack(Tensor(np.zeros((1, 4, 5, 5))), p)
        assert np.all(out.data == 0.0)

    def test_identity_conv_reduces_to_cond_conv(self):
        p = make_params()
        eye = np.zeros((4, 4, 1, 1))
        for c in range(4):
            eye[c, c, 0, 0] = 1.0
        p.conv_kernel = tc.param(eye)
        p.conv_bias = tc.param(np.zeros(4))
        x = Tensor(np.abs(np.random.default_rng(12).normal(size=(1, 4, 6, 6))))  # ReLU-transparent
        got = at.conv_stack(x, p)
        want = at.cond_conv(x, p)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    @pytest.mark.parametrize("mode", at.CONV_MODES)
    def test_spatial_dims_preserved(self, mode):
        p = make_params(conv_mode=mode)
        x = Tensor(np.random.default_rng(13).normal(size=(1, 4, 7, 5)))
        out = at.conv_stack(x, p)
        assert out.data.shape[2:] == (7, 5)


class TestFusedForward:
    def test_channel_arithmetic_and_order(self):
        p = make_params()
        rng = np.random.default_rng(14)
        h_t = Tensor(rng.normal(size=(1, 4, 6, 6)))
        hist = [Tensor(rng.normal(size=(1, 4, 6, 6))) for _ in range(2)]
        out = at.ssa_forward(h_t, hist, p)
        spatial = at.conv_stack(h_t, p)
        temporal = at.temporal_attention(hist, p)
        assert out.data.shape[1] == spatial.data.shape[1] + temporal.data.shape[1]
        np.testing.assert_array_equal(out.data[:, :4], spatial.data)
        np.testing.assert_array_equal(out.data[:, 4:], temporal.data)

    @pytest.mark.parametrize("attention_mode", at.ATTENTION_MODES)
    @pytest.mark.parametrize("conv_mode", at.CONV_MODES)
    def test_all_ablation_modes_run(self, attention_mode, conv_mode):
        p = make_params(attention_mode=attention_mode, conv_mode=conv_mode)
        rng = np.random.default_rng(15)
        out = at.ssa_forward(
            Tensor(rng.normal(size=(1, 4, 6, 6))),
            [Tensor(rng.normal(size=(1, 4, 6, 6))) for _ in range(2)],
            p,
        )
        assert out.data.shape == (1, 8, 6, 6)
        assert np.all(np.isfinite(out.data))

    def test_reserved_modes_rejected(self):
        # the tags once reserved for later variants are unknown modes like any other
        for mode in ("cbam", "transformer"):
            with pytest.raises(ConfigError):
                make_params(attention_mode=mode)
        with pytest.raises(ConfigError):
            make_params(conv_mode="deformable")

    def test_gradients_all_params(self):
        rng = np.random.default_rng(16)
        p = make_params(rng_seed=16)
        h_t = rng.normal(size=(1, 4, 6, 6)) * 0.5
        hist = [rng.normal(size=(1, 4, 6, 6)) * 0.5 for _ in range(2)]

        def loss(_t):
            out = at.ssa_forward(Tensor(h_t), [Tensor(h) for h in hist], p)
            return (out * out).sum()

        worst = 0.0
        for t in p.parameters():
            worst = max(worst, tc.grad_check(loss, t))
        assert worst < 1e-4
