import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cropyield import tensor as tc
from cropyield.errors import (
    DomainError,
    GraphConsumedError,
    NumericalError,
    ShapeMismatchError,
)
from cropyield.tensor import Tensor, param


def conv2d_bruteforce(x, k, padding):
    """Independent nested-loop cross-correlation oracle."""
    c_out, c_in, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = x.shape[1] + 2 * padding - kh + 1
    w_out = x.shape[2] + 2 * padding - kw + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                s = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            s += xp[c, i + a, j + b] * k[o, c, a, b]
                out[o, i, j] = s
    return out


def conv_one(x, kernels, padding=0, dilation=1):
    """The convolution of one [C,H,W] map: a one-item ``conv_items``."""
    (out,) = tc.conv_items(tc.reshape(x, (1,) + x.shape), [kernels], padding, dilation)
    return tc.reshape(out, out.shape[1:])


class TestConv2d:
    def test_all_ones_center_is_nine(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv_one(x, k, padding=1)
        oracle = conv2d_bruteforce(x.data, k.data, 1)
        assert out.data[0, 1, 1] == 9.0
        np.testing.assert_array_equal(out.data, oracle)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 5, 7)))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = conv_one(x, Tensor(k), padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_kernel_annihilates(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 4, 4)))
        out = conv_one(x, Tensor(np.zeros((3, 2, 3, 3))), padding=1)
        assert np.all(out.data == 0.0)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(2)
        for pad in (0, 1, 2):
            x = rng.normal(size=(3, 6, 5))
            k = rng.normal(size=(4, 3, 3, 3))
            got = conv_one(Tensor(x), Tensor(k), padding=pad).data
            np.testing.assert_allclose(got, conv2d_bruteforce(x, k, pad), rtol=1e-12)

    def test_dilation_matches_zero_stuffed_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 9, 9))
        k = rng.normal(size=(2, 2, 3, 3))
        stuffed = np.zeros((2, 2, 5, 5))
        stuffed[:, :, ::2, ::2] = k
        got = conv_one(Tensor(x), Tensor(k), padding=2, dilation=2).data
        want = conv2d_bruteforce(x, stuffed, 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv_one(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))), padding=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv_one(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))))

    @pytest.mark.parametrize("k1,k2", [(3, 5), (3, 1), (1, 3)])
    def test_kernels_of_one_call_must_share_their_size(self, k1, k2):
        x = Tensor(np.ones((2, 3, 6, 6)))
        kernels = [param(np.ones((4, 3, k, k))) for k in (k1, k2)]
        with pytest.raises(ShapeMismatchError,
                           match=rf"\(4, 3, {k1}, {k1}\) and \(4, 3, {k2}, {k2}\)"):
            tc.conv_items(x, kernels, padding=1)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10**6), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)))
        lhs = conv_one(Tensor(a * x + b * y), k, padding=1).data
        rhs = a * conv_one(Tensor(x), k, padding=1).data + b * conv_one(Tensor(y), k, padding=1).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestPoolAndActivations:
    def test_pool_constant(self):
        out = tc.global_avg_pool(Tensor(np.full((3, 4, 4), 2.5)))
        np.testing.assert_array_equal(out.data, [2.5, 2.5, 2.5])

    def test_pool_hand_sum(self):
        out = tc.global_avg_pool(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.data[0] == 2.5

    def test_pool_zero(self):
        assert np.all(tc.global_avg_pool(Tensor(np.zeros((2, 3, 3)))).data == 0.0)

    def test_sigmoid_symmetry_point(self):
        assert tc.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_odd(self):
        assert tc.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_ln3(self):
        got = tc.sigmoid(Tensor(math.log(3.0))).item()
        assert abs(got - 0.75) < 1e-9

    def test_sigmoid_extreme_is_finite(self):
        out = tc.sigmoid(Tensor([-1e4, 1e4])).data
        assert np.all(np.isfinite(out))
        assert 0.0 <= out[0] and out[1] <= 1.0

    def test_identity_and_relu(self):
        # relu is the identity on positive inputs and NaN, and +0.0 elsewhere
        x = Tensor([-1.0, -0.0, 0.0, 2.0, np.nan])
        out = tc.relu(x).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 2.0, np.nan])
        assert not np.signbit(out[:3]).any()


class TestGradCheck:
    def test_sum_of_squares(self):
        x = param(np.random.default_rng(5).normal(size=(4, 3)))
        err = tc.grad_check(lambda t: (t * t).sum(), x)
        assert err < 1e-6

    def test_constant_function(self):
        x = param(np.ones(3))
        err = tc.grad_check(lambda t: Tensor(7.0) + (t * Tensor(np.zeros(3))).sum(), x)
        assert err == 0.0
        assert np.all(x.grad == 0.0)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            tc.grad_check(lambda t: t.sum(), param(np.ones(2)), eps=1e-2)


def _primitive_cases():
    rng = np.random.default_rng(11)
    x34 = rng.normal(size=(3, 4))
    y34 = rng.normal(size=(3, 4)) + 3.0  # offset keeps div away from 0
    v5 = rng.normal(size=5)
    m45 = rng.normal(size=(4, 5))
    img = rng.normal(size=(2, 5, 5))
    ker = rng.normal(size=(3, 2, 3, 3)) * 0.5
    w355 = rng.normal(size=(3, 5, 5))
    img99 = rng.normal(size=(2, 9, 9))
    return [
        ("add", lambda t: (t + Tensor(y34)).sum(), x34),
        ("sub", lambda t: (Tensor(y34) - t).sum(), x34),
        ("mul", lambda t: (t * Tensor(y34)).mean(), x34),
        ("div", lambda t: (t / Tensor(y34)).sum(), x34),
        ("div_denom", lambda t: (Tensor(x34) / t).sum(), y34),
        ("neg", lambda t: (-t).sum(), x34),
        ("exp", lambda t: tc.exp(t).sum(), x34 * 0.3),
        ("log", lambda t: tc.log(t).sum(), np.abs(x34) + 0.5),
        ("sqrt", lambda t: tc.sqrt(t).sum(), np.abs(x34) + 0.5),
        ("sigmoid", lambda t: tc.sigmoid(t).sum(), x34),
        ("tanh", lambda t: tc.tanh(t).sum(), x34),
        ("relu", lambda t: tc.relu(t).sum(), x34 + 0.1),
        ("mean", lambda t: t.mean(), x34),
        ("reshape", lambda t: (tc.reshape(t, (12,)) * Tensor(np.arange(12.0))).sum(), x34),
        ("getitem", lambda t: (t[1] * t[1]).sum(), x34),
        ("matmul_vec", lambda t: (Tensor(m45) @ t).sum(), v5),
        ("matmul_mat", lambda t: (t @ Tensor(v5)).sum(), m45),
        ("concat", lambda t: tc.concat([t, t * Tensor(2.0)], axis=0).sum(), x34),
        ("take_channels", lambda t: (tc.take_channels(t, [1, 0, 0]) * Tensor(w355)).sum(), img),
        ("conv_input", lambda t: (conv_one(t, Tensor(ker), padding=1) * Tensor(w355)).sum(), img),
        ("conv_kernel", lambda t: (conv_one(Tensor(img), t, padding=1) * Tensor(w355)).sum(), ker),
        ("conv_dilated", lambda t: conv_one(Tensor(img99), t, padding=2, dilation=2).sum(), ker),
        ("pool", lambda t: (tc.global_avg_pool(t) * Tensor([1.0, -2.0])).sum(), img),
        ("softmax", lambda t: (tc.softmax1d(t) * Tensor(np.arange(5.0))).sum(), v5),
    ]


@pytest.mark.parametrize("name,f,x0", _primitive_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_primitive_gradients(name, f, x0):
    err = tc.grad_check(f, param(np.array(x0)), eps=1e-5)
    assert err < 1e-4, f"{name}: relative error {err}"


class TestTapeContract:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(2, 2, 3, 3))

        def run():
            xt, kt = param(np.array(x)), param(np.array(k))
            loss = tc.tanh(conv_one(xt, kt, padding=1)).mean()
            loss.backward()
            return loss.data.copy(), xt.grad.copy(), kt.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_unused_input_grad_exactly_zero(self):
        used = param(np.ones(3))
        unused = param(np.ones(3))
        loss = (used * used).sum()
        loss.backward()
        assert np.all(unused.grad == 0.0)
        assert np.all(used.grad == 2.0)

    def test_grad_accumulates_over_shared_use(self):
        x = param(np.array([2.0]))
        loss = (x * x + x * Tensor(3.0)).sum()
        loss.backward()
        assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_no_graph_without_requires_grad(self):
        x = Tensor(np.ones((2, 3, 3)))
        out = conv_one(x, Tensor(np.ones((1, 2, 3, 3))), padding=1)
        assert out._bw is None and out._parents == ()

    def test_backward_needs_scalar(self):
        with pytest.raises(ShapeMismatchError):
            param(np.ones(3)).backward()

    def test_second_backward_on_the_same_root_raises(self):
        x = param(np.array([1.5, -2.0]))
        loss = (tc.tanh(x) * x).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(GraphConsumedError):
            loss.backward()
        assert x.grad.tobytes() == first.tobytes()  # raised before any gradient moved

    def test_root_built_on_a_consumed_tensor_raises(self):
        x = param(np.array([1.5, -2.0]))
        h = tc.tanh(x)
        loss = (h * h).sum()
        loss.backward()
        first = x.grad.copy()
        assert h.data.tobytes() == np.tanh(x.data).tobytes()  # values stay
        with pytest.raises(GraphConsumedError):
            h.grad  # an intermediate tensor's gradient is freed
        for root in (h.sum(), loss * Tensor(2.0)):
            with pytest.raises(GraphConsumedError):
                root.backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_sum_in_order_adds_left_to_right(self):
        # 24 values of mixed magnitude whose pairwise sum (np.sum) rounds otherwise
        rng = np.random.default_rng(0)
        vals = rng.normal(size=24) * 10.0 ** np.random.default_rng(100).integers(-8, 8, 24)
        want = 0.0
        for v in vals:
            want = want + v
        assert want != np.sum(vals)
        a, b = param(vals[:20].reshape(4, 5)), param(vals[20:])
        total = tc.sum_in_order([a, b])
        assert total.data.tobytes() == np.float64(want).tobytes()
        total.backward()
        assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_close(ref, got, what=""):
    """A gradient summed over the items in one numpy operation against a
    per-item graph's running sum: they round differently, by about 1e-13
    relative."""
    assert np.shape(ref) == np.shape(got), what
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-10 * np.max(np.abs(ref)), what


def _reference_conv2d(xd, kd, padding, dilation, g):
    """The np.pad + sliding_window_view conv2d that the primitive must reproduce
    bit for bit: forward output, kernel gradient and input gradient for an
    upstream gradient ``g``, each accumulated as ``zeros_like(...) += ...``."""
    c_out, c_in, kh, kw = kd.shape
    k_eff = kh + (kh - 1) * (dilation - 1)
    xp = np.pad(xd, ((0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k_eff, k_eff), axis=(1, 2))
    win = win[:, :, :, ::dilation, ::dilation]
    h_out, w_out = win.shape[1:3]
    cols = win.transpose(1, 2, 0, 3, 4).reshape(h_out * w_out, c_in * kh * kw)
    kmat = kd.reshape(c_out, c_in * kh * kw)
    out = (cols @ kmat.T).T.reshape(c_out, h_out, w_out)
    g_out = np.zeros_like(out)  # the upstream gradient as accumulated onto ``out``
    g_out += g
    gmat = g_out.reshape(c_out, h_out * w_out)
    dk = np.zeros_like(kd)
    dk += (gmat @ cols).reshape(kd.shape)
    dcols = (gmat.T @ kmat).reshape(h_out, w_out, c_in, kh, kw)
    dxp = np.zeros_like(xp)
    for a in range(kh):
        for b in range(kw):
            dxp[:, a * dilation:a * dilation + h_out,
                b * dilation:b * dilation + w_out] += dcols[:, :, :, a, b].transpose(2, 0, 1)
    if padding:
        dxp = dxp[:, padding:-padding, padding:-padding]
    dx = np.zeros_like(xd)
    dx += dxp
    return out, dk, dx


def _per_plot_head(feats, w, b, y, order, x_grad):
    """The per-plot head graph the item axis replaces: one convolution + bias +
    mean per plot, the predictions concatenated in chunk order, then the MSE.
    Returns the predictions, the loss and the w, b and input gradients."""
    wt, bt = param(np.array(w)), param(np.array(b))
    xs = [Tensor(np.array(f), requires_grad=x_grad) for f in feats]
    preds = [(conv_one(xs[i], wt, padding=1) + bt).mean() for i in order]
    vec = tc.concat([tc.reshape(s, (1,)) for s in preds], axis=0)
    diff = Tensor(y[order]) - vec
    loss = (diff * diff).mean()
    loss.backward()
    return vec.data, loss.data, wt.grad, bt.grad, [xs[i].grad for i in order]


def _batched_head(feats, w, b, y, order, x_grad):
    """The same chunk through the item-axis primitives, one call each."""
    wt, bt = param(np.array(w)), param(np.array(b))
    xs = [Tensor(np.array(f), requires_grad=x_grad) for f in feats]
    x = tc.concat([tc.reshape(xs[i], (1,) + xs[i].shape) for i in order], axis=0)
    (conv,) = tc.conv_items(x, [wt], padding=1)
    vec = tc.reshape(tc.global_avg_pool(conv + bt), (len(order),))
    diff = Tensor(y[order]) - vec
    loss = (diff * diff).mean()
    loss.backward()
    return vec.data, loss.data, wt.grad, bt.grad, [xs[i].grad for i in order]


class TestBitExact:
    """The low-overhead primitives against the plain formulations they replace,
    and the item axis against per-item graphs: outputs bit for bit, gradients
    that sum over the items to 1e-10."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("c_out", [1, 3])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c_in", [1, 4])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_conv2d_matches_reference(self, padding, dilation, c_out, k, c_in, transposed):
        rng = np.random.default_rng([padding, dilation, c_out, k, c_in, int(transposed)])
        h, w = 9, 8
        xd = rng.normal(size=(c_in, h, w))
        if transposed:  # a [C, W, H] view whose last axis is not contiguous
            xd = rng.normal(size=(c_in, w, h)).transpose(0, 2, 1)
            assert not xd.flags.c_contiguous
        xd[0, 0, 0] = -0.0
        kd = rng.normal(size=(c_out, c_in, k, k))
        k_eff = k + (k - 1) * (dilation - 1)
        g = rng.normal(size=(c_out, h + 2 * padding - k_eff + 1, w + 2 * padding - k_eff + 1))

        x, kern = Tensor(xd[None], requires_grad=True), param(np.array(kd))
        (out,) = tc.conv_items(x, [kern], padding=padding, dilation=dilation)
        (out * Tensor(g[None])).sum().backward()

        ref_out, ref_dk, ref_dx = _reference_conv2d(xd, kd, padding, dilation, g)
        assert np.array_equal(_bits(out.data[0]), _bits(ref_out))
        assert np.array_equal(_bits(kern.grad), _bits(ref_dk))
        assert np.array_equal(_bits(x.grad[0]), _bits(ref_dx))
        assert x.grad[0].strides == ref_dx.strides

    def test_first_gradient_gets_zeros_like_layout(self):
        g = np.arange(12.0).reshape(3, 4).T - 5.0  # non-contiguous [4, 3]
        g[1, 1] = -0.0
        for data in (np.ones((4, 3)), np.asfortranarray(np.ones((4, 3)))):
            leaf = param(data)
            tc._acc(leaf, g)
            ref = np.zeros_like(data)
            ref += g
            assert leaf.grad.strides == ref.strides
            assert leaf.grad.flags.c_contiguous == ref.flags.c_contiguous
            assert np.array_equal(_bits(leaf.grad), _bits(ref))
            assert leaf.grad is not g and not np.shares_memory(leaf.grad, g)
            tc._acc(leaf, g)
            ref += g
            assert np.array_equal(_bits(leaf.grad), _bits(ref))

    def test_released_tensors_sharing_one_gradient_keep_their_own(self):
        # a gate node passes one array to two released convolution outputs
        a, b = param(np.ones((2, 3))), param(np.ones((2, 3)))
        tc.release(a, b)
        g = np.arange(6.0).reshape(2, 3)
        tc._acc(a, g)
        tc._acc(b, g)
        assert a._grad is g and b._grad is g  # kept by reference, not copied
        tc._acc(b, np.full((2, 3), 0.5))
        assert np.array_equal(a._grad, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(b._grad, np.arange(6.0).reshape(2, 3) + 0.5)
        assert np.array_equal(g, np.arange(6.0).reshape(2, 3))

    def test_sigmoid_matches_three_exp_form(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7,
                      709.0, -709.0, 710.0, -710.0, 745.2, -745.2, 1e4, -1e4,
                      np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf])
        ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        leaf = param(np.array(x))
        out = tc.sigmoid(leaf)
        assert np.array_equal(_bits(out.data), _bits(ref))
        out.sum().backward()
        assert np.array_equal(_bits(leaf.grad), _bits(ref * (1.0 - ref)))

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 10, 10), (13, 9, 11), (2, 1, 1)])
    def test_means_match_ndarray_mean(self, shape):
        x = np.random.default_rng(len(shape)).normal(size=shape) * 1e3
        assert np.array_equal(_bits(tc.tmean(Tensor(x)).data), _bits(x.mean()))
        if len(shape) == 3:
            assert np.array_equal(_bits(tc.global_avg_pool(Tensor(x)).data),
                                  _bits(x.mean(axis=(1, 2))))

    def test_sum_and_mean_gradients_fill(self):
        for op, scale in ((tc.tsum, 1.0), (tc.tmean, 1.0 / 12)):
            leaf = param(np.ones((3, 4)))
            (op(leaf) * Tensor(3.0)).backward()
            assert np.array_equal(_bits(leaf.grad),
                                  _bits(np.broadcast_to(np.float64(3.0) * scale, (3, 4)).copy()))

    @pytest.mark.parametrize("hw", [10, 32])
    @pytest.mark.parametrize("c_sel", [1, 9, 16])
    @pytest.mark.parametrize("n", [1, 2, 7, 48])
    def test_head_matches_per_plot_graph(self, n, c_sel, hw):
        rng = np.random.default_rng([n, c_sel, hw])
        feats = rng.normal(size=(n, c_sel, hw, hw))
        feats[0, 0, 0, 0] = -0.0
        w, b = rng.normal(size=(1, c_sel, 3, 3)), rng.normal()
        y = rng.normal(size=n)
        for order in (np.arange(n), rng.permutation(n), np.arange(n)[::-1]):
            ref = _per_plot_head(feats, w, b, y, order, x_grad=True)
            got = _batched_head(feats, w, b, y, order, x_grad=True)
            for what, a, g in zip(("predictions", "loss"), ref, got):
                assert np.array_equal(_bits(a), _bits(g)), what
            for what, a, g in zip(("w grad", "b grad"), ref[2:4], got[2:4]):
                _assert_close(a, g, what)
            for k, (a, g) in enumerate(zip(ref[4], got[4])):
                assert np.array_equal(_bits(a), _bits(g)), f"input grad of item {k}"

    def test_frozen_input_records_no_input_gradient(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(5, 4, 10, 10))
        w, b, y = rng.normal(size=(1, 4, 3, 3)), 0.5, rng.normal(size=5)
        order = rng.permutation(5)
        ref = _per_plot_head(feats, w, b, y, order, x_grad=False)
        got = _batched_head(feats, w, b, y, order, x_grad=False)
        for a, g in zip(ref[:2], got[:2]):
            assert np.array_equal(_bits(a), _bits(g))
        for a, g in zip(ref[2:4], got[2:4]):
            _assert_close(a, g)
        assert all(x is None or not np.any(x) for x in got[4])

    @pytest.mark.parametrize("item_kernels", [False, True])
    @pytest.mark.parametrize("k,padding,dilation", [(1, 0, 1), (3, 1, 1), (3, 2, 2), (5, 2, 1)])
    def test_conv_items_matches_conv2d_per_item(self, k, padding, dilation, item_kernels):
        # three kernels from one gather; item n of each output, its input
        # gradient and the kernel gradients against N separate one-item graphs
        rng = np.random.default_rng([k, padding, dilation, int(item_kernels)])
        n, c_in, c_out = 4, 3, 5
        xd = rng.normal(size=(n, c_in, 9, 8))
        xd[1, 0, 0, 0] = -0.0
        kshape = ((n,) if item_kernels else ()) + (c_out, c_in, k, k)
        kds = [rng.normal(size=kshape) for _ in range(3)]
        k_eff = k + (k - 1) * (dilation - 1)
        g = rng.normal(size=(3, n, c_out, 9 + 2 * padding - k_eff + 1, 8 + 2 * padding - k_eff + 1))

        kerns = [param(np.array(kd)) for kd in kds]
        xs = [Tensor(np.array(x), requires_grad=True) for x in xd]
        loss = None
        for i, x in enumerate(xs):
            for j, kern in enumerate(kerns):
                kern_i = kern[i] if item_kernels else kern
                term = (conv_one(x, kern_i, padding, dilation) * Tensor(g[j, i])).sum()
                loss = term if loss is None else loss + term
        loss.backward()
        ref_outs = [[conv_one(Tensor(x), Tensor(kd[i] if item_kernels else kd), padding,
                               dilation).data for i, x in enumerate(xd)] for kd in kds]

        kerns_b = [param(np.array(kd)) for kd in kds]
        x_b = Tensor(np.array(xd), requires_grad=True)
        outs = tc.conv_items(x_b, kerns_b, padding, dilation)
        loss_b = None
        for i in range(n):
            for j, out in enumerate(outs):
                term = (out[i] * Tensor(g[j, i])).sum()
                loss_b = term if loss_b is None else loss_b + term
        loss_b.backward()
        for j, out in enumerate(outs):
            assert out.shape == (n,) + ref_outs[j][0].shape
            for i in range(n):
                assert np.array_equal(_bits(out.data[i]), _bits(ref_outs[j][i])), (j, i)
            if item_kernels:
                assert np.array_equal(_bits(kerns_b[j].grad), _bits(kerns[j].grad)), j
            else:
                _assert_close(kerns[j].grad, kerns_b[j].grad, j)
        for i in range(n):
            assert np.array_equal(_bits(x_b.grad[i]), _bits(xs[i].grad)), i

    @pytest.mark.parametrize("n", [2, 12, 48])
    def test_shared_kernel_gradient_is_one_sum_of_the_items(self, n):
        # one GEMM per item, then one numpy sum; not one GEMM over all items'
        # rows, whose bits depend on the BLAS thread count
        rng = np.random.default_rng(n)
        xd, kd = rng.normal(size=(n, 8, 10, 10)), rng.normal(size=(8, 8, 3, 3))
        g = rng.normal(size=(n, 8, 10, 10))
        parts = []
        for i in range(n):
            kern = param(np.array(kd))
            (out,) = tc.conv_items(Tensor(xd[i:i + 1]), [kern], padding=1)
            (out * Tensor(g[i:i + 1])).sum().backward()
            parts.append(kern.grad)
        kern = param(np.array(kd))
        (out,) = tc.conv_items(Tensor(xd), [kern], padding=1)
        (out * Tensor(g)).sum().backward()
        assert np.array_equal(_bits(kern.grad), _bits(np.sum(parts, axis=0)))

    @pytest.mark.parametrize("hw", [10, 32])
    def test_pool_matmul_and_softmax_per_item(self, hw):
        rng = np.random.default_rng(hw)
        n, c, m = 5, 8, 3
        xd = rng.normal(size=(n, c, hw, hw))
        wd = rng.normal(size=(m, c))
        g = rng.normal(size=(n, m))

        w = param(np.array(wd))
        xs = [Tensor(np.array(x), requires_grad=True) for x in xd]
        probs = [tc.softmax1d(w @ tc.global_avg_pool(x)) for x in xs]
        loss = None
        for p_i, g_i in zip(probs, g):
            term = (p_i * Tensor(g_i)).sum()
            loss = term if loss is None else loss + term
        loss.backward()

        w_b = param(np.array(wd))
        x_b = Tensor(np.array(xd), requires_grad=True)
        probs_b = tc.softmax1d(w_b @ tc.global_avg_pool(x_b))
        loss_b = None
        for i in range(n):
            term = (probs_b[i] * Tensor(g[i])).sum()
            loss_b = term if loss_b is None else loss_b + term
        loss_b.backward()
        for i in range(n):
            assert np.array_equal(_bits(probs_b.data[i]), _bits(probs[i].data))
            # the items' gradient through matmul is one [N,m] @ [m,n] GEMM
            _assert_close(xs[i].grad, x_b.grad[i], i)
        _assert_close(w.grad, w_b.grad)

    def test_shape_checks(self):
        maps = Tensor(np.ones((2, 2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            tc.conv_items(Tensor(np.ones((2, 4, 4))), [Tensor(np.ones((1, 2, 3, 3)))], 1)
        with pytest.raises(ShapeMismatchError):
            tc.conv_items(maps, [Tensor(np.ones((3, 1, 2, 3, 3)))], 1)
        with pytest.raises(ShapeMismatchError, match="kernels \\[O,C,k,k\\]"):
            tc.conv_items(maps, [Tensor(np.ones((2, 3, 3)))], 1)
        with pytest.raises(ShapeMismatchError, match="bad padding=-1"):
            tc.conv_items(maps, [Tensor(np.ones((1, 2, 3, 3)))], -1)
        with pytest.raises(ShapeMismatchError, match="output would be 0x0"):
            tc.conv_items(maps, [Tensor(np.ones((1, 2, 5, 5)))], 0)
        with pytest.raises(ShapeMismatchError, match="matmul supports"):
            Tensor(np.ones(3)) @ Tensor(np.ones(3))
        with pytest.raises(ShapeMismatchError, match="matmul supports"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 2, 3)))
        with pytest.raises(ShapeMismatchError, match="inner dims differ"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeMismatchError, match="global_avg_pool expects"):
            tc.global_avg_pool(Tensor(np.ones((3, 3))))


def _kept_col2im(dcols, plan, n):
    """Gradient [N,C,H,W] of N maps from their im2col gradient ``dcols``."""
    c_in, hp, wp = plan.padded
    k, d, h_out, w_out, p = plan.k, plan.dilation, plan.h_out, plan.w_out, plan.padding
    taps = dcols.reshape(n, h_out, w_out, c_in, k, k)
    dxp = np.zeros((n, hp, wp, c_in))
    for a in range(k):
        for b in range(k):
            dxp[:, a * d:a * d + h_out, b * d:b * d + w_out] += taps[..., a, b]
    dxp = dxp.transpose(0, 3, 1, 2)
    return dxp[..., p:-p, p:-p] if p else dxp


def _kept_conv_items(x, kernels, padding=0, dilation=1):
    """``conv_items`` with its im2col kept in the graph: one node per kernel,
    whose backward makes the kernel and input gradients from the saved im2col
    of all N items at once. The re-gathering backward must match it bit for
    bit."""
    xd = x.data
    n = xd.shape[0]
    plans = [tc._conv_plan(xd.shape[1:], kern.data.shape[-4:], padding, dilation)
             for kern in kernels]
    c_in = plans[0].c_in
    xp = tc._pad(xd, plans[0].padded, padding)
    cols = (xp.reshape(n, c_in, -1).transpose(0, 2, 1) if plans[0].k == 1
            else tc._gather(xp, plans[0].gather))
    outs = []
    for kern, plan in zip(kernels, plans):
        kd = kern.data
        kmat = kd.reshape(kd.shape[:-3] + (-1,))

        def bw(g, kern=kern, kd=kd, kmat=kmat, plan=plan):
            gmat = g.reshape(n, kmat.shape[-2], -1)
            if kern.requires_grad:
                dk = np.matmul(gmat, cols)
                tc._acc(kern, (dk if kd.ndim == 5 else dk.sum(axis=0)).reshape(kd.shape))
            if x.requires_grad:
                tc._acc(x, _kept_col2im(np.matmul(gmat.transpose(0, 2, 1), kmat), plan, n))

        out_data = np.matmul(cols, kmat.swapaxes(-1, -2)).transpose(0, 2, 1)
        outs.append(tc._node(out_data.reshape(n, plan.c_out, plan.h_out, plan.w_out),
                             (x, kern), bw))
    return outs


def _conv_chain(conv, xd, kds, g, read, padding, dilation, x_grad):
    """Three calls of ``conv`` that share the kernels ``kds``, as a recurrent
    cell's steps do: each call reads tanh of the sum of the previous call's
    outputs listed in ``read``, and the loss weighs those outputs of every call
    by ``g``. Returns every call's outputs and the kernel and input gradients."""
    kerns = [param(np.array(kd)) for kd in kds]
    x0 = Tensor(np.array(xd), requires_grad=x_grad)
    x, outs, loss = x0, [], None
    for t in range(3):
        step = conv(x, kerns, padding, dilation)
        outs.append([o.data for o in step])
        for j in read:
            term = (step[j] * Tensor(g[t, j])).sum()
            loss = term if loss is None else loss + term
        mix = step[read[0]]
        for j in read[1:]:
            mix = mix + step[j]
        x = tc.tanh(mix)
    loss.backward()
    return outs, [kern.grad for kern in kerns], x0.grad


class TestConvRegathersItsIm2col:
    """``conv_items`` keeps no im2col in the graph, and its backward gathers it
    again in chunks of items: outputs, kernel gradients and input gradients
    bit for bit those of the im2col kept in the graph."""

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 16])
    @pytest.mark.parametrize("k,padding,dilation", [(1, 0, 1), (3, 1, 1), (3, 2, 2)])
    @pytest.mark.parametrize("item_kernels", [False, True])
    @pytest.mark.parametrize("n_kernels,read", [(1, (0,)), (4, (0, 1, 2, 3)), (4, (3, 1))])
    def test_matches_the_kept_im2col(self, n_kernels, read, item_kernels, k, padding,
                                     dilation, n, x_grad):
        rng = np.random.default_rng([n_kernels, len(read), int(item_kernels), k, dilation, n])
        c, h, w = 3, 7, 6
        xd = rng.normal(size=(n, c, h, w))
        xd[0, 0, 0, 0] = -0.0
        kshape = ((n,) if item_kernels else ()) + (c, c, k, k)
        kds = [rng.normal(size=kshape) for _ in range(n_kernels)]
        g = rng.normal(size=(3, n_kernels, n, c, h, w))
        want = _conv_chain(_kept_conv_items, xd, kds, g, read, padding, dilation, x_grad)
        got = _conv_chain(tc.conv_items, xd, kds, g, read, padding, dilation, x_grad)
        for t, (a, b) in enumerate(zip(want[0], got[0])):
            for j in range(n_kernels):
                assert np.array_equal(_bits(a[j]), _bits(b[j])), ("output", t, j)
        for j, (a, b) in enumerate(zip(want[1], got[1])):
            assert np.array_equal(_bits(a), _bits(b)), ("kernel grad", j)
            assert np.any(a) == (j in read), j
        assert np.array_equal(_bits(want[2]), _bits(got[2])), "input grad"
        assert np.any(got[2]) == x_grad


class TestNoGrad:
    def test_outputs_record_no_graph_and_match(self):
        rng = np.random.default_rng(5)
        x = param(rng.normal(size=(2, 5, 5)))
        k = param(rng.normal(size=(3, 2, 3, 3)))

        def forward():
            return tc.sigmoid(conv_one(x, k, padding=1)).mean()

        recorded = forward()
        with tc.no_grad():
            inner = conv_one(x, k, padding=1)
            free = forward()
        assert recorded._bw is not None and recorded._parents
        for t in (inner, free):
            assert t._bw is None and t._parents == () and not t.requires_grad
        assert np.array_equal(_bits(recorded.data), _bits(free.data))
        assert forward()._bw is not None  # recording resumes after the block

    def test_flag_restored_after_error_and_nesting(self):
        x = param(np.ones(3))
        with pytest.raises(RuntimeError):
            with tc.no_grad():
                with tc.no_grad():
                    pass
                assert (x * x)._bw is None
                raise RuntimeError("boom")
        assert (x * x)._bw is not None


class TestTraining:
    def _quadratic(self):
        w = param(np.array([1.0, -2.0, 0.5]))
        target = Tensor(np.array([0.3, 0.1, -0.4]))

        def loss():
            d = w - target
            return (d * d).sum()

        return w, target, loss

    def test_step_is_plain_gradient_descent(self):
        w, target, loss = self._quadratic()
        before = w.data.copy()
        value = tc.sgd_step([w], loss, 0.1, "probe")
        assert value == float(np.sum((before - target.data) ** 2))
        assert w.data.tobytes() == (before - 0.1 * (2.0 * (before - target.data))).tobytes()
        # gradients are zeroed before each loss, not accumulated across steps
        tc.sgd_step([w], loss, 0.0, "probe")
        np.testing.assert_array_equal(w.grad, 2.0 * (w.data - target.data))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_leaves_parameters_bit_unchanged(self, bad):
        w, _, _ = self._quadratic()
        w.data[1] = -0.0
        b = param(np.array(3.0))
        before = w.data.tobytes() + b.data.tobytes()
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match="^probe stage diverged"):
            tc.sgd_step([w, b], lambda: (w * Tensor(bad)).sum() + b, 1e-3, "probe stage")
        assert w.data.tobytes() + b.data.tobytes() == before

    def test_minibatches_cut_one_permutation(self):
        idx = [10, 11, 12, 13, 14, 15, 16]
        batches = tc.minibatches(idx, 3, np.random.default_rng(4))
        perm = np.random.default_rng(4).permutation(len(idx))
        assert batches == [[idx[k] for k in perm[s:s + 3]] for s in (0, 3, 6)]
        assert [len(b) for b in batches] == [3, 3, 1]
        # exactly one draw: the generator then continues where the permutation left it
        rng = np.random.default_rng(4)
        tc.minibatches(range(7), 2, rng)
        ref = np.random.default_rng(4)
        ref.permutation(7)
        assert rng.random() == ref.random()
