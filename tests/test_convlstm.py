import numpy as np
import pytest

from cropyield import convlstm as cl
from cropyield import tensor as tc
from cropyield.errors import ShapeMismatchError
from cropyield.tensor import Tensor


def zero_params(c_in=2, c_hid=3, h=4, w=4, k=3):
    z = lambda *shape: tc.param(np.zeros(shape))
    return cl.ConvLstmParams(
        w_fi=z(c_hid, c_in, k, k), w_ff=z(c_hid, c_in, k, k),
        w_fo=z(c_hid, c_in, k, k), w_fc=z(c_hid, c_in, k, k),
        w_hi=z(c_hid, c_hid, k, k), w_hf=z(c_hid, c_hid, k, k),
        w_ho=z(c_hid, c_hid, k, k), w_hc=z(c_hid, c_hid, k, k),
        w_ci=z(c_hid, h, w), w_cf=z(c_hid, h, w), w_co=z(c_hid, h, w),
        b_i=z(c_hid), b_f=z(c_hid), b_o=z(c_hid), b_c=z(c_hid),
    )


class TestStepClosedForms:
    def test_zero_weights_nonzero_cell(self):
        # all weights/biases zero, prev cell c0: gates are sigmoid(0)=0.5,
        # candidate tanh(0)=0, so C_t = 0.5*c0 and H_t = 0.5*tanh(0.5*c0)
        p = zero_params()
        rng = np.random.default_rng(0)
        c0 = rng.normal(size=(1, 3, 4, 4))
        prev = cl.ConvLstmState(h=Tensor(np.zeros((1, 3, 4, 4))), c=Tensor(c0))
        out = cl.convlstm_step(Tensor(rng.normal(size=(1, 2, 4, 4))), prev, p)
        np.testing.assert_allclose(out.c.data, 0.5 * c0, atol=1e-12)
        np.testing.assert_allclose(out.h.data, 0.5 * np.tanh(0.5 * c0), atol=1e-12)

    def test_zero_everything_fixed_point(self):
        p = zero_params()
        prev = cl.zero_state(1, 3, 4, 4)
        out = cl.convlstm_step(Tensor(np.zeros((1, 2, 4, 4))), prev, p)
        assert np.all(out.h.data == 0.0)
        assert np.all(out.c.data == 0.0)

    def test_shape_mismatch_rejected(self):
        p = zero_params()
        with pytest.raises(ShapeMismatchError):
            cl.convlstm_step(Tensor(np.zeros((1, 2, 5, 5))), cl.zero_state(1, 3, 4, 4), p)


class TestGradients:
    def test_all_params_pass_grad_check(self):
        rng = np.random.default_rng(1)
        p = cl.init_convlstm_params(c_in=2, c_hid=3, height=5, width=5, k=3, rng=rng)
        frame = rng.normal(size=(1, 2, 5, 5)) * 0.5
        h0 = rng.normal(size=(1, 3, 5, 5)) * 0.3
        c0 = rng.normal(size=(1, 3, 5, 5)) * 0.3

        def loss(_t):
            prev = cl.ConvLstmState(h=Tensor(h0), c=Tensor(c0))
            out = cl.convlstm_step(Tensor(frame), prev, p)
            return (out.h * out.h).sum()

        worst = 0.0
        for t in p.parameters():
            worst = max(worst, tc.grad_check(loss, t))
        assert worst < 1e-4


class TestSequence:
    def test_t1_equals_single_step(self):
        rng = np.random.default_rng(2)
        p = cl.init_convlstm_params(2, 3, 4, 4, 3, rng)
        frame = Tensor(rng.normal(size=(1, 2, 4, 4)))
        init = cl.zero_state(1, 3, 4, 4)
        seq = cl.convlstm_sequence([frame], p, init)
        single = cl.convlstm_step(frame, init, p)
        assert len(seq) == 1
        np.testing.assert_array_equal(seq[0].h.data, single.h.data)
        np.testing.assert_array_equal(seq[0].c.data, single.c.data)

    def test_split_run_equals_full_run(self):
        rng = np.random.default_rng(3)
        p = cl.init_convlstm_params(2, 3, 4, 4, 3, rng)
        frames = [Tensor(rng.normal(size=(1, 2, 4, 4))) for _ in range(4)]
        init = cl.zero_state(1, 3, 4, 4)
        full = cl.convlstm_sequence(frames, p, init)
        first = cl.convlstm_sequence(frames[:2], p, init)
        second = cl.convlstm_sequence(frames[2:], p, first[-1])
        np.testing.assert_array_equal(full[-1].h.data, second[-1].h.data)
        np.testing.assert_array_equal(full[-1].c.data, second[-1].c.data)

    def test_zero_fixed_point_over_time(self):
        p = zero_params()
        frames = [Tensor(np.zeros((1, 2, 4, 4)))] * 3
        states = cl.convlstm_sequence(frames, p, cl.zero_state(1, 3, 4, 4))
        for s in states:
            assert np.all(s.h.data == 0.0) and np.all(s.c.data == 0.0)

    def test_no_lookahead(self):
        rng = np.random.default_rng(4)
        p = cl.init_convlstm_params(2, 3, 4, 4, 3, rng)
        frames = [rng.normal(size=(1, 2, 4, 4)) for _ in range(4)]
        base = cl.convlstm_sequence([Tensor(f) for f in frames], p, cl.zero_state(1, 3, 4, 4))
        frames[2] = frames[2] + 10.0  # perturb the future
        pert = cl.convlstm_sequence([Tensor(f) for f in frames], p, cl.zero_state(1, 3, 4, 4))
        for t in range(2):
            np.testing.assert_array_equal(base[t].h.data, pert[t].h.data)
        assert not np.array_equal(base[2].h.data, pert[2].h.data)


class TestInvariants:
    def test_hidden_bounded_and_gates_strict(self):
        rng = np.random.default_rng(5)
        p = cl.init_convlstm_params(3, 4, 6, 6, 3, rng)
        frames = [Tensor(rng.normal(size=(1, 3, 6, 6))) for _ in range(5)]
        states = cl.convlstm_sequence(frames, p, cl.zero_state(1, 4, 6, 6))
        for s in states:
            assert np.all(np.abs(s.h.data) < 1.0)

    def test_init_is_seeded_and_bounded(self):
        a = cl.init_convlstm_params(2, 3, 4, 4, 3, np.random.default_rng(9))
        b = cl.init_convlstm_params(2, 3, 4, 4, 3, np.random.default_rng(9))
        for ta, tb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)
        s = 1.0 / np.sqrt(2 * 9)
        assert np.all(np.abs(a.w_fi.data) <= s)
