import weakref

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import contrastive as ct
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


def _owner(a):
    """The array that owns the memory of ``a``."""
    while a.base is not None:
        a = a.base
    return a


class TestStepReleasesItsConvOutputs:
    def test_grad_mode_step_keeps_no_gate_conv_output(self, monkeypatch):
        """Once the gate nodes are built, the step's eight convolution
        outputs are freed, while the graph it returns stays alive and still
        carries every kernel's gradient."""
        rng = np.random.default_rng(2)
        p = cl.init_convlstm_params(c_in=3, c_hid=4, height=6, width=6, k=3, rng=rng)
        outputs = []
        conv_items = tc.conv_items

        def recording(x, kernels, *args):
            outs = conv_items(x, kernels, *args)
            outputs.extend(weakref.ref(_owner(o.data)) for o in outs)
            return outs

        monkeypatch.setattr(tc, "conv_items", recording)
        prev = cl.ConvLstmState(h=Tensor(rng.normal(size=(2, 4, 6, 6))),
                                c=Tensor(rng.normal(size=(2, 4, 6, 6))))
        state = cl.convlstm_step(Tensor(rng.normal(size=(2, 3, 6, 6))), prev, p)
        assert state.h.requires_grad and len(outputs) == 8
        assert [ref() for ref in outputs] == [None] * 8
        tc.sum_in_order([state.h, state.c]).backward()
        assert all(np.any(w.grad) for w in (p.w_fi, p.w_ff, p.w_fc, p.w_fo,
                                            p.w_hi, p.w_hf, p.w_hc, p.w_ho))


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


def reference_step(f_t, prev, p):
    """``convlstm_step`` with its gate arithmetic as a graph of ``tc``
    primitives, as it was before the cell and output nodes replaced it. It
    runs ``prev=None`` as a ``zero_state``, through all eight convolutions."""
    if prev is None:
        n, _, h, w = f_t.data.shape
        prev = cl.zero_state(n, p.hidden_channels, h, w)
    pad = p.padding
    x_i, x_f, x_c, x_o = tc.conv_items(f_t, [p.w_fi, p.w_ff, p.w_fc, p.w_fo], pad)
    h_i, h_f, h_c, h_o = tc.conv_items(prev.h, [p.w_hi, p.w_hf, p.w_hc, p.w_ho], pad)
    i_t = tc.sigmoid(x_i + h_i + p.w_ci * prev.c + cl._chan(p.b_i))
    f_gate = tc.sigmoid(x_f + h_f + p.w_cf * prev.c + cl._chan(p.b_f))
    candidate = tc.tanh(x_c + h_c + cl._chan(p.b_c))
    c_t = f_gate * prev.c + i_t * candidate
    o_t = tc.sigmoid(x_o + h_o + p.w_co * c_t + cl._chan(p.b_o))
    return cl.ConvLstmState(h=o_t * tc.tanh(c_t), c=c_t)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _random_biases(p, rng):
    for b in (p.b_i, p.b_f, p.b_o, p.b_c):  # away from their zero init, so that each counts
        b.data[...] = rng.uniform(-0.5, 0.5, size=b.data.shape)


def _sequence_and_grads(step, t_steps, n, init, c_in=5, c_hid=8, hw=10):
    """Every state of one sequence run with ``step``, and the gradients of
    the parameters, the frames and a ``"zero"`` or ``"random"`` initial state
    under a loss that reads the final state and the two history states
    before it. ``"zero_state"`` starts from ``cl.zero_state`` and ``"none"``
    from ``None``; neither takes a gradient. All but ``"random"`` draw the
    same parameters, frames and loss weights."""
    rng = np.random.default_rng([t_steps, n, init == "random"])
    p = cl.init_convlstm_params(c_in, c_hid, hw, hw, 3, rng)
    _random_biases(p, rng)
    frames = [tc.param(rng.normal(size=(n, c_in, hw, hw))) for _ in range(t_steps)]
    shape = (n, c_hid, hw, hw)
    if init == "none":
        start = None
    elif init == "zero_state":
        start = cl.zero_state(*shape)
    else:
        start = cl.ConvLstmState(*(tc.param(rng.normal(size=shape) * 0.5 if init == "random"
                                            else np.zeros(shape)) for _ in range(2)))
    states = [start]
    for f_t in frames:
        states.append(step(f_t, states[-1], p))
    read = [states[-1].h, states[-1].c] + [s.h for s in states[max(1, t_steps - 2):-1]]
    tc.sum_in_order([tc.tanh(t) * Tensor(rng.normal(size=shape)) for t in read]).backward()
    named = {f"h{t}": s.h.data for t, s in enumerate(states[1:], 1)}
    named.update({f"c{t}": s.c.data for t, s in enumerate(states[1:], 1)})
    named.update({f"grad {k}": t.grad for k, t in zip(p.named(), p.parameters())})
    named.update({f"grad frame {t}": f_t.grad for t, f_t in enumerate(frames, 1)})
    if init in ("zero", "random"):
        named.update({"grad h0": start.h.grad, "grad c0": start.c.grad})
    return named


class TestFusedStepBitExact:
    """The cell and output nodes against the graph of primitives they
    replace: states and every gradient bit for bit."""

    @pytest.mark.parametrize("init", ["zero", "random"])
    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("t_steps", [1, 2, 3, 6])
    def test_states_and_gradients(self, t_steps, n, init):
        want = _sequence_and_grads(reference_step, t_steps, n, init)
        got = _sequence_and_grads(cl.convlstm_step, t_steps, n, init)
        assert got.keys() == want.keys()
        assert len([k for k in want if k.startswith("grad convlstm/")]) == 15
        for name in want:
            assert np.array_equal(_bits(got[name]), _bits(want[name])), name

    def test_pretraining_minibatch(self, monkeypatch):
        """A pretraining minibatch at the pipeline's shapes (8 pairs, T=6,
        12 bands, 10x10): the loss and every encoder gradient."""
        views = np.random.default_rng(7).normal(size=(16, 6, 12, 10, 10))
        results = []
        for step in (reference_step, cl.convlstm_step):
            monkeypatch.setattr(cl, "convlstm_step", step)
            rng = np.random.default_rng(8)
            lstm = cl.init_convlstm_params(12, 8, 10, 10, 3, rng)
            _random_biases(lstm, rng)
            ssa = at.init_ssa_params(8, rng, groups=2)
            proj = tc.param(rng.uniform(-0.25, 0.25, size=(16, 16)))
            emb = ct.embed_sequence(views, lstm, ssa, proj)
            loss = ct.contrastive_loss(emb[:8], emb[8:], 0.5)
            loss.backward()
            results.append([loss.data] + [t.grad for t in lstm.parameters() + ssa.parameters()
                                          + [proj]])
        for got, want in zip(*results):
            assert np.array_equal(_bits(got), _bits(want))


class TestZeroStateStepBitExact:
    """A sequence from no state, whose first step skips the hidden-state
    convolutions, the forget gate and the peepholes on c_0, against the same
    sequence from ``zero_state`` through the general step and through the
    primitive graph: every state and gradient bit for bit."""

    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("t_steps", [1, 2, 6])
    def test_states_and_gradients(self, t_steps, n):
        got = _sequence_and_grads(cl.convlstm_step, t_steps, n, "none")
        assert len([k for k in got if k.startswith("grad convlstm/")]) == 15
        assert len([k for k in got if k.startswith("grad frame ")]) == t_steps
        for step, init in ((cl.convlstm_step, "zero_state"), (reference_step, "none")):
            want = _sequence_and_grads(step, t_steps, n, init)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(_bits(got[name]), _bits(want[name])), (step, name)

    def test_first_step_convolves_the_frames_alone(self, monkeypatch):
        rng = np.random.default_rng(3)
        p = cl.init_convlstm_params(3, 4, 6, 6, 3, rng)
        calls = []
        conv_items = tc.conv_items

        def recording(x, kernels, *args):
            calls.append(list(kernels))
            return conv_items(x, kernels, *args)

        monkeypatch.setattr(tc, "conv_items", recording)
        cl.convlstm_sequence([rng.normal(size=(2, 3, 6, 6)) for _ in range(2)], p, None)
        assert [len(kernels) for kernels in calls] == [3, 4, 4]
        assert all(a is b for a, b in zip(calls[0], (p.w_fi, p.w_fc, p.w_fo)))

    def test_predict_frames_at_32x32(self, monkeypatch):
        """One L8-shaped plot (T=6, 8 bands, 32x32) through ``predict_frames``,
        against the same prediction with every step from ``zero_state``."""
        from cropyield import predictor as pr
        from cropyield.pipeline import YieldModel

        rng = np.random.default_rng(5)
        lstm = cl.init_convlstm_params(8, 8, 32, 32, 3, rng)
        _random_biases(lstm, rng)
        ssa = at.init_ssa_params(8, rng, groups=2)
        head = pr.HeadParams(w=tc.param(rng.normal(size=(1, 16, 3, 3))),
                             b=tc.param(rng.normal(size=())))
        model = YieldModel(lstm, ssa, head, np.ones(16, dtype=bool), 2000.0, 300.0)
        frames = rng.normal(size=(6, 8, 32, 32))
        got = model.predict_frames(frames)
        step = cl.convlstm_step

        def from_zero_state(f_t, prev, p):
            if prev is None:
                n, _, h, w = f_t.data.shape
                prev = cl.zero_state(n, p.hidden_channels, h, w)
            return step(f_t, prev, p)

        monkeypatch.setattr(cl, "convlstm_step", from_zero_state)
        want = model.predict_frames(frames)
        assert _bits(got) == _bits(want)
