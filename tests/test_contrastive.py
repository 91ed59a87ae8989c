import math

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import contrastive as ct
from cropyield import convlstm as cl
from cropyield import diffusion as df
from cropyield import tensor as tc
from cropyield.errors import DomainError, NumericalError, ShapeMismatchError
from cropyield.tensor import Tensor


def make_encoder(c_in=3, c_hid=4, h=6, w=6, d_e=4, seed=0):
    rng = np.random.default_rng(seed)
    lstm = cl.init_convlstm_params(c_in, c_hid, h, w, 3, rng)
    ssa = at.init_ssa_params(c_hid, rng)
    proj = tc.param(rng.uniform(-0.5, 0.5, size=(d_e, 2 * c_hid)))
    return lstm, ssa, proj


def unit(*vals):
    v = np.array(vals, dtype=float)
    return Tensor(v / np.linalg.norm(v))


class TestEmbedSequence:
    def test_deterministic(self):
        lstm, ssa, proj = make_encoder()
        rng = np.random.default_rng(1)
        frames = [rng.normal(size=(3, 6, 6)) for _ in range(4)]
        a = ct.embed_sequence(frames, lstm, ssa, proj)
        b = ct.embed_sequence(frames, lstm, ssa, proj)
        np.testing.assert_array_equal(a.data, b.data)

    def test_output_length_independent_of_spatial_size(self):
        for h, w in [(6, 6), (8, 10)]:
            lstm, ssa, proj = make_encoder(h=h, w=w)
            frames = [np.random.default_rng(2).normal(size=(3, h, w)) for _ in range(3)]
            v = ct.embed_sequence(frames, lstm, ssa, proj)
            assert v.data.shape == (4,)

    def test_too_short_sequence_rejected(self):
        lstm, ssa, proj = make_encoder()
        frames = [np.zeros((3, 6, 6))] * 2  # history=2 needs >= 3
        with pytest.raises(ShapeMismatchError):
            ct.embed_sequence(frames, lstm, ssa, proj)

    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_encode_features_needs_history_plus_one_frames(self, n_frames):
        # history=2 reads the two states before the last one; with fewer
        # frames the index range used to wrap around the sequence
        lstm, ssa, _ = make_encoder()
        frames = np.zeros((n_frames, 3, 6, 6))
        with pytest.raises(ShapeMismatchError, match="history\\+1 = 3 frames, got %d" % n_frames):
            ct.encode_features(frames, lstm, ssa)

    def test_projection_gradient(self):
        lstm, ssa, proj = make_encoder(seed=3)
        rng = np.random.default_rng(3)
        frames = [rng.normal(size=(3, 6, 6)) * 0.5 for _ in range(3)]

        def loss(_p):
            v = ct.embed_sequence(frames, lstm, ssa, proj)
            return (v * v).sum()

        assert tc.grad_check(loss, proj) < 1e-4


class TestContrastiveLoss:
    def test_one_positive_one_negative_hand_value(self):
        # both anchors: positive sim 1 (identical), negative sim 0 (orthogonal)
        ex, ey = unit(1, 0), unit(0, 1)
        batch = ct.ContrastiveBatch(pairs=[(ex, ex), (ey, ey)])
        got = ct.contrastive_loss(batch, tau=1.0).item()
        want = -math.log(math.e / (math.e + 1.0))
        assert abs(got - want) < 1e-9
        assert abs(got - 0.31326) < 1e-5

    def test_all_identical_gives_log_n(self):
        v = unit(1, 2, 3)
        for n in (2, 5, 8):
            batch = ct.ContrastiveBatch(pairs=[(v, v)] * n)
            got = ct.contrastive_loss(batch, tau=0.7).item()
            assert abs(got - math.log(n)) < 1e-9

    def test_sharp_temperature_drives_loss_to_zero(self):
        pairs = [(unit(1, 0, 0), unit(1, 0, 0)), (unit(0, 1, 0), unit(0, 1, 0)),
                 (unit(0, 0, 1), unit(0, 0, 1))]
        batch = ct.ContrastiveBatch(pairs=pairs)
        assert ct.contrastive_loss(batch, tau=0.01).item() < 1e-3

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        vs = [rng.normal(size=5) for _ in range(6)]
        pairs = [(Tensor(vs[2 * i]), Tensor(vs[2 * i + 1])) for i in range(3)]
        scaled = [(Tensor(3.7 * vs[2 * i]), Tensor(3.7 * vs[2 * i + 1])) for i in range(3)]
        a = ct.contrastive_loss(ct.ContrastiveBatch(pairs), 0.5).item()
        b = ct.contrastive_loss(ct.ContrastiveBatch(scaled), 0.5).item()
        assert abs(a - b) < 1e-12

    def test_permutation_invariance_of_negatives(self):
        rng = np.random.default_rng(5)
        vs = [(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))) for _ in range(4)]
        base = ct.contrastive_loss(ct.ContrastiveBatch(list(vs)), 0.5).item()
        # swapping two non-anchor pairs permutes every anchor's negative set
        swapped = [vs[0], vs[2], vs[1], vs[3]]
        got = ct.contrastive_loss(ct.ContrastiveBatch(swapped), 0.5).item()
        assert abs(base - got) < 1e-12

    def test_loss_decreases_when_positive_sim_rises(self):
        neg = unit(0, 1)

        def loss_at(angle):
            v1 = unit(1, 0)
            v2 = unit(math.cos(angle), math.sin(angle))
            batch = ct.ContrastiveBatch(pairs=[(v1, v2), (neg, neg)])
            return ct.contrastive_loss(batch, 0.5).item()

        losses = [loss_at(a) for a in (0.9, 0.6, 0.3, 0.0)]  # positive sim rising
        assert all(l2 < l1 for l1, l2 in zip(losses, losses[1:]))

    def test_zero_norm_embedding_rejected(self):
        batch = ct.ContrastiveBatch([(Tensor([0.0, 0.0]), unit(1, 0)), (unit(0, 1), unit(0, 1))])
        with pytest.raises(DomainError):
            ct.contrastive_loss(batch, 0.5)

    def test_bad_temperature_and_tiny_batch_rejected(self):
        v = unit(1, 1)
        with pytest.raises(DomainError):
            ct.contrastive_loss(ct.ContrastiveBatch([(v, v)] * 2), 0.0)
        with pytest.raises(DomainError):
            ct.contrastive_loss(ct.ContrastiveBatch([(v, v)]), 0.5)

    def test_gradient_through_embeddings(self):
        lstm, ssa, proj = make_encoder(seed=6)
        rng = np.random.default_rng(6)
        seqs = [[rng.normal(size=(3, 6, 6)) * 0.5 for _ in range(3)] for _ in range(4)]

        def loss(_p):
            pairs = [
                (ct.embed_sequence(seqs[0], lstm, ssa, proj), ct.embed_sequence(seqs[1], lstm, ssa, proj)),
                (ct.embed_sequence(seqs[2], lstm, ssa, proj), ct.embed_sequence(seqs[3], lstm, ssa, proj)),
            ]
            return ct.contrastive_loss(ct.ContrastiveBatch(pairs), 0.5)

        worst = max(tc.grad_check(loss, proj), tc.grad_check(loss, lstm.b_o),
                    tc.grad_check(loss, ssa.w_temporal))
        assert worst < 1e-4


def test_pretrain_raise_names_its_stage():
    rng = np.random.default_rng(7)
    frames = [rng.normal(size=(3, 2, 5, 5)) for _ in range(4)]
    frames[2][1, 0, 0, 0] = np.nan
    sched = df.linear_schedule(4, 0.95, 0.5)
    den = df.init_denoiser(2, 4, sched.steps, rng)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match="^contrastive pre-training diverged"):
        ct.pretrain_encoder(frames, [0, 1, 2, 3], [], den, sched, np.random.default_rng(8),
                            channels=2, epochs=1, batch_size=4, hidden_channels=4,
                            embed_dim=4, depth=0)
