import math
import tracemalloc

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import contrastive as ct
from cropyield import convlstm as cl
from cropyield import tensor as tc
from cropyield.errors import DomainError, NumericalError, ShapeMismatchError
from cropyield.tensor import Tensor

# the settings of pretrain_encoder that the run config holds, at the paper's composition
PAPER_ENCODER = dict(shuffle_groups=2, attention_mode=at.ATTENTION_MODES[0],
                     conv_mode=at.CONV_MODES[0])


def make_encoder(c_in=3, c_hid=4, h=6, w=6, d_e=4, seed=0):
    rng = np.random.default_rng(seed)
    lstm = cl.init_convlstm_params(c_in, c_hid, h, w, 3, rng)
    ssa = at.init_ssa_params(c_hid, rng, groups=2)
    proj = tc.param(rng.uniform(-0.5, 0.5, size=(d_e, 2 * c_hid)))
    return lstm, ssa, proj


def unit(*vals):
    v = np.array(vals, dtype=float)
    return Tensor(v / np.linalg.norm(v))


def rows(vectors):
    """The [n, d] block of n 1-D embedding tensors, in the graph of each."""
    return tc.concat([tc.reshape(v, (1, -1)) for v in vectors])


def blocks(pairs):
    """The first-view and the second-view [n, d] blocks of n (v1, v2) pairs."""
    return rows([v1 for v1, _ in pairs]), rows([v2 for _, v2 in pairs])


def jitter_views(frames, rng):
    """A cheap view maker: two copies of [T,C,H,W] frames, each plus its own
    N(0, 0.1^2) noise, from one draw."""
    noise = rng.standard_normal((2,) + frames.shape)
    return frames + 0.1 * noise[0], frames + 0.1 * noise[1]


class TestEmbedSequence:
    def test_deterministic(self):
        lstm, ssa, proj = make_encoder()
        rng = np.random.default_rng(1)
        frames = [[rng.normal(size=(3, 6, 6)) for _ in range(4)]]
        a = ct.embed_sequence(frames, lstm, ssa, proj)
        b = ct.embed_sequence(frames, lstm, ssa, proj)
        np.testing.assert_array_equal(a.data, b.data)

    def test_output_length_independent_of_spatial_size(self):
        for h, w in [(6, 6), (8, 10)]:
            lstm, ssa, proj = make_encoder(h=h, w=w)
            frames = [[np.random.default_rng(2).normal(size=(3, h, w)) for _ in range(3)]]
            v = ct.embed_sequence(frames, lstm, ssa, proj)
            assert v.data.shape == (1, 4)

    def test_too_short_sequence_rejected(self):
        lstm, ssa, proj = make_encoder()
        frames = [[np.zeros((3, 6, 6))] * 2]  # history=2 needs >= 3
        with pytest.raises(ShapeMismatchError):
            ct.embed_sequence(frames, lstm, ssa, proj)

    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_encode_features_needs_history_plus_one_frames(self, n_frames):
        # history=2 reads the two states before the last one; with fewer
        # frames the index range used to wrap around the sequence
        lstm, ssa, _ = make_encoder()
        frames = np.zeros((1, n_frames, 3, 6, 6))
        with pytest.raises(ShapeMismatchError, match="history\\+1 = 3 frames, got %d" % n_frames):
            ct.encode_features(frames, lstm, ssa)

    def test_projection_gradient(self):
        lstm, ssa, proj = make_encoder(seed=3)
        rng = np.random.default_rng(3)
        frames = [[rng.normal(size=(3, 6, 6)) * 0.5 for _ in range(3)]]

        def loss(_p):
            v = ct.embed_sequence(frames, lstm, ssa, proj)
            return (v * v).sum()

        assert tc.grad_check(loss, proj) < 1e-4


def _scalar_cosine(u, v):
    """dot(u, v) / (|u| |v|) of two 1-D tensors, one scalar graph."""
    return tc.tsum(u * v) / (tc.sqrt(tc.tsum(u * u)) * tc.sqrt(tc.tsum(v * v)))


def _scalar_loss(z1, z2, tau):
    """The contrastive loss as n^2 scalar cosine graphs: per anchor i,
    -log(e^{s_ii/tau} / sum_j e^{s_ij/tau}), then the mean over anchors."""
    n = z1.shape[0]
    total = None
    for i in range(n):
        exps = [tc.exp(_scalar_cosine(z1[i], z2[j]) * Tensor(1.0 / tau)) for j in range(n)]
        denom = exps[0]
        for e in exps[1:]:
            denom = denom + e
        term = -tc.log(exps[i] / denom)
        total = term if total is None else total + term
    return total / Tensor(float(n))


class TestContrastiveLoss:
    @pytest.mark.parametrize("n,d,tau", [(2, 3, 0.5), (4, 16, 0.5), (8, 16, 0.1), (12, 5, 2.0)])
    def test_logit_matrix_matches_scalar_cosine_graphs(self, n, d, tau):
        rng = np.random.default_rng([n, d])
        data = rng.normal(size=(n, 2, d))
        results = []
        for loss_fn in (ct.contrastive_loss, _scalar_loss):
            z1, z2 = tc.param(np.array(data[:, 0])), tc.param(np.array(data[:, 1]))
            loss = loss_fn(z1, z2, tau)
            loss.backward()
            results.append((loss.item(), np.array([z1.grad, z2.grad])))
        (got, got_grad), (want, want_grad) = results
        assert abs(got - want) <= 1e-12 * abs(want)
        assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_one_positive_one_negative_hand_value(self):
        # both anchors: positive sim 1 (identical), negative sim 0 (orthogonal)
        ex, ey = unit(1, 0), unit(0, 1)
        got = ct.contrastive_loss(*blocks([(ex, ex), (ey, ey)]), tau=1.0).item()
        want = -math.log(math.e / (math.e + 1.0))
        assert abs(got - want) < 1e-9
        assert abs(got - 0.31326) < 1e-5

    def test_all_identical_gives_log_n(self):
        v = unit(1, 2, 3)
        for n in (2, 5, 8):
            got = ct.contrastive_loss(*blocks([(v, v)] * n), tau=0.7).item()
            assert abs(got - math.log(n)) < 1e-9

    def test_sharp_temperature_drives_loss_to_zero(self):
        pairs = [(unit(1, 0, 0), unit(1, 0, 0)), (unit(0, 1, 0), unit(0, 1, 0)),
                 (unit(0, 0, 1), unit(0, 0, 1))]
        assert ct.contrastive_loss(*blocks(pairs), tau=0.01).item() < 1e-3

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        vs = [rng.normal(size=5) for _ in range(6)]
        pairs = [(Tensor(vs[2 * i]), Tensor(vs[2 * i + 1])) for i in range(3)]
        scaled = [(Tensor(3.7 * vs[2 * i]), Tensor(3.7 * vs[2 * i + 1])) for i in range(3)]
        a = ct.contrastive_loss(*blocks(pairs), 0.5).item()
        b = ct.contrastive_loss(*blocks(scaled), 0.5).item()
        assert abs(a - b) < 1e-12

    def test_permutation_invariance_of_negatives(self):
        rng = np.random.default_rng(5)
        vs = [(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))) for _ in range(4)]
        base = ct.contrastive_loss(*blocks(vs), 0.5).item()
        # swapping two non-anchor pairs permutes every anchor's negative set
        swapped = [vs[0], vs[2], vs[1], vs[3]]
        got = ct.contrastive_loss(*blocks(swapped), 0.5).item()
        assert abs(base - got) < 1e-12

    def test_loss_decreases_when_positive_sim_rises(self):
        neg = unit(0, 1)

        def loss_at(angle):
            v1 = unit(1, 0)
            v2 = unit(math.cos(angle), math.sin(angle))
            return ct.contrastive_loss(*blocks([(v1, v2), (neg, neg)]), 0.5).item()

        losses = [loss_at(a) for a in (0.9, 0.6, 0.3, 0.0)]  # positive sim rising
        assert all(l2 < l1 for l1, l2 in zip(losses, losses[1:]))

    def test_zero_norm_embedding_rejected(self):
        z1, z2 = blocks([(Tensor([0.0, 0.0]), unit(1, 0)), (unit(0, 1), unit(0, 1))])
        with pytest.raises(DomainError):
            ct.contrastive_loss(z1, z2, 0.5)

    def test_bad_temperature_and_tiny_batch_rejected(self):
        v = unit(1, 1)
        with pytest.raises(DomainError):
            ct.contrastive_loss(*blocks([(v, v)] * 2), 0.0)
        with pytest.raises(DomainError):
            ct.contrastive_loss(*blocks([(v, v)]), 0.5)

    @pytest.mark.parametrize("shape1,shape2", [
        ((3, 4), (2, 4)), ((3, 4), (3, 5)), ((4,), (4,)), ((2, 3, 4), (2, 3, 4)), ((3, 4), (12,))])
    def test_blocks_of_other_shapes_rejected(self, shape1, shape2):
        rng = np.random.default_rng(13)
        z1, z2 = Tensor(rng.normal(size=shape1)), Tensor(rng.normal(size=shape2))
        with pytest.raises(ShapeMismatchError, match="two \\[n, d\\] embedding blocks"):
            ct.contrastive_loss(z1, z2, 0.5)

    def test_gradient_through_embeddings(self):
        lstm, ssa, proj = make_encoder(seed=6)
        rng = np.random.default_rng(6)
        seqs = [[[rng.normal(size=(3, 6, 6)) * 0.5 for _ in range(3)]] for _ in range(4)]

        def loss(_p):
            z1 = tc.concat([ct.embed_sequence(seqs[0], lstm, ssa, proj),
                            ct.embed_sequence(seqs[2], lstm, ssa, proj)])
            z2 = tc.concat([ct.embed_sequence(seqs[1], lstm, ssa, proj),
                            ct.embed_sequence(seqs[3], lstm, ssa, proj)])
            return ct.contrastive_loss(z1, z2, 0.5)

        worst = max(tc.grad_check(loss, proj), tc.grad_check(loss, lstm.b_o),
                    tc.grad_check(loss, ssa.w_temporal))
        assert worst < 1e-4


def test_holdout_similarities_reject_a_zero_norm_embedding():
    rng = np.random.default_rng(9)
    frames = [rng.normal(size=(3, 2, 5, 5)) for _ in range(3)]
    lstm = cl.init_convlstm_params(2, 4, 5, 5, 3, rng)
    ssa = at.init_ssa_params(4, rng, groups=2)
    args = (frames, [0, 1, 2], lstm, ssa)
    rest = (jitter_views, np.random.default_rng(10), 2)
    pos, neg = ct.holdout_similarities(*args, tc.param(rng.normal(size=(4, 8))), *rest)
    assert -1.0 <= pos <= 1.0 and -1.0 <= neg <= 1.0
    with pytest.raises(DomainError, match="zero-norm"):
        ct.holdout_similarities(*args, tc.param(np.zeros((4, 8))), *rest)


def _interleaved_holdout(frames_by_sample, idx, lstm_p, ssa_p, proj, views, rng, batch_size):
    """``holdout_similarities`` as it was with its own view loop: the views
    interleaved (v1, v2 of sample 0, then of sample 1, ...), sims read off
    the even and the odd rows."""
    interleaved = [v for i in idx for v in views(frames_by_sample[i], rng)]
    with tc.no_grad():
        feats = ct.encode_chunks(interleaved, lstm_p, ssa_p, batch_size)
        emb = (proj @ tc.global_avg_pool(Tensor(feats))).data
    unit = ct._unit_rows(Tensor(emb)).data
    sims = unit[0::2] @ unit[1::2].T
    n = len(sims)
    neg = float(np.mean(sims[~np.eye(n, dtype=bool)])) if n > 1 else None
    return float(np.mean(np.diag(sims))), neg


@pytest.mark.parametrize("n,batch_size,c_in,t_steps,hw", [
    (1, 2, 2, 3, 5), (2, 2, 2, 3, 5), (3, 2, 2, 3, 5), (5, 3, 2, 4, 6), (5, 8, 2, 4, 6),
    (6, 8, 12, 6, 10)])
def test_holdout_similarities_match_the_interleaved_layout(n, batch_size, c_in, t_steps, hw):
    # the minibatch layout puts other views into each encode_chunks pass
    # when 2n views exceed one chunk; every similarity keeps its bits
    rng = np.random.default_rng([n, batch_size, c_in])
    frames = [rng.normal(size=(t_steps, c_in, hw, hw)) for _ in range(n + 2)]
    lstm = cl.init_convlstm_params(c_in, 4, hw, hw, 3, rng)
    ssa = at.init_ssa_params(4, rng, groups=2)
    proj = tc.param(rng.normal(size=(6, 8)))
    idx = list(range(2, n + 2))
    got, want = (holdout(frames, idx, lstm, ssa, proj, jitter_views, np.random.default_rng(14),
                         batch_size)
                 for holdout in (ct.holdout_similarities, _interleaved_holdout))
    assert repr(got) == repr(want)


def test_pretrain_raise_names_its_stage(monkeypatch):
    monkeypatch.setattr(ct, "EMBED_DIM", 4)
    rng = np.random.default_rng(7)
    frames = [rng.normal(size=(3, 2, 5, 5)) for _ in range(4)]
    frames[2][1, 0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalError, match="^contrastive pre-training diverged"):
        ct.pretrain_encoder(frames, [0, 1, 2, 3], [], jitter_views, np.random.default_rng(8),
                            epochs=1, lr=0.01, batch_size=4, hidden_channels=4, **PAPER_ENCODER)


def test_uniform_loss_reads_the_batches_that_ran(monkeypatch):
    monkeypatch.setattr(ct, "EMBED_DIM", 4)
    # 3 train samples and batch_size 8: one minibatch of 3, so log 3, not log 8
    rng = np.random.default_rng(15)
    frames = [rng.normal(size=(3, 2, 5, 5)) for _ in range(3)]
    got = ct.pretrain_encoder(frames, [0, 1, 2], [], jitter_views, np.random.default_rng(16),
                              epochs=0, lr=0.01, batch_size=8, hidden_channels=4,
                              **PAPER_ENCODER)
    assert got.stats["uniform_loss"] == math.log(3)


def test_views_are_drawn_per_sample_in_minibatch_order(monkeypatch):
    """The view maker gets each sample's frames once per phase, in the order
    of that phase's minibatches (the epoch-0 evaluation, then each epoch),
    and then each hold-out sample in turn, each with its phase's generator."""
    rng = np.random.default_rng(17)
    frames = [rng.normal(size=(3, 2, 5, 5)) for _ in range(11)]
    train, val = list(range(8)), [8, 9, 10]
    minibatches = tc.minibatches
    shuffles, calls = [], []

    def recording_minibatches(idx, batch_size, rng):
        batches = minibatches(idx, batch_size, rng)
        shuffles.append((batches, rng))
        return batches

    def recording_views(f, rng):
        calls.append(([i for i, g in enumerate(frames) if g is f], rng))
        return jitter_views(f, rng)

    monkeypatch.setattr(tc, "minibatches", recording_minibatches)
    monkeypatch.setattr(ct, "EMBED_DIM", 4)
    ct.pretrain_encoder(frames, train, val, recording_views, np.random.default_rng(18),
                        epochs=1, lr=0.01, batch_size=3, hidden_channels=4,
                        **PAPER_ENCODER)
    assert len(shuffles) == 2  # the epoch-0 evaluation and one epoch
    assert [len(b) for b in shuffles[0][0]] == [3, 3, 2]
    holdout_rng = calls[-1][1]
    assert all(holdout_rng is not rng for _, rng in shuffles)
    want = [([i], rng) for batches, rng in shuffles for b in batches for i in b]
    want += [([i], holdout_rng) for i in val]
    assert [c for c, _ in calls] == [c for c, _ in want]
    assert all(got is expected for (_, got), (_, expected) in zip(calls, want))


# -- the per-view graph that the item axis replaces ------------------------------
# One graph per augmented view: the encoder as it was written for a single
# [T,C,H,W] sequence, composed from the same primitives on [C,H,W] maps.


def _conv(x, kernels, padding=0, dilation=1):
    """The convolution of one [C,H,W] map: a one-item ``conv_items``."""
    (out,) = tc.conv_items(tc.reshape(x, (1,) + x.shape), [kernels], padding, dilation)
    return tc.reshape(out, out.shape[1:])


def _ref_step(f_t, h, c, p):
    pad = p.padding

    def chan(b):
        return tc.reshape(b, (-1, 1, 1))

    i_t = tc.sigmoid(_conv(f_t, p.w_fi, pad) + _conv(h, p.w_hi, pad)
                     + p.w_ci * c + chan(p.b_i))
    f_gate = tc.sigmoid(_conv(f_t, p.w_ff, pad) + _conv(h, p.w_hf, pad)
                        + p.w_cf * c + chan(p.b_f))
    candidate = tc.tanh(_conv(f_t, p.w_fc, pad) + _conv(h, p.w_hc, pad) + chan(p.b_c))
    c_t = f_gate * c + i_t * candidate
    o_t = tc.sigmoid(_conv(f_t, p.w_fo, pad) + _conv(h, p.w_ho, pad)
                     + p.w_co * c_t + chan(p.b_o))
    return o_t * tc.tanh(c_t), c_t


def _ref_se(hmap, p):
    scale = tc.sigmoid(p.se_w2 @ tc.relu(p.se_w1 @ tc.global_avg_pool(hmap)))
    return tc.reshape(scale, (-1, 1, 1)) * hmap


def _ref_shuffle(x, groups):
    return tc.take_channels(x, at.shuffle_permutation(x.data.shape[0], groups))


def _ref_attend(hmap, p):
    mode = p.attention_mode
    if mode == "senet_shuffle":
        return _ref_shuffle(_ref_se(hmap, p), p.groups)
    if mode == "shuffle_senet":
        return _ref_se(_ref_shuffle(hmap, p.groups), p)
    if mode == "se_only":
        return _ref_se(hmap, p)
    if mode == "shuffle_only":
        return _ref_shuffle(hmap, p.groups)
    return hmap


def _ref_cond_conv(x, p):
    pi = tc.softmax1d(p.routing @ tc.global_avg_pool(x))
    mixed = None
    for k, expert in enumerate((p.expert_0, p.expert_1)):
        term = pi[k] * expert
        mixed = term if mixed is None else mixed + term
    return _conv(x, mixed, padding=(mixed.data.shape[2] - 1) // 2)


def _ref_ssa(h_t, hist, p):
    if p.conv_mode == "condconv_only":
        spatial = _ref_cond_conv(h_t, p)
    else:
        dilation = at.DILATION if p.conv_mode == "dilated" else 1
        pad = (p.conv_kernel.data.shape[2] - 1) * dilation // 2
        spatial = tc.relu(_conv(h_t, p.conv_kernel, pad, dilation=dilation)
                          + tc.reshape(p.conv_bias, (-1, 1, 1)))
        if p.conv_mode == "conv_condconv":
            spatial = _ref_cond_conv(spatial, p)
    temporal = None
    for tau, hmap in enumerate(hist):
        term = p.w_temporal[tau] * _ref_attend(hmap, p)
        temporal = term if temporal is None else temporal + term
    return tc.concat([spatial, temporal], axis=0)


def _ref_embed(frames, lstm, ssa, proj):
    """One view [T,C,H,W] -> its embedding, through one graph of its own."""
    shape = (lstm.hidden_channels,) + frames.shape[2:]
    h, c = Tensor(np.zeros(shape)), Tensor(np.zeros(shape))
    hs = []
    for f_t in frames:
        h, c = _ref_step(Tensor(f_t), h, c, lstm)
        hs.append(h)
    a = ssa.history
    return proj @ tc.global_avg_pool(_ref_ssa(hs[-1], hs[-1 - a:-1], ssa))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _encoder(c_in, hw, attention_mode="senet_shuffle", conv_mode="conv_condconv", seed=0):
    rng = np.random.default_rng([seed, hw, c_in])
    lstm = cl.init_convlstm_params(c_in, 8, hw, hw, 3, rng)
    ssa = at.init_ssa_params(8, rng, groups=2, attention_mode=attention_mode, conv_mode=conv_mode)
    # bias and temporal weights away from their constant init, so every part counts
    for t in (lstm.b_i, lstm.b_f, lstm.b_o, lstm.b_c, ssa.conv_bias, ssa.w_temporal):
        t.data[...] = rng.uniform(-0.5, 0.5, size=t.data.shape)
    proj = tc.param(rng.uniform(-1.0, 1.0, size=(16, 16)) / 4.0)
    return lstm, ssa, proj


def _minibatch_both_ways(n, t_steps, hw, attention_mode="senet_shuffle",
                         conv_mode="conv_condconv", c_in=4):
    """Loss, embeddings and gradients of one minibatch of n pairs: the per-view
    graphs and the batched graph (as ``pretrain_encoder`` builds it)."""
    rng = np.random.default_rng([n, t_steps, hw, len(attention_mode), len(conv_mode)])
    pairs = [(rng.normal(size=(t_steps, c_in, hw, hw)), rng.normal(size=(t_steps, c_in, hw, hw)))
             for _ in range(n)]
    pairs[0][0][0, 0, 0, 0] = -0.0
    results = []
    for batched in (False, True):
        lstm, ssa, proj = _encoder(c_in, hw, attention_mode, conv_mode)
        if batched:
            emb = ct.embed_sequence(np.stack([v1 for v1, _ in pairs] + [v2 for _, v2 in pairs]),
                                    lstm, ssa, proj)
            z1, z2 = emb[:n], emb[n:]
        else:
            z1, z2 = blocks([(_ref_embed(v1, lstm, ssa, proj), _ref_embed(v2, lstm, ssa, proj))
                             for v1, v2 in pairs])
        loss = ct.contrastive_loss(z1, z2, 0.5)
        loss.backward()
        named = {**lstm.named(), **ssa.named()}
        grads = {name: t.grad for name, t in zip(named, lstm.parameters() + ssa.parameters())}
        grads["projection"] = proj.grad
        results.append((loss.data, list(zip(z1.data, z2.data)), grads))
    return results


def _assert_close(ref, got, what=""):
    """Gradients of shared parameters: one sum over the items against the
    per-view graphs' running sum, about 1e-13 relative apart."""
    assert np.shape(ref) == np.shape(got), what
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-10 * np.max(np.abs(ref)), what


def _assert_same_minibatch(ref, got):
    assert np.array_equal(_bits(ref[0]), _bits(got[0])), "loss"
    for i, ((u0, v0), (u1, v1)) in enumerate(zip(ref[1], got[1])):
        assert np.array_equal(_bits(u0), _bits(u1)), f"first view {i}"
        assert np.array_equal(_bits(v0), _bits(v1)), f"second view {i}"
    assert ref[2].keys() == got[2].keys()
    for name in ref[2]:
        _assert_close(ref[2][name], got[2][name], f"gradient of {name}")


class TestBatchedEncoderBitExact:
    """One graph over the 2n views of a minibatch against one graph per view:
    loss and embeddings bit for bit, every parameter gradient to 1e-10."""

    @pytest.mark.parametrize("attention_mode", at.ATTENTION_MODES)
    @pytest.mark.parametrize("conv_mode", at.CONV_MODES)
    def test_every_mode_pair(self, attention_mode, conv_mode):
        ref, got = _minibatch_both_ways(3, 3, 10, attention_mode, conv_mode)
        _assert_same_minibatch(ref, got)

    @pytest.mark.parametrize("n,t_steps,hw", [
        (2, 3, 10), (2, 6, 10), (3, 6, 10), (8, 3, 10), (8, 6, 10),
        (2, 3, 32), (3, 6, 32), (8, 3, 32), (8, 6, 32)])
    def test_batch_sizes_lengths_and_map_sizes(self, n, t_steps, hw):
        ref, got = _minibatch_both_ways(n, t_steps, hw, c_in=12 if hw == 10 else 7)
        _assert_same_minibatch(ref, got)


def _retained_backward(root):
    """``Tensor.backward`` without freeing: every closure in reverse
    topological order, every node's gradient kept to the end."""
    order = tc._toposort(root)
    root._grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._bw is not None and node._grad is not None:
            node._bw(node._grad)


def _minibatch_loss(views, lstm, ssa, proj):
    """A pretraining minibatch's loss as ``pretrain_encoder`` builds it, from
    its 2n views [2n,T,C,H,W]."""
    n = len(views) // 2
    emb = ct.embed_sequence(views, lstm, ssa, proj)
    return ct.contrastive_loss(emb[:n], emb[n:], 0.5)


def _pipeline_step_graph():
    """Bytes the forward graph of one pre-training minibatch at the
    pipeline-s2 shapes (8 samples, T=6, 12 S2 bands, 10x10) holds."""
    lstm, ssa, proj = _encoder(12, 10)
    views = np.random.default_rng(6).normal(size=(16, 6, 12, 10, 10))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = _minibatch_loss(views, lstm, ssa, proj)
        graph = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    return graph


class TestBackwardFreesTheGraph:
    """``backward`` drops each node's gradient, closure and parents once the
    closure has run: the leaves get the same bits, and the step holds little
    more than its forward graph."""

    @pytest.mark.parametrize("attention_mode", at.ATTENTION_MODES)
    @pytest.mark.parametrize("conv_mode", at.CONV_MODES)
    def test_leaf_gradients_match_a_retained_graph(self, attention_mode, conv_mode):
        views = np.random.default_rng(5).normal(size=(6, 3, 4, 10, 10))
        grads = []
        for run_backward in (tc.Tensor.backward, _retained_backward):
            lstm, ssa, proj = _encoder(4, 10, attention_mode, conv_mode)
            run_backward(_minibatch_loss(views, lstm, ssa, proj))
            grads.append([t.grad for t in lstm.parameters() + ssa.parameters() + [proj]])
        for got, want in zip(*grads):
            assert np.array_equal(_bits(got), _bits(want))

    def test_backward_peak_stays_near_the_forward_graph(self):
        """One SGD step at the pipeline-s2 shapes (8 samples, T=6, 12 S2
        bands, 10x10): the peak during backward exceeds what the forward
        left allocated by less than 10 % of the forward graph (about 7.8 %
        of a 5.9 MiB graph). Holding every node's gradient to the end of the
        backward, it exceeds it by about 55 %."""
        lstm, ssa, proj = _encoder(12, 10)
        params = lstm.parameters() + ssa.parameters() + [proj]
        views = np.random.default_rng(6).normal(size=(16, 6, 12, 10, 10))
        marks = {}

        def loss_fn():
            loss = _minibatch_loss(views, lstm, ssa, proj)
            marks["forward"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return loss

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tc.sgd_step(params, loss_fn, 0.01, "probe")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        graph = marks["forward"] - base
        assert graph > 5 * 2**20  # the setup holds the graph this test is about: MBs
        assert peak - marks["forward"] < 0.10 * graph, (peak - marks["forward"]) / graph

    def test_forward_graph_of_a_pipeline_step_stays_small(self):
        """The forward graph of the step above holds less than 30 MiB: about
        5.9 MiB now, 10.8 MiB when each ConvLSTM step kept its gate
        convolutions' outputs, 25.7 MiB when the convolutions kept their
        im2col in the graph, 35.1 MiB when each ConvLSTM step's gate
        arithmetic was 27 primitive nodes."""
        graph = _pipeline_step_graph()
        assert graph < 30 * 2**20, graph / 2**20

    def test_forward_graph_keeps_no_im2col(self):
        """The forward graph of the step above holds less than 14 MiB: about
        10.8 MiB with the convolutions' im2col gathered again in backward,
        25.7 MiB when the graph kept it."""
        graph = _pipeline_step_graph()
        assert graph < 14 * 2**20, graph / 2**20

    def test_forward_graph_keeps_no_gate_conv_output(self):
        """The forward graph of the step above holds less than 7 MiB: about
        5.9 MiB with each ConvLSTM step's eight gate-convolution outputs
        released once its gate nodes have read them, 10.8 MiB when the graph
        kept them."""
        graph = _pipeline_step_graph()
        assert graph < 7 * 2**20, graph / 2**20

    def test_conv_call_holds_its_outputs_only(self):
        """One recorded ``conv_items`` call at the shape of the step's frame
        path (16 items, 12 bands, 10x10, four 3x3 kernels) holds less than
        1 MiB: its four outputs, 0.41 MB, and not its 1.38 MB im2col."""
        rng = np.random.default_rng(7)
        x = tc.Tensor(rng.normal(size=(16, 12, 10, 10)))
        kernels = [tc.param(rng.normal(size=(8, 12, 3, 3))) for _ in range(4)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            outs = tc.conv_items(x, kernels, 1)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert all(out.requires_grad for out in outs)
        assert held < 2**20, held / 2**20


def _per_view_pretrain(frames_by_sample, train_idx, val_idx, views, seed_rng,
                       epochs, lr, batch_size, tau, embed_dim, hidden_channels):
    """``pretrain_encoder`` as it was before the item axis: one graph per view."""
    _, channels, h, w = frames_by_sample[train_idx[0]].shape
    lstm = cl.init_convlstm_params(channels, hidden_channels, h, w, 3, seed_rng)
    ssa = at.init_ssa_params(hidden_channels, seed_rng, groups=2)
    proj = tc.param(seed_rng.uniform(-1.0, 1.0, size=(embed_dim, 2 * hidden_channels))
                    / math.sqrt(2 * hidden_channels))
    params = lstm.parameters() + ssa.parameters() + [proj]

    def batch_loss(batch, rng):
        pairs = []
        for i in batch:
            v1, v2 = views(frames_by_sample[i], rng)
            pairs.append((_ref_embed(v1, lstm, ssa, proj), _ref_embed(v2, lstm, ssa, proj)))
        return ct.contrastive_loss(*blocks(pairs), tau)

    def epoch_batches(rng):
        return [b for b in tc.minibatches(train_idx, batch_size, rng) if len(b) >= 2]

    eval_rng = np.random.default_rng(seed_rng.integers(2**63))
    with tc.no_grad():
        history = [float(np.mean([batch_loss(b, eval_rng).item()
                                  for b in epoch_batches(eval_rng)]))]
    for _ in range(epochs):
        rng = np.random.default_rng(seed_rng.integers(2**63))
        history.append(float(np.mean([tc.sgd_step(params, lambda: batch_loss(b, rng), lr, "x")
                                      for b in epoch_batches(rng)])))
    stats = {"epoch0_loss": history[0], "uniform_loss": math.log(batch_size),
             "final_loss": history[-1]}
    rng = np.random.default_rng(seed_rng.integers(2**63))
    with tc.no_grad():
        embedded = [views(frames_by_sample[i], rng) for i in val_idx]
        v1s = [_ref_embed(v1, lstm, ssa, proj) for v1, _ in embedded]
        v2s = [_ref_embed(v2, lstm, ssa, proj) for _, v2 in embedded]
    sims = [[_scalar_cosine(a, b).item() for b in v2s] for a in v1s]
    pos = [sims[i][i] for i in range(len(v1s))]
    neg = [s for i, row in enumerate(sims) for j, s in enumerate(row) if i != j]
    stats["holdout_pos_sim"] = float(np.mean(pos))
    stats["holdout_neg_sim"] = float(np.mean(neg))
    stats["holdout_separation"] = stats["holdout_pos_sim"] - stats["holdout_neg_sim"]
    return history, stats, {**lstm.named(), **ssa.named(), "projection": proj.data}


def test_pretraining_matches_the_per_view_loop(monkeypatch):
    # 9 train samples in minibatches of 4: chunks of 4 and 4, and a single
    # sample that no minibatch keeps
    rng = np.random.default_rng(11)
    frames = [rng.normal(size=(4, 3, 6, 6)) for _ in range(12)]
    kw = dict(epochs=2, lr=0.05, batch_size=4, hidden_channels=4)
    train, val = list(range(9)), [9, 10, 11]
    history, stats, named = _per_view_pretrain(frames, train, val, jitter_views,
                                               np.random.default_rng(12), tau=0.5, embed_dim=6,
                                               **kw)
    monkeypatch.setattr(ct, "TAU", 0.5)
    monkeypatch.setattr(ct, "EMBED_DIM", 6)
    got = ct.pretrain_encoder(frames, train, val, jitter_views, np.random.default_rng(12), **kw,
                              **PAPER_ENCODER)
    # the epoch-0 evaluation precedes any update: the same bits
    assert repr(got.loss_history[0]) == repr(history[0])
    assert repr(got.stats["epoch0_loss"]) == repr(stats["epoch0_loss"])
    # updates follow the shared gradients, which move by about 1e-13 relative
    np.testing.assert_allclose(got.loss_history, history, rtol=1e-10, atol=0)
    assert got.stats.keys() == stats.keys()
    for key in stats:
        assert abs(got.stats[key] - stats[key]) <= 1e-10, key
    got_named = {**got.lstm.named(), **got.ssa.named(), "projection": got.projection.data}
    assert got_named.keys() == named.keys()
    for name in named:
        _assert_close(named[name], got_named[name], name)
