import tracemalloc

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import contrastive as ct
from cropyield import convlstm as cl
from cropyield import eo
from cropyield import predictor as pr
from cropyield import tensor as tc
from cropyield.config import RunConfig
from cropyield.pipeline import YieldModel
from cropyield.errors import DomainError, NumericalError, ShapeMismatchError
from cropyield.tensor import Tensor


class TestPredictYield:
    def test_bias_only_head_is_constant(self):
        head = pr.init_head(3)
        head.b.data[()] = 2.0
        f = Tensor(np.random.default_rng(0).normal(size=(1, 3, 6, 6)))
        ymap, scalar = pr.predict_yield(f, head)
        np.testing.assert_allclose(ymap.data, 2.0)
        assert abs(scalar.data[0] - 2.0) < 1e-12

    def test_spatial_dims_preserved(self):
        head = pr.init_head(2)
        head.w.data[:] = np.random.default_rng(1).normal(size=head.w.data.shape)
        f = Tensor(np.random.default_rng(2).normal(size=(1, 2, 7, 5)))
        ymap, _ = pr.predict_yield(f, head)
        assert ymap.data[0].shape == (1, 7, 5)

    def test_bias_translation_equivariance(self):
        head = pr.init_head(2)
        head.w.data[:] = np.random.default_rng(3).normal(size=head.w.data.shape)
        f = Tensor(np.random.default_rng(4).normal(size=(1, 2, 6, 6)))
        map0, s0 = pr.predict_yield(f, head)
        head.b.data[()] = 1.3
        map1, s1 = pr.predict_yield(f, head)
        np.testing.assert_allclose(map1.data, map0.data + 1.3, atol=1e-12)
        assert abs(s1.data[0] - (s0.data[0] + 1.3)) < 1e-12

    def test_gradient_of_mse(self):
        rng = np.random.default_rng(5)
        head = pr.init_head(2)
        head.w.data[:] = rng.normal(size=head.w.data.shape) * 0.3
        head.b.data[()] = 0.2
        f = rng.normal(size=(1, 2, 5, 5))
        target = Tensor(np.array([0.7]))

        def loss(_t):
            _, scalar = pr.predict_yield(Tensor(f), head)
            return pr.mse_loss(target, scalar)

        assert tc.grad_check(loss, head.w) < 1e-4
        assert tc.grad_check(loss, head.b) < 1e-4

    def test_empty_selection_rejected(self):
        with pytest.raises(DomainError):
            pr.init_head(0)


class TestMseLoss:
    def test_perfect_zero(self):
        y = Tensor([1.0, 2.0, 3.0])
        assert pr.mse_loss(y, y).item() == 0.0

    def test_hand_value(self):
        got = pr.mse_loss(Tensor([1.0, 3.0]), Tensor([2.0, 2.0])).item()
        assert got == 1.0

    def test_symmetry_and_nonnegative(self):
        rng = np.random.default_rng(6)
        a, b = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        assert pr.mse_loss(a, b).item() == pr.mse_loss(b, a).item()
        assert pr.mse_loss(a, b).item() >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            pr.mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


def tiny_encoder_setup(n=14, t=4, c=3, hw=8, seed=0):
    rng = np.random.default_rng(seed)
    lstm = cl.init_convlstm_params(c, 4, hw, hw, 3, rng)
    ssa = at.init_ssa_params(4, rng)
    frames = [rng.uniform(size=(t, c, hw, hw)) for _ in range(n)]
    fert = rng.uniform(0.2, 0.8, size=n)
    for i in range(n):
        frames[i] += 0.4 * fert[i]  # yield signal visible in every band
    y = 2000.0 * (0.5 + fert) * (1 + 0.02 * rng.normal(size=n))
    return lstm, ssa, frames, y


class TestHeadWarmup:
    def test_closed_form_loo_equals_explicit_refits(self):
        rng = np.random.default_rng(7)
        n, d = 12, 6
        x = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
        y = x[:, :d] @ rng.normal(size=d) + 0.3 * rng.normal(size=n)
        for lam in (1e-4, 0.1, 10.0):
            w, err = pr.ridge_loo(x, y, lam)
            np.testing.assert_allclose(w, eo.ridge_solve(x, y, lam, "test"), rtol=1e-10)
            resid = []
            for i in range(n):
                keep = np.arange(n) != i
                w_i = eo.ridge_solve(x[keep], y[keep], lam, "test")
                resid.append(y[i] - x[i] @ w_i)
            assert err == pytest.approx(float(np.mean(np.square(resid))), rel=1e-9)

    def test_fitted_head_predicts_its_design_matrix(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=4)
        mask = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
        warm = pr.fit_head(frames, lstm, ssa, mask, y, range(10), range(10, 14),
                           pretrain_batch=2)
        assert warm.ridge_lambda in pr.RIDGE_GRID
        assert warm.head.w.shape == (1, 5, 3, 3) and warm.head.b.shape == ()
        feats = ct.encode_chunks(frames, lstm, ssa, 2)[:, mask]
        x = pr.head_design(feats)
        w = np.append(warm.head.w.data.ravel(), warm.head.b.data)
        with tc.no_grad():
            preds = pr.predict_yield(Tensor(feats), warm.head)[1].data
        np.testing.assert_allclose(preds, x @ w, rtol=0, atol=1e-12)
        # the warm-up's one curve row holds the train and validation MSE of those predictions
        y_star = (y - warm.y_mean) / warm.y_std
        err = (preds - y_star) ** 2
        assert warm.curve == [(0, float(np.mean(err[:10])), float(np.mean(err[10:])))]
        # the penalty is the grid's least leave-one-out error over the train plots
        errs = [pr.ridge_loo(x[:10], y_star[:10], lam)[1] for lam in pr.RIDGE_GRID]
        assert warm.ridge_lambda == pr.RIDGE_GRID[int(np.argmin(errs))]

    def test_validation_yields_do_not_move_the_fit(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=4)
        heads = []
        for y_val in (y[10:], y[10:] * 3.0):
            warm = pr.fit_head(frames, lstm, ssa, np.ones(8, bool), np.append(y[:10], y_val),
                               range(10), range(10, 14), pretrain_batch=2)
            heads.append(warm)
        assert heads[0].head.named().keys() == heads[1].head.named().keys()
        for name, a in heads[0].head.named().items():
            assert a.tobytes() == heads[1].head.named()[name].tobytes()
        assert heads[0].curve[0][1] == heads[1].curve[0][1]
        assert heads[0].curve[0][2] != heads[1].curve[0][2]

    @pytest.mark.parametrize("where", ["features", "targets"])
    def test_ridge_rejects_non_finite_input(self, where):
        x, y = np.ones((4, 3)), np.arange(4.0)
        (x if where == "features" else y)[1] = np.nan
        with pytest.raises(NumericalError, match="^probe: non-finite"):
            eo.ridge_solve(x, y, 0.1, "probe")


class TestTrainFinal:
    def test_early_stopping_bookkeeping(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=2)
        res = pr.train_final(
            frames, lstm, ssa, np.ones(8, bool), y, train_idx=range(10),
            val_idx=range(10, 14), rng=np.random.default_rng(3), epochs=40, lr=0.05,
            pretrain_batch=2,
        )
        val_curve = [v for (_, _, v) in res.curve]
        assert val_curve[res.best_epoch] <= val_curve[0]
        assert val_curve[res.best_epoch] == min(val_curve)

    def test_learns_signal_better_than_mean(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=4)
        warm = pr.fit_head(frames, lstm, ssa, np.ones(8, bool), y, range(10), range(10, 14),
                           pretrain_batch=2)
        res = pr.train_final(
            frames, lstm, ssa, np.ones(8, bool), y, train_idx=range(10),
            val_idx=range(10, 14), rng=np.random.default_rng(5), epochs=10, lr=0.05,
            head=warm.head, pretrain_batch=2,
        )
        feats = ct.encode_chunks([frames[i] for i in range(10, 14)], res.lstm, res.ssa, 2)
        with tc.no_grad():
            preds = res.y_mean + res.y_std * pr.predict_yield(Tensor(feats), res.head)[1].data
        mean_pred_err = np.mean((y[10:14] - np.mean(y[:10])) ** 2)
        model_err = np.mean((y[10:14] - preds) ** 2)
        assert model_err < mean_pred_err

    def test_empty_mask_rejected(self):
        lstm, ssa, frames, y = tiny_encoder_setup()
        with pytest.raises(DomainError):
            pr.train_final(frames, lstm, ssa, np.zeros(8, bool), y, range(10),
                           range(10, 14), np.random.default_rng(0), pretrain_batch=2)
        with pytest.raises(DomainError):
            pr.fit_head(frames, lstm, ssa, np.zeros(8, bool), y, range(10), range(10, 14),
                        pretrain_batch=2)

    def test_warmup_raise_names_its_stage(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=2)
        bad_y = y.copy()
        bad_y[3] = np.inf
        bad_frames = [f.copy() for f in frames]
        bad_frames[3][0, 0, 0, 0] = np.nan
        for f, t in ((frames, bad_y), (bad_frames, y)):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NumericalError, match="^head warm-up: non-finite"):
                pr.fit_head(f, lstm, ssa, np.ones(8, bool), t, range(10), range(10, 14),
                            pretrain_batch=2)

    def test_finetune_divergence_ends_the_finetune_and_restores_the_best_epoch(self):
        # lr=1.0 improves the validation error until epoch 6, then blows up;
        # the minibatch loss of epoch 13 overflows
        lstm, ssa, frames, y = tiny_encoder_setup(seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            res = pr.train_final(frames, lstm, ssa, np.ones(8, bool), y, range(10),
                                 range(10, 14), np.random.default_rng(3), epochs=40, lr=1.0,
                                 batch_size=4, patience=None, pretrain_batch=2)
        assert res.diverged_at == 13
        assert [e for e, _, _ in res.curve] == list(range(13))
        assert np.all(np.isfinite(res.curve))
        val = [v for _, _, v in res.curve]
        assert res.best_epoch == 6 and val[6] == min(val)
        # the returned parameters are those of the best epoch, not the last
        y_star = (y - res.y_mean) / res.y_std
        with tc.no_grad():
            feats = np.concatenate([ct.encode_features(frames[i][None], res.lstm, res.ssa).data
                                    for i in range(10, 14)])
            preds = pr.predict_yield(Tensor(feats), res.head)[1].data
        assert float(np.mean((preds - y_star[10:14]) ** 2)) == val[6]
        for p in res.lstm.parameters() + res.ssa.parameters() + res.head.parameters():
            assert np.all(np.isfinite(p.data))


def _conv(x, kernels, padding=0, dilation=1):
    """The convolution of one [C,H,W] map: a one-item ``conv_items``."""
    (out,) = tc.conv_items(tc.reshape(x, (1,) + x.shape), [kernels], padding, dilation)
    return tc.reshape(out, out.shape[1:])


def _per_plot_train_final(frames, lstm_p, ssa_p, mask, y, train_idx, val_idx, rng, epochs,
                          lr, batch_size, patience, head=None, pretrain_batch=None):
    """The fine-tune as a per-plot loop: one encoder and head graph per plot,
    the predictions concatenated per minibatch (so ``pretrain_batch``, which
    bounds the batched forward passes, has no counterpart)."""
    sel = np.flatnonzero(mask)
    y = np.asarray(y, dtype=np.float64)
    y_mean, y_std = float(np.mean(y[train_idx])), float(np.std(y[train_idx])) or 1.0
    y_star = (y - y_mean) / y_std
    head = pr.init_head(sel.size) if head is None else head
    params = head.parameters() + lstm_p.parameters() + ssa_p.parameters()

    def predict(i):
        feats = tc.take_channels(ct.encode_features(frames[i][None], lstm_p, ssa_p)[0], sel)
        return (_conv(feats, head.w, padding=1) + head.b).mean()

    def split_mse(idx):
        with tc.no_grad():
            preds = np.array([predict(i).item() for i in idx])
        return float(np.mean((preds - y_star[list(idx)]) ** 2))

    def batch_mse(chunk):
        vec = tc.concat([tc.reshape(predict(i), (1,)) for i in chunk], axis=0)
        return pr.mse_loss(Tensor(y_star[chunk]), vec)

    train_list, val_list = list(train_idx), list(val_idx)
    curve = [(0, split_mse(train_list), split_mse(val_list))]
    best_val, best_snap, best_epoch, diverged_at, stale = curve[0][2], None, 0, None, 0
    best_snap = [p.data.copy() for p in params]
    for epoch in range(1, epochs + 1):
        try:
            for chunk in tc.minibatches(train_list, batch_size, rng):
                tc.sgd_step(params, lambda: batch_mse(chunk), lr, "fine-tune")
        except NumericalError:
            diverged_at = epoch
            break
        tr, va = split_mse(train_list), split_mse(val_list)
        curve.append((epoch, tr, va))
        if va < best_val - 1e-12:
            best_val, best_snap, best_epoch, stale = va, [p.data.copy() for p in params], epoch, 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
    if patience is not None or diverged_at is not None:
        for p, snap in zip(params, best_snap):
            p.data[...] = snap
    return pr.TrainResult(head=head, lstm=lstm_p, ssa=ssa_p, y_mean=y_mean, y_std=y_std,
                          curve=curve, best_epoch=best_epoch, diverged_at=diverged_at)


def _assert_same_training(ref, got):
    assert repr(got.curve) == repr(ref.curve)
    assert (got.best_epoch, got.diverged_at) == (ref.best_epoch, ref.diverged_at)
    assert (got.y_mean, got.y_std) == (ref.y_mean, ref.y_std)
    for tree in ("head", "lstm", "ssa"):
        ref_named, got_named = getattr(ref, tree).named(), getattr(got, tree).named()
        assert ref_named.keys() == got_named.keys()
        for name in ref_named:
            assert ref_named[name].tobytes() == got_named[name].tobytes(), name


def _assert_close_training(ref, got):
    """The item axis against the per-plot loop: the same epoch-0 row and
    decisions, and curves and parameters to 1e-10, since each update follows
    shared gradients summed over the items in one operation."""
    assert repr(got.curve[0]) == repr(ref.curve[0])
    assert [e for e, _, _ in got.curve] == [e for e, _, _ in ref.curve]
    np.testing.assert_allclose(np.array(got.curve), np.array(ref.curve), rtol=1e-10, atol=0)
    assert (got.best_epoch, got.diverged_at) == (ref.best_epoch, ref.diverged_at)
    assert (got.y_mean, got.y_std) == (ref.y_mean, ref.y_std)
    for tree in ("head", "lstm", "ssa"):
        ref_named, got_named = getattr(ref, tree).named(), getattr(got, tree).named()
        assert ref_named.keys() == got_named.keys()
        for name in ref_named:
            bound = 1e-10 * np.max(np.abs(ref_named[name]))
            assert np.max(np.abs(got_named[name] - ref_named[name])) <= bound, name


class TestBatchedHeadTraining:
    """The fine-tune on the item axis against the per-plot loop it replaces,
    from the warm-up's closed-form head."""

    MASK = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)

    def _both(self, seed, **kw):
        runs = []
        for fn in (_per_plot_train_final, pr.train_final):
            lstm, ssa, frames, y = tiny_encoder_setup(seed=seed)
            warm = pr.fit_head(frames, lstm, ssa, self.MASK, y, range(10), range(10, 14),
                               pretrain_batch=2)
            runs.append(fn(frames, lstm, ssa, self.MASK, y, range(10), range(10, 14),
                           np.random.default_rng(seed + 1), head=warm.head, pretrain_batch=2,
                           **kw))
        return runs

    def test_full_batch_finetune(self):
        ref, got = self._both(4, epochs=3, lr=0.05, batch_size=10, patience=None)
        assert [e for e, _, _ in ref.curve] == [0, 1, 2, 3]
        _assert_close_training(ref, got)

    def test_minibatch_finetune_with_a_short_last_chunk(self):
        # 10 train plots in chunks of 8 and 2
        ref, got = self._both(4, epochs=4, lr=0.5, batch_size=8, patience=1)
        _assert_close_training(ref, got)

    def test_finetune(self):
        _assert_close_training(*self._both(6, epochs=2, lr=0.05, batch_size=4, patience=None))

    def test_finetune_starts_where_the_warmup_ends(self):
        # the warm-up's row already evaluates the parameters the fine-tune
        # starts from, so passing it in as epoch 0 changes no bit
        runs = []
        for given in (False, True):
            lstm, ssa, frames, y = tiny_encoder_setup(seed=6)
            warm = pr.fit_head(frames, lstm, ssa, self.MASK, y, range(10), range(10, 14),
                               pretrain_batch=2)
            ft = pr.train_final(frames, lstm, ssa, self.MASK, y, range(10), range(10, 14),
                                np.random.default_rng(8), epochs=2, lr=0.05, batch_size=4,
                                patience=None, head=warm.head, pretrain_batch=2,
                                **({"start": warm.curve[0][1:]} if given else {}))
            assert repr(ft.curve[0][1:]) == repr(warm.curve[0][1:])
            runs.append(ft)
        _assert_same_training(*runs)

    def test_finetune_divergence(self):
        runs = []
        for fn in (_per_plot_train_final, pr.train_final):
            lstm, ssa, frames, y = tiny_encoder_setup(seed=2)
            with np.errstate(over="ignore", invalid="ignore"):
                runs.append(fn(frames, lstm, ssa, np.ones(8, bool), y, range(10), range(10, 14),
                               np.random.default_rng(3), epochs=15, lr=1.0, batch_size=4,
                               patience=None, pretrain_batch=2))
        assert runs[0].diverged_at == 13
        _assert_close_training(*runs)


class TestForwardOnlyPrediction:
    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_predict_frames_needs_history_plus_one_frames(self, n_frames):
        rng = np.random.default_rng(5)
        lstm = cl.init_convlstm_params(3, 4, 6, 6, 3, rng)
        ssa = at.init_ssa_params(4, rng)  # history=2
        model = YieldModel(lstm, ssa, pr.init_head(8), np.ones(8, bool), y_mean=1.0,
                           y_std=1.0, cfg=RunConfig())
        with pytest.raises(ShapeMismatchError):
            model.predict_frames(rng.normal(size=(n_frames, 3, 6, 6)))
        model.predict_frames(rng.normal(size=(3, 3, 6, 6)))

    def test_predict_frames_records_no_graph(self):
        rng = np.random.default_rng(4)
        c, h, w = 6, 24, 24
        lstm = cl.init_convlstm_params(c, 8, h, w, 3, rng)
        ssa = at.init_ssa_params(8, rng)
        mask = np.arange(16) % 3 == 0
        head = pr.init_head(int(mask.sum()))
        head.w.data[:] = rng.normal(size=head.w.data.shape)
        model = YieldModel(lstm, ssa, head, mask, y_mean=3.0, y_std=0.5, cfg=RunConfig())
        frames = rng.normal(size=(4, c, h, w))

        def recorded():  # the same pass with the graph kept alive until it returns
            fused = ct.encode_features(frames[None], lstm, ssa)
            _, scalar = pr.predict_yield(Tensor(fused.data[:, model.sel]), head)
            assert fused._bw is not None and scalar._bw is not None
            return model.y_mean + model.y_std * float(scalar.data[0])

        peaks = {}
        for name, fn in (("free", lambda: model.predict_frames(frames)), ("recorded", recorded)):
            tracemalloc.start()
            value = fn()
            peaks[name] = (tracemalloc.get_traced_memory()[1], value)
            tracemalloc.stop()
        assert peaks["free"][1] == peaks["recorded"][1]
        assert peaks["free"][0] < 0.5 * peaks["recorded"][0]
