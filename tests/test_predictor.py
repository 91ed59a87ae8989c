import tracemalloc

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import contrastive as ct
from cropyield import convlstm as cl
from cropyield import eo
from cropyield import predictor as pr
from cropyield import tensor as tc
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
            diff = target - scalar
            return (diff * diff).mean()

        assert tc.grad_check(loss, head.w) < 1e-4
        assert tc.grad_check(loss, head.b) < 1e-4

    def test_empty_selection_rejected(self):
        with pytest.raises(DomainError):
            pr.init_head(0)


def tiny_encoder_setup(n=14, t=4, c=3, hw=8, seed=0):
    rng = np.random.default_rng(seed)
    lstm = cl.init_convlstm_params(c, 4, hw, hw, 3, rng)
    ssa = at.init_ssa_params(4, rng, groups=2)
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

    def test_head_design_hand_values(self):
        # one channel of ones on a 3x3 map: the centre tap sees all 9 cells,
        # an edge tap 6 and a corner tap 4 once the map is zero-padded
        x = pr.head_design(np.ones((2, 1, 3, 3)))
        row = np.array([4, 6, 4, 6, 9, 6, 4, 6, 4, 9]) / 9.0
        row[-1] = 1.0
        np.testing.assert_allclose(x, np.stack([row, row]), rtol=0, atol=1e-15)

    def test_interpolated_plot_has_infinite_loo_error(self):
        # a lone plot and an unpenalized intercept: h_11 = 1, no refit exists
        w, err = pr.ridge_loo(np.ones((1, 1)), np.array([2.0]), 0.1)
        assert w.tolist() == [2.0] and err == np.inf

    def test_no_finite_loo_error_raises(self, monkeypatch):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=1)
        loo = pr.ridge_loo
        monkeypatch.setattr(pr, "ridge_loo", lambda *a: (loo(*a)[0], np.inf))
        with pytest.raises(NumericalError, match="^head fit: no ridge penalty"):
            pr.fit_head(frames, lstm, ssa, np.ones(8, bool), y, range(10), range(10, 14),
                        pretrain_batch=2)

    def test_constant_train_yields_fit_a_zero_head(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=3)
        y = np.append(np.full(10, 1500.0), y[10:])
        res = pr.fit_head(frames, lstm, ssa, np.ones(8, bool), y, range(10), range(10, 14),
                          pretrain_batch=2)
        assert (res.y_mean, res.y_std) == (1500.0, 1.0)
        assert not np.any(res.head.w.data) and res.head.b.data == 0.0
        # every penalty fits the zero targets exactly: the first one wins the tie
        assert res.ridge_lambda == pr.RIDGE_GRID[0]
        assert (res.train_mse, res.val_mse) == (0.0, float(np.mean((y[10:] - 1500.0) ** 2)))

    @pytest.mark.parametrize("pretrain_batch", [1, 3, 7])
    def test_fit_head_matches_per_plot_encoding(self, pretrain_batch):
        # the chunked encoder passes against one pass per plot, then the
        # same design, grid search and fitted head
        lstm, ssa, frames, y = tiny_encoder_setup(seed=6)
        mask = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
        res = pr.fit_head(frames, lstm, ssa, mask, y, range(10), range(10, 14),
                          pretrain_batch=pretrain_batch)
        with tc.no_grad():
            feats = np.concatenate([ct.encode_features(f[None], lstm, ssa).data
                                    for f in frames])[:, mask]
        y_star = (y - np.mean(y[:10])) / np.std(y[:10])
        x = pr.head_design(feats[:10])
        fits = [pr.ridge_loo(x, y_star[:10], lam) for lam in pr.RIDGE_GRID]
        best = int(np.argmin([err for _, err in fits]))
        assert res.ridge_lambda == pr.RIDGE_GRID[best]
        w = np.append(res.head.w.data.ravel(), res.head.b.data)
        assert w.tobytes() == fits[best][0].tobytes()

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
        # the fit's train and validation MSE are those of its predictions
        y_star = (y - warm.y_mean) / warm.y_std
        err = (preds - y_star) ** 2
        assert (warm.train_mse, warm.val_mse) == (float(np.mean(err[:10])),
                                                  float(np.mean(err[10:])))
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
        assert heads[0].train_mse == heads[1].train_mse
        assert heads[0].val_mse != heads[1].val_mse

    def test_learns_signal_better_than_mean(self):
        lstm, ssa, frames, y = tiny_encoder_setup(seed=4)
        res = pr.fit_head(frames, lstm, ssa, np.ones(8, bool), y, range(10), range(10, 14),
                          pretrain_batch=2)
        feats = ct.encode_chunks([frames[i] for i in range(10, 14)], lstm, ssa, 2)
        with tc.no_grad():
            preds = res.y_mean + res.y_std * pr.predict_yield(Tensor(feats), res.head)[1].data
        mean_pred_err = np.mean((y[10:14] - np.mean(y[:10])) ** 2)
        model_err = np.mean((y[10:14] - preds) ** 2)
        assert model_err < mean_pred_err

    def test_empty_mask_rejected(self):
        lstm, ssa, frames, y = tiny_encoder_setup()
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
                    pytest.raises(NumericalError, match="^head fit: non-finite"):
                pr.fit_head(f, lstm, ssa, np.ones(8, bool), t, range(10), range(10, 14),
                            pretrain_batch=2)

    @pytest.mark.parametrize("where", ["features", "targets"])
    def test_ridge_rejects_non_finite_input(self, where):
        x, y = np.ones((4, 3)), np.arange(4.0)
        (x if where == "features" else y)[1] = np.nan
        with pytest.raises(NumericalError, match="^probe: non-finite"):
            eo.ridge_solve(x, y, 0.1, "probe")


class TestForwardOnlyPrediction:
    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_predict_frames_needs_history_plus_one_frames(self, n_frames):
        rng = np.random.default_rng(5)
        lstm = cl.init_convlstm_params(3, 4, 6, 6, 3, rng)
        ssa = at.init_ssa_params(4, rng, groups=2)  # history=2
        model = YieldModel(lstm, ssa, pr.init_head(8), np.ones(8, bool), y_mean=1.0, y_std=1.0)
        with pytest.raises(ShapeMismatchError):
            model.predict_frames(rng.normal(size=(n_frames, 3, 6, 6)))
        model.predict_frames(rng.normal(size=(3, 3, 6, 6)))

    def test_predict_frames_records_no_graph(self):
        rng = np.random.default_rng(4)
        c, h, w = 6, 24, 24
        lstm = cl.init_convlstm_params(c, 8, h, w, 3, rng)
        ssa = at.init_ssa_params(8, rng, groups=2)
        mask = np.arange(16) % 3 == 0
        head = pr.init_head(int(mask.sum()))
        head.w.data[:] = rng.normal(size=head.w.data.shape)
        model = YieldModel(lstm, ssa, head, mask, y_mean=3.0, y_std=0.5)
        frames = rng.normal(size=(4, c, h, w))

        def recorded():  # the same pass with the graph kept alive until it returns
            fused = ct.encode_features(frames[None], lstm, ssa)
            _, scalar = pr.predict_yield(Tensor(fused.data[:, model.sel]), head)
            assert fused._bw is not None and scalar._bw is not None
            return model.y_mean + model.y_std * float(scalar.data[0])

        model.predict_frames(frames)  # fills the conv plan cache, which neither pass then pays
        peaks = {}
        for name, fn in (("free", lambda: model.predict_frames(frames)), ("recorded", recorded)):
            tracemalloc.start()
            value = fn()
            peaks[name] = (tracemalloc.get_traced_memory()[1], value)
            tracemalloc.stop()
        assert peaks["free"][1] == peaks["recorded"][1]
        assert peaks["free"][0] < 0.5 * peaks["recorded"][0]
