"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
share three full pipeline runs (seeds 1, 2, 3) plus a determinism rerun,
built once per session in a temporary directory.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import contrastive as ct
from cropyield import convlstm as cl
from cropyield import diffusion as df
from cropyield import eo
from cropyield import evalmetrics as em
from cropyield import predictor as pr
from cropyield import synthdata as sd
from cropyield import tensor as tc
from cropyield.cli import main as cli_main
from cropyield.evalmetrics import read_report_kv
from cropyield.tensor import Tensor

E2E_SEEDS = (1, 2, 3)
SEPARATION_SEED = 3  # criterion 5 reads this run's pretrain statistics


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """Full pipeline runs for seeds 1-3 plus a rerun of seed 1, with timings."""
    root = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for seed in E2E_SEEDS:
        data = root / f"ds{seed}.mtms"
        run = root / f"run{seed}"
        assert cli_main(["synth", "--source", "S2", "--plots", "60",
                         "--seed", str(seed), "--out", str(data)]) == 0
        t0 = time.perf_counter()
        assert cli_main(["pipeline", "--data", str(data), "--out", str(run),
                         "--seed", str(seed)]) == 0
        runs[seed] = {"dir": run, "data": data, "seconds": time.perf_counter() - t0}
    rerun = root / "run1-again"
    assert cli_main(["pipeline", "--data", str(runs[1]["data"]), "--out", str(rerun),
                     "--seed", "1"]) == 0
    runs["rerun1"] = {"dir": rerun}
    return runs


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    worst = {}

    rng = np.random.default_rng(101)
    p = cl.init_convlstm_params(c_in=2, c_hid=3, height=5, width=5, k=3, rng=rng)
    frame = rng.normal(size=(2, 5, 5)) * 0.5
    h0, c0 = rng.normal(size=(3, 5, 5)) * 0.3, rng.normal(size=(3, 5, 5)) * 0.3

    def lstm_loss(_t):
        out = cl.convlstm_step(Tensor(frame[None]),
                               cl.ConvLstmState(Tensor(h0[None]), Tensor(c0[None])), p)
        return (out.h * out.h).sum()

    worst["convlstm_step"] = max(tc.grad_check(lstm_loss, t) for t in p.parameters())

    ssa = at.init_ssa_params(4, np.random.default_rng(102), groups=2, history=2)
    h_t = rng.normal(size=(4, 6, 6)) * 0.5
    hist = [rng.normal(size=(4, 6, 6)) * 0.5 for _ in range(2)]

    def ssa_loss(_t):
        out = at.ssa_forward(Tensor(h_t[None]), [Tensor(h[None]) for h in hist], ssa)
        return (out * out).sum()

    worst["ssa_forward"] = max(tc.grad_check(ssa_loss, t) for t in ssa.parameters())

    sched = df.linear_schedule(steps=6, beta_start=0.95, beta_end=0.4)
    den = df.init_denoiser(2, 3, sched, np.random.default_rng(103))
    z0 = rng.normal(size=(2, 5, 5)) * 0.5
    worst["diffusion_loss"] = max(
        tc.grad_check(lambda _t: df.diffusion_loss(z0, den, 0.1, np.random.default_rng(5)), t)
        for t in den.parameters()
    )

    lstm2 = cl.init_convlstm_params(3, 4, 6, 6, 3, np.random.default_rng(104))
    ssa2 = at.init_ssa_params(4, np.random.default_rng(105), groups=2)
    proj = tc.param(np.random.default_rng(106).uniform(-0.5, 0.5, size=(4, 8)))
    seqs = [[rng.normal(size=(3, 6, 6)) * 0.5 for _ in range(3)] for _ in range(4)]

    def contrastive_via_embed(_t):
        z1 = tc.concat([ct.embed_sequence([seqs[0]], lstm2, ssa2, proj),
                        ct.embed_sequence([seqs[2]], lstm2, ssa2, proj)])
        z2 = tc.concat([ct.embed_sequence([seqs[1]], lstm2, ssa2, proj),
                        ct.embed_sequence([seqs[3]], lstm2, ssa2, proj)])
        return ct.contrastive_loss(z1, z2, 0.5)

    worst["contrastive_loss"] = max(
        tc.grad_check(contrastive_via_embed, t)
        for t in (proj, lstm2.b_o, lstm2.w_ci, ssa2.w_temporal, ssa2.routing)
    )

    head = pr.init_head(2)
    head.w.data[:] = rng.normal(size=head.w.data.shape) * 0.3
    head.b.data[()] = 0.2
    feats = rng.normal(size=(1, 2, 5, 5))
    target = Tensor(np.array([0.7]))

    def head_loss(_t):
        _, scalar = pr.predict_yield(Tensor(feats), head)
        diff = target - scalar
        return (diff * diff).mean()

    worst["predict_yield"] = max(tc.grad_check(head_loss, t) for t in (head.w, head.b))

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    report("1 gradient-suite", not bad and elapsed < 60.0,
           f"(max rel err {max(worst.values()):.2e}, {elapsed:.1f}s)")


def test_criterion_2_equation_oracles():
    checks = []

    # ConvLSTM zero-weight closed form
    z = lambda *s: tc.param(np.zeros(s))
    p = cl.ConvLstmParams(
        w_fi=z(3, 2, 3, 3), w_ff=z(3, 2, 3, 3), w_fo=z(3, 2, 3, 3), w_fc=z(3, 2, 3, 3),
        w_hi=z(3, 3, 3, 3), w_hf=z(3, 3, 3, 3), w_ho=z(3, 3, 3, 3), w_hc=z(3, 3, 3, 3),
        w_ci=z(3, 4, 4), w_cf=z(3, 4, 4), w_co=z(3, 4, 4),
        b_i=z(3), b_f=z(3), b_o=z(3), b_c=z(3),
    )
    c0 = np.random.default_rng(0).normal(size=(3, 4, 4))
    out = cl.convlstm_step(Tensor(np.zeros((1, 2, 4, 4))),
                           cl.ConvLstmState(Tensor(np.zeros((1, 3, 4, 4))), Tensor(c0[None])), p)
    checks.append(("convlstm closed form",
                   float(np.max(np.abs(out.c.data[0] - 0.5 * c0))) < 1e-9
                   and float(np.max(np.abs(out.h.data[0] - 0.5 * np.tanh(0.5 * c0)))) < 1e-9))

    # SE with zero weights scales by exactly 0.5
    h = np.random.default_rng(1).normal(size=(4, 5, 5))
    got = at.se_attention(Tensor(h[None]), tc.param(np.zeros((2, 4))),
                          tc.param(np.zeros((4, 2)))).data[0]
    checks.append(("SE half scale", float(np.max(np.abs(got - 0.5 * h))) < 1e-9))

    # channel shuffle permutation for C=4, g=2
    perm = at.shuffle_permutation(4, 2)
    checks.append(("shuffle (0,2,1,3)", list(perm) == [0, 2, 1, 3]))

    # contrastive hand value, tolerance 1e-5 as stated
    views = Tensor([[1.0, 0.0], [0.0, 1.0]])  # both views of sample 0 are ex, of 1 ey
    loss = ct.contrastive_loss(views, views, 1.0).item()
    checks.append(("contrastive -log(e/(e+1))", abs(loss - 0.31326) < 1e-5))

    # particle position update arithmetic
    new = eo.position_update(np.array([0.6]), np.array([0.2]), np.array([0.4]),
                             0.5, 1.0, 0.5, 1.0)
    checks.append(("position update 0.9", abs(new[0] - 0.9) < 1e-9))

    # metric hand values
    checks.append(("mape hand", abs(em.mape([100.0, 200.0], [110.0, 180.0]) - 0.10) < 1e-9))
    checks.append(("rmsle hand", abs(em.rmsle([math.e - 1.0], [0.0]) - 1.0) < 1e-9))
    checks.append(("smape hand", abs(em.smape([100.0], [300.0]) - 1.0) < 1e-9))

    failed = [name for name, ok in checks if not ok]
    report("2 equation-oracles", not failed, f"({len(checks)} oracles; failed: {failed})")


def test_criterion_3_diffusion_moments():
    rng = np.random.default_rng(11)
    sched = df.NoiseSchedule((1.0, 0.5, 0.0))

    z0 = np.random.default_rng(0).normal(size=(4, 4))
    exact = df.forward_diffuse(z0, 1, sched, rng)
    ok_exact = np.array_equal(exact, z0)

    draws = np.array([df.forward_diffuse(np.ones((5, 5)), 2, sched, rng) for _ in range(10_000)])
    ok_half = abs(draws.mean() - 0.5) < 0.05 and abs(draws.var() - 0.5) < 0.05

    draws = np.array([df.forward_diffuse(np.ones((5, 5)), 3, sched, rng) for _ in range(10_000)])
    ok_noise = abs(draws.mean()) < 0.05 and abs(draws.var() - 1.0) < 0.05

    report("3 diffusion-moments", ok_exact and ok_half and ok_noise,
           f"(beta=1 exact: {ok_exact}, beta=.5 moments: {ok_half}, beta=0 moments: {ok_noise})")


def test_criterion_4_planted_mask_recovery():
    t0 = time.perf_counter()
    dim, wins = 20, 0
    monotone = True
    for seed in range(10):
        planted = np.random.default_rng(1000 + seed).random(dim) >= 0.5
        fitness = lambda mask: float(np.sum(mask != planted))
        res = eo.run_eo(dim, fitness, n_particles=20, max_iter=100, seed=seed)
        monotone &= res.history == sorted(res.history, reverse=True)
        wins += res.best_fitness == 0.0
    elapsed = time.perf_counter() - t0
    report("4 planted-mask", wins >= 9 and monotone and elapsed < 30.0,
           f"({wins}/10 seeds, monotone={monotone}, {elapsed:.1f}s)")


def test_criterion_5_contrastive_separation(pipeline_runs):
    stats_path = pipeline_runs[SEPARATION_SEED]["dir"] / "pretrain_stats.kv"
    stats = {k: float(v) for k, v in
             (line.split("=") for line in stats_path.read_text().splitlines())}
    sep = stats["holdout_pos_sim"] - stats["holdout_neg_sim"]
    uniform = stats["uniform_loss"]
    in_band = 0.9 * uniform <= stats["epoch0_loss"] <= 1.1 * uniform
    improved = stats["final_loss"] < stats["epoch0_loss"]
    report("5 contrastive-separation", sep >= 0.2 and in_band and improved,
           f"(separation {sep:.3f} >= 0.2; epoch-0 loss {stats['epoch0_loss']:.4f} "
           f"vs log(batch) {uniform:.4f}, in band: {in_band}; "
           f"final loss {stats['final_loss']:.4f} decreased: {improved})")


def test_criterion_6_end_to_end_benchmark(pipeline_runs):
    details = []
    ok = True
    for seed in E2E_SEEDS:
        kv = read_report_kv(pipeline_runs[seed]["dir"] / "report.kv")
        ratio = float(kv["mape"]) / float(kv["baseline_mape"])
        seconds = pipeline_runs[seed]["seconds"]
        ok &= ratio <= 0.8 and seconds < 600.0
        details.append(f"seed {seed}: mape ratio {ratio:.3f}, {seconds:.0f}s")
    report("6 end-to-end", ok, "(" + "; ".join(details) + ")")


def test_criterion_7_metric_oracles():
    def streaming(fn_pair, y, p):
        total, n = 0.0, 0
        for yi, pi in zip(y, p):
            total += fn_pair(yi, pi)
            n += 1
        return total / n

    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        y = rng.uniform(0.1, 100.0, n)
        p = rng.uniform(0.1, 100.0, n)
        m1 = em.mape(y, p)
        m2 = streaming(lambda a, b: abs((a - b) / a), y, p)
        r1 = em.rmsle(y, p)
        r2 = math.sqrt(streaming(lambda a, b: (math.log1p(a) - math.log1p(b)) ** 2, y, p))
        s1 = em.smape(y, p)
        s2 = streaming(lambda a, b: abs(a - b) / ((abs(a) + abs(b)) / 2.0), y, p)
        for got, want in ((m1, m2), (r1, r2), (s1, s2)):
            worst = max(worst, abs(got - want) / abs(want) if want else abs(got))
    scale_ok = True
    for c in (0.5, 3.0, 42.0):
        y = rng.uniform(1.0, 50.0, 10)
        p = rng.uniform(1.0, 50.0, 10)
        scale_ok &= abs(em.mape(c * y, c * p) - em.mape(y, p)) < 1e-9
        scale_ok &= abs(em.smape(c * y, c * p) - em.smape(y, p)) < 1e-9
    y = rng.uniform(1.0, 50.0, 8)
    zero_ok = em.mape(y, y) == 0.0 and em.rmsle(y, y) == 0.0 and em.smape(y, y) == 0.0
    p = y + rng.uniform(0.1, 1.0, 8)
    zero_ok &= em.mape(y, p) > 0 and em.rmsle(y, p) > 0 and em.smape(y, p) > 0
    report("7 metric-oracles", worst < 1e-9 and scale_ok and zero_ok,
           f"(max rel dev {worst:.2e}; scale-invariance {scale_ok}; zero-iff-equal {zero_ok})")


def test_criterion_8_determinism(pipeline_runs, tmp_path):
    r1 = pipeline_runs[1]["dir"]
    r2 = pipeline_runs["rerun1"]["dir"]
    reports_equal = (
        (r1 / "report.txt").read_bytes() == (r2 / "report.txt").read_bytes()
        and (r1 / "report.kv").read_bytes() == (r2 / "report.kv").read_bytes()
        and (r1 / "model.ckpt").read_bytes() == (r2 / "model.ckpt").read_bytes()
    )
    ds = sd.generate_dataset(sd.BandSpec("S2"), 12, 4, 8, 8, seed=77)
    path_a, path_b = tmp_path / "a.mtms", tmp_path / "b.mtms"
    sd.save_dataset(ds, path_a)
    back = sd.load_dataset(path_a)
    sd.save_dataset(back, path_b)
    round_trip = path_a.read_bytes() == path_b.read_bytes()
    report("8 determinism", reports_equal and round_trip,
           f"(identical reports: {reports_equal}; save/load bit-exact: {round_trip})")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_criterion_9_ablation_harness(tmp_path_factory):
    from cropyield.config import load_config
    from cropyield.pipeline import ATTENTION_SWEEP, OPTIMIZER_SWEEP, run_ablation_sweep

    root = tmp_path_factory.mktemp("ablation")
    data = root / "ds.mtms"
    assert cli_main(["synth", "--source", "S2", "--plots", "20", "--t-steps", "4",
                     "--height", "8", "--width", "8", "--seed", "4", "--out", str(data)]) == 0
    cfg = load_config(None, {
        "seed": 4, "n_plots": 20, "t_steps": 4, "height": 8, "width": 8,
        "pretrain_epochs": 2, "denoiser_epochs": 2, "eo_iters": 20,
        "diff_steps": 6, "beta_end": 0.5,
    })
    tables = run_ablation_sweep(cfg, data, root)

    att = tables["attention"].read_text().strip().splitlines()
    opt = tables["optimizer"].read_text().strip().splitlines()
    att_names = {line.split(",")[0] for line in att[1:]}
    opt_names = {line.split(",")[0] for line in opt[1:]}
    want_att = {name for name, _ in ATTENTION_SWEEP} | {"mean-baseline"}
    want_opt = {name for name, _ in OPTIMIZER_SWEEP} | {"mean-baseline"}
    headers_ok = att[0] == opt[0] == "model,mape,rmsle,smape"
    rows_ok = att_names == want_att and opt_names == want_opt
    sorted_ok = all(
        [float(l.split(",")[1]) for l in t[1:]] == sorted(float(l.split(",")[1]) for l in t[1:])
        for t in (att, opt)
    )
    report("9 ablation-harness", headers_ok and rows_ok and sorted_ok,
           f"(attention rows {len(att) - 1}, optimizer rows {len(opt) - 1}, sorted by MAPE)")
