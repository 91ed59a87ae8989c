import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cropyield

from cropyield import attention as at
from cropyield import convlstm as cl
from cropyield import diffusion as df
from cropyield import predictor as pr
from cropyield import synthdata as sd
from cropyield.cli import main
from cropyield.config import RunConfig, config_text, load_config, parse_overrides
from cropyield.errors import ConfigError
from cropyield.fileio import load_checkpoint
from cropyield.pipeline import run_pipeline

FAST = [
    "n_plots=12", "t_steps=4", "height=8", "width=8",
    "pretrain_epochs=1", "denoiser_epochs=1", "eo_iters=5", "eo_particles=6",
    "diff_steps=4", "beta_end=0.5",
]


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text("\n".join(FAST) + "\n")
    return p


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig().validate()
        text = config_text(cfg)
        back = RunConfig(**parse_overrides(text)).validate()
        assert back == cfg

    # finetune_lr and train_lr went with the encoder fine-tune
    @pytest.mark.parametrize("key", ["no_such_knob", "finetune_lr", "train_lr"])
    def test_unknown_key_rejected(self, key, tmp_path):
        with pytest.raises(ConfigError):
            parse_overrides(f"{key}=1")
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}=0.1\n")
        assert main(["pipeline", "--data", str(tmp_path / "none.mtms"),
                     "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 2
        assert not (tmp_path / "r").exists()

    def test_reserved_tags_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"attention_mode": "cbam"})
        with pytest.raises(ConfigError):
            load_config(None, {"feature_selector": "golden_ratio"})
        with pytest.raises(ConfigError):
            load_config(None, {"feature_selector": "sailfish"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides("seed=notanint")
        with pytest.raises(ConfigError):
            parse_overrides("percent=maybe")
        with pytest.raises(ConfigError):
            load_config(None, {"t_steps": 2, "history": 2})
        for key, value in (("batch_size", 1), ("denoiser_epochs", -1), ("pretrain_epochs", -1),
                           ("height", 7), ("width", 7), ("eo_iters", 0),
                           ("eo_particles", 3), ("temperature", 0.0), ("sigma_scale", -0.1),
                           ("beta_start", 0.2), ("beta_end", -0.1), ("beta_start", 1.5),
                           ("kernel_size", 2), ("kernel_size", -1), ("lambda_consistency", -1.0),
                           ("diff_steps", 0), ("denoiser_hidden", 0), ("hidden_channels", 0),
                           ("embed_dim", 0), ("history", 0), ("experts", 0), ("se_reduction", 0),
                           ("shuffle_groups", 0), ("denoiser_lr", float("nan")),
                           ("pretrain_lr", float("inf")), ("yield_noise", float("-inf")),
                           ("ridge_penalty", -0.01)):
            with pytest.raises(ConfigError):
                load_config(None, {key: value})
        # the benchmark's shortened schedules stay valid
        load_config(None, {"pretrain_epochs": 0, "denoiser_epochs": 0, "batch_size": 2,
                           "eo_iters": 2})

    def test_comments_and_blank_lines(self):
        out = parse_overrides("# a comment\n\nseed=3  # trailing\n")
        assert out == {"seed": 3}


class TestSynthCommand:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds.mtms"
        code = main(["synth", "--source", "S2", "--plots", "12", "--t-steps", "4",
                     "--height", "8", "--width", "8", "--seed", "7", "--out", str(out)])
        assert code == 0
        ds = sd.load_dataset(out)
        assert ds.band_spec.channels == 12
        assert len(ds.samples) == 12

    def test_too_few_plots_to_split_exits_2(self, tmp_path):
        out = tmp_path / "ds.mtms"
        assert main(["synth", "--source", "S2", "--plots", "9", "--out", str(out)]) == 2
        assert not out.exists()

    def test_maps_below_the_synth_floor_exit_2(self, tmp_path, capsys):
        out = tmp_path / "ds.mtms"
        assert main(["synth", "--source", "S2", "--plots", "12", "--height", "5", "--width", "7",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: height must be >= 8")
        assert not out.exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--plots", "12"])
        assert exc.value.code == 2

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.mtms", tmp_path / "b.mtms"
        argv = ["synth", "--source", "S1", "--plots", "10", "--t-steps", "3",
                "--height", "8", "--width", "8", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.mtms"
    code = main(["synth", "--source", "S2", "--plots", "12", "--t-steps", "4",
                 "--height", "8", "--width", "8", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def selected_run(tiny_dataset, tmp_path_factory):
    """The dataset and a run directory after the pretrain and select stages."""
    root = tmp_path_factory.mktemp("selected")
    cfg = root / "fast.cfg"
    cfg.write_text("\n".join(FAST) + "\n")
    run_dir = root / "run"
    for stage in ("pretrain", "select"):
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                     "--config", str(cfg), "--seed", "5", "--stage", stage]) == 0
    return tiny_dataset, run_dir


class TestPipelineCommand:
    def test_full_run_emits_artifacts(self, tiny_dataset, fast_config, tmp_path):
        run_dir = tmp_path / "run"
        code = main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                     "--config", str(fast_config), "--seed", "5"])
        assert code == 0
        for name in ("config.txt", "pretrain.ckpt", "pretrain_loss.txt", "pretrain_stats.kv",
                     "mask.txt", "eo_history.txt", "model.ckpt", "train_curve.txt",
                     "report.txt", "report.kv"):
            assert (run_dir / name).exists(), name

    def test_checkpoint_keys_are_the_parts_named_keys(self, tiny_dataset, fast_config,
                                                      tmp_path):
        run_dir = tmp_path / "run"
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                     "--config", str(fast_config)]) == 0
        cfg = load_config(fast_config)
        rng = np.random.default_rng(0)
        encoder = {**cl.init_convlstm_params(12, cfg.hidden_channels, 8, 8, 3, rng).named(),
                   **at.init_ssa_params(cfg.hidden_channels, rng, experts=cfg.experts).named()}
        den = df.init_denoiser(12, cfg.denoiser_hidden, cfg.diff_steps, rng).named()
        head = pr.init_head(1).named()
        assert set(load_checkpoint(run_dir / "pretrain.ckpt")) == {*den, *encoder, "projection"}
        assert set(load_checkpoint(run_dir / "model.ckpt")) == {
            *encoder, *head, "norm/y_mean", "norm/y_std", "mask"}
        # one held-out sample (12 plots) has no negative pair: no separation is written
        stats = (run_dir / "pretrain_stats.kv").read_text()
        assert "holdout_pos_sim=" in stats
        assert "holdout_neg_sim" not in stats and "holdout_separation" not in stats

    def test_time_steps_come_from_the_dataset(self, tiny_dataset, tmp_path):
        # tiny_dataset has T=4; this config leaves t_steps at its default of 6
        cfg = tmp_path / "default_t.cfg"
        cfg.write_text("\n".join(k for k in FAST if not k.startswith("t_steps=")) + "\n")
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)]) == 0

    def test_dataset_shorter_than_history_exits_2(self, fast_config, tmp_path):
        short_cfg = tmp_path / "short.cfg"
        short_cfg.write_text("history=1\n")
        data = tmp_path / "short.mtms"
        assert main(["synth", "--source", "S1", "--plots", "10", "--t-steps", "2",
                     "--height", "8", "--width", "8", "--config", str(short_cfg),
                     "--out", str(data)]) == 0
        run_dir = tmp_path / "r"
        assert main(["pipeline", "--data", str(data), "--out", str(run_dir),
                     "--config", str(fast_config)]) == 2
        assert not (run_dir / "pretrain.ckpt").exists()

    def test_stage_resume(self, tiny_dataset, fast_config, tmp_path):
        run_dir = tmp_path / "staged"
        base = ["--data", str(tiny_dataset), "--out", str(run_dir),
                "--config", str(fast_config), "--seed", "5"]
        assert main(["pipeline", *base, "--stage", "pretrain"]) == 0
        assert (run_dir / "pretrain.ckpt").exists()
        assert not (run_dir / "mask.txt").exists()
        assert main(["pipeline", *base, "--stage", "select"]) == 0
        assert (run_dir / "mask.txt").exists()

    def test_missing_prerequisite_exits_3(self, tiny_dataset, fast_config, tmp_path):
        code = main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / "empty"),
                     "--config", str(fast_config), "--stage", "train"])
        assert code == 3

    def test_missing_dataset_exits_3(self, fast_config, tmp_path):
        code = main(["pipeline", "--data", str(tmp_path / "nope.mtms"),
                     "--out", str(tmp_path / "r"), "--config", str(fast_config)])
        assert code == 3

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        # the 100-byte head of an S2 dataset: cut inside its first payload
        full, cut = tmp_path / "full.mtms", tmp_path / "cut.mtms"
        assert main(["synth", "--source", "S2", "--plots", "10", "--seed", "1",
                     "--out", str(full)]) == 0
        cut.write_bytes(full.read_bytes()[:100])
        fresh = tmp_path / "fresh-dir"
        assert main(["pipeline", "--data", str(cut), "--out", str(fresh)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not fresh.exists()

    def test_a_run_not_an_import_sets_the_malloc_thresholds(self, tiny_dataset, fast_config,
                                                             tmp_path, monkeypatch):
        probe = "import cropyield.tensor as tc; print(tc.keep_freed_heap.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"
        from cropyield import tensor as tc
        calls = []
        monkeypatch.setattr(tc, "keep_freed_heap", lambda: calls.append(1))
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / "run"),
                     "--config", str(fast_config), "--seed", "5"]) == 0
        assert calls == [1]

    def test_stages_see_no_raw_plot_cube(self, tiny_dataset, fast_config, tmp_path,
                                         monkeypatch):
        """run_pipeline drops each plot's raw [T,H,W,C] cube once the frames
        are made from it: the stages read the frames and the plots' yields
        and tags only."""
        from cropyield import pipeline as pl
        seen = {}
        for stage, runner in list(pl._RUNNERS.items()):
            def spy(run_dir, ds, frames, cfg, _stage=stage, _runner=runner):
                seen[_stage] = [s.x for s in ds.samples]
                return _runner(run_dir, ds, frames, cfg)
            monkeypatch.setitem(pl._RUNNERS, stage, spy)
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / "run"),
                     "--config", str(fast_config), "--seed", "5"]) == 0
        assert list(seen) == list(pl.STAGES)
        assert all(x is None for cubes in seen.values() for x in cubes)

    def test_dataset_path_is_a_directory_exits_3(self, fast_config, tmp_path, capsys):
        code = main(["pipeline", "--data", str(tmp_path), "--out", str(tmp_path / "r"),
                     "--config", str(fast_config)])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_config_value_exits_2_before_any_write(self, tiny_dataset, fast_config,
                                                        tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(fast_config.read_text() + "beta_start=0.2\n")
        run_dir = tmp_path / "r"
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: need 0 <= beta_end")
        assert not run_dir.exists()

    @pytest.mark.parametrize("mask", ["", "1010101010101010\nabc\n",
                                      "10101010101010101010\n0.3\n", "0010\n0.3\n"],
                             ids=["empty", "non_numeric_fitness", "too_long", "too_short"])
    def test_malformed_mask_exits_3(self, selected_run, fast_config, tmp_path, capsys, mask):
        data, selected = selected_run
        run_dir = tmp_path / "run"
        shutil.copytree(selected, run_dir)
        (run_dir / "mask.txt").write_text(mask)
        assert main(["pipeline", "--data", str(data), "--out", str(run_dir),
                     "--config", str(fast_config), "--seed", "5", "--stage", "train"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "mask.txt" in err
        assert not (run_dir / "model.ckpt").exists()

    def test_train_curve_is_the_closed_form_fit(self, selected_run, fast_config, tmp_path):
        # the header, the fit's epoch-0 row and the penalty its
        # leave-one-out error chose; nothing of a fine-tune
        data, selected = selected_run
        run_dir = tmp_path / "run"
        shutil.copytree(selected, run_dir)
        assert main(["pipeline", "--data", str(data), "--out", str(run_dir),
                     "--config", str(fast_config), "--seed", "5", "--stage", "train"]) == 0
        header, row, lam = (run_dir / "train_curve.txt").read_text().splitlines()
        assert header == "epoch,train_mse,val_mse"
        epoch, tr, va = row.split(",")
        assert epoch == "0" and np.isfinite(float(tr)) and np.isfinite(float(va))
        assert lam.startswith("# ridge_lambda=")
        assert float(lam.partition("=")[2]) in pr.RIDGE_GRID

    def test_reserved_selector_exits_2(self, tiny_dataset, fast_config, tmp_path):
        code = main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / "r"),
                     "--config", str(fast_config), "--feature-selector", "sailfish"])
        assert code == 2

    def test_determinism_byte_identical_reports(self, tiny_dataset, fast_config, tmp_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        base = ["pipeline", "--data", str(tiny_dataset), "--config", str(fast_config), "--seed", "9"]
        assert main(base + ["--out", str(r1)]) == 0
        assert main(base + ["--out", str(r2)]) == 0
        assert (r1 / "report.txt").read_bytes() == (r2 / "report.txt").read_bytes()
        assert (r1 / "report.kv").read_bytes() == (r2 / "report.kv").read_bytes()
        assert (r1 / "model.ckpt").read_bytes() == (r2 / "model.ckpt").read_bytes()

    def test_resume_under_a_different_config_exits_2(self, tiny_dataset, fast_config, tmp_path):
        run_dir = tmp_path / "run"
        base = ["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir), "--seed", "5"]
        assert main(base + ["--config", str(fast_config)]) == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        changed = tmp_path / "changed.cfg"
        changed.write_text(fast_config.read_text() + "ridge_penalty=0.1\n")
        assert main(base + ["--config", str(changed), "--stage", "train"]) == 2
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # the same config resumes, and the stage reproduces its artifacts
        assert main(base + ["--config", str(fast_config), "--stage", "train"]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # a full run is not a resume: it writes the new snapshot
        assert main(base + ["--config", str(changed)]) == 0
        assert load_config(run_dir / "config.txt").ridge_penalty == 0.1

    def test_benchmark_only_keys_change_no_artifact(self, tiny_dataset, fast_config,
                                                    tmp_path):
        # train_epochs, finetune_encoder, finetune_epochs and patience are read
        # by nothing: a config file may not name them, and the benchmark's
        # schedules, which still pass them to dataclasses.replace, change no byte
        keys = {"train_epochs": 7, "finetune_encoder": False, "finetune_epochs": 1, "patience": 0}
        for key, value in keys.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{fast_config.read_text()}{key}={value}\n")
            assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / key),
                         "--config", str(cfg), "--seed", "5"]) == 2
            assert not (tmp_path / key).exists()
        base = load_config(fast_config, {"seed": 5})
        runs = [run_pipeline(cfg, tiny_dataset, tmp_path / name)
                for name, cfg in (("base", base), ("replaced", replace(base, **keys)))]
        files = [{p.name: p.read_bytes() for p in sorted(run.iterdir())} for run in runs]
        assert "config.txt" in files[0] and "model.ckpt" in files[0]
        assert files[0] == files[1]

    def test_overflowing_denoiser_lr_exits_4(self, tiny_dataset, fast_config, tmp_path,
                                             capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(fast_config.read_text() + "denoiser_lr=1e300\n")
        run_dir = tmp_path / "r"
        with np.errstate(all="ignore"):
            code = main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                         "--config", str(cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: denoiser training diverged")
        assert "Traceback" not in err
        assert not (run_dir / "pretrain.ckpt").exists()

    def test_resume_against_other_data_exits_2(self, tiny_dataset, fast_config, tmp_path):
        run_dir = tmp_path / "run"
        base = ["pipeline", "--out", str(run_dir), "--config", str(fast_config), "--seed", "5"]
        assert main(base + ["--data", str(tiny_dataset)]) == 0
        assert (run_dir / "data.txt").read_text().splitlines()[:3] == [
            "source=S2", "plots=12", "dims=4 8 8 12"]
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        other = tmp_path / "other.mtms"
        assert main(["synth", "--source", "S2", "--plots", "30", "--t-steps", "4",
                     "--height", "8", "--width", "8", "--seed", "9", "--out", str(other)]) == 0
        assert main(base + ["--data", str(other), "--stage", "evaluate"]) == 2
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # the same container bytes under another name resume
        copy = tmp_path / "copy.mtms"
        copy.write_bytes(tiny_dataset.read_bytes())
        assert main(base + ["--data", str(copy), "--stage", "evaluate"]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # same source and dims, other plots: the trailer tells them apart
        same_dims = tmp_path / "same_dims.mtms"
        assert main(["synth", "--source", "S2", "--plots", "12", "--t-steps", "4",
                     "--height", "8", "--width", "8", "--seed", "6",
                     "--out", str(same_dims)]) == 0
        assert main(base + ["--data", str(same_dims), "--stage", "evaluate"]) == 2
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        # a run whose denoiser overflows: only the typed line may reach stderr
        data = tmp_path / "s2.mtms"
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("denoiser_epochs=1\npretrain_epochs=1\neo_iters=2\ndenoiser_lr=1e300\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cropyield.__file__).parents[1])}
        cli = [sys.executable, "-m", "cropyield.cli"]
        subprocess.run(cli + ["synth", "--source", "S2", "--plots", "20", "--seed", "3",
                              "--out", str(data)], env=env, check=True, capture_output=True)
        run = subprocess.run(cli + ["pipeline", "--data", str(data), "--out", str(tmp_path / "r"),
                                    "--config", str(cfg), "--seed", "3"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 4
        assert run.stderr.startswith("numerical failure: denoiser training diverged")
        assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n"), run.stderr

    def test_zero_norm_holdout_embedding_exits_3_without_stats(self, tiny_dataset, fast_config,
                                                              tmp_path, capsys, monkeypatch):
        # held-out features of all zeros embed to the zero vector, whose
        # cosine similarity is undefined: the run stops before writing NaN
        from cropyield import contrastive as ct
        encode = ct.encode_chunks
        monkeypatch.setattr(ct, "encode_chunks", lambda *a, **kw: 0.0 * encode(*a, **kw))
        run_dir = tmp_path / "r"
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                     "--config", str(fast_config), "--seed", "5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "zero-norm" in err
        assert not (run_dir / "pretrain_stats.kv").exists()

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS rounds some GEMMs differently with its thread count; a run
        # must not make such a call. The acceptance data (S2, 60 plots) on a
        # short schedule, once with one BLAS thread and once with two.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            pytest.skip("fewer than 2 usable CPUs: BLAS cannot run on 2 threads")
        data = tmp_path / "s2.mtms"
        cfg = tmp_path / "short.cfg"
        cfg.write_text("denoiser_epochs=1\npretrain_epochs=2\neo_iters=5\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cropyield.__file__).parents[1])}
        cli = [sys.executable, "-m", "cropyield.cli"]
        subprocess.run(cli + ["synth", "--source", "S2", "--plots", "60", "--seed", "1",
                              "--out", str(data)], env=env, check=True, capture_output=True)
        runs = {}
        for threads in ("1", "2"):
            run_dir = tmp_path / f"threads{threads}"
            subprocess.run(cli + ["pipeline", "--data", str(data), "--out", str(run_dir),
                                  "--config", str(cfg), "--seed", "1"],
                           env={**env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
                           check=True, capture_output=True)
            runs[threads] = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        assert runs["1"].keys() == runs["2"].keys()
        assert "pretrain.ckpt" in runs["1"] and "model.ckpt" in runs["1"]
        for name in runs["1"]:
            assert runs["1"][name] == runs["2"][name], name

    def test_config_snapshot_written_verbatim(self, tiny_dataset, fast_config, tmp_path):
        run_dir = tmp_path / "snap"
        assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                     "--config", str(fast_config), "--seed", "5", "--stage", "pretrain"]) == 0
        snap = load_config(run_dir / "config.txt")
        assert snap.seed == 5
        assert snap.n_plots == 12


class TestReportCommand:
    def test_merges_runs_with_baseline(self, tiny_dataset, fast_config, tmp_path, capsys):
        runs = []
        for seed in (5, 6):
            run_dir = tmp_path / f"run{seed}"
            assert main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                         "--config", str(fast_config), "--seed", str(seed)]) == 0
            runs.append(str(run_dir))
        capsys.readouterr()  # drop pipeline chatter
        code = main(["report", *runs, "--out", str(tmp_path / "table.csv")])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "model,mape,rmsle,smape"
        assert len(lines) == 4  # two runs + one baseline row
        assert any("mean-baseline" in l for l in lines)
        mapes = [float(l.split(",")[1]) for l in lines[1:]]
        assert mapes == sorted(mapes)

    def test_out_is_a_directory_exits_3(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.kv").write_text("mape=0.1\nrmsle=0.2\nsmape=0.3\n")
        assert main(["report", str(run), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_empty_input_exits_2(self):
        assert main(["report"]) == 2

    def test_malformed_run_skipped_with_warning(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "report.kv").write_text("not a kv line\n")
        code = main(["report", str(bad)])
        assert code == 3
        assert "skipped" in capsys.readouterr().err
