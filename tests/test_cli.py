import hashlib
import inspect
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import cropyield

from cropyield import attention as at
from cropyield import contrastive as ct
from cropyield import convlstm as cl
from cropyield import diffusion as df
from cropyield import eo
from cropyield import evalmetrics as em
from cropyield import predictor as pr
from cropyield import synthdata as sd
from cropyield.cli import main
from cropyield.config import RunConfig, config_text, load_config, parse_overrides
from cropyield.errors import ConfigError, DomainError
from cropyield.fileio import load_checkpoint
from cropyield.pipeline import (ATTENTION_SWEEP, OPTIMIZER_SWEEP, _data_text, run_ablation_sweep,
                                run_pipeline)

FAST = [
    "n_plots=12", "t_steps=4", "height=8", "width=8",
    "pretrain_epochs=1", "denoiser_epochs=1", "eo_iters=5",
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

    def test_field_names(self):
        assert [f.name for f in fields(RunConfig)] == [
            "seed", "source", "n_plots", "t_steps", "height", "width", "preprocess",
            "diff_steps", "beta_end", "denoiser_epochs", "hidden_channels", "shuffle_groups",
            "attention_mode", "conv_mode", "pretrain_epochs", "pretrain_lr", "batch_size",
            "feature_selector", "eo_iters"]
        assert len(config_text(RunConfig()).splitlines()) == 19

    # RunConfig holds the one default of a run setting: the library entry
    # points take these parameters with none of their own
    @pytest.mark.parametrize("fn,names", [
        (df.linear_schedule, ("steps", "beta_end")),
        (df.train_denoiser, ("epochs",)),
        (ct.pretrain_encoder, ("epochs", "lr", "batch_size", "hidden_channels", "shuffle_groups",
                               "attention_mode", "conv_mode")),
        (at.init_ssa_params, ("groups",)),
        (at.SsaParams, ("attention_mode", "conv_mode")),
        (eo.run_eo, ("max_iter", "seed")),
        (em.evaluate, ("baseline_constant",)),
    ], ids=lambda x: getattr(x, "__qualname__", "names"))
    def test_run_settings_have_no_library_default(self, fn, names):
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, name

    def test_paper_composition_is_written_once(self):
        params = inspect.signature(at.init_ssa_params).parameters
        cfg = RunConfig()
        assert params["attention_mode"].default == cfg.attention_mode == at.ATTENTION_MODES[0]
        assert params["conv_mode"].default == cfg.conv_mode == at.CONV_MODES[0]

    # finetune_lr and train_lr went with the encoder fine-tune; percent is a
    # view of the report (`report --percent`), not part of a run; the method's
    # fixed hyperparameters are module constants and function defaults
    @pytest.mark.parametrize("key", [
        "no_such_knob", "finetune_lr", "train_lr", "percent",
        "yield_noise", "beta_start", "lambda_consistency", "augment_depth", "sigma_scale",
        "denoiser_hidden", "denoiser_lr", "kernel_size", "se_reduction", "experts", "history",
        "temperature", "embed_dim", "eo_particles", "eo_alpha", "eo_lambda", "ridge_penalty",
        "sparsity_weight"])
    def test_unknown_key_rejected(self, key, tmp_path):
        with pytest.raises(ConfigError):
            parse_overrides(f"{key}=1")
        with pytest.raises(ConfigError):
            load_config(None, {key: 1})
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
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_overrides("seed 3")
        for key, value in (("batch_size", 1), ("denoiser_epochs", -1), ("pretrain_epochs", -1),
                           ("t_steps", 1), ("height", 7), ("width", 7), ("eo_iters", 0),
                           ("beta_end", -0.1), ("beta_end", 0.96), ("beta_end", float("nan")),
                           ("diff_steps", 0), ("hidden_channels", 0), ("shuffle_groups", 0),
                           ("pretrain_lr", float("inf")), ("pretrain_lr", -0.01),
                           ("source", "S3"), ("preprocess", "sharpen")):
            with pytest.raises(ConfigError):
                load_config(None, {key: value})
        # the benchmark's shortened schedules stay valid
        load_config(None, {"pretrain_epochs": 0, "denoiser_epochs": 0, "batch_size": 2,
                           "eo_iters": 2})

    # 9 channels: shuffle_groups=3 divides them, the SE reduction 2 does not
    @pytest.mark.parametrize("hidden,groups", [(9, 3), (8, 3)],
                             ids=["se_reduction", "shuffle_groups"])
    def test_non_divisor_of_hidden_channels_exits_2(self, hidden, groups, tmp_path, capsys):
        cfg = tmp_path / "divisor.cfg"
        cfg.write_text(f"hidden_channels={hidden}\nshuffle_groups={groups}\n")
        assert main(["pipeline", "--data", str(tmp_path / "none.mtms"),
                     "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 2
        assert "must divide hidden_channels" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    def test_two_time_steps_is_the_synth_floor(self, tmp_path):
        argv = ["synth", "--source", "S1", "--plots", "10", "--height", "8", "--width", "8"]
        out = tmp_path / "ds.mtms"
        assert main(argv + ["--t-steps", "2", "--out", str(out)]) == 0
        assert sd.load_dataset(out).dims[0] == 2
        short = tmp_path / "short.mtms"
        assert main(argv + ["--t-steps", "1", "--out", str(short)]) == 2
        assert not short.exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--plots", "12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--attention-mode", "none"], ["--conv-mode", "dilated"],
                                      ["--feature-selector", "none"], ["--percent"]])
    def test_pipeline_only_flags_exit_2(self, flag, tmp_path):
        # synth reads none of them, so it takes none of them
        out = tmp_path / "ds.mtms"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--source", "S1", "--plots", "10", *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

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
        ssa = at.init_ssa_params(cfg.hidden_channels, rng, groups=cfg.shuffle_groups)
        encoder = {**cl.init_convlstm_params(12, cfg.hidden_channels, 8, 8, 3, rng).named(),
                   **ssa.named()}
        sched = df.linear_schedule(steps=cfg.diff_steps, beta_end=cfg.beta_end)
        den = df.init_denoiser(12, df.DENOISER_HIDDEN, sched, rng).named()
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

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_cube_value_exits_3_before_any_write(self, tiny_dataset, fast_config,
                                                           tmp_path, capsys, value):
        ds = sd.load_dataset(tiny_dataset)
        ds.samples[3].x[1, 2, 2, 0] = value
        data = tmp_path / "bad.mtms"
        sd.save_dataset(ds, data)
        with pytest.raises(DomainError, match="plot 3: x holds a non-finite value"):
            sd.load_dataset(data)
        run_dir = tmp_path / "r"
        assert main(["pipeline", "--data", str(data), "--out", str(run_dir),
                     "--config", str(fast_config), "--seed", "5", "--stage", "select"]) == 3
        assert capsys.readouterr().err.startswith("data error: plot 3: x holds a non-finite")
        assert not run_dir.exists()

    def test_dataset_shorter_than_history_exits_2(self, fast_config, tmp_path):
        data = tmp_path / "short.mtms"
        assert main(["synth", "--source", "S1", "--plots", "10", "--t-steps", "2",
                     "--height", "8", "--width", "8", "--out", str(data)]) == 0
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

    def test_percent_is_not_a_pipeline_flag(self, tiny_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--data", str(tiny_dataset), "--out", str(tmp_path / "r"),
                  "--percent"])
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    def test_unknown_stage_raises_before_any_write(self, tiny_dataset, tmp_path):
        with pytest.raises(DomainError, match="unknown stage 'bogus'"):
            run_pipeline(RunConfig(), tiny_dataset, tmp_path / "r", stage="bogus")
        assert not (tmp_path / "r").exists()

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
        cfg.write_text(fast_config.read_text() + "beta_end=0.96\n")
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

    def test_denoiser_line_holds_one_loss_per_configured_epoch(self, selected_run,
                                                                fast_config):
        _, run_dir = selected_run
        last = (run_dir / "pretrain_loss.txt").read_text().splitlines()[-1]
        head, _, losses = last.partition(": ")
        assert head == "# denoiser per-epoch loss"
        assert len(losses.split()) == load_config(fast_config).denoiser_epochs

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
        changed.write_text(fast_config.read_text() + "eo_iters=7\n")
        assert main(base + ["--config", str(changed), "--stage", "train"]) == 2
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # the same config resumes, and the stage reproduces its artifacts
        assert main(base + ["--config", str(fast_config), "--stage", "train"]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        # a full run is not a resume: it writes the new snapshot
        assert main(base + ["--config", str(changed)]) == 0
        assert load_config(run_dir / "config.txt").eo_iters == 7

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

    def test_overflowing_pretrain_lr_exits_4(self, tiny_dataset, fast_config, tmp_path,
                                             capsys):
        # one update per epoch: every loss is taken before the parameters
        # overflow, and only the held-out statistics come out NaN
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(fast_config.read_text() + "pretrain_lr=1e300\n")
        run_dir = tmp_path / "r"
        with np.errstate(all="ignore"):
            code = main(["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir),
                         "--config", str(cfg), "--stage", "pretrain"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: pretrain stage: non-finite values")
        assert "statistic holdout_pos_sim" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.txt", "data.txt"]

    def test_failed_full_run_leaves_no_earlier_artifacts(self, tiny_dataset, fast_config,
                                                         tmp_path, capsys):
        # a full run under another config into a finished run's directory
        # fails in pretrain: no stage may then resume from the first run's files
        run_dir = tmp_path / "r"
        base = ["pipeline", "--data", str(tiny_dataset), "--out", str(run_dir), "--seed", "5"]
        assert main(base + ["--config", str(fast_config)]) == 0
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(fast_config.read_text() + "pretrain_lr=1e200\n")
        with np.errstate(all="ignore"):
            assert main(base + ["--config", str(cfg)]) == 4
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.txt", "data.txt"]
        capsys.readouterr()
        assert main(base + ["--config", str(cfg), "--stage", "evaluate"]) == 3
        assert "stage prerequisite missing" in capsys.readouterr().err

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
        # a run whose pre-training overflows: only the typed line may reach stderr
        data = tmp_path / "s2.mtms"
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("denoiser_epochs=1\npretrain_epochs=1\neo_iters=2\nbatch_size=16\n"
                       "pretrain_lr=1e300\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cropyield.__file__).parents[1])}
        cli = [sys.executable, "-m", "cropyield.cli"]
        subprocess.run(cli + ["synth", "--source", "S2", "--plots", "20", "--seed", "3",
                              "--out", str(data)], env=env, check=True, capture_output=True)
        run = subprocess.run(cli + ["pipeline", "--data", str(data), "--out", str(tmp_path / "r"),
                                    "--config", str(cfg), "--seed", "3"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 4
        assert run.stderr.startswith("numerical failure: pretrain stage: non-finite values")
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

    def test_percent_scales_every_metric_and_the_baseline(self, tmp_path, capsys):
        runs = []
        for name, mape in (("a", 0.25), ("b", 0.125)):
            run = tmp_path / name
            run.mkdir()
            (run / "report.kv").write_text(
                f"mape={mape}\nrmsle=0.5\nsmape=0.375\n"
                "baseline_mape=0.75\nbaseline_rmsle=0.625\nbaseline_smape=0.875\n")
            runs.append(str(run))
        tables = {}
        for flags in ((), ("--percent",)):
            assert main(["report", *runs, *flags]) == 0
            tables[flags] = capsys.readouterr().out.splitlines()
        assert tables[("--percent",)] == ["model,mape,rmsle,smape", "b,12.5,50,37.5",
                                          "a,25,50,37.5", "mean-baseline,75,62.5,87.5"]
        assert tables[()][1:] == ["b,0.125,0.5,0.375", "a,0.25,0.5,0.375",
                                  "mean-baseline,0.75,0.625,0.875"]

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


def _script(name):
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree_digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


class TestAblationSweep:
    @pytest.fixture
    def seed7_root(self, tmp_path):
        """A sweep root whose every variant holds a finished seed-7 --fast
        run: the dataset the script synthesizes and each variant's config
        and data snapshots, with a report whose MAPE is 0.123456789."""
        script = _script("ablation_sweep")
        cfg = load_config(None, {**script.FAST_OVERRIDES, "seed": 7})
        data = tmp_path / "dataset.mtms"
        assert main(["synth", "--source", cfg.source, "--plots", str(cfg.n_plots),
                     "--t-steps", str(cfg.t_steps), "--height", str(cfg.height),
                     "--width", str(cfg.width), "--seed", "7", "--out", str(data)]) == 0
        bound = _data_text(data, sd.load_dataset(data))
        for axis, sweep in (("attention", ATTENTION_SWEEP), ("optimizer", OPTIMIZER_SWEEP)):
            for name, overrides in sweep:
                run = tmp_path / axis / name
                run.mkdir(parents=True)
                (run / "config.txt").write_text(config_text(replace(cfg, **overrides)))
                (run / "data.txt").write_text(bound)
                (run / "report.kv").write_text(
                    "mape=0.123456789\nrmsle=0.5\nsmape=0.25\n"
                    "baseline_mape=0.75\nbaseline_rmsle=0.625\nbaseline_smape=0.875\n")
        return script, tmp_path

    def test_same_sweep_reuses_its_runs(self, seed7_root, capsys):
        script, root = seed7_root
        assert script.main(["--fast", "--seed", "7", "--out-root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "== attention sweep ==" in out
        assert out.count("0.123456789") == len(ATTENTION_SWEEP) + len(OPTIMIZER_SWEEP)

    def test_other_seed_into_the_root_exits_2(self, seed7_root, capsys):
        script, root = seed7_root
        before = _tree_digests(root)
        assert script.main(["--fast", "--seed", "8", "--out-root", str(root)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "differs in seed;" in captured.err
        assert "0.123456789" not in captured.out and "sweep ==" not in captured.out
        assert not (root / "ablation_attention.txt").exists()
        # the refused sweep wrote nothing: the seed-7 dataset keeps its bytes
        after = _tree_digests(root)
        assert after["dataset.mtms"] == before["dataset.mtms"]
        assert after == before


    def test_each_distinct_config_runs_once(self, tiny_dataset, monkeypatch, tmp_path):
        """The optimizer axis's equilibrium variant has the config of the
        attention axis's default composition: on a fresh root it gets a copy
        of that run, and 9 of the 10 variants run."""
        runs = []

        def counting_run(cfg, data_path, run_dir):
            runs.append(run_dir)
            run_dir.mkdir(parents=True)
            (run_dir / "config.txt").write_text(config_text(cfg))
            (run_dir / "data.txt").write_text(_data_text(data_path, sd.load_dataset(data_path)))
            (run_dir / "report.kv").write_text(f"mape=0.{len(runs)}\nrmsle=0.5\nsmape=0.25\n")
            return run_dir

        monkeypatch.setattr("cropyield.pipeline.run_pipeline", counting_run)
        run_ablation_sweep(RunConfig(), tiny_dataset, tmp_path)
        assert len(runs) == len(set(runs)) == 9
        copy = tmp_path / "optimizer" / "equilibrium"
        assert copy not in runs
        assert (_tree_digests(copy)
                == _tree_digests(tmp_path / "attention" / "senet_shuffle_conv_condconv"))


class TestBenchPairs:
    def test_each_side_runs_from_its_own_clone(self, monkeypatch, tmp_path):
        """--pairs clones the parent three times and this checkout once, and
        every run of a side is made in that side's own clone."""
        bench = _script("bench")
        cloned, ran = {}, {}

        def fake_clone(root, dest):
            cloned[dest] = root
            return {"commit": f"{root.name}-commit", "dirty": False}

        def fake_perfbench(root, env, workload, trace, seed=1):
            ran.setdefault(root, []).append((workload, trace, seed, env["PYTHONPATH"]))
            return {"result": {"metrics": {"task_s": {"value": 1.0 + len(ran[root])}}}}

        monkeypatch.setattr(bench, "_clone", fake_clone)
        monkeypatch.setattr(bench, "perfbench", fake_perfbench)
        parent = tmp_path / "parent"
        out = bench.pairs(parent, ["ingest-s2", "predict-l8-32"], [1])
        sides = ("parent", "change", "aa_parent", "control")
        assert len(cloned) == len(ran) == 4 and cloned.keys() == ran.keys()
        assert sorted(dest.name for dest in cloned) == sorted(sides)
        assert sorted(root == parent for root in cloned.values()) == [False, True, True, True]
        for root, runs in ran.items():
            assert len(runs) == 2 * bench.PAIRS
            assert {env for *_, env in runs} == {str(root / "src")}
            assert not any(trace for _, trace, *_ in runs)
        summary = out["ingest-s2/seed1"]
        assert set(summary["sources"]) == set(summary["results"]) == set(sides)
        assert all(len(rows) == bench.PAIRS for rows in summary["results"].values())
