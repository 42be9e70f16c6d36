"""Experiment drivers and the command line interface."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import whisksim
from whisksim import experiment, terrain
from whisksim.cli import main
from whisksim.config import ExperimentConfig, config_from_dict, load_config
from whisksim.errors import ConfigError, PhysicsError, TrainingDivergedError
from whisksim.experiment import (
    _noiseless_dominant_bins,
    _ordered_map,
    _synth_terrain,
    _train_eval_once,
    build_labeled_dataset,
    child_seed,
    resolve_profiles,
    run_grad_check,
    run_speed_sweep,
    run_sweep,
    run_synth,
    run_train_eval,
)
from whisksim.mlp import MlpArchitecture, TrainConfig, init, train
from whisksim.pipeline import split
from whisksim.terrain import TerrainClass


def _tiny_config(**overrides):
    """Small but complete experiment: seconds instead of minutes."""
    base = {
        "duration_s": 10.0,
        "repetitions": 2,
        "train": {"learning_rate": 0.001, "epochs": 3, "batch_size": 8},
        "sweep": {"f_b_hz": [50.0, 100.0], "h_b_mm": [0.1, 0.2],
                  "sample_rate_hz": 1000.0, "duration_s": 1.0},
        "master_seed": 99,
    }
    base.update(overrides)
    return config_from_dict(base)


def _flat_profile(noise_floor_m=0.0, **component):
    """A one-terrain profile table whose component overrides lambda, h or jitter."""
    return json.dumps([{"terrain": "flat", "noise_floor_m": noise_floor_m,
                        "components": [{"lambda_m": 0.04, "h_m": 2e-5, **component}]}])


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "synth", 3) == child_seed(7, "synth", 3)

    def test_distinct_purposes(self):
        seeds = {child_seed(7, p) for p in ("a", "b", "c", "synth", "split")}
        assert len(seeds) == 5

    def test_64_bit_range(self):
        s = child_seed(123456789, "x")
        assert 0 <= s < 2 ** 64


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.speed_m_s == 0.2
        assert cfg.sample_rate_hz == 200.0
        assert cfg.window_s == 1.0
        assert cfg.train_fraction == 0.75
        assert cfg.duration_s == 300.0
        assert cfg.repetitions == 20
        assert cfg.speeds_m_s == (0.1, 0.15, 0.2, 0.25, 0.3)

    def test_dict_roundtrip(self):
        cfg = _tiny_config()
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = _tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"not_a_key": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"nope": 2}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train_fraction": 1.5})
        with pytest.raises(ConfigError):
            config_from_dict({"speed_m_s": -0.2})
        with pytest.raises(ConfigError):
            config_from_dict({"spring": {"coil_count": 0}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


class TestRunSweep:
    def test_csv_and_summary(self, tmp_path):
        cfg = _tiny_config()
        report = run_sweep(cfg, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header + 2x2 grid
        assert report["cells_total"] == 4
        assert report["cells_f_dom_within_one_bin"] == 4
        assert report["f_dom_matches_f_b"] is True
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["config"] == cfg.to_dict()

    def test_default_grid_is_35_cells(self, tmp_path):
        cfg = _tiny_config(sweep={})
        report = run_sweep(cfg, tmp_path)
        assert report["cells_total"] == 35
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 36


class TestRunSynth:
    def test_files_manifest_and_rerun_hashes(self, tmp_path):
        cfg = _tiny_config()
        report = run_synth(cfg, tmp_path / "a")
        assert len(report["terrains"]) == 7
        for entry in report["terrains"]:
            assert entry["windows"] == 10
            assert os.path.exists(tmp_path / "a" / entry["file"])
        again = run_synth(cfg, tmp_path / "b")
        assert ([e["sha256"] for e in report["terrains"]]
                == [e["sha256"] for e in again["terrains"]])

    def test_one_second_duration_gives_seven_vectors(self, tmp_path):
        cfg = _tiny_config(duration_s=1.0)
        report = run_synth(cfg, tmp_path)
        assert report["total_windows"] == 7

    def test_different_seed_changes_hashes(self, tmp_path):
        a = run_synth(_tiny_config(master_seed=1), tmp_path / "a")
        b = run_synth(_tiny_config(master_seed=2), tmp_path / "b")
        assert ([e["sha256"] for e in a["terrains"]]
                != [e["sha256"] for e in b["terrains"]])


class TestRunTrainEval:
    def test_report_shape(self, tmp_path):
        cfg = _tiny_config()
        report = run_train_eval(cfg, tmp_path)
        assert len(report["repetitions"]) == 2
        assert report["dataset_vectors"] == 70
        for rep in report["repetitions"]:
            counts = np.array(rep["confusion"])
            assert counts.shape == (7, 7)
            assert counts.sum() == rep["test_size"]
            assert len(rep["per_class_accuracy"]) == 7
        assert 0.0 <= report["mean_overall_accuracy"] <= 1.0
        assert os.path.exists(tmp_path / "train_eval_report.json")

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        cfg = _tiny_config()
        run_train_eval(cfg, tmp_path / "a")
        run_train_eval(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "train_eval_report.json").read_bytes()
        b = (tmp_path / "b" / "train_eval_report.json").read_bytes()
        assert a == b

    def test_rerun_from_embedded_config_reproduces_report(self, tmp_path):
        cfg = _tiny_config()
        report = run_train_eval(cfg, tmp_path / "a")
        embedded = config_from_dict(report["config"])
        again = run_train_eval(embedded, tmp_path / "b")
        assert (tmp_path / "a" / "train_eval_report.json").read_bytes() == \
            (tmp_path / "b" / "train_eval_report.json").read_bytes()
        assert again["mean_overall_accuracy"] == report["mean_overall_accuracy"]


class TestRunSpeedSweep:
    def test_report_shape_and_order(self, tmp_path):
        cfg = _tiny_config(speeds_m_s=[0.25, 0.15], duration_s=8.0)
        report = run_speed_sweep(cfg, tmp_path)
        assert report["speeds_m_s"] == [0.15, 0.25]
        for entry in report["per_speed"]:
            assert len(entry["per_class_accuracy"]) == 7
            assert all(0.0 <= a <= 1.0 for a in entry["per_class_accuracy"])
            assert set(entry["dominant_bin_hz"]) == {t.label for t in TerrainClass}

    def test_dominant_bins_scale_with_speed(self, tmp_path):
        cfg = _tiny_config(speeds_m_s=[0.1, 0.2], duration_s=8.0)
        report = run_speed_sweep(cfg, tmp_path)
        from whisksim.experiment import resolve_profiles
        profiles = resolve_profiles(cfg)
        bin_width = 1.0 / cfg.window_s
        for entry in report["per_speed"]:
            v = entry["speed_m_s"]
            for tc in TerrainClass:
                predicted = profiles[tc].dominant_frequency_at(v)
                assert abs(entry["dominant_bin_hz"][tc.label] - predicted) \
                    <= bin_width

    def test_needs_two_speeds(self, tmp_path):
        cfg = _tiny_config(speeds_m_s=[0.2])
        with pytest.raises(PhysicsError):
            run_speed_sweep(cfg, tmp_path)


def _fail_in_the_wrong_order(item):
    if item == 1:
        time.sleep(0.5)
        raise ValueError("item 1")
    if item == 3:
        raise ValueError("item 3")
    return item * item


class TestWorkerPool:
    def test_results_keep_input_order(self):
        assert _ordered_map(lambda i: i * i, list(range(7))) == \
            [i * i for i in range(7)]

    def test_first_failure_in_input_order_is_raised(self):
        # item 3 fails at once, item 1 only after it; a loop raises item 1's
        with pytest.raises(ValueError, match="item 1"):
            _ordered_map(_fail_in_the_wrong_order, [0, 1, 2, 3])

    def test_train_eval_equals_serial_loop(self):
        cfg = _tiny_config()
        report = run_train_eval(cfg)
        dataset = build_labeled_dataset(cfg, cfg.speed_m_s,
                                        resolve_profiles(cfg), ("synth",))
        serial = [_train_eval_once(cfg, dataset, ("train-eval", r))
                  for r in range(cfg.repetitions)]
        assert report["repetitions"] == serial

    def test_speed_sweep_equals_serial_loop(self):
        cfg = _tiny_config(speeds_m_s=[0.25, 0.15], duration_s=8.0)
        report = run_speed_sweep(cfg)
        profiles = resolve_profiles(cfg)
        for entry, speed in zip(report["per_speed"], [0.15, 0.25]):
            scope = ("speed-sweep", repr(speed))
            dataset = build_labeled_dataset(cfg, speed, profiles, scope)
            serial = _train_eval_once(cfg, dataset, scope)
            assert entry == {
                "speed_m_s": speed,
                "overall_accuracy": serial["overall_accuracy"],
                "per_class_accuracy": serial["per_class_accuracy"],
                "dominant_bin_hz": _noiseless_dominant_bins(cfg, speed, profiles),
                "seeds": serial["seeds"],
            }

    def test_synth_equals_serial_loop(self, tmp_path):
        cfg = _tiny_config()
        report = run_synth(cfg, tmp_path / "pool")
        profiles = resolve_profiles(cfg)
        (tmp_path / "serial").mkdir()
        serial = [_synth_terrain(cfg, profiles, tmp_path / "serial", tc)
                  for tc in sorted(profiles, key=int)]
        assert report["terrains"] == serial
        assert report["total_windows"] == sum(e["windows"] for e in serial)
        for entry in serial:
            assert (tmp_path / "pool" / entry["file"]).read_bytes() == \
                (tmp_path / "serial" / entry["file"]).read_bytes()

    def test_synth_raises_the_lowest_terrains_error(self, tmp_path, capsys,
                                                    monkeypatch):
        # flat (id 1) has zero heights and no noise floor, so every window is
        # degenerate; brick (id 3) fails at once, flat only after it
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 0.0}]},
            {"terrain": "brick", "components": [{"lambda_m": 0.01, "h_m": 8e-5}]},
        ]))
        synthesize_run = terrain.synthesize_run

        def brick_fails_first(tc, *args, **kwargs):
            if tc is TerrainClass.BRICK:
                raise PhysicsError("brick failed")
            time.sleep(0.5)
            return synthesize_run(tc, *args, **kwargs)

        monkeypatch.setattr(terrain, "synthesize_run", brick_fails_first)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_tiny_config(profiles=str(profiles)).to_dict()))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "synth"]) == 3
        err = capsys.readouterr().err
        assert "all windows were degenerate" in err
        assert "brick" not in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_reports_the_serial_loops_error(self, tmp_path, capsys):
        overrides = {"train": {"learning_rate": 1e6, "epochs": 3},
                     "repetitions": 2, "duration_s": 10}
        cfg = config_from_dict(overrides)
        dataset = build_labeled_dataset(cfg, cfg.speed_m_s,
                                        resolve_profiles(cfg), ("synth",))
        with pytest.raises(TrainingDivergedError) as serial:
            for r in range(cfg.repetitions):
                _train_eval_once(cfg, dataset, ("train-eval", r))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overrides))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 4
        assert f"training diverged: {serial.value}\n" in capsys.readouterr().err


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(drop=(), **preset) -> dict:
    """This environment for a fresh interpreter that imports the whisksim
    under test, less the variables in `drop`, plus `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(preset)
    src = os.path.dirname(os.path.dirname(whisksim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _blas_env_after_import(**preset) -> dict:
    """BLAS thread variables seen by a fresh interpreter after `import whisksim`."""
    env = _child_env(BLAS_THREAD_VARS, **preset)
    code = ("import json, os, whisksim; "
            f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREAD_VARS!r}}}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


class TestBlasThreads:
    def test_import_pins_one_thread(self):
        assert _blas_env_after_import() == dict.fromkeys(BLAS_THREAD_VARS, "1")

    def test_user_setting_wins(self):
        env = _blas_env_after_import(OPENBLAS_NUM_THREADS="3")
        assert env == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}


class TestClosedStdout:
    """A reader that closes stdout early (`whisksim train-eval | head -1`)
    changes neither the exit code nor stderr."""

    def test_exit_code_and_stderr_match_an_open_stdout(self, tmp_path):
        cfg = tmp_path / "smoke.json"
        cfg.write_text(json.dumps({"repetitions": 1, "duration_s": 5,
                                   "train": {"epochs": 1, "batch_size": 8}}))
        argv = [sys.executable, "-m", "whisksim.cli", "--config", str(cfg),
                "--out", str(tmp_path / "out"), "train-eval"]
        opened = subprocess.run(argv, env=_child_env(), capture_output=True,
                                timeout=120)
        assert opened.returncode == 0 and b"mean overall accuracy" in opened.stdout
        # with and without stdout buffering: the closed pipe must show
        # neither at a print nor at the flush when the interpreter exits
        for env in (_child_env(PYTHONUNBUFFERED="1"),
                    _child_env(["PYTHONUNBUFFERED"])):
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == opened.returncode
            assert err == opened.stderr


class TestRunGradCheck:
    def test_passes_on_default_architecture(self):
        report = run_grad_check(_tiny_config())
        assert report["passed"] is True
        assert report["max_relative_error"] < 1e-5


class TestDefaultTraining:
    def test_default_config_drives_loss_down(self, default_dataset):
        # frozen empirical bound: the default recipe cuts the loss far below
        # one fifth of its starting value on the default synthetic data
        train_set, _ = split(default_dataset, 0.75, 123)
        model = init(MlpArchitecture(), 456)
        _, history = train(model, train_set, TrainConfig(seed=789))
        assert history[-1] < 0.2 * history[0]


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        cfg = _tiny_config(**overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return path

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "sweep"])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert "4 cells" in capsys.readouterr().out

    def test_synth_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "synth"])
        assert code == 0
        assert (tmp_path / "out" / "synth_manifest.json").exists()
        out = capsys.readouterr().out
        assert "flat" in out and "soft-soil" in out

    def test_train_eval_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"])
        assert code == 0
        assert (tmp_path / "out" / "train_eval_report.json").exists()
        assert "mean overall accuracy" in capsys.readouterr().out

    def test_speed_sweep_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, speeds_m_s=[0.15, 0.25], duration_s=8.0)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "speed-sweep"])
        assert code == 0
        assert (tmp_path / "out" / "speed_sweep_report.json").exists()
        assert "overall" in capsys.readouterr().out

    def test_grad_check_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["--config", str(cfg), "grad-check"])
        assert code == 0
        assert "gradient error" in capsys.readouterr().out

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        main(["--config", str(cfg), "--seed", "1", "--out",
              str(tmp_path / "a"), "synth"])
        main(["--config", str(cfg), "--seed", "2", "--out",
              str(tmp_path / "b"), "synth"])
        a = json.loads((tmp_path / "a" / "synth_manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "synth_manifest.json").read_text())
        assert a["terrains"][0]["sha256"] != b["terrains"][0]["sha256"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"train_fraction\": 2.0}")
        assert main(["--config", str(bad), "sweep"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "sweep"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"duration_s": 10.0, "out_dir": "\xff"}')
        assert main(["--config", str(path), "sweep"]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_physics_error_exit_code(self, tmp_path, capsys):
        # sweep grid above the Nyquist limit of its own sample rate
        cfg = self._write_cfg(tmp_path, sweep={
            "f_b_hz": [600.0], "h_b_mm": [0.1],
            "sample_rate_hz": 1000.0, "duration_s": 1.0})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "sweep"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, train={"learning_rate": 1e18, "epochs": 3, "batch_size": 8})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 4
        assert "diverged" in capsys.readouterr().err

    def test_window_rate_mismatch_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sample_rate_hz": 250}))
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "synth"]) == 2
        assert "window_s * sample_rate_hz" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [
        None,
        "[{\"terrain\": \"flat\",",
        "[{\"terrain\": \"flat\", \"noise_floor_m\": 0.0}]",
        _flat_profile(lambda_m=float("nan")),
        _flat_profile(lambda_m=float("inf")),
        _flat_profile(h_m=float("inf")),
        _flat_profile(h_m=float("nan")),
        _flat_profile(h_m=True),
        _flat_profile(jitter_rad=float("nan")),
        _flat_profile(jitter_rad=3.2),
        _flat_profile(jitter_rad=9e307),
        _flat_profile(noise_floor_m=float("nan")),
        _flat_profile(noise_floor_m=float("-inf")),
        json.dumps([{"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 2e-5}]},
                    {"terrain": "flat", "components": [{"lambda_m": 0.02, "h_m": 1e-5}]}]),
    ], ids=["missing-file", "invalid-json", "missing-components", "nan-lambda",
            "infinite-lambda", "infinite-h", "nan-h", "bool-h", "nan-jitter",
            "jitter-above-pi", "huge-jitter", "nan-noise", "infinite-noise",
            "duplicate-terrain"])
    def test_bad_profile_file_is_config_error(self, tmp_path, capsys, monkeypatch,
                                              content):
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesis started")

        monkeypatch.setattr(terrain, "synthesize_run", no_synthesis)
        profiles = tmp_path / "profiles.json"
        if content is not None:
            profiles.write_text(content)
        cfg = self._write_cfg(tmp_path, profiles=str(profiles))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 2
        assert "profile file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, command", [
        ({"master_seed": 1.5}, "synth"),
        ({"master_seed": True}, "synth"),
        ({"speeds_m_s": [0.1, 0.2, 0.1]}, "speed-sweep"),
    ], ids=["float-seed", "bool-seed", "duplicate-speeds"])
    def test_bad_seed_or_speeds_is_config_error(self, tmp_path, capsys,
                                                overrides, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(overrides))
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     command]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, command", [
        ('{"repetitions": 1.5}', "train-eval"),
        ('{"train": {"epochs": 2.5}}', "train-eval"),
        ('{"train": {"batch_size": true}}', "train-eval"),
        ('{"sample_rate_hz": Infinity}', "synth"),
        ('{"duration_s": NaN}', "synth"),
        ('{"speed_m_s": NaN}', "synth"),
        ('{"speeds_m_s": [0.1, -Infinity]}', "speed-sweep"),
        ('{"spring": {"wire_radius_m": Infinity}}', "sweep"),
        ('{"sweep": {"duration_s": NaN}}', "sweep"),
        ('{"window_s": 1e200, "sample_rate_hz": 1e200}', "synth"),
    ], ids=["float-repetitions", "float-epochs", "bool-batch-size",
            "infinite-rate", "nan-duration", "nan-speed", "infinite-speeds",
            "infinite-spring", "nan-sweep", "overflowing-window"])
    def test_bad_number_is_config_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, text, command):
        # JSON as Python reads it: NaN and Infinity are accepted literals
        def no_work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(terrain, "synthesize_run", no_work)
        monkeypatch.setattr(experiment, "modal_sweep", no_work)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     command]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train-eval"])
    def test_unusable_out_dir_is_config_error_before_synthesis(
            self, tmp_path, capsys, monkeypatch, command):
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesis started")

        monkeypatch.setattr(terrain, "synthesize_run", no_synthesis)
        cfg = self._write_cfg(tmp_path)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main(["--config", str(cfg), "--out", str(blocker / "sub"),
                     command]) == 2
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, speeds", [
        ("synth", {"speed_m_s": 0.3}),
        ("train-eval", {"speed_m_s": 0.3}),
        ("speed-sweep", {"speeds_m_s": [0.1, 0.3]}),
    ])
    def test_nyquist_violation_fails_before_synthesis(
            self, tmp_path, capsys, monkeypatch, command, speeds):
        # brick's 2.5 mm wavelength is 120 Hz at 0.3 m/s, above the 100 Hz
        # Nyquist limit of the 200 Hz runs; flat and the lower speed are fine
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 2e-5}]},
            {"terrain": "brick", "components": [{"lambda_m": 0.0025, "h_m": 8e-5}]},
        ]))

        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesis started")

        monkeypatch.setattr(terrain, "synthesize_run", no_synthesis)
        cfg = self._write_cfg(tmp_path, profiles=str(profiles), **speeds)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     command]) == 3
        assert "Nyquist" in capsys.readouterr().err

    @pytest.mark.parametrize("command, report_name", [
        ("train-eval", "train_eval_report.json"),
        ("speed-sweep", "speed_sweep_report.json"),
    ])
    def test_absent_terrains_report_null_accuracy(self, tmp_path, capsys,
                                                  command, report_name):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 2e-5}]},
            {"terrain": "brick", "components": [{"lambda_m": 0.01, "h_m": 8e-5}]},
        ]))
        cfg = self._write_cfg(tmp_path, profiles=str(profiles),
                              speeds_m_s=[0.15, 0.25], duration_s=8.0)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 0
        report = json.loads((out / report_name).read_text())
        rows = (report["repetitions"] + [
            {"per_class_accuracy": report["mean_per_class_accuracy"]}]
            if command == "train-eval" else report["per_speed"])
        present = {TerrainClass.FLAT, TerrainClass.BRICK}
        for row in rows:
            for tc, acc in zip(TerrainClass, row["per_class_accuracy"]):
                assert (acc is None) == (tc not in present)
        # the printed table shows "-" in exactly the absent terrains' cells
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        if command == "train-eval":
            cells = [[parts[1] for parts in lines if parts[0] == tc.label]
                     for tc in TerrainClass]
        else:
            table = [parts[2:] for parts in lines if len(parts) == 9][1:]
            cells = list(zip(*table))
        for tc, column in zip(TerrainClass, cells):
            assert column and all((c == "-") == (tc not in present) for c in column)

    def test_overflowing_noise_floor_is_physics_error(self, tmp_path, capsys):
        # 1e300 is finite, so the profile loads, but the squares of the noisy
        # samples overflow and the flat windows' standard deviation is inf
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "flat", "noise_floor_m": 1e300,
             "components": [{"lambda_m": 0.04, "h_m": 2e-5}]},
            {"terrain": "brick", "components": [{"lambda_m": 0.01, "h_m": 8e-5}]},
        ]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profiles": str(profiles), "duration_s": 5}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "synth"]) == 3
        assert "non-finite standard deviation" in capsys.readouterr().err

    def test_failed_synth_leaves_no_stale_manifest(self, tmp_path, capsys):
        # the second run rewrites terrain_brick.csv, then fails on soft-soil's
        # overflowing noise floor: the first run's manifest, whose brick hash
        # no longer matches, must not survive it
        out = tmp_path / "out"
        assert main(["--config", str(self._write_cfg(tmp_path)),
                     "--out", str(out), "synth"]) == 0
        old_brick = (out / "terrain_brick.csv").read_bytes()
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "brick", "components": [{"lambda_m": 0.01, "h_m": 9e-5}]},
            {"terrain": "soft-soil", "noise_floor_m": 1e300,
             "components": [{"lambda_m": 0.2 / 52.0, "h_m": 3e-5}]},
        ]))
        cfg = self._write_cfg(tmp_path, profiles=str(profiles))
        assert main(["--config", str(cfg), "--out", str(out), "synth"]) == 3
        assert "non-finite standard deviation" in capsys.readouterr().err
        assert (out / "terrain_brick.csv").read_bytes() != old_brick
        assert not (out / "synth_manifest.json").exists()

    def test_unremovable_manifest_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesis started")

        monkeypatch.setattr(terrain, "synthesize_run", no_synthesis)
        (tmp_path / "out" / "synth_manifest.json").mkdir(parents=True)
        assert main(["--config", str(self._write_cfg(tmp_path)),
                     "--out", str(tmp_path / "out"), "synth"]) == 2
        assert "cannot remove old manifest" in capsys.readouterr().err

    def test_empty_sweep_grid_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {
            "f_b_hz": [], "h_b_mm": [0.1],
            "sample_rate_hz": 1000.0, "duration_s": 1.0}}))
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "sweep"])
        assert code == 2
