"""Experiment drivers and the command line interface."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import whisksim
from whisksim import (
    ConfigError,
    MlpArchitecture,
    TrainConfig,
    TrainingDivergedError,
    init,
    train,
)
from whisksim.cli import main
from whisksim.config import ExperimentConfig, config_from_dict, load_config
from whisksim.experiment import (
    _noiseless_dominant_bins,
    _ordered_map,
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
        from whisksim import PhysicsError
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


def _blas_env_after_import(**preset) -> dict:
    """BLAS thread variables seen by a fresh interpreter after `import whisksim`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    src = os.path.dirname(os.path.dirname(whisksim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
    ], ids=["missing-file", "invalid-json", "missing-components"])
    def test_bad_profile_file_is_config_error(self, tmp_path, capsys, content):
        profiles = tmp_path / "profiles.json"
        if content is not None:
            profiles.write_text(content)
        cfg = self._write_cfg(tmp_path, profiles=str(profiles))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 2
        assert "profile file" in capsys.readouterr().err

    def test_empty_sweep_grid_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {
            "f_b_hz": [], "h_b_mm": [0.1],
            "sample_rate_hz": 1000.0, "duration_s": 1.0}}))
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "sweep"])
        assert code == 2
