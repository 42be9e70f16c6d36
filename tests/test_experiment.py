"""Experiment drivers and the command line interface."""

import json
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import oracles
from oracles import child_env, tiny_config
from whisksim import experiment, pipeline, terrain
from whisksim.beam import SweepSurface
from whisksim.cli import main
from whisksim.config import ExperimentConfig, config_from_dict, load_config
from whisksim.errors import ConfigError
from whisksim.experiment import (
    SYNTH_SCOPE,
    _noiseless_dominant_bins,
    build_labeled_dataset,
    child_seed,
    resolve_profiles,
    run_speed_sweep,
    run_sweep,
    run_synth,
    run_train_eval,
)
from whisksim.mlp import MlpArchitecture, TrainConfig, init, train
from whisksim.pipeline import split
from whisksim.terrain import TerrainClass


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
        cfg = tiny_config()
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"not_a_key": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"nope": 2}})
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"seed": 1}})

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
        cfg = tiny_config()
        report = run_sweep(cfg, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header + 2x2 grid
        assert report["cells_total"] == 4
        assert report["cells_f_dom_within_one_bin"] == 4
        assert report["f_dom_matches_f_b"] is True
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["config"] == json.loads(json.dumps(cfg.to_dict()))

    def test_counts_cells_within_one_bin_as_a_cell_loop_does(self, tmp_path,
                                                             monkeypatch):
        cfg = tiny_config(sweep={"f_b_hz": [50.0, 100.0], "h_b_mm": [0.1, 0.2, 0.3],
                                  "sample_rate_hz": 1000.0, "duration_s": 1.0})
        f_b = cfg.sweep.f_b_hz
        f_dom = np.array([[50.0, 51.0, 52.0], [98.5, 100.0, np.nan]])
        surface = SweepSurface(np.ones((2, 3)), f_dom)
        monkeypatch.setattr(experiment, "modal_sweep", lambda *args: surface)
        report = run_sweep(cfg, tmp_path)   # 1 s sweep: 1 Hz bins
        within = sum(abs(f_dom[i, j] - f_b[i]) <= 1.0
                     for i in range(2) for j in range(3))
        assert report["cells_f_dom_within_one_bin"] == within == 3
        assert report["cells_total"] == 6
        assert report["f_dom_matches_f_b"] is False

    def test_csv_format(self, tmp_path):
        cfg = tiny_config(sweep={"f_b_hz": [50.0, 100.0, 150.0],
                                  "h_b_mm": [0.1, 0.2, 0.3],
                                  "sample_rate_hz": 1000.0, "duration_s": 1.0})
        run_sweep(cfg, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "f_b_hz,h_b_m,y_max_m,f_dom_hz"
        assert len(lines) == 1 + 9
        # row-major over the f_b grid
        first = lines[1].split(",")
        assert float(first[0]) == 50.0 and float(first[1]) == 1e-4
        second = lines[2].split(",")
        assert float(second[0]) == 50.0 and float(second[1]) == 2e-4

    def test_bin_width_is_the_cells_own(self, tmp_path):
        # 0.0146 s at 1000 Hz rounds to 15 samples: bins 1000 / 15 Hz apart,
        # not 1 / 0.0146 s = 68.49 Hz
        cfg = tiny_config(sweep={"f_b_hz": [200.0], "h_b_mm": [0.1],
                                  "sample_rate_hz": 1000.0, "duration_s": 0.0146})
        report = run_sweep(cfg, tmp_path)
        assert report["bin_width_hz"] == 1000 / 15

    def test_default_grid_is_35_cells(self, tmp_path):
        cfg = tiny_config(sweep={})
        report = run_sweep(cfg, tmp_path)
        assert report["cells_total"] == 35
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 36


class TestRunSynth:
    def test_files_manifest_and_rerun_hashes(self, tmp_path):
        cfg = tiny_config()
        report = run_synth(cfg, tmp_path / "a")
        assert len(report["terrains"]) == 7
        for entry in report["terrains"]:
            assert entry["windows"] == 10
            assert os.path.exists(tmp_path / "a" / entry["file"])
        again = run_synth(cfg, tmp_path / "b")
        assert ([e["sha256"] for e in report["terrains"]]
                == [e["sha256"] for e in again["terrains"]])

    def test_one_second_duration_gives_seven_vectors(self, tmp_path):
        cfg = tiny_config(duration_s=1.0)
        report = run_synth(cfg, tmp_path)
        assert report["total_windows"] == 7

    def test_csvs_hold_the_train_eval_dataset(self, tmp_path):
        # each terrain's CSV is that terrain's rows of the dataset that
        # train-eval trains on, in order, with their window indices
        cfg = tiny_config(duration_s=3.0)
        report = run_synth(cfg, tmp_path)
        dataset = build_labeled_dataset(cfg, cfg.speed_m_s,
                                        resolve_profiles(cfg), SYNTH_SCOPE)
        for entry in report["terrains"]:
            table = np.loadtxt(tmp_path / entry["file"], delimiter=",",
                               skiprows=1, ndmin=2)
            rows = dataset.labels() == int(TerrainClass.from_label(entry["terrain"]))
            np.testing.assert_array_equal(table[:, :-2], dataset.features()[rows])
            np.testing.assert_array_equal(table[:, -2], dataset.labels()[rows])
            np.testing.assert_array_equal(table[:, -1], dataset.window_idx()[rows])
        assert report["total_windows"] == len(dataset)

    def test_each_manifest_seed_synthesizes_its_terrain_csv(self, tmp_path):
        # each terrain's CSV holds the windows of the run seeded with its
        # manifest seed
        cfg = tiny_config(duration_s=3.0)
        report = run_synth(cfg, tmp_path)
        profiles = resolve_profiles(cfg)
        for entry in report["terrains"]:
            tc = TerrainClass.from_label(entry["terrain"])
            samples = terrain.synthesize_run(profiles[tc], cfg.speed_m_s, cfg.duration_s,
                                             cfg.sample_rate_hz, entry["seed"],
                                             cfg.sensor_gain)
            expected = oracles.dataset_of([(samples, tc)])
            written = oracles.read_dataset_csv(tmp_path / entry["file"])
            assert np.array_equal(written.features(), expected.features())
            assert np.array_equal(written.labels(), expected.labels())
            assert np.array_equal(written.window_idx(), expected.window_idx())

    def test_different_seed_changes_hashes(self, tmp_path):
        a = run_synth(tiny_config(master_seed=1), tmp_path / "a")
        b = run_synth(tiny_config(master_seed=2), tmp_path / "b")
        assert ([e["sha256"] for e in a["terrains"]]
                != [e["sha256"] for e in b["terrains"]])


class TestRunTrainEval:
    def test_report_shape(self, tmp_path):
        cfg = tiny_config()
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
        cfg = tiny_config()
        run_train_eval(cfg, tmp_path / "a")
        run_train_eval(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "train_eval_report.json").read_bytes()
        b = (tmp_path / "b" / "train_eval_report.json").read_bytes()
        assert a == b

    def test_rerun_from_embedded_config_reproduces_report(self, tmp_path):
        cfg = tiny_config()
        report = run_train_eval(cfg, tmp_path / "a")
        embedded = config_from_dict(report["config"])
        again = run_train_eval(embedded, tmp_path / "b")
        assert (tmp_path / "a" / "train_eval_report.json").read_bytes() == \
            (tmp_path / "b" / "train_eval_report.json").read_bytes()
        assert again["mean_overall_accuracy"] == report["mean_overall_accuracy"]


class TestRunSpeedSweep:
    def test_report_shape_and_order(self, tmp_path):
        cfg = tiny_config(speeds_m_s=[0.25, 0.15], duration_s=8.0)
        report = run_speed_sweep(cfg, tmp_path)
        assert report["speeds_m_s"] == [0.15, 0.25]
        for entry in report["per_speed"]:
            assert len(entry["per_class_accuracy"]) == 7
            assert all(0.0 <= a <= 1.0 for a in entry["per_class_accuracy"])
            assert set(entry["dominant_bin_hz"]) == {t.label for t in TerrainClass}

    def test_dominant_bins_scale_with_speed(self, tmp_path):
        cfg = tiny_config(speeds_m_s=[0.1, 0.2], duration_s=8.0)
        report = run_speed_sweep(cfg, tmp_path)
        from whisksim.experiment import resolve_profiles
        profiles = resolve_profiles(cfg)
        bin_width = 1.0 / cfg.window_s
        for entry in report["per_speed"]:
            v = entry["speed_m_s"]
            for tc in TerrainClass:
                predicted = oracles.dominant_frequency(profiles[tc], v)
                assert abs(entry["dominant_bin_hz"][tc.label] - predicted) \
                    <= bin_width

    def test_needs_two_speeds(self, tmp_path):
        cfg = tiny_config(speeds_m_s=[0.2])
        with pytest.raises(ConfigError):
            run_speed_sweep(cfg, tmp_path)


class TestWriteJson:
    def test_a_failed_write_leaves_the_old_file_whole(self, tmp_path):
        path = tmp_path / "report.json"
        experiment._write_json(path, {"old": 1})
        # "a" is written before json.dump reaches the object it cannot encode
        with pytest.raises(TypeError):
            experiment._write_json(path, {"a": 1, "b": object()})
        assert path.read_text() == '{\n  "old": 1\n}\n'
        assert os.listdir(tmp_path) == ["report.json"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_env_after_import(**preset) -> dict:
    """BLAS thread variables seen by a fresh interpreter after `import whisksim`."""
    env = child_env(BLAS_THREAD_VARS, **preset)
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
        opened = subprocess.run(argv, env=child_env(), capture_output=True,
                                timeout=120)
        assert opened.returncode == 0 and b"mean overall accuracy" in opened.stdout
        # with and without stdout buffering: the closed pipe must show
        # neither at a print nor at the flush when the interpreter exits
        for env in (child_env(PYTHONUNBUFFERED="1"),
                    child_env(["PYTHONUNBUFFERED"])):
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == opened.returncode
            assert err == opened.stderr


class TestDivergenceStderr:
    def test_only_the_divergence_line_reaches_stderr(self, tmp_path):
        # overflowing activations must not print numpy RuntimeWarnings
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"learning_rate": 1e6, "epochs": 2},
                                   "repetitions": 1, "duration_s": 10}))
        proc = subprocess.run(
            [sys.executable, "-m", "whisksim.cli", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "train-eval"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert re.fullmatch(r"training diverged: epoch \d+, batch \d+: "
                            r"non-finite [^\n]*\n", proc.stderr), proc.stderr


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
        cfg = tiny_config(**overrides)
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

    def test_speed_sweep_prints_near_speeds_apart(self, tmp_path, capsys):
        # 0.1 and 0.1004 agree to three significant digits
        cfg = self._write_cfg(tmp_path, speeds_m_s=[0.1, 0.1004], duration_s=8.0)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "speed-sweep"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [row[:8] for row in rows] == ["0.1     ", "0.1004  "]

    def test_synth_accepts_a_one_window_run(self, tmp_path):
        # only train-eval and speed-sweep split each run's windows
        cfg = self._write_cfg(tmp_path, duration_s=1.0)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "synth"]) == 0

    def test_synth_of_too_many_flat_windows_exits_3_and_writes_no_manifest(
            self, tmp_path, capsys):
        # a flat terrain that is noise floor alone, beside the default brick:
        # 6 of its 20 windows are too flat to standardize
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 0.0}],
             "noise_floor_m": 1.03e-12},
            {"terrain": "brick", "noise_floor_m": 3e-8, "components": [
                {"lambda_m": 0.01, "h_m": 8e-5, "jitter_rad": 0.4},
                {"lambda_m": 0.005, "h_m": 5e-6, "jitter_rad": 0.4}]},
        ]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 20, "profiles": str(profiles)}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "synth"]) == 3
        assert capsys.readouterr() == ("", "error: 6 of 40 windows degenerate\n")
        assert not (tmp_path / "out" / "synth_manifest.json").exists()

    def test_the_driver_is_looked_up_when_the_command_runs(self, tmp_path,
                                                           monkeypatch):
        # the benchmark's tracer patches the drivers after importing cli
        calls = []

        def fake_sweep(cfg, out_dir):
            calls.append(out_dir)
            return {"cells_total": 0, "cells_f_dom_within_one_bin": 0}

        monkeypatch.setattr(experiment, "run_sweep", fake_sweep)
        handler = signal.getsignal(signal.SIGTERM)
        assert main(["--out", str(tmp_path / "out"), "sweep"]) == 0
        assert calls == [str(tmp_path / "out")]
        assert signal.getsignal(signal.SIGTERM) is handler

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, train={"learning_rate": 1e18, "epochs": 3, "batch_size": 8})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_in_the_last_update_names_epoch_and_batch(
            self, tmp_path, capsys):
        # one batch of the whole training set: its update leaves finite but
        # huge weights, which no forward pass of the epoch loop sees
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 5, "repetitions": 1, "train": {
            "epochs": 1, "batch_size": 28, "learning_rate": 1e300}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 4
        assert re.match(r"training diverged: epoch \d+, batch \d+: ",
                        capsys.readouterr().err)

    @pytest.mark.parametrize("command, report_name", [
        ("train-eval", "train_eval_report.json"),
        ("synth", "synth_manifest.json"),
    ])
    def test_output_path_does_not_change_the_report(self, tmp_path, command,
                                                    report_name):
        cfg = self._write_cfg(tmp_path, duration_s=5.0, repetitions=1)
        reports = []
        for out in (tmp_path / "out", tmp_path / "elsewhere" / "out2"):
            assert main(["--config", str(cfg), "--seed", "3", "--out", str(out),
                         command]) == 0
            reports.append((out / report_name).read_bytes())
        assert reports[0] == reports[1]

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
        # a misspelled or unknown key is refused, not ignored
        _flat_profile(jiter_rad=0.1),
        json.dumps([{"terrain": "flat", "noise_flor_m": 1e-9,
                     "components": [{"lambda_m": 0.04, "h_m": 2e-5}]}]),
        json.dumps([{"terrain": "flat", "extra": 1,
                     "components": [{"lambda_m": 0.04, "h_m": 2e-5}]}]),
        json.dumps([{"terrain": "flat", "components": {"lambda_m": 0.04, "h_m": 2e-5}}]),
        json.dumps(["flat"]),
        json.dumps([{"terrain": "asphalt",
                     "components": [{"lambda_m": 0.04, "h_m": 2e-5}]}]),
    ], ids=["missing-file", "invalid-json", "missing-components", "nan-lambda",
            "infinite-lambda", "infinite-h", "nan-h", "bool-h", "nan-jitter",
            "jitter-above-pi", "huge-jitter", "nan-noise", "infinite-noise",
            "duplicate-terrain", "misspelled-jitter", "misspelled-noise",
            "unknown-entry-key", "components-object", "non-object-entry",
            "unknown-terrain"])
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
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: [^\n]*profile file [^\n]*\n", err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, command", [
        ({"master_seed": 1.5}, "synth"),
        ({"master_seed": True}, "synth"),
        ({"speeds_m_s": [0.1, 0.2, 0.1]}, "speed-sweep"),
        ({"speeds_m_s": [0.2]}, "speed-sweep"),
    ], ids=["float-seed", "bool-seed", "duplicate-speeds", "one-speed"])
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
        ('{"sweep": {"sample_rate_hz": 1e12}}', "sweep"),
        ('{"window_s": 2e-198, "sample_rate_hz": 1e200, "duration_s": 1}', "synth"),
        ('{"sweep": {"f_b_hz": [50.0, 0.0]}}', "sweep"),
        ('{"sweep": {"h_b_mm": [-0.1]}}', "sweep"),
        ('{"sweep": {"h_b_mm": [0.0, 0.1]}}', "sweep"),
        ('{"sweep": {"duration_s": 0.002}}', "sweep"),
        ('{"duration_s": 0.5}', "synth"),
        ('{"sensor_position_m": 0.1}', "synth"),
        # inside (0, free length], but the mode shapes cancel there: a gain
        # of 0.0, on which train-eval would train on noise alone
        ('{"sensor_position_m": 1e-11}', "train-eval"),
        ('{"sensor_position_m": 1e-11}', "sweep"),
        # 7 terrains of 5 windows train on 7 * round(5 * 0.75) = 28 vectors
        ('{"duration_s": 5, "repetitions": 1, "train": {"batch_size": 10000}}',
         "train-eval"),
        ('{"duration_s": 5, "train": {"batch_size": 29}}', "speed-sweep"),
        ('{"duration_s": 1.0, "repetitions": 1, "train": {"epochs": 1}}',
         "train-eval"),
        ('{"duration_s": 1.5}', "speed-sweep"),
        # 7 terrains of 671 088 windows: a 7.0 GiB feature matrix
        ('{"duration_s": 671088}', "synth"),
        ('{"duration_s": 671088}', "train-eval"),
        ('{"duration_s": 671088}', "speed-sweep"),
        # springs whose equivalent beam overflows, has no finite gain or
        # has an underflowing cross-section
        ('{"spring": {"free_length_m": 1e100, "coil_count": 1}}', "synth"),
        ('{"spring": {"wire_density_kg_m3": 1e300, '
         '"wire_shear_modulus_pa": 1e-300}}', "sweep"),
        ('{"spring": {"free_length_m": 1e10, "coil_count": 1, '
         '"wire_density_kg_m3": 1e300}}', "synth"),
        ('{"spring": {"wire_radius_m": 1e-200}, "duration_s": 2}', "synth"),
        # deeper than the JSON parser recurses, and more digits than int reads
        ("[" * 100_000, "sweep"),
        ("1" * 5000, "sweep"),
    ], ids=["float-repetitions", "float-epochs", "bool-batch-size",
            "infinite-rate", "nan-duration", "nan-speed", "infinite-speeds",
            "infinite-spring", "nan-sweep", "overflowing-window",
            "huge-sweep-run", "huge-run", "zero-sweep-frequency",
            "negative-sweep-height", "zero-sweep-height", "two-sample-sweep-cell",
            "run-shorter-than-window", "sensor-past-the-spring",
            "sensor-that-sees-nothing", "sweep-sensor-that-sees-nothing",
            "batch-over-training-set", "speed-sweep-batch-over-training-set",
            "one-window-run", "speed-sweep-one-window-run",
            "synth-dataset-over-cap", "dataset-over-cap",
            "speed-sweep-dataset-over-cap", "overflowing-spring",
            "zero-frequency-spring", "nan-gain-spring", "underflowing-wire",
            "deep-file", "huge-integer"])
    def test_bad_number_is_config_error_before_any_work(
            self, tmp_path, capsys, monkeypatch, text, command):
        # JSON as Python reads it: NaN and Infinity are accepted literals
        def no_work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(terrain, "synthesize_run", no_work)
        monkeypatch.setattr(pipeline, "build_dataset", no_work)
        monkeypatch.setattr(experiment, "modal_sweep", no_work)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     command]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [
        {"spring": {"wire_shear_modulus_pa": 1e-10}, "sweep": {"h_b_mm": [1e300]}},
        # f_b^2 overflows
        {"spring": {"wire_shear_modulus_pa": 1e300},
         "sweep": {"duration_s": 1e-150, "sample_rate_hz": 3e155, "f_b_hz": [1e155]}},
        # finite samples up to 1.67e306 whose spectrum overflows
        {"spring": {"wire_shear_modulus_pa": 1e-10},
         "sweep": {"f_b_hz": [50], "h_b_mm": [1e290]}},
        # three samples 3.3e-301 s apart: f_b^2 overflows
        {"sweep": {"duration_s": 1e-300, "sample_rate_hz": 3e300, "f_b_hz": [1e300]}},
    ], ids=["soft-spring-huge-height", "huge-frequency", "overflowing-spectrum",
            "tiny-grid"])
    def test_overflowing_sweep_is_one_physics_line_before_out(self, tmp_path,
                                                              config):
        # the response gain * h_b * f_b^2 or its spectrum overflows, with no
        # numpy warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "whisksim.cli", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "sweep"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert re.fullmatch(r"error: the response to f_b \S+ Hz, h_b \S+ m "
                            r"overflows\n", proc.stderr), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_underflowing_sweep_is_one_physics_line_before_out(self, tmp_path):
        # h_b 1e-320 mm is positive, but 1e-323 m times gain * f_b^2 is 0 at
        # every sample: no bin holds energy, so the cell has no dominant
        # frequency
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep": {"f_b_hz": [50.0], "h_b_mm": [1e-320]}}')
        proc = subprocess.run(
            [sys.executable, "-m", "whisksim.cli", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "sweep"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == ("error: the response to f_b 50.0 Hz, h_b 1e-323 m "
                               "is zero everywhere\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null", "[]",
                                      '[["repetitions", 1]]'])
    def test_a_config_that_is_not_an_object_is_refused(self, tmp_path, capsys,
                                                       text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 2
        assert capsys.readouterr().err == \
            "config error: config must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_spring_is_named_in_words(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spring": {"free_length_m": 1e100, "coil_count": 1}}')
        assert main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "sweep"]) == 2
        assert capsys.readouterr().err == \
            "config error: invalid config: the spring's equivalent beam overflows\n"

    def test_softest_spring_the_sweep_grid_resolves_still_runs(self, tmp_path,
                                                                capsys):
        # a gain 7e11 times the default spring's; every cell still finds its drive
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"spring": {"wire_shear_modulus_pa": 1e-13}}')
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["cells_f_dom_within_one_bin"] == summary["cells_total"] == 35

    @pytest.mark.parametrize("modulus", [1e-14, 1e-15])
    def test_a_spring_settling_after_days_runs_sweep_and_synth(self, tmp_path,
                                                               capsys, modulus):
        # it settles after 9.2e12 s or 2.9e13 s; the samples start at t = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spring": {"wire_shear_modulus_pa": modulus},
                                   "duration_s": 2}))
        for command in ("synth", "sweep"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / command),
                         command]) == 0
        summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
        assert summary["cells_f_dom_within_one_bin"] == summary["cells_total"] == 35
        manifest = json.loads((tmp_path / "synth" / "synth_manifest.json").read_text())
        assert manifest["total_windows"] == 14

    @pytest.mark.parametrize("config, profile, command", [
        ({"spring": {"wire_shear_modulus_pa": 1e-300}}, None, "synth"),
        ({"spring": {"wire_shear_modulus_pa": 1e-150}}, None, "train-eval"),
        ({"spring": {"wire_shear_modulus_pa": 1e-150}}, None, "speed-sweep"),
        ({"duration_s": 5}, _flat_profile(h_m=1e300), "synth"),
    ], ids=["softest-spring", "soft-train-eval", "soft-speed-sweep", "huge-height"])
    def test_overflowing_terrain_exits_3_before_any_work(
            self, tmp_path, capsys, monkeypatch, config, profile, command):
        # the terrain's response bound |gain| * sum(h * f^2) is over
        # MAX_RESPONSE_M: its windows' standard deviations could overflow
        def no_work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(terrain, "synthesize_run", no_work)
        monkeypatch.setattr(pipeline, "build_dataset", no_work)
        if profile:
            (tmp_path / "profiles.json").write_text(profile)
            config = {**config, "profiles": str(tmp_path / "profiles.json")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     command]) == 3
        assert re.fullmatch(r"error: \S+ at \S+ m/s: its response bound \S+ m "
                            r"exceeds 4.74e\+152 m, past which a window's standard "
                            r"deviation can overflow\n", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("factor, code", [(1.0 - 1e-9, 0), (1.0 + 1e-9, 3)],
                             ids=["just-under", "just-over"])
    def test_the_response_bound_holds_at_its_limit(self, tmp_path, capsys,
                                                    factor, code):
        # a flat terrain whose one component sits at the bound times factor
        f = 0.2 / 0.04
        gain = abs(ExperimentConfig().sensor_gain)
        (tmp_path / "profiles.json").write_text(
            _flat_profile(h_m=factor * experiment.MAX_RESPONSE_M / (gain * f * f)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profiles": str(tmp_path / "profiles.json"),
                                   "duration_s": 2}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "synth"]) == code
        if code:
            assert "its response bound" in capsys.readouterr().err
            assert not out.exists()
        else:
            dataset = oracles.read_dataset_csv(out / "terrain_flat.csv")
            assert len(dataset) == 2 and np.isfinite(dataset.features()).all()

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

    def _faint_speed_sweep(self, tmp_path, flat_h_m):
        """speed-sweep at the default speeds over a flat terrain of height
        flat_h_m under a 1e-8 m noise floor, beside the default brick."""
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([
            {"terrain": "flat", "noise_floor_m": 1e-8,
             "components": [{"lambda_m": 0.04, "h_m": flat_h_m}]},
            {"terrain": "brick", "noise_floor_m": 3e-8,
             "components": [{"lambda_m": 0.01, "h_m": 8e-5, "jitter_rad": 0.4},
                            {"lambda_m": 0.005, "h_m": 5e-6, "jitter_rad": 0.4}]},
        ]))
        cfg = self._write_cfg(tmp_path, profiles=str(profiles), duration_s=5.0,
                              repetitions=1, speeds_m_s=list(ExperimentConfig.speeds_m_s),
                              train={"epochs": 1, "batch_size": 8})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "speed-sweep"]) == 0
        return json.loads((out / "speed_sweep_report.json").read_text())

    def test_a_faint_terrain_reads_the_default_tables_bins(self, tmp_path):
        # the noise-free window of a 1 nm flat terrain varies by about
        # 1.7e-13 m, under the 1e-12 flat-window threshold of build_dataset;
        # its dominant bin is that of the default 20 um flat terrain
        report = self._faint_speed_sweep(tmp_path, 1e-9)
        cfg, default = ExperimentConfig(), terrain.default_profiles()
        for entry in report["per_speed"]:
            bins = _noiseless_dominant_bins(cfg, entry["speed_m_s"], default)
            assert entry["dominant_bin_hz"]["flat"] == bins["flat"]

    def test_an_all_zero_window_has_no_dominant_bin(self, tmp_path):
        report = self._faint_speed_sweep(tmp_path, 0.0)
        assert [e["dominant_bin_hz"]["flat"] for e in report["per_speed"]] \
            == [None] * 5
        assert all(e["dominant_bin_hz"]["brick"] > 0 for e in report["per_speed"])

    @pytest.mark.parametrize("command, blocked", [
        ("sweep", "sweep.csv"),
        ("sweep", "sweep_summary.json"),
        ("sweep", "sweep_summary.json.tmp"),   # in the temp file's place
        ("train-eval", "train_eval_report.json"),
        ("train-eval", "train_eval_report.json.tmp"),
        ("speed-sweep", "speed_sweep_report.json"),
    ])
    def test_unwritable_output_is_one_config_line(self, tmp_path, capsys,
                                                  monkeypatch, command, blocked):
        # a command that trains refuses the report path before any synthesis
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesis started")

        monkeypatch.setattr(terrain, "synthesize_run", no_synthesis)
        cfg = self._write_cfg(tmp_path, duration_s=5.0, repetitions=1,
                              train={"epochs": 1, "batch_size": 8})
        (tmp_path / "out" / blocked).mkdir(parents=True)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write")
        assert err.count("\n") == 1

    def test_a_terrain_csv_over_the_file_size_limit_is_one_config_line(self, tmp_path):
        # Python ignores SIGXFSZ, so a write past RLIMIT_FSIZE fails with EFBIG
        import resource

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

        cfg = self._write_cfg(tmp_path, duration_s=5.0)
        proc = subprocess.run(
            [sys.executable, "-m", "whisksim.cli", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "synth"],
            env=child_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=limit_file_size)
        assert proc.returncode == 2
        assert re.fullmatch(r"config error: cannot write \S+/terrain_flat\.csv: "
                            r"\[Errno 27\] File too large\n", proc.stderr), proc.stderr
        # every terrain's CSV is over the limit: the workers that the failure
        # terminated mid-write leave no temp file, and none leaves a cut CSV
        assert os.listdir(tmp_path / "out") == []

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

    def _synth_twice(self, tmp_path, capsys):
        """A tiny synth into out/, then one whose second terrain fails: the
        brick + soft-soil run rewrites terrain_brick.csv and then fails on
        soft-soil's overflowing noise floor. Returns out/ and the first
        run's brick CSV."""
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
        return out, old_brick

    def test_failed_synth_leaves_no_stale_manifest(self, tmp_path, capsys):
        # the first run's manifest, whose brick hash no longer matches, must
        # not survive the second run
        out, old_brick = self._synth_twice(tmp_path, capsys)
        assert (out / "terrain_brick.csv").read_bytes() != old_brick
        assert not (out / "synth_manifest.json").exists()

    def test_failed_synth_leaves_no_csv_of_an_earlier_run(self, tmp_path, capsys):
        out, _ = self._synth_twice(tmp_path, capsys)
        assert sorted(os.listdir(out)) == ["terrain_brick.csv"]

    def test_unremovable_manifest_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise RuntimeError("synthesis started")

        monkeypatch.setattr(terrain, "synthesize_run", no_synthesis)
        for name in ("synth_manifest.json", "terrain_sand.csv"):
            out = tmp_path / name.split(".")[0]
            (out / name).mkdir(parents=True)
            assert main(["--config", str(self._write_cfg(tmp_path)),
                         "--out", str(out), "synth"]) == 2
            assert f"cannot remove old output {out / name}" in \
                capsys.readouterr().err

    def test_empty_sweep_grid_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {
            "f_b_hz": [], "h_b_mm": [0.1],
            "sample_rate_hz": 1000.0, "duration_s": 1.0}}))
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"),
                     "sweep"])
        assert code == 2
