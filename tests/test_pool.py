"""The fork pool (whisksim.pool) and the commands that run through it."""

import errno
import json
import mmap
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from oracles import child_env, dataset_of, tiny_config
from whisksim import experiment, terrain
from whisksim.cli import main
from whisksim.config import config_from_dict
from whisksim.errors import PhysicsError, TrainingDivergedError, WorkerDiedError
from whisksim.experiment import (
    SYNTH_SCOPE,
    _noiseless_dominant_bins,
    _synth_terrain,
    _train_eval_once,
    build_labeled_dataset,
    child_seed,
    resolve_profiles,
    run_speed_sweep,
    run_synth,
    run_train_eval,
)
from whisksim.pipeline import BLOCK_ROWS
from whisksim.pool import _worker_count, ordered_map


def _fail_in_the_wrong_order(item):
    if item == 1:
        time.sleep(0.5)
        raise ValueError("item 1")
    if item == 3:
        raise ValueError("item 3")
    return item * item


def _slow_first_item(item):
    if item == 0:
        time.sleep(0.3)
    return item * item


class _ExitsWhenPickled:
    """Kills the worker with exit code 7 midway through pickling its reply."""

    def __reduce__(self):
        os._exit(7)


def _killed_mid_reply(item):
    """Item 0 holds up the parent's read, so item 1's worker blocks writing a
    reply larger than its pipe and is killed by SIGALRM with it half sent."""
    if item == 0:
        time.sleep(1.0)
        return 0
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    return bytes(1 << 20)


def _serial_speed_point(cfg, profiles, speed):
    """A speed-sweep report entry trained in this process."""
    scope = ("speed-sweep", repr(speed))
    dataset = build_labeled_dataset(cfg, speed, profiles, scope)
    serial = _train_eval_once(cfg, dataset, scope)
    return {
        "speed_m_s": speed,
        "overall_accuracy": serial["overall_accuracy"],
        "per_class_accuracy": serial["per_class_accuracy"],
        "dominant_bin_hz": _noiseless_dominant_bins(cfg, speed, profiles),
        "seeds": serial["seeds"],
    }


def _alive(pid) -> bool:
    """Whether pid is a process that has not exited: a zombie has."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkerPool:
    def test_results_keep_input_order(self):
        assert ordered_map(lambda i: i * i, list(range(7))) == \
            [i * i for i in range(7)]

    def test_first_failure_in_input_order_is_raised(self):
        # item 3 fails at once, item 1 only after it; a loop raises item 1's
        with pytest.raises(ValueError, match="item 1"):
            ordered_map(_fail_in_the_wrong_order, [0, 1, 2, 3])

    def test_train_eval_equals_serial_loop(self, tmp_path):
        cfg = tiny_config()
        report = run_train_eval(cfg, tmp_path)
        dataset = build_labeled_dataset(cfg, cfg.speed_m_s,
                                        resolve_profiles(cfg), SYNTH_SCOPE)
        serial = [_train_eval_once(cfg, dataset, ("train-eval", r))
                  for r in range(cfg.repetitions)]
        assert report["repetitions"] == serial

    def test_speed_sweep_equals_serial_loop(self, tmp_path):
        cfg = tiny_config(speeds_m_s=[0.25, 0.15], duration_s=8.0)
        report = run_speed_sweep(cfg, tmp_path)
        profiles = resolve_profiles(cfg)
        for entry, speed in zip(report["per_speed"], [0.15, 0.25]):
            assert entry == _serial_speed_point(cfg, profiles, speed)

    def test_worker_count_fills_the_last_round(self):
        # a last round keeps as many CPUs busy as a full round does
        def fills(n, cpus, w):
            last = n - w * ((n - 1) // w)
            return min(last, cpus) == min(w, cpus)

        for cpus in range(1, 9):
            for n in range(1, 41):
                w = _worker_count(n, cpus)
                allowed = range(min(n, cpus), min(n, 2 * cpus) + 1)
                assert w in allowed
                filling = [v for v in allowed if fills(n, cpus, v)]
                assert w == (filling[0] if filling else min(n, cpus)), (n, cpus)

    @pytest.mark.parametrize("n, workers", [(5, 3), (4, 2), (7, 4), (13, 2),
                                            (20, 2)])
    def test_worker_count_at_two_cpus(self, n, workers):
        assert _worker_count(n, 2) == workers

    @pytest.fixture
    def forks(self, monkeypatch):
        """Records the PIDs of the workers forked from here on."""
        started = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:   # in the parent
                started.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return started

    @pytest.fixture
    def two_cpus(self, monkeypatch, forks):
        """Two CPUs in the affinity mask; returns the PIDs of the workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        return forks

    def test_without_fork_the_plain_loop_runs_in_this_process(self, monkeypatch):
        # as on Windows, which has no os.fork
        monkeypatch.delattr(os, "fork")
        items = list(range(5))
        assert ordered_map(lambda i: (i * i, os.getpid()), items) == \
            [(i * i, os.getpid()) for i in items]
        with pytest.raises(ValueError, match="item 1"):
            ordered_map(_fail_in_the_wrong_order, [0, 1, 2, 3])

    def test_without_a_cpu_count_one_worker_runs_every_item(self, monkeypatch,
                                                            forks):
        # no affinity mask (macOS, say) and a cpu_count that cannot tell
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        pids = ordered_map(lambda i: os.getpid(), list(range(5)))
        assert len(forks) == 1
        assert pids == forks * 5

    def test_train_eval_on_more_workers_than_cpus_equals_serial_loop(
            self, two_cpus, tmp_path):
        cfg = tiny_config(repetitions=3)
        report = run_train_eval(cfg, tmp_path)
        assert len(two_cpus) == 4 + 3   # 7 terrains built on 4, then 3 trainers
        dataset = build_labeled_dataset(cfg, cfg.speed_m_s,
                                        resolve_profiles(cfg), SYNTH_SCOPE)
        assert report["repetitions"] == [
            _train_eval_once(cfg, dataset, ("train-eval", r)) for r in range(3)]

    @pytest.mark.parametrize("table", ["default", "flat-beside-real",
                                       "flat-at-block-edges"])
    def test_pooled_dataset_equals_runs_built_here(
            self, two_cpus, tmp_path, monkeypatch, table):
        cfg = tiny_config()
        if table == "flat-beside-real":
            (tmp_path / "profiles.json").write_text(FLAT_BESIDE_REAL)
            cfg = tiny_config(profiles=str(tmp_path / "profiles.json"))
        elif table == "flat-at-block-edges":
            # flat windows open and close each run and sit at the edges of
            # the kept windows' blocks of 16
            cfg = tiny_config(duration_s=60.0)
            synthesize_run = terrain.synthesize_run

            def with_flat_windows(*args):
                samples = synthesize_run(*args)
                for w in (0, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2,
                          2 * BLOCK_ROWS + 3, 59):
                    samples[w * 200:(w + 1) * 200] = 0.5
                return samples

            monkeypatch.setattr(terrain, "synthesize_run", with_flat_windows)
        profiles = resolve_profiles(cfg)
        pooled = build_labeled_dataset(cfg, cfg.speed_m_s, profiles, SYNTH_SCOPE)
        assert len(two_cpus) == _worker_count(len(profiles), 2)
        # each terrain's run, seeded as synth's manifest says, transformed here
        expected = dataset_of([
            (terrain.synthesize_run(
                profiles[tc], cfg.speed_m_s, cfg.duration_s, cfg.sample_rate_hz,
                child_seed(cfg.master_seed, *SYNTH_SCOPE, int(tc)), cfg.sensor_gain), tc)
            for tc in sorted(profiles, key=int)])
        matrix, rows = pooled.feature_rows()
        assert np.array_equal(matrix[rows], expected.features())
        assert np.array_equal(pooled.labels(), expected.labels())
        assert np.array_equal(pooled.window_idx(), expected.window_idx())
        assert pooled.dropped == expected.dropped == {
            "default": 0, "flat-beside-real": 10, "flat-at-block-edges": 35}[table]

    def test_a_map_inside_a_worker_runs_there_and_forks_nothing(self, two_cpus):
        def outer(item):
            before = len(two_cpus)   # this worker's copy of the list
            inner = ordered_map(lambda i: os.getpid(), [0, 1, 2])
            return os.getpid(), inner, len(two_cpus) - before

        results = ordered_map(outer, [0, 1])
        assert len(two_cpus) == 2
        assert [pid for pid, _, _ in results] == two_cpus
        for pid, inner, forked in results:
            assert (inner, forked) == ([pid] * 3, 0)

    @pytest.mark.parametrize("command, workers", [(run_speed_sweep, 3),
                                                  (run_synth, 4)],
                             ids=["speed-sweep", "synth"])
    def test_workers_build_their_datasets_without_forking(
            self, two_cpus, tmp_path, monkeypatch, command, workers):
        # five speeds, or seven terrains, on two CPUs; no worker has children
        build = experiment.build_labeled_dataset

        def forks_nothing(*args):
            before = len(two_cpus)   # this worker's copy of the list
            dataset = build(*args)
            assert len(two_cpus) == before
            return dataset

        monkeypatch.setattr(experiment, "build_labeled_dataset", forks_nothing)
        command(tiny_config(), tmp_path)
        assert len(two_cpus) == workers

    @pytest.mark.parametrize("command", ["train-eval", "speed-sweep"])
    def test_a_matrix_that_cannot_be_mapped_exits_2_with_one_line(
            self, tmp_path, capsys, monkeypatch, command):
        # train-eval maps its matrix in the parent, speed-sweep each speed's
        # in that speed's worker, after --out is created
        def out_of_memory(*args):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", out_of_memory)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 5, "repetitions": 1,
                                   "train": {"epochs": 1, "batch_size": 8}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     command]) == 2
        assert capsys.readouterr().err == (
            "config error: cannot allocate the feature matrix of 7 terrains x 5 "
            "windows x 200 values (0.0534 MiB): "
            f"[Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}\n")
        assert (tmp_path / "out").is_dir()

    def test_one_flat_terrain_beside_real_ones_still_trains(self, tmp_path):
        (tmp_path / "profiles.json").write_text(FLAT_BESIDE_REAL)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 10, "repetitions": 1,
                                   "train": {"epochs": 1, "batch_size": 8},
                                   "profiles": str(tmp_path / "profiles.json")}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 0
        report = json.loads((tmp_path / "out" / "train_eval_report.json").read_text())
        assert (report["dataset_vectors"], report["dataset_dropped"]) == (20, 10)

    def test_every_terrain_flat_exits_3_with_the_total_count(self, tmp_path,
                                                              capsys):
        (tmp_path / "profiles.json").write_text(json.dumps([
            {"terrain": name, "components": [{"lambda_m": 0.04, "h_m": 0.0}]}
            for name in ("flat", "sand")]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 10, "train": {"batch_size": 8},
                                   "profiles": str(tmp_path / "profiles.json")}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 3
        assert capsys.readouterr().err == "error: all 20 windows were degenerate\n"

    def test_speed_sweep_on_more_workers_than_cpus_equals_serial_loop(
            self, two_cpus, tmp_path):
        cfg = tiny_config(speeds_m_s=[0.25, 0.15, 0.2], duration_s=8.0)
        report = run_speed_sweep(cfg, tmp_path)
        assert len(two_cpus) == 3
        profiles = resolve_profiles(cfg)
        for entry, speed in zip(report["per_speed"], [0.15, 0.2, 0.25]):
            assert entry == _serial_speed_point(cfg, profiles, speed)

    def test_finished_workers_are_still_read(self, two_cpus):
        # item 0 holds up the read; the worker of items 1, 3 and 5 sends
        # them and exits before the parent reads its pipe
        items = list(range(6))
        assert ordered_map(_slow_first_item, items) == \
            [_slow_first_item(i) for i in items]
        assert len(two_cpus) == 2

    def test_items_are_dealt_round_robin_at_the_fork(self, two_cpus):
        # five items on two CPUs: three workers holding items 0 and 3, 1
        # and 4, and 2
        pids = ordered_map(lambda i: os.getpid(), list(range(5)))
        assert len(two_cpus) == 3
        assert pids == [two_cpus[i % 3] for i in range(5)]
        assert all(pids[i] == pids[i + 3] for i in range(2))

    def test_failing_items_never_hang_the_pool(self):
        # multiprocessing.Pool hung in about one such run in six: terminating
        # it could kill a worker that held its result queue's lock
        script = textwrap.dedent("""
            import random, time
            from whisksim.pool import ordered_map

            def item(spec):
                delay, fails = spec
                time.sleep(delay)
                if fails:
                    raise ValueError("failed")
                return delay

            rng = random.Random(3)
            for _ in range(300):
                specs = [(rng.choice([0.0, 0.001, 0.005]), rng.random() < 0.3)
                         for _ in range(rng.randint(1, 6))]
                try:
                    result = ordered_map(item, specs)
                except ValueError:
                    assert any(fails for _, fails in specs)
                else:
                    assert result == [delay for delay, _ in specs]
            """)
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_a_dead_worker_is_named(self):
        # a worker killed mid-item (an OOM kill, say) never replies
        script = textwrap.dedent("""
            import os
            from whisksim.pool import ordered_map

            def item(i):
                if i == 1:
                    os._exit(3)
                return i

            try:
                ordered_map(item, [0, 1, 2])
            except RuntimeError as exc:
                print(exc)
            """)
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "worker for item 1 exited with code 3 before replying\n"

    def test_a_reply_cut_short_is_a_dead_worker(self):
        # the bytes fill more than a 64 KiB pipe, so the parent has read
        # part of the reply when the worker dies between two of its values
        with pytest.raises(WorkerDiedError, match="^worker for item 0 exited "
                           "with code 7 before replying$"):
            ordered_map(lambda i: (bytes(1 << 17), _ExitsWhenPickled()), [0])

    def test_a_reply_cut_mid_value_is_a_dead_worker(self, two_cpus):
        # the worker dies inside a value, so the pipe ends in a truncated
        # pickle: pickle.load raises an UnpicklingError, not an EOFError
        with pytest.raises(WorkerDiedError, match="^worker for item 1 exited "
                           f"with code {-signal.SIGALRM} before replying$"):
            ordered_map(_killed_mid_reply, [0, 1])
        assert len(two_cpus) == 2

    def test_a_command_that_forks_leaves_multiprocessing_unimported(self, tmp_path):
        code, forks, imported = _parent_imports(tmp_path, "synth", {"duration_s": 2},
                                                "multiprocessing")
        assert (code, imported) == (0, False)
        assert forks >= 1

    def test_train_eval_leaves_numpy_random_unimported_in_its_parent(self, tmp_path):
        # its workers synthesize the terrains and train; the parent forks
        # them and writes the report
        code, forks, imported = _parent_imports(
            tmp_path, "train-eval", {"duration_s": 5, "repetitions": 1,
                                     "train": {"epochs": 1, "batch_size": 8}},
            "numpy.random")
        assert (code, imported) == (0, False)
        assert forks >= 2

    def test_a_failed_fork_reaps_the_workers_already_forked(self, monkeypatch):
        started = []
        fork = os.fork

        def fails_after_one():
            if started:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pid = fork()
            if pid:   # in the parent
                started.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "fork", fails_after_one)
        reason = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
        with pytest.raises(WorkerDiedError,
                           match=f"^could not fork worker 1: {re.escape(reason)}$"):
            ordered_map(lambda i: i, [0, 1])
        assert len(started) == 1
        with pytest.raises(ChildProcessError):   # reaped already
            os.waitpid(started[0], os.WNOHANG)

    def test_a_failed_fork_exits_5_with_one_line(self, tmp_path):
        script = textwrap.dedent("""
            import errno, os, sys
            from whisksim import cli

            forks = []
            fork = os.fork

            def fails_second():
                if forks:
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                forks.append(fork())
                return forks[-1]

            os.fork = fails_second
            os.sched_getaffinity = lambda pid: {0, 1}
            raise SystemExit(cli.main(sys.argv[1:]))
            """)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 5, "repetitions": 1,
                                   "train": {"epochs": 1, "batch_size": 8}}))
        proc = subprocess.run([sys.executable, "-c", script, "--config", str(cfg),
                               "--out", str(tmp_path / "out"), "train-eval"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 5
        assert proc.stderr == (f"error: could not fork worker 1: [Errno {errno.EAGAIN}] "
                               f"{os.strerror(errno.EAGAIN)}\n")

    def test_a_dead_worker_exits_5_with_one_line(self, tmp_path):
        # brick's synth worker dies mid-item, as under an OOM kill
        script = textwrap.dedent("""
            import os, sys
            from whisksim import cli, terrain

            brick = terrain.default_profiles()[terrain.TerrainClass.BRICK]
            synthesize_run = terrain.synthesize_run

            def dies_on_brick(profile, *args):
                if profile == brick:
                    os._exit(9)
                return synthesize_run(profile, *args)

            terrain.synthesize_run = dies_on_brick
            raise SystemExit(cli.main(sys.argv[1:]))
            """)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 2}))
        proc = subprocess.run([sys.executable, "-c", script, "--config", str(cfg),
                               "--out", str(tmp_path / "out"), "synth"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 5
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("error: worker for item 2 exited with code 9 "
                               "before replying\n")

    def test_ctrl_c_exits_130_with_one_line(self, tmp_path):
        # Ctrl-C in a terminal sends SIGINT to the whole process group:
        # the parent, waiting on its worker, and the worker, in training
        script = textwrap.dedent("""
            import sys, time
            from whisksim import cli, mlp

            def train_until_killed(*args):
                print("training", flush=True)
                time.sleep(60)

            mlp.train = train_until_killed
            raise SystemExit(cli.main(sys.argv[1:]))
            """)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 2, "repetitions": 1,
                                   "train": {"batch_size": 7}}))
        proc = subprocess.Popen([sys.executable, "-c", script, "--config", str(cfg),
                                 "--out", str(tmp_path / "out"), "train-eval"],
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            assert proc.stdout.readline() == "training\n"
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, out, err) == (130, "", "interrupted\n")
        assert not (tmp_path / "out" / "train_eval_report.json").exists()

    def test_sigterm_exits_143_and_ends_the_workers(self, tmp_path):
        # timeout(1) and process supervisors send SIGTERM to the parent alone
        script = textwrap.dedent("""
            import os, sys, time
            from whisksim import cli, mlp

            def train_until_killed(*args):
                print(os.getpid(), flush=True)
                time.sleep(60)

            mlp.train = train_until_killed
            raise SystemExit(cli.main(sys.argv[1:]))
            """)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration_s": 2, "repetitions": 1,
                                   "train": {"batch_size": 7}}))
        proc = subprocess.Popen([sys.executable, "-c", script, "--config", str(cfg),
                                 "--out", str(tmp_path / "out"), "train-eval"],
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            worker = int(proc.stdout.readline())
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, out, err) == (143, "", "terminated\n")
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)
        assert list((tmp_path / "out").rglob("*.tmp")) == []

    def test_an_orphaned_worker_dies_at_its_next_reply(self):
        # SIGKILL gives the parent no chance to end its worker, which holds
        # no read end of its pipe: its reply to the first item ends it
        script = textwrap.dedent("""
            import os, time
            from whisksim.pool import ordered_map

            def item(delay):
                print(os.getpid(), flush=True)
                time.sleep(delay)

            os.sched_getaffinity = lambda pid: {0}   # one worker for every item
            ordered_map(item, [1.0] * 10)
            """)
        proc = subprocess.Popen([sys.executable, "-c", script], env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        worker = None
        try:
            worker = int(proc.stdout.readline())
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 3.0
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            if worker is not None and _alive(worker):
                os.kill(worker, signal.SIGKILL)

    def test_a_ctrl_c_during_the_forks_leaves_no_worker(self):
        # SIGINT lands just after the first fork, before the parent lists
        # that worker: were it not held until every worker is listed, the
        # worker would sleep out its item with the caller's pipes open
        script = textwrap.dedent("""
            import os, signal, time
            from whisksim.pool import ordered_map

            fork = os.fork

            def fork_then_interrupt():
                pid = fork()
                if pid:   # in the parent
                    os.fork = fork
                    os.kill(os.getpid(), signal.SIGINT)
                return pid

            os.fork = fork_then_interrupt
            try:
                ordered_map(time.sleep, [10.0, 10.0])
            except KeyboardInterrupt:
                print("interrupted")
            """)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (0, "interrupted\n"), proc.stderr
        assert elapsed < 5.0

    def test_synth_equals_serial_loop(self, tmp_path):
        cfg = tiny_config()
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

        def brick_fails_first(profile, *args, **kwargs):
            if profile.components[0].lambda_m == 0.01:   # brick's
                raise PhysicsError("brick failed")
            time.sleep(0.5)
            return synthesize_run(profile, *args, **kwargs)

        monkeypatch.setattr(terrain, "synthesize_run", brick_fails_first)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config(profiles=str(profiles)).to_dict()))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "synth"]) == 3
        err = capsys.readouterr().err
        assert "all 10 windows were degenerate" in err
        assert "brick" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_reports_the_serial_loops_error(self, tmp_path, capsys):
        overrides = {"train": {"learning_rate": 1e6, "epochs": 3},
                     "repetitions": 2, "duration_s": 10}
        cfg = config_from_dict(overrides)
        dataset = build_labeled_dataset(cfg, cfg.speed_m_s,
                                        resolve_profiles(cfg), SYNTH_SCOPE)
        with pytest.raises(TrainingDivergedError) as serial:
            for r in range(cfg.repetitions):
                _train_eval_once(cfg, dataset, ("train-eval", r))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overrides))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "train-eval"]) == 4
        assert f"training diverged: {serial.value}\n" in capsys.readouterr().err


# an all-flat flat terrain, with no height and no noise, beside brick and sand
FLAT_BESIDE_REAL = json.dumps([
    {"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 0.0}]},
    {"terrain": "brick",
     "components": [{"lambda_m": 0.01, "h_m": 8e-05, "jitter_rad": 0.4},
                    {"lambda_m": 0.005, "h_m": 5e-06, "jitter_rad": 0.4}],
     "noise_floor_m": 3e-08},
    {"terrain": "sand",
     "components": [{"lambda_m": 0.2 / 44, "h_m": 3.5e-05, "jitter_rad": 1.5},
                    {"lambda_m": 0.2 / 16, "h_m": 8e-06, "jitter_rad": 1.5}],
     "noise_floor_m": 6e-08}])


def _parent_imports(tmp_path, command: str, config: dict, module: str) -> list:
    """[exit code, forks, whether `module` is imported] of a command run
    through cli.main in a fresh interpreter, seen from its parent process."""
    script = textwrap.dedent(f"""
        import json, os, sys
        from whisksim import cli

        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            forks.append(pid)
            return pid

        os.fork = counting_fork
        code = cli.main(sys.argv[1:])
        print(json.dumps([code, len(forks), {module!r} in sys.modules]))
        """)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-c", script, "--config", str(cfg),
                           "--out", str(tmp_path / "out"), command],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
