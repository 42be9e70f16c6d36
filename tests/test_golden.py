"""Golden outputs: every command's files, from tiny configs, against a record.

The record, tests/data/golden_outputs.json, holds what sweep, synth,
train-eval and speed-sweep write for GOLDEN_CONFIG at seed GOLDEN_SEED.
Integers, strings, labels, seeds, window counts and confusion matrices
must match it exactly. Every other float must lie within REL_BOUND of its
recorded value, relative to itself; a feature, in a terrain CSV, relative
to the largest magnitude in its row, since a near-zero bin (the DC bin of a
centred window) has no relative precision of its own.

REL_BOUND separates the two kinds of change measured on these outputs:
flipping each np.sin and np.cos result by one ULP, as SIMD kernels of
different CPUs may, moved features by at most 2.1e-16 of their row and
losses by 1.1e-15; re-basing the signal on the steady-state closed form (an
earlier change that moved default features by up to 6.7e-12 and losses by
2.9e-12) moved these tiny outputs by 6.8e-14 and 2.2e-14. SHA-256 digests
are bytes of one machine and are not compared; the benchmark compares those.
They repeat on one machine with one BLAS kernel, but OpenBLAS picks its
kernel by CPU, and train-eval's digests differ between kernels. So across
machines this record is the contract, and where numpy's OpenBLAS can be
forced onto other kernels (DYNAMIC_ARCH), the outputs are compared under
four of them.

A change that moves outputs on purpose re-records the file:

    PYTHONPATH=src python tests/test_golden.py

Sampling the steady form from t = 0 rather than from the spring's settling
time was such a change: it moved every drive phase, the features by up to
2.0e-2 of their row and a final loss by 5.4%.
"""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from oracles import child_env
from whisksim.cli import main

RECORD = Path(__file__).with_name("data") / "golden_outputs.json"
REL_BOUND = 1e-14
GOLDEN_SEED = 11
GOLDEN_CONFIG = {
    "duration_s": 2.0,
    "repetitions": 2,
    "speeds_m_s": [0.1, 0.2],
    "train": {"learning_rate": 0.001, "epochs": 3, "batch_size": 4},
    "sweep": {"f_b_hz": [50.0, 100.0], "h_b_mm": [0.1, 0.2],
              "sample_rate_hz": 1000.0, "duration_s": 1.0},
}
COMMANDS = ("sweep", "synth", "train-eval", "speed-sweep")
REPORTS = {"sweep": "sweep_summary.json", "synth": "synth_manifest.json",
           "train-eval": "train_eval_report.json",
           "speed-sweep": "speed_sweep_report.json"}
# floats compared exactly: the config, and frequencies that are whole bins
EXACT_FLOAT_KEYS = {"config", "dominant_bin_hz", "speeds_m_s", "speed_m_s",
                    "bin_width_hz"}


def _read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": rows[1:]}


def _without_digests(value):
    if isinstance(value, dict):
        return {k: _without_digests(v) for k, v in value.items() if k != "sha256"}
    if isinstance(value, list):
        return [_without_digests(v) for v in value]
    return value


def _outputs(command: str, workdir: Path) -> dict:
    """Run one command at the golden config; its report and every CSV it
    wrote, each CSV cell parsed as an int where it is one, else a float."""
    cfg = workdir / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    out = workdir / command
    assert main(["--config", str(cfg), "--seed", str(GOLDEN_SEED), "--out",
                 str(out), command]) == 0
    files = {}
    for path in sorted(out.glob("*.csv")):
        table = _read_csv(path)
        table["rows"] = [[int(cell) if cell.lstrip("-").isdigit() else float(cell)
                          for cell in row] for row in table["rows"]]
        files[path.name] = table
    report = json.loads((out / REPORTS[command]).read_text(encoding="utf-8"))
    return {"report": _without_digests(report), "csv": files}


def _mismatches(got, want, where: str = "", exact: bool = False,
                features: bool = False, scale: float = 0.0) -> list:
    """Paths at which got differs from want, under the rules above."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"]
        return [m for key in want
                for m in _mismatches(got[key], want[key], f"{where}.{key}",
                                     exact or key in EXACT_FLOAT_KEYS,
                                     features or key.startswith("terrain_"))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} is not a list of {len(want)}"]
        if features:
            scale = max([abs(v) for v in want if isinstance(v, float)], default=0.0)
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]", exact, features, scale)]
    if isinstance(want, float) and not exact:
        if not isinstance(got, float):
            return [f"{where}: {got!r}, recorded {want!r}"]
        bound = REL_BOUND * max(abs(want), scale)
        if not abs(got - want) <= bound:
            return [f"{where}: {got!r}, recorded {want!r}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r}, recorded {want!r}"]
    return []


def record(path: Path = RECORD) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {command: _outputs(command, Path(tmp)) for command in COMMANDS}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")


def test_record_is_whole():
    golden = json.loads(RECORD.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(COMMANDS)
    assert len(golden["synth"]["csv"]) == 7
    assert golden["train-eval"]["report"]["dataset_vectors"] == 14


def test_every_output_matches_the_record(tmp_path):
    golden = json.loads(RECORD.read_text(encoding="utf-8"))
    for command in COMMANDS:
        got = _outputs(command, tmp_path)
        problems = _mismatches(got, golden[command], command)
        assert not problems, "\n".join(problems[:20])


def test_the_bound_catches_a_change_of_one_part_in_1e13():
    golden = json.loads(RECORD.read_text(encoding="utf-8"))
    row = golden["synth"]["csv"]["terrain_sand.csv"]["rows"][1]
    peak = max(range(len(row) - 2), key=lambda i: abs(row[i]))   # a row's top bin
    for command, path in (("train-eval", ["report", "repetitions", 0, "final_loss"]),
                          ("synth", ["csv", "terrain_sand.csv", "rows", 1, peak])):
        moved = json.loads(json.dumps(golden[command]))
        owner = moved
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] *= 1 + 1e-13
        assert len(_mismatches(moved, golden[command])) == 1
        assert not _mismatches(golden[command], golden[command])


def _openblas_configuration() -> str:
    """The configuration string of numpy's OpenBLAS, or "" for another BLAS
    or a numpy older than show_config's dicts mode (1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return ""
    return blas.get("openblas configuration") or ""


@pytest.mark.skipif("DYNAMIC_ARCH" not in _openblas_configuration(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Nehalem", "Prescott"])
def test_every_output_matches_the_record_on_other_blas_kernels(kernel, tmp_path):
    # OPENBLAS_CORETYPE is read when the library loads, so each kernel runs
    # in a fresh interpreter
    script = ("import pathlib, sys, test_golden; "
              "test_golden.test_every_output_matches_the_record(pathlib.Path(sys.argv[1]))")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          cwd=Path(__file__).parent,
                          env=child_env(OPENBLAS_CORETYPE=kernel),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


if __name__ == "__main__":
    record()
    sys.exit(0)
