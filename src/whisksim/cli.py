"""Command line harness: sweep, synth, train-eval, speed-sweep.

Exit codes: 0 success, 2 configuration errors (argparse uses 2 as well),
3 physics/signal errors, 4 training divergence, 5 a worker process died
before it finished its item (killed by the kernel, say), 130 interrupted
(Ctrl-C). Configuration errors are refused before the output directory
is created, among them a spring whose equivalent beam has no finite
response, an oversized dataset and, for train-eval and speed-sweep, a run
of one window or a batch larger than the training set; so are, with exit
3, a sweep cell whose response overflows and a terrain whose response
bound could overflow a window's standard deviation. An output file that
cannot be written is a configuration error of one line.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment
from .config import ExperimentConfig, load_config
from .errors import (ConfigError, TrainingDivergedError, WhisksimError,
                     WorkerDiedError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_DIVERGED = 4
EXIT_WORKER_DIED = 5
EXIT_INTERRUPTED = 130   # 128 + SIGINT, as a shell reports it


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _print(text: str) -> None:
    """print() to stdout. If the reader has closed it, stdout is pointed at
    os.devnull, so the command still ends with its own exit code and the
    flush at interpreter exit cannot fail either."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _accuracy_cell(acc, width: int) -> str:
    """A per-class accuracy, or "-" for a class absent from the test set."""
    return f"{acc:{width}.4f}" if acc is not None else "-".rjust(width)


def _print_accuracy_table(report: dict) -> None:
    _print(f"mean overall accuracy: {report['mean_overall_accuracy']:.4f} "
           f"(std {report['std_overall_accuracy']:.4f}, "
           f"{len(report['repetitions'])} repetitions)")
    _print("mean per-class accuracy:")
    from .terrain import TerrainClass
    for tc, acc in zip(TerrainClass, report["mean_per_class_accuracy"]):
        _print(f"  {tc.label:<11s} {_accuracy_cell(acc, 6)}")
    _print("mean confusion matrix (rows true, cols predicted):")
    for row in report["mean_confusion"]:
        _print("  " + " ".join(f"{v:7.2f}" for v in row))


def _print_speed_table(report: dict) -> None:
    from .terrain import TerrainClass
    header = "speed   overall " + " ".join(f"{tc.label:>10s}" for tc in TerrainClass)
    _print(header)
    for entry in report["per_speed"]:
        cells = " ".join(_accuracy_cell(a, 10) for a in entry["per_class_accuracy"])
        _print(f"{entry['speed_m_s']:<7.3g} {entry['overall_accuracy']:7.4f} {cells}")


def _cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    report = experiment.run_sweep(cfg, out_dir)
    _print(f"sweep: {report['cells_total']} cells, "
           f"{report['cells_f_dom_within_one_bin']} with dominant frequency "
           f"within one bin of the drive")
    _print(f"wrote {out_dir}/sweep.csv and {out_dir}/sweep_summary.json")
    return EXIT_OK


def _cmd_synth(cfg: ExperimentConfig, out_dir: str) -> int:
    report = experiment.run_synth(cfg, out_dir)
    total = report["total_windows"] + report["total_dropped"]
    degenerate = bool(total) and report["total_dropped"] / total > 0.01
    for entry in report["terrains"]:
        _print(f"{entry['terrain']:<11s} {entry['windows']:5d} windows "
               f"({entry['dropped']} dropped) -> {entry['file']}")
    _print(f"wrote manifest {out_dir}/synth_manifest.json")
    if degenerate:
        print(f"error: {report['total_dropped']} of {total} windows degenerate",
              file=sys.stderr)
        return EXIT_PHYSICS
    return EXIT_OK


def _cmd_train_eval(cfg: ExperimentConfig, out_dir: str) -> int:
    report = experiment.run_train_eval(cfg, out_dir)
    _print_accuracy_table(report)
    _print(f"wrote {out_dir}/train_eval_report.json")
    return EXIT_OK


def _cmd_speed_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    report = experiment.run_speed_sweep(cfg, out_dir)
    _print_speed_table(report)
    _print(f"wrote {out_dir}/speed_sweep_report.json")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
    "train-eval": _cmd_train_eval,
    "speed-sweep": _cmd_speed_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whisksim",
        description="Spring-whisker vibration simulation and terrain classification")
    parser.add_argument("--config", help="experiment config JSON path")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", default="out",
                        help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sweep", help="drive-grid response sweep (CSV + summary)")
    sub.add_parser("synth", help="synthesize per-terrain feature datasets")
    sub.add_parser("train-eval", help="repeated split/train/evaluate report")
    sub.add_parser("speed-sweep", help="train-eval at each configured speed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    except WhisksimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
