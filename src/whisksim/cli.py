"""Command line harness: sweep, synth, train-eval, speed-sweep.

Each command is a row of _COMMANDS: its help, its experiment driver and
the printer of the driver's report. Every exit but 0 comes from an
exception, with one line on stderr: a WhisksimError exits with its class's
code (see errors.py), Ctrl-C with 130 and SIGTERM with 143. Configuration
errors are refused before the output directory is created, among them a
spring whose equivalent beam has no finite response, an oversized dataset
and, for train-eval and speed-sweep, a run of one window or a batch larger
than the training set; so are, with exit 3, a sweep cell whose response
overflows and a terrain whose response bound could overflow a window's
standard deviation. An output file that cannot be written is a
configuration error of one line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace

from . import experiment
from .config import ExperimentConfig, load_config
from .errors import WhisksimError
from .terrain import TerrainClass


class Terminated(BaseException):
    """SIGTERM: it unwinds as Ctrl-C does, past every `except Exception`."""


def _terminate(signum, frame):
    raise Terminated


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
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


def _print_sweep(report: dict, out_dir: str) -> None:
    _print(f"sweep: {report['cells_total']} cells, "
           f"{report['cells_f_dom_within_one_bin']} with dominant frequency "
           f"within one bin of the drive")
    _print(f"wrote {out_dir}/sweep.csv and {out_dir}/sweep_summary.json")


def _print_synth(report: dict, out_dir: str) -> None:
    for entry in report["terrains"]:
        _print(f"{entry['terrain']:<11s} {entry['windows']:5d} windows "
               f"({entry['dropped']} dropped) -> {entry['file']}")
    _print(f"wrote manifest {out_dir}/synth_manifest.json")


def _print_train_eval(report: dict, out_dir: str) -> None:
    _print(f"mean overall accuracy: {report['mean_overall_accuracy']:.4f} "
           f"(std {report['std_overall_accuracy']:.4f}, "
           f"{len(report['repetitions'])} repetitions)")
    _print("mean per-class accuracy:")
    for tc, acc in zip(TerrainClass, report["mean_per_class_accuracy"]):
        _print(f"  {tc.label:<11s} {_accuracy_cell(acc, 6)}")
    _print("mean confusion matrix (rows true, cols predicted):")
    for row in report["mean_confusion"]:
        _print("  " + " ".join(f"{v:7.2f}" for v in row))
    _print(f"wrote {out_dir}/train_eval_report.json")


def _print_speed_sweep(report: dict, out_dir: str) -> None:
    _print("speed   overall " + " ".join(f"{tc.label:>10s}" for tc in TerrainClass))
    for entry in report["per_speed"]:
        cells = " ".join(_accuracy_cell(a, 10) for a in entry["per_class_accuracy"])
        _print(f"{entry['speed_m_s']!r:<7} {entry['overall_accuracy']:7.4f} {cells}")
    _print(f"wrote {out_dir}/speed_sweep_report.json")


# command: (help, experiment driver's name, printer of its report); the driver
# is looked up when the command runs, so one patched after this import runs
_COMMANDS = {
    "sweep": ("drive-grid response sweep (CSV + summary)", "run_sweep",
              _print_sweep),
    "synth": ("synthesize per-terrain feature datasets", "run_synth",
              _print_synth),
    "train-eval": ("repeated split/train/evaluate report", "run_train_eval",
                   _print_train_eval),
    "speed-sweep": ("train-eval at each configured speed", "run_speed_sweep",
                    _print_speed_sweep),
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
    for command, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(command, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, driver, printer = _COMMANDS[args.command]
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        report = getattr(experiment, driver)(_resolve_config(args), args.out)
        printer(report, args.out)
        return 0
    except WhisksimError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 128 + signal.SIGINT
    except Terminated:
        print("terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    raise SystemExit(main())
