"""Command-line driver: single runs, worker-count sweeps, gradient checks.

Exit codes: 0 success, 1 config or usage error, 2 diverged (or a failed
gradient check), 3 internal error.  `run` is a sweep of one cell: a cell
that hits an internal error is written, with status failed, and the other
cells still run.  Output CSVs have the header
`epoch,train_nll,sigma_max,retained_j,wall_time_s` with one row per
epoch and at least 12 significant digits per number; a diverged run keeps
its truncated CSV, whose last row carries a NaN loss as the flag, and
its summary line ends with where the run stopped.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, emit_config, load_config
from .data import Batch
from .errors import ConfigError
from .harness import (
    STATUS_COMPLETED,
    RunHistory,
    build_objective,
    check_dataset,
    load_dataset,
    run_experiment,
)
from .objectives import max_relative_gradient_error, probe_coords

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_INTERNAL = 3

# status of a cell whose run raised an internal error
STATUS_FAILED = "failed"

OUTPUT_DIR_ENV = "DISTNEWTON_OUT"
CSV_HEADER = "epoch,train_nll,sigma_max,retained_j,wall_time_s"

GRAD_CHECK_TOLERANCES = {"quadratic": 1e-8, "rosenbrock": 1e-6, "tanh": 1e-6, "relu": 1e-5}


def run_label(cfg: ExperimentConfig) -> str:
    return "sgd" if cfg.aggregator == "sgd_average" else f"distnewton-{cfg.m}"


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def write_history_csv(history: RunHistory, path: Path):
    lines = [CSV_HEADER]
    for r in history.records:
        lines.append(
            f"{r.epoch},{_fmt(r.train_nll)},{_fmt(r.sigma_max)},"
            f"{_fmt(r.retained_j)},{_fmt(r.wall_time_s)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_history_csv(path) -> list[dict]:
    rows = []
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    names = lines[0].split(",")
    for line in lines[1:]:
        vals = line.split(",")
        rows.append({k: float(v) for k, v in zip(names, vals)})
    return rows


def _summary_lines(results) -> list[str]:
    # results: list of (label, cfg, history); ranked by final loss,
    # ascending, diverged and failed runs at the bottom.
    def sort_key(item):
        label, _, hist = item
        nll = hist.final_nll
        broken = hist.status != STATUS_COMPLETED or not np.isfinite(nll)
        return (1 if broken else 0, nll if np.isfinite(nll) else float("inf"), label)

    lines = []
    for label, _, hist in sorted(results, key=sort_key):
        stopped = f' stopped="{hist.stopped}"' if hist.stopped else ""
        lines.append(
            f"{label}: status={hist.status} epochs={len(hist.records)} "
            f"final_train_nll={_fmt(hist.final_nll)}{stopped}"
        )
    return lines


def _write_outputs(out_dir: Path, results, base_cfg: ExperimentConfig):
    written = []
    try:
        for label, cfg, hist in results:
            csv_path = out_dir / f"{label}.csv"
            write_history_csv(hist, csv_path)
            written.append(csv_path)
            cfg_path = out_dir / f"{label}.cfg"
            cfg_path.write_text(emit_config(cfg), encoding="utf-8")
            written.append(cfg_path)
        resolved = out_dir / "resolved.cfg"
        resolved.write_text(emit_config(base_cfg), encoding="utf-8")
        written.append(resolved)
        summary = out_dir / "summary.txt"
        summary.write_text("\n".join(_summary_lines(results)) + "\n", encoding="utf-8")
        written.append(summary)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _load_and_override(args) -> ExperimentConfig:
    try:
        cfg = load_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError("--config", f"cannot read {args.config}: {exc}") from None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _run_cells(base: ExperimentConfig, overrides, out_dir: Path) -> int:
    """Run one cell per dict in `overrides`, each `base` with those keys
    replaced, on one dataset, write their outputs and summary, and return
    the exit code.  A config error ends the command, and every cell is
    built and checked before any runs or `out_dir` is made; any other
    failure is printed with its traceback and marks its cell failed, and
    the other cells still run."""
    # one dataset for every cell, checked against the model at m = 1 first,
    # so a dataset that does not fit the model is named before any cell's keys
    dataset = load_dataset(replace(base, m=1))
    cells = []
    for override in overrides:
        cells.append(replace(base, **override))
        if dataset is not None:
            check_dataset(cells[-1], dataset)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file, under one, or not writable
        raise ConfigError("--out", f"cannot create {out_dir}: {exc}") from None
    results = []
    for cfg in cells:
        label = run_label(cfg)
        try:
            hist = run_experiment(cfg, dataset=dataset)
        except ConfigError:
            raise
        except Exception:
            print(f"{label}: failed", file=sys.stderr)
            traceback.print_exc()
            hist = RunHistory([], STATUS_FAILED)
        results.append((label, cfg, hist))
    _write_outputs(out_dir, results, base)
    for line in _summary_lines(results):
        print(line)
    statuses = {hist.status for _, _, hist in results}
    if STATUS_FAILED in statuses:
        return EXIT_INTERNAL
    return EXIT_OK if statuses == {STATUS_COMPLETED} else EXIT_DIVERGED


def cmd_run(args) -> int:
    return _run_cells(_load_and_override(args), [{}], Path(args.out))


def cmd_sweep(args) -> int:
    base = _load_and_override(args)
    try:
        workers = [int(w) for w in args.workers.split(",")]
    except ValueError:
        raise ConfigError("workers", f"not a comma-separated list of integers: {args.workers!r}") from None
    if any(w < 1 for w in workers):
        raise ConfigError("workers", "worker counts must be >= 1")
    if len(set(workers)) < len(workers):
        raise ConfigError("workers", f"worker count {max(workers, key=workers.count)} is repeated")
    overrides = [{"m": w, "aggregator": "distnewton"} for w in workers]
    overrides.append({"m": 1, "aggregator": "sgd_average"})
    return _run_cells(base, overrides, Path(args.out))


def _grad_check_points(cfg: ExperimentConfig, inner, dataset, count=10):
    """Seeded (theta, batch) probe points for the gradient check."""
    rng = np.random.default_rng([cfg.seed, 0xC0FFEE])
    for _ in range(count):
        theta = inner.init_theta(rng)
        if dataset is None:
            yield theta, None
        else:
            sel = rng.integers(0, dataset.sample_count, size=32)
            yield theta, Batch(dataset.inputs[:, sel], dataset.labels[sel])


def cmd_grad_check(args) -> int:
    cfg = _load_and_override(args)
    objective = build_objective(cfg)
    dataset = load_dataset(cfg)
    kind = cfg.activation if cfg.objective_kind == "mlp" else cfg.objective_kind
    tol = GRAD_CHECK_TOLERANCES[kind]
    worst = 0.0
    worst_coord = -1
    rng = np.random.default_rng([cfg.seed, 0xFD])
    for theta, batch in _grad_check_points(cfg, objective, dataset):
        coords = None
        if batch is not None or theta.shape[0] > 64:
            coords = probe_coords(objective, theta, batch, rng)
        err, coord = max_relative_gradient_error(objective, theta, batch, coords=coords, h=1e-5)
        if err > worst:
            worst, worst_coord = err, coord
    print(f"max relative gradient error: {worst:.3e} (coordinate {worst_coord}, tolerance {tol:.0e})")
    if worst > tol:
        print(f"gradient check FAILED at coordinate {worst_coord}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distnewton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep), ("grad-check", cmd_grad_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a flat key=value config file")
        if name != "grad-check":
            p.add_argument("--out", default=os.environ.get(OUTPUT_DIR_ENV, "out"),
                           help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./out)")
        p.add_argument("--seed", type=int, default=None, help="override harness.seed")
        p.set_defaults(func=fn)
    sub.choices["sweep"].add_argument(
        "--workers", default="1,2,4,8", help="comma-separated worker counts"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as EXIT_DIVERGED
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
