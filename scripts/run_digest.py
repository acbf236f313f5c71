#!/usr/bin/env python3
"""Digest of every preset's trajectory, to check that a change is bit-identical.

Runs every preset in `configs/` for at most 3 epochs under both
aggregators; the `mnist` presets run at m = 1 and m = 8, the others at
their own `harness.m`.  Each run prints one line: the preset, m, the
aggregator, the run's status and a sha256 over every round's `theta_new`
bytes, `sigma`, `j` and `tau_used`, and over the epoch records (all but
their wall time).  Each preset that loads data first prints one line with
the sha256 of its dataset: the Fortran-order `inputs` bytes and the
`labels`.  Then `mnist_tanh` at m = 1, 3 and 8 and `quadratic_newton` run
once more at `harness.local_steps = 2`, under their own aggregator, and
print the same line with an `s=2` tag: no preset takes more than one local
step, so only these rounds read three batches (and, at m = 3, split the
global batch unevenly).  `mnist_tanh` then runs at m = 1 and m = 8 under
distnewton with `objective.activation = relu` and prints the same line
with a `relu` tag: the only ReLU preset, `relu_divergence`, diverges in
its first round, so only these runs train the ReLU path.  Last, one
server round runs on seeded reports of n = 2 * RUN_ROWS + 123 entries,
which no preset reaches, so that the step pass crosses two run edges, at
m = 1, 2, 16 and 33 under both aggregators.
Each prints `server n=<n> m=<m> <aggregator> <sha>`, a sha256 over
`theta_new`, `sigma` and `j`, and under distnewton also over
`build_operator`'s `us`, `ys` and `sigmas`.  Run it on two checkouts and
`diff` the outputs: a change that keeps every dataset, trajectory and
round prints the same lines.

Usage: python scripts/run_digest.py
"""

import hashlib
import struct
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # digest this checkout's code, not an installed copy

import numpy as np  # noqa: E402

from distnewton.config import load_config  # noqa: E402
from distnewton.harness import load_dataset, run_experiment, server_round  # noqa: E402
from distnewton.operator import RUN_ROWS, WorkerReport, build_operator, center_reports  # noqa: E402

MAX_EPOCHS = 3
MULTI_STEP = {"mnist_tanh": (1, 3, 8), "quadratic_newton": (None,)}  # None: the preset's m
RELU = {"mnist_tanh": (1, 8)}
SERVER_N, SERVER_MS = 2 * RUN_ROWS + 123, (1, 2, 16, 33)
LAMBDA, TAU = 0.1, 0.01


def digest(cfg, dataset) -> tuple[str, str]:
    """The run's status and the sha256 of its rounds and epoch records."""
    h = hashlib.sha256()

    def observe(epoch, rnd, theta_read, reports, theta_new, stats):
        h.update(np.ascontiguousarray(theta_new, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(stats.sigma, dtype=np.float64).tobytes())
        h.update(struct.pack("<qd", stats.j, stats.tau_used))

    history = run_experiment(cfg, dataset=dataset, round_observer=observe)
    for r in history.records:
        h.update(struct.pack("<qddd", r.epoch, r.train_nll, r.sigma_max, r.retained_j))
    return history.status, h.hexdigest()


def server_digest(n: int, m: int, aggregator: str) -> str:
    """The sha256 of one server round on seeded reports, and under
    distnewton of the explicit operator built from the same reports."""
    rng = np.random.default_rng([n, m])
    reports = [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]
    theta_new, stats = server_round(reports, LAMBDA, TAU, False, aggregator)
    h = hashlib.sha256(theta_new.tobytes())
    h.update(stats.sigma.tobytes())
    h.update(struct.pack("<q", stats.j))
    if aggregator == "distnewton":
        op = build_operator(center_reports(reports), LAMBDA)
        for a in (op.us, op.ys, op.sigmas):
            h.update(a.tobytes(order="F"))
    return h.hexdigest()


def main():
    for path in sorted((REPO / "configs").glob("*.cfg")):
        base = load_config(path)
        base = replace(base, epochs=min(base.epochs, MAX_EPOCHS))
        dataset = load_dataset(replace(base, m=1))
        if dataset is not None:
            h = hashlib.sha256(dataset.inputs.tobytes(order="F"))
            h.update(dataset.labels.tobytes())
            print(f"{path.stem} dataset {h.hexdigest()}", flush=True)
        for m in (1, 8) if path.stem.startswith("mnist") else (base.m,):
            for aggregator in ("distnewton", "sgd_average"):
                status, sha = digest(replace(base, m=m, aggregator=aggregator), dataset)
                print(f"{path.stem} m={m} {aggregator} {status} {sha}", flush=True)
        for m in MULTI_STEP.get(path.stem, ()):
            cfg = replace(base, m=m or base.m, local_steps=2)
            status, sha = digest(cfg, dataset)
            print(f"{path.stem} m={cfg.m} s=2 {cfg.aggregator} {status} {sha}", flush=True)
        for m in RELU.get(path.stem, ()):
            status, sha = digest(replace(base, m=m, activation="relu", aggregator="distnewton"), dataset)
            print(f"{path.stem} m={m} relu distnewton {status} {sha}", flush=True)
    for m in SERVER_MS:
        for aggregator in ("distnewton", "sgd_average"):
            print(f"server n={SERVER_N} m={m} {aggregator} {server_digest(SERVER_N, m, aggregator)}", flush=True)


if __name__ == "__main__":
    main()
