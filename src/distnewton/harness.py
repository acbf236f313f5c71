"""Synchronous distributed training loop, simulated in-process.

Each round every worker reads the same parameter snapshot, runs its local
SGD steps, and reports (theta_k, grad at theta_k).  A worker reads an
epoch's batches from one iterator: a `_WorkerFeed` over its shard, or
None forever for an objective that reads no samples.  Workers run one
after another, in worker order, on the calling thread; only when all m
reports are in does the server aggregate, so the barrier is the end of
the worker loop itself.

Worker randomness comes from independent streams keyed by
(seed, worker_id, global_round), so no worker's draw depends on any
other's, and a fixed seed pins the whole trajectory.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .config import AGGREGATORS, ExperimentConfig
from .data import Batch, load_idx, shard, synthetic_blobs
from .errors import ConfigError, IdxFormatError, NonFiniteInputError
from .linalg import all_finite
from .objectives import MlpObjective, MlpSpec, QuadraticObjective, RosenbrockObjective
from .operator import (
    WorkerReport,
    build_operator,  # noqa: F401  (not called here; perfbench times it under this name)
    center_reports,
    combine,
    difference_spectrum,
    lr_cap,
    step_coefficients,
)

STATUS_COMPLETED = "completed"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class RoundStats:
    sigma: np.ndarray  # the round's m - 1 singular values of D S (empty for averaging)
    j: int
    tau_used: float

    @property
    def sigma_max(self) -> float:
        return float(self.sigma[0]) if self.sigma.size else 0.0


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_nll: float
    sigma_max: float
    retained_j: float
    wall_time_s: float


@dataclass(frozen=True)
class RunHistory:
    records: list
    status: str

    @property
    def final_nll(self) -> float:
        return self.records[-1].train_nll if self.records else float("nan")


def per_worker_batch_sizes(global_batch: int, m: int) -> list[int]:
    """Split the global batch across workers; remainder to lowest indices."""
    base, rem = divmod(global_batch, m)
    return [base + (1 if k < rem else 0) for k in range(m)]


def rounds_per_epoch(n_samples: int, global_batch: int, local_steps: int) -> int:
    """Rounds so one epoch consumes about the whole dataset once.

    Every round each worker uses local_steps batches for updates plus one
    for the reported gradient, so a round costs (local_steps + 1) *
    global_batch samples in total, independent of m.  That keeps the
    fixed-global-batch comparison fair across worker counts.
    """
    return max(1, n_samples // ((local_steps + 1) * global_batch))


class _WorkerFeed:
    """One worker's batches for one epoch, as an iterator.

    The worker's shard (in permutation order), tiled row by row into a
    (chunks, batch size) schedule; the batch size is the width of `buffer`,
    the worker's Fortran-order array that the run keeps.  `batch(c)` gathers
    chunk c into it and next() the schedule's next chunk, so round r reads
    chunks r(s+1) onward; a Batch is valid until this feed's next gather.
    np.resize fills an empty shard's schedule with zeros, so
    `check_dataset` (m <= samples) must have passed.
    """

    def __init__(self, dataset: Batch, indices: np.ndarray, chunks: int, buffer):
        self.schedule = np.resize(indices, (chunks, buffer.shape[1]))
        self.dataset = dataset
        self.buffer = buffer
        self._chunks = iter(range(chunks))

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        return self.batch(next(self._chunks))

    def batch(self, chunk: int) -> Batch:
        sel = self.schedule[chunk]
        # sel comes from the shard, so "clip" never clips; "raise" would copy out first
        np.take(self.dataset.inputs.T, sel, axis=0, out=self.buffer.T, mode="clip")
        return Batch(self.buffer, self.dataset.labels[sel])


def worker_round(theta_read, objective, batches, local_steps, local_lr, rng, jitter=0.0):
    """One worker's round: s local SGD steps, then the report gradient.

    Exactly local_steps + 1 minibatches (None for deterministic objectives)
    are taken from `batches`, each by next() as its step starts, so a
    generator may gather each into the same buffer.  The report gradient
    is taken at the updated parameters on the final, fresh batch.  Optional
    jitter perturbs the starting point, so that workers explore different
    regions of a deterministic objective.  Only the gradient is checked
    here (sgd_average never reads it); the server names a non-finite theta.
    """
    theta_read = np.asarray(theta_read, dtype=np.float64)
    batches = iter(batches)
    if jitter > 0.0:  # theta_read + jitter * z, drawn into the vector that becomes theta
        theta = rng.standard_normal(theta_read.shape[0])
        theta *= jitter
        theta += theta_read
    else:
        theta = theta_read.copy()
    # overflow here is a detected outcome (divergence), not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(local_steps):
            theta -= local_lr * objective.gradient(theta, next(batches))
        grad = objective.gradient(theta, next(batches))
    if not all_finite(grad):
        raise NonFiniteInputError("worker produced a non-finite gradient")
    return WorkerReport(theta, grad)


def server_round(reports, lam, tau, use_lr_cap, aggregator):
    """Aggregate one round of reports into the next shared parameters.

    Both servers write theta_new = theta_0 + [E | g_0 | D] c with `combine`,
    in one pass over the reports of `center_reports`, and differ only in
    c.  distnewton sums the Gram matrix of the gradient differences in one
    more pass (`difference_spectrum`), optionally caps tau at 1/sigma_max,
    and takes the quasi-Newton c from `step_coefficients`.  sgd_average,
    the baseline, averages parameters: c = 1/m over E alone; any other
    aggregator raises ValueError.  Nothing of size n is written but
    theta_new; beyond it, pass 1 allocates one row block of m columns and
    `combine` one difference run of RUN_ROWS rows, each freed with its
    pass.  The reports are checked by `center_reports`, and theta_new once:
    NonFiniteReportError names a non-finite report, NonFiniteInputError an
    overflow of finite ones.
    """
    if aggregator not in AGGREGATORS:
        raise ValueError(f"server_round: unknown aggregator {aggregator!r}, expected one of {AGGREGATORS}")
    rows = center_reports(reports)
    if aggregator == "sgd_average":
        return combine(rows, np.full(rows.m - 1, 1.0 / rows.m)), RoundStats(np.empty(0), 0, tau)
    spec = difference_spectrum(rows, lam)
    tau_used = lr_cap(tau, float(np.max(spec.sigma, initial=0.0))) if use_lr_cap else tau
    coef = step_coefficients(spec, rows.m, tau_used)
    return combine(rows, coef), RoundStats(spec.sigma, spec.retained, tau_used)


def build_objective(cfg: ExperimentConfig):
    if cfg.objective_kind == "quadratic":
        return QuadraticObjective.seeded(cfg.objective_dim, cfg.quad_condition, cfg.objective_seed)
    if cfg.objective_kind == "rosenbrock":
        return RosenbrockObjective(cfg.objective_dim)
    return MlpObjective(MlpSpec(tuple(cfg.mlp_layers), cfg.activation))


def check_dataset(cfg: ExperimentConfig, dataset: Batch):
    """Reject a dataset that the configured model and workers cannot run."""
    if dataset.sample_count < cfg.m:
        raise ConfigError(
            "harness.m", f"{cfg.m} workers but the dataset has only {dataset.sample_count} samples"
        )
    features, classes = cfg.mlp_layers[0], cfg.mlp_layers[-1]
    if dataset.feature_count != features:
        raise ConfigError(
            "objective.layers", f"dataset has {dataset.feature_count} features, model expects {features}"
        )
    lo, hi = int(dataset.labels.min()), int(dataset.labels.max())
    if lo < 0 or hi >= classes:
        raise ConfigError("objective.layers", f"dataset labels span {lo}..{hi}, model has {classes} outputs")


def load_dataset(cfg: ExperimentConfig) -> Batch | None:
    """The run's samples, checked against the model; None unless the objective
    is the MLP.  They come from the IDX files when data.images and data.labels
    are set, and are otherwise synthetic, shaped by the model's layers."""
    if cfg.objective_kind != "mlp":
        return None
    if cfg.data_images:  # validate() holds the two paths to both or neither
        try:
            ds = load_idx(cfg.data_images, cfg.data_labels, cfg.data_samples)
        except (IdxFormatError, OSError) as exc:  # malformed, missing, a directory, unreadable
            path = exc.path if isinstance(exc, IdxFormatError) else exc.filename
            key = "data.images" if path == cfg.data_images else "data.labels"
            raise ConfigError(key, str(exc)) from None
    else:
        ds = synthetic_blobs(
            cfg.mlp_layers[0], cfg.mlp_layers[-1], cfg.data_samples, cfg.synth_seed,
            spread=cfg.synth_spread, density=cfg.synth_density,
        )
    check_dataset(cfg, ds)
    return ds


def initial_theta(cfg: ExperimentConfig, objective) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed])
    if isinstance(objective, MlpObjective):
        return objective.init_theta(rng)
    return rng.standard_normal(objective.dim)


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


def run_experiment(cfg: ExperimentConfig, dataset=None, threads=1, round_observer=None) -> RunHistory:
    """Run the full synchronous experiment described by cfg.

    Per epoch the dataset is resharded with a fresh seeded permutation, and
    each worker's `_WorkerFeed` gathers its batches, one at a time, into one
    buffer that the run keeps (so the run's inputs take one global batch
    beyond the dataset); an objective without samples runs one round per
    epoch on None batches.  The full-train NLL is recorded after each epoch.
    Any non-finite parameter, gradient, or loss stops the run with status
    'diverged' (a round that overflows records a NaN loss).  `round_observer`,
    when given, is called after every server aggregation with (epoch, round,
    theta_read, reports, theta_new, stats).  `threads` is accepted for
    compatibility and has no effect: workers always run serially, in order.
    """
    cfg.validate()
    objective = build_objective(cfg)
    if dataset is None or cfg.objective_kind != "mlp":
        dataset = load_dataset(cfg)  # None unless the objective reads samples
    else:
        check_dataset(cfg, dataset)

    theta = initial_theta(cfg, objective)
    records: list[EpochRecord] = []
    s = cfg.local_steps
    if dataset is None:
        n_rounds, feeds = 1, [itertools.repeat(None)] * cfg.m
    else:
        n_rounds = rounds_per_epoch(dataset.sample_count, cfg.global_batch, s)
        chunks = n_rounds * (s + 1)
        sizes = per_worker_batch_sizes(cfg.global_batch, cfg.m)
        buffers = [np.empty((dataset.feature_count, size), order="F") for size in sizes]

    status = STATUS_COMPLETED
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        sigma_max = 0.0
        j_total = 0.0
        if dataset is not None:
            shards = shard(dataset, cfg.m, _epoch_seed(cfg.seed, epoch))
            feeds = [_WorkerFeed(dataset, shards[k], chunks, buffers[k]) for k in range(cfg.m)]
        done = n_rounds
        for rnd in range(n_rounds):
            global_round = epoch * n_rounds + rnd
            try:
                rngs = (np.random.default_rng([cfg.seed, k, global_round]) for k in range(cfg.m))
                reports = [
                    worker_round(theta, objective, feed, s, cfg.local_lr, rng, cfg.worker_jitter)
                    for feed, rng in zip(feeds, rngs)
                ]
                theta_new, stats = server_round(
                    reports, cfg.lam, cfg.server_tau, cfg.use_lr_cap, cfg.aggregator
                )
            except NonFiniteInputError:
                done = rnd
                break
            if round_observer is not None:
                round_observer(epoch, rnd, theta, reports, theta_new, stats)
            theta = theta_new
            sigma_max = max(sigma_max, stats.sigma_max)
            j_total += stats.j

        wall = time.perf_counter() - tic
        with np.errstate(over="ignore", invalid="ignore"):
            nll = objective.value(theta, dataset) if done == n_rounds else float("nan")
        records.append(EpochRecord(epoch, nll, sigma_max, j_total / max(done, 1), wall))
        if not np.isfinite(nll):
            status = STATUS_DIVERGED
            break
    return RunHistory(records, status)
