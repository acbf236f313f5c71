"""Synchronous distributed training loop, simulated in-process.

Each round every worker reads the same parameter snapshot, runs its local
SGD steps on its own shard batches, and reports (theta_k, grad at
theta_k).  Workers run one after another, in worker order, on the calling
thread; only when all m reports are in does the server aggregate, so the
barrier is the end of the worker loop itself.

Worker randomness comes from independent streams keyed by
(seed, worker_id, global_round), so no worker's draw depends on any
other's, and a fixed seed pins the whole trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .data import Batch, load_idx, shard, synthetic_blobs
from .errors import ConfigError, IdxFormatError, NonFiniteInputError
from .objectives import MlpObjective, MlpSpec, QuadraticObjective, RosenbrockObjective
from .operator import (
    WorkerReport,
    build_operator,  # noqa: F401  (not called here; perfbench times it under this name)
    center_reports,
    difference_spectrum,
    lr_cap,
    newton_step,
    parameter_average,
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
    """Batch schedule for one worker and one epoch.

    The worker's shard (in permutation order) is cut into consecutive
    chunks of its per-worker batch size, tiling the shard if the round
    count needs more chunks than one pass provides.
    """

    def __init__(self, dataset: Batch, indices: np.ndarray, batch_size: int, chunks: int):
        needed = chunks * batch_size
        reps = -(-needed // indices.shape[0])  # ceil
        self.indices = np.tile(indices, reps)[:needed] if reps > 1 else indices[:needed]
        self.dataset = dataset
        self.batch_size = batch_size

    def batch(self, chunk: int) -> Batch:
        sel = self.indices[chunk * self.batch_size : (chunk + 1) * self.batch_size]
        return Batch(self.dataset.inputs[:, sel], self.dataset.labels[sel])


def worker_round(theta_read, objective, batches, local_steps, local_lr, rng, jitter=0.0):
    """One worker's round: s local SGD steps, then the report gradient.

    `batches` supplies local_steps + 1 minibatches (None entries for
    deterministic objectives).  The reported gradient is evaluated at the
    updated parameters on the final, fresh batch.  Optional jitter
    perturbs the starting point; it is what makes workers explore
    different regions when the objective itself has no stochasticity.
    """
    theta = np.asarray(theta_read, dtype=np.float64).copy()
    if jitter > 0.0:
        theta += jitter * rng.standard_normal(theta.shape[0])
    # overflow here is a detected outcome (divergence), not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(local_steps):
            theta -= local_lr * objective.gradient(theta, batches[step])
        grad = objective.gradient(theta, batches[local_steps])
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(grad))):
        raise NonFiniteInputError("worker produced non-finite parameters or gradient")
    return WorkerReport(theta, grad)


def server_round(reports, lam, tau, use_lr_cap, aggregator):
    """Aggregate one round of reports into the next shared parameters.

    distnewton: take the reports as differences from worker 0, one row
    block at a time: one pass over the gradients sums the Gram matrix that
    gives the spectrum of the centered gradients, and one pass over all
    reports takes the quasi-Newton step in factored form (optionally
    capping tau at 1/sigma_max).  Nothing of size n is written but the
    new parameters and one cache-sized block.
    sgd_average: parameter averaging, the baseline server, as the same
    pass-2 sum over the differences from worker 0.  Both check the reports
    through `center_reports`, and theta_new once: NonFiniteReportError names
    a non-finite report, NonFiniteInputError an overflow of finite ones.
    """
    rows = center_reports(reports)
    if aggregator == "sgd_average":
        return parameter_average(rows), RoundStats(np.empty(0), 0, tau)
    spec = difference_spectrum(rows, lam)
    tau_used = lr_cap(tau, float(np.max(spec.sigma, initial=0.0))) if use_lr_cap else tau
    return newton_step(rows, spec, tau_used), RoundStats(spec.sigma, spec.retained, tau_used)


def build_objective(cfg: ExperimentConfig):
    if cfg.objective_kind == "quadratic":
        return QuadraticObjective.seeded(cfg.objective_dim, cfg.quad_condition, cfg.objective_seed)
    if cfg.objective_kind == "rosenbrock":
        return RosenbrockObjective(cfg.objective_dim)
    return MlpObjective(MlpSpec(tuple(cfg.mlp_layers), cfg.activation))


def _check_dataset(cfg: ExperimentConfig, dataset: Batch):
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
            ds = load_idx(cfg.data_images, cfg.data_labels)
        except (IdxFormatError, OSError) as exc:  # malformed, missing, a directory, unreadable
            path = exc.path if isinstance(exc, IdxFormatError) else exc.filename
            key = "data.images" if path == cfg.data_images else "data.labels"
            raise ConfigError(key, str(exc)) from None
        if cfg.data_samples < ds.sample_count:
            ds = ds.subset(cfg.data_samples)
    else:
        ds = synthetic_blobs(
            cfg.mlp_layers[0], cfg.mlp_layers[-1], cfg.data_samples, cfg.synth_seed,
            spread=cfg.synth_spread, density=cfg.synth_density,
        )
    _check_dataset(cfg, ds)
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

    Per epoch the dataset is resharded with a fresh seeded permutation and
    rounds run until the epoch's sample budget is spent; the full-train
    NLL is recorded after each epoch.  Any non-finite parameter, gradient,
    or loss stops the run with status 'diverged' (a flag record with NaN
    loss marks the broken epoch).  `round_observer`, when given, is called
    after every server aggregation with (epoch, round, theta_read,
    reports, theta_new, stats).  `threads` is accepted for compatibility
    and has no effect: workers always run serially, in worker order.
    """
    cfg.validate()
    objective = build_objective(cfg)
    if dataset is None or cfg.objective_kind != "mlp":
        dataset = load_dataset(cfg)  # None unless the objective reads samples
    else:
        _check_dataset(cfg, dataset)

    theta = initial_theta(cfg, objective)
    records: list[EpochRecord] = []
    stochastic = dataset is not None
    s = cfg.local_steps
    if stochastic:
        n_rounds = rounds_per_epoch(dataset.sample_count, cfg.global_batch, s)
        sizes = per_worker_batch_sizes(cfg.global_batch, cfg.m)
    else:
        n_rounds = 1
        batches = [None] * (s + 1)

    status = STATUS_COMPLETED
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        sigma_max = 0.0
        j_total = 0.0
        if stochastic:
            plan = shard(dataset, cfg.m, _epoch_seed(cfg.seed, epoch))
            feeds = [
                _WorkerFeed(dataset, plan.worker_indices(k), sizes[k], n_rounds * (s + 1))
                for k in range(cfg.m)
            ]
        diverged = False
        for rnd in range(n_rounds):
            global_round = epoch * n_rounds + rnd
            try:
                reports = []
                for k in range(cfg.m):
                    rng = np.random.default_rng([cfg.seed, k, global_round])
                    if stochastic:
                        batches = [feeds[k].batch(rnd * (s + 1) + t) for t in range(s + 1)]
                    reports.append(worker_round(
                        theta, objective, batches, s, cfg.local_lr, rng, cfg.worker_jitter
                    ))
                theta_new, stats = server_round(
                    reports, cfg.lam, cfg.server_tau, cfg.use_lr_cap, cfg.aggregator
                )
            except NonFiniteInputError:
                diverged = True
                break
            if round_observer is not None:
                round_observer(epoch, rnd, theta, reports, theta_new, stats)
            theta = theta_new
            sigma_max = max(sigma_max, stats.sigma_max)
            j_total += stats.j

        wall = time.perf_counter() - tic
        if diverged:
            records.append(EpochRecord(epoch, float("nan"), sigma_max, j_total / n_rounds, wall))
            status = STATUS_DIVERGED
            break
        with np.errstate(over="ignore", invalid="ignore"):
            nll = objective.value(theta, dataset)
        records.append(EpochRecord(epoch, nll, sigma_max, j_total / n_rounds, wall))
        if not np.isfinite(nll):
            status = STATUS_DIVERGED
            break
    return RunHistory(records, status)
