import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from distnewton.config import ExperimentConfig, load_config
from distnewton.data import shard, synthetic_blobs
from distnewton.errors import DimensionMismatchError, NonFiniteInputError
from distnewton.harness import (
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    per_worker_batch_sizes,
    rounds_per_epoch,
    run_experiment,
    server_round,
    worker_round,
)
from distnewton.objectives import QuadraticObjective
from distnewton.operator import WorkerReport, block_rows

PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def quadratic_cfg(**kw):
    base = dict(
        objective_kind="quadratic",
        objective_dim=8,
        quad_condition=100.0,
        objective_seed=0,
        m=9,
        local_steps=1,
        local_lr=0.05,
        server_tau=1.0,
        epochs=3,
        seed=0,
        aggregator="distnewton",
        worker_jitter=0.5,
        lam=1e-6,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def blob_cfg(**kw):
    base = dict(
        objective_kind="mlp",
        mlp_layers=(16, 8, 4),
        activation="tanh",
        data_samples=640,
        synth_seed=5,
        m=4,
        local_steps=1,
        local_lr=0.05,
        server_tau=0.05,
        epochs=3,
        global_batch=64,
        seed=1,
        aggregator="distnewton",
        lam=0.1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------- worker_round


def test_worker_round_hand_example():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    rng = np.random.default_rng(0)
    rep = worker_round([1.0, 1.0], quad, [None, None], 1, 0.1, rng)
    assert np.allclose(rep.theta, [0.8, 0.95])
    assert np.allclose(rep.grad, [1.6, 0.475])


def test_worker_round_zero_learning_rate():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    rng = np.random.default_rng(0)
    rep = worker_round([1.0, 1.0], quad, [None, None], 1, 0.0, rng)
    assert np.array_equal(rep.theta, [1.0, 1.0])
    assert np.array_equal(rep.grad, quad.gradient([1.0, 1.0]))


def test_worker_round_deterministic_given_rng():
    quad = QuadraticObjective.seeded(4, seed=1)
    r1 = worker_round(np.ones(4), quad, [None, None], 1, 0.1, np.random.default_rng(7), jitter=0.3)
    r2 = worker_round(np.ones(4), quad, [None, None], 1, 0.1, np.random.default_rng(7), jitter=0.3)
    assert np.array_equal(r1.theta, r2.theta)
    assert np.array_equal(r1.grad, r2.grad)


def test_worker_round_flags_divergence():
    class Explodes:
        dim = 2

        def gradient(self, theta, batch=None):
            return np.array([np.inf, 0.0])

    with pytest.raises(NonFiniteInputError):
        worker_round([0.0, 0.0], Explodes(), [None, None], 1, 1.0, np.random.default_rng(0))


# ----------------------------------------------------------- server_round


def test_server_round_average_aggregator():
    reports = [WorkerReport([0.0, 2.0], [9.0, 9.0]), WorkerReport([2.0, 0.0], [-9.0, -9.0])]
    theta, stats = server_round(reports, 0.1, 0.5, False, "sgd_average")
    assert np.allclose(theta, [1.0, 1.0])
    assert stats.j == 0
    assert stats.sigma.size == 0


@pytest.mark.parametrize("m", range(1, 10))
def test_server_round_average_of_identical_reports_is_exact(m):
    # summed as differences from worker 0, duplicates add exact zeros
    rng = np.random.default_rng(m)
    theta = rng.standard_normal(1000)
    reports = [WorkerReport(theta, rng.standard_normal(1000))] * m
    theta_new, _ = server_round(reports, 0.1, 0.5, False, "sgd_average")
    assert np.array_equal(theta_new, theta)


@pytest.mark.parametrize("aggregator", ["distnewton", "sgd_average"])
@pytest.mark.parametrize("m", [2, 5, 9])
def test_server_round_sgd_mode_matches_reference(m, aggregator):
    # n spans more than one row block, so the j = 0 step and the average
    # cross block edges
    n = 70_000
    assert n > block_rows(m)
    rng = np.random.default_rng(2)
    reports = [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]
    theta, stats = server_round(reports, 2.0, 0.3, False, aggregator)
    thetas = np.column_stack([r.theta for r in reports])
    grads = np.column_stack([r.grad for r in reports])
    step = 0.3 * grads.mean(axis=1) if aggregator == "distnewton" else 0.0
    want = thetas.mean(axis=1) - step
    assert np.max(np.abs(theta - want)) <= 1e-12
    assert stats.j == 0


def test_server_round_exact_quadratic_newton():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    thetas = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    reports = [WorkerReport(t, quad.gradient(t)) for t in thetas]
    theta, stats = server_round(reports, 1e-6, 1.0, False, "distnewton")
    assert np.allclose(theta, [0.0, 0.0], atol=1e-10)
    assert stats.j == 2


def test_server_round_rejects_empty():
    with pytest.raises(ValueError):
        server_round([], 0.1, 0.1, False, "distnewton")


def test_server_round_average_rejects_mismatched_lengths():
    # a length-1 report must not broadcast into the running sum
    reports = [WorkerReport([1.0, 2.0], [0.0, 0.0]), WorkerReport([1.0], [0.0])]
    with pytest.raises(DimensionMismatchError, match="report 1"):
        server_round(reports, 0.1, 0.1, False, "sgd_average")


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # the benchmark's traced run wraps these names: a rename in src/ would break it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    with workloads.layer_tracer().installed():
        pass


# --------------------------------------------------------- epoch planning


def test_per_worker_batch_sizes_split():
    assert per_worker_batch_sizes(256, 4) == [64, 64, 64, 64]
    assert per_worker_batch_sizes(10, 3) == [4, 3, 3]
    assert sum(per_worker_batch_sizes(256, 7)) == 256


def test_rounds_per_epoch_fairness():
    # per-epoch sample budget rounds*(s+1)*B is independent of worker count
    n, b, s = 5000, 256, 1
    budgets = set()
    for m in (1, 2, 4, 8):
        rounds = rounds_per_epoch(n, b, s)
        sizes = per_worker_batch_sizes(b, m)
        budgets.add(rounds * (s + 1) * sum(sizes))
    assert len(budgets) == 1


# --------------------------------------------------------- run_experiment


def test_run_zero_epochs():
    hist = run_experiment(quadratic_cfg(epochs=0))
    assert hist.records == []
    assert hist.status == STATUS_COMPLETED


def test_run_deterministic_bitwise():
    cfg = blob_cfg()
    h1 = run_experiment(cfg)
    h2 = run_experiment(cfg)
    assert [r.train_nll for r in h1.records] == [r.train_nll for r in h2.records]
    assert [r.sigma_max for r in h1.records] == [r.sigma_max for r in h2.records]
    assert [r.retained_j for r in h1.records] == [r.retained_j for r in h2.records]


def test_run_thread_count_does_not_change_results():
    cfg = blob_cfg()
    h1 = run_experiment(cfg, threads=1)
    h4 = run_experiment(cfg, threads=4)
    assert [r.train_nll for r in h1.records] == [r.train_nll for r in h4.records]


def test_run_quadratic_newton_converges_fast():
    # spanning workers with exact gradients: the quasi-Newton server lands
    # on the minimizer, so the loss collapses within a few epochs
    hist = run_experiment(quadratic_cfg())
    assert hist.status == STATUS_COMPLETED
    assert hist.records[2].train_nll < 1e-12


def test_run_zero_spread_workers_follow_one_worker():
    # without jitter every quadratic worker reports the same pair, so m
    # workers must retrace the single worker's run exactly
    def records(m):
        hist = run_experiment(quadratic_cfg(m=m, worker_jitter=0.0, epochs=5))
        return [(r.train_nll, r.sigma_max, r.retained_j) for r in hist.records]

    one = records(1)
    assert all(j == 0.0 for _, _, j in one)
    for m in (3, 6):
        assert records(m) == one


def test_run_synchrony_observer():
    cfg = blob_cfg(epochs=2)
    seen = []

    def observer(epoch, rnd, theta_read, reports, theta_new, stats):
        seen.append((epoch, rnd, theta_read.copy(), [r.theta.copy() for r in reports]))

    hist = run_experiment(cfg, round_observer=observer)
    assert hist.status == STATUS_COMPLETED
    n_rounds = rounds_per_epoch(640, 64, 1)
    assert len(seen) == 2 * n_rounds  # every round crossed exactly one barrier
    for epoch, rnd, theta_read, thetas in seen:
        assert len(thetas) == cfg.m  # all m reports present before aggregation


def test_run_rounds_use_one_shared_snapshot():
    # worker results must be reproducible from the observed snapshot alone
    cfg = blob_cfg(epochs=1, m=3)
    snapshots = []

    def observer(epoch, rnd, theta_read, reports, theta_new, stats):
        snapshots.append((theta_read.copy(), theta_new.copy()))

    run_experiment(cfg, round_observer=observer)
    # consecutive rounds chain: next round reads what the server wrote
    for (read_a, new_a), (read_b, _) in zip(snapshots, snapshots[1:]):
        assert np.array_equal(new_a, read_b)


def test_run_divergence_is_a_status_not_a_crash():
    # a rate large enough that the post-step forward pass overflows float64;
    # moderate rates on relu nets with nonnegative inputs stall in a dead
    # network instead of overflowing, so this is the genuine blow-up regime
    cfg = blob_cfg(activation="relu", local_lr=1e160, server_tau=1.0, epochs=10)
    hist = run_experiment(cfg)
    assert hist.status == STATUS_DIVERGED
    assert len(hist.records) <= 10
    assert not np.isfinite(hist.records[-1].train_nll)


def test_run_with_lr_cap_enabled():
    # the cap only ever shrinks tau, so the run must stay finite and the
    # per-round tau respect 1/sigma_max
    cfg = blob_cfg(use_lr_cap=True, server_tau=5.0)
    taus = []

    def observer(epoch, rnd, theta_read, reports, theta_new, stats):
        taus.append((stats.tau_used, stats.sigma_max))

    hist = run_experiment(cfg, round_observer=observer)
    assert hist.status == STATUS_COMPLETED
    for tau_used, sigma_max in taus:
        assert tau_used <= 5.0
        if sigma_max > 0:
            assert tau_used <= 1.0 / sigma_max + 1e-15


@pytest.mark.parametrize("path", PRESETS, ids=[p.stem for p in PRESETS])
def test_preset_runs_one_epoch(path):
    hist = run_experiment(replace(load_config(path), epochs=1))
    expected = STATUS_DIVERGED if path.stem == "relu_divergence" else STATUS_COMPLETED
    assert hist.status == expected
    assert len(hist.records) == 1


def test_run_sgd_average_baseline_completes():
    hist = run_experiment(blob_cfg(aggregator="sgd_average", m=1))
    assert hist.status == STATUS_COMPLETED
    assert all(np.isfinite(r.train_nll) for r in hist.records)
    assert all(r.retained_j == 0 for r in hist.records)


def test_sgd_equivalence_trajectory():
    """distnewton with lambda > 1 must track an independent mean-step loop."""
    cfg = blob_cfg(lam=2.0, epochs=4, seed=3)
    observed = []

    def observer(epoch, rnd, theta_read, reports, theta_new, stats):
        observed.append((theta_read, [(r.theta, r.grad) for r in reports], theta_new))

    hist = run_experiment(cfg, round_observer=observer)
    assert hist.status == STATUS_COMPLETED
    for theta_read, reports, theta_new in observed:
        thetas = [t for t, _ in reports]
        grads = [g for _, g in reports]
        ref = sum(thetas) / len(thetas) - cfg.server_tau * (sum(grads) / len(grads))
        scale = max(np.abs(ref).max(), 1.0)
        assert np.max(np.abs(theta_new - ref)) <= 1e-12 * scale
