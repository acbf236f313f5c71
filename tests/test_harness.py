import importlib
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnewton import linalg, operator
from distnewton.config import ExperimentConfig, load_config
from distnewton.data import Batch, shard, synthetic_blobs
from distnewton.errors import DimensionMismatchError, NonFiniteInputError, NonFiniteReportError
from distnewton.harness import (
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    _WorkerFeed,
    build_objective,
    initial_theta,
    load_dataset,
    per_worker_batch_sizes,
    rounds_per_epoch,
    run_experiment,
    server_round,
    worker_round,
)
from distnewton.objectives import MlpObjective, QuadraticObjective
from distnewton.operator import RUN_ROWS, WorkerReport, block_rows

from oracles import traced_peak

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


@pytest.mark.parametrize("s", [1, 3])
def test_worker_round_takes_each_batch_as_its_step_starts(s):
    # s + 1 batches, the t-th taken by next() after exactly t gradient calls,
    # so a feed may gather each into the buffer the previous step has read
    quad = QuadraticObjective.seeded(4, seed=1)
    calls = []

    class Counting:
        dim = 4

        def gradient(self, theta, batch=None):
            calls.append(batch)
            return quad.gradient(theta)

    taken = []

    def batches():
        for _ in range(s + 2):
            taken.append(len(calls))
            yield None

    it = batches()
    worker_round(np.ones(4), Counting(), it, s, 0.1, np.random.default_rng(0))
    assert taken == list(range(s + 1))
    assert len(list(it)) == 1


@pytest.mark.parametrize("m", [1, 3])
def test_lazy_batches_report_as_eager_batches(m):
    # the feed itself, gathering into its buffer as each step starts, gives
    # the report of fresh column gathers, bit for bit, and each round takes
    # the next s + 1 chunks; at m = 3 the shards are tiled to fill the chunks
    cfg = blob_cfg(m=m)
    ds = load_dataset(cfg)
    objective = build_objective(cfg)
    theta = initial_theta(cfg, objective)
    shards, s, chunks = shard(ds, m, 9), 2, 12
    for k, size in enumerate(per_worker_batch_sizes(cfg.global_batch, m)):
        feed = _WorkerFeed(ds, shards[k], chunks, np.empty((16, size), order="F"))
        for first in range(0, chunks, s + 1):
            sels = feed.schedule[first : first + s + 1]
            eager = [Batch(ds.inputs[:, sel], ds.labels[sel]) for sel in sels]
            reports = [
                worker_round(theta, objective, batches, s, 0.05, np.random.default_rng([k, first]), 0.01)
                for batches in (feed, eager)
            ]
            assert reports[0].theta.tobytes() == reports[1].theta.tobytes()
            assert reports[0].grad.tobytes() == reports[1].grad.tobytes()
        assert next(feed, None) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_feed_tiles_the_shard_row_by_row(shard_len, b, chunks, seed):
    # chunk c is the shard read cyclically from position c * b
    rng = np.random.default_rng(seed)
    ds = Batch(np.asfortranarray(rng.standard_normal((3, 60))), rng.integers(0, 7, 60))
    indices = rng.permutation(60)[:shard_len]
    feed = _WorkerFeed(ds, indices, chunks, np.empty((3, b), order="F"))
    for c in range(chunks):
        sel = np.array([indices[(c * b + i) % shard_len] for i in range(b)])
        got = feed.batch(c)
        assert got.inputs.tobytes(order="F") == ds.inputs[:, sel].tobytes(order="F")
        assert np.array_equal(got.labels, ds.labels[sel])


# ----------------------------------------------------------- server_round


def test_server_round_average_aggregator():
    reports = [WorkerReport([0.0, 2.0], [9.0, 9.0]), WorkerReport([2.0, 0.0], [-9.0, -9.0])]
    theta, stats = server_round(reports, 0.1, 0.5, False, "sgd_average")
    assert np.allclose(theta, [1.0, 1.0])
    assert stats.j == 0
    assert stats.sigma.size == 0


@pytest.mark.parametrize("m", range(1, 10))
def test_server_round_average_of_identical_reports_is_exact(m):
    # summed as differences from worker 0, duplicates add exact zeros; the
    # larger n crosses two step runs into a ragged tail
    rng = np.random.default_rng(m)
    for n in (1000, 2 * RUN_ROWS + 123):
        theta = rng.standard_normal(n)
        reports = [WorkerReport(theta, rng.standard_normal(n))] * m
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


def test_server_round_rejects_unknown_aggregator():
    # direct callers skip ExperimentConfig.validate: a typo must not run distnewton
    reports = [WorkerReport(np.ones(3), np.ones(3)), WorkerReport(np.zeros(3), np.ones(3))]
    with pytest.raises(ValueError, match="unknown aggregator 'sgd'"):
        server_round(reports, 0.1, 0.1, False, "sgd")


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # the benchmark's traced run wraps these names: a rename in src/ would break it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    with workloads.layer_tracer().installed():
        pass


def test_benchmark_tracer_passes_spectra_through(monkeypatch):
    # the traced run wraps sym_eig and thin_svd_via_gram by name and must
    # hand their numpy tuples back unchanged
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(31)
    mat = rng.standard_normal((40, 5))
    want = (linalg.sym_eig(mat.T @ mat), operator.thin_svd_via_gram(mat, 0.0))
    with workloads.layer_tracer().installed() as tracer:
        got = (linalg.sym_eig(mat.T @ mat), operator.thin_svd_via_gram(mat, 0.0))
    assert [span[0] for span in tracer.spans] == ["linalg.eig", "linalg.thin_svd", "linalg.eig"]
    assert [len(w) for w in want] == [len(g) for g in got] == [2, 3]
    for w, g in zip(want, got):
        assert type(g) is tuple
        assert all(np.array_equal(a, b) for a, b in zip(w, g))


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


def test_diverged_epoch_averages_j_over_completed_rounds(monkeypatch):
    # the flag record's j counts the rounds that ran, not the epoch's budget
    from distnewton import harness

    cfg = blob_cfg(epochs=1)
    failing_round, calls = 4, itertools.count()

    def fails_in_round_four(*args):
        if next(calls) == failing_round * cfg.m:
            raise NonFiniteInputError("injected")
        return worker_round(*args)

    monkeypatch.setattr(harness, "worker_round", fails_in_round_four)
    js = []
    hist = run_experiment(cfg, round_observer=lambda *a: js.append(a[-1].j))
    assert hist.status == STATUS_DIVERGED
    assert len(js) == failing_round < rounds_per_epoch(640, 64, 1) and max(js) > 0
    assert hist.records[-1].retained_j == np.mean(js)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("aggregator", ["distnewton", "sgd_average"])
def test_non_finite_theta_ends_the_run_through_the_server(monkeypatch, aggregator):
    # worker 1 sends a NaN theta with a finite gradient in round 4 of epoch 0:
    # the worker checks only its gradient, so the server names report 1, and
    # the run ends as it does when a worker raises in that round itself
    from distnewton import harness

    cfg = blob_cfg(aggregator=aggregator, epochs=2)
    failing_round = 4

    def run(fault):
        calls, sent = itertools.count(), []

        def faulty(*args):
            call, rep = next(calls), worker_round(*args)
            if call // cfg.m == failing_round:
                rep = fault(rep) if call % cfg.m == 1 else rep
                sent.append(rep)
            return rep

        monkeypatch.setattr(harness, "worker_round", faulty)
        return run_experiment(cfg), sent

    def nan_theta(rep):
        theta = rep.theta.copy()
        theta[3] = np.nan
        return WorkerReport(theta, rep.grad)

    def raises(rep):
        raise NonFiniteInputError("worker produced non-finite parameters")

    (hist, sent), (want, _) = run(nan_theta), run(raises)
    assert hist.status == want.status == STATUS_DIVERGED
    assert len(sent) == cfg.m and np.isfinite(sent[1].grad).all() and np.isnan(sent[1].theta).any()
    assert len(hist.records) == 1

    def fields(h):
        return np.array([(r.epoch, r.train_nll, r.sigma_max, r.retained_j) for r in h.records])

    assert np.array_equal(fields(hist), fields(want), equal_nan=True)
    with pytest.raises(NonFiniteReportError, match="theta") as exc:
        server_round(sent, cfg.lam, cfg.server_tau, False, aggregator)
    assert exc.value.report == 1


def test_run_reads_each_feed_chunk_once_in_schedule_order(monkeypatch):
    # uneven shards (640 samples over 3 workers) and uneven batches (64 over
    # 3), s = 2: every round, worker by worker, takes the next s + 1 chunks of
    # its own epoch feed, and an epoch reads each feed's schedule exactly once
    cfg = blob_cfg(m=3, local_steps=2, epochs=2)
    read = []
    gather = _WorkerFeed.batch

    def recorded(feed, chunk):
        read.append((feed, chunk))
        return gather(feed, chunk)

    monkeypatch.setattr(_WorkerFeed, "batch", recorded)
    hist = run_experiment(cfg)
    assert hist.status == STATUS_COMPLETED
    feeds = list(dict.fromkeys(feed for feed, _ in read))
    s, n_rounds = cfg.local_steps, rounds_per_epoch(640, 64, 2)
    assert len(feeds) == cfg.epochs * cfg.m
    assert [(feeds.index(feed), chunk) for feed, chunk in read] == [
        (epoch * cfg.m + k, c)
        for epoch in range(cfg.epochs)
        for rnd in range(n_rounds)
        for k in range(cfg.m)
        for c in range(rnd * (s + 1), (rnd + 1) * (s + 1))
    ]
    assert all(feed.schedule.shape[0] == n_rounds * (s + 1) for feed in feeds)


def test_non_finite_evaluation_keeps_its_loss_and_stops(monkeypatch):
    # every round stays finite but the full-train NLL overflows: the record
    # keeps inf, not the NaN of a failed round, averages j over every round,
    # and the run stops diverged after that epoch
    cfg = blob_cfg(epochs=3)
    monkeypatch.setattr(MlpObjective, "value", lambda self, theta, batch: float("inf"))
    js = []
    hist = run_experiment(cfg, round_observer=lambda *a: js.append(a[-1].j))
    assert hist.status == STATUS_DIVERGED
    assert len(hist.records) == 1 and hist.records[0].train_nll == float("inf")
    assert len(js) == rounds_per_epoch(640, 64, 1) and max(js) > 0
    assert hist.records[0].retained_j == np.mean(js)


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


def test_epoch_allocates_one_batch_and_one_activation():
    # beyond the dataset, an m = 1 epoch of the mnist_tanh preset allocates
    # one global batch of inputs, the worker's buffer, and one (hidden,
    # samples) activation for the full NLL; the margin holds the logits and
    # a few parameter vectors
    cfg = replace(load_config(PRESETS[0].with_name("mnist_tanh.cfg")), m=1, epochs=1)
    ds = load_dataset(cfg)
    hist, peak = traced_peak(lambda: run_experiment(cfg, dataset=ds))
    assert hist.status == STATUS_COMPLETED
    batch = 8 * cfg.mlp_layers[0] * cfg.global_batch
    activation = 8 * cfg.mlp_layers[1] * ds.sample_count
    assert peak <= batch + activation + 3 * 2**19


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
