"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
worker-count comparison uses real MNIST IDX files when the environment
variable DISTNEWTON_MNIST_DIR points at them, and otherwise falls back to
a deterministic digit-like surrogate (sparse per-class feature supports)
with the same shape and protocol.
"""

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from distnewton.cli import EXIT_DIVERGED, main, read_history_csv
from distnewton.config import DEFAULT_LAMBDA, ExperimentConfig
from distnewton.data import load_idx, synthetic_blobs
from distnewton.harness import (
    STATUS_COMPLETED,
    _epoch_seed,
    per_worker_batch_sizes,
    rounds_per_epoch,
    run_experiment,
    server_round,
    worker_round,
)
from distnewton.objectives import (
    Batch,
    MlpObjective,
    MlpSpec,
    QuadraticObjective,
    RosenbrockObjective,
    max_relative_gradient_error,
    probe_coords,
)
from distnewton.operator import (
    WorkerReport,
    apply,
    build_operator,
    center_reports,
    difference_spectrum,
    newton_update,
    operator_coefficients,
)
from distnewton.linalg import thin_svd_via_gram

from oracles import centered, report_means, singular_values_oracle

MNIST_ENV = "DISTNEWTON_MNIST_DIR"


def report(num, name, detail, elapsed):
    print(f"ACCEPTANCE {num} PASS {name}: {detail} ({elapsed:.2f} s)")


# =============================================================== criterion 1


def _one_step_newton():
    quad = QuadraticObjective.seeded(8, condition=100.0, seed=41)
    rng = np.random.default_rng(17)
    reports = []
    for _ in range(9):
        theta = quad.theta_star + rng.standard_normal(8)
        reports.append(WorkerReport(theta, quad.gradient(theta, out=np.empty(8))))
    means = report_means(reports)
    op = build_operator(center_reports(reports), 1e-6)
    theta_round, stats = server_round(reports, 1e-6, 1.0, False, "distnewton")
    assert stats.j == op.j == 8  # the 9 reports span the 8 dimensions
    # the explicit operator's step, and the round's own
    return quad, means, [newton_update(op, *means, 1.0), theta_round]


def test_criterion_1_exact_quadratic_one_step_newton():
    tic = time.perf_counter()
    quad, (theta_bar, g_bar), steps = _one_step_newton()
    bound = 1e-8 * (np.linalg.norm(theta_bar - quad.theta_star) + 1.0)
    # independent oracle: dense direct solve of A d = g_bar
    oracle = theta_bar - np.linalg.solve(quad.a, g_bar)
    errs = [np.linalg.norm(theta_new - quad.theta_star) for theta_new in steps]
    for theta_new, err in zip(steps, errs):
        assert err <= bound
        assert np.linalg.norm(theta_new - oracle) <= bound
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    report(1, "exact-quadratic one-step Newton",
           f"err={errs[0]:.2e} (operator), {errs[1]:.2e} (server_round) <= {bound:.2e}", elapsed)


# =============================================================== criterion 2


def _sgd_equivalence_cfg():
    return ExperimentConfig(
        objective_kind="mlp", mlp_layers=(16, 8, 4), activation="tanh",
        data_samples=3200, synth_seed=11,
        m=4, local_steps=1, local_lr=0.02, server_tau=0.05,
        epochs=2, global_batch=32, seed=5, aggregator="distnewton", lam=2.0,
    )


def _distnewton_trajectory():
    cfg = _sgd_equivalence_cfg()
    trace = []
    run_experiment(
        cfg,
        round_observer=lambda e, r, old, reps, new, st: trace.append(new),
    )
    return cfg, trace


def _reference_trajectory(cfg):
    """Independent loop: same workers, but the server is literally the
    mean parameter minus tau times the mean gradient."""
    from distnewton.harness import build_objective, load_dataset, initial_theta

    objective = build_objective(cfg)
    dataset = load_dataset(cfg)
    theta = initial_theta(cfg, objective)
    s = cfg.local_steps
    n_rounds = rounds_per_epoch(dataset.sample_count, cfg.global_batch, s)
    sizes = per_worker_batch_sizes(cfg.global_batch, cfg.m)
    from distnewton.data import shard

    trace = []
    for epoch in range(cfg.epochs):
        shards = shard(dataset, cfg.m, _epoch_seed(cfg.seed, epoch))
        # each worker's shard, tiled to the epoch's chunks and cut into its
        # batches, gathered here as fresh arrays rather than by the harness
        chunks = [
            np.resize(shards[k], (n_rounds * (s + 1), sizes[k])) for k in range(cfg.m)
        ]
        for rnd in range(n_rounds):
            rid = epoch * n_rounds + rnd
            reports = []
            for k in range(cfg.m):
                rng = np.random.default_rng([cfg.seed, k, rid])
                sels = chunks[k][rnd * (s + 1) : (rnd + 1) * (s + 1)]
                batches = [Batch(dataset.inputs[:, sel], dataset.labels[sel]) for sel in sels]
                fresh = WorkerReport(np.empty(objective.dim), np.empty(objective.dim))
                reports.append(
                    worker_round(theta, objective, batches, s, cfg.local_lr, rng, 0.0, fresh)
                )
            theta_bar = sum(r.theta for r in reports) / cfg.m
            g_bar = sum(r.grad for r in reports) / cfg.m
            theta = theta_bar - cfg.server_tau * g_bar
            trace.append(theta)
    return trace


def test_criterion_2_sgd_equivalence_100_rounds():
    tic = time.perf_counter()
    cfg, got = _distnewton_trajectory()
    want = _reference_trajectory(cfg)
    assert len(got) == len(want) == 100
    for stepped, ref in zip(got, want):
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.max(np.abs(stepped - ref)) <= 1e-12 * scale
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    report(2, "SGD equivalence at lambda=2", "100 rounds within 1e-12/step", elapsed)


# =============================================================== criterion 3


def _secant_cases():
    cases = []
    for i in range(50):
        n = (20, 100)[i % 2]
        m = (2, 4, 8)[i % 3]
        rng = np.random.default_rng(1000 + i)
        reports = [
            WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)
        ]
        cases.append((rng, reports))
    return cases


def _secant_outputs():
    """(kind, got, want) of each identity: the explicit operator's in
    n-space, and `operator_coefficients`' on the round's spectrum in
    m-space, where x = [0, w_k] (sigma_k u_k) gives c = [w_k, 0, 0] (y_k)
    and an x with W^T G x = 0 (off the span) gives c = [0, x]."""
    outs = []
    for rng, reports in _secant_cases():
        rows = center_reports(reports)
        op = build_operator(rows, 1e-6)
        big_theta, big_g = centered(reports)
        _, _, right = thin_svd_via_gram(big_g, 0.0)
        for k in range(op.j):
            vk = right[:, k]
            outs.append(("secant", apply(op, big_g @ vk), big_theta @ vk))
        z = rng.standard_normal(big_theta.shape[0])
        for _ in range(2):  # project out the retained span, twice for robustness
            for k in range(op.j):
                z -= (z @ op.us[:, k]) * op.us[:, k]
        outs.append(("orthogonal", apply(op, z), z))

        spec, m = difference_spectrum(rows, 1e-6), len(reports)
        w = spec.right[1:, : spec.retained]
        for k in range(spec.retained):
            want = np.concatenate([w[:, k], np.zeros(m)])
            outs.append(("m-secant", operator_coefficients(spec, np.append(0.0, w[:, k])), want))
        x = np.linalg.svd(w.T @ spec.gram[1:])[2][spec.retained :].T @ rng.standard_normal(m - spec.retained)
        outs.append(("m-orthogonal", operator_coefficients(spec, x), np.append(np.zeros(m - 1), x)))
    return outs


def test_criterion_3_secant_subspace_suite():
    tic = time.perf_counter()
    counts = dict.fromkeys(["secant", "orthogonal", "m-secant", "m-orthogonal"], 0)
    for kind, got, want in _secant_outputs():
        scale = np.linalg.norm(want)
        rtol = 1e-8 if kind.endswith("secant") else 1e-12
        assert np.linalg.norm(got - want) <= rtol * scale
        counts[kind] += 1
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    report(3, "secant-subspace suite",
           f"{counts['secant']} secant + {counts['orthogonal']} complement identities in n-space, "
           f"{counts['m-secant']} secant + {counts['m-orthogonal']} off-span identities in m-space", elapsed)


# =============================================================== criterion 4


def _svd_cases():
    cases = []
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        n = int(rng.integers(20, 201))
        m = int(rng.integers(2, 17))
        cases.append(rng.standard_normal((n, m)))
    return cases


def _svd_sigmas():
    return [thin_svd_via_gram(g, 0.0)[1] for g in _svd_cases()]


def test_criterion_4_svd_oracle():
    tic = time.perf_counter()
    for g in _svd_cases():
        u, sigma, right = thin_svd_via_gram(g, 0.0)
        approx = np.zeros_like(g)
        for k in range(u.shape[1]):
            approx += sigma[k] * np.outer(u[:, k], right[:, k])
        assert np.linalg.norm(g - approx) <= 1e-10 * np.linalg.norm(g)
        want = singular_values_oracle(g)
        assert np.allclose(sigma, want, rtol=1e-8, atol=1e-10 * want[0])
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    report(4, "SVD reconstruction + power-iteration oracle", "100 seeded matrices", elapsed)


# =============================================================== criterion 5


def _gradient_check_errors():
    errs = []
    quad = QuadraticObjective.seeded(12, condition=40.0, seed=50)
    ros = RosenbrockObjective(10)
    rng = np.random.default_rng(51)
    for _ in range(10):
        errs.append(("quadratic", 1e-8,
                     max_relative_gradient_error(quad, rng.standard_normal(12), h=1e-5)[0]))
        errs.append(("rosenbrock", 1e-6,
                     max_relative_gradient_error(ros, rng.uniform(-2, 2, 10), h=1e-6)[0]))
    data = synthetic_blobs(784, 10, 512, seed=52, spread=0.15, density=0.2)
    for activation, tol in (("tanh", 1e-6), ("relu", 1e-5)):
        mlp = MlpObjective(MlpSpec((784, 32, 10), activation))
        for point in range(10):
            prng = np.random.default_rng([53, point])
            theta = mlp.init_theta(prng)
            sel = prng.integers(0, data.sample_count, size=32)
            batch = Batch(data.inputs[:, sel], data.labels[sel])
            coords = probe_coords(mlp, theta, batch, prng)
            errs.append((activation, tol,
                         max_relative_gradient_error(mlp, theta, batch, coords=coords, h=1e-5)[0]))
    return errs


def test_criterion_5_gradient_checks():
    tic = time.perf_counter()
    worst = {}
    for kind, tol, err in _gradient_check_errors():
        assert err <= tol, f"{kind}: {err:.2e} > {tol:.0e}"
        worst[kind] = max(worst.get(kind, 0.0), err)
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(5, "gradient checks (10 points/objective)", detail, elapsed)


# =============================================================== criterion 6


def _space_claim_round():
    n, m = 100_000, 8
    rng = np.random.default_rng(60)
    reports = [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]
    tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    tic = time.perf_counter()
    theta_new, stats = server_round(reports, DEFAULT_LAMBDA, 0.01, False, "distnewton")
    elapsed = time.perf_counter() - tic
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return n, m, theta_new, stats, peak - base, elapsed


def test_criterion_6_space_and_time_claim():
    tic = time.perf_counter()
    n, m, theta_new, stats, peak, agg_time = _space_claim_round()
    # working set: centered Theta and G (2mn) plus the operator's U and Y
    # (2jn <= 2mn), i.e. c = 4, with a few n-vectors of slack; an n-by-n
    # buffer would need 80 GB and is categorically impossible under this cap
    budget = 4 * m * n * 8 + 8 * n * 8 + 1_000_000
    assert peak <= budget, f"peak {peak/1e6:.1f} MB over budget {budget/1e6:.1f} MB"
    assert agg_time < 0.25, f"aggregation took {agg_time*1000:.0f} ms"
    assert stats.j <= m
    assert theta_new.shape == (n,)
    elapsed = time.perf_counter() - tic
    report(6, "space claim at n=1e5 m=8",
           f"peak={peak/1e6:.1f} MB <= {budget/1e6:.1f} MB, round={agg_time*1000:.0f} ms", elapsed)


# =============================================================== criterion 7


def _comparison_dataset():
    mnist_dir = os.environ.get(MNIST_ENV)
    if mnist_dir:
        root = Path(mnist_dir)
        ds = load_idx(root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte", 5000)
        return ds, "mnist"
    ds = synthetic_blobs(784, 10, 5000, seed=20260811, spread=0.15, density=0.2)
    return ds, "surrogate"


def _comparison_cfg(m, aggregator, seed, lam):
    return ExperimentConfig(
        objective_kind="mlp", mlp_layers=(784, 32, 10), activation="tanh",
        data_samples=5000, synth_seed=20260811,
        synth_spread=0.15, synth_density=0.2,
        m=m, local_steps=1, local_lr=0.01, server_tau=0.01, epochs=20,
        global_batch=256, seed=seed, aggregator=aggregator, lam=lam,
        worker_jitter=0.01,
    )


def _comparison_matrix(dataset, lam, seeds=(0, 1, 2, 3, 4)):
    finals = {}
    for seed in seeds:
        b = run_experiment(_comparison_cfg(1, "sgd_average", seed, lam), dataset=dataset)
        f4 = run_experiment(_comparison_cfg(4, "distnewton", seed, lam), dataset=dataset)
        f8 = run_experiment(_comparison_cfg(8, "distnewton", seed, lam), dataset=dataset)
        assert all(h.status == STATUS_COMPLETED for h in (b, f4, f8))
        finals[seed] = (f8.final_nll, f4.final_nll, b.final_nll)
    return finals


def _ordering_result(finals):
    wins = sum(1 for f8, f4, b in finals.values() if f8 < f4 < b)
    gains = sorted((b - f8) / b for f8, f4, b in finals.values())
    median_gain = gains[len(gains) // 2]
    return wins, median_gain


def _ordering_margin(finals):
    """The seeds where the ordering fails, and the smallest relative margin
    min((f4 - f8) / f4, (b - f4) / b) among the seeds where it holds."""
    failing = [seed for seed, (f8, f4, b) in finals.items() if not f8 < f4 < b]
    margins = [min((f4 - f8) / f4, (b - f4) / b) for f8, f4, b in finals.values() if f8 < f4 < b]
    return failing, min(margins, default=float("nan"))


def test_criterion_7_worker_count_ordering():
    tic = time.perf_counter()
    dataset, source = _comparison_dataset()
    finals = _comparison_matrix(dataset, DEFAULT_LAMBDA)
    wins, median_gain = _ordering_result(finals)
    chosen = DEFAULT_LAMBDA
    if not (wins >= 4 and median_gain >= 0.05):
        # the criterion's escape hatch: some lambda in the grid must pass
        for lam in (0.01, 0.05, 0.1, 0.3):
            if lam == DEFAULT_LAMBDA:
                continue
            finals = _comparison_matrix(dataset, lam)
            wins, median_gain = _ordering_result(finals)
            if wins >= 4 and median_gain >= 0.05:
                chosen = lam
                break
    assert wins >= 4, f"ordering held on only {wins}/5 seeds"
    assert median_gain >= 0.05, f"median gain {median_gain:.1%} < 5%"
    assert chosen == DEFAULT_LAMBDA, (
        f"default lambda failed; {chosen} passed and must become the shipped default"
    )
    failing, margin = _ordering_margin(finals)
    elapsed = time.perf_counter() - tic
    assert elapsed < 600.0
    report(7, f"worker-count ordering on {source}",
           f"distnewton-8 < distnewton-4 < sgd on {wins}/5 seeds (fails on seeds {failing}), "
           f"median gain {median_gain:.0%}, smallest margin of a passing seed {margin:.2%}",
           elapsed)


# =============================================================== criterion 8


DIVERGENCE_CFG = """
objective.kind = mlp
objective.layers = 784,32,10
objective.activation = relu
data.samples = 1280
data.density = 0.2
data.spread = 0.15
data.seed = 20260811
harness.m = 4
harness.local_steps = 1
harness.local_lr = 1e160
harness.tau = 1.0
harness.epochs = 8
harness.global_batch = 256
harness.seed = 1
operator.lambda = 0.1
"""


def _divergence_run(tmp_path, tag):
    cfg = tmp_path / f"diverge-{tag}.cfg"
    cfg.write_text(DIVERGENCE_CFG, encoding="utf-8")
    out = tmp_path / f"out-{tag}"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, (out / "distnewton-4.csv").read_text()


def test_criterion_8_divergence_handling(tmp_path):
    tic = time.perf_counter()
    code, csv_text = _divergence_run(tmp_path, "a")
    assert code == EXIT_DIVERGED  # distinct exit code, no crash
    lines = csv_text.strip().splitlines()
    assert lines[0] == "epoch,train_nll,sigma_max,retained_j,wall_time_s"
    assert 1 <= len(lines) - 1 < 8  # truncated history
    for line in lines[1:]:
        assert len(line.split(",")) == 5  # every row well-formed
    assert "nan" in lines[-1]  # flag row marks the broken epoch
    elapsed = time.perf_counter() - tic
    report(8, "relu divergence at tau=1.0",
           f"exit={code}, truncated CSV with {len(lines)-1} row(s)", elapsed)


# =============================================================== criterion 9


def _strip_wall(csv_text):
    return "\n".join(",".join(l.split(",")[:-1]) for l in csv_text.strip().splitlines())


def test_criterion_9_determinism(tmp_path):
    tic = time.perf_counter()

    # criterion 1 workload, twice
    for a, b in zip(_one_step_newton()[2], _one_step_newton()[2]):
        assert np.array_equal(a, b)

    # criterion 2 trajectories, twice
    _, tr1 = _distnewton_trajectory()
    _, tr2 = _distnewton_trajectory()
    assert len(tr1) == len(tr2)
    for a, b in zip(tr1, tr2):
        assert np.array_equal(a, b)

    # criterion 3 outputs, twice
    for (_, a, _), (_, b, _) in zip(_secant_outputs(), _secant_outputs()):
        assert np.array_equal(a, b)

    # criterion 4 spectra, twice
    for a, b in zip(_svd_sigmas(), _svd_sigmas()):
        assert np.array_equal(a, b)

    # criterion 5 error table, twice
    e1 = [e for _, _, e in _gradient_check_errors()]
    e2 = [e for _, _, e in _gradient_check_errors()]
    assert e1 == e2

    # criterion 6 aggregation output, twice (timing excluded)
    _, _, out1, _, _, _ = _space_claim_round()
    _, _, out2, _, _, _ = _space_claim_round()
    assert np.array_equal(out1, out2)

    # criterion 7: one cell, twice, record-level bit identity
    dataset, _ = _comparison_dataset()
    h1 = run_experiment(_comparison_cfg(8, "distnewton", 0, DEFAULT_LAMBDA), dataset=dataset)
    h2 = run_experiment(_comparison_cfg(8, "distnewton", 0, DEFAULT_LAMBDA), dataset=dataset)
    assert [r.train_nll for r in h1.records] == [r.train_nll for r in h2.records]
    assert [r.sigma_max for r in h1.records] == [r.sigma_max for r in h2.records]
    assert [r.retained_j for r in h1.records] == [r.retained_j for r in h2.records]

    # criterion 8 CSV bytes, twice (wall-time column excluded)
    _, csv1 = _divergence_run(tmp_path, "d1")
    _, csv2 = _divergence_run(tmp_path, "d2")
    assert _strip_wall(csv1) == _strip_wall(csv2)

    elapsed = time.perf_counter() - tic
    report(9, "determinism", "criteria 1-8 workloads bit-identical across reruns", elapsed)
