import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from distnewton import harness, linalg
from distnewton.errors import DimensionMismatchError, NonFiniteInputError, NonFiniteReportError
from distnewton.harness import server_round
from distnewton.objectives import QuadraticObjective
from distnewton.operator import (
    RUN_ROWS,
    WorkerReport,
    _blocks,
    apply,
    block_rows,
    build_operator,
    center_reports,
    combine,
    difference_spectrum,
    newton_update,
    operator_coefficients,
    step_coefficients,
)

from oracles import (
    centered,
    degenerate_reports,
    newton_step_oracle,
    random_spanning_reports,
    report_means,
    svd_inverse_hessian,
    svd_reference_step,
    traced_peak,
)


def quadratic_reports(a, thetas, theta_star=None):
    theta_star = np.zeros(a.shape[0]) if theta_star is None else theta_star
    return [WorkerReport(t, a @ (np.asarray(t, dtype=float) - theta_star)) for t in thetas]


def diag_reports(theta_star=None):
    """The diag(2, 0.5) quadratic probed by four axis workers, and its Hessian."""
    a = np.diag([2.0, 0.5])
    return quadratic_reports(a, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], theta_star), a


def diag_operator(lam=1e-6):
    """The explicit operator of `diag_reports`, and the Hessian."""
    reports, a = diag_reports()
    return build_operator(center_reports(reports), lam), a


def random_batch(rng, n, m):
    reports = [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]
    return center_reports(reports)


def stacked(rows):
    """The n x (2m - 1) matrix [E | g_0 | D] of the step's c, from one pass
    of row blocks over the thetas, [theta_0 | E], and one over the
    gradients, [g_0 | D]."""
    e, d = (np.vstack([block.copy() for _, _, block in _blocks(vectors)]) for vectors in rows)
    return np.hstack([e[:, 1:], d])


def batch_centered(rows):
    """The centered matrices [0 | E] P and [0 | D] P, with P = I - 11^T/m,
    rebuilt from the differences in one pass of row blocks."""
    cols, m = stacked(rows), len(rows[0])
    p = np.eye(m) - 1.0 / m
    zero = np.zeros((cols.shape[0], 1))
    return np.hstack([zero, cols[:, : m - 1]]) @ p, np.hstack([zero, cols[:, m:]]) @ p


def gram_rtol(m, ratio):
    """The Gram route's relative error at a retained sigma_k / sigma_1."""
    return 1e-10 + m * np.finfo(float).eps / ratio**2


def near_threshold(ratios, lam):
    """Whether a ratio sigma_k / sigma_1 lies so near lam that the retention
    rule is not well defined."""
    return bool(np.any((ratios > 0.8 * lam) & (ratios < 1.25 * lam)))


# m workers drawn from `distinct` report pairs (duplicate workers when
# distinct < m, identical reports when distinct == 1) or on collinear spreads
on_degenerate_draws = given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.booleans(),
    st.integers(4, 40),
    st.sampled_from([1e-8, 1e-4, 1e-2, 0.1, 0.5]),
    st.integers(0, 2**31 - 1),
)


# -------------------------------------------------------- center_reports


def test_center_single_report():
    rep = WorkerReport([1.0, 2.0], [3.0, 4.0])
    batch = center_reports([rep])
    for got, want in zip(batch_centered(batch), centered([rep])):
        assert np.array_equal(got, np.zeros((2, 1)))
        assert np.array_equal(want, np.zeros((2, 1)))


def test_center_two_symmetric_reports():
    reports = [WorkerReport([0.0, 0.0], [0.0, 0.0]), WorkerReport([2.0, 0.0], [0.0, 0.0])]
    batch = center_reports(reports)
    for big_theta in (batch_centered(batch)[0], centered(reports)[0]):
        assert np.array_equal(big_theta[:, 0], [-1.0, 0.0])
        assert np.array_equal(big_theta[:, 1], [1.0, 0.0])


def test_center_three_reports_hand_oracle():
    thetas = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
    reports = [WorkerReport(t, [0.0, 0.0]) for t in thetas]
    batch = center_reports(reports)
    cols = stacked(batch)
    assert cols.shape == (2, 5)
    assert np.array_equal(cols[:, :2], [[-1.0, 1.0], [1.0, 2.0]])
    assert not cols[:, 2:].any()  # g_0 and D: every gradient is zero
    assert all(block.flags.f_contiguous for vectors in batch for _, _, block in _blocks(vectors))
    want = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(batch_centered(batch)[0], want)
    assert np.allclose(centered(reports)[0], want)


def test_center_empty_list_rejected():
    with pytest.raises(ValueError):
        center_reports([])


def test_center_dimension_mismatch_rejected():
    reports = [WorkerReport([1.0, 2.0], [0.0, 0.0]), WorkerReport([1.0], [0.0])]
    with pytest.raises(DimensionMismatchError):
        center_reports(reports)


def test_centered_columns_sum_to_zero():
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 9):
        big_theta, big_g = batch_centered(random_batch(rng, 20, m))
        scale = max(np.abs(big_theta).max(), 1.0)
        assert np.max(np.abs(big_theta.sum(axis=1))) <= 1e-10 * scale * m
        assert np.max(np.abs(big_g.sum(axis=1))) <= 1e-10 * m


# -------------------------------------------------------- build_operator


def test_identical_gradients_give_rank_zero():
    reports = [WorkerReport([1.0, 0.0], [1.0, 1.0]), WorkerReport([0.0, 1.0], [1.0, 1.0])]
    op = build_operator(center_reports(reports), 0.1)
    assert op.j == 0
    assert op.sigmas.shape == (0,)
    assert op.us.shape == (2, 0)
    assert op.ys.shape == (2, 0)


def test_lambda_above_one_forces_sgd_mode():
    rng = np.random.default_rng(2)
    op = build_operator(random_batch(rng, 10, 4), 2.0)
    assert op.j == 0


def test_lambda_must_be_positive():
    rng = np.random.default_rng(2)
    batch = random_batch(rng, 4, 2)
    for lam in (0.0, np.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            build_operator(batch, lam)


def test_diag_quadratic_recovers_inverse_hessian():
    op, a = diag_operator()
    assert op.j == 2
    a_inv = np.linalg.inv(a)
    rng = np.random.default_rng(3)
    for z in np.eye(2).tolist() + [rng.standard_normal(2) for _ in range(5)]:
        assert np.allclose(apply(op, z), a_inv @ np.asarray(z), atol=1e-10)


def test_monotone_rank_selection():
    rng = np.random.default_rng(4)
    batch = random_batch(rng, 30, 8)
    lams = [1e-8, 1e-3, 0.1, 0.5, 0.9, 1.5]
    js = [build_operator(batch, lam).j for lam in lams]
    assert js == sorted(js, reverse=True)


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-6, 0.999), st.floats(1e-6, 0.999))
def test_monotone_rank_selection_property(lam1, lam2):
    rng = np.random.default_rng(5)
    batch = random_batch(rng, 12, 5)
    j1 = build_operator(batch, min(lam1, lam2)).j
    j2 = build_operator(batch, max(lam1, lam2)).j
    assert j1 >= j2


def test_retention_respects_threshold():
    rng = np.random.default_rng(6)
    batch = random_batch(rng, 25, 6)
    op = build_operator(batch, 0.3)
    sigma = difference_spectrum(batch, 0.3).sigma
    assert sigma.shape == (5,)
    assert np.array_equal(op.sigmas, sigma[: op.j])
    assert all(s >= 0.3 * sigma[0] for s in op.sigmas)
    if op.j < sigma.size:
        assert sigma[op.j] < 0.3 * sigma[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(4, 40),
    st.sampled_from([1e-8, 1e-4, 1e-2, 0.1, 0.5]),
    st.integers(0, 2**31 - 1),
)
def test_operator_contracts_on_degenerate_batches(m, distinct, n, lam, seed):
    # m workers drawn from `distinct` report pairs: duplicate workers when
    # distinct < m, identical reports (sigma = 0) when distinct == 1
    reports = degenerate_reports(np.random.default_rng(seed), m, distinct, n, False)
    batch = center_reports(reports)
    theta_bar, g_bar = report_means(reports)
    want, j_ref, ratios = svd_reference_step(reports, lam, 0.7)
    # the retention rule is only well defined away from its threshold
    assume(not near_threshold(ratios, lam))

    op = build_operator(batch, lam)
    assert op.j <= m - 1
    assert op.j == j_ref
    assert op.us.shape == (n, op.j)
    assert op.us.flags.f_contiguous
    assert np.max(np.abs(op.us.T @ op.us - np.eye(op.j)), initial=0.0) <= 1e-10
    got = newton_update(op, theta_bar, g_bar, 0.7)
    step = np.linalg.norm(want - theta_bar)
    assert np.linalg.norm(got - want) <= 1e-8 * step


@settings(max_examples=80, deadline=None)
@on_degenerate_draws
# retains a singular-value ratio of 7.1e-4, which the Gram route squares
@example(m=7, distinct=7, collinear=False, n=5, lam=1e-8, seed=439)
def test_server_round_agrees_with_explicit_operator(m, distinct, collinear, n, lam, seed):
    # the factored step and the materialised operator read one spectrum
    reports = degenerate_reports(np.random.default_rng(seed), m, distinct, n, collinear)
    theta_new, stats = server_round(reports, lam, 0.7, False, "distnewton")
    batch = center_reports(reports)
    op = build_operator(batch, lam)
    assert stats.j == op.j
    assert stats.sigma.shape == (m - 1,)
    assert np.array_equal(stats.sigma[: op.j], op.sigmas)
    theta_bar, g_bar = report_means(reports)
    want = newton_update(op, theta_bar, g_bar, 0.7)
    assert np.linalg.norm(theta_new - want) <= 1e-10 * np.linalg.norm(want - theta_bar)
    # and both are numpy's SVD step, where the retention rule is well defined,
    # up to the Gram route's error of m eps (sigma_1 / sigma_j)^2
    want, j_ref, ratios = svd_reference_step(reports, lam, 0.7)
    if not near_threshold(ratios, lam):
        rtol = gram_rtol(m, ratios[j_ref - 1] if j_ref else 1.0)
        assert np.linalg.norm(theta_new - want) <= rtol * np.linalg.norm(want - theta_bar)


@pytest.mark.parametrize("m", range(1, 10))
def test_identical_reports_step_like_one_worker(m):
    # zero spread leaves every difference from worker 0 an exact zero, so no
    # rounding noise can pose as a curvature direction; the larger n crosses
    # two step runs into a ragged tail
    rng = np.random.default_rng(m)
    for n in (30, 2 * RUN_ROWS + 123):
        theta, g = rng.standard_normal(n), rng.standard_normal(n)
        for lam, tau in ((1e-8, 1.0), (0.1, 0.7)):
            theta_new, stats = server_round([WorkerReport(theta, g)] * m, lam, tau, False, "distnewton")
            assert stats.j == 0
            assert np.array_equal(theta_new, theta - tau * g)


# ------------------------------------------------------ step_coefficients


def test_step_coefficients_from_the_spectrum_alone():
    # j = 0 is the averaged gradient step and m = 1 is theta - tau g, both
    # exactly; at any j, combine takes the explicit operator's step
    tau, rng = 0.7, np.random.default_rng(21)
    cbar = np.full(4, 1.0 / 5)
    c = step_coefficients(difference_spectrum(random_batch(rng, 6, 5), 2.0), 5, tau)
    assert np.array_equal(c, np.concatenate([cbar, [-tau], -tau * cbar]))
    c = step_coefficients(difference_spectrum(random_batch(rng, 6, 1), 0.1), 1, tau)
    assert np.array_equal(c, [-tau])

    # the minimizer moved off the workers' mean, so that g_bar != 0
    theta_star = np.array([0.3, -0.4])
    reports, _ = diag_reports(theta_star)
    rows = center_reports(reports)
    spec = difference_spectrum(rows, 1e-6)
    assert spec.retained == 2
    theta_bar, g_bar = report_means(reports)
    want = newton_update(build_operator(rows, 1e-6), theta_bar, g_bar, 1.0)
    got = combine(rows, step_coefficients(spec, len(reports), 1.0))
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want - theta_bar)
    assert np.linalg.norm(got - theta_star) <= 1e-14 * np.linalg.norm(theta_star)


# -------------------------------------------------- operator_coefficients


@settings(max_examples=80, deadline=None)
@on_degenerate_draws
def test_operator_coefficients_keep_the_contracts(m, distinct, collinear, n, lam, seed):
    # H's contracts as identities of the spectrum that a round steps with
    rng = np.random.default_rng(seed)
    reports = degenerate_reports(rng, m, distinct, n, collinear)
    rows = center_reports(reports)
    spec = difference_spectrum(rows, lam)
    j, sigma = spec.retained, spec.sigma
    assert spec.right.shape == (m, m - 1)  # so j <= m - 1 by the basis's shape
    w, zeros = spec.right[1:, :j], np.zeros(m)
    checked = []
    for k in range(j):  # secant: x = [0, w_k] is sigma_k u_k, and H maps it to y_k = E w_k
        x = np.append(0.0, w[:, k])
        c = operator_coefficients(spec, x)
        err = np.linalg.norm(c - np.append(w[:, k], zeros))
        assert err <= gram_rtol(m, sigma[k] / sigma[0]) * np.linalg.norm(w[:, k])
        checked.append((x, c))
    # off the span: [g_0 | D] x is orthogonal to every u_k iff W^T D^T [g_0 | D] x
    # = 0; at j = 0 every x is, and a is exactly zero
    x = np.linalg.svd(w.T @ spec.gram[1:])[2][j:].T @ rng.standard_normal(m - j)
    c = operator_coefficients(spec, x)
    rtol = gram_rtol(m, sigma[j - 1] / sigma[0]) if j else 0.0
    assert np.linalg.norm(c - np.append(zeros[1:], x)) <= rtol * np.linalg.norm(x)
    checked.append((x, c))
    # j = 0 at lam = 2 also gives a = 0 exactly, and m = 1 gives [x_0]
    x = rng.standard_normal(m)
    assert np.array_equal(operator_coefficients(difference_spectrum(rows, 2.0), x), np.append(zeros[1:], x))
    x = np.append(1.0, np.full(m - 1, 1.0 / m))  # [g_0 | D] x = g_bar: the step's x
    checked.append((x, operator_coefficients(spec, x)))

    # through combine, each c is theta_0 + H [g_0 | D] x with numpy's SVD H
    h, u, ratios = svd_inverse_hessian(reports, lam)
    if near_threshold(ratios, lam):
        return
    assert u.shape[1] == j
    cols, theta_0 = stacked(rows), rows[0][0]
    rtol = gram_rtol(m, ratios[j - 1] if j else 1.0)
    for x, c in checked:
        want = theta_0 + h @ (cols[:, m - 1 :] @ x)
        # combine sums 2m terms, so its rounding scales with their norms, which
        # exceed H [g_0 | D] x where [g_0 | D] x cancels (m > n)
        terms = np.abs(c) @ np.linalg.norm(cols, axis=0) + np.linalg.norm(theta_0)
        assert np.linalg.norm(combine(rows, c) - want) <= rtol * terms


@settings(max_examples=80, deadline=None)
@on_degenerate_draws
def test_correction_d_part_is_uphill(m, distinct, collinear, n, lam, seed):
    # at the step's x = [1, cbar], [g_0 | D] x = g_bar and D a = U U^T g_bar,
    # so the D part of the correction, tau D a, has (D a) . g_bar =
    # ||U^T g_bar||^2 >= 0: in m-space, a . (G x) = ||Sigma^-1 W^T G x||^2
    # with G the Gram's rows for D
    reports = degenerate_reports(np.random.default_rng(seed), m, distinct, n, collinear)
    rows = center_reports(reports)
    spec = difference_spectrum(rows, lam)
    j, eps = spec.retained, np.finfo(float).eps
    x = np.append(1.0, np.full(m - 1, 1.0 / m))
    a = operator_coefficients(spec, x)[: m - 1]
    gx = spec.gram[1:] @ x  # D^T g_bar / scale^2
    q = (spec.right[1:, :j].T @ gx) / (spec.sigma[:j] / spec.scale)
    rounding = 4 * m * eps * np.linalg.norm(a) * np.linalg.norm(gx)
    assert a @ gx >= -rounding
    assert abs(a @ gx - q @ q) <= rounding

    _, u, ratios = svd_inverse_hessian(reports, lam)
    if near_threshold(ratios, lam):
        return
    assert u.shape[1] == j
    _, g_bar = report_means(reports)
    d_a = stacked(rows)[:, m:] @ a
    rtol = gram_rtol(m, ratios[j - 1] if j else 1.0)
    assert abs(d_a @ g_bar - np.sum((u.T @ g_bar) ** 2)) <= rtol * np.linalg.norm(d_a) * np.linalg.norm(g_bar)


# --------------------------------------------------------------- combine


@pytest.mark.parametrize("averaging", [False, True])
@pytest.mark.parametrize("edge", [-1, 0, 1])
@pytest.mark.parametrize("m", [1, 2, 16, 33])
def test_combine_matches_dense_oracle(m, edge, averaging):
    # n sits on, one below or one above a run edge, past the first run; the
    # 2m - 1 coefficients are random, or sgd_average's [1/m, 0, 0]
    n = 2 * RUN_ROWS + edge
    rng = np.random.default_rng([m, n])
    rows = random_batch(rng, n, m)
    coef = np.concatenate([np.full(m - 1, 1.0 / m), np.zeros(m)]) if averaging else rng.standard_normal(2 * m - 1)
    theta_0, g_0 = rows[0][0], rows[1][0]
    want = theta_0 + stacked(rows) @ coef
    got = combine(rows, coef)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want - theta_0)
    if m == 1:  # theta_0 + c g_0 exactly, theta_0 itself when averaging
        assert np.array_equal(got, theta_0 + coef[0] * g_0)


# --------------------------------------------------------- streamed round


def test_single_worker_round_skips_gram_and_eigensolve(monkeypatch):
    # with m = 1 there are no differences, so j = 0 is known without a Gram
    def forbidden(*args):
        raise AssertionError("m = 1 formed a Gram matrix or ran the eigensolver")

    monkeypatch.setattr(linalg, "blocked_gram", forbidden)
    monkeypatch.setattr(linalg, "sym_eig", forbidden)
    rng = np.random.default_rng(13)
    theta, g = rng.standard_normal(50), rng.standard_normal(50)
    theta_new, stats = server_round([WorkerReport(theta, g)], 0.1, 0.7, False, "distnewton")
    assert np.array_equal(theta_new, theta - 0.7 * g)
    assert stats.sigma.size == 0 and stats.sigma_max == 0.0
    assert stats.j == 0


def large_reports(n, m, seed):
    rng = np.random.default_rng(seed)
    return [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]


@pytest.mark.parametrize("aggregator", ["distnewton", "sgd_average"])
def test_server_round_allocates_no_n_by_m_buffer(aggregator):
    # pass 1's row block is freed before combine starts, so the peak is
    # theta_new and combine's one difference run
    n = 100_000
    reports = large_reports(n, 8, 14)
    _, peak = traced_peak(lambda: server_round(reports, 0.1, 0.01, False, aggregator))
    assert peak <= 8 * n + 8 * RUN_ROWS + 2**16, f"peak {peak / (8 * n):.2f} x 8n"


def test_single_worker_round_allocates_only_the_step():
    # at m = 1 and the train_m1 size there is no difference to form: the
    # round allocates theta_new, and no block or run, and copies no report
    n = 25_450
    reports = large_reports(n, 1, 15)
    _, peak = traced_peak(lambda: server_round(reports, 0.1, 0.01, False, "distnewton"))
    assert peak <= 1.1 * 8 * n, f"peak {peak / (8 * n):.2f} x 8n"


def test_build_operator_allocates_only_its_vectors():
    # us and ys are written block by block: O(jn), with no n x m buffer
    n = 100_000
    reports = large_reports(n, 8, 14)
    op, peak = traced_peak(lambda: build_operator(center_reports(reports), 0.1))
    assert op.j == 7
    assert peak <= (2 * op.j + 1) * 8 * n + 2 * 2**20, f"peak {peak / 1e6:.2f} MB"


def multi_block_reports(m, seed):
    """Reports over two full row blocks and a ragged tail."""
    n = 2 * block_rows(m) + 123
    rng = np.random.default_rng(seed)
    return [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]


@pytest.mark.parametrize("m", [2, 5])
def test_multi_block_round_agrees_with_explicit_operator(m):
    reports = multi_block_reports(m, 15 + m)
    theta_new, stats = server_round(reports, 0.1, 0.7, False, "distnewton")
    batch = center_reports(reports)
    op = build_operator(batch, 0.1)
    assert stats.j == op.j > 0
    assert np.array_equal(stats.sigma[: op.j], op.sigmas)
    theta_bar, g_bar = report_means(reports)
    want = newton_update(op, theta_bar, g_bar, 0.7)
    assert np.linalg.norm(theta_new - want) <= 1e-10 * np.linalg.norm(want - theta_bar)

    # the Gram of the blocks overflows: the blocked rerun keeps j and scales the step
    c = 1e155
    scaled = [WorkerReport(c * r.theta, c * r.grad) for r in reports]
    theta_c, stats_c = server_round(scaled, 0.1, 0.7, False, "distnewton")
    assert stats_c.j == stats.j
    assert np.linalg.norm(theta_c / c - theta_new) <= 1e-12 * np.linalg.norm(theta_new)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2), st.integers(-1, 1))
def test_blocks_hand_out_rows_of_the_stacked_layout(m, full, edge):
    # n sits on, just below or just above a block edge; a pass over the
    # thetas or the gradients yields m-column blocks with the same rows as
    # [v_0 | v_1 - v_0 | ...] stacked whole
    n = max(full * block_rows(m) + edge, 0)
    thetas, grads = np.random.default_rng(n + m).standard_normal((2, m, n))
    rows = center_reports([WorkerReport(t, g) for t, g in zip(thetas, grads)])
    for drawn, vectors in zip((thetas, grads), rows):
        want = np.hstack([drawn[:1].T, (drawn[1:] - drawn[0]).T])
        seen = 0
        for lo, hi, block in _blocks(vectors):
            assert lo == seen and block.shape == (hi - lo, m)
            assert np.array_equal(block, want[lo:hi])
            seen = hi
        assert seen == n


def test_wrong_length_report_rejected_before_any_pass(monkeypatch):
    reports = multi_block_reports(3, 16)
    short_theta = reports + [WorkerReport(np.ones(5), np.ones(5))]
    # nothing but center_reports checks a gradient against its theta
    short_grad = reports[:2] + [WorkerReport(reports[2].theta, np.ones(5))]
    passes = []
    monkeypatch.setattr(harness, "difference_spectrum", lambda *args: passes.append("spectrum"))
    monkeypatch.setattr(harness, "combine", lambda *args: passes.append("combine"))
    for bad, name in ((short_theta, "report 3 theta"), (short_grad, "report 2 gradient")):
        for aggregator in ("distnewton", "sgd_average"):
            with pytest.raises(DimensionMismatchError, match=f"{name} has length 5"):
                server_round(bad, 0.1, 0.7, False, aggregator)
    assert passes == []


@pytest.mark.parametrize("tau", [-1.0, 0.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("aggregator", ["distnewton", "sgd_average"])
def test_bad_tau_rejected_before_any_pass(monkeypatch, aggregator, tau):
    # -1 would step uphill and 0 return the mean of the thetas, silently
    passes = []
    monkeypatch.setattr(harness, "difference_spectrum", lambda *args: passes.append("spectrum"))
    monkeypatch.setattr(harness, "combine", lambda *args: passes.append("combine"))
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        server_round([WorkerReport(np.ones(4), np.ones(4))] * 3, 0.1, tau, False, aggregator)
    assert passes == []


@pytest.mark.parametrize("aggregator", ["distnewton", "sgd_average"])
def test_lr_cap_rejected_before_any_pass(monkeypatch, aggregator):
    # the step-length cap is gone: a true fourth argument must not step with tau
    passes = []
    monkeypatch.setattr(harness, "difference_spectrum", lambda *args: passes.append("spectrum"))
    monkeypatch.setattr(harness, "combine", lambda *args: passes.append("combine"))
    with pytest.raises(ValueError, match="use_lr_cap must be False"):
        server_round([WorkerReport(np.ones(4), np.ones(4))] * 3, 0.1, 0.5, True, aggregator)
    assert passes == []


# ----------------------------------------------------------------- apply


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 40), st.integers(0, 2**31 - 1))
def test_server_round_is_scale_equivariant(m, extra, seed):
    # reports scaled by c scale sigma by c and leave u, v and j alone, so the
    # step scales by c; at 1e155 the Gram of the reports overflows, from
    # about 1e153 it is finite but past GRAM_RANGE, and from 1e-150 down it
    # underflows into subnormals or to zero
    rng = np.random.default_rng(seed)
    n = m + extra
    reports = [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]
    theta_new, stats = server_round(reports, 0.1, 0.5, False, "distnewton")
    # this c puts the largest diagonal of the Gram of [g_0 | D] at 0.75 finfo.max
    g = np.column_stack([r.grad for r in reports])
    g[:, 1:] -= g[:, :1]
    edge = np.sqrt(0.75 * np.finfo(float).max) / np.max(np.linalg.norm(g, axis=0))
    for c in (1e-300, 1e-200, 1e-160, 1e-150, 1e150, 1.5e153, 1.8e153, edge, 1e155):
        scaled = [WorkerReport(c * r.theta, c * r.grad) for r in reports]
        theta_c, stats_c = server_round(scaled, 0.1, 0.5, False, "distnewton")
        assert stats_c.j == stats.j
        err = np.linalg.norm(theta_c / c - theta_new)
        assert err <= 1e-12 * np.linalg.norm(theta_new)


def window_reports(g_0, g_1, n, c):
    """Two reports, scaled by c, whose gradients lead with g_0 and g_1 and
    carry O(1) entries after them."""
    rows = ((g_0, 1.0, -1.0), (g_1, 2.0, 0.5))
    return [WorkerReport(c * (np.arange(n) + k), c * np.array(g[:n])) for k, g in enumerate(rows)]


# (g_0, g_1): a Gram of [g_0 | D] whose diagonal lies between finfo.max * eps
# and finfo.max, so that averaging it with its transpose overflowed, and one
# whose D^T g_bar also overflows when the plain sum is kept
WINDOW_CASES = {"average": (0.0, 1.2e154), "dtg": (1.2e154, 2.4e154)}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("g_0, g_1", WINDOW_CASES.values(), ids=WINDOW_CASES.keys())
def test_finite_gram_past_the_range_is_rescaled(g_0, g_1, n):
    # the suite turns any RuntimeWarning of an overflow into an error
    reports, small = window_reports(g_0, g_1, n, 1.0), window_reports(g_0, g_1, n, 2.0**-600)
    theta_avg, _ = server_round(reports, 0.1, 0.5, False, "sgd_average")
    assert np.all(np.isfinite(theta_avg))
    theta_new, stats = server_round(reports, 0.1, 0.5, False, "distnewton")
    _, stats_small = server_round(small, 0.1, 0.5, False, "distnewton")
    assert np.all(np.isfinite(theta_new)) and stats.j == 1
    assert abs(stats.sigma[0] - 2.0**600 * stats_small.sigma[0]) <= 1e-12 * stats.sigma[0]

    op = build_operator(center_reports(reports), 0.1)
    assert op.j == 1 and np.array_equal(op.sigmas, stats.sigma)
    theta_bar, g_bar = report_means(reports)
    assert np.all(np.isfinite(newton_update(op, theta_bar, g_bar, 0.5)))

    mats = [np.column_stack([r.grad for r in rs]) for rs in (reports, small)]
    for mat in mats:
        mat[:, 1] -= mat[:, 0]
    (u, sigma, _), (_, sigma_small, _) = (linalg.thin_svd_via_gram(mat, 0.1) for mat in mats)
    assert u.shape[1] == 1 and np.all(np.isfinite(u))
    assert abs(sigma[0] - 2.0**600 * sigma_small[0]) <= 1e-12 * sigma[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 40), st.integers(0, 2**31 - 1))
def test_build_operator_is_scale_equivariant(m, extra, seed):
    # reports scaled by c leave j alone and give finite unit u_k, also at
    # the subnormal 1e-310, where the Gram's scale is subnormal too and the
    # right vectors divided by it would overflow
    rng = np.random.default_rng(seed)
    n = m + extra
    reports = [WorkerReport(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(m)]
    op = build_operator(center_reports(reports), 0.1)
    for c in (1e-310, 1e-300, 1e-150, 1e155):
        scaled = [WorkerReport(c * r.theta, c * r.grad) for r in reports]
        op_c = build_operator(center_reports(scaled), 0.1)
        assert op_c.j == op.j
        assert np.all(np.isfinite(op_c.us))
        assert np.allclose(np.linalg.norm(op_c.us, axis=0), 1.0, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("worker", [0, 3])
def test_non_finite_gradient_report_is_named(worker, bad):
    rng = np.random.default_rng(17)
    reports = [WorkerReport(rng.standard_normal(40), rng.standard_normal(40)) for _ in range(5)]
    reports[worker].grad[7] = bad
    # sgd_average weighs every gradient by zero, which a NaN or an infinity
    # turns into a NaN in theta_new
    for call in (lambda: server_round(reports, 0.1, 0.5, False, "distnewton"),
                 lambda: server_round(reports, 0.1, 0.5, False, "sgd_average"),
                 lambda: build_operator(center_reports(reports), 0.1)):
        with pytest.raises(NonFiniteReportError, match=f"report {worker}") as exc:
            call()
        assert exc.value.report == worker


@pytest.mark.parametrize("field, name", [("theta", "theta"), ("grad", "gradient")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("worker", [0, 3])
def test_build_operator_names_a_non_finite_report(worker, bad, field, name):
    rng = np.random.default_rng(19)
    reports = [WorkerReport(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(4)]
    getattr(reports[worker], field)[2] = bad
    with pytest.raises(NonFiniteReportError, match=f"report {worker}: {name}") as exc:
        build_operator(center_reports(reports), 0.1)
    assert exc.value.report == worker


@pytest.mark.parametrize("aggregator", ["distnewton", "sgd_average"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("worker", [0, 3])
def test_non_finite_theta_report_is_named(worker, bad, aggregator):
    rng = np.random.default_rng(18)
    reports = [WorkerReport(rng.standard_normal(40), rng.standard_normal(40)) for _ in range(5)]
    reports[worker].theta[7] = bad
    with pytest.raises(NonFiniteReportError, match=f"report {worker}: theta") as exc:
        server_round(reports, 0.1, 0.5, False, aggregator)
    assert exc.value.report == worker


OVERFLOWING = {  # finite reports whose differences from worker 0 pass 1.8e308
    "grad": [WorkerReport([0.0, 0.0, 0.0], [1e308, 1.0, 2.0]),
             WorkerReport([1.0, 0.0, 0.0], [-1e308, 3.0, 1.0])],
    "theta": [WorkerReport([1e308, 0.0, 0.0], [1.0, 1.0, 2.0]),
              WorkerReport([-1e308, 0.0, 0.0], [2.0, 3.0, 1.0])],
}


@pytest.mark.parametrize(
    "aggregator, field",
    [("distnewton", "grad"), ("distnewton", "theta"), ("sgd_average", "grad"), ("sgd_average", "theta")],
)
def test_overflowing_differences_of_finite_reports_are_named(aggregator, field):
    with pytest.raises(NonFiniteInputError, match="differences from worker 0") as exc:
        server_round(OVERFLOWING[field], 0.1, 0.5, False, aggregator)
    assert not isinstance(exc.value, NonFiniteReportError)


def test_non_finite_input_to_thin_svd_is_named():
    mat = np.ones((6, 3))
    mat[2, 1] = np.inf
    with pytest.raises(NonFiniteInputError):
        linalg.thin_svd_via_gram(mat, 0.1)


def test_apply_rank_zero_is_identity():
    reports = [WorkerReport([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])]
    op = build_operator(center_reports(reports), 0.1)
    z = np.array([4.0, -5.0, 6.0])
    assert np.array_equal(apply(op, z), z)


def test_apply_orthogonal_input_passes_through():
    rng = np.random.default_rng(7)
    batch = random_batch(rng, 40, 6)
    op = build_operator(batch, 1e-6)
    z = rng.standard_normal(40)
    # project out every u_k
    for k in range(op.j):
        z = z - (z @ op.us[:, k]) * op.us[:, k]
    out = apply(op, z)
    assert np.linalg.norm(out - z) <= 1e-12 * np.linalg.norm(z)


def test_apply_secant_subspace_identity():
    rng = np.random.default_rng(8)
    for m in (2, 4, 8):
        reports = [
            WorkerReport(rng.standard_normal(30), rng.standard_normal(30)) for _ in range(m)
        ]
        batch = center_reports(reports)
        op = build_operator(batch, 1e-8)
        for k in range(op.j):
            zin = op.sigmas[k] * op.us[:, k]      # = G v_k
            want = op.ys[:, k]                     # = Theta v_k
            got = apply(op, zin)
            assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 29),
    st.floats(0.0, 6.0),
    st.integers(2, 39),
    st.integers(0, 2**31 - 1),
)
def test_secant_residual_on_exact_quadratics(dim, log_kappa, m, seed):
    # exact gradients give G = A Theta, so A y_k = sigma_k u_k up to rounding:
    # the Gram route resolves u_k to about eps * sigma_1 / sigma_k, and A
    # magnifies that by at most kappa(A).  Seeded probes over these ranges
    # (dim 2-29, kappa <= 1e6, m 2-39, lambda 1e-8) put the worst ratio to
    # eps * kappa * sigma_1 / sigma_k at 1e2 to 2e3, so c = 1e4 leaves a
    # margin of at least 5.
    kappa = 10.0**log_kappa
    quad = QuadraticObjective.seeded(dim, condition=kappa, seed=seed)
    reports = random_spanning_reports(quad.a, quad.theta_star, np.zeros(dim), m, seed)
    op = build_operator(center_reports(reports), 1e-8)
    eps = np.finfo(np.float64).eps
    for k in range(op.j):
        sigma = op.sigmas[k]
        residual = np.linalg.norm(quad.a @ op.ys[:, k] - sigma * op.us[:, k]) / sigma
        assert residual <= 1e4 * eps * kappa * op.sigmas[0] / sigma


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31 - 1))
def test_apply_linearity(a_coef, b_coef, seed):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, 15, 4)
    op = build_operator(batch, 0.05)
    z1 = rng.standard_normal(15)
    z2 = rng.standard_normal(15)
    lhs = apply(op, a_coef * z1 + b_coef * z2)
    rhs = a_coef * apply(op, z1) + b_coef * apply(op, z2)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_apply_dimension_mismatch():
    op, _ = diag_operator()
    with pytest.raises(DimensionMismatchError):
        apply(op, [1.0, 2.0, 3.0])


# --------------------------------------------------------- newton_update


def test_newton_update_rank_zero_is_sgd_step():
    reports = [WorkerReport([1.0, 2.0], [0.5, 0.5]), WorkerReport([1.0, 2.0], [0.5, 0.5])]
    batch = center_reports(reports)
    op = build_operator(batch, 0.1)
    assert op.j == 0
    theta_bar, g_bar = report_means(reports)
    out = newton_update(op, theta_bar, g_bar, 0.3)
    assert np.allclose(out, theta_bar - 0.3 * g_bar, atol=1e-15)


def test_newton_update_zero_gradient_is_stationary():
    op, _ = diag_operator()
    theta_bar = np.array([2.0, -1.0])
    assert np.array_equal(newton_update(op, theta_bar, np.zeros(2), 5.0), theta_bar)


def test_newton_update_diag_quadratic_one_step():
    op, a = diag_operator()
    theta_bar = np.array([1.0, 1.0])
    g_bar = a @ theta_bar
    out = newton_update(op, theta_bar, g_bar, 1.0)
    assert np.allclose(out, [0.0, 0.0], atol=1e-10)


def test_newton_update_matches_direct_solve_oracle():
    rng = np.random.default_rng(9)
    for trial in range(5):
        n = 6
        quad = QuadraticObjective.seeded(n, condition=50.0, seed=trial)
        reports = random_spanning_reports(
            quad.a, quad.theta_star, rng.standard_normal(n), m=n + 1 + trial, seed=100 + trial
        )
        batch = center_reports(reports)
        # lambda sits above the Gram route's sqrt(eps) noise floor but below
        # the smallest genuine relative singular value of the centered batch
        op = build_operator(batch, 1e-6)
        assert op.j == n
        theta_bar, g_bar = report_means(reports)
        got = newton_update(op, theta_bar, g_bar, 1.0)
        want = newton_step_oracle(quad.a, theta_bar, g_bar)
        assert np.linalg.norm(got - want) <= 1e-8 * (np.linalg.norm(want) + 1.0)


# ------------------------------------------------------------ invariants


def test_worker_order_invariance():
    rng = np.random.default_rng(10)
    reports = [WorkerReport(rng.standard_normal(20), rng.standard_normal(20)) for _ in range(6)]
    perm = rng.permutation(6)
    base = center_reports(reports)
    shuffled = center_reports([reports[i] for i in perm])
    op1 = build_operator(base, 0.1)
    op2 = build_operator(shuffled, 0.1)
    for _ in range(5):
        z = rng.standard_normal(20)
        out1, out2 = apply(op1, z), apply(op2, z)
        assert np.linalg.norm(out1 - out2) <= 1e-10 * max(np.linalg.norm(out1), 1.0)


def test_operator_storage_bound():
    rng = np.random.default_rng(12)
    n, m = 500, 8
    batch = random_batch(rng, n, m)
    op = build_operator(batch, 1e-8)
    stored = op.sigmas.size + op.us.size + op.ys.size
    assert stored <= op.j * 2 * n + op.j
    assert op.us.shape == (n, op.j)
    assert op.ys.shape == (n, op.j)
    # orthonormal retained left vectors
    assert np.max(np.abs(op.us.T @ op.us - np.eye(op.j))) <= 1e-8


def test_retained_triples_view():
    op, _ = diag_operator()
    assert op.sigmas.shape == (op.j,)
    assert np.all(op.sigmas[:-1] >= op.sigmas[1:])
    assert op.us[:, 0].shape == (2,)
    assert op.ys[:, 0].shape == (2,)
