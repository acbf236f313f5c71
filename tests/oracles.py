"""Independent brute-force oracles.

Everything here deliberately avoids the package's own decomposition code:
singular values come from power iteration with deflation on the small
Gram matrix, Newton steps come from a dense direct solve, the dense
inverse-Hessian operator and its step come from numpy's SVD of the
centered matrices, synthetic datasets come from one whole-matrix
formula, and the MLP's initial draw is concatenated from per-layer
pieces.  These are the second routes the fast paths are checked against;
`traced_peak` is the one measurement that memory bounds are checked with.
"""

import tracemalloc

import numpy as np

from distnewton.operator import WorkerReport


def power_iteration_eigs(sym, rtol=1e-13, max_iter=200_000, seed=12345):
    """All eigenvalues of a symmetric PSD matrix, descending.

    Plain power iteration: iterate v <- S v / ||S v|| until the Rayleigh
    residual ||S v - lam v|| falls below rtol * ||S||_F, record lam, then
    deflate S <- S - lam v v^T and repeat.
    """
    a = np.array(sym, dtype=np.float64)
    m = a.shape[0]
    scale = float(np.linalg.norm(a))
    rng = np.random.default_rng(seed)
    eigs = []
    for _ in range(m):
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iter):
            w = a @ v
            lam = float(v @ w)
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                lam = 0.0
                break
            resid = float(np.linalg.norm(w - lam * v))
            v = w / nw
            if resid <= rtol * max(scale, 1e-300):
                break
        eigs.append(lam)
        a = a - lam * np.outer(v, v)
    return np.sort(np.array(eigs))[::-1]


def singular_values_oracle(g, **kw):
    """Singular values of g via the deflating power iteration above."""
    g = np.asarray(g, dtype=np.float64)
    return np.sqrt(np.clip(power_iteration_eigs(g.T @ g, **kw), 0.0, None))


def centered(reports):
    """The centered parameter and gradient matrices (n x m) of the reports.

    Centers the differences from worker 0 by their mean, rather than the
    reports by theirs, so that identical workers give exact zeros.
    """

    def center(cols):
        diff = cols - cols[:, :1]
        return diff - diff.mean(axis=1, keepdims=True)

    thetas = np.column_stack([r.theta for r in reports])
    grads = np.column_stack([r.grad for r in reports])
    return center(thetas), center(grads)


def report_means(reports):
    """The mean parameters and the mean gradient of the reports."""
    return (
        np.mean([r.theta for r in reports], axis=0),
        np.mean([r.grad for r in reports], axis=0),
    )


def newton_step_oracle(a, theta_bar, g_bar):
    """Exact Newton step for a quadratic with Hessian a: direct solve."""
    return theta_bar - np.linalg.solve(a, g_bar)


def svd_inverse_hessian(reports, lam):
    """The dense n x n operator H = I - U U^T + Y Sigma^-1 U^T, rebuilt from
    np.linalg.svd of the centered G, with Y = Theta V: `(h, u, ratios)`,
    where u holds the j retained left vectors (sigma_k >= lam * sigma_1)
    and ratios all sigma_k / sigma_1."""
    big_theta, big_g = centered(reports)
    u, s, vt = np.linalg.svd(big_g, full_matrices=False)
    ratios = s / s[0] if s[0] > 0.0 else np.zeros_like(s)
    j = int(np.count_nonzero(ratios >= lam))
    u, y = u[:, :j], big_theta @ vt[:j].T / s[:j]
    return np.eye(u.shape[0]) - u @ u.T + y @ u.T, u, ratios


def svd_reference_step(reports, lam, tau):
    """The quasi-Newton step theta_bar - tau H g_bar, with H from
    `svd_inverse_hessian`: `(theta_new, j, ratios)`."""
    h, u, ratios = svd_inverse_hessian(reports, lam)
    theta_bar, g_bar = report_means(reports)
    return theta_bar - tau * h @ g_bar, u.shape[1], ratios


def degenerate_reports(rng, m, distinct, n, collinear):
    """m reports drawn from `distinct` pairs (duplicate workers when
    distinct < m, identical reports when distinct == 1), or, if collinear,
    spreads that are integer multiples of one pair of directions."""
    if collinear:
        theta, g, dt, dg = (rng.standard_normal(n) for _ in range(4))
        return [WorkerReport(theta + c * dt, g + c * dg) for c in rng.integers(-2, 3, size=m)]
    pool = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(min(distinct, m))]
    return [WorkerReport(*pool[i]) for i in rng.integers(0, len(pool), size=m)]


def random_spanning_reports(a, theta_star, around, m, seed, spread=1.0):
    """m quadratic-exact reports near `around` whose centered parameter
    columns span the space almost surely (m > n helps)."""
    rng = np.random.default_rng(seed)
    n = theta_star.shape[0]
    reports = []
    for _ in range(m):
        theta = around + spread * rng.standard_normal(n)
        reports.append(WorkerReport(theta, a @ (theta - theta_star)))
    return reports


def synthetic_blobs_oracle(n_features, n_classes, n_samples, seed, spread=0.08, density=1.0):
    """`data.synthetic_blobs`'s (inputs, labels) from one draw of the whole
    noise matrix, with every step a dataset-sized temporary."""
    rng = np.random.default_rng(seed)
    support = rng.random((n_features, n_classes)) < density
    centers = rng.uniform(0.25, 0.75, size=(n_features, n_classes)) * support
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    noise = spread * rng.standard_normal((n_features, n_samples)) * support[:, labels]
    return np.clip(centers[:, labels] + noise, 0.0, 1.0), labels


def mlp_init_oracle(layer_sizes, rng):
    """`MlpObjective.init_theta`'s draw assembled piece by piece: per layer a
    (fan_out, fan_in) normal draw, raveled and divided by sqrt(fan_in), then
    fan_out zero biases."""
    parts = []
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        parts.append(rng.standard_normal((fo, fi)).ravel() / np.sqrt(fi))
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


def traced_peak(fn):
    """fn() and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak
