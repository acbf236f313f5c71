"""Independent brute-force oracles.

Everything here deliberately avoids the package's own decomposition code:
singular values come from power iteration with deflation on the small
Gram matrix, and Newton steps come from a dense direct solve.  These are
the second routes the fast paths are checked against.
"""

import numpy as np


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


def newton_step_oracle(a, theta_bar, g_bar):
    """Exact Newton step for a quadratic with Hessian a: direct solve."""
    return theta_bar - np.linalg.solve(a, g_bar)


def random_spanning_reports(a, theta_star, around, m, seed, spread=1.0):
    """m quadratic-exact reports near `around` whose centered parameter
    columns span the space almost surely (m > n helps)."""
    from distnewton.operator import WorkerReport

    rng = np.random.default_rng(seed)
    n = theta_star.shape[0]
    reports = []
    for _ in range(m):
        theta = around + spread * rng.standard_normal(n)
        reports.append(WorkerReport(theta, a @ (theta - theta_star)))
    return reports
