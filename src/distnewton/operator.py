"""Low-rank inverse-Hessian operator assembled from worker reports.

Each synchronization round the server receives m (parameters, gradient)
pairs.  Centering both sets and taking the thin SVD of the centered
gradient matrix G yields directions u_k along which the curvature of the
objective is observable: the secant identity maps sigma_k * u_k to the
centered parameter displacement y_k = Theta v_k.  The operator acts as
that inferred inverse curvature on span{u_k} and as the identity on the
orthogonal complement, which is exactly what a Newton step needs and all
it can know from m samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_vector, fortran_matmul, thin_svd_via_gram


@dataclass(frozen=True)
class WorkerReport:
    """One worker's contribution to a round: updated parameters and the
    gradient evaluated at those parameters."""

    theta: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", as_vector(self.theta))
        object.__setattr__(self, "grad", as_vector(self.grad))
        if self.theta.shape != self.grad.shape:
            raise DimensionMismatchError(
                f"report: theta has length {self.theta.shape[0]} "
                f"but grad has length {self.grad.shape[0]}"
            )


@dataclass(frozen=True)
class CenteredBatch:
    """Centered report matrices: column k of big_theta is theta_k minus the
    mean, likewise big_g for gradients."""

    big_theta: np.ndarray
    big_g: np.ndarray
    theta_bar: np.ndarray
    g_bar: np.ndarray
    m: int


def center_reports(reports) -> CenteredBatch:
    """Stack m reports into centered n-by-m matrices plus the two means."""
    reports = list(reports)
    if not reports:
        raise ValueError("center_reports: empty report list")
    n = reports[0].theta.shape[0]
    m = len(reports)
    big_theta = np.empty((n, m), order="F")
    big_g = np.empty((n, m), order="F")
    for k, rep in enumerate(reports):
        if rep.theta.shape[0] != n:
            raise DimensionMismatchError(
                f"center_reports: report {k} has dimension {rep.theta.shape[0]}, expected {n}"
            )
        big_theta[:, k] = rep.theta
        big_g[:, k] = rep.grad
    theta_bar = big_theta.mean(axis=1)
    g_bar = big_g.mean(axis=1)
    big_theta -= theta_bar[:, None]
    big_g -= g_bar[:, None]
    return CenteredBatch(big_theta, big_g, theta_bar, g_bar, m)


@dataclass(frozen=True)
class InverseHessianOperator:
    """Rank-j approximate inverse Hessian.

    Keeps only the retained triples (sigma_k, u_k, y_k), stacked as the
    columns of `us` and `ys`, plus the full singular spectrum for
    diagnostics.  Storage is j*(2n) + m + j scalars; no n-by-n object.
    """

    sigmas: np.ndarray      # (j,) retained singular values, descending
    us: np.ndarray          # (n, j) F-order, orthonormal left singular vectors
    ys: np.ndarray          # (n, j) F-order, centered parameter displacements Theta v_k
    sigma_full: np.ndarray  # (m,) full spectrum, descending

    @property
    def j(self) -> int:
        return int(self.sigmas.shape[0])

    @property
    def sigma_max(self) -> float:
        return float(self.sigma_full[0]) if self.sigma_full.size else 0.0


def build_operator(batch: CenteredBatch, lam: float) -> InverseHessianOperator:
    """Build the operator from a centered batch at retention threshold lam.

    Runs the Gram-route thin SVD on the centered gradient matrix and keeps
    the leading prefix with sigma_k >= max(lam, sqrt(m * eps)) * sigma_1
    (closed inequality), provided sigma_k > 0 and a left vector exists.
    lam > 1 therefore forces j = 0, which turns the update into a plain
    averaged gradient step.  Degenerate directions with ||G v_k|| = 0 are
    dropped.

    Centering makes the ones vector an exact null right vector of G, so at
    most m - 1 directions carry curvature and j <= m - 1.  Through the Gram
    route exact null directions (that one, and those of duplicate workers)
    show up at sigma / sigma_1 ~ sqrt(eps), not at zero, so the cap is
    structural and the floor keeps the rest out for any lam.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    # Gram eigenvalues carry an absolute error of about m * eps * sigma_1^2,
    # so sigma below sqrt(m * eps) * sigma_1 cannot be told from zero
    floor = np.sqrt(batch.m * np.finfo(np.float64).eps)
    svd = thin_svd_via_gram(batch.big_g, rank_tolerance=max(lam, floor), max_rank=batch.m - 1)
    j = svd.retained
    ys = fortran_matmul(batch.big_theta, svd.right_vectors[:, :j])
    return InverseHessianOperator(svd.sigma[:j], svd.u, ys, svd.sigma)


def apply(op: InverseHessianOperator, z) -> np.ndarray:
    """Apply the operator: identity off span{u_k}, sigma_k^-1 y_k along u_k."""
    z = as_vector(z)
    if z.shape[0] != op.us.shape[0]:
        raise DimensionMismatchError(
            f"apply: vector has length {z.shape[0]}, operator expects {op.us.shape[0]}"
        )
    if op.j == 0:
        return z.copy()
    alpha = op.us.T @ z
    return z - op.us @ alpha + op.ys @ (alpha / op.sigmas)


def newton_update(op: InverseHessianOperator, theta_bar, g_bar, tau: float) -> np.ndarray:
    """Quasi-Newton step from the report means: theta_bar - tau * op(g_bar)."""
    theta_bar = as_vector(theta_bar)
    g_bar = as_vector(g_bar)
    if theta_bar.shape != g_bar.shape:
        raise DimensionMismatchError("newton_update: theta_bar and g_bar lengths differ")
    return theta_bar - tau * apply(op, g_bar)


def lr_cap(tau: float, op: InverseHessianOperator) -> float:
    """Cap the step size at 1/sigma_max, the curvature-aware optimum.

    With sigma_max = 0 there is no curvature information and tau passes
    through unchanged.  Opt-in: callers decide whether to apply it.
    """
    smax = op.sigma_max
    if smax > 0.0:
        return min(tau, 1.0 / smax)
    return tau
