"""Low-rank inverse-Hessian operator assembled from worker reports.

Each synchronization round the server receives m (parameters, gradient)
pairs.  Centering both sets and taking the thin SVD of the centered
gradient matrix G yields directions u_k along which the curvature of the
objective is observable: the secant identity maps sigma_k * u_k to the
centered parameter displacement y_k = Theta v_k.  The operator acts as
that inferred inverse curvature on span{u_k} and as the identity on the
orthogonal complement, which is exactly what a Newton step needs and all
it can know from m samples.

The server works with differences from worker 0, D = [g_k - g_0] and
E = [theta_k - theta_0] (k = 1..m-1), and never forms G itself: with
P = I - 11^T/m, G = [0 | D] P and Theta = [0 | E] P.  If H is an
orthonormal basis of the complement of the ones vector and S = H[1:, :],
then G H = D S, so the spectrum of G is that of D S: the eigenvalues of
the (m-1)-by-(m-1) matrix S^T (D^T D) S, with right vectors W = S V in
the coordinates of D.  The step is then

    theta_new = theta_bar - tau * (g_bar + (E - D) W Sigma^-2 W^T D^T g_bar),

with theta_bar = theta_0 + E/m 1 and g_bar = g_0 + D/m 1, and D^T g_bar
comes from the same Gram product as D^T D.  A round reads the reports
once as it writes D and E, reads D once for the Gram and D and E once
more for the step, and writes nothing else of size n but theta_new.
`build_operator` materialises U = D W Sigma^-1 and Y = E W from the same
spectrum, for callers that apply the operator to other vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    GramSpectrum,
    as_vector,
    fortran_matmul,
    gram_spectrum,
    left_vectors,
    thin_svd_via_gram,  # noqa: F401  (perfbench times the Gram route under this name)
)


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
    """m reports as differences from worker 0, in one n-by-2m Fortran-order
    buffer whose columns are [D | g_0 | E | theta_0]: D[:, k-1] = g_k - g_0
    and E[:, k-1] = theta_k - theta_0 for k = 1..m-1.  Every accessor is a
    view of that buffer except the two means, computed on demand."""

    cols: np.ndarray

    @property
    def m(self) -> int:
        return self.cols.shape[1] // 2

    @property
    def d(self) -> np.ndarray:
        return self.cols[:, : self.m - 1]

    @property
    def g0(self) -> np.ndarray:
        return self.cols[:, self.m - 1]

    @property
    def e(self) -> np.ndarray:
        return self.cols[:, self.m : -1]

    @property
    def theta0(self) -> np.ndarray:
        return self.cols[:, -1]

    @property
    def theta_bar(self) -> np.ndarray:
        return _mean(self.theta0, self.e)

    @property
    def g_bar(self) -> np.ndarray:
        return _mean(self.g0, self.d)


def _mean(first, diffs) -> np.ndarray:
    """first + diffs 1/m, the mean of m reports, in one new n-vector."""
    mean = diffs.sum(axis=1)
    mean /= diffs.shape[1] + 1
    mean += first
    return mean


def center_reports(reports) -> CenteredBatch:
    """Write m reports into one buffer as worker 0 and the differences from it."""
    reports = list(reports)
    if not reports:
        raise ValueError("center_reports: empty report list")
    first = reports[0]
    n = first.theta.shape[0]
    m = len(reports)
    cols = np.empty((n, 2 * m), order="F")
    cols[:, m - 1] = first.grad
    cols[:, -1] = first.theta
    for k, rep in enumerate(reports[1:], start=1):
        if rep.theta.shape[0] != n:
            raise DimensionMismatchError(
                f"center_reports: report {k} has dimension {rep.theta.shape[0]}, expected {n}"
            )
        np.subtract(rep.grad, first.grad, out=cols[:, k - 1])
        np.subtract(rep.theta, first.theta, out=cols[:, m + k - 1])
    return CenteredBatch(cols)


def difference_spectrum(batch: CenteredBatch, lam: float) -> GramSpectrum:
    """Spectrum of the centered gradients at retention threshold lam.

    It is the spectrum of [D | g_0] B, with B = [S; 0]: the g_0 column
    only rides along so that the Gram matrix also holds D^T g_0.  H is the
    Householder basis that maps e_1 to -1/sqrt(m), whose S = H[1:, :] is
    I - 11^T / (m + sqrt(m)).  `right` holds W = S V over the rows of D
    and a zero last row; `sigma` has the m - 1 singular values of D S.

    The leading sigma_k >= max(lam, sqrt(m * eps)) * sigma_1 with sigma_k
    > 0 are retained (closed inequality), so lam > 1 forces j = 0, which
    turns the update into a plain averaged gradient step.  Gram eigenvalues
    carry an absolute error of about m * eps * sigma_1^2, so sigma below
    sqrt(m * eps) * sigma_1 cannot be told from zero: that floor keeps out
    the exact null directions of duplicate workers for any lam.  The ones
    vector, the null right vector that centering adds, has no column in
    this basis, so j <= m - 1 by construction.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    m = batch.m
    floor = np.sqrt(m * np.finfo(np.float64).eps)
    basis = np.zeros((m, m - 1))
    basis[:-1] = np.eye(m - 1) - 1.0 / (m + np.sqrt(m))
    return gram_spectrum(batch.cols[:, :m], basis, max(lam, floor))


def full_sigma(spec: GramSpectrum) -> np.ndarray:
    """All m singular values of the centered gradients: those of D S and
    an exact 0 for the ones direction."""
    return np.append(spec.sigma, 0.0)


def newton_step(batch: CenteredBatch, spec: GramSpectrum, tau: float) -> np.ndarray:
    """theta_bar - tau * op(g_bar), taken in factored form from the
    difference spectrum: one matrix-vector product over the whole buffer.

    With j = 0 it is the averaged gradient step theta_bar - tau * g_bar,
    which is exactly theta - tau * g when every report is the same.
    """
    j = spec.retained
    if j == 0:
        step = batch.g_bar
        step *= tau
        theta_new = batch.theta_bar
        theta_new -= step
        return theta_new
    m = batch.m
    cbar = np.full(m - 1, 1.0 / m)
    w = spec.right[:-1, :j]
    dtg = spec.gram[:-1] @ np.append(cbar, 1.0)  # D^T g_bar / scale^2
    a = w @ ((w.T @ dtg) / (spec.sigma[:j] / spec.scale) ** 2)
    # theta_new = theta_0 - tau g_0 + E (cbar - tau a) - tau D (cbar - a)
    return batch.cols @ np.concatenate([tau * (a - cbar), [-tau], cbar - tau * a, [1.0]])


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
    sigma_full: np.ndarray  # (m,) full spectrum, descending, ending in the ones direction's 0

    @property
    def j(self) -> int:
        return int(self.sigmas.shape[0])


def build_operator(batch: CenteredBatch, lam: float) -> InverseHessianOperator:
    """Build the explicit operator from a centered batch at retention
    threshold lam (see `difference_spectrum` for the retention rule).

    us holds u_k = D w_k / ||D w_k|| and ys holds y_k = E w_k, which is
    Theta v_k for the right vector v_k = H V[:, k] of G.  Degenerate
    directions with ||D w_k|| = 0 are dropped.
    """
    spec = difference_spectrum(batch, lam)
    w = spec.right[:-1, : spec.retained]
    us = left_vectors(batch.d, w / spec.scale)
    j = us.shape[1]
    ys = fortran_matmul(batch.e, w[:, :j])
    return InverseHessianOperator(spec.sigma[:j], us, ys, full_sigma(spec))


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


def lr_cap(tau: float, sigma_max: float) -> float:
    """Cap the step size at 1/sigma_max, the curvature-aware optimum.

    With sigma_max = 0 there is no curvature information and tau passes
    through unchanged.  Opt-in: callers decide whether to apply it.
    """
    if sigma_max > 0.0:
        return min(tau, 1.0 / sigma_max)
    return tau
