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
comes from the same Gram product as D^T D.  Expanded, for every j, it is
theta_new = theta_0 - tau * g_0 + [D | E] c with c = [tau (a - cbar),
cbar - tau a], cbar = 1/m and a = W Sigma^-2 W^T D^T g_bar: j = 0 is
a = 0, c = [-tau cbar, cbar], and zero spread (D = E = 0) leaves exactly
theta_0 - tau * g_0.  Reports reach the server by
one path: `center_reports` checks their lengths and hands them out as
row blocks of [D | g_0 | E | theta_0], about ROW_BLOCK_BYTES each, written
into one reused scratch block.  A round reads those blocks in two passes:
the first adds each block's Gram matrix of [D | g_0] into the m-by-m sum,
the second takes each block's rows of theta_new with one matrix-vector
product and adds worker 0's pair, so nothing of size n is written but
theta_new and the one block.
`build_operator`, for callers that apply the operator to other vectors,
reads the same spectrum from the same blocks and writes U = D W Sigma^-1
and Y = E W in one more pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    GramSpectrum,
    as_vector,
    gram_spectrum,
    thin_svd_via_gram,  # noqa: F401  (perfbench times the Gram route under this name)
    unit_columns,
)

# Scratch bytes of one row block of [D | g_0 | E | theta_0]: small enough
# to stay in cache between the write of a block and its read.
ROW_BLOCK_BYTES = 1 << 20
# Fewest rows in a block (it binds for m > 16): with fewer, the calls that
# fill a block column by column cost more than the data they move.
MIN_BLOCK_ROWS = 4096


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


def _write_rows(vectors, lo: int, hi: int, out) -> None:
    """Rows lo:hi of [D | g_0 | E | theta_0] into out, for as many of its
    2m columns as out has: m gives [D | g_0] alone.  One subtraction per
    column, D[:, k-1] = g_k - g_0 and E[:, k-1] = theta_k - theta_0."""
    m = len(vectors) // 2
    for half in range(0, out.shape[1], m):
        first = vectors[half][lo:hi]
        out[:, half + m - 1] = first
        for k in range(1, m):
            np.subtract(vectors[half + k][lo:hi], first, out=out[:, half + k - 1])


class RowBlocks:
    """[D | g_0 | E | theta_0] of one round, from the 2m report vectors
    [g_0, ..., g_{m-1}, theta_0, ..., theta_{m-1}], handed out in row
    blocks of one reused Fortran-order scratch.

    A block has `block_rows(m)` rows, so the scratch takes ROW_BLOCK_BYTES
    (up to m = 16) and the round's working set, beyond the reports, is that
    scratch and the new n-vector."""

    def __init__(self, vectors: list):
        self.vectors = vectors
        self.n, self.m = vectors[0].shape[0], len(vectors) // 2
        self.scratch = np.empty((min(block_rows(self.m), max(self.n, 1)), 2 * self.m), order="F")

    def blocks(self, width: int):
        """One pass: yield (lo, hi, rows lo:hi of the first `width` columns).
        An empty matrix still yields one block, with no rows."""
        rows = self.scratch.shape[0]
        for lo in range(0, max(self.n, 1), rows):
            hi = min(lo + rows, self.n)
            block = self.scratch[: hi - lo, :width]
            _write_rows(self.vectors, lo, hi, block)
            yield lo, hi, block


def block_rows(m: int) -> int:
    """Rows per block: as many as fit 2m float64 columns in ROW_BLOCK_BYTES,
    and at least MIN_BLOCK_ROWS."""
    return max(MIN_BLOCK_ROWS, ROW_BLOCK_BYTES // (16 * m))


def center_reports(reports) -> RowBlocks:
    """The reports as worker 0 and the differences from it, in row blocks.
    Their lengths are checked here, before any pass reads them."""
    reports = list(reports)
    if not reports:
        raise ValueError("center_reports: empty report list")
    n = reports[0].theta.shape[0]
    for k, rep in enumerate(reports):
        if rep.theta.shape[0] != n:
            raise DimensionMismatchError(
                f"center_reports: report {k} has dimension {rep.theta.shape[0]}, expected {n}"
            )
    return RowBlocks([r.grad for r in reports] + [r.theta for r in reports])


def difference_spectrum(rows: RowBlocks, lam: float) -> GramSpectrum:
    """Spectrum of the centered gradients at retention threshold lam.

    It is the spectrum of [D | g_0] B, with B = [S; 0]: the g_0 column
    only rides along so that the Gram matrix also holds D^T g_0.  H is the
    Householder basis that maps e_1 to -1/sqrt(m), whose S = H[1:, :] is
    I - 11^T / (m + sqrt(m)).  `right` holds W = S V over the rows of D
    and a zero last row; `sigma` has the m - 1 singular values of D S.
    The Gram matrix is summed over the row blocks of [D | g_0], one read
    pass over the m gradients.  With m = 1, D has no columns and the
    spectrum is empty: no pass, no Gram matrix and no eigensolve, and
    `gram` is a 1-by-1 zero, which `newton_step` reads like any other.

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
    m = rows.m
    if m == 1:
        return GramSpectrum(np.empty(0), np.empty((1, 0)), 0, np.zeros((1, 1)), 1.0)
    floor = np.sqrt(m * np.finfo(np.float64).eps)
    basis = np.zeros((m, m - 1))
    basis[:-1] = np.eye(m - 1) - 1.0 / (m + np.sqrt(m))
    return gram_spectrum(lambda: (b for _, _, b in rows.blocks(m)), basis, max(lam, floor))


def full_sigma(spec: GramSpectrum) -> np.ndarray:
    """All m singular values of the centered gradients: those of D S and
    an exact 0 for the ones direction."""
    return np.append(spec.sigma, 0.0)


def newton_step(rows: RowBlocks, spec: GramSpectrum, tau: float) -> np.ndarray:
    """theta_bar - tau * op(g_bar), taken in factored form from the
    difference spectrum: one read pass over all 2m report vectors, one
    matrix-vector product per row block.

    Each block's rows are theta_0 - tau * g_0 + [D | E] c for every m and
    j, with j = 0 as c = [-tau cbar, cbar], the averaged gradient step.
    Worker 0's pair is added after the product, so identical reports
    (D = E = 0) step exactly to theta - tau * g.
    """
    m, j = rows.m, spec.retained
    cbar = np.full(m - 1, 1.0 / m)
    w = spec.right[:-1, :j]
    dtg = spec.gram[:-1] @ np.append(cbar, 1.0)  # D^T g_bar / scale^2
    a = w @ ((w.T @ dtg) / (spec.sigma[:j] / spec.scale) ** 2)
    # zero on worker 0's columns, which are added after the product
    coef = np.concatenate([tau * (a - cbar), [0.0], cbar - tau * a, [0.0]])
    theta_new = np.empty(rows.n)
    for lo, hi, block in rows.blocks(2 * m):
        out = theta_new[lo:hi]
        np.matmul(block, coef, out=out)
        block[:, m - 1] *= tau  # the scratch's g_0 column: the next block rewrites it
        out -= block[:, m - 1]
        out += block[:, -1]
    return theta_new


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


def build_operator(rows: RowBlocks, lam: float) -> InverseHessianOperator:
    """Build the explicit operator from the row blocks of `center_reports`
    at retention threshold lam (see `difference_spectrum` for the retention
    rule), so that its spectrum is the round's.

    us holds u_k = D w_k / ||D w_k|| and ys holds y_k = E w_k, which is
    Theta v_k for the right vector v_k = H V[:, k] of G; both are written
    block by block in one more pass.  Degenerate directions with
    ||D w_k|| = 0 are dropped.
    """
    spec = difference_spectrum(rows, lam)
    m, w = rows.m, spec.right[:-1, : spec.retained]
    wu = w / spec.scale
    us = np.empty((rows.n, spec.retained), order="F")
    ys = np.empty((rows.n, spec.retained), order="F")
    for lo, hi, block in rows.blocks(2 * m):
        us[lo:hi] = block[:, : m - 1] @ wu
        ys[lo:hi] = block[:, m:-1] @ w
    us = unit_columns(us)
    j = us.shape[1]
    return InverseHessianOperator(spec.sigma[:j], us, ys[:, :j], full_sigma(spec))


def apply(op: InverseHessianOperator, z) -> np.ndarray:
    """Apply the operator: identity off span{u_k}, sigma_k^-1 y_k along u_k."""
    z = as_vector(z)
    if z.shape[0] != op.us.shape[0]:
        raise DimensionMismatchError(
            f"apply: vector has length {z.shape[0]}, operator expects {op.us.shape[0]}"
        )
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
