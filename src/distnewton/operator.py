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
comes from the same Gram product as D^T D.  Expanded, it combines the
stored pairs, the compact form of Byrd, Nocedal & Schnabel (1994):
theta_new = theta_0 + [E | g_0 | D] c with c = [cbar - tau a, -tau,
tau (a - cbar)], cbar = 1/m and a = W Sigma^-2 W^T D^T g_bar, for every j
(j = 0 is a = 0).  Averaging is c = cbar over E alone.  So a step is
`step_coefficients`, which picks c from the round's m-sized spectrum, and
`combine`, the one loop that writes theta_new from the n-sized reports.
Reports reach the server by one path: `center_reports`, the one check of
every theta and gradient, returns them as `RowBlocks`.  A round reads
them twice, and each pass allocates only the columns it writes.  Pass 1
sums the Gram matrix of [g_0 | D] over row blocks of its m columns (half
of ROW_BLOCK_BYTES for m <= 16).  The step pass, `combine`, fills no block:
it walks the report vectors in runs of RUN_ROWS rows and builds each run
of theta_new from c_{m-1} g_0, each difference from worker 0 scaled by
its c_k, and theta_0, forming one difference at a time in a run-sized
buffer of its own.  `build_operator` reads the same spectrum and writes
U = D W Sigma^-1 and Y = E W in one more pass, over blocks of all 2m - 1
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, NonFiniteReportError
from .linalg import (
    GramSpectrum,
    all_finite,
    as_vector,
    gram_spectrum,
    thin_svd_via_gram,  # noqa: F401  (perfbench times the Gram route under this name)
    unit_columns,
)

# Bytes of one row block of all of [E | g_0 | D], which `build_operator`
# reads (pass 1's block of [g_0 | D] is about half of it): small enough to
# stay in cache between the write of a block and its read.
ROW_BLOCK_BYTES = 1 << 20
# Rows in one run of the step pass (`combine`): 256 KiB of each report
# vector, so that each is read in long stretches, while a run of theta_0,
# g_0, theta_new and the one difference buffer (1 MiB) stays in cache.
RUN_ROWS = ROW_BLOCK_BYTES // 32
# Fewest rows in a block (it binds for m > 16): with fewer, the calls that
# fill a block column by column cost more than the data they move.
MIN_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class WorkerReport:
    """One worker's contribution to a round: updated parameters and the
    gradient at them, kept as given until `center_reports` checks both."""

    theta: np.ndarray
    grad: np.ndarray


def _column(vectors, col: int, lo: int, hi: int, out) -> None:
    """Rows lo:hi of column col of [E | g_0 | D] into out: vectors[col + 1]
    less theta_0 for col < m - 1 (E), g_0 itself for col = m - 1, and
    vectors[col + 1] less g_0 above that (D)."""
    m = len(vectors) // 2
    vec = vectors[col + 1][lo:hi]
    if col == m - 1:
        out[:] = vec
    else:
        np.subtract(vec, vectors[0 if col < m - 1 else m][lo:hi], out=out)


class RowBlocks:
    """[E | g_0 | D] of one round, from the 2m report vectors
    [theta_0, ..., theta_{m-1}, g_0, ..., g_{m-1}], handed out in row
    blocks to pass 1 and `build_operator`.  It holds only the vectors, n
    and m: each pass allocates its own block, with `block_rows(m)` rows
    and only the columns it reads, and frees it when the pass ends."""

    def __init__(self, vectors: list):
        self.vectors = vectors
        self.n, self.m = vectors[0].shape[0], len(vectors) // 2

    def blocks(self, first: int):
        """One pass: yield (lo, hi, rows lo:hi of the columns from `first`
        on) from one Fortran-order block of 2m - 1 - first columns (there is
        no theta_0 column); an empty matrix yields one empty block."""
        rows, cols = min(block_rows(self.m), max(self.n, 1)), 2 * self.m - 1
        buf = np.empty((rows, cols - first), order="F")
        for lo in range(0, max(self.n, 1), rows):
            hi = min(lo + rows, self.n)
            block = buf[: hi - lo]
            for col in range(first, cols):
                _column(self.vectors, col, lo, hi, block[:, col - first])
            yield lo, hi, block


def block_rows(m: int) -> int:
    """Rows per block: as many as fit 2m float64 columns in ROW_BLOCK_BYTES,
    and at least MIN_BLOCK_ROWS."""
    return max(MIN_BLOCK_ROWS, ROW_BLOCK_BYTES // (16 * m))


def center_reports(reports) -> RowBlocks:
    """The reports in row blocks, after the one check of each theta and
    gradient: a float64 vector of report 0's length, or DimensionMismatchError."""
    reports = list(reports)
    if not reports:
        raise ValueError("center_reports: empty report list")
    n = as_vector(reports[0].theta).shape[0]
    thetas = [as_vector(r.theta, n, f"center_reports: report {k} theta") for k, r in enumerate(reports)]
    grads = [as_vector(r.grad, n, f"center_reports: report {k} gradient") for k, r in enumerate(reports)]
    return RowBlocks(thetas + grads)


def _non_finite(rows: RowBlocks, overflow: str) -> NonFiniteInputError:
    """NonFiniteReportError naming the first report with a NaN or an
    infinity, or, if every report is finite, NonFiniteInputError(overflow)."""
    for k in range(rows.m):
        for name, vec in (("theta", rows.vectors[k]), ("gradient", rows.vectors[rows.m + k])):
            if not np.all(np.isfinite(vec)):
                return NonFiniteReportError(k, f"{name} has a NaN or infinite entry")
    return NonFiniteInputError(overflow)


def difference_spectrum(rows: RowBlocks, lam: float) -> GramSpectrum:
    """Spectrum of the centered gradients at retention threshold lam.

    It is the spectrum of [g_0 | D] B, with B = [0; S]: the g_0 column
    only rides along so that the Gram matrix also holds D^T g_0.  H is the
    Householder basis that maps e_1 to -1/sqrt(m), whose S = H[1:, :] is
    I - 11^T / (m + sqrt(m)).  `right` holds W = S V over the rows of D,
    below a zero first row; `sigma` has the m - 1 singular values of D S.
    The Gram matrix is summed over the row blocks of [g_0 | D], one read
    pass over the m gradients.  With m = 1, D has no columns and the
    spectrum is empty: no pass, no Gram matrix, no eigensolve, and `gram`
    is a 1-by-1 zero, which `step_coefficients` reads like any other.

    The leading sigma_k >= max(lam, sqrt(m * eps)) * sigma_1 with sigma_k
    > 0 are retained (closed inequality), so lam > 1 forces j = 0, which
    turns the update into a plain averaged gradient step.  Gram eigenvalues
    carry an absolute error of about m * eps * sigma_1^2, so sigma below
    sqrt(m * eps) * sigma_1 cannot be told from zero: that floor keeps out
    the exact null directions of duplicate workers for any lam.  The ones
    vector, the null right vector that centering adds, has no column in
    this basis, so j <= m - 1 by construction.

    A NaN or an infinity in a report raises NonFiniteReportError, which
    names the first such report, and finite gradients whose differences
    overflow raise NonFiniteInputError.  The reports are only searched once
    the Gram sum has come out non-finite, so finite rounds pay nothing.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    m = rows.m
    if m == 1:
        return GramSpectrum(np.empty(0), np.empty((1, 0)), 0, np.zeros((1, 1)), 1.0)
    floor = np.sqrt(m * np.finfo(np.float64).eps)
    basis = np.zeros((m, m - 1))
    basis[1:] = np.eye(m - 1) - 1.0 / (m + np.sqrt(m))
    try:
        return gram_spectrum(
            lambda: (b for _, _, b in rows.blocks(m - 1)), basis, max(lam, floor)
        )
    except NonFiniteInputError:
        overflow = "difference_spectrum: the gradient differences from worker 0 overflow"
        raise _non_finite(rows, overflow) from None


def step_coefficients(spec: GramSpectrum, m: int, tau: float) -> np.ndarray:
    """The quasi-Newton c = [cbar - tau a, -tau, tau (a - cbar)], cbar = 1/m,
    a = W Sigma^-2 W^T D^T g_bar, from the m-sized spectrum alone, for every
    m and j: j = 0 is a = 0 (the averaged gradient step), m = 1 is [-tau]."""
    j = spec.retained
    cbar = np.full(m - 1, 1.0 / m)
    w = spec.right[1:, :j]
    dtg = spec.gram[1:] @ np.append(1.0, cbar)  # D^T g_bar / scale^2
    a = w @ ((w.T @ dtg) / (spec.sigma[:j] / spec.scale) ** 2)
    return np.concatenate([cbar - tau * a, [-tau], tau * (a - cbar)])


def combine(rows: RowBlocks, coef: np.ndarray) -> np.ndarray:
    """theta_0 + [E | g_0 | D] c over the first len(coef) columns: the one
    loop that writes theta_new, in one read pass over those report vectors.

    It walks the rows in runs of RUN_ROWS and builds each run of theta_new
    in place: c_{m-1} g_0 (zero when c covers E alone), then each column
    v_k - theta_0 or v_k - g_0, formed by `_column` in a run-sized buffer
    of its own (none at m = 1, which has no difference) and scaled by c_k,
    and theta_0 last.  Each difference is taken before it is scaled, so
    zero spread and identical reports are exact.  A non-finite result
    raises `_non_finite`'s error."""
    m, cols = rows.m, coef.shape[0]
    theta_0, g_0 = rows.vectors[0], rows.vectors[m]
    theta_new = np.empty(rows.n)
    diffs = np.empty(min(RUN_ROWS, rows.n) if m > 1 else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rows.n, RUN_ROWS):
            hi = min(lo + RUN_ROWS, rows.n)
            out, diff = theta_new[lo:hi], diffs[: hi - lo]
            if cols > m - 1:
                np.multiply(g_0[lo:hi], coef[m - 1], out=out)
            else:
                out.fill(0.0)
            for col in range(cols):
                if col != m - 1:
                    _column(rows.vectors, col, lo, hi, diff)
                    diff *= coef[col]
                    out += diff
            out += theta_0[lo:hi]
        finite = all_finite(theta_new)
    if not finite:
        raise _non_finite(rows, "theta_new: the differences from worker 0 or the step overflowed")
    return theta_new


@dataclass(frozen=True)
class InverseHessianOperator:
    """Rank-j approximate inverse Hessian.

    Keeps only the retained triples (sigma_k, u_k, y_k), stacked as the
    columns of `us` and `ys`.  Storage is j*(2n) + j scalars; no n-by-n
    object.
    """

    sigmas: np.ndarray  # (j,) retained singular values, descending
    us: np.ndarray      # (n, j) F-order, orthonormal left singular vectors
    ys: np.ndarray      # (n, j) F-order, centered parameter displacements Theta v_k

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
    ||D w_k|| = 0 are dropped.  A non-finite ys raises `_non_finite`'s
    error, as a non-finite theta_new does in the round.
    """
    spec = difference_spectrum(rows, lam)
    m, w = rows.m, spec.right[1:, : spec.retained]
    us = np.empty((rows.n, spec.retained), order="F")
    ys = np.empty((rows.n, spec.retained), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, block in rows.blocks(0):
            # D / scale, not w / scale: w over a subnormal scale overflows
            us[lo:hi] = (block[:, m:] / spec.scale) @ w
            ys[lo:hi] = block[:, : m - 1] @ w
        finite = all_finite(ys)
    if not finite:
        raise _non_finite(rows, "build_operator: the parameter differences from worker 0 overflow")
    us = unit_columns(us)
    j = us.shape[1]
    return InverseHessianOperator(spec.sigma[:j], us, ys[:, :j])


def apply(op: InverseHessianOperator, z) -> np.ndarray:
    """Apply the operator: identity off span{u_k}, sigma_k^-1 y_k along u_k."""
    z = as_vector(z, op.us.shape[0], "apply: vector")
    alpha = op.us.T @ z
    return z - op.us @ alpha + op.ys @ (alpha / op.sigmas)


def newton_update(op: InverseHessianOperator, theta_bar, g_bar, tau: float) -> np.ndarray:
    """Quasi-Newton step from the report means: theta_bar - tau * op(g_bar)."""
    theta_bar = as_vector(theta_bar)
    g_bar = as_vector(g_bar, theta_bar.shape[0], "newton_update: g_bar")
    return theta_bar - tau * apply(op, g_bar)


def lr_cap(tau: float, sigma_max: float) -> float:
    """Cap the step size at 1/sigma_max, the curvature-aware optimum.

    With sigma_max = 0 there is no curvature information and tau passes
    through unchanged.  Opt-in: callers decide whether to apply it.
    """
    if sigma_max > 0.0:
        return min(tau, 1.0 / sigma_max)
    return tau
