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

with theta_bar = theta_0 + E/m 1, g_bar = g_0 + D/m 1 and tau the step
length the caller gives (`harness.tau`), taken as it is on every round;
D^T g_bar comes from the same Gram product as D^T D.  Expanded, it
combines the stored pairs, the compact form of Byrd, Nocedal & Schnabel
(1994): theta_new = theta_0 + [E | g_0 | D] c with c = [cbar - tau a,
-tau, tau (a - cbar)], cbar = 1/m and a = W Sigma^-2 W^T D^T g_bar, for
every j (j = 0 is a = 0).  Averaging is c = [cbar, 0, 0].  The operator
itself works in this m-space: `operator_coefficients(spec, x)` is the c
with [E | g_0 | D] c = H [g_0 | D] x, and the step's c is [cbar, 0, 0]
minus tau times it at x = [1, cbar].  Since D a = U U^T g_bar, the D part
of the correction is uphill by construction, (tau D a) . g_bar = tau
||U^T g_bar||^2 >= 0: it takes the averaged step off span{u_k}, and the
step along the span is -tau E a.  So a step is `step_coefficients`, which
picks c from the round's m-sized spectrum, and `combine`, the one loop
that writes theta_new from the n-sized reports.
Reports reach the server by one path: `center_reports` length-checks
every theta and gradient and returns the two lists (thetas, gradients).
A round reads them twice, and each pass allocates only what it writes.
Pass 1 sums the Gram matrix of [g_0 | D] over the row blocks that
`_blocks` forms from the gradients, one block of m columns (half of
ROW_BLOCK_BYTES for m <= 16).  The step pass, `combine`, fills no block:
it walks the report vectors in runs of RUN_ROWS rows and builds each run
of theta_new from c_g g_0, each difference from worker 0 scaled by its
coefficient, and theta_0, forming one difference at a time in a
run-sized buffer of its own.  `build_operator` reads the same spectrum
and writes U = D W Sigma^-1 and Y = E W in one more pass, over the blocks
[theta_0 | E] and [g_0 | D] in lockstep, two blocks of m columns.
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

# Bytes of the two m-column row blocks, [theta_0 | E] and [g_0 | D], that
# `build_operator` reads in lockstep (pass 1's block of [g_0 | D] is half
# of it): small enough to stay in cache between the write of a block and
# its read.
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


def block_rows(m: int) -> int:
    """Rows per block: as many as fit 2m float64 columns, `build_operator`'s
    two blocks, in ROW_BLOCK_BYTES, and at least MIN_BLOCK_ROWS."""
    return max(MIN_BLOCK_ROWS, ROW_BLOCK_BYTES // (16 * m))


def center_reports(reports) -> tuple[list, list]:
    """The reports' (thetas, gradients), after the one check of each: a
    float64 vector of report 0's length, or DimensionMismatchError."""
    reports = list(reports)
    if not reports:
        raise ValueError("center_reports: empty report list")
    n = as_vector(reports[0].theta).shape[0]
    thetas = [as_vector(r.theta, n, f"center_reports: report {k} theta") for k, r in enumerate(reports)]
    grads = [as_vector(r.grad, n, f"center_reports: report {k} gradient") for k, r in enumerate(reports)]
    return thetas, grads


def _blocks(vectors):
    """One pass: yield (lo, hi, rows lo:hi of [v_0 | v_1 - v_0 | ...]) from
    one Fortran-order block of block_rows(m) rows and m = len(vectors)
    columns; an empty n yields one empty block."""
    n, m = vectors[0].shape[0], len(vectors)
    rows = min(block_rows(m), max(n, 1))
    buf = np.empty((rows, m), order="F")
    for lo in range(0, max(n, 1), rows):
        hi = min(lo + rows, n)
        block = buf[: hi - lo]
        block[:, 0] = vectors[0][lo:hi]
        for k in range(1, m):
            np.subtract(vectors[k][lo:hi], vectors[0][lo:hi], out=block[:, k])
        yield lo, hi, block


def _non_finite(rows, overflow: str) -> NonFiniteInputError:
    """NonFiniteReportError naming the first report with a NaN or an
    infinity, or, if every report is finite, NonFiniteInputError(overflow)."""
    for k, pair in enumerate(zip(*rows)):
        for name, vec in zip(("theta", "gradient"), pair):
            if not all_finite(vec):
                return NonFiniteReportError(k, f"{name} has a NaN or infinite entry")
    return NonFiniteInputError(overflow)


def difference_spectrum(rows, lam: float) -> GramSpectrum:
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
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    m = len(rows[1])
    if m == 1:
        return GramSpectrum(np.empty(0), np.empty((1, 0)), 0, np.zeros((1, 1)), 1.0)
    floor = np.sqrt(m * np.finfo(np.float64).eps)
    basis = np.zeros((m, m - 1))
    basis[1:] = np.eye(m - 1) - 1.0 / (m + np.sqrt(m))
    try:
        return gram_spectrum(lambda: (b for _, _, b in _blocks(rows[1])), basis, max(lam, floor))
    except NonFiniteInputError:
        overflow = "difference_spectrum: the gradient differences from worker 0 overflow"
        raise _non_finite(rows, overflow) from None


def operator_coefficients(spec: GramSpectrum, x: np.ndarray) -> np.ndarray:
    """The operator in the m-space of c: for an m-vector x, the c =
    [a, x_0, x_{1:} - a] with [E | g_0 | D] c = H [g_0 | D] x, where a =
    W Sigma^-2 W^T D^T [g_0 | D] x.  Its contracts are identities of the
    spectrum: x = [0, w_k] gives [w_k, 0, 0] (H sigma_k u_k = y_k), an x
    with W^T D^T [g_0 | D] x = 0 gives [0, x] (the identity off the span),
    j = 0 gives a = 0, and m = 1 gives [x_0]."""
    j = spec.retained
    w = spec.right[1:, :j]
    a = w @ ((w.T @ (spec.gram[1:] @ x)) / (spec.sigma[:j] / spec.scale) ** 2)
    return np.concatenate([a, x[:1], x[1:] - a])


def step_coefficients(spec: GramSpectrum, m: int, tau: float) -> np.ndarray:
    """The quasi-Newton c = [cbar, 0, 0] - tau `operator_coefficients(spec,
    [1, cbar])`, cbar = 1/m, that is [cbar - tau a, -tau, tau (a - cbar)]
    with a = W Sigma^-2 W^T D^T g_bar, from the m-sized spectrum alone, for
    every m and j: j = 0 is a = 0 (the averaged gradient step), m = 1 is
    [-tau]."""
    cbar = np.full(m - 1, 1.0 / m)
    return np.concatenate([cbar, np.zeros(m)]) - tau * operator_coefficients(spec, np.append(1.0, cbar))


def combine(rows, coef: np.ndarray) -> np.ndarray:
    """theta_0 + E c_E + c_g g_0 + D c_D, with the 2m - 1 entries of coef
    split into (c_E, c_g, c_D) in the order of c above: the one loop that
    writes theta_new, in one read pass over the 2m report vectors.

    It walks the rows in runs of RUN_ROWS and builds each run of theta_new
    in place: c_g g_0, then each theta_k - theta_0 and then each g_k - g_0,
    formed in a run-sized buffer of its own (none at m = 1) and scaled by
    its coefficient, and theta_0 last.  Each difference is taken before it
    is scaled, so zero spread and identical reports are exact.  No column
    is skipped for a zero coefficient (0 * inf is NaN), so checking
    theta_new by its sum checks every report; a non-finite one raises
    `_non_finite`'s error."""
    thetas, grads = rows
    m, n = len(thetas), thetas[0].shape[0]
    c_e, c_g, c_d = coef[: m - 1], coef[m - 1], coef[m:]
    theta_new = np.empty(n)
    diffs = np.empty(min(RUN_ROWS, n) if m > 1 else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, RUN_ROWS):
            hi = min(lo + RUN_ROWS, n)
            out, diff = theta_new[lo:hi], diffs[: hi - lo]
            np.multiply(grads[0][lo:hi], c_g, out=out)
            for vectors, cs in ((thetas, c_e), (grads, c_d)):
                for vec, c in zip(vectors[1:], cs, strict=True):
                    np.subtract(vec[lo:hi], vectors[0][lo:hi], out=diff)
                    diff *= c
                    out += diff
            out += thetas[0][lo:hi]
    if not all_finite(theta_new):
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


def build_operator(rows, lam: float) -> InverseHessianOperator:
    """Build the explicit operator from the (thetas, gradients) of
    `center_reports` at retention threshold lam (see `difference_spectrum`
    for the retention rule), so that its spectrum is the round's.

    us holds u_k = D w_k / ||D w_k|| and ys holds y_k = E w_k, which is
    Theta v_k for the right vector v_k = H V[:, k] of G; both are written
    block by block in one more pass, over the blocks of the thetas and of
    the gradients in lockstep.  Degenerate directions with ||D w_k|| = 0
    are dropped.  A non-finite ys raises `_non_finite`'s error, as a
    non-finite theta_new does in the round.
    """
    thetas, grads = rows
    spec = difference_spectrum(rows, lam)
    n, w = thetas[0].shape[0], spec.right[1:, : spec.retained]
    us = np.empty((n, spec.retained), order="F")
    ys = np.empty((n, spec.retained), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        for (lo, hi, e_block), (_, _, d_block) in zip(_blocks(thetas), _blocks(grads)):
            # D / scale, not w / scale: w over a subnormal scale overflows
            us[lo:hi] = (d_block[:, 1:] / spec.scale) @ w
            ys[lo:hi] = e_block[:, 1:] @ w
    if not all_finite(ys):
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
