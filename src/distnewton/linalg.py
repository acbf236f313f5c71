"""Dense linear algebra kernels for the quasi-Newton server.

Vectors are 1-d float64 numpy arrays; matrices are 2-d float64 arrays kept
in column-major (Fortran) layout so that column slices are contiguous.
The one decomposition offered is the Gram route to the spectrum of a tall
product M B, with M n-by-p and B a small p-by-q basis: sum the p-by-p
Gram matrix of M over its row blocks (`blocked_gram`), so that M never
has to exist whole, eigendecompose the q-by-q matrix B^T (M^T M) B with
LAPACK's symmetric eigensolver (`np.linalg.eigh`), and recover left
singular vectors, where a caller wants them, with one more matmul as
U = M B V / ||M B V||.  The server uses B to work in a basis of its
worker differences; `thin_svd_via_gram` is the plain case B = I with M
as one block.  A Gram sum is symmetric as summed (numpy forms M^T M with
BLAS `syrk`, which mirrors one triangle), so it is never averaged with its
transpose; `sym_eig` checks the matrices of other callers.  Nothing n-by-n
is ever formed, so the server's working set stays O(p*n) at any n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteInputError

SYMMETRY_RTOL = 1e-12
# The plain Gram sum is kept while its largest diagonal entry lies in this
# range: below it, entries lost digits to subnormal underflow; above it,
# its m-space products (D^T g_bar in `step_coefficients`) may overflow.
GRAM_RANGE = (np.finfo(float).tiny / np.finfo(float).eps, np.finfo(float).max * np.finfo(float).eps)


def as_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    """x as a 1-d float64 array; with `length` given, one of that length,
    or DimensionMismatchError naming `name` and both lengths."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise DimensionMismatchError(f"{name} has length {v.shape[0]}, expected {length}")
    return v


def as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    return np.asfortranarray(a)


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry is finite: a finite sum proves it without an
    n-sized mask, which is only taken when the sum is not finite.  A sum
    that overflows, or meets infinities of both signs, warns nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(x.sum()) or np.all(np.isfinite(x)))


def gram(mat) -> np.ndarray:
    """M^T M, exactly symmetric as computed (see the module docstring)."""
    m = as_matrix(mat)
    return np.asfortranarray(m.T @ m)


def sym_eig(mat) -> tuple[np.ndarray, np.ndarray]:
    """`(eigenvalues, eigenvectors)` of a small symmetric matrix, the pair
    LAPACK's `np.linalg.eigh` returns but sorted descending: column k of
    `eigenvectors` belongs to `eigenvalues[k]`, and ties keep the order in
    which the eigensolver produced them.  `eigh` reads only the lower
    triangle, so the input is checked for symmetry first.  Intended for
    the small worker-count dimension, never for the parameter dimension.
    """
    s = as_matrix(mat)
    m, mc = s.shape
    if m != mc:
        raise DimensionMismatchError(f"sym_eig: matrix must be square, got {m}x{mc}")
    # max-abs entries, not norms: a norm of entries near 1e300 overflows to inf
    if np.max(np.abs(s - s.T), initial=0.0) > SYMMETRY_RTOL * np.max(np.abs(s), initial=0.0):
        raise ValueError("sym_eig: input is not symmetric within tolerance")

    eigvals, v = np.linalg.eigh(s)
    order = np.argsort(-eigvals, kind="stable")
    v = v[:, order]
    # Canonical sign: largest-magnitude entry of each eigenvector positive.
    # Pins the +-v ambiguity so identical subspaces always print the same.
    lead = np.argmax(np.abs(v), axis=0) if m else np.empty(0, dtype=np.intp)
    v *= np.where(v[lead, np.arange(m)] < 0.0, -1.0, 1.0)
    return eigvals[order], np.asfortranarray(v)


@dataclass(frozen=True)
class GramSpectrum:
    """Singular values of M B through the Gram matrix of M.

    `sigma` holds all q singular values, descending.  Column k of `right` is
    B v_k, so that M right[:, k] = sigma_k u_k.  The leading `retained`
    sigma_k are those with sigma_k > 0 and sigma_k >= rank_tolerance *
    sigma_1.  `gram` is M^T M / scale^2 as summed, finite and symmetric:
    `scale` is 1 unless the largest diagonal of M^T M lies outside
    GRAM_RANGE, and then the max-abs entry of M (see `blocked_gram`).  A
    caller that knows the spectrum is empty (q = 0) may skip the sum and
    give a p-by-p zero `gram`, so code reading it needs no case for q = 0.
    """

    sigma: np.ndarray
    right: np.ndarray
    retained: int
    gram: np.ndarray
    scale: float


def blocked_gram(blocks) -> tuple[np.ndarray, float]:
    """M^T M / scale^2 and scale, summed over the row blocks of M.

    Each call of `blocks()` starts one pass and yields M's row blocks in
    order; a block is only read before the next one is asked for.  `scale`
    is 1 while the largest diagonal entry of the sum lies in GRAM_RANGE,
    which a NaN or an infinity fails too; else (column norms of M past
    about 1e146 or below about 1e-146) one more pass finds the max-abs
    entry of M and a third sums the Gram matrices of the blocks divided by
    it.  A NaN or an infinity in M, found on that second pass, raises
    NonFiniteInputError.  Either sum is returned as summed, symmetric.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total, scale = sum(b.T @ b for b in blocks()), 1.0
        if GRAM_RANGE[0] <= np.max(np.diag(total), initial=0.0) <= GRAM_RANGE[1]:
            return total, scale
        peak = float(np.max([np.max(np.abs(b), initial=0.0) for b in blocks()]))
    if not peak < np.inf:
        raise NonFiniteInputError("blocked_gram: the matrix has a NaN or infinite entry")
    if peak > 0.0:  # else M is zero, and so is its Gram sum
        total, scale = sum(c.T @ c for c in (b / peak for b in blocks())), peak
    return total, scale


def gram_spectrum(blocks, basis, rank_tolerance: float) -> GramSpectrum:
    """Spectrum of M B from the eigendecomposition of B^T (M^T M) B, with
    M^T M summed over the row blocks of M that `blocks()` yields
    (`blocked_gram`).

    sigma_k = scale * sqrt(max(lambda_k, 0)) clamps tiny negative Gram
    eigenvalues (rounding noise on a PSD matrix) to zero.
    """
    if rank_tolerance < 0:
        raise ValueError("rank_tolerance must be nonnegative")
    gm, scale = blocked_gram(blocks)
    eigenvalues, eigenvectors = sym_eig(basis.T @ gm @ basis)
    sigma = scale * np.sqrt(np.clip(eigenvalues, 0.0, None))
    lead = float(sigma[0]) if sigma.size else 0.0
    retained = int(np.count_nonzero((sigma > 0.0) & (sigma >= rank_tolerance * lead)))
    return GramSpectrum(sigma, basis @ eigenvectors, retained, gm, scale)


def unit_columns(w) -> np.ndarray:
    """The columns of w scaled to unit norm in place, up to the first
    column of zero norm."""
    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        w, norms = w[:, : zero[0]], norms[: zero[0]]
    w /= norms
    return w


def thin_svd_via_gram(mat, rank_tolerance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD `(u, sigma, right)` of an n-by-m matrix M, in `np.linalg.svd`'s
    order but with the right vectors as columns, from the m-by-m Gram
    eigendecomposition (`gram_spectrum` with B = I, M as one block).

    `sigma` holds all m singular values, descending.  `u` holds unit-norm
    u_k as the columns of one n-by-r matrix, r = `u.shape[1]` the retained
    count, for a leading prefix of the spectrum only: k is included while
    sigma_k > 0, sigma_k >= rank_tolerance * sigma_1 and M v_k has nonzero
    norm.  Left vectors are formed from the matrix divided by the Gram's
    scale, so that their norms cannot overflow (the right vectors divided
    by a subnormal scale would).  A zero matrix yields an all-zero sigma
    and no left vectors.
    """
    g = as_matrix(mat)
    spec = gram_spectrum(lambda: (g,), np.eye(g.shape[1]), rank_tolerance)
    u = unit_columns((g / spec.scale) @ spec.right[:, : spec.retained])
    return u, spec.sigma, spec.right
