"""Dense linear algebra kernels for the quasi-Newton server.

Vectors are 1-d float64 numpy arrays; matrices are 2-d float64 arrays kept
in column-major (Fortran) layout so that column slices are contiguous.
The one decomposition offered is the Gram route to a thin SVD of a tall
n-by-m matrix: eigendecompose the small m-by-m Gram matrix with LAPACK's
symmetric eigensolver (`np.linalg.eigh`), then recover the retained left
singular vectors with one matmul as U = M V / ||M V||.  Nothing n-by-n is
ever formed, so the server's working set stays O(m*n) no matter how large
the parameter dimension gets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMatrixError, DimensionMismatchError

SYMMETRY_RTOL = 1e-12


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    return np.asfortranarray(a)


def fortran_matmul(a, b) -> np.ndarray:
    """a @ b, laid out column-contiguous (Fortran order).

    Computed as (b^T a^T)^T.  For a tall Fortran-order `a` that is one BLAS
    call writing the n-by-r product column by column, which is faster than
    `a @ b` (C-order result) and leaves each column a contiguous slice.
    """
    return (b.T @ a.T).T


def gram(mat) -> np.ndarray:
    """M^T M, symmetrized so rounding noise cannot upset the eigensolver."""
    m = as_matrix(mat)
    g = m.T @ m
    return np.asfortranarray(0.5 * (g + g.T))


@dataclass(frozen=True)
class SymEigResult:
    """Eigenpairs of a symmetric matrix, sorted by eigenvalue descending.

    Column k of `eigenvectors` belongs to `eigenvalues[k]`.  Ties keep the
    order in which the eigensolver produced them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(mat) -> SymEigResult:
    """Eigendecomposition of a small symmetric matrix via LAPACK `eigh`.

    `eigh` reads only the lower triangle, so the input is checked for
    symmetry first.  Intended for the small worker-count dimension, never
    for the parameter dimension.
    """
    s = as_matrix(mat)
    m, mc = s.shape
    if m != mc:
        raise DimensionMismatchError(f"sym_eig: matrix must be square, got {m}x{mc}")
    fro = float(np.linalg.norm(s))
    if fro > 0.0 and float(np.linalg.norm(s - s.T)) > SYMMETRY_RTOL * fro:
        raise AsymmetricMatrixError("sym_eig: input is not symmetric within tolerance")

    eigvals, v = np.linalg.eigh(s)
    order = np.argsort(-eigvals, kind="stable")
    v = v[:, order]
    # Canonical sign: largest-magnitude entry of each eigenvector positive.
    # Pins the +-v ambiguity so identical subspaces always print the same.
    lead = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[lead, np.arange(m)] < 0.0, -1.0, 1.0)
    return SymEigResult(eigvals[order], np.asfortranarray(v))


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD of an n-by-m matrix, computed through its Gram matrix.

    `sigma` holds all m singular values, descending.  `u` holds unit-norm
    u_k as the columns of one Fortran-order n-by-r matrix, for a leading
    prefix of the spectrum only: k is included while k < max_rank,
    sigma_k > 0, sigma_k >= rank_tolerance * sigma_1 and M v_k has nonzero
    norm.
    """

    sigma: np.ndarray
    right_vectors: np.ndarray
    u: np.ndarray

    @property
    def retained(self) -> int:
        return int(self.u.shape[1])


def thin_svd_via_gram(mat, rank_tolerance: float, max_rank: int | None = None) -> ThinSvd:
    """Thin SVD from the m-by-m Gram eigendecomposition.

    sigma_k = sqrt(max(lambda_k, 0)) clamps tiny negative Gram eigenvalues
    (rounding noise on a PSD matrix) to zero.  Left vectors are formed only
    for the retained prefix (see ThinSvd), with one matmul that writes a
    Fortran-order matrix, and are normalised in place.  A zero matrix
    yields an all-zero sigma and no left vectors.
    """
    if rank_tolerance < 0:
        raise ValueError("rank_tolerance must be nonnegative")
    g = as_matrix(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        gm = gram(g)
    scale = 1.0
    if not np.all(np.isfinite(gm)):  # entries past ~1e154: rerun on mat / max|mat|
        scale = float(np.max(np.abs(g)))
        g = g / scale
        gm = gram(g)
    eig = sym_eig(gm)
    sigma = scale * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    lead = float(sigma[0]) if sigma.size else 0.0
    r = int(np.count_nonzero((sigma > 0.0) & (sigma >= rank_tolerance * lead)))
    if max_rank is not None:
        r = min(r, max_rank)
    w = fortran_matmul(g, eig.eigenvectors[:, :r])
    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        r = int(zero[0])
        w, norms = w[:, :r], norms[:r]
    w /= norms
    return ThinSvd(sigma, eig.eigenvectors, w)
