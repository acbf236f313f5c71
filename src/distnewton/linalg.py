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
as one block.  Nothing n-by-n is ever formed, so the server's working set
stays O(p*n) no matter how large the parameter dimension gets.
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
    # max-abs entries, not norms: a norm of entries near 1e300 overflows to inf
    if np.max(np.abs(s - s.T), initial=0.0) > SYMMETRY_RTOL * np.max(np.abs(s), initial=0.0):
        raise AsymmetricMatrixError("sym_eig: input is not symmetric within tolerance")

    eigvals, v = np.linalg.eigh(s)
    order = np.argsort(-eigvals, kind="stable")
    v = v[:, order]
    # Canonical sign: largest-magnitude entry of each eigenvector positive.
    # Pins the +-v ambiguity so identical subspaces always print the same.
    lead = np.argmax(np.abs(v), axis=0) if m else np.empty(0, dtype=np.intp)
    v *= np.where(v[lead, np.arange(m)] < 0.0, -1.0, 1.0)
    return SymEigResult(eigvals[order], np.asfortranarray(v))


@dataclass(frozen=True)
class GramSpectrum:
    """Singular values of M B through the Gram matrix of M.

    `sigma` holds all q singular values, descending.  Column k of `right` is
    B v_k, so that M right[:, k] = sigma_k u_k.  The leading `retained`
    sigma_k are those with sigma_k > 0 and sigma_k >= rank_tolerance *
    sigma_1.  `gram` is M^T M / scale^2, which is finite: `scale` is 1
    unless M^T M overflowed, and then the max-abs entry of M.  A caller
    that knows the spectrum is empty (q = 0) may skip the sum and give a
    p-by-p zero `gram`, so that code reading it needs no case for q = 0.
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
    is 1 unless the sum has a non-finite entry (entries of M past about
    1e154); then one more pass finds the max-abs entry of M and a third
    sums the Gram matrices of the blocks divided by it.  The result is
    symmetrized so rounding noise cannot upset the eigensolver.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total, scale = sum(b.T @ b for b in blocks()), 1.0
    if not np.all(np.isfinite(total)):
        scale = max(float(np.max(np.abs(b), initial=0.0)) for b in blocks())
        total = sum(c.T @ c for c in (b / scale for b in blocks()))
    return 0.5 * (total + total.T), scale


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
    eig = sym_eig(basis.T @ gm @ basis)
    sigma = scale * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    lead = float(sigma[0]) if sigma.size else 0.0
    retained = int(np.count_nonzero((sigma > 0.0) & (sigma >= rank_tolerance * lead)))
    return GramSpectrum(sigma, basis @ eig.eigenvectors, retained, gm, scale)


def unit_columns(w) -> np.ndarray:
    """The columns of w scaled to unit norm in place, up to the first
    column of zero norm."""
    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        w, norms = w[:, : zero[0]], norms[: zero[0]]
    w /= norms
    return w


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD of an n-by-m matrix, computed through its Gram matrix.

    `sigma` holds all m singular values, descending.  `u` holds unit-norm
    u_k as the columns of one Fortran-order n-by-r matrix, for a leading
    prefix of the spectrum only: k is included while sigma_k > 0,
    sigma_k >= rank_tolerance * sigma_1 and M v_k has nonzero norm.
    """

    sigma: np.ndarray
    right_vectors: np.ndarray
    u: np.ndarray

    @property
    def retained(self) -> int:
        return int(self.u.shape[1])


def thin_svd_via_gram(mat, rank_tolerance: float) -> ThinSvd:
    """Thin SVD from the m-by-m Gram eigendecomposition (`gram_spectrum`
    with B = I, and M summed as one block).  Left vectors are formed only
    for the retained prefix, with the right vectors divided by the Gram's
    scale, so that their norms cannot overflow.  A zero matrix yields an
    all-zero sigma and no left vectors.
    """
    g = as_matrix(mat)
    spec = gram_spectrum(lambda: (g,), np.eye(g.shape[1]), rank_tolerance)
    u = unit_columns(fortran_matmul(g, spec.right[:, : spec.retained] / spec.scale))
    return ThinSvd(spec.sigma, spec.right, u)
