import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from distnewton.errors import AsymmetricMatrixError, DimensionMismatchError
from distnewton.linalg import gram, sym_eig, thin_svd_via_gram

from oracles import power_iteration_eigs, singular_values_oracle


def random_tall(rng, n, m):
    return rng.standard_normal((n, m))


# ------------------------------------------------------------------ gram


def test_gram_identity():
    assert np.allclose(gram(np.eye(3)), np.eye(3))


def test_gram_single_column():
    assert np.allclose(gram(np.array([[3.0], [4.0]])), [[25.0]])


def test_gram_hand_example():
    g = gram([[1.0, 2.0], [2.0, 4.0]])
    assert np.allclose(g, [[5.0, 10.0], [10.0, 20.0]])


def test_gram_symmetric_psd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = gram(random_tall(rng, 30, 6))
        assert np.array_equal(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > -1e-10 * np.linalg.norm(g)


# --------------------------------------------------------------- sym_eig


def test_sym_eig_diagonal():
    res = sym_eig(np.diag([2.0, 5.0]))
    assert np.allclose(res.eigenvalues, [5.0, 2.0])
    assert np.allclose(np.abs(res.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_sym_eig_trace_det_oracle():
    # trace 25, determinant 0 pin the spectrum of this rank-1 matrix
    res = sym_eig([[5.0, 10.0], [10.0, 20.0]])
    assert np.allclose(res.eigenvalues, [25.0, 0.0], atol=1e-12)


def test_sym_eig_identity():
    res = sym_eig(np.eye(5))
    assert np.allclose(res.eigenvalues, np.ones(5))
    assert np.allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(5), atol=1e-10)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrixError):
        sym_eig([[1.0, 2.0], [0.0, 1.0]])


def test_sym_eig_rejects_asymmetric_near_overflow():
    # the Frobenius norm of entries near 1e300 overflows to inf
    with pytest.raises(AsymmetricMatrixError):
        sym_eig(np.array([[1.0, 0.0], [1.0, 1.0]]) * 1e300)


def test_sym_eig_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        sym_eig(np.ones((2, 3)))


def test_sym_eig_accepts_size_1025():
    # m = 1025 workers is a valid run; LAPACK eigh has no size cap
    res = sym_eig(np.eye(1025))
    assert np.array_equal(res.eigenvalues, np.ones(1025))


def test_sym_eig_residuals_and_orthonormality():
    rng = np.random.default_rng(7)
    for m in (2, 3, 5, 8, 16, 32):
        s = gram(random_tall(rng, m + 10, m))
        res = sym_eig(s)
        fro = np.linalg.norm(s)
        assert np.all(np.diff(res.eigenvalues) <= 1e-12 * fro)  # descending
        assert np.allclose(
            res.eigenvectors.T @ res.eigenvectors, np.eye(m), atol=1e-10
        )
        for k in range(m):
            resid = s @ res.eigenvectors[:, k] - res.eigenvalues[k] * res.eigenvectors[:, k]
            assert np.linalg.norm(resid) <= 1e-9 * fro


def test_sym_eig_matches_power_iteration():
    rng = np.random.default_rng(21)
    s = gram(random_tall(rng, 40, 6))
    got = sym_eig(s).eigenvalues
    want = np.sort(np.linalg.eigvalsh(s))[::-1]
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.linalg.norm(s))


@pytest.mark.parametrize("m", [16, 64])
def test_sym_eig_matches_power_iteration_oracle(m):
    # a random eigenbasis with eigenvalues 0.8^k keeps every power-iteration
    # ratio at 0.8, so the oracle converges in a few hundred steps per pair
    rng = np.random.default_rng(m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    s = q @ np.diag(0.8 ** np.arange(m)) @ q.T
    s = 0.5 * (s + s.T)
    res = sym_eig(s)
    want = power_iteration_eigs(s)
    assert np.allclose(res.eigenvalues, want, rtol=1e-10, atol=1e-12 * np.linalg.norm(s))
    v = res.eigenvectors
    assert np.linalg.norm(s @ v - v * res.eigenvalues) <= 1e-12 * np.linalg.norm(s)


# --------------------------------------------------- thin_svd_via_gram


def test_thin_svd_identity():
    res = thin_svd_via_gram(np.eye(2), 1e-12)
    assert np.allclose(res.sigma, [1.0, 1.0])
    assert np.allclose(res.u.T @ res.u, np.eye(2), atol=1e-12)


def test_thin_svd_rank_one():
    res = thin_svd_via_gram(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-12)
    assert np.allclose(res.sigma, [5.0, 0.0], atol=1e-12)
    assert res.retained == 1
    want = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(res.u[:, 0], want, atol=1e-12)


def test_thin_svd_zero_matrix():
    res = thin_svd_via_gram(np.zeros((4, 3)), 1e-12)
    assert np.array_equal(res.sigma, np.zeros(3))
    assert res.retained == 0


def test_thin_svd_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        thin_svd_via_gram(np.eye(2), -1.0)


def test_thin_svd_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        m = int(rng.integers(1, min(n, 16) + 1))
        g = random_tall(rng, n, m)
        res = thin_svd_via_gram(g, 0.0)
        approx = np.zeros_like(g)
        for k in range(res.retained):
            approx += res.sigma[k] * np.outer(res.u[:, k], res.right_vectors[:, k])
        assert np.linalg.norm(g - approx) <= 1e-10 * np.linalg.norm(g)


def test_thin_svd_left_orthonormality():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_tall(rng, 60, 8)
        res = thin_svd_via_gram(g, 0.0)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(res.retained))) <= 1e-8


def test_thin_svd_factor_identity_g_v_eq_sigma_u():
    rng = np.random.default_rng(5)
    g = random_tall(rng, 50, 7)
    res = thin_svd_via_gram(g, 0.0)
    for k in range(res.retained):
        lhs = g @ res.right_vectors[:, k]
        rhs = res.sigma[k] * res.u[:, k]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * res.sigma[0]


def test_thin_svd_matches_power_iteration_oracle():
    rng = np.random.default_rng(6)
    g = random_tall(rng, 80, 10)
    res = thin_svd_via_gram(g, 0.0)
    want = singular_values_oracle(g)
    assert np.allclose(res.sigma, want, rtol=1e-8, atol=1e-10 * want[0])


@settings(max_examples=30)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 10), st.integers(2, 5)),
        elements=st.floats(-5, 5, allow_nan=False),
    ),
    st.randoms(use_true_random=False),
)
def test_thin_svd_permutation_leaves_sigma_unchanged(g, rnd):
    m = g.shape[1]
    perm = list(range(m))
    rnd.shuffle(perm)
    base = thin_svd_via_gram(g, 1e-12)
    shuffled = thin_svd_via_gram(g[:, perm], 1e-12)
    # near-zero singular values are only defined down to the Gram route's
    # noise floor of sqrt(eps) * sigma_1
    atol = 3e-8 * (base.sigma[0] + 1.0)
    assert np.allclose(base.sigma, shuffled.sigma, rtol=1e-9, atol=atol)


def test_thin_svd_permutation_equivariance_of_right_vectors():
    # with a generic spectrum the right-vector rows permute along with the
    # columns of G (signs pinned by the eigensolver's convention)
    rng = np.random.default_rng(8)
    g = random_tall(rng, 40, 6)
    perm = rng.permutation(6)
    base = thin_svd_via_gram(g, 1e-12)
    shuffled = thin_svd_via_gram(g[:, perm], 1e-12)
    assert np.allclose(shuffled.right_vectors, base.right_vectors[perm, :], atol=1e-8)


@settings(max_examples=20)
@given(st.floats(1e-3, 1e3))
def test_thin_svd_scale_property(c):
    rng = np.random.default_rng(9)
    g = random_tall(rng, 30, 5)
    base = thin_svd_via_gram(g, 0.0)
    scaled = thin_svd_via_gram(c * g, 0.0)
    assert np.allclose(scaled.sigma, c * base.sigma, rtol=1e-10)
    assert np.allclose(scaled.u, base.u, atol=1e-10)
    assert np.allclose(scaled.right_vectors, base.right_vectors, atol=1e-10)
