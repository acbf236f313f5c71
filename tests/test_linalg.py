import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from distnewton.data import Batch
from distnewton.errors import AsymmetricMatrixError, DimensionMismatchError
from distnewton.linalg import as_vector, gram, sym_eig, thin_svd_via_gram
from distnewton.objectives import MlpObjective, MlpSpec, QuadraticObjective, RosenbrockObjective
from distnewton.operator import InverseHessianOperator, WorkerReport, apply, center_reports, newton_update

from oracles import power_iteration_eigs, singular_values_oracle


def random_tall(rng, n, m):
    return rng.standard_normal((n, m))


# ------------------------------------------------------------- as_vector


@pytest.mark.parametrize("x", [[], [1.0], np.arange(7), (2, 3.5)])
def test_as_vector_without_length_accepts_any_1d_input(x):
    v = as_vector(x)
    assert v.dtype == np.float64
    assert v.shape == (len(x),)


@pytest.mark.parametrize("length", [None, 4])
def test_as_vector_rejects_2d_input(length):
    with pytest.raises(DimensionMismatchError, match="expected a 1-d vector"):
        as_vector(np.ones((2, 2)), length)


MLP = MlpObjective(MlpSpec((4, 3), "tanh"))  # 15 parameters
MLP_BATCH = Batch(np.ones((4, 2)), [0, 2])
OPERATOR = InverseHessianOperator(np.array([2.0]), np.eye(5, 1, order="F"), np.ones((5, 1), order="F"))

# case -> (entry point, call with one vector of the wrong length, that length, the expected one)
WRONG_LENGTH_CALLS = {
    "quadratic.value": ("quadratic", lambda: QuadraticObjective.seeded(4).value(np.zeros(3)), 3, 4),
    "quadratic.gradient": ("quadratic", lambda: QuadraticObjective.seeded(4).gradient(np.zeros(5), out=np.empty(4)), 5, 4),
    "rosenbrock.value": ("rosenbrock", lambda: RosenbrockObjective(4).value(np.zeros(6)), 6, 4),
    "rosenbrock.gradient": ("rosenbrock", lambda: RosenbrockObjective(4).gradient(np.zeros(2), out=np.empty(4)), 2, 4),
    "mlp.value": ("mlp", lambda: MLP.value(np.zeros(14), MLP_BATCH), 14, 15),
    "mlp.gradient": ("mlp", lambda: MLP.gradient(np.zeros(16), MLP_BATCH, out=np.empty(15)), 16, 15),
    "center_reports.gradient": ("center_reports", lambda: center_reports([WorkerReport(np.zeros(3), np.zeros(2))]), 2, 3),
    "center_reports": ("center_reports", lambda: center_reports([WorkerReport(np.zeros(3), np.zeros(3)),
                                                                 WorkerReport(np.zeros(7), np.zeros(7))]), 7, 3),
    "apply": ("apply", lambda: apply(OPERATOR, np.zeros(6)), 6, 5),
    "newton_update": ("newton_update", lambda: newton_update(OPERATOR, np.zeros(5), np.zeros(4), 0.1), 4, 5),
}


@pytest.mark.parametrize("entry, call, got, want", WRONG_LENGTH_CALLS.values(), ids=WRONG_LENGTH_CALLS.keys())
def test_every_vector_entry_point_rejects_a_wrong_length(entry, call, got, want):
    with pytest.raises(DimensionMismatchError) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(f"{entry}: ")
    assert message.endswith(f"has length {got}, expected {want}")


# ------------------------------------------------------------------ gram


def test_gram_identity():
    assert np.allclose(gram(np.eye(3)), np.eye(3))


def test_gram_single_column():
    assert np.allclose(gram(np.array([[3.0], [4.0]])), [[25.0]])


def test_gram_hand_example():
    g = gram([[1.0, 2.0], [2.0, 4.0]])
    assert np.allclose(g, [[5.0, 10.0], [10.0, 20.0]])


def test_gram_of_a_column_past_the_range_is_finite():
    # 1.44e308 is finite, and an average with the transpose would double it
    assert gram(np.array([[1.2e154]])) == 1.2e154**2


def test_gram_symmetric_psd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = gram(random_tall(rng, 30, 6))
        assert np.array_equal(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > -1e-10 * np.linalg.norm(g)


# --------------------------------------------------------------- sym_eig


def test_sym_eig_diagonal():
    vals, vecs = sym_eig(np.diag([2.0, 5.0]))
    assert np.allclose(vals, [5.0, 2.0])
    assert np.allclose(np.abs(vecs), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_sym_eig_trace_det_oracle():
    # trace 25, determinant 0 pin the spectrum of this rank-1 matrix
    vals, _ = sym_eig([[5.0, 10.0], [10.0, 20.0]])
    assert np.allclose(vals, [25.0, 0.0], atol=1e-12)


def test_sym_eig_identity():
    vals, vecs = sym_eig(np.eye(5))
    assert np.allclose(vals, np.ones(5))
    assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-10)


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
    vals, _ = sym_eig(np.eye(1025))
    assert np.array_equal(vals, np.ones(1025))


def test_sym_eig_residuals_and_orthonormality():
    rng = np.random.default_rng(7)
    for m in (2, 3, 5, 8, 16, 32):
        s = gram(random_tall(rng, m + 10, m))
        vals, vecs = sym_eig(s)
        fro = np.linalg.norm(s)
        assert np.all(np.diff(vals) <= 1e-12 * fro)  # descending
        assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-10)
        for k in range(m):
            resid = s @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.linalg.norm(resid) <= 1e-9 * fro


def test_sym_eig_matches_power_iteration():
    rng = np.random.default_rng(21)
    s = gram(random_tall(rng, 40, 6))
    got, _ = sym_eig(s)
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
    vals, v = sym_eig(s)
    want = power_iteration_eigs(s)
    assert np.allclose(vals, want, rtol=1e-10, atol=1e-12 * np.linalg.norm(s))
    assert np.linalg.norm(s @ v - v * vals) <= 1e-12 * np.linalg.norm(s)


# --------------------------------------------------- thin_svd_via_gram


def test_thin_svd_identity():
    u, sigma, _ = thin_svd_via_gram(np.eye(2), 1e-12)
    assert np.allclose(sigma, [1.0, 1.0])
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)


def test_thin_svd_rank_one():
    u, sigma, _ = thin_svd_via_gram(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-12)
    assert np.allclose(sigma, [5.0, 0.0], atol=1e-12)
    assert u.shape[1] == 1
    want = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(u[:, 0], want, atol=1e-12)


def test_thin_svd_zero_matrix():
    u, sigma, _ = thin_svd_via_gram(np.zeros((4, 3)), 1e-12)
    assert np.array_equal(sigma, np.zeros(3))
    assert u.shape[1] == 0


def test_thin_svd_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        thin_svd_via_gram(np.eye(2), -1.0)


def test_thin_svd_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        m = int(rng.integers(1, min(n, 16) + 1))
        g = random_tall(rng, n, m)
        u, sigma, right = thin_svd_via_gram(g, 0.0)
        approx = np.zeros_like(g)
        for k in range(u.shape[1]):
            approx += sigma[k] * np.outer(u[:, k], right[:, k])
        assert np.linalg.norm(g - approx) <= 1e-10 * np.linalg.norm(g)


def test_thin_svd_left_orthonormality():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_tall(rng, 60, 8)
        u, _, _ = thin_svd_via_gram(g, 0.0)
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-8


def test_thin_svd_factor_identity_g_v_eq_sigma_u():
    rng = np.random.default_rng(5)
    g = random_tall(rng, 50, 7)
    u, sigma, right = thin_svd_via_gram(g, 0.0)
    for k in range(u.shape[1]):
        lhs = g @ right[:, k]
        rhs = sigma[k] * u[:, k]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * sigma[0]


def test_thin_svd_matches_power_iteration_oracle():
    rng = np.random.default_rng(6)
    g = random_tall(rng, 80, 10)
    _, sigma, _ = thin_svd_via_gram(g, 0.0)
    want = singular_values_oracle(g)
    assert np.allclose(sigma, want, rtol=1e-8, atol=1e-10 * want[0])


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
    _, base, _ = thin_svd_via_gram(g, 1e-12)
    _, shuffled, _ = thin_svd_via_gram(g[:, perm], 1e-12)
    # near-zero singular values are only defined down to the Gram route's
    # noise floor of sqrt(eps) * sigma_1
    atol = 3e-8 * (base[0] + 1.0)
    assert np.allclose(base, shuffled, rtol=1e-9, atol=atol)


def test_thin_svd_permutation_equivariance_of_right_vectors():
    # with a generic spectrum the right-vector rows permute along with the
    # columns of G (signs pinned by the eigensolver's convention)
    rng = np.random.default_rng(8)
    g = random_tall(rng, 40, 6)
    perm = rng.permutation(6)
    _, _, base = thin_svd_via_gram(g, 1e-12)
    _, _, shuffled = thin_svd_via_gram(g[:, perm], 1e-12)
    assert np.allclose(shuffled, base[perm, :], atol=1e-8)


@settings(max_examples=20)
@given(st.floats(1e-3, 1e3))
def test_thin_svd_scale_property(c):
    rng = np.random.default_rng(9)
    g = random_tall(rng, 30, 5)
    u, sigma, right = thin_svd_via_gram(g, 0.0)
    u_c, sigma_c, right_c = thin_svd_via_gram(c * g, 0.0)
    assert np.allclose(sigma_c, c * sigma, rtol=1e-10)
    assert np.allclose(u_c, u, atol=1e-10)
    assert np.allclose(right_c, right, atol=1e-10)
