import numpy as np
import pytest

from distnewton.errors import DimensionMismatchError
from distnewton.objectives import (
    Batch,
    MlpObjective,
    MlpSpec,
    QuadraticObjective,
    RosenbrockObjective,
    finite_diff_grad,
    max_relative_gradient_error,
)


def balanced_batch(rng, features, classes, size):
    inputs = rng.uniform(0.0, 1.0, size=(features, size))
    labels = np.arange(size) % classes
    return Batch(inputs, labels)


# -------------------------------------------------------------- quadratic


def test_quadratic_minimum():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    val, grad = quad.value([0.0, 0.0]), quad.gradient([0.0, 0.0])
    assert val == 0.0
    assert np.array_equal(grad, [0.0, 0.0])


def test_quadratic_hand_values():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    val, grad = quad.value([1.0, 1.0]), quad.gradient([1.0, 1.0])
    assert val == pytest.approx(1.25)
    assert np.allclose(grad, [2.0, 0.5])


def test_quadratic_secant_identity_exact():
    # gradient differences equal Hessian action on parameter differences,
    # to machine precision; the premise of the whole construction
    quad = QuadraticObjective.seeded(6, condition=30.0, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        ta, tb = rng.standard_normal(6), rng.standard_normal(6)
        lhs = quad.gradient(ta) - quad.gradient(tb)
        rhs = quad.a @ (ta - tb)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


def test_quadratic_simple_secant_column():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    diff = quad.gradient([1.0, 0.0]) - quad.gradient([0.0, 0.0])
    assert np.array_equal(diff, [2.0, 0.0])


def test_quadratic_seeded_condition_number():
    quad = QuadraticObjective.seeded(8, condition=100.0, seed=5)
    eigs = np.linalg.eigvalsh(quad.a)
    assert eigs.min() > 0
    assert eigs.max() / eigs.min() == pytest.approx(100.0, rel=1e-9)


def test_quadratic_dimension_mismatch():
    quad = QuadraticObjective.seeded(4, seed=1)
    with pytest.raises(DimensionMismatchError):
        quad.value([1.0, 2.0])


# ------------------------------------------------------------- rosenbrock


def test_rosenbrock_global_minimum():
    ros = RosenbrockObjective(6)
    val, grad = ros.value(np.ones(6)), ros.gradient(np.ones(6))
    assert val == 0.0
    assert np.array_equal(grad, np.zeros(6))


def test_rosenbrock_origin():
    ros = RosenbrockObjective(2)
    val, grad = ros.value([0.0, 0.0]), ros.gradient([0.0, 0.0])
    assert val == pytest.approx(1.0)
    assert np.allclose(grad, [-2.0, 0.0])


def test_rosenbrock_rejects_bad_dimension():
    with pytest.raises(ValueError):
        RosenbrockObjective(1)
    with pytest.raises(ValueError):
        RosenbrockObjective(5)


def test_rosenbrock_finite_difference():
    ros = RosenbrockObjective(8)
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.uniform(-2.0, 2.0, size=8)
        err, _ = max_relative_gradient_error(ros, theta, h=1e-6)
        assert err <= 1e-6


# -------------------------------------------------------------------- mlp


def test_mlp_param_count():
    spec = MlpSpec((784, 32, 10), "tanh")
    assert spec.param_count == (784 + 1) * 32 + (32 + 1) * 10


def test_mlp_rejects_unknown_activation():
    with pytest.raises(ValueError):
        MlpSpec((4, 2), "sigmoid")


def test_mlp_uniform_prediction_nll_is_log_classes():
    rng = np.random.default_rng(4)
    mlp = MlpObjective(MlpSpec((12, 6, 10), "tanh"))
    batch = balanced_batch(rng, 12, 10, 50)
    val = mlp.value(np.zeros(mlp.dim), batch)
    assert val == pytest.approx(np.log(10.0), abs=1e-12)


def test_mlp_tanh_finite_difference():
    rng = np.random.default_rng(5)
    mlp = MlpObjective(MlpSpec((20, 16, 5), "tanh"))
    for trial in range(3):
        theta = mlp.init_theta(rng)
        batch = balanced_batch(rng, 20, 5, 16)
        coords = rng.choice(mlp.dim, size=20, replace=False)
        err, _ = max_relative_gradient_error(mlp, theta, batch, coords=coords, h=1e-5)
        assert err <= 1e-6


def test_mlp_relu_finite_difference_away_from_kinks():
    rng = np.random.default_rng(6)
    mlp = MlpObjective(MlpSpec((20, 16, 5), "relu"))
    theta = mlp.init_theta(rng)
    batch = balanced_batch(rng, 20, 5, 16)
    h = 1e-5
    coords = []
    for i in rng.permutation(mlp.dim):
        if len(coords) >= 20:
            break
        up, down = theta.copy(), theta.copy()
        up[int(i)] += h
        down[int(i)] -= h
        su = mlp.preactivation_signs(up, batch)
        sd = mlp.preactivation_signs(down, batch)
        if np.all(su == sd) and np.all(su != 0.0):
            coords.append(int(i))
    assert len(coords) == 20
    err, _ = max_relative_gradient_error(mlp, theta, batch, coords=coords, h=h)
    assert err <= 1e-5


def test_mlp_deterministic():
    rng = np.random.default_rng(7)
    mlp = MlpObjective(MlpSpec((10, 8, 4), "tanh"))
    theta = mlp.init_theta(rng)
    batch = balanced_batch(rng, 10, 4, 12)
    v1, g1 = mlp.value_and_grad(theta, batch)
    v2, g2 = mlp.value_and_grad(theta.copy(), Batch(batch.inputs.copy(), batch.labels.copy()))
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_mlp_nll_nonnegative():
    rng = np.random.default_rng(8)
    mlp = MlpObjective(MlpSpec((6, 5, 3), "relu"))
    batch = balanced_batch(rng, 6, 3, 30)
    for _ in range(10):
        theta = mlp.init_theta(rng) * rng.uniform(0.1, 3.0)
        assert mlp.value(theta, batch) >= 0.0


def test_mlp_rejects_bad_labels():
    mlp = MlpObjective(MlpSpec((4, 3), "tanh"))
    batch = Batch(np.zeros((4, 2)), [0, 7])
    with pytest.raises(ValueError):
        mlp.value(np.zeros(mlp.dim), batch)


def test_mlp_rejects_wrong_theta_length():
    mlp = MlpObjective(MlpSpec((4, 3), "tanh"))
    rng = np.random.default_rng(9)
    batch = balanced_batch(rng, 4, 3, 5)
    with pytest.raises(DimensionMismatchError):
        mlp.value(np.zeros(3), batch)


# -------------------------------------------------------- finite_diff_grad


class _Constant:
    dim = 3

    def value(self, theta, batch=None):
        return 4.0

    def gradient(self, theta, batch=None):
        return np.zeros(3)


def test_finite_diff_constant_objective():
    fd = finite_diff_grad(_Constant(), np.ones(3), h=1e-5)
    assert np.array_equal(fd, np.zeros(3))


def test_finite_diff_matches_quadratic_analytic():
    quad = QuadraticObjective.seeded(5, condition=10.0, seed=11)
    rng = np.random.default_rng(12)
    theta = rng.standard_normal(5)
    fd = finite_diff_grad(quad, theta, h=1e-5)
    assert np.allclose(fd, quad.gradient(theta), atol=1e-8)


def test_finite_diff_rosenbrock_origin():
    fd = finite_diff_grad(RosenbrockObjective(2), np.zeros(2), h=1e-6)
    assert np.allclose(fd, [-2.0, 0.0], atol=1e-6)


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_grad(_Constant(), np.ones(3), h=0.0)


def test_finite_diff_coordinate_subset():
    quad = QuadraticObjective.seeded(6, seed=13)
    theta = np.ones(6)
    fd = finite_diff_grad(quad, theta, h=1e-5, coords=[1, 4])
    full = quad.gradient(theta)
    assert np.allclose(fd, full[[1, 4]], atol=1e-8)
