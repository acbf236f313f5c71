import numpy as np
import pytest

from distnewton.errors import DimensionMismatchError
from distnewton.objectives import (
    PROBE_COUNT,
    Batch,
    MlpObjective,
    MlpSpec,
    QuadraticObjective,
    RosenbrockObjective,
    finite_diff_grad,
    max_relative_gradient_error,
    probe_coords,
)

from oracles import mlp_init_oracle, traced_peak


def balanced_batch(rng, features, classes, size):
    inputs = rng.uniform(0.0, 1.0, size=(features, size))
    labels = np.arange(size) % classes
    return Batch(inputs, labels)


# -------------------------------------------------------------- quadratic


def test_quadratic_minimum():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    val, grad = quad.value([0.0, 0.0]), quad.gradient([0.0, 0.0], out=np.empty(2))
    assert val == 0.0
    assert np.array_equal(grad, [0.0, 0.0])


def test_quadratic_hand_values():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    val, grad = quad.value([1.0, 1.0]), quad.gradient([1.0, 1.0], out=np.empty(2))
    assert val == pytest.approx(1.25)
    assert np.allclose(grad, [2.0, 0.5])


def test_quadratic_secant_identity_exact():
    # gradient differences equal Hessian action on parameter differences,
    # to machine precision; the premise of the whole construction
    quad = QuadraticObjective.seeded(6, condition=30.0, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        ta, tb = rng.standard_normal(6), rng.standard_normal(6)
        lhs = quad.gradient(ta, out=np.empty(6)) - quad.gradient(tb, out=np.empty(6))
        rhs = quad.a @ (ta - tb)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


def test_quadratic_simple_secant_column():
    quad = QuadraticObjective(np.diag([2.0, 0.5]), [0.0, 0.0])
    diff = quad.gradient([1.0, 0.0], out=np.empty(2)) - quad.gradient([0.0, 0.0], out=np.empty(2))
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
    val, grad = ros.value(np.ones(6)), ros.gradient(np.ones(6), out=np.empty(6))
    assert val == 0.0
    assert np.array_equal(grad, np.zeros(6))


def test_rosenbrock_origin():
    ros = RosenbrockObjective(2)
    val, grad = ros.value([0.0, 0.0]), ros.gradient([0.0, 0.0], out=np.empty(2))
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


@pytest.mark.parametrize("sizes", [(4, 0, 3), (4, -2, 3), (0, 3), (4, 0)])
def test_mlp_rejects_a_layer_size_below_one(sizes):
    # an empty hidden layer would build a net that predicts uniformly, and a
    # negative one fails later inside numpy; the config demands each >= 1
    bad = min(sizes)
    with pytest.raises(ValueError, match=f"layer size {bad} is below 1"):
        MlpSpec(sizes, "tanh")


def test_mlp_uniform_prediction_nll_is_log_classes():
    rng = np.random.default_rng(4)
    mlp = MlpObjective(MlpSpec((12, 6, 10), "tanh"))
    batch = balanced_batch(rng, 12, 10, 50)
    val = mlp.value(np.zeros(mlp.dim), batch)
    assert val == pytest.approx(np.log(10.0), abs=1e-12)


# no hidden layer, one, and two: every depth the backward loop distinguishes
DEPTHS = pytest.mark.parametrize(
    "sizes", [(20, 5), (20, 16, 5), (20, 16, 12, 5)], ids=lambda s: "-".join(map(str, s))
)


@DEPTHS
def test_mlp_tanh_finite_difference(sizes):
    rng = np.random.default_rng(5)
    mlp = MlpObjective(MlpSpec(sizes, "tanh"))
    for trial in range(3):
        theta = mlp.init_theta(rng)
        batch = balanced_batch(rng, 20, 5, 16)
        coords = rng.choice(mlp.dim, size=20, replace=False)
        err, _ = max_relative_gradient_error(mlp, theta, batch, coords=coords, h=1e-5)
        assert err <= 1e-6


@DEPTHS
def test_mlp_relu_finite_difference_away_from_kinks(sizes):
    rng = np.random.default_rng(6)
    mlp = MlpObjective(MlpSpec(sizes, "relu"))
    theta = mlp.init_theta(rng)
    batch = balanced_batch(rng, 20, 5, 16)
    coords = probe_coords(mlp, theta, batch, rng)
    assert len(coords) == PROBE_COUNT
    err, _ = max_relative_gradient_error(mlp, theta, batch, coords=coords)
    assert err <= 1e-5


@pytest.mark.parametrize("kind", ["tanh", "quadratic"])
def test_probe_coords_is_the_permutation_prefix_off_relu(kind):
    if kind == "quadratic":
        obj, batch = QuadraticObjective.seeded(30, seed=3), None
    else:
        obj = MlpObjective(MlpSpec((4, 3, 2), kind))
        batch = balanced_batch(np.random.default_rng(2), 4, 2, 6)
    theta = obj.init_theta(np.random.default_rng(1))
    coords = probe_coords(obj, theta, batch, np.random.default_rng(8))
    assert coords == np.random.default_rng(8).permutation(obj.dim)[:PROBE_COUNT].tolist()


def test_probe_coords_keeps_a_preactivation_that_stays_at_zero():
    # layers (3, 2, 2): W1 is theta[0:6], b1 theta[6:8], the output layer
    # theta[8:14].  Hidden unit 0 sits exactly at the kink, w . x + b = 1 - 1;
    # only its weight on the nonzero input (0) and its bias (6) move it.
    mlp = MlpObjective(MlpSpec((3, 2, 2), "relu"))
    theta = np.arange(14) / 10.0
    theta[0:3], theta[6] = (1.0, 0.5, -0.5), -1.0
    batch = Batch(np.array([[1.0], [0.0], [0.0]]), np.array([1]))
    assert theta[0:3] @ batch.inputs[:, 0] + theta[6] == 0.0
    # all 14 coordinates are fewer than PROBE_COUNT, so the screen sees each
    coords = probe_coords(mlp, theta, batch, np.random.default_rng(4))
    perm = np.random.default_rng(4).permutation(14).tolist()
    assert coords == [i for i in perm if i not in (0, 6)]
    assert set(range(8, 14)) <= set(coords)


def test_relu_unit_at_zero_is_inactive_in_backprop_and_the_screen():
    # the setup above: hidden unit 0 sits exactly at 0, unit 1 at 0.3 + 0.7
    mlp = MlpObjective(MlpSpec((3, 2, 2), "relu"))
    theta = np.arange(14) / 10.0
    theta[0:3], theta[6] = (1.0, 0.5, -0.5), -1.0
    batch = Batch(np.array([[1.0], [0.0], [0.0]]), np.array([1]))
    active = mlp.active_units(theta, batch)
    assert active.tolist() == [False, True]
    grad = mlp.gradient(theta, batch, out=np.full(14, np.nan))
    # ReLU's subgradient at 0 is 0: no gradient reaches unit 0's incoming
    # weights or its bias
    assert grad[[0, 1, 2, 6]].tolist() == [0.0] * 4
    # with one sample a hidden bias's gradient is W2^T (p - onehot) times the
    # mask backprop used, and no entry of W2^T (p - onehot) is 0 here
    w2, b2 = theta[8:12].reshape(2, 2), theta[12:14]
    p = np.exp(w2 @ [0.0, 1.0] + b2)
    upstream = w2.T @ (p / p.sum() - [0.0, 1.0])
    assert np.all(upstream != 0.0)
    assert np.array_equal(grad[6:8] != 0.0, active)
    assert grad[7] == pytest.approx(upstream[1], rel=1e-12)


@pytest.mark.parametrize("sizes", [(7, 3), (7, 5, 3), (7, 6, 5, 3)])
def test_mlp_init_theta_matches_the_piecewise_oracle(sizes):
    mlp = MlpObjective(MlpSpec(sizes, "tanh"))
    theta = mlp.init_theta(np.random.default_rng(21))
    expect = mlp_init_oracle(sizes, np.random.default_rng(21))
    assert np.array_equal(theta, expect)
    assert np.array_equal(np.signbit(theta), np.signbit(expect))  # -0.0 == 0.0 above


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_gradient_is_written_in_place(activation):
    # beyond the batch and `out`: the hidden activation, written over its
    # pre-activation, the backward delta of that shape, and the logits with
    # their exponentials.  tanh's derivative 1 - a**2 takes two more
    # hidden-sized temporaries, and what ReLU's boolean mask a > 0 takes
    # stays under one more.  Each bound sits less than one hidden-sized array above
    # its activation's peak, so a hidden-sized copy, a flat gradient or a
    # per-layer copy fails it
    features, hidden, classes, b = 784, 32, 10, 256
    mlp = MlpObjective(MlpSpec((features, hidden, classes), activation))
    rng = np.random.default_rng(22)
    theta = mlp.init_theta(rng)
    batch = Batch(np.asfortranarray(rng.uniform(0.0, 1.0, size=(features, b))), np.arange(b) % classes)
    out = np.empty(mlp.dim)
    _, peak = traced_peak(lambda: mlp.gradient(theta, batch, out=out))
    hidden_arrays = {"tanh": 4, "relu": 3}[activation]
    assert peak <= 8 * (hidden_arrays * hidden * b + 2 * classes * b)


def test_mlp_deterministic():
    rng = np.random.default_rng(7)
    mlp = MlpObjective(MlpSpec((10, 8, 4), "tanh"))
    theta = mlp.init_theta(rng)
    batch = balanced_batch(rng, 10, 4, 12)
    v1, g1 = mlp.value(theta, batch), mlp.gradient(theta, batch, out=np.empty(mlp.dim))
    copy = Batch(batch.inputs.copy(), batch.labels.copy())
    v2, g2 = mlp.value(theta.copy(), copy), mlp.gradient(theta.copy(), copy, out=np.empty(mlp.dim))
    assert v1 == v2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "tanh", "relu"])
def test_gradient_writes_every_entry_into_out(name):
    # the protocol: gradient(theta, batch, out=buf) returns buf itself, and
    # its bytes do not depend on what buf held, so every entry is written
    # and none is accumulated
    rng = np.random.default_rng(23)
    objective, batch = {
        "quadratic": (QuadraticObjective.seeded(6, seed=3), None),
        "rosenbrock": (RosenbrockObjective(6), None),
        "tanh": (MlpObjective(MlpSpec((10, 8, 4), "tanh")), balanced_batch(rng, 10, 4, 12)),
        "relu": (MlpObjective(MlpSpec((10, 8, 4), "relu")), balanced_batch(rng, 10, 4, 12)),
    }[name]
    theta = objective.init_theta(rng)
    written = []
    for fill in (np.nan, 0.0):
        buf = np.full(objective.dim, fill)
        assert objective.gradient(theta, batch, out=buf) is buf
        written.append(buf.tobytes())
    assert written[0] == written[1]
    assert np.isfinite(buf).all()


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
    assert np.allclose(fd, quad.gradient(theta, out=np.empty(5)), atol=1e-8)


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
    full = quad.gradient(theta, out=np.empty(6))
    assert np.allclose(fd, full[[1, 4]], atol=1e-8)
