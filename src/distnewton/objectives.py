"""Differentiable test objectives with hand-derived gradients.

Three objectives cover the ground the experiments need: a quadratic with a
known SPD Hessian (the ground-truth oracle for secant-based curvature
estimation), the classic pairwise Rosenbrock function (nonconvex sanity
check), and a small fully-connected softmax classifier reporting mean
negative log-likelihood.  Every gradient here is checked against central
finite differences in the test suite; `finite_diff_grad` is the shared
verification oracle.  Every objective draws its own start with
`init_theta(rng)` and has `value` and `gradient(theta, batch, *, out)`,
which writes every entry of the gradient into `out` and returns it, so no
gradient allocates its result.

`probe_coords` picks the coordinates a finite-difference check probes: a
prefix of one seeded permutation.  For a ReLU MLP it skips a coordinate
whose +-h perturbation crosses a kink, that is, where the MLP's
`active_units` at theta + h e_i and theta - h e_i differ in any entry.
Those are the `a > 0` masks backprop multiplies by, so the screen and the
gradient share one definition of a kink: a unit at exactly 0 is inactive
(ReLU's subgradient at 0 is taken as 0), and one that stays inactive at
both ends crosses none.  The objective decides: every other objective
takes the prefix unscreened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch
from .errors import DimensionMismatchError
from .linalg import as_matrix, as_vector


class QuadraticObjective:
    """J(theta) = 0.5 (theta - theta*)^T A (theta - theta*), A symmetric
    positive definite and known exactly.

    The full n-by-n Hessian lives here deliberately: this is a test oracle,
    not server state, and n stays small.
    """

    def __init__(self, a, theta_star):
        self.a = as_matrix(a)
        self.theta_star = as_vector(theta_star)
        n = self.theta_star.shape[0]
        if self.a.shape != (n, n):
            raise DimensionMismatchError(
                f"quadratic: A is {self.a.shape}, theta_star has length {n}"
            )

    @classmethod
    def seeded(cls, dim: int, condition: float = 100.0, seed: int = 0):
        """Random SPD Hessian with an exact condition number.

        Eigenvalues are log-spaced from 1 down to 1/condition and
        conjugated by a seeded random orthogonal basis, so the spectrum is
        reproducible and the conditioning is exactly what was asked for.
        """
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = np.logspace(0.0, -np.log10(condition), dim)
        a = (q * eigs) @ q.T
        a = 0.5 * (a + a.T)
        theta_star = rng.standard_normal(dim)
        return cls(a, theta_star)

    @property
    def dim(self) -> int:
        return int(self.theta_star.shape[0])

    def init_theta(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def _diff(self, theta) -> np.ndarray:
        return as_vector(theta, self.dim, "quadratic: theta") - self.theta_star

    def value(self, theta, batch=None) -> float:
        d = self._diff(theta)
        return float(0.5 * d @ (self.a @ d))

    def gradient(self, theta, batch=None, *, out) -> np.ndarray:
        return np.matmul(self.a, self._diff(theta), out=out)


class RosenbrockObjective:
    """Pairwise Rosenbrock: sum over independent coordinate pairs (a, b) of
    100 (b - a^2)^2 + (1 - a)^2.  Global minimum at all ones."""

    def __init__(self, dim: int):
        if dim < 2 or dim % 2 != 0:
            raise ValueError(f"rosenbrock: dimension must be even and >= 2, got {dim}")
        self.dim = dim

    def init_theta(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def value(self, theta, batch=None) -> float:
        t = as_vector(theta, self.dim, "rosenbrock: theta")
        a = t[0::2]
        b = t[1::2]
        return float(np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2))

    def gradient(self, theta, batch=None, *, out) -> np.ndarray:
        t = as_vector(theta, self.dim, "rosenbrock: theta")
        a = t[0::2]
        b = t[1::2]
        out[0::2] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
        out[1::2] = 200.0 * (b - a**2)
        return out


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the softmax classifier: layer sizes and activation."""

    layer_sizes: tuple
    activation: str

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("mlp: need at least input and output layer sizes")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"mlp: unknown activation {self.activation!r}")

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum((fi + 1) * fo for fi, fo in zip(sizes[:-1], sizes[1:]))


class MlpObjective:
    """Fully-connected softmax classifier; loss is mean negative
    log-likelihood over the batch.

    Parameters live in one flat vector, per layer a (fan_out, fan_in)
    weight block followed by the fan_out biases.  The softmax subtracts
    the max logit and the loss goes through log-sum-exp, so values stay
    finite until the parameters themselves blow up.  ReLU's subgradient
    at 0 is taken as 0.
    """

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        self.dim = spec.param_count

    def init_theta(self, rng) -> np.ndarray:
        """Seeded init: weights scaled by 1/sqrt(fan_in), zero biases."""
        theta = np.empty(self.dim)
        for w, b in self._layers(theta):
            rng.standard_normal(out=w)  # the C-order stream of a (fan_out, fan_in) draw
            w /= np.sqrt(w.shape[1])
            b[:] = 0.0
        return theta

    def _layers(self, theta):
        """The one map from a flat vector to per-layer (W, b) views into it."""
        theta = as_vector(theta, self.dim, "mlp: parameter vector")
        sizes = self.spec.layer_sizes
        out = []
        pos = 0
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            w = theta[pos : pos + fo * fi].reshape(fo, fi)
            pos += fo * fi
            b = theta[pos : pos + fo]
            pos += fo
            out.append((w, b))
        return out

    def _forward(self, layers, batch: Batch):
        """The inputs and each hidden activation, in one list, and the
        logits.  Every activation overwrites its own pre-activation, so
        backprop reads the tanh derivative and the ReLU mask off it."""
        classes = self.spec.layer_sizes[-1]
        if batch.inputs.shape[0] != self.spec.layer_sizes[0]:
            raise DimensionMismatchError(
                f"mlp: batch has {batch.inputs.shape[0]} features, expected {self.spec.layer_sizes[0]}"
            )
        if batch.labels.min() < 0 or batch.labels.max() >= classes:
            raise ValueError(f"mlp: labels must lie in [0, {classes})")
        acts, z = [], batch.inputs
        for w, b in layers:
            acts.append(z)
            z = w @ z
            z += b[:, None]
            if len(acts) == len(layers):
                break  # the logits
            if self.spec.activation == "tanh":
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        return acts, z

    def value(self, theta, batch: Batch) -> float:
        """Mean NLL; the logits are shifted in place by their column max and
        overwritten by their exponentials."""
        _, logits = self._forward(self._layers(theta), batch)
        logits -= logits.max(axis=0)
        picked = logits[batch.labels, np.arange(batch.sample_count)]
        lse = np.log(np.exp(logits, out=logits).sum(axis=0))
        return float(np.mean(lse - picked))

    def gradient(self, theta, batch: Batch, *, out) -> np.ndarray:
        layers = self._layers(theta)
        acts, delta = self._forward(layers, batch)  # the logits, made the probabilities in place
        b = batch.sample_count
        delta -= delta.max(axis=0)
        delta -= np.log(np.exp(delta).sum(axis=0))
        np.exp(delta, out=delta)
        delta[batch.labels, np.arange(b)] -= 1.0
        delta /= b
        for i, (dw, db) in reversed(list(enumerate(self._layers(out)))):
            np.matmul(delta, acts[i].T, out=dw)
            np.sum(delta, axis=1, out=db)
            if i > 0:
                delta = layers[i][0].T @ delta
                delta *= 1.0 - acts[i] ** 2 if self.spec.activation == "tanh" else acts[i] > 0.0
        return out

    def active_units(self, theta, batch: Batch) -> np.ndarray:
        """Whether each hidden unit is active, `a > 0`, for every sample: the
        mask ReLU's backprop multiplies by, and what `probe_coords` compares
        to screen finite differences away from ReLU kinks.  Empty for a net
        with no hidden layer."""
        acts, _ = self._forward(self._layers(theta), batch)
        return np.concatenate([a.ravel() for a in acts[1:]] + [np.empty(0)]) > 0.0


def probe_coords(obj, theta, batch, rng, count: int = 20, h: float = 1e-5) -> list:
    """The first `count` entries of one `rng.permutation` of the coordinates
    whose central difference at step `h` crosses no ReLU kink.

    Only a ReLU `MlpObjective` is screened.  Its output-layer parameters
    never move a hidden pre-activation, so the screen always keeps some.
    """
    screen = isinstance(obj, MlpObjective) and obj.spec.activation == "relu"
    coords = []
    for i in rng.permutation(theta.shape[0]).tolist():
        if len(coords) >= count:
            break
        if screen:
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            if not np.array_equal(obj.active_units(up, batch), obj.active_units(down, batch)):
                continue
        coords.append(i)
    return coords


def finite_diff_grad(obj, theta, batch=None, h: float = 1e-5, coords=None) -> np.ndarray:
    """Central-difference gradient oracle.

    Perturbs one coordinate at a time; `coords` restricts the check to a
    subset (essential when n is large).  Returns the gradient entries for
    the requested coordinates, all of them by default.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    theta = as_vector(theta).copy()
    coords = list(range(theta.shape[0])) if coords is None else list(coords)
    out = np.empty(len(coords))
    for idx, i in enumerate(coords):
        orig = theta[i]
        theta[i] = orig + h
        fp = obj.value(theta, batch)
        theta[i] = orig - h
        fm = obj.value(theta, batch)
        theta[i] = orig
        out[idx] = (fp - fm) / (2.0 * h)
    return out


def max_relative_gradient_error(obj, theta, batch=None, coords=None, h: float = 1e-5):
    """Worst-case disagreement between the analytic gradient and central
    differences, relative to the gradient's own scale.

    Returns (error, coordinate).  The scale is the largest magnitude seen
    in either gradient over the probed coordinates, floored to dodge
    division by zero on flat objectives.
    """
    theta = as_vector(theta)
    coords = list(range(theta.shape[0])) if coords is None else list(coords)
    analytic = obj.gradient(theta, batch, out=np.empty_like(theta))[coords]
    numeric = finite_diff_grad(obj, theta, batch, h=h, coords=coords)
    scale = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)), 1e-12)
    diff = np.abs(analytic - numeric)
    worst = int(np.argmax(diff))
    return float(diff[worst] / scale), coords[worst]
