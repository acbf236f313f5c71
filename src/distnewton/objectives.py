"""Differentiable test objectives with hand-derived gradients.

Three objectives cover the ground the experiments need: a quadratic with a
known SPD Hessian (the ground-truth oracle for secant-based curvature
estimation), the classic pairwise Rosenbrock function (nonconvex sanity
check), and a small fully-connected softmax classifier reporting mean
negative log-likelihood.  Every gradient here is checked against central
finite differences in the test suite; `finite_diff_grad` is the shared
verification oracle.
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

    def _diff(self, theta) -> np.ndarray:
        t = as_vector(theta)
        if t.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"quadratic: theta has length {t.shape[0]}, expected {self.dim}"
            )
        return t - self.theta_star

    def value(self, theta, batch=None) -> float:
        d = self._diff(theta)
        return float(0.5 * d @ (self.a @ d))

    def gradient(self, theta, batch=None) -> np.ndarray:
        return self.a @ self._diff(theta)


class RosenbrockObjective:
    """Pairwise Rosenbrock: sum over independent coordinate pairs (a, b) of
    100 (b - a^2)^2 + (1 - a)^2.  Global minimum at all ones."""

    def __init__(self, dim: int):
        if dim < 2 or dim % 2 != 0:
            raise ValueError(f"rosenbrock: dimension must be even and >= 2, got {dim}")
        self.dim = dim

    def value(self, theta, batch=None) -> float:
        t = as_vector(theta)
        self._check_dim(t)
        a = t[0::2]
        b = t[1::2]
        return float(np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2))

    def gradient(self, theta, batch=None) -> np.ndarray:
        t = as_vector(theta)
        self._check_dim(t)
        a = t[0::2]
        b = t[1::2]
        g = np.empty_like(t)
        g[0::2] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
        g[1::2] = 200.0 * (b - a**2)
        return g

    def _check_dim(self, t):
        if t.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"rosenbrock: expected dimension {self.dim}, got {t.shape[0]}"
            )


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the softmax classifier: layer sizes and activation."""

    layer_sizes: tuple = (784, 32, 10)
    activation: str = "tanh"

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
        sizes = self.spec.layer_sizes
        parts = []
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            parts.append(rng.standard_normal((fo, fi)).ravel() / np.sqrt(fi))
            parts.append(np.zeros(fo))
        return np.concatenate(parts)

    def _layers(self, theta):
        theta = as_vector(theta)
        if theta.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"mlp: parameter vector has length {theta.shape[0]}, expected {self.dim}"
            )
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
        classes = self.spec.layer_sizes[-1]
        if batch.inputs.shape[0] != self.spec.layer_sizes[0]:
            raise DimensionMismatchError(
                f"mlp: batch has {batch.inputs.shape[0]} features, expected {self.spec.layer_sizes[0]}"
            )
        if batch.labels.min() < 0 or batch.labels.max() >= classes:
            raise ValueError(f"mlp: labels must lie in [0, {classes})")
        acts = [batch.inputs]
        pre = []
        a = batch.inputs
        for i, (w, b) in enumerate(layers):
            z = w @ a + b[:, None]
            pre.append(z)
            if i < len(layers) - 1:
                a = np.tanh(z) if self.spec.activation == "tanh" else np.maximum(z, 0.0)
                acts.append(a)
        return acts, pre

    def _nll(self, logits, labels):
        shifted = logits - logits.max(axis=0)
        lse = np.log(np.exp(shifted).sum(axis=0))
        picked = shifted[labels, np.arange(labels.shape[0])]
        return float(np.mean(lse - picked)), shifted, lse

    def value(self, theta, batch: Batch) -> float:
        layers = self._layers(theta)
        _, pre = self._forward(layers, batch)
        nll, _, _ = self._nll(pre[-1], batch.labels)
        return nll

    def value_and_grad(self, theta, batch: Batch):
        layers = self._layers(theta)
        acts, pre = self._forward(layers, batch)
        nll, shifted, lse = self._nll(pre[-1], batch.labels)
        b = batch.sample_count
        probs = np.exp(shifted - lse)
        delta = probs
        delta[batch.labels, np.arange(b)] -= 1.0
        delta /= b
        grads = [None] * len(layers)
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            grads[i] = (delta @ acts[i].T, delta.sum(axis=1))
            if i > 0:
                back = w.T @ delta
                if self.spec.activation == "tanh":
                    delta = back * (1.0 - acts[i] ** 2)
                else:
                    delta = back * (pre[i - 1] > 0.0)
        flat = np.concatenate([np.concatenate((dw.ravel(), db)) for dw, db in grads])
        return nll, flat

    def gradient(self, theta, batch: Batch) -> np.ndarray:
        return self.value_and_grad(theta, batch)[1]

    def preactivation_signs(self, theta, batch: Batch) -> np.ndarray:
        """Signs of all hidden pre-activations; used to screen finite
        differences away from ReLU kinks."""
        layers = self._layers(theta)
        _, pre = self._forward(layers, batch)
        if len(pre) < 2:
            return np.empty(0)
        return np.concatenate([np.sign(z).ravel() for z in pre[:-1]])


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
    analytic = obj.gradient(theta, batch)[coords]
    numeric = finite_diff_grad(obj, theta, batch, h=h, coords=coords)
    scale = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)), 1e-12)
    diff = np.abs(analytic - numeric)
    worst = int(np.argmax(diff))
    return float(diff[worst] / scale), coords[worst]
