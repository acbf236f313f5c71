"""Dataset ingestion, synthetic data generation, and worker sharding.

IDX layout (all integers big-endian):
    images: u32 magic 0x00000803, u32 count, u32 rows, u32 cols, then
            count*rows*cols unsigned pixel bytes, row-major per image
    labels: u32 magic 0x00000801, u32 count, then count unsigned bytes

Pixels are scaled by 1/255 on load so inputs always sit in [0, 1].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadMagicError, CountMismatchError, DimensionMismatchError, TruncatedFileError
from .linalg import as_matrix

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Batch:
    """Samples as columns: one column of `inputs` per sample, with integer
    labels.  A whole dataset and a worker's minibatch are both batches."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", as_matrix(self.inputs))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.inputs.shape[1] != self.labels.shape[0]:
            raise DimensionMismatchError(
                f"batch: {self.inputs.shape[1]} input columns vs {self.labels.shape[0]} labels"
            )

    @property
    def sample_count(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_count(self) -> int:
        return int(self.inputs.shape[0])

    def subset(self, count: int) -> "Batch":
        """First `count` samples (all of them if there are fewer), in file order."""
        return Batch(self.inputs[:, :count].copy(order="F"), self.labels[:count].copy())


def _read_header(raw: bytes, words: int, path) -> tuple:
    if len(raw) < 4 * words:
        raise TruncatedFileError(path, "header truncated")
    return struct.unpack(f">{words}I", raw[: 4 * words])


def load_idx(images_path, labels_path) -> Batch:
    """Load an image/label IDX pair into a Batch.

    Distinct failures raise distinct errors: wrong magic, truncated
    payload, or an image/label count mismatch.
    """
    img_raw = Path(images_path).read_bytes()
    magic, count, rows, cols = _read_header(img_raw, 4, images_path)
    if magic != IMAGE_MAGIC:
        raise BadMagicError(images_path, f"bad magic 0x{magic:08x}")
    expected = 16 + count * rows * cols
    if len(img_raw) < expected:
        raise TruncatedFileError(
            images_path, f"expected {expected} bytes, file has {len(img_raw)}"
        )
    pixels = np.frombuffer(img_raw, dtype=np.uint8, count=count * rows * cols, offset=16)

    lab_raw = Path(labels_path).read_bytes()
    lab_magic, lab_count = _read_header(lab_raw, 2, labels_path)
    if lab_magic != LABEL_MAGIC:
        raise BadMagicError(labels_path, f"bad magic 0x{lab_magic:08x}")
    if len(lab_raw) < 8 + lab_count:
        raise TruncatedFileError(labels_path, "label payload truncated")
    if lab_count != count:
        raise CountMismatchError(labels_path, f"{count} images but {lab_count} labels")
    labels = np.frombuffer(lab_raw, dtype=np.uint8, count=lab_count, offset=8)

    inputs = np.asfortranarray(
        pixels.reshape(count, rows * cols).T.astype(np.float64) / 255.0
    )
    return Batch(inputs, labels.astype(np.int64))


def synthetic_blobs(
    n_features: int,
    n_classes: int,
    n_samples: int,
    seed: int,
    spread: float = 0.08,
    density: float = 1.0,
) -> Batch:
    """Gaussian class clusters with seeded centers, clipped to [0, 1].

    Labels cycle through the classes so every class is (near) balanced;
    the same seed always reproduces the same dataset bit for bit.
    `density` < 1 restricts each class to a random feature support and
    zeroes everything else, mimicking the mostly-blank layout of digit
    images.
    """
    if min(n_features, n_classes, n_samples) < 1:
        raise ValueError("all counts must be positive")
    rng = np.random.default_rng(seed)
    support = rng.random((n_features, n_classes)) < density
    centers = rng.uniform(0.25, 0.75, size=(n_features, n_classes)) * support
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    noise = spread * rng.standard_normal((n_features, n_samples)) * support[:, labels]
    inputs = centers[:, labels] + noise
    return Batch(np.asfortranarray(np.clip(inputs, 0.0, 1.0)), labels)


@dataclass(frozen=True)
class ShardPlan:
    """Disjoint round-robin split of a permuted dataset across m workers."""

    m: int
    order: np.ndarray  # the permutation the workers take turns through

    def worker_indices(self, k: int) -> np.ndarray:
        """Sample indices for worker k, in permutation order."""
        return self.order[k :: self.m]


def shard(dataset: Batch, m: int, epoch_seed: int) -> ShardPlan:
    """Seeded permutation, round-robin assignment; sizes differ by <= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    order = np.random.default_rng(epoch_seed).permutation(dataset.sample_count)
    return ShardPlan(m, order)
