"""Dataset ingestion, synthetic data generation, and worker sharding.

IDX layout (all integers big-endian):
    images: u32 magic 0x00000803, u32 count, u32 rows, u32 cols, then
            count*rows*cols unsigned pixel bytes, row-major per image
    labels: u32 magic 0x00000801, u32 count, then count unsigned bytes

Pixels are scaled by 1/255 on load so inputs always sit in [0, 1].  A
malformed pair raises one IdxFormatError, whose `part` names the file at
fault.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IdxFormatError
from .linalg import as_matrix

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
# Working bytes of `synthetic_blobs` beyond its dataset: its one reused
# row chunk of noise draw is sized to half of them.
CHUNK_BYTES = 1 << 20


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


def _read_header(f, words: int, part: str, path) -> tuple:
    raw = f.read(4 * words)
    if len(raw) < 4 * words:
        raise IdxFormatError(part, path, "header truncated")
    return struct.unpack(f">{words}I", raw)


def load_idx(images_path, labels_path, count: int | None = None) -> Batch:
    """Load the first `count` samples (all of them if None or more than the
    files hold) of an image/label IDX pair into a Batch.

    Only the kept samples are read and converted, each image straight
    into its column of the Fortran-order result; the full files' lengths
    are still checked from their sizes.  A wrong magic, a truncated
    header or payload, or an image/label count mismatch raises
    IdxFormatError, its `part` the file at fault ("images" or "labels").
    """
    with open(images_path, "rb") as img, open(labels_path, "rb") as lab:
        magic, total, rows, cols = _read_header(img, 4, "images", images_path)
        if magic != IMAGE_MAGIC:
            raise IdxFormatError("images", images_path, f"bad magic 0x{magic:08x}")
        size, expected = os.fstat(img.fileno()).st_size, 16 + total * rows * cols
        if size < expected:
            raise IdxFormatError("images", images_path, f"expected {expected} bytes, file has {size}")

        lab_magic, lab_count = _read_header(lab, 2, "labels", labels_path)
        if lab_magic != LABEL_MAGIC:
            raise IdxFormatError("labels", labels_path, f"bad magic 0x{lab_magic:08x}")
        if os.fstat(lab.fileno()).st_size < 8 + lab_count:
            raise IdxFormatError("labels", labels_path, "label payload truncated")
        if lab_count != total:
            raise IdxFormatError("labels", labels_path, f"{total} images but {lab_count} labels")

        kept = total if count is None else min(count, total)
        pixels = np.frombuffer(img.read(kept * rows * cols), dtype=np.uint8)
        labels = np.frombuffer(lab.read(kept), dtype=np.uint8)
    inputs = np.empty((rows * cols, kept), order="F")
    np.divide(pixels.reshape(kept, rows * cols), 255.0, out=inputs.T)
    return Batch(inputs, labels)


def synthetic_blobs(
    n_features: int,
    n_classes: int,
    n_samples: int,
    seed: int,
    spread: float = 0.08,
    density: float = 1.0,
) -> Batch:
    """Gaussian class clusters with seeded centers, clipped to [0, 1].

    The dataset is built in its final Fortran-order array, a chunk of
    feature rows at a time: each chunk is drawn into one C-order buffer
    that is reused for every chunk, so the build needs about CHUNK_BYTES
    beyond the dataset.

    Labels cycle through the classes so every class is (near) balanced;
    class supports and centers are therefore broadcast over the chunk's
    full label cycles, and only the last partial cycle takes a slice.
    The same seed always reproduces the same dataset bit for bit.
    `density` < 1 restricts each class to a random feature support and
    zeroes everything else, mimicking the mostly-blank layout of digit
    images.
    """
    if min(n_features, n_classes, n_samples) < 1:
        raise ValueError("all counts must be positive")
    if not 0.0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and >= 0, got {spread}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    # 0.0/1.0 in float64, so that the per-chunk product casts nothing
    support = (rng.random((n_features, n_classes)) < density).astype(np.float64)
    centers = rng.uniform(0.25, 0.75, size=(n_features, n_classes)) * support
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    inputs = np.empty((n_features, n_samples), order="F")
    step = max(1, CHUNK_BYTES // (16 * n_samples))
    cycles, tail = divmod(n_samples, n_classes)
    head = n_samples - tail
    buffer = np.empty((min(step, n_features), n_samples))
    for lo in range(0, n_features, step):
        hi = min(lo + step, n_features)
        chunk = buffer[: hi - lo]
        # Row chunks continue the one row-major draw of the whole matrix.
        rng.standard_normal(out=chunk)
        chunk *= spread
        # Column s has label s % n_classes, so the first `head` columns are
        # whole label cycles; splitting only their last axis keeps a view.
        cycled = np.reshape(chunk[:, :head], (hi - lo, cycles, n_classes), copy=False)
        cycled *= support[lo:hi, None, :]
        cycled += centers[lo:hi, None, :]
        chunk[:, head:] *= support[lo:hi, :tail]
        chunk[:, head:] += centers[lo:hi, :tail]
        np.clip(chunk, 0.0, 1.0, out=chunk)
        inputs[lo:hi] = chunk
    return Batch(inputs, labels)


def shard(dataset: Batch, m: int, epoch_seed: int) -> list[np.ndarray]:
    """Seeded permutation, dealt round-robin: worker k's sample indices are
    order[k::m], in permutation order, so the m shards are disjoint, cover
    the dataset and differ in size by <= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    order = np.random.default_rng(epoch_seed).permutation(dataset.sample_count)
    return [order[k::m] for k in range(m)]
