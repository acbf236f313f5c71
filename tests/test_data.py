import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnewton.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Batch,
    load_idx,
    shard,
    synthetic_blobs,
)
from distnewton.errors import BadMagicError, CountMismatchError, TruncatedFileError
from distnewton.objectives import MlpObjective, MlpSpec


def make_idx_pair(tmp_path, pixels, labels, rows, cols, image_magic=IMAGE_MAGIC,
                  label_magic=LABEL_MAGIC, truncate_images=0, label_count=None):
    """Construct fixture files byte by byte."""
    count = len(labels)
    img = struct.pack(">4I", image_magic, count, rows, cols) + bytes(pixels)
    if truncate_images:
        img = img[:-truncate_images]
    lab = struct.pack(">2I", label_magic, count if label_count is None else label_count)
    lab += bytes(labels)
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    ipath.write_bytes(img)
    lpath.write_bytes(lab)
    return ipath, lpath


def test_load_idx_three_image_fixture(tmp_path):
    rows, cols = 28, 28
    pixels = [(i * 7) % 256 for i in range(3 * rows * cols)]
    ipath, lpath = make_idx_pair(tmp_path, pixels, [3, 1, 4], rows, cols)
    ds = load_idx(ipath, lpath)
    assert ds.sample_count == 3
    assert ds.feature_count == 784
    assert np.array_equal(ds.labels, [3, 1, 4])
    assert ds.inputs[0, 0] == pixels[0] / 255.0
    assert ds.inputs[1, 0] == pixels[1] / 255.0  # feature-major per column
    assert ds.inputs[0, 1] == pixels[rows * cols] / 255.0


def test_load_idx_bad_magic(tmp_path):
    ipath, lpath = make_idx_pair(tmp_path, [0] * 4, [0], 2, 2, image_magic=0)
    with pytest.raises(BadMagicError):
        load_idx(ipath, lpath)


def test_load_idx_bad_label_magic(tmp_path):
    ipath, lpath = make_idx_pair(tmp_path, [0] * 4, [0], 2, 2, label_magic=0xDEAD)
    with pytest.raises(BadMagicError):
        load_idx(ipath, lpath)


def test_load_idx_truncated(tmp_path):
    ipath, lpath = make_idx_pair(tmp_path, [0] * 8, [0, 1], 2, 2, truncate_images=3)
    with pytest.raises(TruncatedFileError):
        load_idx(ipath, lpath)


def test_load_idx_count_mismatch(tmp_path):
    # five images claimed, four labels claimed
    pixels = [0] * (5 * 4)
    ipath, lpath = make_idx_pair(tmp_path, pixels, [0] * 5, 2, 2)
    lpath.write_bytes(struct.pack(">2I", LABEL_MAGIC, 4) + bytes([0] * 4))
    with pytest.raises(CountMismatchError):
        load_idx(ipath, lpath)


def test_idx_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(9, 6)).astype(np.uint8)
    ds = Batch(np.asfortranarray(raw.astype(np.float64) / 255.0), np.arange(6) % 3)
    ipath, lpath = make_idx_pair(tmp_path, raw.T.tobytes(), ds.labels.tolist(), 3, 3)
    back = load_idx(ipath, lpath)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def test_loaded_pixels_in_unit_interval(tmp_path):
    pixels = [0, 255, 128, 7]
    ipath, lpath = make_idx_pair(tmp_path, pixels, [1], 2, 2)
    ds = load_idx(ipath, lpath)
    assert ds.inputs.min() >= 0.0
    assert ds.inputs.max() <= 1.0


# ------------------------------------------------------- synthetic_blobs


def test_blobs_deterministic():
    a = synthetic_blobs(10, 3, 50, seed=42)
    b = synthetic_blobs(10, 3, 50, seed=42)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_single_class():
    ds = synthetic_blobs(4, 1, 20, seed=1)
    assert np.array_equal(ds.labels, np.zeros(20, dtype=np.int64))


def test_blobs_range_and_shape():
    ds = synthetic_blobs(8, 5, 64, seed=2)
    assert ds.inputs.shape == (8, 64)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    assert set(np.unique(ds.labels)) == set(range(5))


def test_blobs_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        synthetic_blobs(0, 2, 10, seed=0)


def test_blobs_linearly_separable_enough():
    # a linear softmax classifier trained to convergence clears 90% train
    # accuracy on the (2 features, 2 classes, 200 samples, seed 7) setup
    ds = synthetic_blobs(2, 2, 200, seed=7)
    mlp = MlpObjective(MlpSpec((2, 2), "tanh"))
    theta = np.zeros(mlp.dim)
    for _ in range(2000):
        theta -= 0.5 * mlp.gradient(theta, ds)
    layers_w = theta[:4].reshape(2, 2)
    layers_b = theta[4:6]
    logits = layers_w @ ds.inputs + layers_b[:, None]
    accuracy = np.mean(np.argmax(logits, axis=0) == ds.labels)
    assert accuracy > 0.9


def test_subset_keeps_column_major_layout():
    # minibatches gather columns, which is a contiguous read only in F order
    ds = synthetic_blobs(6, 3, 40, seed=8)
    sub = ds.subset(25)
    assert sub.inputs.flags.f_contiguous
    assert np.array_equal(sub.inputs, ds.inputs[:, :25])
    assert np.array_equal(sub.labels, ds.labels[:25])


# ------------------------------------------------------------------ shard


def test_shard_single_worker():
    ds = synthetic_blobs(3, 2, 10, seed=3)
    plan = shard(ds, 1, epoch_seed=0)
    assert np.array_equal(np.sort(plan.worker_indices(0)), np.arange(10))


def test_shard_divisible_sizes():
    ds = synthetic_blobs(3, 2, 100, seed=4)
    plan = shard(ds, 4, epoch_seed=1)
    assert [plan.worker_indices(k).shape[0] for k in range(4)] == [25, 25, 25, 25]


def test_shard_deterministic():
    ds = synthetic_blobs(3, 2, 37, seed=5)
    p1 = shard(ds, 3, epoch_seed=9)
    p2 = shard(ds, 3, epoch_seed=9)
    assert np.array_equal(p1.order, p2.order)


def test_shard_new_permutation_per_epoch_seed():
    ds = synthetic_blobs(3, 2, 64, seed=6)
    p1 = shard(ds, 2, epoch_seed=0)
    p2 = shard(ds, 2, epoch_seed=1)
    assert not np.array_equal(p1.order, p2.order)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_shard_partition_property(n, m, epoch_seed):
    ds = Batch(np.zeros((2, n), order="F"), np.zeros(n, dtype=np.int64))
    plan = shard(ds, m, epoch_seed)
    pieces = [plan.worker_indices(k) for k in range(m)]
    sizes = [p.shape[0] for p in pieces]
    assert max(sizes) - min(sizes) <= 1
    everything = np.concatenate(pieces)
    assert np.array_equal(np.sort(everything), np.arange(n))


def test_shard_rejects_zero_workers():
    ds = synthetic_blobs(2, 2, 4, seed=7)
    with pytest.raises(ValueError):
        shard(ds, 0, epoch_seed=0)
