import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distnewton.data import (
    CHUNK_BYTES,
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Batch,
    load_idx,
    shard,
    synthetic_blobs,
)
from distnewton.errors import IdxFormatError
from distnewton.objectives import MlpObjective, MlpSpec

from oracles import synthetic_blobs_oracle, traced_peak


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


@pytest.mark.parametrize(
    "fault, part, text",
    [
        (dict(image_magic=0), "images", "bad magic 0x00000000"),
        (dict(label_magic=0xDEAD), "labels", "bad magic 0x0000dead"),
        (dict(truncate_images=3), "images", "expected 24 bytes, file has 21"),
        (dict(truncate_images=12), "images", "header truncated"),
        (dict(label_count=1), "labels", "2 images but 1 labels"),
    ],
    ids=["bad_magic", "bad_label_magic", "truncated", "header_truncated", "count_mismatch"],
)
def test_load_idx_fault_names_its_file(tmp_path, fault, part, text):
    ipath, lpath = make_idx_pair(tmp_path, [0] * 8, [0, 1], 2, 2, **fault)
    with pytest.raises(IdxFormatError, match=text) as info:
        load_idx(ipath, lpath)
    assert info.value.part == part
    assert str(info.value).startswith(f"{ipath if part == 'images' else lpath}: ")


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


def random_idx_pair(tmp_path, count, rows=3, cols=2, seed=0):
    """An IDX pair of `count` random images and labels."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=count * rows * cols, dtype=np.uint8).tobytes()
    return make_idx_pair(tmp_path, pixels, (np.arange(count) % 10).tolist(), rows, cols)


@pytest.mark.parametrize("count", [0, 1, 5, 6, 7, 50])
def test_load_idx_count_keeps_the_first_samples(tmp_path, count):
    ipath, lpath = random_idx_pair(tmp_path, 6)
    whole = load_idx(ipath, lpath)
    kept = load_idx(ipath, lpath, count)
    assert kept.sample_count == min(count, 6)
    assert kept.inputs.flags.f_contiguous
    assert kept.inputs.tobytes(order="F") == whole.inputs[:, :count].tobytes(order="F")
    assert np.array_equal(kept.labels, whole.labels[:count])


@pytest.mark.parametrize("truncate", ["images", "labels"])
def test_load_idx_truncated_past_the_kept_samples(tmp_path, truncate):
    ipath, lpath = random_idx_pair(tmp_path, 5)
    path = ipath if truncate == "images" else lpath
    path.write_bytes(path.read_bytes()[:-1])
    text = "expected 46 bytes, file has 45" if truncate == "images" else "label payload truncated"
    with pytest.raises(IdxFormatError, match=text) as info:
        load_idx(ipath, lpath, 2)
    assert info.value.part == truncate


def test_load_idx_count_reads_only_the_kept_samples(tmp_path):
    # the kept uint8 pixels and their float64 copy; the file holds 40x more
    kept = 50
    ipath, lpath = random_idx_pair(tmp_path, 2000, rows=28, cols=28)
    ds, peak = traced_peak(lambda: load_idx(ipath, lpath, kept))
    assert ds.sample_count == kept
    assert peak <= 9 * 784 * kept + 2**20


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


@pytest.mark.parametrize(
    "name, value",
    [("spread", -0.15), ("spread", np.nan), ("spread", np.inf),
     ("density", 0.0), ("density", -1.0), ("density", 2.0), ("density", np.nan)],
)
def test_blobs_rejects_spread_and_density_the_config_rejects(name, value):
    # the config's rules: data.spread finite and >= 0, data.density in (0, 1]
    with pytest.raises(ValueError, match=name):
        synthetic_blobs(20, 3, 30, seed=1, **{name: value})


def test_blobs_linearly_separable_enough():
    # a linear softmax classifier trained to convergence clears 90% train
    # accuracy on the (2 features, 2 classes, 200 samples, seed 7) setup
    ds = synthetic_blobs(2, 2, 200, seed=7)
    mlp = MlpObjective(MlpSpec((2, 2), "tanh"))
    theta, grad = np.zeros(mlp.dim), np.empty(mlp.dim)
    for _ in range(2000):
        theta -= 0.5 * mlp.gradient(theta, ds, out=grad)
    layers_w = theta[:4].reshape(2, 2)
    layers_b = theta[4:6]
    logits = layers_w @ ds.inputs + layers_b[:, None]
    accuracy = np.mean(np.argmax(logits, axis=0) == ds.labels)
    assert accuracy > 0.9


def blob_cases():
    """Shapes from one feature row to more than two row chunks, and sample
    counts up to one whose chunk is a single row."""
    def shaped(n_samples):
        step = max(1, CHUNK_BYTES // (16 * n_samples))
        return st.integers(1, 2 * step + 1).map(lambda f: (f, n_samples))

    samples = st.one_of(st.integers(1, 300), st.just(CHUNK_BYTES // 16 + 3))
    return samples.flatmap(shaped)


# the smallest positive density: no draw of rng.random() but an exact 0.0
# falls below it, so every class's feature support is empty
SMALLEST_DENSITY = np.nextafter(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    blob_cases(),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from([SMALLEST_DENSITY, 1.0]), st.floats(0.0, 1.0, exclude_min=True)),
)
@example((CHUNK_BYTES // 160 + 1, 10), 3, 1, 0.15, 0.2)  # more than one chunk, 10 % 3 != 0
@example((3, CHUNK_BYTES // 16 + 3), 2, 2, 0.08, 1.0)  # each chunk one row
@example((5, 7), 1, 3, 0.5, SMALLEST_DENSITY)  # one class, no support
@example((3, 4), 7, 4, 0.3, 0.5)  # fewer samples than classes: no full label cycle
@example((CHUNK_BYTES // 160 + 1, 20), 10, 5, 0.15, 0.2)  # whole label cycles, more than one chunk
def test_blobs_match_the_whole_matrix_oracle(shape, n_classes, seed, spread, density):
    n_features, n_samples = shape
    ds = synthetic_blobs(n_features, n_classes, n_samples, seed, spread=spread, density=density)
    inputs, labels = synthetic_blobs_oracle(n_features, n_classes, n_samples, seed, spread, density)
    assert ds.inputs.flags.f_contiguous
    assert np.array_equal(ds.inputs, inputs)
    assert np.array_equal(np.signbit(ds.inputs), np.signbit(inputs))  # array_equal has -0.0 == 0.0
    assert np.array_equal(ds.labels, labels)


def test_blobs_allocate_one_chunk_beyond_the_dataset():
    ds, peak = traced_peak(lambda: synthetic_blobs(784, 10, 5000, seed=20260811, spread=0.15, density=0.2))
    assert peak <= ds.inputs.nbytes + ds.labels.nbytes + 2 * 2**20


# ------------------------------------------------------------------ shard


def test_shard_single_worker():
    ds = synthetic_blobs(3, 2, 10, seed=3)
    shards = shard(ds, 1, epoch_seed=0)
    assert np.array_equal(np.sort(shards[0]), np.arange(10))


def test_shard_divisible_sizes():
    ds = synthetic_blobs(3, 2, 100, seed=4)
    shards = shard(ds, 4, epoch_seed=1)
    assert [shards[k].shape[0] for k in range(4)] == [25, 25, 25, 25]


def test_shard_deterministic():
    ds = synthetic_blobs(3, 2, 37, seed=5)
    p1 = shard(ds, 3, epoch_seed=9)
    p2 = shard(ds, 3, epoch_seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


def test_shard_new_permutation_per_epoch_seed():
    ds = synthetic_blobs(3, 2, 64, seed=6)
    p1 = shard(ds, 2, epoch_seed=0)
    p2 = shard(ds, 2, epoch_seed=1)
    assert not np.array_equal(np.concatenate(p1), np.concatenate(p2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_shard_partition_property(n, m, epoch_seed):
    ds = Batch(np.zeros((2, n), order="F"), np.zeros(n, dtype=np.int64))
    pieces = shard(ds, m, epoch_seed)
    sizes = [p.shape[0] for p in pieces]
    assert max(sizes) - min(sizes) <= 1
    everything = np.concatenate(pieces)
    assert np.array_equal(np.sort(everything), np.arange(n))


def test_shard_rejects_zero_workers():
    ds = synthetic_blobs(2, 2, 4, seed=7)
    with pytest.raises(ValueError):
        shard(ds, 0, epoch_seed=0)
