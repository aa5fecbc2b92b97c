"""Datasets, partitioners, and the IDX loader."""

import struct

import numpy as np
import pytest

from fedmark import data, nn


# --- synthetic blobs ------------------------------------------------------------


def test_blobs_shapes_and_labels():
    ds = data.gen_synthetic_blobs(num_classes=4, dim=8, samples_per_class=50, spread=0.5, seed=3)
    assert ds.inputs.shape == (200, 8)
    assert ds.num_classes == 4
    counts = np.bincount(ds.labels, minlength=4)
    np.testing.assert_array_equal(counts, [50, 50, 50, 50])


def test_blobs_spread_zero_collapses_to_centers():
    ds = data.gen_synthetic_blobs(num_classes=3, dim=4, samples_per_class=20, spread=0.0, seed=9)
    for c in range(3):
        rows = ds.inputs[ds.labels == c]
        np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))


def test_blobs_deterministic():
    a = data.gen_synthetic_blobs(4, 8, 10, 0.5, seed=1)
    b = data.gen_synthetic_blobs(4, 8, 10, 0.5, seed=1)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_blobs_rejects_bad_arguments():
    with pytest.raises(ValueError):
        data.gen_synthetic_blobs(1, 8, 10, 0.5, seed=0)
    with pytest.raises(ValueError):
        data.gen_synthetic_blobs(4, 8, 10, -0.1, seed=0)


def test_blobs_are_learnable_within_200_steps():
    """Training oracle: a small two-layer net separates spread-0.5 blobs."""
    ds = data.gen_synthetic_blobs(num_classes=4, dim=8, samples_per_class=100, spread=0.5, seed=5)
    specs = [nn.LayerSpec(8, 16, "relu"), nn.LayerSpec(16, 4, "softmax")]
    model = nn.init_model(specs, seed=0)
    rng = np.random.default_rng(0)
    steps = 0
    while steps < 200:
        order = rng.permutation(len(ds))
        for lo in range(0, len(order), 20):
            take = order[lo : lo + 20]
            grads = nn.main_task_loss_and_grads(model, nn.Batch(ds.inputs[take], ds.labels[take]))
            nn.apply_sgd(model.params, grads, lr=0.1)
            steps += 1
            if steps == 200:
                break
    assert nn.evaluate_accuracy(model, ds) >= 0.95


# --- dirichlet partition --------------------------------------------------------


def balanced_labels(num_classes=4, per_class=500):
    return np.repeat(np.arange(num_classes), per_class)


def test_dirichlet_near_uniform_at_huge_beta():
    """Monte Carlo: beta=1000 gives every client near-global class proportions."""
    labels = balanced_labels()
    for seed in range(3):
        part = data.partition_dirichlet(labels, n_clients=5, beta=1000.0, seed=seed)
        for shard in part.client_indices:
            proportions = np.bincount(labels[shard], minlength=4) / len(shard)
            assert np.all(np.abs(proportions - 0.25) < 0.1)


def test_dirichlet_skews_at_small_beta():
    labels = balanced_labels()
    skewed = 0
    for seed in range(10):
        part = data.partition_dirichlet(labels, n_clients=5, beta=0.1, seed=seed)
        for shard in part.client_indices:
            top = np.bincount(labels[shard], minlength=4).max()
            if top / len(shard) > 0.5:
                skewed += 1
                break
    assert skewed == 10, "beta=0.1 should concentrate some client on one class every time"


def test_dirichlet_disjoint_and_deterministic():
    labels = balanced_labels(per_class=100)
    a = data.partition_dirichlet(labels, n_clients=4, beta=0.5, seed=11)
    b = data.partition_dirichlet(labels, n_clients=4, beta=0.5, seed=11)
    merged = np.concatenate(a.client_indices)
    assert len(np.unique(merged)) == len(merged)
    for sa, sb in zip(a.client_indices, b.client_indices):
        np.testing.assert_array_equal(sa, sb)


def test_dirichlet_rejects_bad_arguments():
    labels = balanced_labels(per_class=10)
    with pytest.raises(ValueError):
        data.partition_dirichlet(labels, n_clients=1, beta=0.5, seed=0)
    with pytest.raises(ValueError):
        data.partition_dirichlet(labels, n_clients=4, beta=0.0, seed=0)
    with pytest.raises(ValueError):
        data.partition_dirichlet(np.array([0, 1]), n_clients=4, beta=0.5, seed=0)


# --- exact-label-count partition ------------------------------------------------


def test_k_labels_spans_exactly_k():
    labels = balanced_labels(num_classes=10, per_class=100)
    part = data.partition_k_labels(labels, n_clients=10, k=2, seed=4)
    for shard in part.client_indices:
        assert len(np.unique(labels[shard])) == 2


def test_k_labels_all_classes_is_allowed():
    labels = balanced_labels(num_classes=4, per_class=50)
    part = data.partition_k_labels(labels, n_clients=3, k=4, seed=2)
    for shard in part.client_indices:
        assert len(np.unique(labels[shard])) == 4


def test_k_labels_disjoint_and_deterministic():
    labels = balanced_labels(num_classes=4, per_class=100)
    a = data.partition_k_labels(labels, n_clients=6, k=2, seed=8)
    b = data.partition_k_labels(labels, n_clients=6, k=2, seed=8)
    merged = np.concatenate(a.client_indices)
    assert len(np.unique(merged)) == len(merged)
    for sa, sb in zip(a.client_indices, b.client_indices):
        np.testing.assert_array_equal(sa, sb)


def test_k_labels_rejects_k_beyond_classes():
    labels = balanced_labels(num_classes=4, per_class=10)
    with pytest.raises(ValueError):
        data.partition_k_labels(labels, n_clients=3, k=5, seed=0)


def test_k_labels_raises_when_a_class_cannot_be_shared():
    """One sample of class 1 cannot span two labels on four clients."""
    with pytest.raises(ValueError, match="exactly 2 labels"):
        data.partition_k_labels(np.array([0, 0, 0, 0, 1]), n_clients=4, k=2, seed=0)


# --- containers -----------------------------------------------------------------


def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=3)
    with pytest.raises(ValueError):
        data.Dataset(np.zeros(3), np.array([0, 1, 2]), num_classes=3)


def test_partition_rejects_duplicates_and_empties():
    with pytest.raises(ValueError):
        data.Partition([np.array([0, 1]), np.array([1, 2])])
    with pytest.raises(ValueError):
        data.Partition([np.array([0, 1]), np.array([], dtype=np.int64)])


def test_dataset_subset():
    ds = data.Dataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 2, 0, 1]), num_classes=3)
    sub = ds.subset(np.array([1, 3]))
    np.testing.assert_array_equal(sub.labels, [1, 0])
    np.testing.assert_array_equal(sub.inputs, [[2.0, 3.0], [6.0, 7.0]])


# --- IDX loader -----------------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, image_magic=data.IDX_IMAGES_MAGIC,
                   label_magic=data.IDX_LABELS_MAGIC, label_count=None, drop_bytes=0):
    """Hand-build an IDX image/label pair; knobs introduce deliberate damage."""
    count, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    payload = struct.pack(">IIII", image_magic, count, rows, cols) + pixels.tobytes()
    if drop_bytes:
        payload = payload[:-drop_bytes]
    images_path.write_bytes(payload)
    labels_path.write_bytes(
        struct.pack(">II", label_magic, label_count if label_count is not None else count)
        + labels.tobytes()
    )
    return str(images_path), str(labels_path)


def sample_pixels():
    pixels = np.arange(4 * 2 * 3, dtype=np.uint8).reshape(4, 2, 3)
    pixels[0, 0, 0] = 255
    return pixels


def test_load_idx_fixture_round_trip(tmp_path):
    pixels = sample_pixels()
    labels = np.array([1, 0, 2, 1], dtype=np.uint8)
    ds = data.load_idx(*write_idx_pair(tmp_path, pixels, labels))
    assert ds.inputs.shape == (4, 6)
    assert ds.num_classes == 3
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.inputs[0, 0] == 1.0  # pixel 255 scales to exactly 1.0
    np.testing.assert_allclose(ds.inputs[1], pixels[1].ravel() / 255.0)


def test_load_idx_rejects_bad_magic(tmp_path):
    pixels, labels = sample_pixels(), np.zeros(4, dtype=np.uint8)
    images, lab = write_idx_pair(tmp_path, pixels, labels, image_magic=1234)
    with pytest.raises(ValueError, match="magic"):
        data.load_idx(images, lab)
    images, lab = write_idx_pair(tmp_path, pixels, labels, label_magic=1234)
    with pytest.raises(ValueError, match="magic"):
        data.load_idx(images, lab)


def test_load_idx_rejects_truncated_payload(tmp_path):
    images, lab = write_idx_pair(tmp_path, sample_pixels(), np.zeros(4, dtype=np.uint8), drop_bytes=3)
    with pytest.raises(ValueError, match="pixel bytes"):
        data.load_idx(images, lab)


def test_load_idx_rejects_count_mismatch(tmp_path):
    images, lab = write_idx_pair(
        tmp_path, sample_pixels(), np.zeros(5, dtype=np.uint8), label_count=5
    )
    with pytest.raises(ValueError, match="does not match"):
        data.load_idx(images, lab)
