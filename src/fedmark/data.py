"""Datasets and non-IID client partitioning.

Provides seeded synthetic Gaussian blobs, an IDX-format loader for real
image data, and two label-skew partitioners: Dirichlet proportions and an
exact distinct-label-count scheme.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049

_MAX_PARTITION_ATTEMPTS = 1000


@dataclass
class Dataset:
    """Feature matrix plus integer labels."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d, got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must be one integer per input row")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[indices], self.labels[indices], self.num_classes)


@dataclass
class Partition:
    """Per-client index lists into a dataset. Shards are pairwise disjoint
    and every client holds at least one sample."""

    client_indices: list = field(default_factory=list)

    def __post_init__(self):
        self.client_indices = [np.asarray(ix, dtype=np.int64) for ix in self.client_indices]
        if any(len(ix) == 0 for ix in self.client_indices):
            raise ValueError("every client must receive at least one sample")
        merged = np.concatenate(self.client_indices) if self.client_indices else np.array([])
        if len(np.unique(merged)) != len(merged):
            raise ValueError("client shards must be pairwise disjoint")


def gen_synthetic_blobs(
    num_classes: int, dim: int, samples_per_class: int, spread: float, seed: int
) -> Dataset:
    """Isotropic Gaussian clusters around seeded class centers.

    spread is the per-coordinate standard deviation around the center;
    spread=0 collapses each class onto its center.
    """
    if num_classes < 2 or dim < 1 or samples_per_class < 1:
        raise ValueError("need num_classes >= 2, dim >= 1, samples_per_class >= 1")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    inputs = np.repeat(centers, samples_per_class, axis=0)
    inputs = inputs + spread * rng.standard_normal(inputs.shape)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    order = rng.permutation(len(labels))
    return Dataset(inputs[order], labels[order], num_classes)


def partition_dirichlet(labels: np.ndarray, n_clients: int, beta: float, seed: int) -> Partition:
    """Label-skewed split: per class, client proportions drawn from a
    symmetric Dirichlet(beta). The draw is retried until every client ends up
    with at least one sample."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if len(labels) < n_clients:
        raise ValueError(f"dataset too small: {len(labels)} samples for {n_clients} clients")

    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    for _ in range(_MAX_PARTITION_ATTEMPTS):
        buckets = [[] for _ in range(n_clients)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            proportions = rng.dirichlet(np.full(n_clients, beta))
            cuts = (np.cumsum(proportions)[:-1] * len(idx)).astype(np.int64)
            for client, chunk in enumerate(np.split(idx, cuts)):
                buckets[client].extend(chunk.tolist())
        if all(buckets):
            return Partition([np.sort(np.array(b)) for b in buckets])
    raise ValueError("could not give every client a sample; dataset too small or beta too skewed")


def partition_k_labels(labels: np.ndarray, n_clients: int, k: int, seed: int) -> Partition:
    """Exact label-diversity split: every client receives samples spanning
    exactly k distinct labels. Class assignments come from a balanced seeded
    deck; each class's samples are shuffled and dealt round-robin to the
    clients holding that class. When n_clients * k covers the classes, a
    deal that leaves a class without a holder is drawn again, so every
    sample is placed; otherwise the classes no client holds are dropped."""
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    num_classes = len(classes)
    if not 1 <= k <= num_classes:
        raise ValueError(f"k must lie in [1, {num_classes}], got {k}")
    if n_clients < 2:
        raise ValueError("need at least 2 clients")

    rng = np.random.default_rng(seed)
    copies = -(-n_clients * k // num_classes)  # ceil division
    for _ in range(_MAX_PARTITION_ATTEMPTS):
        deck = np.repeat(classes, copies)
        rng.shuffle(deck)
        deck = deck.tolist()
        assigned = []
        for _client in range(n_clients):
            picked = []
            rest = []
            for c in deck:
                if len(picked) < k and c not in picked:
                    picked.append(c)
                else:
                    rest.append(c)
            if len(picked) < k:
                break
            deck = rest
            assigned.append(picked)
        holders = {c: [i for i, labs in enumerate(assigned) if c in labs] for c in classes}
        if len(assigned) < n_clients or (n_clients * k >= num_classes and not all(holders.values())):
            continue
        buckets = [[] for _ in range(n_clients)]
        for c in classes:
            who = holders[c]
            if not who:
                continue
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            for j, sample in enumerate(idx):
                buckets[who[j % len(who)]].append(int(sample))
        spans = [len(np.unique(labels[np.array(b)])) if b else 0 for b in buckets]
        if all(span == k for span in spans):
            return Partition([np.sort(np.array(b)) for b in buckets])
    raise ValueError(f"could not build a partition with exactly {k} labels per client")


def read_idx(path: str, magic: int, dims: int, payload: bool = True):
    """An IDX file's `dims` sizes, read after its big-endian magic number,
    and its payload bytes (b"" when `payload` is False: the header alone)."""
    with open(path, "rb") as f:
        header = f.read(4 * (dims + 1))
        if len(header) < 4 * (dims + 1):
            raise ValueError(f"{path}: truncated IDX header")
        found, *shape = struct.unpack(f">{dims + 1}I", header)
        if found != magic:
            raise ValueError(f"{path}: bad magic {found}, expected {magic}")
        return shape, f.read() if payload else b""


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read an IDX image/label file pair (big-endian, uint8 payload).

    Pixels are flattened per image and scaled to [0, 1].
    """
    (count, rows, cols), payload = read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    expected = count * rows * cols
    if len(payload) != expected:
        raise ValueError(f"{images_path}: expected {expected} pixel bytes, got {len(payload)}")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)

    (label_count,), payload = read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(payload) != label_count:
        raise ValueError(f"{labels_path}: expected {label_count} label bytes, got {len(payload)}")
    if label_count != count:
        raise ValueError(f"image count {count} does not match label count {label_count}")
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)

    return Dataset(images.astype(np.float64) / 255.0, labels, int(labels.max()) + 1)
