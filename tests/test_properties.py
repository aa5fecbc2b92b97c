"""Property tests of the run's invariants: partitions, the key and manifest
formats, the config file, the tamper flip count and cohort scoring."""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from fedmark import nn  # noqa: E402
from fedmark.attacks import tamper_bits  # noqa: E402
from fedmark.config import ConfigError, RunConfig, config_text, load_config, validate_config  # noqa: E402
from fedmark.data import partition_dirichlet, partition_k_labels  # noqa: E402
from fedmark.slicing import SliceAssignment, read_manifest, write_manifest  # noqa: E402
from fedmark.watermark import bits_to_hex, hex_to_bits  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

bit_vectors = st.lists(st.integers(0, 1), max_size=200).map(lambda b: np.array(b, dtype=np.uint8))


def shuffled_labels(num_classes, per_class, seed):
    return np.random.default_rng(seed).permutation(np.repeat(np.arange(num_classes), per_class))


# --- partitions -------------------------------------------------------------------


@st.composite
def k_label_cases(draw):
    """Labels, client count and k; every class has a sample for each client."""
    num_classes = draw(st.integers(2, 6))
    n_clients = draw(st.integers(2, 8))
    k = draw(st.integers(1, num_classes))
    per_class = draw(st.integers(n_clients, n_clients + 10))
    labels = shuffled_labels(num_classes, per_class, draw(st.integers(0, 2**32 - 1)))
    return labels, n_clients, k, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(k_label_cases())
def test_k_label_partitions_are_disjoint_with_exactly_k_labels(case):
    labels, n_clients, k, seed = case
    shards = partition_k_labels(labels, n_clients, k, seed).client_indices
    placed = np.concatenate(shards)
    assert len(np.unique(placed)) == len(placed)
    assert [len(np.unique(labels[shard])) for shard in shards] == [k] * n_clients


@PROPERTY
@given(k_label_cases())
def test_k_label_partitions_drop_no_class_the_clients_can_cover(case):
    labels, n_clients, k, seed = case
    assume(n_clients * k >= len(np.unique(labels)))
    shards = partition_k_labels(labels, n_clients, k, seed).client_indices
    np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(len(labels)))


@PROPERTY
@given(
    st.integers(2, 6),
    st.integers(2, 8),
    st.integers(5, 30),
    st.floats(0.3, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_dirichlet_partitions_place_every_sample_once(num_classes, n_clients, per_class, beta, seed):
    labels = shuffled_labels(num_classes, per_class, seed)
    shards = partition_dirichlet(labels, n_clients, beta, seed).client_indices
    assert len(shards) == n_clients and all(len(shard) for shard in shards)
    np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(len(labels)))


# --- round trips ------------------------------------------------------------------


@PROPERTY
@given(bit_vectors)
def test_bits_survive_hex(bits):
    np.testing.assert_array_equal(hex_to_bits(bits_to_hex(bits), len(bits)), bits)


@st.composite
def assignments(draw):
    bits = draw(bit_vectors.filter(len))
    start = draw(st.integers(0, 10_000))
    stop = start + len(bits) + draw(st.integers(0, 50))
    return SliceAssignment(draw(st.integers(0, 500)), bits, start, stop, draw(st.integers(0, 2**64 - 1)))


@PROPERTY
@given(st.lists(assignments(), max_size=5))
def test_manifest_round_trips(written):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "slices.manifest")
        write_manifest(written, path)
        read = read_manifest(path)
    assert len(read) == len(written)
    for a, b in zip(written, read):
        assert (a.client_id, a.region_start, a.region_stop, a.matrix_seed) == (
            b.client_id,
            b.region_start,
            b.region_stop,
            b.matrix_seed,
        )
        np.testing.assert_array_equal(a.bits, b.bits)


@st.composite
def configs(draw):
    """A valid config with random values in the keys of every field type."""
    config = RunConfig(
        n_clients=draw(st.integers(2, 40)),
        sample_rate=draw(st.floats(0.05, 1.0)),
        rounds=draw(st.integers(0, 50)),
        lr=draw(st.floats(1e-6, 10.0)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 128), min_size=1, max_size=3))),
        private_bits=draw(st.integers(0, 200)),
        slice_total_bits=0,
        embed_strength=draw(st.floats(0.0, 10.0)),
        blob_spread=draw(st.floats(0.0, 3.0)),
        partition=draw(st.sampled_from(["dirichlet", "klabels"])),
        dirichlet_beta=draw(st.floats(0.01, 10.0)),
        fresh_tamper=draw(st.booleans()),
        detector=draw(st.booleans()),
        ban_rejected=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31)),
        output_dir=draw(st.text("abcxyz_/-0189", min_size=1, max_size=12)),
    )
    try:
        validate_config(config)
    except ConfigError:
        assume(False)
    return config


@PROPERTY
@given(configs())
def test_config_text_round_trips(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        with open(path, "w") as f:
            f.write(config_text(config))
        loaded = load_config(path)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(config)


STRING_KEYS = ("output_dir", "idx_images", "idx_labels", "dataset", "partition")


@PROPERTY
@given(configs(), st.sampled_from(STRING_KEYS), st.text(" \t\n\r\x0b\x0c\x85\u2028ab/.", max_size=8))
def test_config_strings_round_trip_or_fail_naming_the_key(config, key, value):
    """A string value with edge whitespace or a line break cannot survive a
    key=value line whose value is stripped: validation rejects it, naming
    the key, and every value it accepts round-trips."""
    changed = dataclasses.replace(config, **{key: value})
    try:
        validate_config(changed)
    except ConfigError as err:
        assert key in str(err)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(config_text(changed))
        loaded = load_config(path)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(changed)


# --- tampering --------------------------------------------------------------------


@PROPERTY
@given(bit_vectors.filter(len), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_tamper_flips_the_floor_count(bits, rate, seed):
    flipped = int(np.count_nonzero(tamper_bits(bits, rate, seed) != bits))
    assert flipped == (max(1, math.floor(rate * len(bits))) if rate > 0.0 else 0)


# --- cohort scoring ---------------------------------------------------------------


@PROPERTY
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(0, 3)),
)
@example(rows=3, n=1, classes=3, seed=0, broken=1)
def test_stacked_accuracy_rows_equal_the_one_model_scores(rows, n, classes, seed, broken):
    """Row i of a cohort's `evaluate_accuracy` is the one-model score of row
    i on its own batch, for one-sample batches and for a row with
    non-finite parameters, which scores 0.0."""
    rng = np.random.default_rng(seed)
    specs = nn.build_layer_specs(3, (4,), classes)
    params = 3.0 * rng.standard_normal((rows, nn.init_model(specs, 0).params.size))
    if broken is not None and broken < rows:
        params[broken, rng.integers(params.shape[1])] = np.nan
    inputs = rng.standard_normal((rows, n, 3))
    labels = rng.integers(0, classes, (rows, n))
    with np.errstate(invalid="ignore"):
        stacked = nn.evaluate_accuracy(nn.Model(specs, params, 1), nn.Batch(inputs, labels))
        alone = [
            nn.evaluate_accuracy(nn.Model(specs, row, 1), nn.Batch(x, y)) for row, x, y in zip(params, inputs, labels)
        ]
    assert stacked.shape == (rows,) and stacked.tolist() == alone
    if broken is not None and broken < rows:
        assert stacked[broken] == 0.0
