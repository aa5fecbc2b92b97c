"""Seed derivation: determinism, sensitivity, stream separation, and the
vectorized per-round path, bit for bit against numpy's own."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedmark import seeding

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def test_derive_seed_is_deterministic():
    assert seeding.derive_seed(7, 1, 2) == seeding.derive_seed(7, 1, 2)


def test_derive_seed_changes_with_any_part():
    base = seeding.derive_seed(7, 1, 2)
    assert seeding.derive_seed(8, 1, 2) != base
    assert seeding.derive_seed(7, 2, 2) != base
    assert seeding.derive_seed(7, 1, 3) != base


def test_derive_seed_is_order_sensitive():
    assert seeding.derive_seed(1, 2) != seeding.derive_seed(2, 1)


def test_derive_seed_range():
    value = seeding.derive_seed(0)
    assert isinstance(value, int)
    assert 0 <= value < 2**64


def test_derive_seed_rejects_negative_parts():
    with pytest.raises(ValueError):
        seeding.derive_seed(3, -1)


def test_stream_constants_are_distinct():
    streams = [
        value
        for name, value in vars(seeding).items()
        if name.startswith("STREAM_")
    ]
    assert len(streams) == len(set(streams))


def test_streams_produce_distinct_seeds():
    seeds = {
        seeding.derive_seed(0, stream)
        for stream in (
            seeding.STREAM_INIT,
            seeding.STREAM_DATA,
            seeding.STREAM_PARTITION,
            seeding.STREAM_SAMPLING,
            seeding.STREAM_LOCAL_BATCHES,
        )
    }
    assert len(seeds) == 5


# --- the vectorized path -----------------------------------------------------------

# master seeds span one, two and three 32-bit words; key ids fill one word
MASTER_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**80))
STREAMS = st.integers(0, 11)
IDS = st.lists(st.integers(0, 2**32 - 1), max_size=12)
ROUNDS = st.one_of(st.integers(0, 1000), st.integers(2**32, 2**40))
CHILD_SEEDS = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)), max_size=12)


def scalar_keys(key, count):
    """The `count` keys of a vectorized key: entry i of each list part."""
    return [[part[i] if isinstance(part, list) else part for part in key] for i in range(count)]


@PROPERTY
@given(MASTER_SEEDS, STREAMS, IDS, ROUNDS)
def test_derive_seeds_equals_derive_seed_per_key(seed, stream, ids, round_index):
    """Every key shape a run hashes: (seed, stream, client, round) and
    (seed, stream, client); also an array part first and two array parts."""
    for key in (
        (seed, stream, ids, round_index),
        (seed, stream, ids),
        (ids, seed),
        (seed, ids, stream, ids[::-1], round_index),
    ):
        got = seeding.derive_seeds(*key)
        assert got.dtype == np.uint64
        assert got.tolist() == [seeding.derive_seed(*k) for k in scalar_keys(key, len(ids))]


@PROPERTY
@given(CHILD_SEEDS)
def test_seeded_generators_start_where_default_rng_starts(seeds):
    """Child seeds below 2**32 (one entropy word) and above it (two), fed in
    directly: each yielded state is default_rng's, and so are its draws,
    whatever the previous seed's draws left behind."""
    states, draws = [], []
    for generator in seeding.seeded_generators(np.array(seeds, dtype=np.uint64)):
        states.append(generator.bit_generator.state)
        # a 32-bit draw buffers half a word: the next seed must not inherit it
        draws.append((generator.integers(0, 7, dtype=np.uint32), generator.permutation(9).tolist()))
    assert states == [np.random.default_rng(s).bit_generator.state for s in seeds]
    for (small, order), s in zip(draws, seeds):
        reference = np.random.default_rng(s)
        assert small == reference.integers(0, 7, dtype=np.uint32)
        assert order == reference.permutation(9).tolist()


@PROPERTY
@given(MASTER_SEEDS, STREAMS, IDS, ROUNDS)
def test_round_generators_equal_default_rng_of_derive_seed(seed, stream, ids, round_index):
    generators = seeding.seeded_generators(seeding.derive_seeds(seed, stream, ids, round_index))
    states = [g.bit_generator.state for g in generators]
    reference = [np.random.default_rng(seeding.derive_seed(seed, stream, c, round_index)) for c in ids]
    assert states == [r.bit_generator.state for r in reference]


def test_derive_seeds_validates_its_parts():
    assert seeding.derive_seeds(0, seeding.STREAM_TAMPER, []).tolist() == []
    with pytest.raises(ValueError, match="array key part"):
        seeding.derive_seeds(1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        seeding.derive_seeds(-1, [1, 2])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        seeding.derive_seeds(0, [1, 2**32])
    with pytest.raises(ValueError, match="one length"):
        seeding.derive_seeds(0, [1, 2], [3])


def test_importing_the_cli_loads_no_numpy_random():
    """`import fedmark.cli` does not pay for importing numpy.random, which
    takes milliseconds: fedmark builds its shared generator on first use."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(seeding.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, fedmark.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path), check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "False"
