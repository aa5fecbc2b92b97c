"""Cutting the common watermark into slices and regions, extraction, and the
slice manifest."""

import numpy as np
import pytest

import reference
from conftest import assert_grads_close, finite_difference_grads
from fedmark import artifacts, slicing, watermark


# --- common watermark -----------------------------------------------------------


def common_slices(total_bits, n_clients, seed):
    """Draw a common watermark and cut it for n clients, with regions wide
    enough for any slice."""
    bits = watermark.random_bits(total_bits, seed)
    return bits, slicing.assign_slices(bits, n_clients, n_clients * total_bits, total_bits, seed)


def test_common_watermark_equal_slices():
    bits, assignments = common_slices(128, n_clients=4, seed=0)
    assert [a.client_id for a in assignments] == [0, 1, 2, 3]
    assert [len(a.bits) for a in assignments] == [32, 32, 32, 32]
    np.testing.assert_array_equal(np.concatenate([a.bits for a in assignments]), bits)


def test_common_watermark_remainder_goes_last():
    _, assignments = common_slices(10, n_clients=3, seed=0)
    assert [len(a.bits) for a in assignments] == [3, 3, 4]


def test_common_watermark_one_bit_slices():
    _, assignments = common_slices(5, n_clients=5, seed=1)
    assert [len(a.bits) for a in assignments] == [1] * 5


def test_common_watermark_deterministic_and_balanced():
    a_bits, a = common_slices(1000, n_clients=10, seed=3)
    b_bits, b = common_slices(1000, n_clients=10, seed=3)
    np.testing.assert_array_equal(a_bits, b_bits)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.bits, y.bits)
    assert 0.4 < a_bits.mean() < 0.6  # binomial bound at 1000 draws


def test_common_watermark_needs_a_bit_per_client():
    with pytest.raises(ValueError):
        common_slices(3, n_clients=4, seed=0)
    with pytest.raises(ValueError):
        common_slices(3, n_clients=0, seed=0)


# --- region assignment ----------------------------------------------------------


def test_assign_slices_contiguous_disjoint_regions():
    bits = watermark.random_bits(128, seed=2)
    assignments = slicing.assign_slices(bits, 4, rep_param_count=1000, region_size=250, seed=5)
    spans = [(a.region_start, a.region_stop) for a in assignments]
    assert spans == [(0, 250), (250, 500), (500, 750), (750, 1000)]
    covered = np.concatenate([np.arange(a.region_start, a.region_stop) for a in assignments])
    assert len(np.unique(covered)) == len(covered)
    assert len({a.matrix_seed for a in assignments}) == 4


def test_assign_slices_deterministic():
    bits = watermark.random_bits(64, seed=2)
    a = slicing.assign_slices(bits, 2, 300, 100, seed=9)
    b = slicing.assign_slices(bits, 2, 300, 100, seed=9)
    assert [x.matrix_seed for x in a] == [x.matrix_seed for x in b]


def test_assign_slices_rejects_oversubscription():
    bits = watermark.random_bits(64, seed=2)
    with pytest.raises(ValueError):
        slicing.assign_slices(bits, 4, rep_param_count=900, region_size=250, seed=0)


def test_region_smaller_than_slice_is_rejected():
    bits = watermark.random_bits(128, seed=2)
    with pytest.raises(ValueError):
        slicing.assign_slices(bits, 4, rep_param_count=1000, region_size=16, seed=0)


# --- extraction -----------------------------------------------------------------


def embed_slice(assignment, rep_len, steps=400, lr=0.1, seed=0):
    """Drive a random representation to carry the slice via plain descent."""
    rep = np.random.default_rng(seed).standard_normal(rep_len)
    for _ in range(steps):
        rep[assignment.region_start : assignment.region_stop] -= lr * slicing.slice_loss_and_grad(rep, assignment)
    return rep


def test_extract_slice_after_convergence_is_perfect():
    bits = watermark.random_bits(64, seed=4)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=200, region_size=100, seed=6)
    rep = embed_slice(assignments[0], 200)
    extracted = slicing.extract_slice(rep, assignments[0])
    assert watermark.detection_rate(assignments[0].bits, extracted) == 1.0


def test_slice_detection_rate_scores_the_extracted_slice():
    bits = watermark.random_bits(64, seed=4)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=200, region_size=100, seed=6)
    rep = embed_slice(assignments[0], 200)
    assert slicing.slice_detection_rates([rep], [assignments[0]]) == [1.0]
    for a in assignments:
        expected = watermark.detection_rate(a.bits, slicing.extract_slice(rep, a))
        assert slicing.slice_detection_rates([rep], [a]) == [expected]
    with pytest.raises(ValueError):
        slicing.slice_detection_rates([rep[:150]], [assignments[1]])


def test_slice_detection_rates_score_each_upload_as_alone(monkeypatch):
    """A round's verification: one read per slice shape (here 9 bits, and
    the last slice's 12), each slice's cached matrix read in place, gives
    every upload the rate of its one-vector read alone."""
    bits = watermark.random_bits(66, seed=4)
    assignments = slicing.assign_slices(bits, 7, rep_param_count=210, region_size=30, seed=6)
    rng = np.random.default_rng(8)
    reps = [rng.standard_normal(210) for _ in range(11)]
    owners = [assignments[i] for i in (6, 0, 3, 6, 1, 2, 5, 4, 0, 3, 6)]
    reads = []
    extract = slicing.extract_bits

    def spy(params, matrix):
        reads.append(matrix)
        return extract(params, matrix)

    monkeypatch.setattr(slicing, "extract_bits", spy)
    rates = slicing.slice_detection_rates(reps, owners)
    assert [len(m) for m in reads] == [3, 8]  # uploads of the last slice are read first
    cached = [a.matrix() for a in assignments]
    assert all(isinstance(m, list) for m in reads)
    assert all(any(m is c for c in cached) for matrices in reads for m in matrices)
    monkeypatch.undo()
    assert rates == [watermark.detection_rate(a.bits, slicing.extract_slice(rep, a)) for rep, a in zip(reps, owners)]
    assert len(set(rates)) > 2
    assert slicing.slice_detection_rates([], []) == []


def test_wrong_matrix_reads_noise():
    """Random-projection oracle: a different client's matrix over the same
    region recovers nothing better than coin flips."""
    bits = watermark.random_bits(64, seed=4)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=200, region_size=100, seed=6)
    rep = embed_slice(assignments[0], 200)
    rates = []
    for wrong_seed in range(20):
        impostor = slicing.SliceAssignment(
            client_id=0,
            bits=assignments[0].bits,
            region_start=0,
            region_stop=100,
            matrix_seed=10_000 + wrong_seed,
        )
        rates.append(watermark.detection_rate(impostor.bits, slicing.extract_slice(rep, impostor)))
    assert abs(float(np.mean(rates)) - 0.5) < 0.15
    assert all(0.1 < r < 0.9 for r in rates)


def test_zeroed_region_extracts_zero_bits():
    bits = watermark.random_bits(16, seed=1)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=64, region_size=32, seed=2)
    rep = np.random.default_rng(0).standard_normal(64)
    rep[assignments[1].region_start : assignments[1].region_stop] = 0.0
    np.testing.assert_array_equal(
        slicing.extract_slice(rep, assignments[1]), np.zeros(8, dtype=np.uint8)
    )


def test_extract_slice_checks_bounds():
    bits = watermark.random_bits(16, seed=1)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=64, region_size=32, seed=2)
    with pytest.raises(ValueError):
        slicing.extract_slice(np.zeros(40), assignments[1])


# --- slice loss -----------------------------------------------------------------


def test_slice_gradient_is_confined_to_the_region():
    """Non-interference: descent on the slice loss never moves a parameter
    outside the owner's region."""
    bits = watermark.random_bits(32, seed=7)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=120, region_size=60, seed=8)
    target = assignments[1]
    rep = np.random.default_rng(3).standard_normal(120)
    before = rep.copy()
    for _ in range(50):
        seg_grad = slicing.slice_loss_and_grad(rep, target)
        assert seg_grad.shape == (target.region_size,)
        full = np.zeros_like(rep)
        full[target.region_start : target.region_stop] = seg_grad
        rep -= 0.1 * full
    outside = np.ones(120, dtype=bool)
    outside[target.region_start : target.region_stop] = False
    np.testing.assert_array_equal(rep[outside], before[outside])
    assert not np.array_equal(rep[~outside], before[~outside])


def test_slice_loss_override_bits():
    """Override bits replace the slice as the target: the gradient differs from
    the true slice's and matches finite differences of the reference loss of
    the override over the region."""
    bits = watermark.random_bits(16, seed=9)
    assignments = slicing.assign_slices(bits, 2, rep_param_count=64, region_size=32, seed=0)
    rep = np.random.default_rng(1).standard_normal(64)
    flipped = 1 - assignments[0].bits
    own = slicing.slice_loss_and_grad(rep, assignments[0])
    overridden = slicing.slice_loss_and_grad(rep, assignments[0], bits=flipped)
    assert not np.array_equal(own, overridden)
    region = rep[assignments[0].region_start : assignments[0].region_stop]
    matrix = assignments[0].matrix()
    assert_grads_close(overridden, finite_difference_grads(lambda p: reference.embedding_bce(p, matrix, flipped), region))
    with pytest.raises(ValueError):
        slicing.slice_loss_and_grad(rep, assignments[0], bits=np.array([1, 0]))


# --- manifest -------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    bits = watermark.random_bits(100, seed=11)
    assignments = slicing.assign_slices(bits, 3, rep_param_count=300, region_size=100, seed=12)
    path = tmp_path / "slices.manifest"
    artifacts.write_manifest(assignments, path)
    loaded = artifacts.read_manifest(path)
    assert len(loaded) == 3
    for orig, back in zip(assignments, loaded):
        assert back.client_id == orig.client_id
        assert (back.region_start, back.region_stop) == (orig.region_start, orig.region_stop)
        assert back.matrix_seed == orig.matrix_seed
        np.testing.assert_array_equal(back.bits, orig.bits)


def test_read_manifest_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_manifest.csv"
    path.write_text("round,client\n1,2\n")
    with pytest.raises(ValueError):
        artifacts.read_manifest(path)
