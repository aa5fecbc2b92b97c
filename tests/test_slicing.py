"""Common watermark generation, slice/region assignment, extraction, and the
slice manifest."""

import numpy as np
import pytest

from fedmark import slicing, watermark


# --- common watermark -----------------------------------------------------------


def test_common_watermark_equal_slices():
    common = slicing.generate_common_watermark(128, n_clients=4, seed=0)
    assert common.n_clients == 4
    assert [len(common.slice_bits(i)) for i in range(4)] == [32, 32, 32, 32]
    np.testing.assert_array_equal(
        np.concatenate([common.slice_bits(i) for i in range(4)]), common.bits
    )


def test_common_watermark_remainder_goes_last():
    common = slicing.generate_common_watermark(10, n_clients=3, seed=0)
    assert [len(common.slice_bits(i)) for i in range(3)] == [3, 3, 4]


def test_common_watermark_one_bit_slices():
    common = slicing.generate_common_watermark(5, n_clients=5, seed=1)
    assert [len(common.slice_bits(i)) for i in range(5)] == [1] * 5


def test_common_watermark_deterministic_and_balanced():
    a = slicing.generate_common_watermark(1000, n_clients=10, seed=3)
    b = slicing.generate_common_watermark(1000, n_clients=10, seed=3)
    np.testing.assert_array_equal(a.bits, b.bits)
    assert 0.4 < a.bits.mean() < 0.6  # binomial bound at 1000 draws


def test_common_watermark_needs_a_bit_per_client():
    with pytest.raises(ValueError):
        slicing.generate_common_watermark(3, n_clients=4, seed=0)


def test_common_watermark_validates_boundaries():
    bits = watermark.random_bits(8, seed=0)
    with pytest.raises(ValueError):
        slicing.CommonWatermark(bits, (0, 4, 4, 8))
    with pytest.raises(ValueError):
        slicing.CommonWatermark(bits, (1, 8))


# --- region assignment ----------------------------------------------------------


def test_assign_slices_contiguous_disjoint_regions():
    common = slicing.generate_common_watermark(128, n_clients=4, seed=2)
    assignments = slicing.assign_slices(common, rep_param_count=1000, region_size=250, seed=5)
    spans = [(a.region_start, a.region_stop) for a in assignments]
    assert spans == [(0, 250), (250, 500), (500, 750), (750, 1000)]
    covered = np.concatenate([np.arange(a.region_start, a.region_stop) for a in assignments])
    assert len(np.unique(covered)) == len(covered)
    assert len({a.matrix_seed for a in assignments}) == 4


def test_assign_slices_deterministic():
    common = slicing.generate_common_watermark(64, n_clients=2, seed=2)
    a = slicing.assign_slices(common, 300, 100, seed=9)
    b = slicing.assign_slices(common, 300, 100, seed=9)
    assert [x.matrix_seed for x in a] == [x.matrix_seed for x in b]


def test_assign_slices_rejects_oversubscription():
    common = slicing.generate_common_watermark(64, n_clients=4, seed=2)
    with pytest.raises(ValueError):
        slicing.assign_slices(common, rep_param_count=900, region_size=250, seed=0)


def test_region_smaller_than_slice_is_rejected():
    common = slicing.generate_common_watermark(128, n_clients=4, seed=2)
    with pytest.raises(ValueError):
        slicing.assign_slices(common, rep_param_count=1000, region_size=16, seed=0)


# --- extraction -----------------------------------------------------------------


def embed_slice(assignment, rep_len, steps=400, lr=0.1, seed=0):
    """Drive a random representation to carry the slice via plain descent."""
    rep = np.random.default_rng(seed).standard_normal(rep_len)
    for _ in range(steps):
        _, seg_grad = slicing.slice_loss_and_grad(rep, assignment)
        rep[assignment.region_start : assignment.region_stop] -= lr * seg_grad
    return rep


def test_extract_slice_after_convergence_is_perfect():
    common = slicing.generate_common_watermark(64, n_clients=2, seed=4)
    assignments = slicing.assign_slices(common, rep_param_count=200, region_size=100, seed=6)
    rep = embed_slice(assignments[0], 200)
    extracted = slicing.extract_slice(rep, assignments[0])
    assert watermark.detection_rate(assignments[0].bits, extracted) == 1.0


def test_wrong_matrix_reads_noise():
    """Random-projection oracle: a different client's matrix over the same
    region recovers nothing better than coin flips."""
    common = slicing.generate_common_watermark(64, n_clients=2, seed=4)
    assignments = slicing.assign_slices(common, rep_param_count=200, region_size=100, seed=6)
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
    common = slicing.generate_common_watermark(16, n_clients=2, seed=1)
    assignments = slicing.assign_slices(common, rep_param_count=64, region_size=32, seed=2)
    rep = np.random.default_rng(0).standard_normal(64)
    rep[assignments[1].region_start : assignments[1].region_stop] = 0.0
    np.testing.assert_array_equal(
        slicing.extract_slice(rep, assignments[1]), np.zeros(8, dtype=np.uint8)
    )


def test_extract_slice_checks_bounds():
    common = slicing.generate_common_watermark(16, n_clients=2, seed=1)
    assignments = slicing.assign_slices(common, rep_param_count=64, region_size=32, seed=2)
    with pytest.raises(ValueError):
        slicing.extract_slice(np.zeros(40), assignments[1])


# --- slice loss -----------------------------------------------------------------


def test_slice_gradient_is_confined_to_the_region():
    """Non-interference: descent on the slice loss never moves a parameter
    outside the owner's region."""
    common = slicing.generate_common_watermark(32, n_clients=2, seed=7)
    assignments = slicing.assign_slices(common, rep_param_count=120, region_size=60, seed=8)
    target = assignments[1]
    rep = np.random.default_rng(3).standard_normal(120)
    before = rep.copy()
    for _ in range(50):
        _, seg_grad = slicing.slice_loss_and_grad(rep, target)
        assert seg_grad.shape == (target.region_size,)
        full = np.zeros_like(rep)
        full[target.region_start : target.region_stop] = seg_grad
        rep -= 0.1 * full
    outside = np.ones(120, dtype=bool)
    outside[target.region_start : target.region_stop] = False
    np.testing.assert_array_equal(rep[outside], before[outside])
    assert not np.array_equal(rep[~outside], before[~outside])


def test_slice_loss_override_bits():
    common = slicing.generate_common_watermark(16, n_clients=2, seed=9)
    assignments = slicing.assign_slices(common, rep_param_count=64, region_size=32, seed=0)
    rep = np.random.default_rng(1).standard_normal(64)
    own_loss, _ = slicing.slice_loss_and_grad(rep, assignments[0])
    flipped_loss, _ = slicing.slice_loss_and_grad(rep, assignments[0], bits=1 - assignments[0].bits)
    assert own_loss != flipped_loss
    with pytest.raises(ValueError):
        slicing.slice_loss_and_grad(rep, assignments[0], bits=np.array([1, 0]))


def test_slice_gradient_only_matches_the_loss_path():
    common = slicing.generate_common_watermark(16, n_clients=2, seed=9)
    assignments = slicing.assign_slices(common, rep_param_count=64, region_size=32, seed=0)
    rep = np.random.default_rng(1).standard_normal(64)
    for bits in (None, 1 - assignments[1].bits):  # the true slice, then an override
        loss, grad = slicing.slice_loss_and_grad(rep, assignments[1], bits)
        none, fast = slicing.slice_loss_and_grad(rep, assignments[1], bits, with_loss=False)
        assert loss > 0.0 and none is None
        assert np.array_equal(fast, grad)


# --- manifest -------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    common = slicing.generate_common_watermark(100, n_clients=3, seed=11)
    assignments = slicing.assign_slices(common, rep_param_count=300, region_size=100, seed=12)
    path = tmp_path / "slices.manifest"
    slicing.write_manifest(assignments, path)
    loaded = slicing.read_manifest(path)
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
        slicing.read_manifest(path)
