"""Watermark bits, splitting, projection matrices, extraction, and the
embedding regularizer with its analytic gradient."""

import math

import numpy as np
import pytest

import reference
from conftest import assert_grads_close, finite_difference_grads, one_model_marks
from fedmark import nn, watermark


# --- bits and serialization -----------------------------------------------------


def test_random_bits_deterministic_and_binary():
    a = watermark.random_bits(200, seed=5)
    b = watermark.random_bits(200, seed=5)
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}
    assert not np.array_equal(a, watermark.random_bits(200, seed=6))


def test_hex_round_trip_handles_ragged_lengths():
    for length in (1, 7, 8, 9, 100):
        bits = watermark.random_bits(length, seed=length)
        back = watermark.hex_to_bits(watermark.bits_to_hex(bits), length)
        np.testing.assert_array_equal(back, bits)


def test_hex_to_bits_rejects_short_strings():
    with pytest.raises(ValueError):
        watermark.hex_to_bits("ff", 9)


# --- splitting ------------------------------------------------------------------


def test_split_proportional_with_remainder_to_last():
    bits = watermark.random_bits(100, seed=1)
    segments = watermark.split_watermark(bits, [100, 300])
    assert [len(s) for s in segments] == [25, 75]
    np.testing.assert_array_equal(np.concatenate(segments), bits)


def test_split_symmetric():
    bits = watermark.random_bits(50, seed=2)
    segments = watermark.split_watermark(bits, [64, 64])
    assert [len(s) for s in segments] == [25, 25]


def test_split_single_layer_is_identity():
    bits = watermark.random_bits(10, seed=3)
    (segment,) = watermark.split_watermark(bits, [17])
    np.testing.assert_array_equal(segment, bits)


def test_split_rejects_bad_inputs():
    bits = watermark.random_bits(4, seed=0)
    with pytest.raises(ValueError):
        watermark.split_watermark(bits, [])
    with pytest.raises(ValueError):
        watermark.split_watermark(bits, [10, 0])
    with pytest.raises(ValueError):
        watermark.split_watermark(watermark.random_bits(2, seed=0), [5, 5, 5])
    with pytest.raises(ValueError, match=r"\[0, 2\]"):  # more bits than layers, but none for the first
        watermark.split_watermark(watermark.random_bits(2, seed=0), [192, 260])
    with pytest.raises(ValueError):
        watermark.PrivateWatermarkSpec(watermark.random_bits(2, seed=0), (192, 260), (1, 2))


# --- projection matrices --------------------------------------------------------


def test_matrix_is_standard_normal():
    """Statistical oracle on 10,000 entries."""
    matrix = watermark.gen_embedding_matrix(100, 100, seed=7)
    assert -0.05 < matrix.mean() < 0.05
    assert 0.9 < matrix.var() < 1.1


def test_matrix_deterministic_and_shaped():
    a = watermark.gen_embedding_matrix(3, 5, seed=1)
    np.testing.assert_array_equal(a, watermark.gen_embedding_matrix(3, 5, seed=1))
    assert watermark.gen_embedding_matrix(1, 1, seed=2).shape == (1, 1)
    with pytest.raises(ValueError):
        watermark.gen_embedding_matrix(0, 5, seed=0)


def test_cached_matrix_matches_and_is_readonly():
    fresh = watermark.gen_embedding_matrix(8, 4, seed=9)
    cached = watermark.cached_embedding_matrix(8, 4, seed=9)
    np.testing.assert_array_equal(cached, fresh)
    assert cached is watermark.cached_embedding_matrix(8, 4, seed=9)
    assert not cached.flags.writeable


# --- extraction and detection rate ----------------------------------------------


def test_extract_follows_projection_signs():
    # one parameter, matrix columns chosen to give projections [0.3, -0.2]
    matrix = np.array([[0.3, -0.2]])
    np.testing.assert_array_equal(watermark.extract_bits(np.array([1.0]), matrix), [1, 0])


def test_extract_zero_params_gives_zero_bits():
    matrix = watermark.gen_embedding_matrix(6, 4, seed=1)
    np.testing.assert_array_equal(watermark.extract_bits(np.zeros(6), matrix), [0, 0, 0, 0])


def test_extract_is_sign_antisymmetric_and_scale_invariant(rng):
    matrix = watermark.gen_embedding_matrix(10, 16, seed=4)
    params = rng.standard_normal(10)
    bits = watermark.extract_bits(params, matrix)
    np.testing.assert_array_equal(watermark.extract_bits(3.7 * params, matrix), bits)
    np.testing.assert_array_equal(watermark.extract_bits(-params, matrix), 1 - bits)


def test_extract_reads_a_stack_row_for_row(rng):
    """Row i of a stacked read equals the plain matrix-vector read of
    vector i, bit for bit; ties at zero read 0 in both."""
    matrix = watermark.gen_embedding_matrix(260, 100, seed=2)
    stack = rng.standard_normal((7, 260))
    stack[3] = 0.0
    bits = watermark.extract_bits(stack, matrix)
    assert bits.shape == (7, 100) and bits.dtype == np.uint8
    for row, params in zip(bits, stack):
        np.testing.assert_array_equal(row, (matrix.T @ params > 0.0).astype(np.uint8))
        np.testing.assert_array_equal(row, watermark.extract_bits(params, matrix))
    for bad in (np.zeros((2, 259)), np.zeros((1, 2, 260))):
        with pytest.raises(ValueError):
            watermark.extract_bits(bad, matrix)


def test_extract_rejects_length_mismatch():
    with pytest.raises(ValueError):
        watermark.extract_bits(np.zeros(3), watermark.gen_embedding_matrix(4, 2, seed=0))


def test_detection_rate_values():
    ones = np.ones(4, dtype=np.uint8)
    assert watermark.detection_rate(ones, ones) == 1.0
    assert watermark.detection_rate(ones, np.zeros(4, dtype=np.uint8)) == 0.0
    expected = watermark.random_bits(50, seed=1)
    flipped = expected.copy()
    flipped[:5] ^= 1
    assert watermark.detection_rate(expected, flipped) == pytest.approx(0.9, abs=1e-12)


def test_detection_rate_complement_identity(rng):
    b = watermark.random_bits(33, seed=2)
    x = watermark.random_bits(33, seed=3)
    total = watermark.detection_rate(b, x) + watermark.detection_rate(1 - b, x)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_detection_rate_rejects_mismatch():
    with pytest.raises(ValueError):
        watermark.detection_rate(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))


# --- embedding loss -------------------------------------------------------------


def test_sigmoid_matches_the_two_branch_form_at_the_extremes():
    """exp(-|x|) keeps both branches finite: 1 / (1 + exp(-x)) for x >= 0,
    exp(x) / (1 + exp(x)) below; NaN stays NaN."""
    xs = [0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, -800.0]

    def reference(x):
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        return math.exp(x) / (1.0 + math.exp(x))

    got = watermark._sigmoid(np.array(xs))
    np.testing.assert_array_equal(got, [reference(x) for x in xs])
    assert list(got[:4]) == [0.5, 0.5, 1.0, 0.0] and list(got[5:]) == [1.0, 0.0]


def test_embedding_loss_analytic_point():
    """At zero parameters the sigmoid sits at 0.5: the reference loss is
    ln 2 and the kernel's gradient ±0.5."""
    for bit, slope in ((1, -0.5), (0, 0.5)):
        bits = np.array([bit])
        assert reference.embedding_bce(np.zeros(1), np.array([[1.0]]), bits) == pytest.approx(math.log(2), abs=1e-12)
        grad = watermark.embedding_loss_and_grad(np.zeros(1), np.array([[1.0]]), bits)
        assert grad[0] == pytest.approx(slope, abs=1e-12)


def test_embedding_loss_matches_finite_differences(rng):
    for _ in range(5):
        params = rng.standard_normal(20)
        matrix = watermark.gen_embedding_matrix(20, 8, seed=int(rng.integers(1 << 30)))
        bits = watermark.random_bits(8, seed=int(rng.integers(1 << 30)))
        grad = watermark.embedding_loss_and_grad(params, matrix, bits)
        numeric = finite_difference_grads(lambda p: reference.embedding_bce(p, matrix, bits), params)
        assert_grads_close(grad, numeric)


def test_embedding_loss_is_overflow_safe():
    params = np.full(4, 1e5)
    matrix = watermark.gen_embedding_matrix(4, 6, seed=3)
    bits = watermark.random_bits(6, 1)
    with np.errstate(over="raise"):
        grad = watermark.embedding_loss_and_grad(params, matrix, bits)
        loss = reference.embedding_bce(params, matrix, bits)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_embedding_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        watermark.embedding_loss_and_grad(
            np.zeros(3), watermark.gen_embedding_matrix(4, 2, seed=0), np.array([1, 0])
        )
    with pytest.raises(ValueError):
        watermark.embedding_loss_and_grad(
            np.zeros(4), watermark.gen_embedding_matrix(4, 2, seed=0), np.array([], dtype=np.uint8)
        )


def test_embedding_descent_converges_to_perfect_detection(rng):
    """Invariant: 500 plain gradient steps at rate 0.1 drive detection to 1.0
    whenever the bit count is at most half the parameter count."""
    params = rng.standard_normal(40)
    matrix = watermark.gen_embedding_matrix(40, 20, seed=21)
    bits = watermark.random_bits(20, seed=22)
    for _ in range(500):
        params -= 0.1 * watermark.embedding_loss_and_grad(params, matrix, bits)
    assert watermark.detection_rate(bits, watermark.extract_bits(params, matrix)) == 1.0


# --- private (head) watermark specs ---------------------------------------------


def head_model():
    specs = [nn.LayerSpec(6, 8, "relu"), nn.LayerSpec(8, 5, "relu"), nn.LayerSpec(5, 3, "softmax")]
    return nn.init_model(specs, seed=14, head_start=1)


def test_make_private_spec_segments_and_seeds():
    model = head_model()
    sizes = [model.specs[k].flat_size for k in model.head_layer_ids]  # [45, 18]
    bits = watermark.random_bits(21, seed=5)
    spec = watermark.make_private_spec(bits, sizes, key_seed=77)
    assert [len(s) for s in spec.segments] == [21 * 45 // 63, 21 - 21 * 45 // 63]
    assert len(set(spec.matrix_seeds)) == 2
    again = watermark.make_private_spec(bits, sizes, key_seed=77)
    assert again.matrix_seeds == spec.matrix_seeds


def test_private_spec_requires_aligned_fields():
    with pytest.raises(ValueError):
        watermark.PrivateWatermarkSpec(
            bits=watermark.random_bits(4, 0), layer_sizes=(10,), matrix_seeds=(1, 2)
        )


def test_private_extraction_concatenates_layer_segments():
    model = head_model()
    sizes = [model.specs[k].flat_size for k in model.head_layer_ids]
    bits = watermark.random_bits(20, seed=6)
    spec = watermark.make_private_spec(bits, sizes, key_seed=13)
    manual = np.concatenate(
        [
            watermark.extract_bits(model.layer_flat(layer_id), spec.matrix(pos))
            for pos, layer_id in enumerate(model.head_layer_ids)
        ]
    )
    np.testing.assert_array_equal(watermark.extract_private_bits(model, spec), manual)
    rate = watermark.private_detection_rate(model, spec)
    assert rate == watermark.detection_rate(bits, manual)


def test_private_embedding_gradients_match_finite_differences():
    model = head_model()
    sizes = [model.specs[k].flat_size for k in model.head_layer_ids]
    bits = watermark.random_bits(12, seed=8)
    spec = watermark.make_private_spec(bits, sizes, key_seed=3)
    grad = watermark.private_embedding_loss_and_grads(model, one_model_marks(spec))
    rep_size = model.rep_param_count
    assert grad.shape == (model.params.size - rep_size,)  # laid out like the head
    for layer_id in model.head_layer_ids:

        def loss_at(flat, layer_id=layer_id):
            probe = model.copy()
            probe.layer_flat(layer_id)[...] = flat
            return reference.private_mark_loss(probe, spec)

        numeric = finite_difference_grads(loss_at, model.layer_flat(layer_id))
        assert_grads_close(grad[model.offsets[layer_id] - rep_size : model.offsets[layer_id + 1] - rep_size], numeric)


def test_private_embedding_rows_match_the_one_model_calls():
    """A cohort call on its stacked marks gives row i the gradient of row i
    alone with its own mark, bit for bit."""
    model = head_model()
    sizes = [model.specs[k].flat_size for k in model.head_layer_ids]
    specs = [
        watermark.make_private_spec(watermark.random_bits(21, seed=s), sizes, key_seed=s) for s in (1, 2, 3)
    ]
    marks = watermark.stack_private_marks(specs, reads=2)
    assert [(matrix.shape, bits.shape) for matrix, bits in marks] == [((3, 45, 15), (3, 15)), ((3, 18, 6), (3, 6))]
    rows = np.stack([model.params, model.params + 0.1, model.params - 0.2])
    cohort = nn.Model(model.specs, rows, model.head_start)
    grads = watermark.private_embedding_loss_and_grads(cohort, marks)
    assert grads.shape == (3, sum(sizes))
    for i, spec in enumerate(specs):
        alone = watermark.private_embedding_loss_and_grads(nn.Model(model.specs, rows[i], 1), one_model_marks(spec))
        assert grads[i].tobytes() == alone.tobytes()


def test_private_reads_of_a_cohort_equal_the_one_model_reads():
    """Row i of a cohort's private bits and rates, and of a head-only
    cohort's, is the one-model read of model i. A row with a non-finite entry
    in every head layer reads 0.0: each of its bits is a miss."""
    model = head_model()
    sizes = [model.specs[k].flat_size for k in model.head_layer_ids]
    spec = watermark.make_private_spec(watermark.random_bits(21, seed=9), sizes, key_seed=9)
    rows = np.stack([model.params, model.params + 0.1, model.params - 0.2, model.params])
    rows[3, model.rep_param_count] = np.inf
    rows[3, -1] = np.nan
    alone = [nn.Model(model.specs, row, model.head_start) for row in rows]
    rates = [watermark.private_detection_rate(m, spec) for m in alone]
    assert rates[3] == 0.0
    cohort = nn.Model(model.specs, rows, model.head_start)
    heads = nn.Model(model.specs[model.head_start :], rows[:, model.rep_param_count :], 0)
    for stacked in (cohort, heads):
        stacked_rates = watermark.private_detection_rate(stacked, spec)
        assert stacked_rates.shape == (4,) and stacked_rates.tolist() == rates
        bits = watermark.extract_private_bits(stacked, spec)
        for m, row_bits in zip(alone, bits):
            np.testing.assert_array_equal(row_bits, watermark.extract_private_bits(m, spec))


@pytest.mark.parametrize("sizes", [[45], [18, 45], [45, 18, 45]])
def test_private_mark_must_fit_the_head_it_is_read_from(sizes):
    """A mark made for other head layers than the model's (here 45 and 18
    parameters) fails to read or embed, rather than covering part of it, in
    one model and, stacked or read in place, in a cohort."""
    model = head_model()
    spec = watermark.make_private_spec(watermark.random_bits(21, seed=1), sizes, key_seed=1)
    with pytest.raises(ValueError):
        watermark.extract_private_bits(model, spec)
    with pytest.raises(ValueError):
        watermark.private_embedding_loss_and_grads(model, one_model_marks(spec))
    cohort = nn.Model(model.specs, np.stack([model.params, model.params]), model.head_start)
    for reads in (1, 2):
        with pytest.raises(ValueError):
            watermark.private_embedding_loss_and_grads(cohort, watermark.stack_private_marks([spec, spec], reads))
