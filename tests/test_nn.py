"""Network core: initialization, forward/backward, SGD, the flat parameter vector."""

import numpy as np
import pytest

import reference
from conftest import assert_grads_close, finite_difference_grads
from fedmark import data, nn


def small_specs():
    return [
        nn.LayerSpec(5, 8, "relu"),
        nn.LayerSpec(8, 6, "relu"),
        nn.LayerSpec(6, 3, "softmax"),
    ]


# --- construction -------------------------------------------------------------


def test_init_is_deterministic():
    a = nn.init_model(small_specs(), seed=11)
    b = nn.init_model(small_specs(), seed=11)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_seed_changes_weights():
    a = nn.init_model(small_specs(), seed=11)
    b = nn.init_model(small_specs(), seed=12)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_init_scale_tracks_input_dim():
    specs = [nn.LayerSpec(400, 300, "relu"), nn.LayerSpec(300, 10, "softmax")]
    model = nn.init_model(specs, seed=3)
    assert np.std(model.weights[0]) == pytest.approx(1 / np.sqrt(400), rel=0.05)
    assert np.std(model.weights[1]) == pytest.approx(1 / np.sqrt(300), rel=0.05)
    for b in model.biases:
        np.testing.assert_array_equal(b, np.zeros_like(b))


def test_init_rejects_mismatched_chain():
    with pytest.raises(ValueError, match="chain"):
        nn.init_model([nn.LayerSpec(4, 5), nn.LayerSpec(6, 3)], seed=0)


def test_init_rejects_zero_dim():
    with pytest.raises(ValueError, match="positive"):
        nn.LayerSpec(0, 4)


def test_softmax_only_on_final_layer():
    with pytest.raises(ValueError, match="final layer"):
        nn.init_model([nn.LayerSpec(4, 5, "softmax"), nn.LayerSpec(5, 3)], seed=0)


def test_head_boundary_is_configurable():
    model = nn.init_model(small_specs(), seed=0, head_start=1)
    assert list(range(model.head_start)) == [0]
    assert list(model.head_layer_ids) == [1, 2]
    with pytest.raises(ValueError, match="head_start"):
        nn.init_model(small_specs(), seed=0, head_start=3)


@pytest.mark.parametrize("head_start", [1, 2])
def test_param_counts_split_a_model_at_its_head(head_start):
    """5*8+8 = 48, 8*6+6 = 54 and 6*3+3 = 21 params: the representation
    count and the head layer counts are the model's own offsets."""
    model = nn.init_model(small_specs(), seed=0, head_start=head_start)
    rep_size, head_sizes = nn.param_counts(model.specs, head_start)
    assert (rep_size, head_sizes) == ((48, [54, 21]) if head_start == 1 else (102, [21]))
    assert rep_size == model.rep_param_count
    assert head_sizes == [model.layer_flat(k).size for k in model.head_layer_ids]


def test_model_rejects_params_of_wrong_length():
    size = sum(spec.flat_size for spec in small_specs())
    nn.Model(small_specs(), np.zeros(size), head_start=2)
    nn.Model(small_specs(), np.zeros((1, size)), head_start=2)  # a cohort of one
    for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((2, size - 1)), np.zeros((1, 1, size))):
        with pytest.raises(ValueError, match=f"length {size}"):
            nn.Model(small_specs(), bad, head_start=2)


# --- forward ------------------------------------------------------------------


def test_forward_shapes():
    model = nn.init_model(small_specs(), seed=5)
    logits, cache = nn.forward(model, np.ones((10, 5)))
    assert logits.shape == (10, 3)
    assert len(cache) == 3


def test_forward_identity_single_layer_is_affine():
    model = nn.init_model([nn.LayerSpec(3, 3, "identity"), nn.LayerSpec(3, 2, "softmax")], seed=1)
    model.weights[0][...] = np.eye(3)
    model.biases[0][...] = np.array([1.0, -2.0, 0.5])
    x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    logits, cache = nn.forward(model, x)
    np.testing.assert_allclose(cache[1][0], x + model.biases[0])


def test_forward_zero_weights_zero_logits():
    model = nn.init_model(small_specs(), seed=5)
    for k in range(model.num_layers):
        model.weights[k][:] = 0.0
    logits, _ = nn.forward(model, np.random.default_rng(0).standard_normal((4, 5)))
    np.testing.assert_array_equal(logits, np.zeros((4, 3)))


def test_forward_without_cache_gives_the_same_logits():
    """Also into `out`, here a strided view of a larger buffer, as the
    cohort feature pass writes a short shard's rows."""
    model = nn.init_model(small_specs(), seed=5)
    x = np.random.default_rng(2).standard_normal((7, 5))
    logits, cache = nn.forward(model, x, with_cache=False)
    assert cache is None
    assert logits.tobytes() == nn.forward(model, x)[0].tobytes()
    buffer = np.zeros((9, logits.shape[1] + 2))
    out = buffer[:7, 1:-1]
    assert nn.forward(model, x, with_cache=False, out=out)[0] is out
    assert out.tobytes() == logits.tobytes() and not buffer[7:].any() and not buffer[:, [0, -1]].any()


def test_forward_rejects_wrong_width():
    model = nn.init_model(small_specs(), seed=5)
    with pytest.raises(ValueError, match="shape"):
        nn.forward(model, np.ones((4, 7)))


# --- loss and gradients -------------------------------------------------------


def test_uniform_logits_loss_is_log_num_classes():
    """The reference cross-entropy that the gradient checks differentiate."""
    model = nn.init_model(small_specs(), seed=5)
    for k in range(model.num_layers):
        model.weights[k][:] = 0.0
    batch = nn.Batch(np.ones((6, 5)), np.array([0, 1, 2, 0, 1, 2]))
    assert reference.cross_entropy(model, batch) == pytest.approx(np.log(3), abs=1e-12)


def test_loss_nonnegative_and_labels_validated():
    """The reference loss is non-negative. Labels are bounded by the `Dataset`
    that training batches come from, not by the gradient kernel, which
    rejects only an empty batch."""
    model = nn.init_model(small_specs(), seed=5)
    rng = np.random.default_rng(2)
    batch = nn.Batch(rng.standard_normal((8, 5)), rng.integers(0, 3, 8))
    assert reference.cross_entropy(model, batch) >= 0.0
    with pytest.raises(ValueError, match="labels"):
        data.Dataset(np.ones((2, 5)), np.array([0, 3]), 3)
    with pytest.raises(ValueError, match="empty"):
        nn.main_task_loss_and_grads(model, nn.Batch(np.empty((0, 5)), np.empty(0, dtype=int)))


def test_main_task_grads_match_finite_differences():
    """Backprop versus a central-difference oracle of the reference loss on
    random small models.

    The loss is only piecewise smooth, so instances where a pre-activation
    sits on a relu kink (where two-sided differences straddle the corner)
    are redrawn; biases are jittered away from zero for the same reason.
    """
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 10:
        n_layers = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 9)) for _ in range(n_layers + 1)]
        specs = [
            nn.LayerSpec(dims[i], dims[i + 1], "relu" if i < n_layers - 1 else "softmax")
            for i in range(n_layers)
        ]
        model = nn.init_model(specs, seed=int(rng.integers(1 << 30)))
        for bias in model.biases:
            bias += 0.1 * rng.standard_normal(bias.shape)
        batch = nn.Batch(
            rng.standard_normal((5, dims[0])), rng.integers(0, dims[-1], 5)
        )
        _, cache = nn.forward(model, batch.inputs)
        if min(np.abs(z).min() for _, z in cache[:-1]) < 1e-3:
            continue
        checked += 1
        analytic = nn.main_task_loss_and_grads(model, batch)

        def loss_at(flat, model=model, batch=batch):
            probe = model.copy()
            probe.params[:] = flat
            return reference.cross_entropy(probe, batch)

        numeric = finite_difference_grads(loss_at, model.params)
        assert_grads_close(analytic, numeric)


def test_minibatches_follow_the_permutation_with_a_short_last_batch():
    inputs = np.arange(46.0).reshape(23, 2)
    labels = np.arange(23) % 3
    batches = list(nn.minibatches(inputs, labels, 10, np.random.default_rng(4)))
    assert [len(b.labels) for b in batches] == [10, 10, 3]
    rows = np.concatenate([b.inputs[:, 0] for b in batches]).astype(int) // 2
    np.testing.assert_array_equal(rows, np.random.default_rng(4).permutation(23))
    np.testing.assert_array_equal(np.concatenate([b.labels for b in batches]), labels[rows])


# --- SGD ----------------------------------------------------------------------


def one_param_model():
    model = nn.init_model([nn.LayerSpec(1, 1, "identity"), nn.LayerSpec(1, 2, "softmax")], seed=0)
    return model


def test_sgd_arithmetic():
    model = one_param_model()
    model.weights[0][:] = 1.0
    grads = np.concatenate([np.full(1, 0.5), np.zeros(1), np.zeros(2), np.zeros(2)])
    nn.apply_sgd(model.params, grads, lr=0.01)
    assert model.weights[0][0, 0] == pytest.approx(0.995, abs=1e-15)


def test_sgd_zero_gradient_is_fixed_point():
    model = one_param_model()
    before = model.params.copy()
    nn.apply_sgd(model.params, np.zeros_like(model.params), lr=0.5)
    np.testing.assert_array_equal(model.params, before)


def test_sgd_two_steps_equal_summed_update():
    g1 = np.full(1, 0.3)
    g2 = np.full(1, -0.1)
    a = one_param_model()
    a.weights[0][:] = 1.0
    zeros_tail = np.zeros(5)
    nn.apply_sgd(a.params, np.concatenate([g1, zeros_tail]), lr=0.1)
    nn.apply_sgd(a.params, np.concatenate([g2, zeros_tail]), lr=0.1)
    b = one_param_model()
    b.weights[0][:] = 1.0
    nn.apply_sgd(b.params, np.concatenate([g1 + g2, zeros_tail]), lr=0.1)
    np.testing.assert_allclose(a.weights[0], b.weights[0], atol=1e-15)


def test_sgd_layer_restriction():
    model = nn.init_model(small_specs(), seed=4)
    before = [w.copy() for w in model.weights]
    grads = np.ones_like(model.params)
    layer = slice(model.offsets[2], model.offsets[3])
    nn.apply_sgd(model.params[layer], grads[layer], lr=0.1)
    np.testing.assert_array_equal(model.weights[0], before[0])
    np.testing.assert_array_equal(model.weights[1], before[1])
    assert not np.array_equal(model.weights[2], before[2])


# --- accuracy -----------------------------------------------------------------


class _Data:
    def __init__(self, inputs, labels):
        self.inputs = inputs
        self.labels = labels


def test_accuracy_perfect_and_permuted():
    model = nn.init_model([nn.LayerSpec(3, 3, "identity"), nn.LayerSpec(3, 3, "softmax")], seed=0)
    model.weights[0][...] = np.eye(3)
    model.biases[0][:] = 0.0
    model.weights[1][...] = np.eye(3) * 10
    model.biases[1][:] = 0.0
    x = np.eye(3)[[0, 1, 2, 0]]
    assert nn.evaluate_accuracy(model, _Data(x, np.array([0, 1, 2, 0]))) == 1.0
    assert nn.evaluate_accuracy(model, _Data(x, np.array([1, 2, 0, 1]))) == 0.0


def test_accuracy_counts_non_finite_logits_as_misses():
    """argmax reads an all-NaN row as class 0; such a row, or any row with a
    non-finite logit, must count as a miss."""
    model = nn.init_model([nn.LayerSpec(3, 3, "identity"), nn.LayerSpec(3, 3, "softmax")], seed=0)
    model.weights[0][...] = np.eye(3)
    model.biases[0][:] = 0.0
    model.weights[1][...] = np.eye(3) * 10
    model.biases[1][:] = 0.0
    x = np.eye(3)[[0, 1, 2, 0]]
    labels = np.array([0, 1, 2, 0])
    x[1, 1] = np.inf  # row 1's logits become [nan, inf, nan]
    with np.errstate(invalid="ignore"):
        assert nn.evaluate_accuracy(model, _Data(x, labels)) == 0.75
        model.params[:] = np.nan
        assert nn.evaluate_accuracy(model, _Data(np.eye(3)[[0, 1, 2, 0]], labels)) == 0.0


def test_accuracy_random_model_near_chance():
    """Monte Carlo oracle: an untrained model on balanced random labels sits
    near 1 / num_classes."""
    rng = np.random.default_rng(31)
    model = nn.init_model([nn.LayerSpec(6, 16), nn.LayerSpec(16, 4, "softmax")], seed=8)
    data = _Data(rng.standard_normal((4000, 6)), rng.integers(0, 4, 4000))
    acc = nn.evaluate_accuracy(model, data)
    assert abs(acc - 0.25) < 0.1


def test_accuracy_rejects_empty():
    model = one_param_model()
    with pytest.raises(ValueError, match="empty"):
        nn.evaluate_accuracy(model, _Data(np.empty((0, 1)), np.empty(0, dtype=int)))
