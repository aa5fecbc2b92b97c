"""Property tests of the flat parameter layout: one vector per model, layers
tiled in order, the representation as its prefix and the head as the rest."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fedmark import nn  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def models(draw):
    """A model over random parameters with a random layer chain and head
    boundary."""
    n_layers = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 7), min_size=n_layers + 1, max_size=n_layers + 1))
    specs = [
        nn.LayerSpec(dims[i], dims[i + 1], "softmax" if i == n_layers - 1 else "relu")
        for i in range(n_layers)
    ]
    head_start = draw(st.integers(1, n_layers - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = sum(spec.flat_size for spec in specs)
    return nn.Model(specs, rng.standard_normal(size), head_start), rng


@PROPERTY
@given(models())
def test_layer_views_tile_params_in_order(drawn):
    model, _ = drawn
    pieces = []
    for k, spec in enumerate(model.specs):
        w, b = model.weights[k], model.biases[k]
        assert w.shape == (spec.input_dim, spec.output_dim)
        assert b.shape == (spec.output_dim,)
        assert np.shares_memory(w, model.params) and np.shares_memory(b, model.params)
        flat = np.concatenate([w.ravel(), b])
        np.testing.assert_array_equal(model.layer_flat(k), flat)
        pieces.append(flat)
    np.testing.assert_array_equal(np.concatenate(pieces), model.params)


@PROPERTY
@given(models(), st.data())
def test_view_shares_memory_with_parent(drawn, data):
    model, _ = drawn
    start = data.draw(st.integers(0, model.num_layers - 1))
    stop = data.draw(st.integers(start + 1, model.num_layers))
    view = model.view(start, stop)
    assert np.shares_memory(view.params, model.params)
    assert view.specs == model.specs[start:stop]
    assert view.head_start == min(max(model.head_start - start, 0), stop - start)
    view.params[:] += 1.0
    for k in range(start, stop):
        np.testing.assert_array_equal(view.layer_flat(k - start), model.layer_flat(k))


@PROPERTY
@given(models())
def test_rep_param_count_is_the_prefix_boundary(drawn):
    model, _ = drawn
    rep = model.rep_param_count
    assert rep == sum(model.specs[k].flat_size for k in range(model.head_start))
    rep_layers = [model.layer_flat(k) for k in range(model.head_start)]
    head_layers = [model.layer_flat(k) for k in model.head_layer_ids]
    np.testing.assert_array_equal(model.params[:rep], np.concatenate(rep_layers))
    np.testing.assert_array_equal(model.params[rep:], np.concatenate(head_layers))


@PROPERTY
@given(models(), st.floats(1e-3, 1.0))
def test_rep_sgd_leaves_the_head_bit_identical(drawn, lr):
    model, rng = drawn
    batch = nn.Batch(
        rng.standard_normal((4, model.specs[0].input_dim)),
        rng.integers(0, model.specs[-1].output_dim, 4),
    )
    grads = nn.main_task_loss_and_grads(model, batch)
    assert grads.shape == model.params.shape
    rep = model.rep_param_count
    head_before = model.params[rep:].tobytes()
    nn.apply_sgd(model.params[:rep], grads[:rep], lr)
    assert model.params[rep:].tobytes() == head_before


@st.composite
def cohorts(draw):
    """A (C, P) cohort over a random layer chain, plus one batch per model:
    (C, B, d) inputs and (C, B) labels, with B = 1 allowed."""
    n_layers = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 7), min_size=n_layers + 1, max_size=n_layers + 1))
    hidden = draw(st.lists(st.sampled_from(["relu", "identity"]), min_size=n_layers - 1, max_size=n_layers - 1))
    specs = [nn.LayerSpec(dims[i], dims[i + 1], act) for i, act in enumerate(hidden)]
    specs.append(nn.LayerSpec(dims[-2], dims[-1], "softmax"))
    head_start = draw(st.integers(1, n_layers - 1))
    count, rows = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = sum(spec.flat_size for spec in specs)
    cohort = nn.Model(specs, rng.standard_normal((count, size)), head_start)
    inputs = rng.standard_normal((count, rows, dims[0]))
    labels = rng.integers(0, dims[-1], (count, rows))
    return cohort, inputs, labels


@PROPERTY
@given(cohorts())
def test_cohort_rows_have_the_layers_of_their_models(drawn):
    cohort, _, _ = drawn
    assert cohort.rep_param_count == nn.Model(cohort.specs, cohort.params[0], cohort.head_start).rep_param_count
    for i, row in enumerate(cohort.params):
        model = nn.Model(cohort.specs, row, cohort.head_start)
        for k in range(cohort.num_layers):
            np.testing.assert_array_equal(cohort.weights[k][i], model.weights[k])
            np.testing.assert_array_equal(cohort.biases[k][i], model.biases[k])
            np.testing.assert_array_equal(cohort.layer_flat(k)[i], model.layer_flat(k))
            assert np.shares_memory(cohort.weights[k], cohort.params)
            assert np.shares_memory(cohort.biases[k], cohort.params)
        head = cohort.view(cohort.head_start, cohort.num_layers)
        np.testing.assert_array_equal(head.params[i], row[cohort.rep_param_count :])


@PROPERTY
@given(cohorts())
def test_cohort_step_equals_per_model_steps_bit_for_bit(drawn):
    cohort, inputs, labels = drawn
    grads = nn.main_task_loss_and_grads(cohort, nn.Batch(inputs, labels))
    assert grads.shape == cohort.params.shape
    for i, row in enumerate(cohort.params):
        model = nn.Model(cohort.specs, row.copy(), cohort.head_start)
        alone = nn.main_task_loss_and_grads(model, nn.Batch(inputs[i], labels[i]))
        assert alone.tobytes() == grads[i].tobytes()
