"""Run files read back as what training produced."""

import numpy as np
import pytest

from conftest import tiny_config
from fedmark import artifacts, engine


@pytest.mark.parametrize("head_layers", [1, 2])
def test_load_run_models_returns_the_trained_models_and_marks(tmp_path, head_layers):
    """Each client's final parameters come back byte for byte, and its
    private mark with the bits, layer sizes and matrix seeds it trained;
    `load_run` returns the final representation and every head in one
    stack, byte for byte."""
    config = tiny_config(head_layers=head_layers)
    result = engine.run_training(config)
    artifacts.write_run_artifacts(result, config, str(tmp_path))
    models, specs = artifacts.load_run_models(str(tmp_path))
    assert len(models) == len(specs) == len(result.clients)
    for client, model, spec in zip(result.clients, models, specs):
        final = result.model(client)
        assert model.specs == final.specs and model.head_start == final.head_start
        assert model.params.dtype == final.params.dtype
        assert model.params.tobytes() == final.params.tobytes()
        assert len(spec.layer_sizes) == head_layers
        assert spec.bits.dtype == client.private.bits.dtype
        np.testing.assert_array_equal(spec.bits, client.private.bits)
        assert spec.layer_sizes == client.private.layer_sizes
        assert spec.matrix_seeds == client.private.matrix_seeds
    # the heatmap's reader: the same run as layer specs, rep_flat and one head stack
    layer_specs, head_start, rep, heads, _ = artifacts.load_run(str(tmp_path))
    assert layer_specs == result.specs and head_start == result.head_start
    assert rep.tobytes() == result.server.rep_flat.tobytes()
    assert heads.tobytes() == np.stack([client.head for client in result.clients]).tobytes()
