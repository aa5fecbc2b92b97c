"""Shared test helpers: independent numerical oracles and small run configs."""

import math

import numpy as np
import pytest

from fedmark import nn
from fedmark.config import RunConfig


def finite_difference_grads(loss_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss over a flat parameter
    vector. Independent of any analytic backward pass."""
    grad = np.empty_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += h
        hi = loss_fn(bumped)
        bumped[i] -= 2 * h
        lo = loss_fn(bumped)
        grad[i] = (hi - lo) / (2 * h)
    return grad


def one_model_marks(spec):
    """A private mark as one model's `private_embedding_loss_and_grads` input:
    per head layer, its projection matrix and its segment of the bits."""
    return [(spec.matrix(pos), bits) for pos, bits in enumerate(spec.segments)]


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray, rel_tol: float = 1e-4):
    denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-6)])
    worst = float(np.max(np.abs(analytic - numeric) / denom))
    assert worst <= rel_tol, f"worst relative gradient error {worst:.3e} > {rel_tol}"


def normal_cdf(x: float) -> float:
    """Analytic standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def quantile_by_bisection(confidence: float, tol: float = 1e-13) -> float:
    """Independent oracle for the normal quantile: bisect the erf-based CDF."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < confidence:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tiny_config(**overrides) -> RunConfig:
    """A seconds-scale training config for unit tests."""
    defaults = dict(
        n_clients=4,
        rounds=3,
        head_epochs=2,
        blob_samples_per_class=40,
        blob_classes=3,
        blob_dim=5,
        hidden_dims=(16, 16),
        private_bits=24,
        slice_total_bits=32,
        partition="klabels",
        k_labels=2,
        seed=7,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def plain_fedrep_oracle(config):
    """Reference federation with no watermarking: an independent
    re-implementation of the training loop built only from the network, data,
    and seeding primitives. Used to pin down what the engine must reduce to
    when every watermark term is disabled."""
    from fedmark import data, seeding

    dataset = data.gen_synthetic_blobs(
        config.blob_classes,
        config.blob_dim,
        config.blob_samples_per_class,
        config.blob_spread,
        seeding.derive_seed(config.seed, seeding.STREAM_DATA),
    )
    part_seed = seeding.derive_seed(config.seed, seeding.STREAM_PARTITION)
    if config.partition == "dirichlet":
        partition = data.partition_dirichlet(
            dataset.labels, config.n_clients, config.dirichlet_beta, part_seed
        )
    else:
        partition = data.partition_k_labels(
            dataset.labels, config.n_clients, config.k_labels, part_seed
        )
    dims = [dataset.inputs.shape[1], *config.hidden_dims, dataset.num_classes]
    specs = [
        nn.LayerSpec(dims[i], dims[i + 1], "softmax" if i == len(dims) - 2 else "relu")
        for i in range(len(dims) - 1)
    ]
    head_start = len(specs) - config.head_layers
    base = nn.init_model(specs, seeding.derive_seed(config.seed, seeding.STREAM_INIT), head_start)
    head_part = slice(base.rep_param_count, None)
    rep_part = slice(0, base.rep_param_count)
    rep = base.params[rep_part].copy()
    heads = [base.params[head_part].copy() for _ in range(config.n_clients)]

    for round_index in range(1, config.rounds + 1):
        chooser = np.random.default_rng(
            seeding.derive_seed(config.seed, seeding.STREAM_SAMPLING, round_index)
        )
        count = round(config.sample_rate * config.n_clients)
        sampled = sorted(int(c) for c in chooser.choice(config.n_clients, size=count, replace=False))
        uploads = []
        for cid in sampled:
            model = base.copy()
            model.params[head_part] = heads[cid]
            model.params[rep_part] = rep
            shard = partition.client_indices[cid]
            xs, ys = dataset.inputs[shard], dataset.labels[shard]
            batch_rng = np.random.default_rng(
                seeding.derive_seed(config.seed, seeding.STREAM_LOCAL_BATCHES, cid, round_index)
            )

            def epoch(part):
                order = batch_rng.permutation(len(ys))
                for lo in range(0, len(order), config.batch_size):
                    take = order[lo : lo + config.batch_size]
                    grads = nn.main_task_loss_and_grads(model, nn.Batch(xs[take], ys[take]))
                    nn.apply_sgd(model.params[part], grads[part], config.lr)

            for _ in range(config.head_epochs):
                epoch(head_part)
            epoch(rep_part)
            heads[cid] = model.params[head_part].copy()
            uploads.append(model.params[rep_part].copy())
        if uploads:
            rep = np.mean(np.stack(uploads), axis=0)

    return rep, heads


def pytest_collection_modifyitems(config, items):
    """Tests marked `slow` run only when a `-m` expression names them
    (`pytest -m slow`); a plain run skips them."""
    if "slow" in config.getoption("markexpr"):
        return
    skip = pytest.mark.skip(reason="slow: select with pytest -m slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
