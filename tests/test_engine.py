"""The federated training loop: sampling, local updates, aggregation, head
privacy, and the degenerate no-watermark behavior."""

import csv
import dataclasses
import itertools

import numpy as np
import pytest

from conftest import plain_fedrep_oracle, tiny_config
from fedmark import cli, engine, nn
from fedmark.attacks import attack_report, tamper_bits
from fedmark.cli import write_run_artifacts
from fedmark.config import RunConfig
from fedmark.seeding import STREAM_INIT, STREAM_LOCAL_BATCHES, STREAM_TAMPER, derive_seed
from fedmark.slicing import assign_slices, generate_common_watermark, slice_loss_and_grad
from fedmark.watermark import make_private_spec, private_embedding_loss_and_grads, random_bits


# --- building blocks ------------------------------------------------------------


def test_build_layer_specs_chain():
    specs = nn.build_layer_specs(8, (64, 32), 4)
    assert [(s.input_dim, s.output_dim, s.activation) for s in specs] == [
        (8, 64, "relu"),
        (64, 32, "relu"),
        (32, 4, "softmax"),
    ]


def test_sample_clients_counts_and_determinism():
    sampled = engine.sample_clients(100, 0.1, seed=3)
    assert len(sampled) == 10
    assert len(set(sampled)) == 10
    assert sampled == engine.sample_clients(100, 0.1, seed=3)
    assert engine.sample_clients(6, 1.0, seed=0) == [0, 1, 2, 3, 4, 5]


def test_sample_clients_validates_rate():
    with pytest.raises(ValueError):
        engine.sample_clients(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        engine.sample_clients(10, 0.04, seed=0)


def test_aggregate_examples():
    np.testing.assert_array_equal(
        engine.aggregate([np.array([1.0, 3.0]), np.array([3.0, 5.0])]), [2.0, 4.0]
    )
    single = np.array([7.0, -1.0])
    np.testing.assert_array_equal(engine.aggregate([single]), single)
    np.testing.assert_array_equal(engine.aggregate([single, single, single]), single)
    with pytest.raises(ValueError):
        engine.aggregate([])


def test_aggregate_is_linear(rng):
    reps = [rng.standard_normal(6) for _ in range(3)]
    scaled = engine.aggregate([2.5 * r for r in reps])
    np.testing.assert_allclose(scaled, 2.5 * engine.aggregate(reps), atol=1e-12)


# --- single-client update -------------------------------------------------------


def update_setup(config):
    dataset = engine.build_dataset(config)
    partition = engine.build_partition(config, dataset)
    specs = nn.build_layer_specs(dataset.inputs.shape[1], config.hidden_dims, dataset.num_classes)
    head_start = len(specs) - config.head_layers
    base = nn.init_model(specs, derive_seed(config.seed, STREAM_INIT), head_start)
    return dataset, partition, specs, head_start, base


def make_client(cid, base, dataset, partition, assignment=None, private=None):
    return engine.ClientState(
        client_id=cid,
        model=base.copy(),
        data=dataset.subset(partition.client_indices[cid]),
        private=private,
        assignment=assignment,
    )


def head_of(client):
    return client.model.params[client.model.rep_param_count :]


def test_malicious_update_differs_only_inside_its_region():
    """Honesty separation: tampering changes the slice bits and nothing else,
    so with one batch per epoch the uploads agree outside the region."""
    # whole shard per batch; the config's tamper_rate applies to malicious clients
    config = tiny_config(private_bits=0, batch_size=10_000, tamper_rate=0.5)
    dataset, partition, specs, head_start, base = update_setup(config)
    common = generate_common_watermark(config.slice_total_bits, config.n_clients, seed=5)
    region = base.rep_param_count // config.n_clients
    assignments = assign_slices(common, base.rep_param_count, region, seed=6)

    honest = make_client(1, base, dataset, partition, assignment=assignments[1])
    attacker = make_client(1, base, dataset, partition, assignment=assignments[1])
    attacker.malicious = True

    rep = base.params[: base.rep_param_count].copy()
    engine.client_local_update([honest], rep, config, 1)
    engine.client_local_update([attacker], rep, config, 1)
    up_honest, up_attack = honest.model.params[: len(rep)], attacker.model.params[: len(rep)]

    inside = np.zeros(base.rep_param_count, dtype=bool)
    inside[assignments[1].region_start : assignments[1].region_stop] = True
    np.testing.assert_array_equal(up_honest[~inside], up_attack[~inside])
    assert not np.array_equal(up_honest[inside], up_attack[inside])
    np.testing.assert_array_equal(head_of(honest), head_of(attacker))


def test_masked_main_loss_confines_updates_to_watermark_surfaces(monkeypatch):
    """Ablation: with the main-task gradient zeroed, the representation moves
    only inside the client's slice region."""
    config = tiny_config(private_bits=0)
    dataset, partition, specs, head_start, base = update_setup(config)
    common = generate_common_watermark(config.slice_total_bits, config.n_clients, seed=5)
    region = base.rep_param_count // config.n_clients
    assignments = assign_slices(common, base.rep_param_count, region, seed=6)
    client = make_client(2, base, dataset, partition, assignment=assignments[2])

    def zero_main(model, batch, *, with_loss=True):
        return 0.0, np.zeros_like(model.params)

    monkeypatch.setattr(nn, "main_task_loss_and_grads", zero_main)
    rep = base.params[: base.rep_param_count].copy()
    engine.client_local_update([client], rep, config, 1)
    upload = client.model.params[: len(rep)]

    inside = np.zeros(base.rep_param_count, dtype=bool)
    inside[assignments[2].region_start : assignments[2].region_stop] = True
    np.testing.assert_array_equal(upload[~inside], rep[~inside])
    assert not np.array_equal(upload[inside], rep[inside])
    # no private watermark and no main gradient: the head must not move
    np.testing.assert_array_equal(head_of(client), base.params[base.rep_param_count :])


def test_head_epochs_on_cached_features_match_full_model_steps():
    """Head epochs train on representation features computed once per round.
    With a two-layer head, a private mark, and a malicious client embedding
    a freshly tampered slice, the upload and the head must equal a reference
    loop that runs the whole model on every batch."""
    config = tiny_config(head_layers=2, embed_strength=3.0, batch_size=7, tamper_rate=0.3, fresh_tamper=True)
    dataset, partition, specs, head_start, base = update_setup(config)
    head_ids = list(base.head_layer_ids)
    rep_size = base.rep_param_count
    private = make_private_spec(
        random_bits(config.private_bits, seed=3),
        head_ids,
        [specs[k].flat_size for k in head_ids],
        key_seed=4,
    )
    assert all(len(segment) > 0 for segment in private.segments)
    common = generate_common_watermark(config.slice_total_bits, config.n_clients, seed=5)
    assignment = assign_slices(common, rep_size, rep_size // config.n_clients, seed=6)[1]
    client = make_client(1, base, dataset, partition, assignment=assignment, private=private)
    client.malicious = True
    engine.client_local_update([client], base.params[:rep_size].copy(), config, 2)
    upload = client.model.params[:rep_size]

    model = base.copy()
    xs = dataset.inputs[partition.client_indices[1]]
    ys = dataset.labels[partition.client_indices[1]]
    assert len(ys) % config.batch_size != 0  # a short last batch is covered
    batch_rng = np.random.default_rng(derive_seed(config.seed, STREAM_LOCAL_BATCHES, 1, 2))
    target = tamper_bits(assignment.bits, config.tamper_rate, derive_seed(config.seed, STREAM_TAMPER, 1, 2))
    assert not np.array_equal(target, assignment.bits)

    def batches():
        order = batch_rng.permutation(len(ys))
        for lo in range(0, len(order), config.batch_size):
            take = order[lo : lo + config.batch_size]
            yield nn.Batch(xs[take], ys[take])

    for _ in range(config.head_epochs):
        for batch in batches():
            _, grads = nn.main_task_loss_and_grads(model, batch)
            _, flat_grads = private_embedding_loss_and_grads(model, private)
            for layer_id, flat in flat_grads.items():
                lo, hi = model.offsets[layer_id], model.offsets[layer_id + 1]
                grads[lo:hi] = grads[lo:hi] + config.embed_strength * flat
            nn.apply_sgd(model.params[rep_size:], grads[rep_size:], config.lr)
    for batch in batches():
        _, grads = nn.main_task_loss_and_grads(model, batch)
        _, seg_grad = slice_loss_and_grad(model.params[:rep_size], assignment, target)
        lo, hi = assignment.region_start, assignment.region_stop
        grads[lo:hi] = grads[lo:hi] + config.slice_strength * seg_grad
        nn.apply_sgd(model.params[:rep_size], grads[:rep_size], config.lr)

    assert np.array_equal(upload, model.params[:rep_size])
    assert np.array_equal(head_of(client), model.params[rep_size:])
    for k in head_ids:
        lo, hi = base.offsets[k] - rep_size, base.offsets[k + 1] - rep_size
        assert not np.array_equal(head_of(client)[lo:hi], base.layer_flat(k))


# --- cohort training ------------------------------------------------------------

# name -> (config, rows per cohort on the stacked side)
COHORT_CASES = {
    "dirichlet-ragged": (tiny_config(partition="dirichlet", n_clients=6, batch_size=7), engine.COHORT_ROWS),
    "two-layer-head": (tiny_config(head_layers=2, embed_strength=3.0, batch_size=7), engine.COHORT_ROWS),
    "tampering-detector": (
        tiny_config(
            n_clients=8, malicious_fraction=0.25, tamper_rate=0.3, fresh_tamper=True, detector=True, min_cohort=2
        ),
        3,  # 8 clients: cohorts of 3, 3 and 2
    ),
    "diverging": (RunConfig(n_clients=4, lr=50.0, detector=True, min_cohort=2, rounds=5), engine.COHORT_ROWS),
    # shards of 71, 31, 11, 5, 1 and 1 samples: a one-row product is a gemv, not a gemm
    "one-sample-shards": (
        tiny_config(partition="dirichlet", n_clients=6, batch_size=7, dirichlet_beta=0.1, seed=12),
        engine.COHORT_ROWS,
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging case overflows on purpose
@pytest.mark.parametrize("name", sorted(COHORT_CASES))
def test_cohort_training_equals_training_each_client_alone(name, monkeypatch):
    """A round's clients trained as stacked cohorts end bit for bit where
    cohorts of one leave them: every model, every upload row and the final
    representation, over whole runs."""
    config, rows = COHORT_CASES[name]
    monkeypatch.setattr(engine, "COHORT_ROWS", rows)
    stacked = engine.run_training(config)
    update = engine.client_local_update

    def alone(clients, rep_flat, config, round_index):
        scores = {}
        for client in clients:
            scores.update(update([client], rep_flat, config, round_index))
        return scores

    monkeypatch.setattr(engine, "client_local_update", alone)
    single = engine.run_training(config)

    assert stacked.server.rep_flat.tobytes() == single.server.rep_flat.tobytes()
    for a, b in zip(stacked.clients, single.clients, strict=True):
        assert a.model.params.tobytes() == b.model.params.tobytes(), f"client {a.client_id}"
    assert [r.uploads for r in stacked.reports] == [r.uploads for r in single.reports]

    sizes = [len(c.data) for c in stacked.clients]
    if name == "dirichlet-ragged":
        assert len(set(sizes)) > 1 and any(n % config.batch_size for n in sizes)
    if name == "tampering-detector":
        assert stacked.malicious_ids and stacked.server.ledger.history
        assert len(stacked.reports[0].uploads) > rows
    if name == "diverging":
        # a non-finite client shared its cohort with finite ones
        assert any(len({u.slice_acc is None for u in r.uploads}) == 2 for r in stacked.reports)
    if name == "one-sample-shards":
        assert sizes.count(1) == 2 and len(set(sizes)) == 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging case overflows on purpose
@pytest.mark.parametrize("name", ["one-sample-shards", "diverging"])
def test_update_scores_equal_the_one_model_accuracy_after_the_update(name, monkeypatch):
    """Each score `client_local_update` returns, from one stacked pass per
    shard length, equals `nn.evaluate_accuracy` of the client's own model
    on its own shard right after the update, in every round."""
    config, rows = COHORT_CASES[name]
    monkeypatch.setattr(engine, "COHORT_ROWS", rows)
    update = engine.client_local_update
    scores = []

    def checked(clients, rep_flat, config, round_index):
        returned = update(clients, rep_flat, config, round_index)
        assert returned == {c.client_id: nn.evaluate_accuracy(c.model, c.data) for c in clients}
        scores.extend(returned.values())
        return returned

    monkeypatch.setattr(engine, "client_local_update", checked)
    engine.run_training(config)
    assert len(set(scores)) > 2


# --- full runs ------------------------------------------------------------------


def test_run_training_is_deterministic():
    config = tiny_config()
    a = engine.run_training(config)
    b = engine.run_training(config)
    np.testing.assert_array_equal(a.server.rep_flat, b.server.rep_flat)
    for ca, cb in zip(a.clients, b.clients):
        np.testing.assert_array_equal(head_of(ca), head_of(cb))
    main_acc = [[u.main_acc for u in r.uploads] for r in a.reports]
    assert main_acc == [[u.main_acc for u in r.uploads] for r in b.reports]


def test_zero_rounds_returns_initialization():
    config = tiny_config(rounds=0)
    result = engine.run_training(config)
    first = result.clients[0].model
    base = nn.init_model(first.specs, derive_seed(config.seed, STREAM_INIT), first.head_start)
    np.testing.assert_array_equal(result.server.rep_flat, base.params[: base.rep_param_count])
    for model in (client.model for client in result.clients):
        for k in model.head_layer_ids:
            np.testing.assert_array_equal(model.weights[k], base.weights[k])
    assert result.reports == []


def test_unsampled_heads_persist():
    config = tiny_config(sample_rate=0.5, rounds=2, n_clients=4)
    one_round = engine.run_training(tiny_config(sample_rate=0.5, rounds=1, n_clients=4))
    two_rounds = engine.run_training(config)
    second = two_rounds.reports[1]
    unsampled = [cid for cid in range(4) if cid not in second.sampled]
    assert unsampled, "expected at least one unsampled client with sample_rate 0.5"
    for cid in unsampled:
        np.testing.assert_array_equal(
            head_of(one_round.clients[cid]), head_of(two_rounds.clients[cid])
        )


def test_embedding_count_tracks_sampling():
    result = engine.run_training(tiny_config(sample_rate=0.5, rounds=3, n_clients=4))
    for client in result.clients:
        expected = sum(client.client_id in r.sampled for r in result.reports)
        assert client.embedding_count == expected


def test_server_never_holds_head_parameters():
    result = engine.run_training(tiny_config())
    assert result.server.rep_flat.shape == (result.clients[0].model.rep_param_count,)
    for client in result.clients:
        assert not np.shares_memory(result.server.rep_flat, head_of(client))


def test_region_auto_sizing_covers_all_clients():
    config = tiny_config()
    result = engine.run_training(config)
    expected = result.clients[0].model.rep_param_count // config.n_clients
    for assignment in result.server.assignments:
        assert assignment.region_size == expected
    covered = np.concatenate([np.arange(a.region_start, a.region_stop) for a in result.server.assignments])
    assert len(np.unique(covered)) == len(covered)


def test_detector_accepts_everyone_on_an_honest_run():
    result = engine.run_training(tiny_config(detector=True))
    for report in result.reports:
        assert all(u.accepted for u in report.uploads)
    assert result.server.ledger.malicious == []


def test_ban_rejected_stops_a_rejected_client():
    """With ban_rejected, a client the detector rejects uploads no more: it
    has no Upload after that round, its embedding count stops, and the
    server lists it as banned. Without the ban it keeps uploading. Every
    client, banned ones included, owns its model: each ends with the final
    shared representation as its prefix, and no two models, nor a model and
    the server, share memory."""
    config = tiny_config(detector=True, ban_rejected=True, malicious_fraction=0.25, tamper_rate=0.3)
    result = engine.run_training(config)
    rejections = [u for r in result.reports for u in r.uploads if not u.accepted]
    assert rejections, "expected the detector to reject at least one upload"
    for rejection in rejections:
        cid = rejection.client_id
        later = result.reports[rejection.round_index :]
        assert [u for r in later for u in r.uploads if u.client_id == cid] == []
        assert result.clients[cid].embedding_count == rejection.embedding_count
        assert cid in result.server.banned
    rep = result.server.rep_flat
    for client in result.clients:
        np.testing.assert_array_equal(client.model.params[: len(rep)], rep)
        assert not np.shares_memory(client.model.params, rep)
    for a, b in itertools.combinations(result.clients, 2):
        assert not np.shares_memory(a.model.params, b.model.params)
    unbanned = engine.run_training(dataclasses.replace(config, ban_rejected=False))
    assert unbanned.server.banned == set()
    cid, round_index = rejections[0].client_id, rejections[0].round_index
    assert any(u.client_id == cid for r in unbanned.reports[round_index:] for u in r.uploads)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence overflows on purpose
def test_non_finite_uploads_never_reach_the_aggregate():
    """At lr=50 the default model diverges within two rounds. A non-finite
    upload is rejected unscored, with the detector on or off: it has no slice
    accuracy and no ledger record, it is not averaged, and ban_rejected bans
    its client."""
    config = RunConfig(n_clients=4, lr=50.0, detector=True, min_cohort=2, rounds=5)
    for variant in (config, dataclasses.replace(config, detector=False)):
        result = engine.run_training(variant)
        assert np.isfinite(result.server.rep_flat).all()
        unscored = [u for r in result.reports for u in r.uploads if u.slice_acc is None]
        assert unscored and not any(u.accepted for u in unscored)
        recorded = {(rec.round_index, rec.client_id) for rec, _ in result.server.ledger.history}
        assert recorded.isdisjoint((u.round_index, u.client_id) for u in unscored)
    banned = engine.run_training(dataclasses.replace(config, ban_rejected=True))
    first = next(u for r in banned.reports for u in r.uploads if u.slice_acc is None)
    assert first.client_id in banned.server.banned
    later = banned.reports[first.round_index :]
    assert all(u.client_id != first.client_id for r in later for u in r.uploads)
    assert np.isfinite(banned.server.rep_flat).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence overflows on purpose
def test_non_finite_models_score_zero_main_accuracy(tmp_path):
    """argmax reads an all-NaN row as class 0, and a NaN projection extracts
    as bit 0, so a diverged model must be scored by neither: its round rows
    and its final_metrics.csv main_acc and private_rate read 0.0, and so
    does its own mark on the heatmap diagonal."""
    config = RunConfig(n_clients=4, lr=50.0, min_cohort=2, rounds=5)
    result = engine.run_training(config)
    unscored = [u for r in result.reports for u in r.uploads if u.slice_acc is None]
    assert unscored and all(u.main_acc == 0.0 for u in unscored)
    diverged = {c.client_id for c in result.clients if not np.isfinite(c.model.params).all()}
    assert diverged
    write_run_artifacts(result, config, str(tmp_path))
    with open(tmp_path / "final_metrics.csv", newline="") as f:
        rows = {int(row["client"]): row for row in csv.DictReader(f)}
    for cid in diverged:
        assert float(rows[cid]["main_acc"]) == 0.0
        assert float(rows[cid]["private_rate"]) == 0.0
    assert cli.main(["heatmap", str(tmp_path)]) == 0
    with open(tmp_path / "heatmap.csv", newline="") as f:
        heatmap = list(csv.DictReader(f))
    for cid, row in rows.items():
        assert heatmap[cid][f"wm_{cid}"] == row["private_rate"]


def test_upload_shares_match_the_round_reports():
    """The per-upload detector shares count the uploads of every round:
    each verified upload is one ledger record, so the reports give them
    independently of the ledger."""
    config = COHORT_CASES["tampering-detector"][0]
    result = engine.run_training(config)
    report = attack_report(
        result.server.rep_flat, result.server.assignments, result.malicious_ids, result.server.ledger, config.n_clients
    )
    verified = [u for r in result.reports for u in r.uploads if u.slice_acc is not None]
    tampered = [u.accepted for u in verified if u.client_id in result.malicious_ids]
    honest = [u.accepted for u in verified if u.client_id not in result.malicious_ids]
    assert tampered and honest and not all(tampered)
    assert report.malicious_rejected == tampered.count(False) / len(tampered)
    assert report.honest_rejected == honest.count(False) / len(honest)
    assert report.tampered_aggregated == tampered.count(True) / len(tampered)


def test_tampering_run_marks_clients_and_slices():
    config = tiny_config(malicious_fraction=0.25, tamper_rate=0.3, rounds=2)
    result = engine.run_training(config)
    assert len(result.malicious_ids) == 1
    (bad,) = result.malicious_ids
    # the attacker's upload scores visibly below perfect on its true slice
    last = result.reports[-1]
    assert {u.client_id: u.slice_acc for u in last.uploads}[bad] < 1.0


def test_disabling_watermarks_reproduces_plain_federated_training():
    """Decoupling: with zero-length watermarks the engine must equal an
    independently written reference loop, bit for bit."""
    config = tiny_config(private_bits=0, slice_total_bits=0)
    result = engine.run_training(config)
    oracle_rep, oracle_heads = plain_fedrep_oracle(config)
    np.testing.assert_array_equal(result.server.rep_flat, oracle_rep)
    for client, head in zip(result.clients, oracle_heads):
        np.testing.assert_array_equal(head_of(client), head)
    assert result.common is None
    assert result.server.assignments == ()
