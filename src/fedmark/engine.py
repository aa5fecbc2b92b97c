"""Federated training loop with decoupled watermark embedding.

Each round the server broadcasts the shared representation to a sampled set
of clients. A client first runs several head-only epochs whose loss adds a
private-watermark penalty on its head, then one representation-only epoch
whose loss adds the penalty for its server-issued watermark slice, and
uploads the representation. The server verifies every upload against the
client's true slice, optionally screens it with the tamper detector, and
averages the accepted uploads into the next shared representation. Heads
never leave their clients.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .attacks import apply_adaptive_tampering, tamper_bits
from .config import RunConfig
from .data import (
    Dataset,
    Partition,
    gen_synthetic_blobs,
    load_idx,
    partition_dirichlet,
    partition_k_labels,
)
from .detection import DetectionLedger, DetectionRecord, DetectorConfig, decide
from .seeding import (
    STREAM_COMMON_WATERMARK,
    STREAM_DATA,
    STREAM_INIT,
    STREAM_LOCAL_BATCHES,
    STREAM_MALICIOUS_SELECT,
    STREAM_PARTITION,
    STREAM_PRIVATE_BITS,
    STREAM_PRIVATE_MATRIX,
    STREAM_SAMPLING,
    STREAM_SLICE_ASSIGN,
    STREAM_TAMPER,
    derive_seed,
)
from .slicing import (
    CommonWatermark,
    SliceAssignment,
    assign_slices,
    extract_slice,
    generate_common_watermark,
    slice_loss_and_grad,
)
from .watermark import (
    PrivateWatermarkSpec,
    detection_rate,
    make_private_spec,
    private_detection_rate,
    private_embedding_loss_and_grads,
    random_bits,
)


@dataclass
class ClientState:
    """Everything a client keeps between rounds: its head, shard, watermark
    material, and attack role."""

    client_id: int
    head: np.ndarray  # flat head parameters, the tail of the model's vector
    indices: np.ndarray
    private: PrivateWatermarkSpec | None = None
    assignment: SliceAssignment | None = None
    malicious: bool = False
    tamper_rate: float = 0.0
    embedding_count: int = 0


@dataclass
class ServerState:
    """What the server holds: the shared representation, the round counter,
    the detection ledger, and the slice assignments. No head parameters."""

    rep_flat: np.ndarray
    round_index: int
    ledger: DetectionLedger
    assignments: tuple
    banned: set = field(default_factory=set)


@dataclass
class RoundReport:
    round_index: int
    sampled: list
    slice_acc: dict  # client_id -> accuracy of the upload against the true slice
    accepted: dict  # client_id -> bool
    main_acc: dict  # client_id -> personalized model accuracy on own shard
    private_rate: dict  # client_id -> own head-watermark detection rate


@dataclass
class TrainingResult:
    server: ServerState
    clients: list
    models: list  # final personalized models, shared rep + private head
    reports: list
    dataset: Dataset
    partition: Partition
    common: CommonWatermark | None
    specs: list
    head_start: int

    @property
    def malicious_ids(self) -> set:
        return {c.client_id for c in self.clients if c.malicious}


def build_layer_specs(input_dim: int, hidden_dims, num_classes: int) -> list[nn.LayerSpec]:
    dims = [input_dim, *hidden_dims, num_classes]
    specs = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        specs.append(nn.LayerSpec(d_in, d_out, "softmax" if last else "relu"))
    return specs


def build_dataset(config: RunConfig) -> Dataset:
    if config.dataset == "blobs":
        return gen_synthetic_blobs(
            config.blob_classes,
            config.blob_dim,
            config.blob_samples_per_class,
            config.blob_spread,
            derive_seed(config.seed, STREAM_DATA),
        )
    return load_idx(config.idx_images, config.idx_labels)


def build_partition(config: RunConfig, dataset: Dataset) -> Partition:
    seed = derive_seed(config.seed, STREAM_PARTITION)
    if config.partition == "dirichlet":
        return partition_dirichlet(dataset.labels, config.n_clients, config.dirichlet_beta, seed)
    return partition_k_labels(dataset.labels, config.n_clients, config.k_labels, seed)


def sample_clients(n_clients: int, sample_rate: float, seed: int) -> list[int]:
    """Uniform subset of round(sample_rate * n_clients) distinct clients."""
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must lie in (0, 1], got {sample_rate}")
    count = round(sample_rate * n_clients)
    if count < 1:
        raise ValueError(f"sample_rate {sample_rate} of {n_clients} clients rounds below 1")
    chosen = np.random.default_rng(seed).choice(n_clients, size=count, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate(reps: list) -> np.ndarray:
    """Element-wise mean of uploaded representations."""
    if not reps:
        raise ValueError("nothing to aggregate")
    return np.mean(np.stack(reps), axis=0)


def _assemble(specs, head_start, rep_flat, client: ClientState) -> nn.Model:
    return nn.Model(list(specs), np.concatenate([rep_flat, client.head]), head_start)


def _minibatches(inputs, labels, batch_size, rng):
    order = rng.permutation(len(labels))
    for lo in range(0, len(order), batch_size):
        take = order[lo : lo + batch_size]
        yield nn.Batch(inputs[take], labels[take])


def client_local_update(
    client: ClientState,
    rep_flat: np.ndarray,
    dataset: Dataset,
    config: RunConfig,
    specs,
    head_start: int,
    round_index: int,
) -> np.ndarray:
    """One client's round: head epochs, then a single representation epoch.

    Returns the updated flattened representation; the updated head stays
    with the client.
    """
    model = _assemble(specs, head_start, rep_flat, client)
    shard_x = dataset.inputs[client.indices]
    shard_y = dataset.labels[client.indices]
    rng = np.random.default_rng(
        derive_seed(config.seed, STREAM_LOCAL_BATCHES, client.client_id, round_index)
    )
    rep_size = model.rep_param_count

    # Head epochs leave the representation frozen, so its features over the
    # shard are computed once and the head trains on them directly; the head
    # view is a slice of the model's parameter vector, so its steps update `model`.
    features, _ = nn.forward(model.view(0, head_start), shard_x)
    head = model.view(head_start, model.num_layers)
    for _ in range(config.head_epochs):
        for batch in _minibatches(features, shard_y, config.batch_size, rng):
            _, grads = nn.main_task_loss_and_grads(head, batch)
            if client.private is not None and config.embed_strength != 0.0:
                _, flat_grads = private_embedding_loss_and_grads(model, client.private)
                for layer_id, flat in flat_grads.items():
                    lo = model.offsets[layer_id] - rep_size
                    grads[lo : lo + len(flat)] += config.embed_strength * flat
            nn.apply_sgd(head.params, grads, config.lr)

    slice_target = None
    if client.assignment is not None and config.slice_strength != 0.0:
        slice_target = client.assignment.bits
        if client.malicious and client.tamper_rate > 0.0:
            key = (config.seed, STREAM_TAMPER, client.client_id)
            if config.fresh_tamper:
                key = (*key, round_index)
            slice_target = tamper_bits(slice_target, client.tamper_rate, derive_seed(*key))

    for batch in _minibatches(shard_x, shard_y, config.batch_size, rng):
        _, grads = nn.main_task_loss_and_grads(model, batch)
        if slice_target is not None:
            _, seg_grad = slice_loss_and_grad(model.params[:rep_size], client.assignment, slice_target)
            start = client.assignment.region_start
            grads[start : start + len(seg_grad)] += config.slice_strength * seg_grad
        nn.apply_sgd(model.params[:rep_size], grads[:rep_size], config.lr)

    client.head = model.params[rep_size:].copy()  # a view would pin the whole vector
    return model.params[:rep_size]


def _setup_clients(config, partition, base_model):
    head_ids = list(base_model.head_layer_ids)
    head_sizes = [base_model.specs[k].flat_size for k in head_ids]
    clients = []
    for cid in range(config.n_clients):
        private = None
        if config.private_bits > 0:
            bits = random_bits(config.private_bits, derive_seed(config.seed, STREAM_PRIVATE_BITS, cid))
            private = make_private_spec(
                bits, head_ids, head_sizes, derive_seed(config.seed, STREAM_PRIVATE_MATRIX, cid)
            )
        clients.append(
            ClientState(
                client_id=cid,
                head=base_model.params[base_model.rep_param_count :].copy(),
                indices=partition.client_indices[cid],
                private=private,
            )
        )
    return clients


def run_training(config: RunConfig) -> TrainingResult:
    """Run the full federation per the configuration. Deterministic: equal
    configs produce bit-identical results."""
    dataset = build_dataset(config)
    partition = build_partition(config, dataset)
    specs = build_layer_specs(
        dataset.inputs.shape[1], config.hidden_dims, dataset.num_classes
    )
    head_start = len(specs) - config.head_layers
    base = nn.init_model(specs, derive_seed(config.seed, STREAM_INIT), head_start)
    rep = base.params[: base.rep_param_count].copy()
    clients = _setup_clients(config, partition, base)

    common = None
    assignments = ()
    if config.slice_total_bits > 0:
        common = generate_common_watermark(
            config.slice_total_bits, config.n_clients, derive_seed(config.seed, STREAM_COMMON_WATERMARK)
        )
        region = config.region_size or base.rep_param_count // config.n_clients
        assignments = tuple(
            assign_slices(common, base.rep_param_count, region, derive_seed(config.seed, STREAM_SLICE_ASSIGN))
        )
        for client, assignment in zip(clients, assignments):
            client.assignment = assignment

    if config.malicious_fraction > 0.0 and config.tamper_rate > 0.0:
        apply_adaptive_tampering(
            clients,
            config.malicious_fraction,
            config.tamper_rate,
            derive_seed(config.seed, STREAM_MALICIOUS_SELECT),
        )

    detector_config = DetectorConfig(
        honest_confidence=config.honest_confidence,
        malicious_confidence=config.malicious_confidence,
        pool_threshold=config.pool_threshold,
        min_cohort=config.min_cohort,
    )
    server = ServerState(
        rep_flat=rep, round_index=0, ledger=DetectionLedger(), assignments=assignments
    )
    reports = []

    for round_index in range(1, config.rounds + 1):
        sampled = sample_clients(
            config.n_clients, config.sample_rate, derive_seed(config.seed, STREAM_SAMPLING, round_index)
        )
        active = [cid for cid in sampled if cid not in server.banned]

        uploads = {}
        for cid in active:
            client = clients[cid]
            uploads[cid] = client_local_update(
                client, server.rep_flat, dataset, config, specs, head_start, round_index
            )
            client.embedding_count += 1

        slice_acc = {}
        records = {}
        for cid in active:
            client = clients[cid]
            if client.assignment is not None:
                acc = detection_rate(
                    client.assignment.bits, extract_slice(uploads[cid], client.assignment)
                )
                slice_acc[cid] = acc
                records[cid] = DetectionRecord(
                    round_index=round_index,
                    client_id=cid,
                    embedding_count=client.embedding_count,
                    acc=acc,
                )

        accepted = {cid: True for cid in active}
        if config.detector and records:
            server.ledger.begin_round(records.values())
            decisions = [(rec, decide(rec, server.ledger, detector_config)) for rec in records.values()]
            server.ledger.commit_round(decisions)
            for record, ok in decisions:
                accepted[record.client_id] = ok
                if not ok and config.ban_rejected:
                    server.banned.add(record.client_id)

        kept = [uploads[cid] for cid in active if accepted[cid]]
        if kept:
            server.rep_flat = aggregate(kept)
        server.round_index = round_index

        main_acc = {}
        private_rate = {}
        for cid in active:
            client = clients[cid]
            local = _assemble(specs, head_start, uploads[cid], client)
            main_acc[cid] = nn.evaluate_accuracy(local, dataset.subset(client.indices))
            if client.private is not None:
                private_rate[cid] = private_detection_rate(local, client.private)
        reports.append(
            RoundReport(
                round_index=round_index,
                sampled=sampled,
                slice_acc=slice_acc,
                accepted={cid: accepted[cid] for cid in active},
                main_acc=main_acc,
                private_rate=private_rate,
            )
        )

    models = [
        _assemble(specs, head_start, server.rep_flat, client) for client in clients
    ]
    return TrainingResult(
        server=server,
        clients=clients,
        models=models,
        reports=reports,
        dataset=dataset,
        partition=partition,
        common=common,
        specs=specs,
        head_start=head_start,
    )
