"""Federated training loop with decoupled watermark embedding.

Each round the server broadcasts the shared representation to a sampled set
of clients. A client first runs several head-only epochs whose loss adds a
private-watermark penalty on its head, then one representation-only epoch
whose loss adds the penalty for its server-issued watermark slice, and
uploads the representation. The server rejects a non-finite upload unscored,
verifies every other upload against the client's true slice, optionally
screens it with the tamper detector, and averages the accepted uploads into
the next shared representation. Each client trains its own personalized
model in place, on the data shard it owns; heads never leave their clients.
Each upload is scored once, on the model that produced it, and reported as
one `Upload` row.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .attacks import apply_adaptive_tampering, tamper_bits
from .config import RunConfig, region_params, validate_config
from .data import (
    Dataset,
    Partition,
    gen_synthetic_blobs,
    load_idx,
    partition_dirichlet,
    partition_k_labels,
)
from .detection import DetectionLedger, DetectionRecord
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
    private_embedding_loss_and_grads,
    random_bits,
)


@dataclass
class ClientState:
    """Everything a client keeps between rounds: its personalized model (the
    last representation it received plus its private head), its private data
    shard, watermark material, and attack role."""

    client_id: int
    model: nn.Model
    data: Dataset
    private: PrivateWatermarkSpec | None = None
    assignment: SliceAssignment | None = None
    malicious: bool = False
    embedding_count: int = 0


@dataclass
class ServerState:
    """What the server holds: the shared representation, the detection
    ledger, the slice assignments and the banned clients. No head parameters."""

    rep_flat: np.ndarray
    ledger: DetectionLedger
    assignments: tuple
    banned: set = field(default_factory=set)


@dataclass(frozen=True)
class Upload:
    """One client's upload in one round, as the server scored it."""

    round_index: int
    client_id: int
    embedding_count: int
    slice_acc: float | None  # against the true slice; None without slices or for a non-finite upload
    accepted: bool
    main_acc: float  # the local model's accuracy on the client's own shard


@dataclass
class RoundReport:
    round_index: int
    sampled: list
    uploads: list  # one Upload per sampled client not banned, in client order


@dataclass
class TrainingResult:
    server: ServerState
    clients: list
    reports: list
    common: CommonWatermark | None

    @property
    def malicious_ids(self) -> set:
        return {c.client_id for c in self.clients if c.malicious}


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


def client_local_update(
    client: ClientState,
    rep_flat: np.ndarray,
    config: RunConfig,
    round_index: int,
) -> nn.Model:
    """One client's round: head epochs, then a single representation epoch.

    Writes the broadcast `rep_flat` into the client's model and trains that
    model in place. Returns `client.model`, whose representation prefix is
    the upload.
    """
    model = client.model
    rep_size = model.rep_param_count
    model.params[:rep_size] = rep_flat
    rng = np.random.default_rng(
        derive_seed(config.seed, STREAM_LOCAL_BATCHES, client.client_id, round_index)
    )

    # Head epochs leave the representation frozen, so its features over the
    # shard are computed once and the head trains on them directly; the head
    # view is a slice of the model's parameter vector, so its steps update `model`.
    features, _ = nn.forward(model.view(0, model.head_start), client.data.inputs)
    head = model.view(model.head_start, model.num_layers)
    for _ in range(config.head_epochs):
        for batch in nn.minibatches(features, client.data.labels, config.batch_size, rng):
            _, grads = nn.main_task_loss_and_grads(head, batch, with_loss=False)
            if client.private is not None and config.embed_strength != 0.0:
                _, flat_grads = private_embedding_loss_and_grads(model, client.private, with_loss=False)
                for layer_id, flat in flat_grads.items():
                    lo = model.offsets[layer_id] - rep_size
                    grads[lo : lo + len(flat)] += config.embed_strength * flat
            nn.apply_sgd(head.params, grads, config.lr)

    slice_target = None
    if client.assignment is not None and config.slice_strength != 0.0:
        slice_target = client.assignment.bits
        if client.malicious:
            key = (config.seed, STREAM_TAMPER, client.client_id)
            if config.fresh_tamper:
                key = (*key, round_index)
            slice_target = tamper_bits(slice_target, config.tamper_rate, derive_seed(*key))

    for batch in nn.minibatches(client.data.inputs, client.data.labels, config.batch_size, rng):
        _, grads = nn.main_task_loss_and_grads(model, batch, with_loss=False)
        if slice_target is not None:
            _, seg_grad = slice_loss_and_grad(
                model.params[:rep_size], client.assignment, slice_target, with_loss=False
            )
            start = client.assignment.region_start
            grads[start : start + len(seg_grad)] += config.slice_strength * seg_grad
        nn.apply_sgd(model.params[:rep_size], grads[:rep_size], config.lr)
    return model


def _setup_clients(config, dataset, partition, base_model):
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
                model=base_model.copy(),
                data=dataset.subset(partition.client_indices[cid]),
                private=private,
            )
        )
    return clients


def run_training(config: RunConfig) -> TrainingResult:
    """Run the full federation per the configuration. Deterministic: equal
    configs produce bit-identical results. Raises ConfigError, naming the
    key, for a config that validate_config rejects."""
    validate_config(config)
    dataset = build_dataset(config)
    partition = build_partition(config, dataset)
    specs = nn.build_layer_specs(
        dataset.inputs.shape[1], config.hidden_dims, dataset.num_classes
    )
    head_start = len(specs) - config.head_layers
    base = nn.init_model(specs, derive_seed(config.seed, STREAM_INIT), head_start)
    rep_size = base.rep_param_count
    rep = base.params[:rep_size].copy()
    clients = _setup_clients(config, dataset, partition, base)

    common = None
    assignments = ()
    if config.slice_total_bits > 0:
        common = generate_common_watermark(
            config.slice_total_bits, config.n_clients, derive_seed(config.seed, STREAM_COMMON_WATERMARK)
        )
        region = region_params(config, rep_size)
        assignments = tuple(
            assign_slices(common, rep_size, region, derive_seed(config.seed, STREAM_SLICE_ASSIGN))
        )
        for client, assignment in zip(clients, assignments):
            client.assignment = assignment

    if config.malicious_fraction > 0.0 and config.tamper_rate > 0.0:
        apply_adaptive_tampering(
            clients,
            config.malicious_fraction,
            derive_seed(config.seed, STREAM_MALICIOUS_SELECT),
        )

    server = ServerState(rep_flat=rep, ledger=DetectionLedger(), assignments=assignments)
    reports = []

    for round_index in range(1, config.rounds + 1):
        sampled = sample_clients(
            config.n_clients, config.sample_rate, derive_seed(config.seed, STREAM_SAMPLING, round_index)
        )
        trained = []  # (client, slice accuracy or None) per client not banned
        rejected = set()
        for cid in sampled:
            if cid in server.banned:
                continue
            client = clients[cid]
            upload = client_local_update(client, server.rep_flat, config, round_index).params[:rep_size]
            client.embedding_count += 1
            acc = None
            if not np.isfinite(upload).all():
                # never scored: a non-finite projection extracts as plausible bits
                rejected.add(cid)
            elif client.assignment is not None:
                acc = detection_rate(client.assignment.bits, extract_slice(upload, client.assignment))
            trained.append((client, acc))

        records = [
            DetectionRecord(round_index, client.client_id, client.embedding_count, acc)
            for client, acc in trained
            if acc is not None
        ]
        if config.detector:
            verdicts = server.ledger.screen_round(records, config)
            rejected |= {record.client_id for record, ok in zip(records, verdicts) if not ok}
        if config.ban_rejected:
            server.banned |= rejected

        kept = [c.model.params[:rep_size] for c, _ in trained if c.client_id not in rejected]
        if kept:
            server.rep_flat = aggregate(kept)

        uploads = [
            Upload(
                round_index=round_index,
                client_id=client.client_id,
                embedding_count=client.embedding_count,
                slice_acc=acc,
                accepted=client.client_id not in rejected,
                main_acc=nn.evaluate_accuracy(client.model, client.data),
            )
            for client, acc in trained
        ]
        reports.append(RoundReport(round_index=round_index, sampled=sampled, uploads=uploads))

    for client in clients:  # banned clients keep the final representation too
        client.model.params[:rep_size] = server.rep_flat
    return TrainingResult(server=server, clients=clients, reports=reports, common=common)
