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
A round's clients never read each other's state, so they train together in
cohorts: each cohort is one `nn.Model` over a stack of the clients' parameter
vectors, whose head epochs train its head-column view, with the same bits as
clients trained one by one. Each upload is scored once, on the cohort that
produced it, and reported as one `Upload` row.
"""

import functools
import itertools
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


# Rows per training cohort. A cohort's working set grows with its rows (the
# stacked models, a gradient of the same size, the layer activations), while
# the per-call overhead it saves is already small at a few dozen rows.
COHORT_ROWS = 32


def _cohort_steps(sizes, batch_size) -> list[tuple]:
    """The steps of one epoch over shards of `sizes`, sorted from largest,
    as (lo, length, a, b): stack rows a:b all have a batch of `length` rows
    at [lo, lo + length) of their epoch order. The rows with a batch at `lo`
    are a prefix, and a run of equal lengths within it is contiguous."""
    steps = []
    for lo in range(0, sizes[0], batch_size):
        a = 0
        lengths = [min(n - lo, batch_size) for n in sizes if n > lo]
        for length, run in itertools.groupby(lengths):
            b = a + len(list(run))
            steps.append((lo, length, a, b))
            a = b
    return steps


def _slice_target(client: ClientState, config: RunConfig, round_index: int):
    """The slice bits a client embeds this round (tampered for a malicious
    client), or None without slice embedding."""
    if client.assignment is None or config.slice_strength == 0.0:
        return None
    if not client.malicious:
        return client.assignment.bits
    key = (config.seed, STREAM_TAMPER, client.client_id)
    if config.fresh_tamper:
        key = (*key, round_index)
    return tamper_bits(client.assignment.bits, config.tamper_rate, derive_seed(*key))


def client_local_update(
    clients: list,
    rep_flat: np.ndarray,
    config: RunConfig,
    round_index: int,
) -> dict:
    """One round for the given clients: head epochs, then a single
    representation epoch, every client trained on its own shard. Returns
    each client's main-task accuracy on its shard after the update, by
    client id.

    The clients never read each other's state, so they train together as
    stacked cohorts of at most `COHORT_ROWS`, largest shards first (see
    `_train_cohort`). Each client's model and score come out bit for bit as
    if it had trained alone; its representation prefix is the upload.
    """
    clients = sorted(clients, key=lambda c: -len(c.data))  # stable: ties keep their order
    scores = {}
    for lo in range(0, len(clients), COHORT_ROWS):
        scores.update(_train_cohort(clients[lo : lo + COHORT_ROWS], rep_flat, config, round_index))
    return scores


def _train_cohort(clients: list, rep_flat: np.ndarray, config: RunConfig, round_index: int) -> dict:
    """Train clients, sorted by shard size from largest, as one cohort, and
    score them; returns each client's accuracy by client id.

    The clients' models are stacked once into a (C, P) `nn.Model`, and the
    broadcast `rep_flat` is written into its representation columns. The
    head epochs train the view of its head columns over features computed
    once per shard, the representation epoch the whole stack. Each main-task
    step runs on the stack rows that still have a batch at that step,
    grouped by batch length, with one private-mark call for those rows. The
    feature pass and the scoring run once per group of equal shard lengths,
    not padded: a one-row product takes another BLAS path. Each client draws
    its batch orders from its own generator and gets its watermark gradients
    from its own stack row, as when it trains alone. The trained rows are
    scored, then written back into each `client.model`.
    """
    first = clients[0].model
    stack = nn.Model(first.specs, np.stack([c.model.params for c in clients]), first.head_start)
    specs, head_start, rep_size = stack.specs, stack.head_start, stack.rep_param_count
    stack.params[:, :rep_size] = rep_flat
    sizes = [len(c.data) for c in clients]
    rngs = [
        np.random.default_rng(derive_seed(config.seed, STREAM_LOCAL_BATCHES, c.client_id, round_index))
        for c in clients
    ]
    steps = _cohort_steps(sizes, config.batch_size)
    shards = _cohort_steps(sizes, sizes[0])  # one (0, length, a, b) per shard length
    row_ids = np.arange(len(clients))[:, None]
    privates = [c.private for c in clients]

    def buffer(*shape, dtype=np.float64):
        """One row per client; rows of shorter shards leave their tail unread."""
        return np.zeros((len(clients), sizes[0], *shape), dtype=dtype)

    def rows(model):
        """Rows a:b of a cohort model, each built once per phase."""
        return functools.cache(lambda a, b: nn.Model(model.specs, model.params[a:b], model.head_start))

    def epoch(cohort_rows, source, add_watermark, part):
        """One epoch of every row over its shard, in a fresh batch order."""
        orders = buffer(dtype=np.int64)
        for row, rng, n in zip(orders, rngs, sizes):
            row[:n] = rng.permutation(n)
        for lo, length, a, b in steps:
            take = (row_ids[a:b], orders[a:b, lo : lo + length])
            step(cohort_rows(a, b), nn.Batch(source[take], labels[take]), a, b, add_watermark, part)

    def step(cohort, minibatch, a, b, add_watermark, part):
        """One SGD step of stack rows a:b: the cohort's main-task gradient
        plus their watermark gradients, applied to `part` of their
        parameters. The (C, P) gradient dies with the call."""
        _, grads = nn.main_task_loss_and_grads(cohort, minibatch, with_loss=False)
        add_watermark(a, b, grads)
        nn.apply_sgd(cohort.params[:, part], grads[:, part], config.lr)

    def add_private(a, b, grads):
        if config.embed_strength == 0.0 or all(p is None for p in privates[a:b]):
            return
        _, flat_grads = private_embedding_loss_and_grads(stack_rows(a, b), privates[a:b], with_loss=False)
        for layer_id, flat in flat_grads.items():
            start = stack.offsets[layer_id] - rep_size
            grads[:, start : start + flat.shape[-1]] += config.embed_strength * flat

    def add_slice(a, b, grads):
        for i, row_grads in enumerate(grads, start=a):
            if targets[i] is None:
                continue
            assignment = clients[i].assignment
            _, seg_grad = slice_loss_and_grad(stack.params[i, :rep_size], assignment, targets[i], with_loss=False)
            start = assignment.region_start
            row_grads[start : start + len(seg_grad)] += config.slice_strength * seg_grad

    stack_rows = rows(stack)
    inputs, labels = buffer(specs[0].input_dim), buffer(dtype=np.int64)
    for i, client in enumerate(clients):
        inputs[i, : sizes[i]] = client.data.inputs
        labels[i, : sizes[i]] = client.data.labels
    # Head epochs leave the representation frozen, so each shard's features
    # are computed once, through the representation every row shares.
    rep_rows = rows(stack.view(0, head_start))
    features = buffer(specs[head_start].input_dim)
    for _, n, a, b in shards:
        features[a:b, :n] = nn.forward(rep_rows(a, b), inputs[a:b, :n], with_cache=False)[0]
    head_rows = rows(stack.view(head_start, stack.num_layers))
    for _ in range(config.head_epochs):
        epoch(head_rows, features, add_private, slice(None))
    del features

    targets = [_slice_target(c, config, round_index) for c in clients]
    epoch(stack_rows, inputs, add_slice, slice(0, rep_size))
    scores = np.empty(len(clients))
    for _, n, a, b in shards:
        scores[a:b] = nn.evaluate_accuracy(stack_rows(a, b), nn.Batch(inputs[a:b, :n], labels[a:b, :n]))
    for client, row in zip(clients, stack.params):
        client.model.params[:] = row
    return {c.client_id: score for c, score in zip(clients, scores.tolist())}


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
    del dataset, partition  # each client owns its shard; free the rest before training

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
        active = [clients[cid] for cid in sampled if cid not in server.banned]
        main_acc = client_local_update(active, server.rep_flat, config, round_index)
        trained = []  # (client, slice accuracy or None) per active client
        rejected = set()
        for client in active:
            upload = client.model.params[:rep_size]
            client.embedding_count += 1
            acc = None
            if not np.isfinite(upload).all():
                # never scored: a non-finite projection extracts as plausible bits
                rejected.add(client.client_id)
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
                main_acc=main_acc[client.client_id],
            )
            for client, acc in trained
        ]
        reports.append(RoundReport(round_index=round_index, sampled=sampled, uploads=uploads))

    for client in clients:  # banned clients keep the final representation too
        client.model.params[:rep_size] = server.rep_flat
    return TrainingResult(server=server, clients=clients, reports=reports, common=common)
