"""Federated training loop with decoupled watermark embedding.

Each round the server broadcasts the shared representation to a sampled set
of clients. A client first runs several head-only epochs whose loss adds a
private-watermark penalty on its head, then one representation-only epoch
whose loss adds the penalty for its server-issued watermark slice, and
uploads the representation. The server rejects a non-finite upload unscored,
verifies every other upload against the client's true slice, optionally
screens it with the tamper detector, and averages the accepted uploads, as
a running sum, into the next shared representation. Each client trains on
the data shard it owns; heads never leave their clients. A client keeps
only its head between rounds; its
personalized model is the shared representation plus that head, built on
demand by `TrainingResult.model`. A round's clients never read each other's
state, so they train together in cohorts: cohort i is one `nn.Model` over
the leading rows of run-owned block i, whose head epochs train its
head-column view, with the same bits as clients trained one by one. Every
client still draws its batch orders from its own seeded stream, keyed
(seed, STREAM_LOCAL_BATCHES, client, round); the round derives all of its
clients' seeds in one `seeding.derive_seeds` call and draws each client's
orders for every epoch in one go from `seeding.seeded_generators`. Both
phases of a cohort's update run through one module-level `_epoch`, with the
private-mark term `_add_private` in the head epochs and the slice term
`_add_slice` in the representation epoch; each takes its inputs as
arguments. Each upload is the representation columns of its block row,
scored once, on the cohort that produced it, and reported as one `Upload`
row; the server reads all of a round's slices with one
`slicing.slice_detection_rates` call. Every client is built whole before
the first round, with its slice and its role; the tamperers
(`attacks.choose_tamperers`) and the slices they embed each round
(`attacks.tampered_slices`) come from `attacks`.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .attacks import choose_tamperers, tampered_slices
from .config import ConfigError, RunConfig, region_params, sample_count, validate_config
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
    derive_seed,
    derive_seeds,
    seeded_generators,
)
from .slicing import SliceAssignment, assign_slices, slice_detection_rates, slice_loss_and_grad
from .watermark import (
    PrivateWatermarkSpec,
    make_private_spec,
    private_embedding_loss_and_grads,
    random_bits,
    stack_private_marks,
)


@dataclass
class ClientState:
    """Everything a client keeps between rounds: its private head parameters,
    its private data shard, watermark material, and attack role, all given
    when it is made; only its head and embedding count change. The
    representation it trains on is the server's broadcast."""

    client_id: int
    head: np.ndarray
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

    @property
    def non_finite(self) -> bool:
        """Rejected unscored: only a non-finite upload is rejected with no
        slice accuracy, since the detector screens scored uploads alone."""
        return not self.accepted and self.slice_acc is None


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
    specs: list  # the layers of every client's model
    head_start: int

    @property
    def malicious_ids(self) -> set:
        return {c.client_id for c in self.clients if c.malicious}

    def model(self, client: ClientState) -> nn.Model:
        """The client's personalized model after the run, in fresh memory:
        the final shared representation, then the client's head."""
        return nn.Model(self.specs, np.concatenate([self.server.rep_flat, client.head]), self.head_start)


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
    """The clients' shards. A split that cannot be drawn raises ConfigError,
    naming `partition` and the keys that size it."""
    seed = derive_seed(config.seed, STREAM_PARTITION)
    try:
        if config.partition == "dirichlet":
            return partition_dirichlet(dataset.labels, config.n_clients, config.dirichlet_beta, seed)
        return partition_k_labels(dataset.labels, config.n_clients, config.k_labels, seed)
    except ValueError as err:
        key = "dirichlet_beta" if config.partition == "dirichlet" else "k_labels"
        raise ConfigError(
            f"partition={config.partition} cannot split {len(dataset)} samples among "
            f"n_clients={config.n_clients} with {key}={getattr(config, key)}: {err}"
        ) from None


def sample_clients(n_clients: int, sample_rate: float, seed: int) -> list[int]:
    """Uniform subset of round(sample_rate * n_clients) distinct clients."""
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must lie in (0, 1], got {sample_rate}")
    count = sample_count(n_clients, sample_rate)
    if count < 1:
        raise ValueError(f"sample_rate {sample_rate} of {n_clients} clients rounds below 1")
    chosen = np.random.default_rng(seed).choice(n_clients, size=count, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate(reps: list) -> np.ndarray:
    """Element-wise mean of uploaded representations: a running sum from
    zero in list order, then one division. These are the bits of
    `np.mean(np.stack(reps), axis=0)`, which sums a stack's rows the same
    way, without building the (K, rep) stack."""
    if not reps:
        raise ValueError("nothing to aggregate")
    total = np.zeros(len(reps[0]))
    for rep in reps:
        total += rep
    total /= len(reps)
    return total


# Rows per training cohort. A cohort's working set grows with its rows (the
# stacked models, a gradient of the same size, the layer activations), while
# the per-call overhead it saves is already small at a few dozen rows.
COHORT_ROWS = 32


def _cohorts(items):
    """`items` in order, cut into cohorts of at most `COHORT_ROWS`."""
    return [items[lo : lo + COHORT_ROWS] for lo in range(0, len(items), COHORT_ROWS)]


def cohort_blocks(model: nn.Model, clients: int) -> list:
    """The training blocks of a round of `clients` clients: block i is a
    cohort `nn.Model` of `model`'s layers over its own (rows, P) buffer, with
    the rows of cohort i, at most `COHORT_ROWS`. A run allocates them once,
    and every round's cohorts train in them. The blocks are cohort-sized,
    not one (clients, P) buffer: freeing an allocation raises glibc's mmap
    and trim thresholds to its size, and after one 8 MB buffer a 200-client
    process kept more of its later arrays on the heap and peaked higher."""
    return [
        nn.Model(model.specs, np.empty((len(rows), model.params.shape[-1])), model.head_start)
        for rows in _cohorts(range(clients))
    ]


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


def _slice_targets(clients: list, config: RunConfig, round_index: int) -> list:
    """The slice bits each client embeds this round, in client order: its
    true slice, a tamperer's from `attacks.tampered_slices`, or None
    without slice embedding."""
    embedded = [None if c.assignment is None or config.slice_strength == 0.0 else c.assignment.bits for c in clients]
    tamperers = {c.client_id: bits for c, bits in zip(clients, embedded) if c.malicious and bits is not None}
    tampered = tampered_slices(tamperers, config, round_index)
    return [tampered.get(c.client_id, bits) for c, bits in zip(clients, embedded)]


def _batch_orders(sizes, generators, epochs: int) -> np.ndarray:
    """The batch orders of every epoch for C shards of `sizes`, sorted from
    largest, as an (epochs, C, sizes[0]) array: row i holds the
    permutations the i-th of `generators` draws, all of a row's epochs
    before the next row's; a shorter shard leaves the tail of its row
    unread."""
    orders = np.zeros((epochs, len(sizes), sizes[0]), dtype=np.int64)
    for i, (n, generator) in enumerate(zip(sizes, generators)):
        for epoch in orders:
            epoch[i, :n] = generator.permutation(n)
    return orders


def client_local_update(
    clients: list,
    rep_flat: np.ndarray,
    config: RunConfig,
    round_index: int,
    blocks: list,
) -> dict:
    """One round for the given clients: head epochs, then a single
    representation epoch, every client trained on its own shard. Returns
    each client's (upload, main-task accuracy on its shard after the
    update), by client id.

    The clients never read each other's state, so they train together as
    stacked cohorts of at most `COHORT_ROWS`, largest shards first (see
    `_train_cohort`), cohort i in the leading rows of `blocks[i]`, from
    `cohort_blocks`, whose values are overwritten. Each client's head and
    score come out bit for bit as if it had trained alone; its upload is the
    representation columns of its block row, a view that the next round's
    training overwrites. Each client draws every epoch's batch order from
    its own stream, keyed (seed, STREAM_LOCAL_BATCHES, client, round).
    """
    clients = sorted(clients, key=lambda c: -len(c.data))  # stable: ties keep their order
    # seeds and tampered slices for the whole round at once: per cohort, the
    # vectorized hash's fixed cost would outweigh what it saves
    ids = [c.client_id for c in clients]
    generators = seeded_generators(derive_seeds(config.seed, STREAM_LOCAL_BATCHES, ids, round_index))
    targets = _slice_targets(clients, config, round_index)
    trained = {}
    for cohort, cohort_targets, block in zip(_cohorts(clients), _cohorts(targets), blocks):
        sizes = [len(c.data) for c in cohort]
        orders = _batch_orders(sizes, itertools.islice(generators, len(cohort)), config.head_epochs + 1)
        trained.update(_train_cohort(cohort, orders, cohort_targets, rep_flat, config, block))
    return trained


def _rows(model: nn.Model):
    """Rows a:b of a cohort model as a cohort model, each built once."""
    return functools.cache(lambda a, b: nn.Model(model.specs, model.params[a:b], model.head_start))


def _epoch(cohort_rows, source, labels, orders, steps, lr, part, add_watermark) -> None:
    """One epoch of every stack row over its shard, in the row's batch order
    of `orders`. Each step takes the main-task gradient of the rows a:b
    that have a batch, as the cohort model `cohort_rows(a, b)`, adds their
    watermark gradients through `add_watermark(cohort, a, b, grads)`, and
    applies `part` of it."""
    for lo, length, a, b in steps:
        take = (np.arange(a, b)[:, None], orders[a:b, lo : lo + length])
        cohort = cohort_rows(a, b)
        grads = nn.main_task_loss_and_grads(cohort, nn.Batch(source[take], labels[take]))
        add_watermark(cohort, a, b, grads)
        nn.apply_sgd(cohort.params[:, part], grads[:, part], lr)
        del grads  # the (C, P) gradient is freed before the next step allocates one


def _add_private(marks, strength, heads, a, b, grads) -> None:
    """Add the private-mark gradients of `heads`, the head view of stack rows
    a:b, read against rows a:b of `marks` (from `stack_private_marks`; None
    embeds no mark)."""
    if marks is None:
        return
    rows_marks = [(matrices[a:b], bits[a:b]) for matrices, bits in marks]
    grad = private_embedding_loss_and_grads(heads, rows_marks)
    grads += strength * grad


def _add_slice(slices, strength, cohort, a, b, grads) -> None:
    """Add the slice gradient of each row of `cohort`, stack rows a:b, read
    from the row's representation against rows a:b of `slices`, one
    (assignment, target bits) per stack row (None bits embed no slice)."""
    for row, row_grads, (assignment, target) in zip(cohort.params, grads, slices[a:b]):
        if target is None:
            continue
        seg_grad = slice_loss_and_grad(row[: cohort.rep_param_count], assignment, target)
        row_grads[assignment.region_start : assignment.region_stop] += strength * seg_grad


def _train_cohort(clients: list, orders, targets: list, rep_flat: np.ndarray, config: RunConfig, block) -> dict:
    """Train clients, sorted by shard size from largest, as one cohort, in
    their `_batch_orders` of every epoch, embedding their slice `targets`,
    and score them; returns each client's (upload, accuracy) by client id.

    The cohort is one (C, P) `nn.Model` over the leading rows of `block`, a
    cohort model the caller owns: the broadcast `rep_flat` fills its
    representation columns and each client's head the rest of its row. Two
    phases run through `_epoch`, each taking its inputs as arguments: the
    head epochs train the view of its head columns over features computed
    once per shard, with the private-mark term `_add_private`; the
    representation epoch trains the whole stack, with the slice term
    `_add_slice`. Each main-task step runs on the stack rows that still have
    a batch at that step, grouped by batch length, with one private-mark
    call on their head rows and marks: stacked once per round when a row
    reads its mark more than once, and otherwise read in place from the
    cache. The feature pass and the scoring run once per group of equal
    shard lengths, not padded: a one-row product takes another BLAS path.
    Each client takes its watermark gradients from its own stack row, as
    alone. The trained rows are scored, each row's head is written back into
    `client.head`, and its representation columns stay in the block as the
    upload.
    """
    stack = nn.Model(block.specs, block.params[: len(clients)], block.head_start)
    specs, head_start, rep_size = stack.specs, stack.head_start, stack.rep_param_count
    stack.params[:, :rep_size] = rep_flat
    for client, row in zip(clients, stack.params, strict=True):
        row[rep_size:] = client.head
    sizes = [len(c.data) for c in clients]
    steps = _cohort_steps(sizes, config.batch_size)
    shards = _cohort_steps(sizes, sizes[0])  # one (0, length, a, b) per shard length
    # one row per client; rows of shorter shards leave their tail unread
    inputs = np.zeros((len(clients), sizes[0], specs[0].input_dim))
    labels = np.zeros((len(clients), sizes[0]), dtype=np.int64)
    for i, client in enumerate(clients):
        inputs[i, : sizes[i]] = client.data.inputs
        labels[i, : sizes[i]] = client.data.labels
    # Head epochs leave the representation frozen, so each shard's features
    # are computed once, through the representation every row shares.
    rep_rows = _rows(stack.view(0, head_start))
    features = np.zeros((len(clients), sizes[0], specs[head_start].input_dim))
    for _, n, a, b in shards:
        nn.forward(rep_rows(a, b), inputs[a:b, :n], with_cache=False, out=features[a:b, :n])
    # a row reads its mark once per head step, and the largest shard takes the most steps
    reads = config.head_epochs * len(range(0, sizes[0], config.batch_size))
    privates = [c.private for c in clients]  # a run gives every client a mark, or none
    marks = stack_private_marks(privates, reads) if config.embed_strength != 0.0 and privates[0] is not None else None
    head_rows = _rows(stack.view(head_start, stack.num_layers))
    add_private = functools.partial(_add_private, marks, config.embed_strength)
    for epoch_orders in orders[:-1]:
        _epoch(head_rows, features, labels, epoch_orders, steps, config.lr, slice(None), add_private)
    del features, marks, add_private

    slices = [(c.assignment, target) for c, target in zip(clients, targets, strict=True)]
    add_slice = functools.partial(_add_slice, slices, config.slice_strength)
    stack_rows = _rows(stack)
    _epoch(stack_rows, inputs, labels, orders[-1], steps, config.lr, slice(0, rep_size), add_slice)
    scores = np.empty(len(clients))
    for _, n, a, b in shards:
        scores[a:b] = nn.evaluate_accuracy(stack_rows(a, b), nn.Batch(inputs[a:b, :n], labels[a:b, :n]))
    for client, row in zip(clients, stack.params):
        client.head[:] = row[rep_size:]
    return {c.client_id: (row[:rep_size], score) for c, row, score in zip(clients, stack.params, scores.tolist())}


def _setup_clients(config, dataset, partition, base_model, assignments, tamperers):
    """Every client, whole: its head, shard and private mark, its slice
    (`assignments[cid]`; none when the run has no slices) and its role."""
    rep_size, head_sizes = nn.param_counts(base_model.specs, base_model.head_start)
    clients = []
    for cid in range(config.n_clients):
        private = None
        if config.private_bits > 0:
            bits = random_bits(config.private_bits, derive_seed(config.seed, STREAM_PRIVATE_BITS, cid))
            private = make_private_spec(bits, head_sizes, derive_seed(config.seed, STREAM_PRIVATE_MATRIX, cid))
        clients.append(
            ClientState(
                client_id=cid,
                head=base_model.params[rep_size:].copy(),
                data=dataset.subset(partition.client_indices[cid]),
                private=private,
                assignment=assignments[cid] if assignments else None,
                malicious=cid in tamperers,
            )
        )
    return clients


@np.errstate(over="ignore", invalid="ignore")
def run_training(config: RunConfig) -> TrainingResult:
    """Run the full federation per the configuration. Deterministic: equal
    configs produce bit-identical results. Raises ConfigError, naming the
    key, for a config that validate_config rejects. numpy's overflow and
    invalid-value warnings are off: a diverging run overflows, the server
    rejects each non-finite upload, and the reports name them
    (`Upload.non_finite`)."""
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
    assignments = ()
    if config.slice_total_bits > 0:
        bits = random_bits(config.slice_total_bits, derive_seed(config.seed, STREAM_COMMON_WATERMARK))
        region = region_params(config, rep_size)
        assignments = tuple(
            assign_slices(bits, config.n_clients, rep_size, region, derive_seed(config.seed, STREAM_SLICE_ASSIGN))
        )
    tamperers = frozenset()
    if config.malicious_fraction > 0.0 and config.tamper_rate > 0.0:
        select_seed = derive_seed(config.seed, STREAM_MALICIOUS_SELECT)
        tamperers = choose_tamperers(config.n_clients, config.malicious_fraction, select_seed)
    clients = _setup_clients(config, dataset, partition, base, assignments, tamperers)
    del dataset, partition  # each client owns its shard; free the rest before training
    # every round's cohorts train in these blocks: no round allocates (and faults in) its own
    blocks = cohort_blocks(base, sample_count(config.n_clients, config.sample_rate))

    server = ServerState(rep_flat=rep, ledger=DetectionLedger(), assignments=assignments)
    reports = []

    for round_index in range(1, config.rounds + 1):
        sampled = sample_clients(
            config.n_clients, config.sample_rate, derive_seed(config.seed, STREAM_SAMPLING, round_index)
        )
        active = [clients[cid] for cid in sampled if cid not in server.banned]
        trained = client_local_update(active, server.rep_flat, config, round_index, blocks)
        rejected = set()
        for client in active:
            client.embedding_count += 1
            if not np.isfinite(trained[client.client_id][0]).all():
                # rejected unscored: it stays out of the aggregate, the detector and the ledger
                rejected.add(client.client_id)
        verified = [c for c in active if c.client_id not in rejected and c.assignment is not None]
        rates = slice_detection_rates([trained[c.client_id][0] for c in verified], [c.assignment for c in verified])
        slice_acc = dict(zip([c.client_id for c in verified], rates))  # in client order

        records = [
            DetectionRecord(round_index, cid, clients[cid].embedding_count, acc) for cid, acc in slice_acc.items()
        ]
        if config.detector:
            verdicts = server.ledger.screen_round(records, config)
            rejected |= {record.client_id for record, ok in zip(records, verdicts) if not ok}
        if config.ban_rejected:
            server.banned |= rejected

        kept = [trained[c.client_id][0] for c in active if c.client_id not in rejected]
        if kept:
            server.rep_flat = aggregate(kept)

        uploads = [
            Upload(
                round_index=round_index,
                client_id=client.client_id,
                embedding_count=client.embedding_count,
                slice_acc=slice_acc.get(client.client_id),
                accepted=client.client_id not in rejected,
                main_acc=trained[client.client_id][1],
            )
            for client in active
        ]
        reports.append(RoundReport(round_index=round_index, sampled=sampled, uploads=uploads))

    return TrainingResult(server=server, clients=clients, reports=reports, specs=specs, head_start=head_start)
