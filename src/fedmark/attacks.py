"""Attacks on watermarked models and the report that scores them.

Covers collusion-style slice tampering during training plus two post-hoc
removal attacks on finished models: magnitude pruning of the head and
main-task-only fine-tuning. The tampering attacker is decided here in two
parts: `choose_tamperers` gives the ids of the clients that tamper, and
`tampered_slices` gives the slices they embed in a given round, every
tamperer's flips drawn from one vectorized seed derivation
(`seeding.derive_seeds`). The engine only asks them.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import RunConfig
from .detection import DetectionLedger, detection_metrics, upload_shares
from .seeding import STREAM_TAMPER, derive_seeds, seeded_generators
from .slicing import slice_detection_rates


def tamper_bits(bits: np.ndarray, tamper_rate: float, seed: int) -> np.ndarray:
    """Flip max(1, floor(tamper_rate * len(bits))) seeded distinct positions.

    tamper_rate 0 returns an untouched copy; 1 flips every bit.
    """
    return _flip(bits, tamper_rate, np.random.default_rng(seed))


def _flip(bits, tamper_rate: float, generator) -> np.ndarray:
    """`tamper_bits` drawing its positions from `generator`."""
    bits = np.asarray(bits, dtype=np.uint8)
    if not 0.0 <= tamper_rate <= 1.0:
        raise ValueError(f"tamper_rate must lie in [0, 1], got {tamper_rate}")
    out = bits.copy()
    if tamper_rate == 0.0:
        return out
    flips = max(1, int(tamper_rate * len(bits)))
    where = generator.choice(len(bits), size=flips, replace=False)
    out[where] ^= 1
    return out


def choose_tamperers(n_clients: int, malicious_fraction: float, seed: int) -> frozenset:
    """The ids of floor(malicious_fraction * n_clients) seeded distinct
    clients, the run's tamperers.

    Tamperers keep training and head-watermarking honestly; only the slice
    they embed is corrupted (see `tampered_slices`).
    """
    if not 0.0 <= malicious_fraction <= 1.0:
        raise ValueError(f"malicious_fraction must lie in [0, 1], got {malicious_fraction}")
    count = int(malicious_fraction * n_clients)
    if not count:
        return frozenset()
    return frozenset(np.random.default_rng(seed).choice(n_clients, size=count, replace=False).tolist())


def tampered_slices(slices: dict, config: RunConfig, round_index: int) -> dict:
    """The slices the tamperers embed in round `round_index`, by client id:
    each tamperer's true slice `slices[client_id]` with the run's tamper_rate
    share flipped, as `tamper_bits` flips it. Under fresh_tamper the flips
    are keyed (seed, STREAM_TAMPER, client id, round), drawn anew each
    round; otherwise (seed, STREAM_TAMPER, client id), the same every round.
    The round's keys are hashed in one call."""
    if not slices:
        return {}
    ids = list(slices)
    key = (config.seed, STREAM_TAMPER, ids, round_index) if config.fresh_tamper else (config.seed, STREAM_TAMPER, ids)
    generators = seeded_generators(derive_seeds(*key))
    return {cid: _flip(slices[cid], config.tamper_rate, generator) for cid, generator in zip(ids, generators)}


def prune_attack(model: nn.Model, prune_rate: float) -> nn.Model:
    """Zero the smallest-magnitude fraction of head parameters (weights and
    biases ranked together across all head layers)."""
    if not 0.0 <= prune_rate <= 1.0:
        raise ValueError(f"prune_rate must lie in [0, 1], got {prune_rate}")
    pruned = model.copy()
    if prune_rate == 0.0:
        return pruned
    head = pruned.params[pruned.rep_param_count :]
    kill = np.argsort(np.abs(head), kind="stable")[: int(prune_rate * len(head))]
    head[kill] = 0.0
    return pruned


def finetune_attack(
    model: nn.Model, dataset, rounds: int, lr: float, batch_size: int = 10, seed: int = 0
) -> nn.Model:
    """Main-task-only SGD over the whole model, no watermark terms."""
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    width = model.specs[-1].output_dim
    if len(dataset) and (dataset.labels.min() < 0 or dataset.labels.max() >= width):
        raise ValueError(f"labels must lie in [0, {width}), the model's output width")
    tuned = model.copy()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        for batch in nn.minibatches(dataset.inputs, dataset.labels, batch_size, rng):
            grads = nn.main_task_loss_and_grads(tuned, batch)
            nn.apply_sgd(tuned.params, grads, lr)
    return tuned


@dataclass(frozen=True)
class AttackReport:
    """Slice health and detector quality after a run. Malicious-side fields
    are None when the run had no malicious clients; the per-upload shares
    (see `detection.upload_shares`) are None when the ledger holds no upload
    of their kind."""

    honest_rate: float  # mean final slice detection over honest clients, percent
    malicious_rate: float | None
    true_detection: float  # per client: share of malicious clients ever rejected
    false_positive: float
    malicious_rejected: float | None  # per upload, from here on
    honest_rejected: float | None
    tampered_aggregated: float | None

    @property
    def delta(self) -> float | None:
        if self.malicious_rate is None:
            return None
        return self.honest_rate - self.malicious_rate


def attack_report(
    rep_flat: np.ndarray,
    assignments,
    malicious_ids,
    ledger: DetectionLedger,
) -> AttackReport:
    """Score a finished run with one slice per client: slice detection rates
    are measured against the final shared representation, the surface every
    party keeps, with one `slice_detection_rates` call."""
    malicious_ids = set(malicious_ids)
    honest, malicious = [], []
    for a, rate in zip(assignments, slice_detection_rates([rep_flat] * len(assignments), assignments)):
        (malicious if a.client_id in malicious_ids else honest).append(rate)
    d_t, d_f = detection_metrics(ledger, malicious_ids, len(assignments))
    malicious_rejected, honest_rejected, tampered_aggregated = upload_shares(ledger, malicious_ids)
    return AttackReport(
        honest_rate=100.0 * float(np.mean(honest)),
        malicious_rate=100.0 * float(np.mean(malicious)) if malicious else None,
        true_detection=d_t,
        false_positive=d_f,
        malicious_rejected=malicious_rejected,
        honest_rejected=honest_rejected,
        tampered_aggregated=tampered_aggregated,
    )
