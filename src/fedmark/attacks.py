"""Attacks on watermarked models and the report that scores them.

Covers collusion-style slice tampering during training plus two post-hoc
removal attacks on finished models: magnitude pruning of the head and
main-task-only fine-tuning.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .detection import DetectionLedger, detection_metrics, upload_shares
from .slicing import extract_slice
from .watermark import detection_rate


def tamper_bits(bits: np.ndarray, tamper_rate: float, seed: int) -> np.ndarray:
    """Flip max(1, floor(tamper_rate * len(bits))) seeded distinct positions.

    tamper_rate 0 returns an untouched copy; 1 flips every bit.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if not 0.0 <= tamper_rate <= 1.0:
        raise ValueError(f"tamper_rate must lie in [0, 1], got {tamper_rate}")
    out = bits.copy()
    if tamper_rate == 0.0:
        return out
    flips = max(1, int(tamper_rate * len(bits)))
    where = np.random.default_rng(seed).choice(len(bits), size=flips, replace=False)
    out[where] ^= 1
    return out


def apply_adaptive_tampering(clients, malicious_fraction: float, seed: int):
    """Flag floor(malicious_fraction * n) seeded clients as tamperers.

    Malicious clients keep training and head-watermarking honestly; only the
    slice they embed is corrupted, at the run's tamper_rate.
    """
    if not 0.0 <= malicious_fraction <= 1.0:
        raise ValueError(f"malicious_fraction must lie in [0, 1], got {malicious_fraction}")
    count = int(malicious_fraction * len(clients))
    chosen = set()
    if count:
        rng = np.random.default_rng(seed)
        chosen = set(rng.choice(len(clients), size=count, replace=False).tolist())
    for client in clients:
        client.malicious = client.client_id in chosen
    return clients


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
            _, grads = nn.main_task_loss_and_grads(tuned, batch, with_loss=False)
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
    n_clients: int,
) -> AttackReport:
    """Score a finished run: slice detection rates are measured against the
    final shared representation, the surface every party keeps."""
    malicious_ids = set(malicious_ids)
    honest, malicious = [], []
    for a in assignments:
        rate = detection_rate(a.bits, extract_slice(rep_flat, a))
        (malicious if a.client_id in malicious_ids else honest).append(rate)
    d_t, d_f = detection_metrics(ledger, malicious_ids, n_clients)
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
