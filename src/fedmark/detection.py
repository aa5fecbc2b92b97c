"""Statistical screening of watermarked uploads.

The server verifies each uploaded representation against the client's true
slice and keeps a ledger of the resulting accuracy records. While few
uploads have been rejected, a new record is accepted when its accuracy
clears a lower confidence band around its honest cohort (records with the
same embedding count, including the current round's peers). Once the
rejected pool is large enough, the test flips: a record is accepted only
when it rises above an upper confidence band around the rejected pool.
"""

import math
import statistics
from dataclasses import dataclass, field

from .config import RunConfig

_NORMAL = statistics.NormalDist()


def inverse_normal_cdf(confidence: float) -> float:
    """Standard normal quantile, accurate to well under 1e-6."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return _NORMAL.inv_cdf(confidence)


def lower_band(mean: float, std: float, num: int, confidence: float) -> float:
    """mean - z(confidence) * std / sqrt(num)."""
    return mean - inverse_normal_cdf(confidence) * std / math.sqrt(num)


def upper_band(mean: float, std: float, num: int, confidence: float) -> float:
    """mean + z(confidence) * std / sqrt(num)."""
    return mean + inverse_normal_cdf(confidence) * std / math.sqrt(num)


@dataclass(frozen=True)
class DetectionRecord:
    """One verified upload: who, when, how many times they have embedded so
    far, and the measured slice accuracy."""

    round_index: int
    client_id: int
    embedding_count: int
    acc: float

    def __post_init__(self):
        if not 0.0 <= self.acc <= 1.0:
            raise ValueError(f"acc must lie in [0, 1], got {self.acc}")
        if self.embedding_count < 1:
            raise ValueError("embedding_count starts at 1")


@dataclass
class DetectionLedger:
    """Every decided record: the accepted ones grouped by embedding count,
    the rejected pool, and all of them in arrival order."""

    honest: dict = field(default_factory=dict)  # embedding_count -> [records]
    malicious: list = field(default_factory=list)
    history: list = field(default_factory=list)  # (record, accepted) in arrival order
    # (pool length, (mean, std)) of the rejected pool; the pool only grows,
    # so its length identifies the records the stats were computed over.
    _pool_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def pool_stats(self) -> tuple[float, float]:
        """(mean, sample std) of the rejected pool's accuracies; needs at
        least two rejected records."""
        num = len(self.malicious)
        if self._pool_memo is None or self._pool_memo[0] != num:
            accs = [r.acc for r in self.malicious]
            self._pool_memo = (num, (statistics.fmean(accs), statistics.stdev(accs)))
        return self._pool_memo[1]

    def screen_round(self, records, config: RunConfig) -> list[bool]:
        """Decide one round's records, each against the ledger and its
        round peers, then bank them; returns the verdicts in record order."""
        records = list(records)
        verdicts = [decide(record, self, config, records) for record in records]
        for record, accepted in zip(records, verdicts):
            if accepted:
                self.honest.setdefault(record.embedding_count, []).append(record)
            else:
                self.malicious.append(record)
            self.history.append((record, accepted))
        return verdicts


def cohort_stats(ledger: DetectionLedger, embedding_count: int, peers=(), exclude=None):
    """(mean, sample std, size) of the accepted records with an embedding
    count, then of the round `peers` that share it. `exclude` removes the
    record under test from the peers. std is None when fewer than two records
    remain; mean is NaN when none do."""
    records = ledger.honest.get(embedding_count, []) + [
        r for r in peers if r.embedding_count == embedding_count and r is not exclude
    ]
    num = len(records)
    if num == 0:
        return math.nan, None, 0
    accs = [r.acc for r in records]
    mean = statistics.fmean(accs)
    std = statistics.stdev(accs) if num >= 2 else None
    return mean, std, num


def decide(record: DetectionRecord, ledger: DetectionLedger, config: RunConfig, peers=()) -> bool:
    """Accept or reject one upload record against the current ledger and
    its round `peers`, which may include the record itself."""
    pool = len(ledger.malicious)
    if pool < config.pool_threshold:
        mean, std, num = cohort_stats(ledger, record.embedding_count, peers, exclude=record)
        if num < config.min_cohort or std is None:
            return True
        if std == 0.0:
            # Degenerate cohort: every peer scored identically. Accept a
            # record that matches them, reject only a strictly lower one.
            return record.acc >= mean
        return record.acc > lower_band(mean, std, num, config.honest_confidence)

    if pool < config.min_cohort or pool < 2:
        return True
    mean, std = ledger.pool_stats()
    return record.acc > upper_band(mean, std, pool, config.malicious_confidence)


def detection_metrics(ledger: DetectionLedger, malicious_ids, n_clients: int):
    """(true detection rate, false positive rate): the fraction of truly
    malicious clients ever rejected, and of honest clients ever rejected."""
    malicious_ids = set(malicious_ids)
    honest_total = n_clients - len(malicious_ids)
    rejected = {record.client_id for record, accepted in ledger.history if not accepted}
    caught = len(rejected & malicious_ids)
    falsely = len(rejected - malicious_ids)
    d_t = caught / len(malicious_ids) if malicious_ids else 0.0
    d_f = falsely / honest_total if honest_total else 0.0
    return d_t, d_f


def upload_shares(ledger: DetectionLedger, malicious_ids):
    """(malicious uploads rejected, honest uploads rejected, tampered uploads
    aggregated), each a share of the ledger's records of that kind, or None
    when it holds none. Every malicious client embeds a tampered slice, so
    its accepted records are the tampered uploads the aggregate took in.
    Unlike `detection_metrics`, a client rejected once and accepted later
    counts every upload."""
    malicious_ids = set(malicious_ids)
    tampered = [accepted for record, accepted in ledger.history if record.client_id in malicious_ids]
    honest = [accepted for record, accepted in ledger.history if record.client_id not in malicious_ids]

    def share(flags, value):
        return flags.count(value) / len(flags) if flags else None

    return share(tampered, False), share(honest, False), share(tampered, True)
