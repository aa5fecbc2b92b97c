"""Upload screening: normal quantiles, cohort statistics, the two-phase
accept/reject rule, and detection metrics."""

import math
import statistics

import pytest

from conftest import quantile_by_bisection
from fedmark import detection
from fedmark.config import RunConfig


def record(acc, client_id=0, round_index=1, embedding_count=1):
    return detection.DetectionRecord(
        round_index=round_index, client_id=client_id, embedding_count=embedding_count, acc=acc
    )


def ledger_with(honest=(), malicious=()):
    ledger = detection.DetectionLedger()
    for rec in honest:
        ledger.honest.setdefault(rec.embedding_count, []).append(rec)
    ledger.malicious.extend(malicious)
    return ledger


# --- normal quantile ------------------------------------------------------------


def test_quantile_median_is_zero():
    assert detection.inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_reference_points():
    assert detection.inverse_normal_cdf(0.975) == pytest.approx(1.95996, abs=1e-4)
    # the 0.841345 confidence level sits at one standard deviation
    assert detection.inverse_normal_cdf(0.841345) == pytest.approx(1.0, abs=1e-4)


def test_quantile_matches_bisection_oracle():
    """Independent oracle: bisect the erf-based CDF to 1e-13."""
    for c in (0.51, 0.7, 0.9, 0.975, 0.999):
        assert detection.inverse_normal_cdf(c) == pytest.approx(
            quantile_by_bisection(c), abs=1e-9
        )


def test_quantile_rejects_out_of_range():
    for c in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            detection.inverse_normal_cdf(c)


def test_band_arithmetic():
    # lower: 0.98 - 1.95996 * 0.02 / sqrt(16), the worked screening example
    assert detection.lower_band(0.98, 0.02, 16, 0.975) == pytest.approx(0.9702, abs=1e-4)
    # upper at confidence 0.5 collapses onto the mean exactly
    assert detection.upper_band(0.80, 0.04, 25, 0.5) == pytest.approx(0.80, abs=1e-12)


# --- cohort statistics ----------------------------------------------------------


def test_cohort_stats_worked_example():
    ledger = ledger_with(honest=[record(0.96), record(0.98), record(1.00)])
    mean, std, num = detection.cohort_stats(ledger, embedding_count=1)
    assert mean == pytest.approx(0.98, abs=1e-12)
    assert std == pytest.approx(0.02, abs=1e-12)
    assert num == 3


def test_cohort_stats_empty_and_singleton():
    mean, std, num = detection.cohort_stats(detection.DetectionLedger(), embedding_count=1)
    assert math.isnan(mean) and std is None and num == 0
    mean, std, num = detection.cohort_stats(ledger_with(honest=[record(0.9)]), embedding_count=1)
    assert mean == 0.9 and std is None and num == 1


def test_cohort_stats_counts_round_peers_and_excludes_self():
    tested = record(0.5, client_id=1)
    peer = record(0.5, client_id=2)  # equal values: exclusion must be by identity
    other = record(0.0, client_id=3, embedding_count=2)  # a peer of another count
    ledger = ledger_with(honest=[record(1.0)])
    mean, std, num = detection.cohort_stats(ledger, 1, [tested, peer, other], exclude=tested)
    assert num == 2
    assert mean == pytest.approx(0.75, abs=1e-12)


def test_cohort_stats_filters_by_embedding_count():
    ledger = ledger_with(honest=[record(0.9, embedding_count=1), record(0.1, embedding_count=2)])
    mean, _, num = detection.cohort_stats(ledger, embedding_count=2)
    assert (mean, num) == (0.1, 1)


# --- decision rule, phase 1 -----------------------------------------------------


def honest_cohort(accs, embedding_count=1):
    return [record(a, client_id=100 + i, embedding_count=embedding_count) for i, a in enumerate(accs)]


def test_phase1_worked_example():
    """Cohort mean 0.98, sample std 0.02, 16 records, confidence 0.975 →
    threshold just above 0.97: 0.95 is rejected, 0.975 is accepted."""
    accs = [0.98 + s * 0.02 * math.sqrt(15 / 16) for s in (1, -1) * 8]
    ledger = ledger_with(honest=honest_cohort(accs))
    mean, std, num = detection.cohort_stats(ledger, embedding_count=1)
    assert (mean, num) == (pytest.approx(0.98, abs=1e-12), 16)
    assert std == pytest.approx(0.02, rel=1e-12)
    config = RunConfig()
    assert not detection.decide(record(0.95), ledger, config)
    assert detection.decide(record(0.975), ledger, config)


def test_phase1_is_monotone_in_acc():
    accs = [0.9, 0.92, 0.94, 0.96, 0.98]
    ledger = ledger_with(honest=honest_cohort(accs))
    config = RunConfig()
    decisions = [detection.decide(record(a), ledger, config) for a in (0.5, 0.8, 0.9, 0.95, 1.0)]
    assert decisions == sorted(decisions)  # once accepted, higher accs stay accepted


def test_small_cohort_accepts_for_lack_of_evidence():
    config = RunConfig()
    assert detection.decide(record(0.0), detection.DetectionLedger(), config)
    ledger = ledger_with(honest=honest_cohort([1.0, 1.0]))
    assert detection.decide(record(0.0), ledger, config)


def test_degenerate_cohort_accepts_only_matching_scores():
    ledger = ledger_with(honest=honest_cohort([1.0, 1.0, 1.0, 1.0]))
    config = RunConfig()
    assert detection.decide(record(1.0), ledger, config)
    assert not detection.decide(record(0.99), ledger, config)


# --- decision rule, phase 2 -----------------------------------------------------


def malicious_pool(accs):
    return [record(a, client_id=200 + i) for i, a in enumerate(accs)]


def test_phase2_worked_example():
    """Pool mean 0.80 at confidence 0.5 (critical value 0): accept above the
    mean, reject below."""
    pool = malicious_pool([0.80 + d for d in (0.04, -0.04, 0.02, -0.02, 0.0) * 5])
    ledger = ledger_with(malicious=pool)
    assert len(ledger.malicious) == 25
    config = RunConfig()
    assert detection.decide(record(0.85), ledger, config)
    assert not detection.decide(record(0.78), ledger, config)


def test_phase_switch_at_pool_threshold():
    """With enough rejections banked, the honest cohort no longer matters."""
    config = RunConfig()
    honest = honest_cohort([1.0, 1.0, 1.0, 1.0])
    below_threshold = ledger_with(honest=honest, malicious=malicious_pool([0.5, 0.52, 0.48, 0.5]))
    assert not detection.decide(record(0.55), below_threshold, config)  # phase 1: far below cohort
    at_threshold = ledger_with(honest=honest, malicious=malicious_pool([0.5, 0.52, 0.48, 0.5, 0.5]))
    assert detection.decide(record(0.55), at_threshold, config)  # phase 2: above pool mean


def test_phase2_verdicts_follow_a_growing_pool():
    """The ledger memoizes the rejected pool's stats; as the pool grows,
    every verdict must equal one decided against a fresh ledger."""
    config = RunConfig()
    ledger = ledger_with(malicious=malicious_pool([0.5, 0.52, 0.48, 0.5, 0.5]))
    probes = [0.45, 0.49, 0.5, 0.505, 0.55, 0.6]
    seen = set()
    for extra in ([], [0.9], [0.1, 0.95], [0.6, 0.6, 0.6], [0.3, 0.7, 0.52]):
        ledger.malicious.extend(malicious_pool(extra))
        fresh = ledger_with(malicious=list(ledger.malicious))
        accs = [r.acc for r in ledger.malicious]
        verdicts = tuple(detection.decide(record(a), ledger, config) for a in probes)
        assert verdicts == tuple(detection.decide(record(a), fresh, config) for a in probes)
        assert ledger.pool_stats() == (statistics.fmean(accs), statistics.stdev(accs))
        seen.add(verdicts)
    assert len(seen) > 1  # the pool's growth moved the band


# --- ledger bookkeeping ---------------------------------------------------------


def test_round_lifecycle_and_routing():
    """One call decides a round against the ledger and the round's peers,
    then banks each record as accepted or rejected."""
    cohort = honest_cohort([1.0, 1.0, 1.0, 1.0])
    ledger = ledger_with(honest=cohort)
    good, bad = record(1.0, client_id=1), record(0.2, client_id=2)
    assert ledger.screen_round([good, bad], RunConfig()) == [True, False]
    assert ledger.honest[1] == [*cohort, good]
    assert ledger.malicious == [bad]
    assert ledger.history == [(good, True), (bad, False)]
    assert ledger.screen_round([], RunConfig()) == []


def test_record_validation():
    with pytest.raises(ValueError):
        record(1.5)
    with pytest.raises(ValueError):
        record(0.5, embedding_count=0)


# --- metrics and export ---------------------------------------------------------


def test_detection_metrics_perfect_split():
    ledger = detection.DetectionLedger()
    ledger.history = [
        (record(0.5, client_id=0), False),
        (record(1.0, client_id=1), True),
        (record(1.0, client_id=2), True),
    ]
    d_t, d_f = detection.detection_metrics(ledger, malicious_ids={0}, n_clients=4)
    assert (d_t, d_f) == (1.0, 0.0)


def test_detection_metrics_counts_clients_once():
    ledger = detection.DetectionLedger()
    ledger.history = [
        (record(0.5, client_id=0, round_index=1), False),
        (record(0.5, client_id=0, round_index=2), False),
        (record(0.9, client_id=1), False),
    ]
    d_t, d_f = detection.detection_metrics(ledger, malicious_ids={0, 2}, n_clients=4)
    assert d_t == 0.5  # client 2 was never rejected
    assert d_f == 0.5  # honest client 1 rejected once, out of 2 honest


def test_detection_metrics_empty_ledger():
    assert detection.detection_metrics(detection.DetectionLedger(), set(), 4) == (0.0, 0.0)
    assert detection.detection_metrics(detection.DetectionLedger(), {1}, 4) == (0.0, 0.0)


def test_upload_shares_count_every_upload():
    """Client 0 is rejected once and then accepted twice: per client it was
    caught, per upload two of its three tampered uploads were aggregated."""
    ledger = detection.DetectionLedger()
    ledger.history = [
        (record(0.5, client_id=0, round_index=1), False),
        (record(0.9, client_id=0, round_index=2), True),
        (record(0.9, client_id=0, round_index=3), True),
        (record(1.0, client_id=1, round_index=1), True),
        (record(0.8, client_id=2, round_index=1), False),
        (record(1.0, client_id=2, round_index=2), True),
        (record(1.0, client_id=2, round_index=3), True),
    ]
    assert detection.detection_metrics(ledger, {0}, n_clients=3)[0] == 1.0
    assert detection.upload_shares(ledger, {0}) == (1 / 3, 1 / 4, 2 / 3)


def test_upload_shares_are_none_without_uploads_of_a_kind():
    assert detection.upload_shares(detection.DetectionLedger(), {1}) == (None, None, None)
    ledger = detection.DetectionLedger()
    ledger.history = [(record(1.0, client_id=1), True)]
    assert detection.upload_shares(ledger, set()) == (None, 0.0, None)


def test_export_ledger_csv(tmp_path):
    ledger = detection.DetectionLedger()
    ledger.history = [(record(1.0, client_id=3, round_index=2), True), (record(0.25, client_id=1), False)]
    path = tmp_path / "ledger.csv"
    detection.export_ledger_csv(ledger, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,client,embedding_count,acc,decision"
    assert lines[1] == "2,3,1,1.000000,accept"
    assert lines[2] == "1,1,1,0.250000,reject"
