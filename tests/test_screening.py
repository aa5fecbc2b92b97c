"""Property tests of round screening: `DetectionLedger.screen_round` decides
each record against the ledger and the round's other records, so the
verdicts cannot depend on the order the records arrive in, and in the
honest-cohort phase a record's own accuracy can only help it."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fedmark import detection  # noqa: E402
from fedmark.config import RunConfig  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
CONFIG = RunConfig()


@st.composite
def rounds(draw, phase):
    """(honest, pool, records): the accepted (embedding count, acc) pairs and
    the rejected accs of a ledger in `phase`, and one round's records. The
    accuracies come from a palette of at most four values, so ties and
    zero-std cohorts are common."""
    accs = st.sampled_from(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    honest = draw(st.lists(st.tuples(st.integers(1, 2), accs), max_size=10))
    if phase == 1:
        pool_size = st.integers(0, CONFIG.pool_threshold - 1)
    else:
        pool_size = st.integers(CONFIG.pool_threshold, CONFIG.pool_threshold + 6)
    size = draw(pool_size)
    pool = draw(st.lists(accs, min_size=size, max_size=size))
    peers = draw(st.lists(st.tuples(st.integers(1, 2), accs), min_size=1, max_size=10))
    records = [
        detection.DetectionRecord(round_index=2, client_id=cid, embedding_count=count, acc=acc)
        for cid, (count, acc) in enumerate(peers)
    ]
    return honest, pool, records


def screen(honest, pool, records):
    """Verdicts of `records` screened by a fresh ledger built from the draw."""
    ledger = detection.DetectionLedger()
    for count, acc in honest:
        ledger.honest.setdefault(count, []).append(
            detection.DetectionRecord(round_index=1, client_id=100, embedding_count=count, acc=acc)
        )
    ledger.malicious.extend(
        detection.DetectionRecord(round_index=1, client_id=200, embedding_count=1, acc=acc) for acc in pool
    )
    return ledger.screen_round(records, CONFIG)


@pytest.mark.parametrize("phase", [1, 2])
@PROPERTY
@given(data=st.data())
def test_permuting_a_round_permutes_its_verdicts(phase, data):
    honest, pool, records = data.draw(rounds(phase))
    order = data.draw(st.permutations(range(len(records))))
    verdicts = screen(honest, pool, records)
    assert screen(honest, pool, [records[i] for i in order]) == [verdicts[i] for i in order]


@PROPERTY
@given(data=st.data())
def test_raising_an_accuracy_never_rejects_an_accepted_record(data):
    honest, pool, records = data.draw(rounds(phase=1))
    i = data.draw(st.integers(0, len(records) - 1))
    raised = dataclasses.replace(records[i], acc=data.draw(st.floats(records[i].acc, 1.0)))
    before = screen(honest, pool, records)[i]
    after = screen(honest, pool, [*records[:i], raised, *records[i + 1 :]])[i]
    assert after or not before
