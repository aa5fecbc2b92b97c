"""Release acceptance suite: one test per ship criterion, thresholds inline.

Run with ``pytest -v tests/test_acceptance.py`` and the output reads as the
sign-off checklist — one pass/fail line per criterion. Assertions carry the
measured values so a failure is diagnosable from the log alone.

Training-based criteria share two pinned configurations:

* honest run   — 10 clients, full participation, 30 rounds, 100-bit private
  watermarks on 2-label shards (reliability, slice recovery, pruning,
  fine-tuning all score this one run).
* attack runs  — 20 clients, 12 rounds, 64-bit slices, a grid of tampering
  fractions with the two-phase detector on, plus one detector-off run.

The attack runs use a stronger slice regularizer and more slice bits than the
defaults so each 64-parameter region carries a sharp signal; the honest run
raises the private embedding strength so head watermarks hold their margin
under heavy pruning.
"""

import numpy as np
import pytest

import reference
from conftest import (
    assert_grads_close,
    finite_difference_grads,
    plain_fedrep_oracle,
    tiny_config,
)
from fedmark import nn
from fedmark.attacks import attack_report, finetune_attack, prune_attack
from fedmark.cli import cmd_train, fidelity_gap_percent
from fedmark.config import RunConfig
from fedmark.detection import inverse_normal_cdf, lower_band, upper_band
from fedmark.engine import aggregate, run_training
from fedmark.slicing import extract_slice
from fedmark.watermark import (
    detection_rate,
    embedding_loss_and_grad,
    gen_embedding_matrix,
    private_detection_rate,
    split_watermark,
)

HONEST = dict(
    n_clients=10,
    sample_rate=1.0,
    rounds=30,
    private_bits=100,
    embed_strength=3.0,
    partition="klabels",
    k_labels=2,
    seed=0,
)

ATTACK_BASE = dict(
    n_clients=20,
    sample_rate=1.0,
    rounds=12,
    private_bits=100,
    slice_total_bits=1280,
    slice_strength=50.0,
    partition="klabels",
    k_labels=2,
    seed=0,
)


@pytest.fixture(scope="module")
def honest_result():
    return run_training(RunConfig(**HONEST))


def mean_personal_accuracy(result) -> float:
    return float(np.mean([nn.evaluate_accuracy(result.model(client), client.data) for client in result.clients]))


def test_01_formula_units_match_hand_values():
    """Split sizing, upload averaging, detection accuracy, and both decision
    bands reproduce hand-computed examples at 1e-12 (1e-4 where the hand
    value itself uses a rounded normal quantile)."""
    # proportional split across layers, floor rule, order preserved
    bits = (np.arange(100) % 2).astype(np.uint8)
    segments = split_watermark(bits, [100, 300])
    assert [len(s) for s in segments] == [25, 75]
    np.testing.assert_array_equal(np.concatenate(segments), bits)
    halves = split_watermark(np.ones(50, dtype=np.uint8), [64, 64])
    assert [len(s) for s in halves] == [25, 25]

    # aggregation is the element-wise mean of accepted uploads
    merged = aggregate([np.array([1.0, 3.0]), np.array([3.0, 5.0])])
    np.testing.assert_allclose(merged, [2.0, 4.0], atol=1e-12)
    single = np.array([0.5, -2.0])
    np.testing.assert_allclose(aggregate([single]), single, atol=1e-12)
    np.testing.assert_allclose(aggregate([single, single, single]), single, atol=1e-12)

    # detection accuracy = 1 - normalized Hamming distance
    expected = np.zeros(50, dtype=np.uint8)
    flipped = expected.copy()
    flipped[:5] ^= 1
    assert detection_rate(expected, expected) == pytest.approx(1.0, abs=1e-12)
    assert detection_rate(np.ones(4, np.uint8), np.zeros(4, np.uint8)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert detection_rate(expected, flipped) == pytest.approx(0.9, abs=1e-12)

    # early-phase lower band (hand value rounds the 0.975 quantile to 1.96)
    band = lower_band(0.98, 0.02, 16, 0.975)
    assert band == pytest.approx(0.9702, abs=1e-4)
    assert not 0.95 > band  # rejected
    assert 0.975 > band  # accepted

    # late-phase upper band: the median quantile adds nothing to the mean
    assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)
    band = upper_band(0.80, 0.04, 25, 0.5)
    assert band == pytest.approx(0.80, abs=1e-12)
    assert 0.85 > band  # accepted
    assert not 0.78 > band  # rejected


def test_02_gradients_match_finite_differences():
    """Analytic gradients of the embedding regularizer and the main-task loss
    agree with a central-difference oracle (rel. error <= 1e-4) on 50 random
    small instances (25 of each). The oracle differentiates the losses of
    `tests/reference.py`, which are written apart from the kernels."""
    rng = np.random.default_rng(2024)

    for _ in range(25):
        rows = int(rng.integers(3, 30))
        cols = int(rng.integers(1, 12))
        params = rng.standard_normal(rows)
        matrix = gen_embedding_matrix(rows, cols, seed=int(rng.integers(1 << 30)))
        wm_bits = rng.integers(0, 2, cols)
        grad = embedding_loss_and_grad(params, matrix, wm_bits)
        numeric = finite_difference_grads(lambda p: reference.embedding_bce(p, matrix, wm_bits), params)
        assert_grads_close(grad, numeric)

    # The network loss is only piecewise smooth: instances where some hidden
    # pre-activation sits on a relu kink are redrawn, and biases are jittered
    # off their zero init for the same reason.
    checked = 0
    while checked < 25:
        n_layers = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 9)) for _ in range(n_layers + 1)]
        specs = [
            nn.LayerSpec(dims[i], dims[i + 1], "relu" if i < n_layers - 1 else "softmax")
            for i in range(n_layers)
        ]
        model = nn.init_model(specs, seed=int(rng.integers(1 << 30)))
        for bias in model.biases:
            bias += 0.1 * rng.standard_normal(bias.shape)
        batch = nn.Batch(rng.standard_normal((5, dims[0])), rng.integers(0, dims[-1], 5))
        _, cache = nn.forward(model, batch.inputs)
        if min(np.abs(z).min() for _, z in cache[:-1]) < 1e-3:
            continue
        checked += 1
        analytic = nn.main_task_loss_and_grads(model, batch)

        def loss_at(flat, model=model, batch=batch):
            probe = model.copy()
            probe.params[:] = flat
            return reference.cross_entropy(probe, batch)

        numeric = finite_difference_grads(loss_at, model.params)
        assert_grads_close(analytic, numeric)


def test_03_private_watermarks_reliable_and_unique(honest_result):
    """After the honest run every client fully recovers its own head
    watermark (rate 1.0), and no client's key reads another's model at better
    than own rate minus 0.2."""
    clients = honest_result.clients
    models = [honest_result.model(client) for client in clients]
    n = len(clients)
    rates = np.empty((n, n))
    for i, client in enumerate(clients):
        for j, model in enumerate(models):
            rates[i, j] = private_detection_rate(model, client.private)
    own = np.diag(rates)
    assert own.min() == 1.0, f"own-watermark rates: {own.tolist()}"
    for i in range(n):
        off_diag = np.delete(rates[i], i)
        worst = float(off_diag.max())
        assert worst <= own[i] - 0.2, (
            f"client {i}'s watermark reads a foreign model at {worst:.2f} "
            f"(own rate {own[i]:.2f})"
        )


def test_04_slice_recovery_and_disjoint_regions(honest_result):
    """The server recovers every slice of its common watermark from the final
    shared representation (rate >= 0.95, concatenation included), and slice
    regions never overlap."""
    rep = honest_result.server.rep_flat
    assignments = sorted(honest_result.server.assignments, key=lambda a: a.client_id)
    assert len(assignments) == len(honest_result.clients)

    rates = [detection_rate(a.bits, extract_slice(rep, a)) for a in assignments]
    assert min(rates) >= 0.95, f"worst per-slice recovery: {min(rates):.3f}"

    recovered = np.concatenate([extract_slice(rep, a) for a in assignments])
    common = np.concatenate([a.bits for a in honest_result.server.assignments])
    full = detection_rate(common, recovered)
    assert full >= 0.95, f"full-watermark recovery: {full:.3f}"

    covered = set()
    for a in assignments:
        span = set(range(a.region_start, a.region_stop))
        overlap = covered & span
        assert not overlap, f"client {a.client_id}'s region overlaps {sorted(overlap)[:5]}"
        covered |= span


def test_05_fidelity_gap_small_across_bit_widths(honest_result):
    """Mean personalized accuracy with 50/100/150-bit private watermarks stays
    within 5% (relative) of the fully watermark-free baseline."""

    def accuracy_for(bit_count: int) -> float:
        if bit_count == HONEST["private_bits"]:
            return mean_personal_accuracy(honest_result)
        overrides = dict(HONEST, private_bits=bit_count)
        if bit_count == 0:
            overrides["slice_total_bits"] = 0  # baseline: no watermarks at all
        return mean_personal_accuracy(run_training(RunConfig(**overrides)))

    baseline = accuracy_for(0)
    for bit_count in (50, 100, 150):
        gap = fidelity_gap_percent(baseline, accuracy_for(bit_count))
        assert gap <= 5.0, f"{bit_count}-bit fidelity gap {gap:.3f}% exceeds 5%"


def test_06_detector_grid_catches_tampering():
    """Across the tampering grid (malicious fraction x tamper rate), the
    two-phase detector flags >= 90% of malicious clients with <= 5% false
    positives, honest slices always beat malicious slices on the final
    representation, and the honest/malicious margin widens with more
    attackers."""
    check_detector_grid(seed=ATTACK_BASE["seed"])


def check_detector_grid(seed: int) -> None:
    """Criterion 6 on the attack runs of one seed."""
    deltas = {}
    for malicious_fraction in (0.2, 0.4):
        for tamper_rate in (0.1, 0.3):
            config = RunConfig(
                **dict(ATTACK_BASE, seed=seed),
                detector=True,
                malicious_fraction=malicious_fraction,
                tamper_rate=tamper_rate,
            )
            result = run_training(config)
            report = attack_report(
                result.server.rep_flat,
                result.server.assignments,
                result.malicious_ids,
                result.server.ledger,
            )
            cell = f"(seed={seed}, f_m={malicious_fraction}, f_t={tamper_rate})"
            assert report.true_detection >= 0.9, (
                f"{cell}: true detection {report.true_detection:.2f}"
            )
            assert report.false_positive <= 0.05, (
                f"{cell}: false positives {report.false_positive:.2f}"
            )
            assert report.delta is not None and report.delta > 0, (
                f"{cell}: honest-minus-malicious slice margin {report.delta}"
            )
            deltas[(malicious_fraction, tamper_rate)] = report.delta
    for tamper_rate in (0.1, 0.3):
        low, high = deltas[(0.2, tamper_rate)], deltas[(0.4, tamper_rate)]
        assert high > low, (
            f"margin should widen with more attackers at f_t={tamper_rate}: "
            f"{low:.2f} (f_m=0.2) vs {high:.2f} (f_m=0.4)"
        )


def test_07_tampering_dilutes_slices_when_detector_off():
    """With the detector disabled, tampered uploads poison the aggregate:
    from round 6 on, the malicious clients' per-round slice accuracy never
    beats the honest mean by more than 0.02."""
    config = RunConfig(
        **ATTACK_BASE, detector=False, malicious_fraction=0.2, tamper_rate=0.1
    )
    result = run_training(config)
    malicious = result.malicious_ids
    assert malicious, "attack config produced no malicious clients"
    for report in result.reports:
        if report.round_index <= 5:
            continue
        mal = float(np.mean([u.slice_acc for u in report.uploads if u.client_id in malicious]))
        hon = float(np.mean([u.slice_acc for u in report.uploads if u.client_id not in malicious]))
        assert mal <= hon + 0.02, (
            f"round {report.round_index}: malicious slice accuracy {mal:.4f} "
            f"exceeds honest {hon:.4f} + 0.02"
        )


def test_08_private_watermarks_survive_pruning(honest_result):
    """Magnitude-pruning the personalized heads: detection stays >= 0.95 at
    rate 0.7 and never rises by more than noise (0.05) as pruning deepens."""
    pairs = [(honest_result.model(client), client) for client in honest_result.clients]
    mean_rate = {}
    for rate in [round(0.1 * k, 1) for k in range(1, 10)]:
        mean_rate[rate] = float(
            np.mean(
                [
                    private_detection_rate(prune_attack(model, rate), client.private)
                    for model, client in pairs
                ]
            )
        )
    assert mean_rate[0.7] >= 0.95, f"detection at prune rate 0.7: {mean_rate[0.7]:.3f}"
    curve = [mean_rate[r] for r in sorted(mean_rate)]
    for earlier, later in zip(curve, curve[1:]):
        assert later <= earlier + 0.05, f"detection rose beyond noise: {mean_rate}"


def test_09_private_watermarks_survive_finetuning(honest_result):
    """25 rounds of main-task-only fine-tuning on each client's own shard
    leaves every head watermark detectable at >= 0.75."""
    for client in honest_result.clients:
        tuned = finetune_attack(honest_result.model(client), client.data, rounds=25, lr=0.01, seed=client.client_id)
        rate = private_detection_rate(tuned, client.private)
        assert rate >= 0.75, f"client {client.client_id}: rate {rate:.3f} after fine-tuning"


def test_10_deterministic_artifacts_and_clean_decoupling(tmp_path):
    """Identical configs write byte-identical artifacts, and disabling every
    watermark term reproduces an independent plain-FedRep reference trace
    bit for bit."""
    out = tmp_path / "run"
    config = tiny_config(output_dir=str(out))
    assert cmd_train(config) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "rounds.csv" in first and "final_metrics.csv" in first
    assert cmd_train(config) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == sorted(second)
    for name, payload in first.items():
        assert payload == second[name], f"{name} differs between identical runs"

    plain = tiny_config(private_bits=0, slice_total_bits=0)
    result = run_training(plain)
    oracle_rep, oracle_heads = plain_fedrep_oracle(plain)
    np.testing.assert_array_equal(result.server.rep_flat, oracle_rep)
    for client, head in zip(result.clients, oracle_heads):
        np.testing.assert_array_equal(client.head, head)
    assert result.server.assignments == ()


# --- seed robustness (opt-in: pytest -m slow) ----------------------------------

OTHER_SEEDS = (1, 2, 3, 4)


@pytest.mark.slow
@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_honest_run_criteria_hold_on_other_seeds(seed):
    """Criteria 3, 4 and 8 on the honest run of seeds 1-4, thresholds as
    above: they must not hold for seed 0 alone."""
    result = run_training(RunConfig(**dict(HONEST, seed=seed)))
    test_03_private_watermarks_reliable_and_unique(result)
    test_04_slice_recovery_and_disjoint_regions(result)
    test_08_private_watermarks_survive_pruning(result)


@pytest.mark.slow
@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_detector_grid_holds_on_other_seeds(seed):
    """Criterion 6 on the attack runs of seeds 1-4."""
    check_detector_grid(seed)
