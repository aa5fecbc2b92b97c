"""Tampering, pruning, and fine-tuning attacks plus run scoring."""

import numpy as np
import pytest

from fedmark import attacks, data, nn, slicing, watermark
from fedmark.config import RunConfig
from fedmark.detection import DetectionLedger
from fedmark.seeding import STREAM_TAMPER, derive_seed


# --- bit tampering --------------------------------------------------------------


def test_tamper_flips_exact_count():
    bits = watermark.random_bits(50, seed=1)
    tampered = attacks.tamper_bits(bits, 0.1, seed=2)
    assert int((bits != tampered).sum()) == 5


def test_tamper_rate_zero_is_identity_copy():
    bits = watermark.random_bits(20, seed=1)
    out = attacks.tamper_bits(bits, 0.0, seed=2)
    np.testing.assert_array_equal(out, bits)
    assert out is not bits


def test_tamper_rate_one_is_complement():
    bits = watermark.random_bits(20, seed=1)
    np.testing.assert_array_equal(attacks.tamper_bits(bits, 1.0, seed=2), 1 - bits)


def test_tamper_flips_at_least_one_bit():
    bits = watermark.random_bits(50, seed=1)
    assert int((bits != attacks.tamper_bits(bits, 0.001, seed=3)).sum()) == 1


def test_tamper_hamming_matches_floor_rule():
    bits = watermark.random_bits(64, seed=4)
    for rate in (0.05, 0.25, 0.33, 0.8):
        flipped = int((bits != attacks.tamper_bits(bits, rate, seed=5)).sum())
        assert flipped == max(1, int(rate * 64))


def test_tamper_deterministic_and_validated():
    bits = watermark.random_bits(30, seed=6)
    np.testing.assert_array_equal(
        attacks.tamper_bits(bits, 0.3, seed=7), attacks.tamper_bits(bits, 0.3, seed=7)
    )
    with pytest.raises(ValueError):
        attacks.tamper_bits(bits, 1.5, seed=0)


# --- malicious client selection -------------------------------------------------


def test_choose_tamperers_flags_floor_fraction():
    flagged = attacks.choose_tamperers(20, 0.2, seed=1)
    assert len(flagged) == 4


def test_choose_tamperers_zero_fraction_flags_none():
    assert not attacks.choose_tamperers(10, 0.0, seed=1)


def test_choose_tamperers_deterministic():
    a = attacks.choose_tamperers(12, 0.25, seed=9)
    b = attacks.choose_tamperers(12, 0.25, seed=9)
    assert a == b


def test_choose_tamperers_draws_are_pinned():
    """Pinned `default_rng(seed).choice` draws: a seed fixes a run's attackers."""
    assert attacks.choose_tamperers(20, 0.2, seed=1) == frozenset({8, 9, 14, 19})
    assert attacks.choose_tamperers(12, 0.25, seed=9) == frozenset({4, 9, 11})


def test_choose_tamperers_validates_fraction():
    for fraction in (-0.1, 1.5):
        with pytest.raises(ValueError, match="malicious_fraction"):
            attacks.choose_tamperers(10, fraction, seed=0)


# --- per-round tampered slice ---------------------------------------------------


def test_tampered_slice_keys_each_round_under_fresh_tamper():
    """fresh_tamper draws a tamperer's flips from (seed, STREAM_TAMPER, id,
    round); without it, from (seed, STREAM_TAMPER, id), the same every round.
    One `tampered_slices` call serves a round's tamperers."""
    slices = {5: watermark.random_bits(40, seed=2), 11: watermark.random_bits(40, seed=4)}
    fresh = RunConfig(seed=3, tamper_rate=0.25, fresh_tamper=True)
    fixed = RunConfig(seed=3, tamper_rate=0.25, fresh_tamper=False)
    for round_index in (1, 2, 7):
        for config, key in ((fresh, (round_index,)), (fixed, ())):
            tampered = attacks.tampered_slices(slices, config, round_index)
            assert list(tampered) == [5, 11]
            for cid, bits in slices.items():
                np.testing.assert_array_equal(
                    tampered[cid], attacks.tamper_bits(bits, 0.25, derive_seed(3, STREAM_TAMPER, cid, *key))
                )
    rounds = [attacks.tampered_slices(slices, fresh, r)[5] for r in (1, 2)]
    assert not np.array_equal(*rounds)
    assert attacks.tampered_slices({}, fresh, 1) == {}


# --- pruning --------------------------------------------------------------------


def head_100_model():
    """Head layer holding exactly 100 parameters (9x10 weights + 10 biases)."""
    specs = [nn.LayerSpec(4, 9, "relu"), nn.LayerSpec(9, 10, "softmax")]
    model = nn.init_model(specs, seed=3)
    model.biases[1][...] += 0.05  # no pre-existing zeros in the head
    return model


def test_prune_zero_rate_is_identity():
    model = head_100_model()
    pruned = attacks.prune_attack(model, 0.0)
    np.testing.assert_array_equal(pruned.params, model.params)


def test_prune_zeroes_exact_count_in_head_only():
    model = head_100_model()
    pruned = attacks.prune_attack(model, 0.5)
    head = pruned.layer_flat(1)
    assert int((head == 0.0).sum()) == 50
    np.testing.assert_array_equal(pruned.layer_flat(0), model.layer_flat(0))
    # the survivors are the largest-magnitude half
    original = model.layer_flat(1)
    assert np.abs(original[head != 0]).min() >= np.abs(original[head == 0]).max()


def test_prune_is_idempotent():
    model = head_100_model()
    once = attacks.prune_attack(model, 0.3)
    twice = attacks.prune_attack(once, 0.3)
    np.testing.assert_array_equal(twice.params, once.params)


def test_prune_validates_rate():
    with pytest.raises(ValueError):
        attacks.prune_attack(head_100_model(), 1.2)


# --- fine-tuning ----------------------------------------------------------------


def finetune_setup():
    ds = data.gen_synthetic_blobs(3, 4, 30, 0.5, seed=2)
    specs = [nn.LayerSpec(4, 8, "relu"), nn.LayerSpec(8, 3, "softmax")]
    return ds, nn.init_model(specs, seed=4)


def test_finetune_zero_lr_is_fixed_point():
    ds, model = finetune_setup()
    tuned = attacks.finetune_attack(model, ds, rounds=3, lr=0.0)
    np.testing.assert_array_equal(tuned.params, model.params)


def test_finetune_trains_and_is_deterministic():
    ds, model = finetune_setup()
    a = attacks.finetune_attack(model, ds, rounds=5, lr=0.05, seed=1)
    b = attacks.finetune_attack(model, ds, rounds=5, lr=0.05, seed=1)
    np.testing.assert_array_equal(a.params, b.params)
    assert not np.array_equal(a.params, model.params)
    assert nn.evaluate_accuracy(a, ds) > nn.evaluate_accuracy(model, ds)


def test_finetune_rejects_zero_rounds():
    ds, model = finetune_setup()
    with pytest.raises(ValueError):
        attacks.finetune_attack(model, ds, rounds=0, lr=0.01)


def test_finetune_rejects_labels_beyond_the_output_before_any_step(monkeypatch):
    ds, model = finetune_setup()  # three classes, three outputs
    steps = []

    def record(model, batch):
        steps.append(len(batch.labels))
        return np.zeros_like(model.params)

    monkeypatch.setattr(nn, "main_task_loss_and_grads", record)
    wide = data.gen_synthetic_blobs(4, 4, 30, 0.5, seed=2)
    with pytest.raises(ValueError, match="labels"):
        attacks.finetune_attack(model, wide, rounds=1, lr=0.05)
    assert steps == []
    attacks.finetune_attack(model, ds, rounds=1, lr=0.05)
    assert sum(steps) == len(ds)


# --- run scoring ----------------------------------------------------------------


def perfect_slice_rep(n_clients, region_size, seed=0):
    """Representation where every 1-bit slice extracts exactly: each region is
    its matrix column scaled by the bit's sign."""
    bits = watermark.random_bits(n_clients, seed=seed)
    assignments = slicing.assign_slices(bits, n_clients, n_clients * region_size, region_size, seed=seed)
    rep = np.zeros(n_clients * region_size)
    for a in assignments:
        column = a.matrix()[:, 0]
        rep[a.region_start : a.region_stop] = column * (1.0 if a.bits[0] else -1.0)
    return rep, assignments


def test_attack_report_all_honest_perfect():
    rep, assignments = perfect_slice_rep(n_clients=4, region_size=8)
    report = attacks.attack_report(rep, assignments, set(), DetectionLedger())
    assert report.honest_rate == 100.0
    assert report.malicious_rate is None
    assert report.delta is None
    assert (report.true_detection, report.false_positive) == (0.0, 0.0)


def test_attack_report_splits_by_role():
    rep, assignments = perfect_slice_rep(n_clients=4, region_size=8)
    # wreck client 3's region so its slice reads the wrong bit
    rep[assignments[3].region_start : assignments[3].region_stop] *= -1.0
    report = attacks.attack_report(rep, assignments, {3}, DetectionLedger())
    assert report.honest_rate == 100.0
    assert report.malicious_rate == 0.0
    assert report.delta == 100.0
