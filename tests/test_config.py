"""Config file parsing, overrides, validation, and output-dir resolution."""

import dataclasses
import struct

import pytest

from fedmark import config as config_mod
from fedmark import data
from fedmark.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_text,
    load_config,
    resolve_output_dir,
    validate_config,
)


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_load_config_round_trips_defaults(tmp_path):
    path = write(tmp_path, config_text(RunConfig()))
    assert load_config(path) == RunConfig()


def test_load_config_ignores_comments_and_blanks(tmp_path):
    path = write(tmp_path, "# a run\n\nn_clients = 8\nrounds=2\n")
    loaded = load_config(path)
    assert loaded.n_clients == 8
    assert loaded.rounds == 2


def test_load_config_parses_every_field_kind(tmp_path):
    path = write(
        tmp_path,
        "hidden_dims=32,16\ndetector=yes\nfresh_tamper=false\nlr=0.5\npartition=klabels\n",
    )
    loaded = load_config(path)
    assert loaded.hidden_dims == (32, 16)
    assert loaded.detector is True
    assert loaded.fresh_tamper is False
    assert loaded.lr == 0.5
    assert loaded.partition == "klabels"


def test_load_config_reports_line_numbers(tmp_path):
    path = write(tmp_path, "n_clients=8\nbogus_key=1\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'bogus_key'"):
        load_config(path)
    path = write(tmp_path, "rounds=ten\n")
    with pytest.raises(ConfigError, match=r":1: bad value for 'rounds'"):
        load_config(path)
    path = write(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match=r":1: expected key=value"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.cfg")


def test_bad_boolean_word(tmp_path):
    path = write(tmp_path, "detector=maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_config(path)


def test_apply_overrides():
    # 8,8 layers leave 144 representation params, too few for 20 slices of 32 bits
    merged = apply_overrides(
        RunConfig(), ["rounds=5", "hidden_dims=8,8", "detector=1", "slice_total_bits=0"]
    )
    assert merged.rounds == 5
    assert merged.hidden_dims == (8, 8)
    assert merged.detector is True
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["rounds"])


def test_validate_collects_all_problems():
    bad = dataclasses.replace(RunConfig(), n_clients=1, rounds=-2, partition="fancy")
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    message = str(err.value)
    assert "n_clients" in message and "rounds" in message and "partition" in message


def test_validate_sample_rate_interaction():
    with pytest.raises(ConfigError, match="round to at least 1"):
        validate_config(dataclasses.replace(RunConfig(), n_clients=4, sample_rate=0.1))


def test_validate_needs_a_slice_bit_per_client():
    with pytest.raises(ConfigError, match="slice_total_bits"):
        validate_config(dataclasses.replace(RunConfig(), n_clients=10, slice_total_bits=5))
    validate_config(dataclasses.replace(RunConfig(), n_clients=10, slice_total_bits=10))
    validate_config(dataclasses.replace(RunConfig(), n_clients=10, slice_total_bits=0))


def test_validate_needs_a_private_bit_per_head_layer():
    with pytest.raises(ConfigError, match="private_bits"):
        validate_config(dataclasses.replace(RunConfig(), private_bits=1, head_layers=2))
    # a one-layer representation (576 params) is too small for default slices
    no_slices = dataclasses.replace(RunConfig(), slice_total_bits=0)
    validate_config(dataclasses.replace(no_slices, private_bits=2, head_layers=2))
    validate_config(dataclasses.replace(no_slices, private_bits=0, head_layers=2))


def test_validate_layer_widths_are_positive():
    with pytest.raises(ConfigError) as err:
        validate_config(dataclasses.replace(RunConfig(), blob_dim=0, hidden_dims=(8, 0)))
    assert "blob_dim" in str(err.value) and "hidden_dims" in str(err.value)


def test_validate_region_size_fits_the_representation():
    # blob_dim 8 -> 64 -> 64 with a one-layer head: 576 + 4160 = 4736 params
    crowd = dataclasses.replace(RunConfig(), n_clients=200, slice_total_bits=2000)
    with pytest.raises(ConfigError, match="region_size .*4736"):
        validate_config(dataclasses.replace(crowd, region_size=24))
    validate_config(dataclasses.replace(crowd, region_size=23))


def test_validate_region_carries_the_largest_slice():
    # auto region 4736 // 200 = 23 params; the last slice takes 6 + 1280 % 200 = 86 bits
    with pytest.raises(ConfigError, match="slice_total_bits .*86 bits.*23 params"):
        validate_config(dataclasses.replace(RunConfig(), n_clients=200, slice_total_bits=1280))
    with pytest.raises(ConfigError, match="slice_total_bits"):
        validate_config(
            dataclasses.replace(RunConfig(), n_clients=10, slice_total_bits=640, region_size=63)
        )
    validate_config(dataclasses.replace(RunConfig(), n_clients=10, slice_total_bits=640, region_size=64))
    # hidden_dims 128,128: 1152 + 16512 = 17664 params, so 88-param regions
    validate_config(
        dataclasses.replace(RunConfig(), n_clients=200, slice_total_bits=1280, hidden_dims=(128, 128))
    )


def idx_config(tmp_path, rows, cols, magic=data.IDX_IMAGES_MAGIC, header_bytes=16, **values):
    """An idx config whose image file holds only a (possibly damaged) header."""
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", magic, 3, rows, cols)[:header_bytes])
    return dataclasses.replace(
        RunConfig(), dataset="idx", idx_images=str(images), idx_labels=str(tmp_path / "labels.idx"), **values
    )


def test_validate_sizes_an_idx_representation_from_the_image_header(tmp_path):
    # 2x2 images: 4*64+64 + 64*64+64 = 4480 params, so 22-param regions for 200 clients
    crowd = {"n_clients": 200, "slice_total_bits": 4600}  # the last slice takes 23 bits
    with pytest.raises(ConfigError, match="slice_total_bits .*23 bits.*22 params"):
        validate_config(idx_config(tmp_path, 2, 2, **crowd))
    with pytest.raises(ConfigError, match="region_size .*4480"):
        validate_config(idx_config(tmp_path, 2, 2, n_clients=200, region_size=23))
    validate_config(idx_config(tmp_path, 28, 28, **crowd))  # 54400 params, 272 per region


@pytest.mark.parametrize(
    "damage, message", [({"header_bytes": 10}, "truncated IDX header"), ({"magic": 1234}, "bad magic")]
)
def test_validate_rejects_a_bad_idx_header(tmp_path, damage, message):
    cfg = idx_config(tmp_path, 28, 28, **damage)
    with pytest.raises(ConfigError, match=f"idx_images: .*{message}"):
        validate_config(cfg)
    validate_config(dataclasses.replace(cfg, slice_total_bits=0))  # no slices, no header read


def test_validate_rejects_a_missing_idx_file(tmp_path):
    cfg = dataclasses.replace(idx_config(tmp_path, 28, 28), idx_images=str(tmp_path / "absent.idx"))
    with pytest.raises(ConfigError, match="idx_images: .*absent.idx"):
        validate_config(cfg)


def test_validate_k_labels_fit_the_blob_classes():
    with pytest.raises(ConfigError, match="k_labels"):
        validate_config(dataclasses.replace(RunConfig(), partition="klabels", k_labels=5, blob_classes=3))
    validate_config(dataclasses.replace(RunConfig(), partition="klabels", k_labels=3, blob_classes=3))


def test_validate_every_client_can_get_a_sample():
    few = dataclasses.replace(
        RunConfig(), n_clients=200, blob_samples_per_class=10, blob_classes=3, partition="klabels"
    )
    with pytest.raises(ConfigError, match="blob_samples_per_class"):
        validate_config(few)
    validate_config(dataclasses.replace(few, blob_samples_per_class=67, slice_total_bits=0))


def test_validate_detector_keys():
    with pytest.raises(ConfigError, match="honest_confidence"):
        validate_config(dataclasses.replace(RunConfig(), honest_confidence=1.0))
    with pytest.raises(ConfigError, match="pool_threshold"):
        validate_config(dataclasses.replace(RunConfig(), pool_threshold=0))


def test_config_text_round_trips_custom_values(tmp_path):
    custom = dataclasses.replace(
        RunConfig(), hidden_dims=(8,), slice_total_bits=0, detector=True, lr=0.125
    )
    path = write(tmp_path, config_text(custom))
    assert load_config(path) == custom


@pytest.mark.parametrize(
    "key, value",
    [
        ("output_dir", " run "),
        ("output_dir", "a\nb"),
        ("idx_images", "x.idx\t"),
        ("idx_labels", "a\rb"),
        ("dataset", " blobs"),
        ("partition", "klabels\x0b"),
    ],
)
def test_validate_rejects_strings_that_config_text_cannot_round_trip(key, value):
    """config.txt holds one key=value per line and its reader strips each
    value, so an edge space would be lost and a line break would split the
    line."""
    with pytest.raises(ConfigError, match=f"{key} must not start or end with whitespace"):
        validate_config(dataclasses.replace(RunConfig(), **{key: value}))


def test_resolve_output_dir(monkeypatch, tmp_path):
    cfg = dataclasses.replace(RunConfig(), output_dir="runs/a")
    monkeypatch.delenv(config_mod.OUTPUT_ROOT_ENV, raising=False)
    assert resolve_output_dir(cfg) == "runs/a"
    monkeypatch.setenv(config_mod.OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_output_dir(cfg) == str(tmp_path / "runs/a")
    absolute = dataclasses.replace(RunConfig(), output_dir="/fixed/place")
    assert resolve_output_dir(absolute) == "/fixed/place"
