"""Config file parsing, overrides, validation, and output-dir resolution."""

import dataclasses
import re
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


def test_load_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"rounds=2\nn_clients=\xff\n")
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}: 'utf-8' codec")):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.cfg")


def test_load_config_rejects_a_key_set_twice(tmp_path):
    path = write(tmp_path, "rounds=5\nn_clients=8\n\nrounds=1\n")
    with pytest.raises(ConfigError, match=r":4: 'rounds' is set again, first on line 1"):
        load_config(path)
    path = write(tmp_path, "rounds=5\nn_clients=8\n")
    assert load_config(path, ["rounds=1"]).rounds == 1  # a flag still replaces a file value


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
    # two bits over head layers of 192 and 260 params split as [0, 2]
    narrow = dataclasses.replace(no_slices, hidden_dims=(2, 64), private_bits=2, head_layers=2)
    with pytest.raises(ConfigError, match=r"private_bits \(2\).*\[0, 2\]"):
        validate_config(narrow)
    validate_config(dataclasses.replace(narrow, private_bits=3))  # split as [1, 2]
    validate_config(dataclasses.replace(narrow, head_layers=1))


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
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 2) + bytes(range(2)))
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
    with pytest.raises(ConfigError, match=f"idx_images: .*{message}"):
        validate_config(dataclasses.replace(cfg, slice_total_bits=0))  # read without slices too


@pytest.mark.parametrize("slice_total_bits", [0, 64])
def test_validate_rejects_idx_images_without_pixels(tmp_path, slice_total_bits):
    """Images of 0x28 pixels leave the model no input: validation names
    idx_images, with slices or without, before any layer is built."""
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 3) + bytes(range(3)))
    cfg = idx_config(tmp_path, 0, 28, slice_total_bits=slice_total_bits)
    with pytest.raises(ConfigError, match="idx_images: .*0x28 pixels"):
        validate_config(cfg)


def test_validate_reads_an_idx_class_count_from_the_label_file(tmp_path):
    """Over a (2, 64) head, two private bits split as [1, 1] with 2 classes
    (head layers of 192 and 130 params) and as [0, 2] with 10 (192 and 650);
    the label file decides which, and a missing one is named."""
    cfg = idx_config(tmp_path, 2, 2, hidden_dims=(2, 64), head_layers=2, private_bits=2, slice_total_bits=0)
    with pytest.raises(ConfigError, match="idx_labels: .*labels.idx"):
        validate_config(cfg)
    labels = tmp_path / "labels.idx"
    labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 2) + bytes(range(2)))
    validate_config(cfg)
    labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 10) + bytes(range(10)))
    with pytest.raises(ConfigError, match=r"private_bits .*\[0, 2\]"):
        validate_config(cfg)


def test_validate_bounds_idx_k_labels_by_the_distinct_labels(tmp_path, monkeypatch):
    """Under klabels an idx run's k_labels may not exceed the distinct labels
    of its label file (here 0, 5 and 9: three, not max + 1 = 10), the bound
    that `partition_k_labels` applies after loading. One read of the label
    file serves this check and the head split."""
    cfg = idx_config(tmp_path, 28, 28, partition="klabels", k_labels=4)
    labels = tmp_path / "labels.idx"
    labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 6) + bytes([0, 5, 9, 9, 5, 0]))
    with pytest.raises(ConfigError, match=r"k_labels \(4\) exceeds the 3 distinct labels"):
        validate_config(cfg)
    reads = []
    monkeypatch.setattr(config_mod, "read_idx", lambda *args, **kw: reads.append(args[0]) or data.read_idx(*args, **kw))
    validate_config(dataclasses.replace(cfg, k_labels=3, hidden_dims=(8, 8), head_layers=2, private_bits=20))
    assert reads.count(str(labels)) == 1
    validate_config(dataclasses.replace(cfg, partition="dirichlet"))  # dirichlet reads no k_labels
    labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 0))
    with pytest.raises(ConfigError, match="idx_labels: .*holds no label"):
        validate_config(dataclasses.replace(cfg, k_labels=1))


def test_validate_rejects_a_missing_idx_file(tmp_path):
    cfg = dataclasses.replace(idx_config(tmp_path, 28, 28), idx_images=str(tmp_path / "absent.idx"))
    with pytest.raises(ConfigError, match="idx_images: .*absent.idx"):
        validate_config(cfg)


def test_validate_reads_both_idx_files_of_any_idx_config(tmp_path):
    """A config that needs neither file's contents (no slices, a one-layer
    head, dirichlet) still fails validation when either file is missing,
    naming its key, not with a bare file error at load time."""
    cfg = idx_config(tmp_path, 28, 28, slice_total_bits=0, head_layers=1, partition="dirichlet")
    with pytest.raises(ConfigError, match="idx_labels: .*labels.idx"):
        validate_config(cfg)
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 2) + bytes(range(2)))
    validate_config(cfg)
    with pytest.raises(ConfigError, match="idx_images: .*nope.idx"):
        validate_config(dataclasses.replace(cfg, idx_images=str(tmp_path / "nope.idx")))


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


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("detector", "false", "a bool"),
        ("hidden_dims", [8, 8], "a non-empty tuple of ints"),
        ("rounds", 2.0, "an int"),
        ("n_clients", True, "an int"),
    ],
)
def test_validate_rejects_a_value_of_the_wrong_type(key, value, kind):
    """A config built in code can hold a value that config.txt cannot write
    back, or that training cannot use: it fails before training, naming the
    key and the type its default has."""
    with pytest.raises(ConfigError, match=rf"^{key} must be {kind}, got {re.escape(repr(value))}$"):
        validate_config(dataclasses.replace(RunConfig(), **{key: value}))


@pytest.mark.parametrize(
    "override",
    [
        "lr=nan",
        "lr=inf",
        "embed_strength=-1",
        "embed_strength=nan",
        "slice_strength=inf",
        "slice_strength=-5",
        "blob_spread=nan",
        "blob_spread=-1",
        "dirichlet_beta=nan",
        "dirichlet_beta=inf",
        "private_bits=-1",
        "slice_total_bits=-5",
    ],
)
def test_validate_rejects_non_finite_and_negative_floats(override):
    """A NaN or infinite float, or a negative watermark strength, bit count
    or blob spread, fails before training with an error that names the key."""
    key = override.partition("=")[0]
    with pytest.raises(ConfigError, match=f"{key} must be"):
        apply_overrides(RunConfig(), [override])


def test_resolve_output_dir(monkeypatch, tmp_path):
    cfg = dataclasses.replace(RunConfig(), output_dir="runs/a")
    monkeypatch.delenv(config_mod.OUTPUT_ROOT_ENV, raising=False)
    assert resolve_output_dir(cfg) == "runs/a"
    monkeypatch.setenv(config_mod.OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_output_dir(cfg) == str(tmp_path / "runs/a")
    absolute = dataclasses.replace(RunConfig(), output_dir="/fixed/place")
    assert resolve_output_dir(absolute) == "/fixed/place"
