"""Command-line workflows: artifacts, reruns, overrides, and the sweeps."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import tiny_config
from fedmark import artifacts, cli, data, engine, nn, watermark
from fedmark.config import RunConfig, config_text, load_config


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(config_text(tiny_config(output_dir=str(tmp_path / "out"))))
    return path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# --- train ----------------------------------------------------------------------


def test_train_writes_all_artifacts(tiny_cfg_file, tmp_path, capsys):
    assert cli.main(["train", str(tiny_cfg_file)]) == 0
    out = tmp_path / "out"
    for name in (
        "config.txt",
        "rounds.csv",
        "final_metrics.csv",
        "keys.json",
        "models.npz",
        "slices.manifest",
        "ledger.csv",
    ):
        assert (out / name).exists(), name
    rows = read_rows(out / "rounds.csv")
    assert rows[0] == ["round", "client", "embedding_count", "slice_acc", "accepted", "main_acc"]
    assert len(rows) == 1 + 3 * 4  # 3 rounds, 4 clients at full sampling
    metrics = read_rows(out / "final_metrics.csv")
    assert metrics[0] == ["client", "main_acc", "private_rate", "slice_acc"]
    assert len(metrics) == 5
    assert "run complete" in capsys.readouterr().out


def test_train_rerun_is_byte_identical(tiny_cfg_file, tmp_path):
    assert cli.main(["train", str(tiny_cfg_file)]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert cli.main(["train", str(tiny_cfg_file)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_train_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """Runs split into different BLAS thread counts write the same bytes.
    Shards of 200 rows through 64x64 layers are big enough for OpenBLAS to
    split the product across threads."""
    cfg = tiny_config(
        n_clients=2,
        rounds=2,
        head_epochs=1,
        blob_classes=4,
        blob_samples_per_class=100,
        hidden_dims=(64, 64),
        output_dir="run",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    digests = []
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        (work / "run.cfg").write_text(config_text(cfg))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        subprocess.run(
            [sys.executable, "-m", "fedmark.cli", "train", "run.cfg"],
            cwd=work,
            env=env,
            check=True,
            capture_output=True,
        )
        out = work / "run"
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()})
    assert "models.npz" in digests[0]
    assert digests[0] == digests[1]


def test_config_txt_is_written_as_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale, without UTF-8 mode or locale coercion, Python's
    default file encoding is ASCII. A run whose config holds a non-ASCII
    path must still write config.txt in UTF-8, the encoding `load_config`
    reads, so the file loads back equal; its ASCII lines keep their bytes."""
    cfg = tiny_config(rounds=1, idx_images="café.idx", output_dir="run")
    (tmp_path / "run.cfg").write_text(config_text(cfg), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env.pop("FEDMARK_OUTPUT_ROOT", None)
    done = subprocess.run(
        [sys.executable, "-m", "fedmark.cli", "train", "run.cfg"], cwd=tmp_path, env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr
    written = tmp_path / "run" / "config.txt"
    assert written.read_bytes() == config_text(cfg).encode("utf-8")
    assert load_config(str(written)) == cfg


def test_train_missing_config_fails_cleanly(capsys):
    assert cli.main(["train", "/nonexistent.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_reports_an_impossible_partition(tiny_cfg_file, tmp_path, capsys):
    """Each of these configs passes validation, yet its split cannot be
    drawn: ten clients over three classes at Dirichlet(0.001), six clients
    over eight samples at Dirichlet(0.001), and three clients over three
    one-sample classes, two classes each. The run ends with one error line,
    not a traceback, that names the partition and the key that sizes it."""
    tiny = ["--n_clients", "10", "--slice_total_bits", "0", "--partition", "dirichlet", "--dirichlet_beta", "0.001"]
    assert cli.main(["train", str(tiny_cfg_file), *tiny]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: partition=dirichlet") and "dirichlet_beta=0.001" in err
    assert "every client a sample" in err and err.count("\n") == 1
    for keys, named in (
        ("n_clients=6 blob_samples_per_class=2 partition=dirichlet dirichlet_beta=0.001", "dirichlet_beta"),
        ("n_clients=3 blob_classes=3 blob_samples_per_class=1 partition=klabels k_labels=2", "k_labels"),
    ):
        path = tmp_path / "split.cfg"
        path.write_text("\n".join([*keys.split(), f"output_dir={tmp_path / 'split'}"]))
        assert cli.main(["train", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: partition=") and f"{named}=" in err and err.count("\n") == 1


def record_non_finite_uploads(monkeypatch) -> list:
    """One list per run_training call the CLI makes, holding the round of
    each locally trained representation with a non-finite entry, read
    straight off client_local_update's return."""
    runs = []
    real_run, real_update = cli.run_training, engine.client_local_update

    def run(config):
        runs.append([])
        return real_run(config)

    def update(active, rep_flat, config, round_index, blocks):
        trained = real_update(active, rep_flat, config, round_index, blocks)
        runs[-1].extend(round_index for rep, _ in trained.values() if not np.isfinite(rep).all())
        return trained

    monkeypatch.setattr(cli, "run_training", run)
    monkeypatch.setattr(engine, "client_local_update", update)
    return runs


def diverged_line(run: str, rounds: list) -> str:
    return (
        f"warning: {run} diverged: {len(rounds)} uploads were rejected unscored as non-finite, "
        f"the first in round {rounds[0]}\n"
    )


DIVERGING = RunConfig(n_clients=4, lr=50.0, min_cohort=2, rounds=5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_says_that_a_run_diverged(tmp_path, monkeypatch, capsys):
    """At lr=50 the default model diverges within two rounds. Training still
    exits 0, without numpy's overflow warnings, and ends with one warning
    line naming how many uploads were rejected as non-finite and the first
    round that had one."""
    path = tmp_path / "diverging.cfg"
    path.write_text(config_text(dataclasses.replace(DIVERGING, output_dir=str(tmp_path / "out"))))
    runs = record_non_finite_uploads(monkeypatch)
    assert cli.main(["train", str(path)]) == 0
    [rounds] = runs
    assert rounds
    assert capsys.readouterr().err == diverged_line("the run", rounds)


@pytest.mark.parametrize(
    "argv, runs_named",
    [
        (["fidelity-sweep", "--bits", "100"], ["the private_bits=0 run", "the private_bits=100 run"]),
        (["attack-sweep", "--cells", "0.25,0.3"], ["the f_m=0.25 f_t=0.3 run"]),
    ],
)
def test_sweeps_say_which_runs_diverged(tmp_path, monkeypatch, capsys, argv, runs_named):
    """A sweep trains with numpy's overflow warnings off too, so each of its
    runs that diverged, and only those, ends with the train command's
    warning line, naming the run."""
    path = tmp_path / "diverging.cfg"
    path.write_text(config_text(dataclasses.replace(DIVERGING, output_dir=str(tmp_path / "out"))))
    runs = record_non_finite_uploads(monkeypatch)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert len(runs) == len(runs_named) and any(runs)
    lines = [diverged_line(run, rounds) for run, rounds in zip(runs_named, runs) if rounds]
    assert capsys.readouterr().err == "".join(lines)


def test_train_reports_config_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_clients=4\nrounds=soon\n")
    assert cli.main(["train", str(path)]) == 1
    assert ":2:" in capsys.readouterr().err


def test_train_flag_overrides(tiny_cfg_file, tmp_path):
    assert cli.main(["train", str(tiny_cfg_file), "--rounds", "1"]) == 0
    rows = read_rows(tmp_path / "out" / "rounds.csv")
    assert {row[0] for row in rows[1:]} == {"1"}


def test_train_flag_mends_a_file_value_that_fails_alone(tmp_path, capsys):
    """Flags replace the file's values before the one validation: a file
    asking for 5 labels per client over 3 blob classes trains with
    --k_labels 2, and fails without it."""
    path = tmp_path / "k5.cfg"
    path.write_text(config_text(tiny_config(k_labels=5, rounds=1, output_dir=str(tmp_path / "out"))))
    assert cli.main(["train", str(path)]) == 1
    assert "k_labels (5) exceeds blob_classes (3)" in capsys.readouterr().err
    assert cli.main(["train", str(path), "--k_labels", "2"]) == 0
    assert (tmp_path / "out" / "models.npz").exists()


def test_train_flag_mends_an_idx_k_labels_above_the_label_file(tmp_path, capsys):
    """The idx form of the same mend: the label file holds 3 distinct labels,
    the config file asks for 5 per client, and --k_labels 3 trains."""
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    pixels = np.random.default_rng(0).integers(0, 256, (60, 2, 2), dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 60, 2, 2) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 60) + bytes(i % 3 for i in range(60)))
    config = tiny_config(
        dataset="idx", idx_images=str(images), idx_labels=str(labels), k_labels=5, rounds=1,
        hidden_dims=(8, 8), private_bits=8, slice_total_bits=16, output_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "idx.cfg"
    path.write_text(config_text(config))
    assert cli.main(["train", str(path)]) == 1
    assert "k_labels (5) exceeds the 3 distinct labels" in capsys.readouterr().err
    assert cli.main(["train", str(path), "--k_labels", "3"]) == 0
    assert (tmp_path / "out" / "models.npz").exists()


def test_keys_json_lists_all_clients(tiny_cfg_file, tmp_path):
    cli.main(["train", str(tiny_cfg_file)])
    with open(tmp_path / "out" / "keys.json") as f:
        keys = json.load(f)
    assert len(keys["clients"]) == 4
    for entry in keys["clients"]:
        assert entry["private"]["bits_len"] == 24


# --- heatmap --------------------------------------------------------------------


def test_heatmap_matrix_shape_and_range(tiny_cfg_file, tmp_path, capsys):
    cli.main(["train", str(tiny_cfg_file)])
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "heatmap.csv")
    assert rows[0] == ["model_client", "wm_0", "wm_1", "wm_2", "wm_3"]
    assert len(rows) == 5
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    assert values.shape == (4, 4)
    assert np.all((0.0 <= values) & (values <= 1.0))


def test_heatmap_requires_private_watermarks(tiny_cfg_file, tmp_path, capsys):
    cli.main(["train", str(tiny_cfg_file), "--private_bits", "0"])
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    assert "private watermarks" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["head_0", "rep_flat"])
def test_heatmap_rejects_truncated_model_arrays(tiny_cfg_file, tmp_path, capsys, key):
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "models.npz"
    with np.load(path) as stored:
        arrays = dict(stored)
    expected = len(arrays["rep_flat"]) + len(arrays["head_0"])
    arrays[key] = arrays[key][:-1]
    np.savez(path, **arrays)
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    assert f"length {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("dtype", [str, complex, bool])
def test_heatmap_rejects_model_arrays_of_another_dtype(tiny_cfg_file, tmp_path, capsys, dtype):
    """A head_0 of the right length but not float64 ends in one error line
    that names the array and the dtype found, not in a converted heatmap."""
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "models.npz"
    with np.load(path) as stored:
        arrays = dict(stored)
    arrays["head_0"] = np.full(len(arrays["head_0"]), "x") if dtype is str else arrays["head_0"].astype(dtype)
    np.savez(path, **arrays)
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "head_0" in err and str(arrays["head_0"].dtype) in err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


def test_heatmap_rejects_missing_model_arrays(tiny_cfg_file, tmp_path, capsys):
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "models.npz"
    with np.load(path) as stored:
        arrays = dict(stored)
    del arrays["head_2"]
    np.savez(path, **arrays)
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "head_2" in err


def test_heatmap_rejects_keys_missing_a_key(tiny_cfg_file, tmp_path, capsys):
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "keys.json"
    keys = json.loads(path.read_text())
    del keys["input_dim"]
    path.write_text(json.dumps(keys))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "input_dim" in err


BAD_MODEL_KEYS = [
    ("head_layers", 9),  # more head layers than the three-layer model has
    ("head_layers", 3),  # no representation layer left
    ("head_layers", 0),
    ("head_layers", 2),  # fits the model, not the run's one-layer head
    ("head_layers", "1"),
    ("head_layers", True),
    ("hidden_dims", 64),
    ("hidden_dims", [16, 16.5]),
    ("input_dim", "5"),
    ("input_dim", True),
    ("num_classes", 0),
    ("clients", 5),
    ("clients", [5]),
    ("clients.1.private", 7),  # a dotted key reaches into the clients list
    ("", [5]),  # the whole document: a list, not an object
]


@pytest.mark.parametrize(
    "key, value",
    BAD_MODEL_KEYS,
    ids=[f"{k or 'keys.json'}={json.dumps(v, separators=(',', ':'))}" for k, v in BAD_MODEL_KEYS],
)
def test_heatmap_rejects_keys_that_do_not_describe_the_run(tiny_cfg_file, tmp_path, capsys, key, value):
    """Each bad model key, or a keys.json that is no object, ends in an error
    line that names it, not in a traceback or in a heatmap read off a wrong
    layer split."""
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "keys.json"
    keys = json.loads(path.read_text())
    if key:
        *parents, last = key.split(".")
        target = keys
        for step in parents:
            target = target[int(step) if step.isdigit() else step]
        target[last] = value
    else:
        keys = value
    path.write_text(json.dumps(keys))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and (key.split(".")[-1] or "keys.json") in err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


BAD_CLIENT_IDS = {
    "swapped": lambda clients: clients.insert(0, clients.pop(1)),
    "duplicated": lambda clients: clients[1].update(client_id=0),
    "true": lambda clients: clients[1].update(client_id=True),
}


@pytest.mark.parametrize("damage", sorted(BAD_CLIENT_IDS))
def test_heatmap_rejects_client_ids_out_of_order(tiny_cfg_file, tmp_path, capsys, damage):
    """A heatmap labels row and column i as client i, so keys.json must list
    the clients with the integer ids 0..n-1 in order. Reordered, duplicated
    and `true` ids each end in an error line naming client_id, not in a
    heatmap whose labels name other clients."""
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "keys.json"
    keys = json.loads(path.read_text())
    BAD_CLIENT_IDS[damage](keys["clients"])
    path.write_text(json.dumps(keys))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client_id" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "heatmap.csv").exists()


def _edit_private_key(out_dir, client, edit):
    path = out_dir / "keys.json"
    keys = json.loads(path.read_text())
    edit(keys["clients"][client]["private"])
    path.write_text(json.dumps(keys))


@pytest.mark.parametrize("layer", [7, 0, "2"])
def test_heatmap_rejects_a_private_mark_off_the_head(tiny_cfg_file, tmp_path, capsys, layer):
    """Layer 7 lies outside the three-layer model, layer 0 in its
    representation, and "2" is no layer index; each ends in an error line,
    not a traceback."""
    cli.main(["train", str(tiny_cfg_file)])
    _edit_private_key(tmp_path / "out", 3, lambda private: private.update(target_layers=[layer]))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 3" in err and "target_layers" in err


def test_heatmap_rejects_a_private_mark_on_part_of_the_head(tmp_path, capsys):
    """A mark covers the whole head: in a two-layer-head run, a keys.json
    that puts client 1's mark on layer 2 alone, with that layer's size and
    seed, ends in an error line that names target_layers."""
    cfg_path = tmp_path / "head2.cfg"
    cfg_path.write_text(config_text(tiny_config(head_layers=2, output_dir=str(tmp_path / "out"))))
    assert cli.main(["train", str(cfg_path)]) == 0

    def on_layer_2(private):
        private.update(
            target_layers=[2], layer_sizes=private["layer_sizes"][1:], matrix_seeds=private["matrix_seeds"][1:]
        )

    _edit_private_key(tmp_path / "out", 1, on_layer_2)
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 1" in err and "target_layers" in err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


def test_heatmap_of_a_run_without_clients_writes_the_header_only(tiny_cfg_file, tmp_path):
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "keys.json"
    keys = json.loads(path.read_text())
    keys["clients"] = []
    path.write_text(json.dumps(keys))
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 0
    assert read_rows(tmp_path / "out" / "heatmap.csv") == [["model_client"]]


def test_heatmap_rejects_private_layer_sizes_that_do_not_match_the_model(tiny_cfg_file, tmp_path, capsys):
    cli.main(["train", str(tiny_cfg_file)])
    _edit_private_key(tmp_path / "out", 1, lambda private: private["layer_sizes"].__setitem__(0, 50))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 1" in err and "layer_sizes" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("bits_len", -3),
        ("bits_len", True),
        ("bits_len", 0),
        ("bits_len", 16),
        ("bits_len", 25),
        ("bits_len", "24"),
        ("matrix_seeds", ["a"]),
        ("matrix_seeds", [1, 2]),
        ("matrix_seeds", [-1]),
        ("matrix_seeds", [True]),
        ("matrix_seeds", [1.5]),
        ("matrix_seeds", 5),
        ("bits_hex", 123),
        ("bits_hex", None),
        ("bits_hex", "zz12ab"),
        ("bits_hex", "ab cd "),
    ],
)
def test_heatmap_rejects_a_bad_private_bits_len_or_matrix_seeds(tiny_cfg_file, tmp_path, capsys, key, value):
    """A 24-bit mark packs into the 3 bytes of bits_hex, a hex string, and
    the one-layer head needs one non-negative integer seed; anything else
    ends in an error line that names the client and the key."""
    cli.main(["train", str(tiny_cfg_file)])
    _edit_private_key(tmp_path / "out", 1, lambda private: private.update({key: value}))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 1" in err and key in err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


def test_heatmap_rejects_fewer_private_bits_than_head_layers(tmp_path, capsys):
    """A mark needs one bit per head layer: in a two-layer-head run, a one-bit
    mark ends in an error line that names the client and bits_len."""
    cfg_path = tmp_path / "head2.cfg"
    cfg_path.write_text(config_text(tiny_config(head_layers=2, output_dir=str(tmp_path / "out"))))
    assert cli.main(["train", str(cfg_path)]) == 0
    _edit_private_key(tmp_path / "out", 1, lambda private: private.update(bits_len=1, bits_hex="80"))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 1" in err and "bits_len" in err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


def test_heatmap_rejects_a_private_bits_len_that_leaves_a_head_layer_empty(tmp_path, capsys):
    """Over head layers of 48 and 51 params, two bits split as [0, 2]: more
    bits than layers, but none for the first, so the error names the client
    and bits_len."""
    cfg_path = tmp_path / "head2.cfg"
    narrow = tiny_config(hidden_dims=(2, 16), head_layers=2, slice_total_bits=0, output_dir=str(tmp_path / "out"))
    cfg_path.write_text(config_text(narrow))
    assert cli.main(["train", str(cfg_path)]) == 0
    _edit_private_key(tmp_path / "out", 1, lambda private: private.update(bits_len=2, bits_hex="c0"))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 1" in err and "bits_len" in err and "[0, 2]" in err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


@pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy"])
def test_heatmap_rejects_a_models_npz_that_is_no_archive(tiny_cfg_file, tmp_path, capsys, damage):
    """A cut-short archive, a file of other bytes, an empty file and one
    `np.save` array each end in one error line that names models.npz, not in
    a traceback."""
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "models.npz"
    npy = io.BytesIO()
    np.save(npy, np.arange(4.0))
    contents = {
        "truncated": path.read_bytes()[:100],
        "garbage": b"not an archive\n" * 8,
        "empty": b"",
        "npy": npy.getvalue(),
    }
    path.write_bytes(contents[damage])
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "models.npz" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "heatmap.csv").exists()


@pytest.mark.parametrize("damage", ["truncated", "not utf-8"])
def test_heatmap_rejects_a_keys_json_that_is_no_json(tiny_cfg_file, tmp_path, capsys, damage):
    """A keys.json cut short and one that is not UTF-8 each end in one error
    line that names keys.json, not in the bare message of the decoder."""
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "keys.json"
    text = path.read_bytes()
    path.write_bytes(text[:50] if damage == "truncated" else text.replace(b'"clients"', b'"\xffclients"'))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "keys.json" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "heatmap.csv").exists()


def test_heatmap_matches_a_per_pair_reference(tmp_path):
    """A two-layer head splits each mark into two segments, and the short
    run leaves the marks imperfect, so the cells differ from one another."""
    cfg_path = tmp_path / "head2.cfg"
    cfg_path.write_text(config_text(tiny_config(head_layers=2, output_dir=str(tmp_path / "out"))))
    assert cli.main(["train", str(cfg_path)]) == 0
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "heatmap.csv")
    models, specs = artifacts.load_run_models(str(tmp_path / "out"))
    assert all(len(spec.layer_sizes) == 2 for spec in specs)
    reference = []
    for i, model in enumerate(models):
        row = [str(i)]
        for spec in specs:
            extracted = np.concatenate(
                [
                    watermark.extract_bits(model.layer_flat(layer_id), spec.matrix(pos))
                    for pos, layer_id in enumerate(model.head_layer_ids)
                ]
            )
            row.append(f"{watermark.detection_rate(spec.bits, extracted):.6f}")
        reference.append(row)
    assert rows[1:] == reference
    cells = [[float(v) for v in row[1:]] for row in reference]
    assert any(cells[i][i] < 1.0 for i in range(len(cells)))
    assert len({cells[i][j] for i in range(len(cells)) for j in range(len(cells)) if i != j}) > 1
    first = models[0]
    heads = nn.Model(first.specs[first.head_start :], np.stack([m.params[first.rep_param_count :] for m in models]), 0)
    for spec in specs:
        stacked = watermark.extract_private_bits(heads, spec)
        assert stacked.shape == (len(models), len(spec.bits))
        for model, bits in zip(models, stacked):
            np.testing.assert_array_equal(bits, watermark.extract_private_bits(model, spec))


# --- fidelity sweep -------------------------------------------------------------


def test_fidelity_gap_formula():
    assert cli.fidelity_gap_percent(0.8, 0.76) == pytest.approx(5.0, abs=1e-12)
    assert cli.fidelity_gap_percent(0.9, 0.9) == 0.0
    with pytest.raises(ValueError):
        cli.fidelity_gap_percent(0.0, 0.5)


def test_fidelity_sweep_includes_zero_baseline(tiny_cfg_file, tmp_path):
    assert cli.main(["fidelity-sweep", str(tiny_cfg_file), "--bits", "8", "--rounds", "1"]) == 0
    rows = read_rows(tmp_path / "out" / "fidelity.csv")
    assert rows[0] == ["bits", "mean_acc", "gap_percent"]
    assert [row[0] for row in rows[1:]] == ["0", "8"]
    assert float(rows[1][2]) == 0.0  # the baseline's gap to itself


def test_fidelity_sweep_rejects_an_infeasible_variant_before_training(tiny_cfg_file, monkeypatch, capsys):
    """One private bit cannot mark a two-layer head: the sweep fails with a
    ConfigError that names private_bits before it trains the baseline."""
    runs = []
    monkeypatch.setattr(cli, "run_training", runs.append)
    assert cli.main(["fidelity-sweep", str(tiny_cfg_file), "--head_layers", "2", "--bits", "1"]) == 1
    assert "private_bits" in capsys.readouterr().err
    assert runs == []


# --- attack sweep ---------------------------------------------------------------


def test_parse_cells():
    assert cli._parse_cells("0.2,0.1; 0.4,0.3") == ((0.2, 0.1), (0.4, 0.3))
    assert cli._parse_cells("") == ()
    with pytest.raises(Exception):
        cli._parse_cells("0.2")


def test_attack_sweep_empty_grid_writes_header_only(tiny_cfg_file, tmp_path):
    assert cli.main(["attack-sweep", str(tiny_cfg_file), "--cells", ""]) == 0
    rows = read_rows(tmp_path / "out" / "attack_sweep.csv")
    assert rows == [
        ["noniid", "f_m", "f_t", "w_n", "w_m", "d_t", "d_f", "delta"]
        + ["malicious_rejected", "honest_rejected", "tampered_aggregated"]
    ]


def test_attack_sweep_single_cell(tiny_cfg_file, tmp_path):
    assert (
        cli.main(["attack-sweep", str(tiny_cfg_file), "--cells", "0.25,0.3", "--rounds", "2"]) == 0
    )
    rows = read_rows(tmp_path / "out" / "attack_sweep.csv")
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["noniid"] == "k(2)"
    assert (row["f_m"], row["f_t"]) == ("0.25", "0.3")
    assert row["w_m"] != "" and row["delta"] != ""
    assert 0.0 <= float(row["d_t"]) <= 1.0
    assert 0.0 <= float(row["d_f"]) <= 1.0
    for key in ("malicious_rejected", "honest_rejected", "tampered_aggregated"):
        assert 0.0 <= float(row[key]) <= 1.0


def test_attack_sweep_rejects_an_infeasible_cell_before_training(
    tiny_cfg_file, tmp_path, monkeypatch, capsys
):
    """A malicious fraction above 1 in the second cell fails the sweep with
    a ConfigError that names the key before the first cell trains."""
    runs = []
    monkeypatch.setattr(cli, "run_training", runs.append)
    assert cli.main(["attack-sweep", str(tiny_cfg_file), "--cells", "0.25,0.3;1.5,0.1"]) == 1
    assert "malicious_fraction" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "out" / "attack_sweep.csv").exists()


def test_attack_sweep_rejects_malformed_cells(tiny_cfg_file, capsys):
    assert cli.main(["attack-sweep", str(tiny_cfg_file), "--cells", "nonsense"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["attack-sweep", str(tiny_cfg_file), "--cells", "0.25,x"]) == 1
    assert capsys.readouterr().err.startswith("error: --cells: could not convert string to float: 'x'")


def test_fidelity_sweep_rejects_a_malformed_length(tiny_cfg_file, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run_training", runs.append)
    assert cli.main(["fidelity-sweep", str(tiny_cfg_file), "--bits", "8,x"]) == 1
    assert capsys.readouterr().err.startswith("error: --bits: invalid literal for int()")
    assert runs == []


def test_attack_sweep_without_slices_fails_before_training(tiny_cfg_file, tmp_path, monkeypatch, capsys):
    """The sweep scores slices, so a config without them (valid for training
    with the detector on) fails, naming slice_total_bits, before any cell runs."""
    runs = []
    monkeypatch.setattr(cli, "run_training", runs.append)
    argv = ["attack-sweep", str(tiny_cfg_file), "--cells", "0.25,0.3", "--slice_total_bits", "0"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "slice_total_bits" in err
    assert runs == []
    assert not (tmp_path / "out" / "attack_sweep.csv").exists()
