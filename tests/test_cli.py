"""Command-line workflows: artifacts, reruns, overrides, and the sweeps."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import tiny_config
from fedmark import cli, watermark
from fedmark.config import config_text


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


def test_train_missing_config_fails_cleanly(capsys):
    assert cli.main(["train", "/nonexistent.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_reports_an_impossible_partition(tiny_cfg_file, capsys):
    """Ten clients cannot all get a sample of three classes split at
    Dirichlet(0.001): the run ends with an error line, not a traceback."""
    args = ["--n_clients", "10", "--slice_total_bits", "0", "--partition", "dirichlet"]
    assert cli.main(["train", str(tiny_cfg_file), *args, "--dirichlet_beta", "0.001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "every client a sample" in err


def test_train_reports_config_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_clients=4\nrounds=soon\n")
    assert cli.main(["train", str(path)]) == 1
    assert ":2:" in capsys.readouterr().err


def test_train_flag_overrides(tiny_cfg_file, tmp_path):
    assert cli.main(["train", str(tiny_cfg_file), "--rounds", "1"]) == 0
    rows = read_rows(tmp_path / "out" / "rounds.csv")
    assert {row[0] for row in rows[1:]} == {"1"}


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
    ("hidden_dims", 64),
    ("hidden_dims", [16, 16.5]),
    ("input_dim", "5"),
    ("num_classes", 0),
]


@pytest.mark.parametrize(
    "key, value", BAD_MODEL_KEYS, ids=[f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in BAD_MODEL_KEYS]
)
def test_heatmap_rejects_keys_that_do_not_describe_the_run(tiny_cfg_file, tmp_path, capsys, key, value):
    """Each bad model key ends in an error line that names it, not in a
    traceback or in a heatmap read off a wrong layer split."""
    cli.main(["train", str(tiny_cfg_file)])
    path = tmp_path / "out" / "keys.json"
    keys = json.loads(path.read_text())
    keys[key] = value
    path.write_text(json.dumps(keys))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
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


def test_heatmap_rejects_private_layer_sizes_that_do_not_match_the_model(tiny_cfg_file, tmp_path, capsys):
    cli.main(["train", str(tiny_cfg_file)])
    _edit_private_key(tmp_path / "out", 1, lambda private: private["layer_sizes"].__setitem__(0, 50))
    capsys.readouterr()
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "client 1" in err and "layer_sizes" in err


def test_heatmap_matches_a_per_pair_reference(tmp_path):
    """A two-layer head splits each mark into two segments, and the short
    run leaves the marks imperfect, so the cells differ from one another."""
    cfg_path = tmp_path / "head2.cfg"
    cfg_path.write_text(config_text(tiny_config(head_layers=2, output_dir=str(tmp_path / "out"))))
    assert cli.main(["train", str(cfg_path)]) == 0
    assert cli.main(["heatmap", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "heatmap.csv")
    models, specs = cli._load_run_models(str(tmp_path / "out"))
    assert all(len(spec.target_layers) == 2 for spec in specs)
    reference = []
    for i, model in enumerate(models):
        row = [str(i)]
        for spec in specs:
            extracted = np.concatenate(
                [
                    watermark.extract_bits(model.layer_flat(layer_id), spec.matrix(pos))
                    for pos, layer_id in enumerate(spec.target_layers)
                ]
            )
            row.append(f"{watermark.detection_rate(spec.bits, extracted):.6f}")
        reference.append(row)
    assert rows[1:] == reference
    cells = [[float(v) for v in row[1:]] for row in reference]
    assert any(cells[i][i] < 1.0 for i in range(len(cells)))
    assert len({cells[i][j] for i in range(len(cells)) for j in range(len(cells)) if i != j}) > 1
    for spec in specs:
        stacked = watermark.extract_stacked_private_bits(watermark.stack_layers(models, spec.target_layers), spec)
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
