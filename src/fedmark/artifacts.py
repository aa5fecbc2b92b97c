"""The one home of every run file's format, apart from config.txt, which
`config.config_text` writes and `config.load_config` reads. Every CSV file,
the heatmap's and the sweeps' included, goes through `write_csv`."""

import csv
import json
import os
import string
import zipfile

import numpy as np

from . import nn
from .config import RunConfig, config_text
from .detection import DetectionLedger
from .engine import TrainingResult
from .slicing import SliceAssignment, slice_detection_rates
from .watermark import PrivateWatermarkSpec, bits_to_hex, hex_to_bits, private_detection_rate


def write_csv(path, header, rows) -> None:
    """A header row, then `rows`, in the csv module's default dialect. A float
    cell is written with six decimals and None as an empty cell. `rows` may be
    a generator: each row is written as it is produced."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(["" if v is None else f"{v:.6f}" if isinstance(v, float) else v for v in row] for row in rows)


def write_rounds_csv(result: TrainingResult, path) -> None:
    write_csv(
        path,
        ["round", "client", "embedding_count", "slice_acc", "accepted", "main_acc"],
        (
            [up.round_index, up.client_id, up.embedding_count, up.slice_acc, int(up.accepted), up.main_acc]
            for report in result.reports
            for up in report.uploads
        ),
    )


def write_final_metrics_csv(result: TrainingResult, path) -> None:
    """One row per client; every final slice is scored against `rep_flat`
    in one `slice_detection_rates` call."""
    assignments = result.server.assignments
    sliced = slice_detection_rates([result.server.rep_flat] * len(assignments), assignments)

    def rows():
        for client in result.clients:
            model = result.model(client)
            acc = nn.evaluate_accuracy(model, client.data)
            rate = None if client.private is None else private_detection_rate(model, client.private)
            yield [client.client_id, acc, rate, None if client.assignment is None else sliced[client.client_id]]

    write_csv(path, ["client", "main_acc", "private_rate", "slice_acc"], rows())


def write_keys_json(result: TrainingResult, config: RunConfig, path) -> None:
    specs = result.specs
    payload = {
        "input_dim": specs[0].input_dim,
        "num_classes": specs[-1].output_dim,
        "hidden_dims": list(config.hidden_dims),
        "head_layers": config.head_layers,
        "clients": [],
    }
    for client in result.clients:
        entry = {"client_id": client.client_id}
        if client.private is not None:
            entry["private"] = {
                "bits_hex": bits_to_hex(client.private.bits),
                "bits_len": int(len(client.private.bits)),
                "target_layers": list(range(result.head_start, len(specs))),
                "layer_sizes": list(client.private.layer_sizes),
                "matrix_seeds": list(client.private.matrix_seeds),
            }
        payload["clients"].append(entry)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_models_npz(result: TrainingResult, path) -> None:
    heads = {f"head_{client.client_id}": client.head for client in result.clients}
    np.savez(path, rep_flat=result.server.rep_flat, **heads)


def write_manifest(assignments: list[SliceAssignment], path) -> None:
    """One line per client: id, slice hex, slice bit length, region, seed."""
    with open(path, "w") as f:
        f.write("client_id,slice_hex,slice_bits,region_start,region_stop,matrix_seed\n")
        for a in assignments:
            f.write(
                f"{a.client_id},{bits_to_hex(a.bits)},{len(a.bits)},"
                f"{a.region_start},{a.region_stop},{a.matrix_seed}\n"
            )


def write_ledger_csv(ledger: DetectionLedger, path) -> None:
    """All records with their decisions, in arrival order."""
    write_csv(
        path,
        ["round", "client", "embedding_count", "acc", "decision"],
        (
            [record.round_index, record.client_id, record.embedding_count, record.acc, "accept" if ok else "reject"]
            for record, ok in ledger.history
        ),
    )


def write_run_artifacts(result: TrainingResult, config: RunConfig, out_dir: str) -> None:
    """Every file of a run. One function per file, so each file's
    temporaries are freed before the next file is written."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as f:  # as load_config reads it
        f.write(config_text(config))
    write_rounds_csv(result, os.path.join(out_dir, "rounds.csv"))
    write_final_metrics_csv(result, os.path.join(out_dir, "final_metrics.csv"))
    write_keys_json(result, config, os.path.join(out_dir, "keys.json"))
    write_models_npz(result, os.path.join(out_dir, "models.npz"))
    if result.server.assignments:
        write_manifest(result.server.assignments, os.path.join(out_dir, "slices.manifest"))
    write_ledger_csv(result.server.ledger, os.path.join(out_dir, "ledger.csv"))


def read_manifest(path) -> list[SliceAssignment]:
    assignments = []
    with open(path) as f:
        header = f.readline()
        if not header.startswith("client_id,"):
            raise ValueError(f"{path}: not a slice manifest")
        for line in f:
            cid, hexbits, nbits, start, stop, seed = line.strip().split(",")
            assignments.append(
                SliceAssignment(
                    client_id=int(cid),
                    bits=hex_to_bits(hexbits, int(nbits)),
                    region_start=int(start),
                    region_stop=int(stop),
                    matrix_seed=int(seed),
                )
            )
    return assignments


def _private_spec(private: dict, layer_specs, head_start: int, client_id) -> PrivateWatermarkSpec:
    """A client's private mark, which must cover exactly the head layers, with
    one non-negative matrix seed per head layer, a hex string `bits_hex`, and
    a bit count that packs into its bytes and whose proportional split gives
    every head layer a bit. Integers are checked by type, as a JSON `true` or
    `false` loads as an int."""
    if not isinstance(private, dict):
        raise ValueError(f"keys.json client {client_id}: private {private!r} must be an object")
    head = list(range(head_start, len(layer_specs)))
    _, sizes = nn.param_counts(layer_specs, head_start)
    for key, expected in (("target_layers", head), ("layer_sizes", sizes)):
        if private[key] != expected or not all(type(v) is int for v in private[key]):
            raise ValueError(
                f"keys.json client {client_id}: private {key} {private[key]!r} must be {expected}, "
                "those of the head layers"
            )
    seeds = private["matrix_seeds"]
    if not isinstance(seeds, list) or len(seeds) != len(head) or not all(type(v) is int and v >= 0 for v in seeds):
        raise ValueError(
            f"keys.json client {client_id}: private matrix_seeds {seeds!r} must be {len(head)} "
            "non-negative integers, one per head layer"
        )
    bits_len, bits_hex = private["bits_len"], private["bits_hex"]
    if type(bits_hex) is not str or not set(bits_hex) <= set(string.hexdigits):
        raise ValueError(f"keys.json client {client_id}: private bits_hex {bits_hex!r} must be a hex string")
    if type(bits_len) is not int or 2 * ((bits_len + 7) // 8) != len(bits_hex):
        raise ValueError(
            f"keys.json client {client_id}: private bits_len {bits_len!r} must be an integer "
            f"that packs into the {len(bits_hex) // 2} bytes of bits_hex"
        )
    try:  # the fields align and the bits unpack, so only the split can fail
        return PrivateWatermarkSpec(hex_to_bits(bits_hex, bits_len), tuple(sizes), tuple(seeds))
    except ValueError as err:
        raise ValueError(
            f"keys.json client {client_id}: private bits_len {bits_len} must give every head layer a bit: {err}"
        ) from None


def _check_model_keys(keys) -> None:
    """keys.json must describe a model with at least one representation layer.
    A JSON `true` or `false` loads as an int, so integers are checked by type."""
    if not isinstance(keys, dict):
        raise ValueError(f"keys.json must hold an object of run keys, not a {type(keys).__name__}")
    for key in ("input_dim", "num_classes"):
        if type(keys[key]) is not int or keys[key] < 1:
            raise ValueError(f"keys.json {key} must be a positive integer, got {keys[key]!r}")
    hidden = keys["hidden_dims"]
    if not isinstance(hidden, list) or not all(type(d) is int and d >= 1 for d in hidden):
        raise ValueError(f"keys.json hidden_dims must be a list of positive integers, got {hidden!r}")
    head = keys["head_layers"]
    if type(head) is not int or not 1 <= head <= len(hidden):
        raise ValueError(f"keys.json head_layers must be an integer in 1..{len(hidden)}, got {head!r}")


def load_run(run_dir: str):
    """A finished run's layer specs, `head_start`, final `rep_flat`, the
    (n, head size) stack of its clients' heads in client order, and their
    private watermark specs (None for a client without one), after every
    check of keys.json and models.npz."""
    with open(os.path.join(run_dir, "keys.json"), encoding="utf-8") as f:
        try:  # JSONDecodeError and UnicodeDecodeError are both ValueErrors
            keys = json.load(f)
        except ValueError as err:
            raise ValueError(f"keys.json is not valid JSON: {err}") from None
    try:
        _check_model_keys(keys)
        specs = nn.build_layer_specs(keys["input_dim"], keys["hidden_dims"], keys["num_classes"])
        head_start = len(specs) - keys["head_layers"]
        entries = keys["clients"]
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise ValueError(f"keys.json clients must be a list of client objects, got {entries!r}")
        # a heatmap labels its rows and columns by position, so position i must hold client i
        ids = [entry["client_id"] for entry in entries]
        if ids != list(range(len(ids))) or not all(type(cid) is int for cid in ids):
            raise ValueError(f"keys.json client_id values {ids!r} must be the integers 0..{len(ids) - 1} in order")
        heads = [f"head_{cid}" for cid in ids]
        try:  # np.load reads a truncated archive or a foreign file as one of these
            archive = np.load(os.path.join(run_dir, "models.npz"))
            if not isinstance(archive, np.lib.npyio.NpzFile):  # a plain .npy file loads as one array
                raise ValueError("it holds one .npy array")
            with archive:
                arrays = {name: archive[name] for name in ["rep_flat", *heads] if name in archive.files}
        except (EOFError, ValueError, zipfile.BadZipFile) as err:
            raise ValueError(f"models.npz is not a readable .npz archive: {err}") from None
        missing = sorted({"rep_flat", *heads} - arrays.keys())
        if missing:
            raise ValueError(f"models.npz lacks the arrays {', '.join(missing)}")
        rep_size, head_sizes = nn.param_counts(specs, head_start)
        head_size = sum(head_sizes)
        for name, size in [("rep_flat", rep_size), *((head, head_size) for head in heads)]:
            if arrays[name].dtype != np.float64:  # what write_models_npz writes
                raise ValueError(f"models.npz {name} has dtype {arrays[name].dtype}, but a run's arrays are float64")
            if arrays[name].shape != (size,):
                raise ValueError(
                    f"models.npz {name} has shape {arrays[name].shape}, but keys.json hidden_dims and head_layers "
                    f"describe a model of length {rep_size + head_size}: a {rep_size}-parameter "
                    f"representation, then a {head_size}-parameter head"
                )
        # the reshape gives a run without clients a (0, head size) stack
        head_stack = np.array([arrays[head] for head in heads]).reshape(len(heads), head_size)
        # after the model checks, so a wrong head_layers is named, not the marks it misplaces
        wm_specs = [
            None if entry.get("private") is None
            else _private_spec(entry["private"], specs, head_start, entry["client_id"])
            for entry in entries
        ]
    except KeyError as err:
        raise ValueError(f"keys.json lacks the key {err}") from None
    return specs, head_start, arrays["rep_flat"], head_stack, wm_specs


def load_run_models(run_dir: str):
    """Rebuild final models and private watermark specs from run artifacts."""
    specs, head_start, rep, heads, wm_specs = load_run(run_dir)
    return [nn.Model(list(specs), np.concatenate([rep, head]), head_start) for head in heads], wm_specs
