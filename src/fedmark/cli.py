"""Command-line front end.

Subcommands: train (one run, writes all artifacts), heatmap (cross-client
private-watermark matrix for a finished run), fidelity-sweep (accuracy
versus private watermark length), attack-sweep (tampering grid with the
detector on). Every run config key can be overridden with a flag of the
same name.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import nn
from .attacks import attack_report
from .config import ConfigError, RunConfig, apply_overrides, config_text, load_config
from .config import resolve_output_dir, validate_config
from .detection import export_ledger_csv
from .engine import TrainingResult, run_training
from .slicing import extract_slice, write_manifest
from .watermark import (
    PrivateWatermarkSpec,
    bits_to_hex,
    detection_rate,
    extract_stacked_private_bits,
    hex_to_bits,
    private_detection_rate,
    private_rates,
    stack_layers,
)


def _write_rounds_csv(result: TrainingResult, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "client", "embedding_count", "slice_acc", "accepted", "main_acc"])
        for report in result.reports:
            for up in report.uploads:
                writer.writerow(
                    [
                        up.round_index,
                        up.client_id,
                        up.embedding_count,
                        "" if up.slice_acc is None else f"{up.slice_acc:.6f}",
                        int(up.accepted),
                        f"{up.main_acc:.6f}",
                    ]
                )


def _write_final_metrics_csv(result: TrainingResult, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client", "main_acc", "private_rate", "slice_acc"])
        for client in result.clients:
            acc = nn.evaluate_accuracy(client.model, client.data)
            rate = "" if client.private is None else f"{private_detection_rate(client.model, client.private):.6f}"
            slice_acc = ""
            if client.assignment is not None:
                extracted = extract_slice(result.server.rep_flat, client.assignment)
                slice_acc = f"{detection_rate(client.assignment.bits, extracted):.6f}"
            writer.writerow([client.client_id, f"{acc:.6f}", rate, slice_acc])


def _write_keys_json(result: TrainingResult, config: RunConfig, path: str) -> None:
    specs = result.clients[0].model.specs
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
                "target_layers": list(client.private.target_layers),
                "layer_sizes": list(client.private.layer_sizes),
                "matrix_seeds": list(client.private.matrix_seeds),
            }
        payload["clients"].append(entry)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_models_npz(result: TrainingResult, path: str) -> None:
    heads = {
        f"head_{client.client_id}": client.model.params[client.model.rep_param_count :]
        for client in result.clients
    }
    np.savez(path, rep_flat=result.server.rep_flat, **heads)


def write_run_artifacts(result: TrainingResult, config: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        f.write(config_text(config))
    _write_rounds_csv(result, os.path.join(out_dir, "rounds.csv"))
    _write_final_metrics_csv(result, os.path.join(out_dir, "final_metrics.csv"))
    _write_keys_json(result, config, os.path.join(out_dir, "keys.json"))
    _write_models_npz(result, os.path.join(out_dir, "models.npz"))
    if result.server.assignments:
        write_manifest(result.server.assignments, os.path.join(out_dir, "slices.manifest"))
    export_ledger_csv(result.server.ledger, os.path.join(out_dir, "ledger.csv"))


def cmd_train(config: RunConfig) -> int:
    result = run_training(config)
    out_dir = resolve_output_dir(config)
    write_run_artifacts(result, config, out_dir)
    print(f"run complete: {len(result.reports)} rounds, artifacts in {out_dir}")
    return 0


def _check_private_spec(spec: PrivateWatermarkSpec, layer_specs, head_start: int, client_id) -> None:
    """A private mark must sit on head layers of the sizes keys.json claims."""
    for layer_id, size in zip(spec.target_layers, spec.layer_sizes):
        if not isinstance(layer_id, int) or not head_start <= layer_id < len(layer_specs):
            raise ValueError(
                f"keys.json client {client_id}: private target_layers entry {layer_id} "
                f"is not a head layer ({head_start}..{len(layer_specs) - 1})"
            )
        if size != layer_specs[layer_id].flat_size:
            raise ValueError(
                f"keys.json client {client_id}: private layer_sizes entry {size} does not match "
                f"the {layer_specs[layer_id].flat_size} parameters of layer {layer_id}"
            )


def _check_model_keys(keys) -> None:
    """keys.json must describe a model with at least one representation layer."""
    for key in ("input_dim", "num_classes"):
        if not isinstance(keys[key], int) or keys[key] < 1:
            raise ValueError(f"keys.json {key} must be a positive integer, got {keys[key]!r}")
    hidden = keys["hidden_dims"]
    if not isinstance(hidden, list) or not all(isinstance(d, int) and d >= 1 for d in hidden):
        raise ValueError(f"keys.json hidden_dims must be a list of positive integers, got {hidden!r}")
    head = keys["head_layers"]
    if not isinstance(head, int) or not 1 <= head <= len(hidden):
        raise ValueError(f"keys.json head_layers must be an integer in 1..{len(hidden)}, got {head!r}")


def _load_run_models(run_dir: str):
    """Rebuild final models and private watermark specs from run artifacts."""
    with open(os.path.join(run_dir, "keys.json")) as f:
        keys = json.load(f)
    try:
        _check_model_keys(keys)
        specs = nn.build_layer_specs(keys["input_dim"], keys["hidden_dims"], keys["num_classes"])
        head_start = len(specs) - keys["head_layers"]
        heads = [f"head_{entry['client_id']}" for entry in keys["clients"]]
        wm_specs = []
        for entry in keys["clients"]:
            private = entry.get("private")
            if private is None:
                wm_specs.append(None)
            else:
                spec = PrivateWatermarkSpec(
                    bits=hex_to_bits(private["bits_hex"], private["bits_len"]),
                    target_layers=tuple(private["target_layers"]),
                    layer_sizes=tuple(private["layer_sizes"]),
                    matrix_seeds=tuple(private["matrix_seeds"]),
                )
                _check_private_spec(spec, specs, head_start, entry["client_id"])
                wm_specs.append(spec)
    except KeyError as err:
        raise ValueError(f"keys.json lacks the key {err}") from None
    with np.load(os.path.join(run_dir, "models.npz")) as arrays:
        missing = sorted({"rep_flat", *heads} - set(arrays.files))
        if missing:
            raise ValueError(f"models.npz lacks the arrays {', '.join(missing)}")
        rep = arrays["rep_flat"]
        models = [nn.Model(list(specs), np.concatenate([rep, arrays[head]]), head_start) for head in heads]
    # after the models, which name the total length when an array is cut short
    rep_size = sum(spec.flat_size for spec in specs[:head_start])
    if len(rep) != rep_size:
        raise ValueError(
            f"models.npz rep_flat holds {len(rep)} parameters, but keys.json hidden_dims and "
            f"head_layers describe a {rep_size}-parameter representation"
        )
    return models, wm_specs


def cmd_heatmap(run_dir: str) -> int:
    """n x n matrix: entry (i, j) is the detection rate of client j's private
    watermark read out of client i's model. Each watermark is read out of
    every model with one stacked product per target layer; each layer is
    stacked once per heatmap."""
    models, wm_specs = _load_run_models(run_dir)
    if any(s is None for s in wm_specs):
        print("heatmap needs a run with private watermarks enabled", file=sys.stderr)
        return 1
    n = len(models)
    layers = stack_layers(models, {layer_id for s in wm_specs for layer_id in s.target_layers})
    rates = np.empty((n, n))
    for j, spec in enumerate(wm_specs):
        rates[:, j] = private_rates(extract_stacked_private_bits(layers, spec), layers, spec)
    path = os.path.join(run_dir, "heatmap.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model_client"] + [f"wm_{j}" for j in range(n)])
        writer.writerows([str(i)] + [f"{rate:.6f}" for rate in row] for i, row in enumerate(rates.tolist()))
    print(f"heatmap written: {path}")
    return 0


def fidelity_gap_percent(acc_baseline: float, acc_watermarked: float) -> float:
    """Relative accuracy drop in percent; 0 when the accuracies agree."""
    if acc_baseline <= 0.0:
        raise ValueError("baseline accuracy must be positive")
    return 100.0 * (acc_baseline - acc_watermarked) / acc_baseline


def cmd_fidelity_sweep(config: RunConfig, bit_list) -> int:
    """One run per private watermark length; length 0 disables all
    watermarking and serves as the accuracy baseline."""
    bit_list = sorted(set(bit_list))
    if 0 not in bit_list:
        bit_list = [0, *bit_list]
    baseline = ["private_bits=0", "slice_total_bits=0"]
    # apply_overrides validates every variant before the first run starts
    variants = [apply_overrides(config, [f"private_bits={bits}"] if bits else baseline) for bits in bit_list]
    rows = []
    for bits, variant in zip(bit_list, variants):
        result = run_training(variant)
        accs = [nn.evaluate_accuracy(client.model, client.data) for client in result.clients]
        rows.append((bits, float(np.mean(accs))))
    baseline = rows[0][1]
    out_dir = resolve_output_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "fidelity.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bits", "mean_acc", "gap_percent"])
        for bits, acc in rows:
            writer.writerow([bits, f"{acc:.6f}", f"{fidelity_gap_percent(baseline, acc):.6f}"])
    print(f"fidelity sweep written: {path}")
    return 0


DEFAULT_GRID = ((0.2, 0.1), (0.2, 0.3), (0.4, 0.1), (0.4, 0.3))


def _noniid_label(config: RunConfig) -> str:
    if config.partition == "dirichlet":
        return f"dir({config.dirichlet_beta:g})"
    return f"k({config.k_labels})"


def _optional(value) -> str:
    return "" if value is None else f"{value:.4f}"


def cmd_attack_sweep(config: RunConfig, grid) -> int:
    """One detector-on run per (malicious_fraction, tamper_rate) cell."""
    variants = [
        dataclasses.replace(config, malicious_fraction=f_m, tamper_rate=f_t, detector=True)
        for f_m, f_t in grid
    ]
    for variant in variants:  # every cell is checked before the first run starts
        validate_config(variant)
    out_dir = resolve_output_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "attack_sweep.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["noniid", "f_m", "f_t", "w_n", "w_m", "d_t", "d_f", "delta"]
            + ["malicious_rejected", "honest_rejected", "tampered_aggregated"]
        )
        for (f_m, f_t), variant in zip(grid, variants):
            result = run_training(variant)
            report = attack_report(
                result.server.rep_flat,
                result.server.assignments,
                result.malicious_ids,
                result.server.ledger,
                variant.n_clients,
            )
            writer.writerow(
                [
                    _noniid_label(variant),
                    f"{f_m:g}",
                    f"{f_t:g}",
                    f"{report.honest_rate:.4f}",
                    _optional(report.malicious_rate),
                    f"{report.true_detection:.4f}",
                    f"{report.false_positive:.4f}",
                    _optional(report.delta),
                    _optional(report.malicious_rejected),
                    _optional(report.honest_rejected),
                    _optional(report.tampered_aggregated),
                ]
            )
    print(f"attack sweep written: {path}")
    return 0


def _parse_cells(text: str):
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"grid cell must be 'f_m,f_t', got {chunk!r}")
        cells.append((float(parts[0]), float(parts[1])))
    return tuple(cells)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{f.name}", dest=f.name, default=None, metavar="VALUE")


def _config_from_args(args) -> RunConfig:
    config = load_config(args.config)
    overrides = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides.append(f"{f.name}={value}")
    return apply_overrides(config, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedmark", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("config", help="key=value config file")
    _add_override_flags(p_train)

    p_heat = sub.add_parser("heatmap", help="cross-client watermark matrix for a run")
    p_heat.add_argument("run_dir", help="directory written by 'train'")

    p_fid = sub.add_parser("fidelity-sweep", help="accuracy versus watermark length")
    p_fid.add_argument("config")
    p_fid.add_argument("--bits", default="0,50,100,150", help="comma-separated lengths")
    _add_override_flags(p_fid)

    p_atk = sub.add_parser("attack-sweep", help="tampering grid with the detector on")
    p_atk.add_argument("config")
    p_atk.add_argument(
        "--cells",
        default=None,
        help="semicolon-separated f_m,f_t pairs; empty for a header-only CSV",
    )
    _add_override_flags(p_atk)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(_config_from_args(args))
        if args.command == "heatmap":
            return cmd_heatmap(args.run_dir)
        if args.command == "fidelity-sweep":
            bits = [int(b) for b in args.bits.split(",") if b.strip()]
            return cmd_fidelity_sweep(_config_from_args(args), bits)
        if args.command == "attack-sweep":
            grid = DEFAULT_GRID if args.cells is None else _parse_cells(args.cells)
            return cmd_attack_sweep(_config_from_args(args), grid)
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
