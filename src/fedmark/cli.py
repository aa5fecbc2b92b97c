"""Command-line front end.

Subcommands: train (one run, writes all artifacts), heatmap (cross-client
private-watermark matrix for a finished run), fidelity-sweep (accuracy
versus private watermark length), attack-sweep (tampering grid with the
detector on). Every run config key can be overridden with a flag of the
same name.
"""

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import nn
from .artifacts import load_run_models as _load_run_models  # benchmark/workloads.py reads it under this name
from .artifacts import load_run, write_csv, write_run_artifacts
from .attacks import attack_report
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .config import resolve_output_dir, validate_config
from .engine import run_training
from .watermark import private_detection_rate


def cmd_train(config: RunConfig) -> int:
    result = run_training(config)
    out_dir = resolve_output_dir(config)
    write_run_artifacts(result, config, out_dir)
    print(f"run complete: {len(result.reports)} rounds, artifacts in {out_dir}")
    _warn_if_diverged(result, "the run")
    return 0


def _warn_if_diverged(result, run: str) -> None:
    """One stderr line for a run whose uploads went non-finite: training
    keeps numpy's overflow warnings off, so this line is the only sign."""
    diverged = [u for report in result.reports for u in report.uploads if u.non_finite]
    if diverged:
        print(
            f"warning: {run} diverged: {len(diverged)} uploads were rejected unscored as non-finite, "
            f"the first in round {diverged[0].round_index}",
            file=sys.stderr,
        )


def cmd_heatmap(run_dir: str) -> int:
    """n x n matrix: entry (i, j) is the detection rate of client j's private
    watermark read out of client i's model. The run's heads are read as one
    (n, head size) cohort, with no whole model built, and each watermark is
    read out of it with one `private_detection_rate` call: one matrix
    product per head layer, each row as its model alone reads it (see
    `watermark.extract_bits`)."""
    specs, head_start, _, head_params, wm_specs = load_run(run_dir)
    if any(s is None for s in wm_specs):
        print("heatmap needs a run with private watermarks enabled", file=sys.stderr)
        return 1
    n = len(wm_specs)
    heads = nn.Model(specs[head_start:], head_params, 0)
    rates = np.empty((n, n))
    for j, spec in enumerate(wm_specs):
        rates[:, j] = private_detection_rate(heads, spec)
    path = os.path.join(run_dir, "heatmap.csv")
    rows = ([i, *row] for i, row in enumerate(rates.tolist()))
    write_csv(path, ["model_client"] + [f"wm_{j}" for j in range(n)], rows)
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
        _warn_if_diverged(result, f"the private_bits={bits} run")
        accs = [nn.evaluate_accuracy(result.model(client), client.data) for client in result.clients]
        rows.append((bits, float(np.mean(accs))))
    baseline = rows[0][1]
    out_dir = resolve_output_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "fidelity.csv")
    gaps = ([bits, acc, fidelity_gap_percent(baseline, acc)] for bits, acc in rows)
    write_csv(path, ["bits", "mean_acc", "gap_percent"], gaps)
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
    if config.slice_total_bits == 0:
        raise ConfigError("slice_total_bits must be positive: an attack sweep scores every client's slice")
    variants = [
        dataclasses.replace(config, malicious_fraction=f_m, tamper_rate=f_t, detector=True)
        for f_m, f_t in grid
    ]
    for variant in variants:  # every cell is checked before the first run starts
        validate_config(variant)
    out_dir = resolve_output_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "attack_sweep.csv")

    def rows():
        for (f_m, f_t), variant in zip(grid, variants):
            result = run_training(variant)
            _warn_if_diverged(result, f"the f_m={f_m:g} f_t={f_t:g} run")
            report = attack_report(
                result.server.rep_flat, result.server.assignments, result.malicious_ids, result.server.ledger
            )
            yield [
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

    write_csv(
        path,
        ["noniid", "f_m", "f_t", "w_n", "w_m", "d_t", "d_f", "delta"]
        + ["malicious_rejected", "honest_rejected", "tampered_aggregated"],
        rows(),
    )
    print(f"attack sweep written: {path}")
    return 0


def _parse_numbers(flag: str, parts, kind) -> list:
    """The numbers a flag's parts spell; a malformed one names the flag."""
    try:
        return [kind(part) for part in parts]
    except ValueError as err:
        raise ConfigError(f"{flag}: {err}") from None


def _parse_cells(text: str):
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--cells: grid cell must be 'f_m,f_t', got {chunk!r}")
        cells.append(tuple(_parse_numbers("--cells", parts, float)))
    return tuple(cells)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{f.name}", dest=f.name, default=None, metavar="VALUE")


def _config_from_args(args) -> RunConfig:
    """The config file with the command line's flags on top, validated once."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    return load_config(args.config, [f"{key}={value}" for key, value in flags.items() if value is not None])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once per process: argparse's objects refer to
    each other, so a parser built per `main` call left about 700 objects for
    the cycle collector in a process that calls `main` many times."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(_config_from_args(args))
        if args.command == "heatmap":
            return cmd_heatmap(args.run_dir)
        if args.command == "fidelity-sweep":
            bits = _parse_numbers("--bits", [b for b in args.bits.split(",") if b.strip()], int)
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
