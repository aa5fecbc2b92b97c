"""Run configuration: a flat key=value text file, overridable per key."""

import dataclasses
import functools
import math
import os
from dataclasses import dataclass

from .data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, read_idx
from .nn import build_layer_specs, param_counts
from .slicing import check_slice_layout
from .watermark import segment_lengths

OUTPUT_ROOT_ENV = "FEDMARK_OUTPUT_ROOT"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # federation schedule
    n_clients: int = 20
    sample_rate: float = 1.0
    rounds: int = 30
    head_epochs: int = 10
    lr: float = 0.01
    batch_size: int = 10
    # model architecture: input -> hidden_dims -> classes, the trailing
    # head_layers layers form the private head
    hidden_dims: tuple = (64, 64)
    head_layers: int = 1
    # watermarks
    private_bits: int = 100
    slice_total_bits: int = 640
    embed_strength: float = 1.0
    slice_strength: float = 25.0
    region_size: int = 0  # 0: auto, rep_param_count // n_clients
    # dataset
    dataset: str = "blobs"
    blob_classes: int = 4
    blob_dim: int = 8
    blob_samples_per_class: int = 500
    blob_spread: float = 0.5
    idx_images: str = ""
    idx_labels: str = ""
    # partitioning
    partition: str = "dirichlet"
    dirichlet_beta: float = 0.5
    k_labels: int = 2
    # tampering attack during training
    malicious_fraction: float = 0.0
    tamper_rate: float = 0.0
    fresh_tamper: bool = True
    finetune_rounds: int = 25
    # detector
    detector: bool = False
    honest_confidence: float = 0.975
    malicious_confidence: float = 0.5
    pool_threshold: int = 5
    min_cohort: int = 3
    ban_rejected: bool = False
    # run identity
    seed: int = 0
    output_dir: str = "run"


_BOOL_WORDS = {
    "true": True,
    "1": True,
    "yes": True,
    "false": False,
    "0": False,
    "no": False,
}


def _parse_value(name: str, text: str):
    """Coerce a raw string to the type of the named RunConfig field."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    if name not in fields:
        raise ConfigError(f"unknown key {name!r}")
    kind = type(fields[name].default)
    text = text.strip()
    try:
        if kind is bool:
            if text.lower() not in _BOOL_WORDS:
                raise ValueError(f"expected a boolean, got {text!r}")
            return _BOOL_WORDS[text.lower()]
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is tuple:
            return tuple(int(part) for part in text.split(",") if part.strip())
        return text
    except ValueError as err:
        raise ConfigError(f"bad value for {name!r}: {err}") from None


def load_config(path: str, overrides=()) -> RunConfig:
    """Parse a key=value file; '#' lines and blank lines are ignored.
    `overrides`, key=value strings (e.g. from command-line flags), replace
    the file's values before the one validation, so an override can mend a
    value the file alone would fail on.

    Errors carry the file name and line number.
    """
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from None
    return apply_overrides(RunConfig(**values), overrides)


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply key=value strings (e.g. from command-line flags) on top of a
    config, and validate the result."""
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        updates[key.strip()] = _parse_value(key.strip(), raw)
    merged = dataclasses.replace(config, **updates)
    validate_config(merged)
    return merged


def validate_config(config: RunConfig) -> None:
    problems = []
    if config.n_clients < 2:
        problems.append("n_clients must be at least 2")
    if not 0.0 < config.sample_rate <= 1.0:
        problems.append("sample_rate must lie in (0, 1]")
    elif sample_count(config.n_clients, config.sample_rate) < 1:
        problems.append("sample_rate * n_clients must round to at least 1")
    if config.rounds < 0:
        problems.append("rounds must be non-negative")
    if config.head_epochs < 1:
        problems.append("head_epochs must be at least 1")
    if config.batch_size < 1:
        problems.append("batch_size must be at least 1")
    if config.lr < 0:
        problems.append("lr must be non-negative")
    if not config.hidden_dims:
        problems.append("hidden_dims must name at least one layer")
    elif min(config.hidden_dims) < 1:
        problems.append("hidden_dims must be positive")
    if config.blob_dim < 1:
        problems.append("blob_dim must be positive")
    if config.blob_classes < 2:
        problems.append("blob_classes must be at least 2")
    if not 1 <= config.head_layers <= len(config.hidden_dims):
        problems.append("head_layers must leave at least one representation layer")
    if config.dataset not in ("blobs", "idx"):
        problems.append(f"dataset must be 'blobs' or 'idx', got {config.dataset!r}")
    if config.dataset == "idx" and not (config.idx_images and config.idx_labels):
        problems.append("dataset=idx needs idx_images and idx_labels paths")
    if config.partition not in ("dirichlet", "klabels"):
        problems.append(f"partition must be 'dirichlet' or 'klabels', got {config.partition!r}")
    if config.dirichlet_beta <= 0:
        problems.append("dirichlet_beta must be positive")
    if config.k_labels < 1:
        problems.append("k_labels must be at least 1")
    blobs = config.dataset == "blobs"
    if blobs and config.partition == "klabels" and config.k_labels > config.blob_classes:
        problems.append(f"k_labels ({config.k_labels}) exceeds blob_classes ({config.blob_classes})")
    if blobs and config.blob_classes * config.blob_samples_per_class < config.n_clients:
        problems.append("blob_samples_per_class * blob_classes must be at least n_clients")
    for name in ("malicious_fraction", "tamper_rate"):
        if not 0.0 <= getattr(config, name) <= 1.0:
            problems.append(f"{name} must lie in [0, 1]")
    for name in ("honest_confidence", "malicious_confidence"):
        if not 0.0 < getattr(config, name) < 1.0:
            problems.append(f"{name} must lie in (0, 1)")
    if config.pool_threshold < 1:
        problems.append("pool_threshold must be at least 1")
    if config.min_cohort < 1:
        problems.append("min_cohort must be at least 1")
    if config.seed < 0:
        problems.append("seed must be non-negative")
    if config.region_size < 0:
        problems.append("region_size must be non-negative (0 means auto)")
    for name in ("private_bits", "slice_total_bits", "embed_strength", "slice_strength", "blob_spread"):
        if getattr(config, name) < 0:
            problems.append(f"{name} must be non-negative")
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(f.default, float) and not math.isfinite(value):
            problems.append(f"{f.name} must be finite, got {value!r}")
        # config.txt holds one key=value per line and its reader strips each value
        if isinstance(f.default, str) and (value != value.strip() or len(value.splitlines()) > 1):
            problems.append(f"{f.name} must not start or end with whitespace or hold a line break, got {value!r}")

    @functools.cache
    def idx_labels() -> set:
        """The distinct labels of an idx run's label file, read once, as `load_idx` reads it."""
        try:
            labels = set(read_idx(config.idx_labels, IDX_LABELS_MAGIC, 1)[1])
            if not labels:
                raise ValueError(f"{config.idx_labels}: holds no label")
        except (OSError, ValueError) as err:
            raise ConfigError(f"idx_labels: {err}") from None
        return labels

    if not problems and not blobs and config.partition == "klabels" and config.k_labels > len(idx_labels()):
        # `partition_k_labels` bounds k by the distinct labels, not by the class count
        problems.append(f"k_labels ({config.k_labels}) exceeds the {len(idx_labels())} distinct labels of idx_labels")
    if not problems and config.private_bits > 0 and config.head_layers > 1:
        # the input width sizes only the first layer, which is never in the head
        classes = config.blob_classes if blobs else max(idx_labels()) + 1  # as `load_idx` counts classes
        specs = build_layer_specs(1, config.hidden_dims, classes)
        _, head_sizes = param_counts(specs, len(specs) - config.head_layers)
        try:
            segment_lengths(config.private_bits, head_sizes)
        except ValueError as err:
            problems.append(f"private_bits ({config.private_bits}) must give every head layer a bit: {err}")
    if not problems and config.slice_total_bits > 0:
        # the class count sizes only the head, so the input width fixes the representation
        try:  # an idx run reads its input width from the 16-byte image header
            width = config.blob_dim
            if not blobs:
                (_, rows, cols), _ = read_idx(config.idx_images, IDX_IMAGES_MAGIC, 3, payload=False)
                width = rows * cols
            specs = build_layer_specs(width, config.hidden_dims, 1)
        except (OSError, ValueError) as err:  # only an idx header can fail here
            raise ConfigError(f"idx_images: {err}") from None
        rep_size, _ = param_counts(specs, len(specs) - config.head_layers)
        try:
            check_slice_layout(config.slice_total_bits, config.n_clients, rep_size, region_params(config, rep_size))
        except ValueError as err:
            problems.append(str(err))
    if problems:
        raise ConfigError("; ".join(problems))


def sample_count(n_clients: int, sample_rate: float) -> int:
    """Clients sampled per round: round(sample_rate * n_clients)."""
    return round(sample_rate * n_clients)


def region_params(config: RunConfig, rep_size: int) -> int:
    """Params per slice region: region_size, or if 0 an equal share of rep_size."""
    return config.region_size or rep_size // config.n_clients


def config_text(config: RunConfig) -> str:
    """Render a config back to the key=value format, suitable for reruns."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def resolve_output_dir(config: RunConfig) -> str:
    """Place output_dir under the directory named by the output-root env var,
    when the var is set and the path is relative."""
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    if root and not os.path.isabs(config.output_dir):
        return os.path.join(root, config.output_dir)
    return config.output_dir
