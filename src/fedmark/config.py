"""Run configuration: a flat key=value text file, overridable per key."""

import dataclasses
import os
from dataclasses import dataclass

from .data import IDX_IMAGES_MAGIC, read_idx
from .nn import build_layer_specs

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


def load_config(path: str) -> RunConfig:
    """Parse a key=value file; '#' lines and blank lines are ignored.

    Errors carry the file name and line number.
    """
    values = {}
    try:
        lines = open(path).read().splitlines()
    except OSError as err:
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
    config = RunConfig(**values)
    validate_config(config)
    return config


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply key=value strings (e.g. from command-line flags) on top of a config."""
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
    elif round(config.sample_rate * config.n_clients) < 1:
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
    if config.private_bits < 0 or config.slice_total_bits < 0:
        problems.append("watermark bit counts must be non-negative")
    if 0 < config.slice_total_bits < config.n_clients:
        problems.append(
            f"slice_total_bits ({config.slice_total_bits}) must be at least n_clients "
            f"({config.n_clients}) to give every client a slice"
        )
    if 0 < config.private_bits < config.head_layers:
        problems.append(
            f"private_bits ({config.private_bits}) must be at least head_layers "
            f"({config.head_layers}) to mark every head layer"
        )
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
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        # config.txt holds one key=value per line and its reader strips each value
        if isinstance(f.default, str) and (value != value.strip() or len(value.splitlines()) > 1):
            problems.append(f"{f.name} must not start or end with whitespace or hold a line break, got {value!r}")
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
        n, total = config.n_clients, config.slice_total_bits
        rep_size = sum(spec.flat_size for spec in specs[: len(specs) - config.head_layers])
        region = region_params(config, rep_size)
        largest = total // n + total % n  # the last slice takes the remainder
        if n * config.region_size > rep_size:
            problems.append(
                f"region_size ({config.region_size}) times n_clients ({n}) exceeds the "
                f"{rep_size}-param representation"
            )
        elif region < largest:
            problems.append(
                f"slice_total_bits ({total}) over {n} clients gives slices of up to "
                f"{largest} bits, more than a region of {region} params can carry"
            )
    if problems:
        raise ConfigError("; ".join(problems))


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
