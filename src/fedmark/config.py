"""Run configuration: a flat key=value text file, overridable per key."""

import dataclasses
import math
import operator
import os
from dataclasses import dataclass

from .data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, read_idx
from .nn import build_layer_specs, param_counts
from .slicing import check_slice_layout
from .watermark import segment_lengths

OUTPUT_ROOT_ENV = "FEDMARK_OUTPUT_ROOT"


class ConfigError(ValueError):
    pass


_BOUND_WORDS = {"ge": "at least", "gt": "above", "le": "at most", "lt": "below"}  # named as in `operator`
_TYPE_WORDS = {bool: "a bool", int: "an int", float: "a number", str: "a string", tuple: "a non-empty tuple of ints"}


def key(default, *, ge=None, gt=None, le=None, lt=None, choices=()):
    """A RunConfig field with its domain: the default's type, the bounds
    (ge, gt, le, lt) on the value or on each entry of a tuple, and the
    strings a str key allows."""
    bounds = {op: bound for op, bound in dict(ge=ge, gt=gt, le=le, lt=lt).items() if bound is not None}
    return dataclasses.field(default=default, metadata={"bounds": bounds, "choices": choices})


@dataclass
class RunConfig:
    # federation schedule
    n_clients: int = key(20, ge=2)
    sample_rate: float = key(1.0, gt=0, le=1)
    rounds: int = key(30, ge=0)
    head_epochs: int = key(10, ge=1)
    lr: float = key(0.01, ge=0)
    batch_size: int = key(10, ge=1)
    # model architecture: input -> hidden_dims -> classes, the trailing
    # head_layers layers form the private head
    hidden_dims: tuple = key((64, 64), ge=1)
    head_layers: int = key(1, ge=1)
    # watermarks
    private_bits: int = key(100, ge=0)
    slice_total_bits: int = key(640, ge=0)
    embed_strength: float = key(1.0, ge=0)
    slice_strength: float = key(25.0, ge=0)
    region_size: int = key(0, ge=0)  # 0: auto, rep_param_count // n_clients
    # dataset
    dataset: str = key("blobs", choices=("blobs", "idx"))
    blob_classes: int = key(4, ge=2)
    blob_dim: int = key(8, ge=1)
    blob_samples_per_class: int = 500
    blob_spread: float = key(0.5, ge=0)
    idx_images: str = ""
    idx_labels: str = ""
    # partitioning
    partition: str = key("dirichlet", choices=("dirichlet", "klabels"))
    dirichlet_beta: float = key(0.5, gt=0)
    k_labels: int = key(2, ge=1)
    # tampering attack during training
    malicious_fraction: float = key(0.0, ge=0, le=1)
    tamper_rate: float = key(0.0, ge=0, le=1)
    fresh_tamper: bool = True
    finetune_rounds: int = 25
    # detector
    detector: bool = False
    honest_confidence: float = key(0.975, gt=0, lt=1)
    malicious_confidence: float = key(0.5, gt=0, lt=1)
    pool_threshold: int = key(5, ge=1)
    min_cohort: int = key(3, ge=1)
    ban_rejected: bool = False
    # run identity
    seed: int = key(0, ge=0)
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
    values, first_line = {}, {}
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
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key!r} is set again, first on line {first_line[key]}")
        first_line[key] = lineno
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


def _fits_type(kind, value) -> bool:
    """Whether a value has its key's type: an int passes for a float, and a
    bool only for a bool."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is tuple:
        return isinstance(value, tuple) and len(value) > 0 and all(_fits_type(int, v) for v in value)
    return isinstance(value, kind)


def _domain_problem(f: dataclasses.Field, value) -> str:
    """What a value lacks to lie in its field's domain, or "" if it does."""
    kind = type(f.default)
    if not _fits_type(kind, value):
        return f"be {_TYPE_WORDS[kind]}"
    if kind is float and not math.isfinite(value):
        return "be finite"
    # config.txt holds one key=value per line and its reader strips each value
    if kind is str and (value != value.strip() or len(value.splitlines()) > 1):
        return "not start or end with whitespace or hold a line break"
    choices = f.metadata.get("choices")
    if choices and value not in choices:
        return "be one of " + ", ".join(map(repr, choices))
    for op, bound in f.metadata.get("bounds", {}).items():
        if not all(getattr(operator, op)(v, bound) for v in (value if kind is tuple else (value,))):
            return f"be {_BOUND_WORDS[op]} {bound}" + (" in every entry" if kind is tuple else "")
    return ""


def validate_config(config: RunConfig) -> None:
    problems = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        problem = _domain_problem(f, value)
        if problem:
            problems.append(f"{f.name} must {problem}, got {value!r}")
    if problems:  # the rules below compare keys, so they need every key in its domain
        raise ConfigError("; ".join(problems))
    if sample_count(config.n_clients, config.sample_rate) < 1:
        problems.append("sample_rate * n_clients must round to at least 1")
    if config.head_layers > len(config.hidden_dims):
        problems.append("head_layers must leave at least one representation layer")
    if config.dataset == "idx" and not (config.idx_images and config.idx_labels):
        problems.append("dataset=idx needs idx_images and idx_labels paths")
    blobs = config.dataset == "blobs"
    if blobs and config.partition == "klabels" and config.k_labels > config.blob_classes:
        problems.append(f"k_labels ({config.k_labels}) exceeds blob_classes ({config.blob_classes})")
    if blobs and config.blob_classes * config.blob_samples_per_class < config.n_clients:
        problems.append("blob_samples_per_class * blob_classes must be at least n_clients")

    width, labels = config.blob_dim, None  # an idx run's input width and distinct labels come from its files
    if not problems and not blobs:
        # both files are read before training, so a missing or damaged one fails here, named
        try:
            (_, rows, cols), _ = read_idx(config.idx_images, IDX_IMAGES_MAGIC, 3, payload=False)
            if not rows * cols:
                raise ValueError(f"{config.idx_images}: images of {rows}x{cols} pixels give the model no input")
        except (OSError, ValueError) as err:
            raise ConfigError(f"idx_images: {err}") from None
        try:  # the distinct labels, as `load_idx` reads them
            labels = set(read_idx(config.idx_labels, IDX_LABELS_MAGIC, 1)[1])
            if not labels:
                raise ValueError(f"{config.idx_labels}: holds no label")
        except (OSError, ValueError) as err:
            raise ConfigError(f"idx_labels: {err}") from None
        width = rows * cols
        if config.partition == "klabels" and config.k_labels > len(labels):
            # `partition_k_labels` bounds k by the distinct labels, not by the class count
            problems.append(f"k_labels ({config.k_labels}) exceeds the {len(labels)} distinct labels of idx_labels")
    if not problems and (config.private_bits > 0 or config.slice_total_bits > 0):
        # the layers the run will build: the input width sizes the representation, the class count the head
        classes = config.blob_classes if blobs else max(labels) + 1  # as `load_idx` counts classes
        specs = build_layer_specs(width, config.hidden_dims, classes)
        rep_size, head_sizes = param_counts(specs, len(specs) - config.head_layers)
        if config.private_bits > 0:
            try:
                segment_lengths(config.private_bits, head_sizes)
            except ValueError as err:
                problems.append(f"private_bits ({config.private_bits}) must give every head layer a bit: {err}")
        if config.slice_total_bits > 0:
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
