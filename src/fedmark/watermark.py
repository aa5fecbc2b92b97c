"""White-box watermarks for flattened parameter vectors.

A watermark is a bit string embedded through a fixed random projection
matrix: training adds a sigmoid cross-entropy penalty that pushes each
projection toward the sign demanded by its bit, and extraction thresholds
the projections at zero. Projection matrices are regenerable from their
seed, so keys ship as (seed, rows, cols) triples rather than dense arrays.
Reads and head-mark gradients also take a stack of models, row by row, so
a stacked row holds the bits of that model alone.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed


def random_bits(length: int, seed: int) -> np.ndarray:
    """Seeded uniform bit vector of the given length."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return np.random.default_rng(seed).integers(0, 2, size=length, dtype=np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack bits (big-endian within bytes) into a hex string."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def hex_to_bits(text: str, length: int) -> np.ndarray:
    unpacked = np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))
    if len(unpacked) < length:
        raise ValueError(f"hex string holds {len(unpacked)} bits, need {length}")
    return unpacked[:length].astype(np.uint8)


def split_watermark(bits: np.ndarray, layer_sizes) -> list[np.ndarray]:
    """Divide a watermark across layers in proportion to layer size.

    Layer k receives floor(size_k / total_size * len(bits)) bits; the last
    layer absorbs the remainder so no bit is dropped.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    layer_sizes = list(layer_sizes)
    if not layer_sizes:
        raise ValueError("layer_sizes must be non-empty")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    if len(bits) < len(layer_sizes):
        raise ValueError(f"{len(bits)} bits cannot cover {len(layer_sizes)} layers")
    total = sum(layer_sizes)
    counts = [len(bits) * s // total for s in layer_sizes[:-1]]
    counts.append(len(bits) - sum(counts))
    segments = []
    offset = 0
    for c in counts:
        segments.append(bits[offset : offset + c])
        offset += c
    return segments


def gen_embedding_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded standard-normal projection matrix, one column per bit."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
    return np.random.default_rng(seed).standard_normal((rows, cols))


@functools.lru_cache(maxsize=512)
def cached_embedding_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Read-only cached variant for hot training loops; regeneration from the
    seed every SGD step would dominate the run time."""
    matrix = gen_embedding_matrix(rows, cols, seed)
    matrix.flags.writeable = False
    return matrix


def extract_bits(params_flat: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Read bits as the sign of each projection; ties at exactly zero give 0.

    `params_flat` is one vector, giving one bit per matrix column, or an
    (n, rows) stack of vectors, giving an (n, cols) array. Each vector is its
    own matrix-vector product against the broadcast view of `matrix.T`, the
    same BLAS call for a stack as for one vector, so row i of a stack reads
    bit for bit as `params_flat[i]` alone; `params_flat @ matrix` or a
    contiguous copy of `matrix.T` would round differently.
    """
    params_flat = np.asarray(params_flat, dtype=np.float64)
    if params_flat.ndim not in (1, 2) or params_flat.shape[-1] != matrix.shape[0]:
        raise ValueError(
            f"parameter vector length {params_flat.shape} does not match matrix rows {matrix.shape[0]}"
        )
    return (np.matmul(matrix.T, params_flat[..., None])[..., 0] > 0.0).astype(np.uint8)


def detection_rate(expected: np.ndarray, extracted: np.ndarray) -> float:
    """1 minus the normalized Hamming distance between bit vectors."""
    expected = np.asarray(expected, dtype=np.uint8)
    extracted = np.asarray(extracted, dtype=np.uint8)
    if expected.shape != extracted.shape or expected.ndim != 1 or len(expected) == 0:
        raise ValueError("bit vectors must be 1-d, non-empty, and of equal length")
    return float((expected == extracted).mean())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each side picks the form that stays exact.
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def embedding_loss_and_grad(params_flat, matrix, bits, *, with_loss: bool = True):
    """Mean binary cross-entropy between sigmoid(projections) and the bits
    (None unless `with_loss`), with its exact gradient in parameter space.

    The loss is overflow-safe for arbitrarily large projections. Gradient:
    matrix @ (sigmoid(proj) - bits) / len(bits).
    """
    params_flat = np.asarray(params_flat, dtype=np.float64)
    # float64 minus the uint8 bits promotes to the same values a float copy holds
    bits = np.asarray(bits)
    if bits.ndim != 1 or len(bits) == 0:
        raise ValueError("bits must be a non-empty 1-d vector")
    if matrix.shape != (len(params_flat), len(bits)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {len(params_flat)} params x {len(bits)} bits"
        )
    proj = matrix.T @ params_flat
    grad = matrix @ (_sigmoid(proj) - bits) / len(bits)
    if not with_loss:
        return None, grad
    # log(sigmoid(p)) = -softplus(-p); log(1 - sigmoid(p)) = -softplus(p)
    softplus = np.logaddexp(0.0, proj)
    per_bit = bits * (softplus - proj) + (1.0 - bits) * softplus
    return float(per_bit.mean()), grad


@dataclass(frozen=True)
class PrivateWatermarkSpec:
    """A client's head watermark: the bits, the head layers they target, and
    the per-layer projection matrix seeds (matrices regenerate on demand)."""

    bits: np.ndarray
    target_layers: tuple
    layer_sizes: tuple
    matrix_seeds: tuple

    def __post_init__(self):
        if not (len(self.target_layers) == len(self.layer_sizes) == len(self.matrix_seeds)):
            raise ValueError("target_layers, layer_sizes and matrix_seeds must align")

    @functools.cached_property
    def segments(self) -> list[np.ndarray]:
        return split_watermark(self.bits, self.layer_sizes)

    def matrix(self, position: int) -> np.ndarray:
        cols = len(self.segments[position])
        return cached_embedding_matrix(self.layer_sizes[position], cols, self.matrix_seeds[position])


def make_private_spec(bits, target_layers, layer_sizes, key_seed: int) -> PrivateWatermarkSpec:
    """Build a head watermark spec, deriving one matrix seed per target layer."""
    bits = np.asarray(bits, dtype=np.uint8)
    target_layers = tuple(int(t) for t in target_layers)
    layer_sizes = tuple(int(s) for s in layer_sizes)
    split_watermark(bits, layer_sizes)  # validates the split up front
    seeds = tuple(derive_seed(key_seed, pos) for pos in range(len(target_layers)))
    return PrivateWatermarkSpec(bits, target_layers, layer_sizes, seeds)


def private_embedding_loss_and_grads(model, specs, *, with_loss: bool = True):
    """Total head-mark embedding loss (None unless `with_loss`) plus flat
    gradients per target layer, for one model and its spec, or (C,) losses
    and (C, layer size) gradients for a cohort and one spec (or None) per
    row; a row without that layer's mark gets zeros. Each row and layer is
    its own `embedding_loss_and_grad` call on a 2-D matrix."""
    one = model.params.ndim == 1
    specs = [specs] if one else list(specs)
    rows = model.params.reshape(len(specs), -1)
    losses, flat_grads = np.zeros(len(specs)), {}
    for i, spec in enumerate(specs):
        if spec is None:
            continue
        for pos, layer_id in enumerate(spec.target_layers):
            segment = spec.segments[pos]
            if len(segment) == 0:
                continue
            lo, hi = model.offsets[layer_id], model.offsets[layer_id + 1]
            grads = flat_grads.setdefault(layer_id, np.zeros((len(specs), hi - lo)))
            loss, grads[i] = embedding_loss_and_grad(rows[i, lo:hi], spec.matrix(pos), segment, with_loss=with_loss)
            if with_loss:
                losses[i] += loss
    if one:
        return (float(losses[0]) if with_loss else None), {k: g[0] for k, g in flat_grads.items()}
    return (losses if with_loss else None), flat_grads


def stack_layers(models, layer_ids) -> dict:
    """Map each layer id to an (n_models, layer size) array: row i is that
    layer's flat vector in `models[i]`."""
    return {layer_id: np.stack([m.layer_flat(layer_id) for m in models]) for layer_id in layer_ids}


def extract_stacked_private_bits(layers: dict, spec: PrivateWatermarkSpec) -> np.ndarray:
    """Read a head watermark out of many models at once: `layers` maps each
    target layer to its `stack_layers` array, and row i of the (n_models,
    bits) result is what model i holds, bit for bit (see `extract_bits`)."""
    pieces = [
        extract_bits(layers[layer_id], spec.matrix(pos))
        for pos, layer_id in enumerate(spec.target_layers)
        if len(spec.segments[pos])
    ]
    return np.concatenate(pieces, axis=1)


def extract_private_bits(model, spec: PrivateWatermarkSpec) -> np.ndarray:
    """Extract and concatenate all segments of a head watermark: the
    one-model case of `extract_stacked_private_bits`."""
    return extract_stacked_private_bits(stack_layers([model], spec.target_layers), spec)[0]


def private_rates(extracted: np.ndarray, layers: dict, spec: PrivateWatermarkSpec) -> np.ndarray:
    """Detection rates of a head watermark: row i of `extracted`, the
    `extract_stacked_private_bits` reads of the `stack_layers` arrays
    `layers`, scored against the mark. A bit read out of a layer with a
    non-finite entry is a miss: all of that layer's projections are then
    non-finite, and `extract_bits` would turn them into plausible bits."""
    finite = np.stack([np.isfinite(layers[layer_id]).all(axis=-1) for layer_id in spec.target_layers], axis=-1)
    hits = (extracted == spec.bits) & np.repeat(finite, [len(s) for s in spec.segments], axis=-1)
    # integer hit counts over len(bits): exact, as in detection_rate
    return hits.mean(axis=-1)


def private_detection_rate(model, spec: PrivateWatermarkSpec) -> float:
    """The one-model case of `private_rates`."""
    layers = stack_layers([model], spec.target_layers)
    return float(private_rates(extract_private_bits(model, spec), layers, spec)[0])
