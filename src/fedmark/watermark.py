"""White-box watermarks for flattened parameter vectors.

A watermark is a bit string embedded through a fixed random projection
matrix: training adds the gradient of a sigmoid cross-entropy penalty that
pushes each projection toward the sign demanded by its bit, and extraction
thresholds the projections at zero. The kernels compute that gradient only;
no run reads the penalty's value, which `tests/reference.py` states for the
gradient checks. Every mark, slice or private, is scored one way:
`extract_bits` alone decides that a bit cannot be read (its projection is
non-finite), and `detection_rate` alone counts the hits, of one read or a
stack of them. Projection matrices are regenerable from their
seed, so keys ship as (seed, rows, cols) triples rather than dense arrays.
A private mark covers every head layer, in order, with at least one bit in
each (`segment_lengths`): its reads and gradients walk the head layers of
the model they are given, one model or a (C, P) cohort, whole or head-only,
and a cohort row holds the bits of its model alone.
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


def segment_lengths(n_bits: int, layer_sizes) -> list[int]:
    """Bits per layer of an n_bits watermark divided in proportion to layer
    size: layer k receives floor(size_k / total_size * n_bits) bits, and the
    last layer the remainder, so no bit is dropped. Raises unless every layer
    receives at least one bit."""
    layer_sizes = list(layer_sizes)
    if not layer_sizes:
        raise ValueError("layer_sizes must be non-empty")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    total = sum(layer_sizes)
    counts = [n_bits * s // total for s in layer_sizes[:-1]]
    counts.append(n_bits - sum(counts))
    if min(counts) < 1:
        raise ValueError(f"{n_bits} bits over layers of {layer_sizes} params split as {counts}, leaving a layer no bit")
    return counts


def split_watermark(bits: np.ndarray, layer_sizes) -> list[np.ndarray]:
    """Divide a watermark across layers into segments of `segment_lengths`."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.split(bits, np.cumsum(segment_lengths(len(bits), layer_sizes))[:-1])


def gen_embedding_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded standard-normal projection matrix, one column per bit."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
    return np.random.default_rng(seed).standard_normal((rows, cols))


@functools.cache
def cached_embedding_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Read-only cached variant for hot training loops; regeneration from the
    seed every SGD step would dominate the run time. The cache never evicts:
    each matrix is generated once and kept for the life of the process."""
    matrix = gen_embedding_matrix(rows, cols, seed)
    matrix.flags.writeable = False
    return matrix


def extract_bits(params_flat: np.ndarray, matrix) -> np.ndarray:
    """Read bits as the sign of each projection; ties at exactly zero give 0,
    and a non-finite projection, which has no sign, gives 2: it matches
    neither bit, so `detection_rate` counts it as a miss.

    `params_flat` is one vector, giving one bit per matrix column, or an
    (n, rows) stack of vectors, giving an (n, cols) array. Each vector is its
    own matrix-vector product (`_matvecs`) against the view `matrix.T`, the
    same BLAS call for a stack as for one vector, so row i of a stack reads
    bit for bit as `params_flat[i]` alone; `params_flat @ matrix` or a
    contiguous copy of `matrix.T` would round differently. For a stack,
    `matrix` may also be a list of n matrices of one shape, row i read
    against matrix i in place, with the products a stack would give.
    """
    params_flat = np.asarray(params_flat, dtype=np.float64)
    rows = (matrix[0] if isinstance(matrix, list) else matrix).shape[0]
    if params_flat.ndim not in (1, 2) or params_flat.shape[-1] != rows:
        raise ValueError(f"parameter vector length {params_flat.shape} does not match matrix rows {rows}")
    transposed = [m.T for m in matrix] if isinstance(matrix, list) else matrix.T
    proj = _matvecs(transposed, params_flat)
    bits = (proj > 0.0).astype(np.uint8)
    bits[~np.isfinite(proj)] = 2
    return bits


def detection_rate(expected: np.ndarray, extracted: np.ndarray):
    """1 minus the normalized Hamming distance between bit vectors: the one
    hit-rate rule. `extracted` may be an (n, bits) stack, giving an (n,)
    array of rates, read against one `expected` vector or, row by row, an
    (n, bits) stack of them. Integer hit counts over the bit count: a rate
    is exact, whatever the order of the reads."""
    expected = np.asarray(expected, dtype=np.uint8)
    extracted = np.asarray(extracted, dtype=np.uint8)
    width = extracted.shape[-1:]
    if extracted.ndim not in (1, 2) or width == (0,) or expected.shape not in (extracted.shape, width):
        raise ValueError("bits must be non-empty vectors of equal length, or an (n, bits) stack of them")
    rates = (expected == extracted).mean(axis=-1)
    return float(rates) if extracted.ndim == 1 else rates


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each side picks the form that stays exact.
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _matvecs(matrices, vectors):
    """Row i of `matrices @ vectors`: one stacked product for a (..., n, m)
    array, or one product per (n, m) matrix of a list, read in place and
    written into one (C, n) result."""
    if not isinstance(matrices, list):
        return np.matmul(matrices, vectors[..., None])[..., 0]
    out = np.empty((len(matrices), matrices[0].shape[0]))
    for m, v, row in zip(matrices, vectors, out, strict=True):
        np.matmul(m, v[:, None], out=row[:, None])
    return out


def _embedding_kernel(params, matrix, bits):
    """`embedding_loss_and_grad` unchecked, on (..., r) params, (..., r, c)
    matrices and (..., c) bits: one product per vector, in the operand layout
    of `extract_bits`, so row i of a stack gives bit for bit what it alone gives.
    `matrix` may also be a list of C (r, c) matrices for (C, r) params, each
    read in place with the products a stack would give its row."""
    transposed = [m.T for m in matrix] if isinstance(matrix, list) else matrix.swapaxes(-1, -2)
    proj = _matvecs(transposed, params)
    # float64 minus the uint8 bits promotes to the same values a float copy holds
    return _matvecs(matrix, _sigmoid(proj) - bits) / bits.shape[-1]


def embedding_loss_and_grad(params_flat, matrix, bits) -> np.ndarray:
    """Exact gradient in parameter space of the mean binary cross-entropy
    between sigmoid(projections) and the bits:
    matrix @ (sigmoid(matrix.T @ params) - bits) / len(bits). The sigmoid is
    overflow-safe for arbitrarily large projections.
    """
    params_flat = np.asarray(params_flat, dtype=np.float64)
    bits = np.asarray(bits)
    if bits.ndim != 1 or len(bits) == 0:
        raise ValueError("bits must be a non-empty 1-d vector")
    if params_flat.ndim != 1 or matrix.shape != (len(params_flat), len(bits)):
        raise ValueError(f"matrix shape {matrix.shape} does not fit {params_flat.shape} params x {len(bits)} bits")
    return _embedding_kernel(params_flat, matrix, bits)


@dataclass(frozen=True)
class PrivateWatermarkSpec:
    """A client's head watermark: the bits, and the parameter count and
    projection matrix seed of each head layer (matrices come from the cache)."""

    bits: np.ndarray
    layer_sizes: tuple
    matrix_seeds: tuple

    def __post_init__(self):
        if len(self.layer_sizes) != len(self.matrix_seeds):
            raise ValueError("layer_sizes and matrix_seeds must align")
        self.segments  # split now: every layer must get a bit

    @functools.cached_property
    def segments(self) -> list[np.ndarray]:
        return split_watermark(self.bits, self.layer_sizes)

    def matrix(self, position: int) -> np.ndarray:
        cols = len(self.segments[position])
        return cached_embedding_matrix(self.layer_sizes[position], cols, self.matrix_seeds[position])


def make_private_spec(bits, layer_sizes, key_seed: int) -> PrivateWatermarkSpec:
    """Build a head watermark spec, deriving one matrix seed per head layer."""
    bits = np.asarray(bits, dtype=np.uint8)
    layer_sizes = tuple(int(s) for s in layer_sizes)
    seeds = tuple(derive_seed(key_seed, pos) for pos in range(len(layer_sizes)))
    return PrivateWatermarkSpec(bits, layer_sizes, seeds)


def stack_private_marks(specs, reads: int) -> list:
    """Per head layer, the projection matrices and (C, c) segment bits of C
    marks of one shape, for a cohort that reads each mark `reads` times.
    Marks read more than once have their matrices copied into one (C, r, c)
    stack, so each read is one call, not C; a mark read once keeps its cached
    (r, c) matrix, in a list of C that the kernel reads in place, as a copy
    would be made for a single read."""
    return [
        (
            np.stack([s.matrix(k) for s in specs]) if reads > 1 else [s.matrix(k) for s in specs],
            np.stack([s.segments[k] for s in specs]),
        )
        for k in range(len(specs[0].segments))
    ]


def private_embedding_loss_and_grads(model, marks) -> np.ndarray:
    """Gradient of the total head-mark embedding loss, laid out like the head
    parameters: (C, head size) for a (C, P) cohort and its
    `stack_private_marks`, or one vector for one model and one (matrix,
    segment bits) pair per head layer. One kernel call per head layer, joined
    in head order."""
    layers = zip(model.head_layer_ids, marks, strict=True)
    return np.concatenate([_embedding_kernel(model.layer_flat(layer_id), *mark) for layer_id, mark in layers], axis=-1)


def extract_private_bits(model, spec: PrivateWatermarkSpec) -> np.ndarray:
    """Extract and concatenate all segments of a head watermark, or (C, bits)
    for a cohort: row i is what model i alone holds (see `extract_bits`)."""
    pieces = [
        extract_bits(model.layer_flat(layer_id), spec.matrix(pos))
        for layer_id, pos in zip(model.head_layer_ids, range(len(spec.layer_sizes)), strict=True)
    ]
    return np.concatenate(pieces, axis=-1)


def private_detection_rate(model, spec: PrivateWatermarkSpec):
    """Detection rate of a head watermark in one model, or a (C,) array of
    rates for a cohort. A layer with a non-finite entry makes every
    projection through it non-finite, so each of its bits is a miss."""
    return detection_rate(spec.bits, extract_private_bits(model, spec))
