"""Server-side watermark slicing.

The server draws one common watermark, cuts it into per-client slices, and
pins each slice to a disjoint contiguous region of the flattened shared
representation. The list of `SliceAssignment`s is the only form the common
watermark takes: its bits are the slices joined in client order. Clients
embed only their own slice inside their own region, so slices never
interfere. `slice_detection_rates` scores representations against their
slices, a round's uploads or a run's final slices, with one `extract_slice`
read per slice shape; `extract_slice` also reads one slice alone. Embedding
needs only the slice loss's gradient, `slice_loss_and_grad`; its value is
stated in `tests/reference.py`.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed
from .watermark import cached_embedding_matrix, detection_rate, embedding_loss_and_grad, extract_bits


@dataclass(frozen=True)
class SliceAssignment:
    """One client's slice bits, its region in the flattened representation,
    and the seed of its projection matrix."""

    client_id: int
    bits: np.ndarray
    region_start: int
    region_stop: int
    matrix_seed: int

    def __post_init__(self):
        if self.region_start < 0 or self.region_stop <= self.region_start:
            raise ValueError("region must be a non-empty [start, stop) range")
        if self.region_size < len(self.bits):
            raise ValueError(
                f"region of {self.region_size} params cannot carry {len(self.bits)} bits"
            )

    @property
    def region_size(self) -> int:
        return self.region_stop - self.region_start

    def matrix(self) -> np.ndarray:
        return cached_embedding_matrix(self.region_size, len(self.bits), self.matrix_seed)


def check_slice_layout(total_bits: int, n_clients: int, rep_param_count: int, region_size: int) -> None:
    """The slice layout rule: every client gets a slice, n_clients regions of
    region_size params fit the representation, and a region carries the
    largest slice, the last, which absorbs the remainder. Raises ValueError."""
    if n_clients < 1 or total_bits < n_clients:
        raise ValueError(f"slice_total_bits ({total_bits}) cannot give {n_clients} clients a slice each")
    if region_size < 1 or n_clients * region_size > rep_param_count:
        raise ValueError(
            f"region_size ({region_size}) times n_clients ({n_clients}) must be positive and "
            f"fit the {rep_param_count}-param representation"
        )
    largest = total_bits // n_clients + total_bits % n_clients
    if region_size < largest:
        raise ValueError(
            f"slice_total_bits ({total_bits}) over {n_clients} clients gives slices of up to "
            f"{largest} bits, more than a region of {region_size} params can carry"
        )


def assign_slices(
    bits: np.ndarray, n_clients: int, rep_param_count: int, region_size: int, seed: int
) -> list[SliceAssignment]:
    """Cut the common watermark into n contiguous slices of equal size, the
    last absorbing the remainder, and give client i the slice i and the
    region [i * region_size, (i+1) * region_size) of the flattened
    representation, in a layout `check_slice_layout` accepts. Regions are
    pairwise disjoint by construction."""
    check_slice_layout(len(bits), n_clients, rep_param_count, region_size)
    base = len(bits) // n_clients
    return [
        SliceAssignment(
            client_id=i,
            bits=bits[i * base : len(bits) if i == n_clients - 1 else (i + 1) * base],
            region_start=i * region_size,
            region_stop=(i + 1) * region_size,
            matrix_seed=derive_seed(seed, i),
        )
        for i in range(n_clients)
    ]


def extract_slice(rep_flat, assignment):
    """Read a client's slice bits out of a flattened representation. Given a
    list of representations and a list of assignments of one slice shape,
    read each against its own assignment instead, in one `extract_bits` call
    over each slice's cached matrix, in place: an (n, bits) array whose row i
    equals the one-slice read. Either form raises unless each representation
    is one vector that covers its slice's region."""
    if isinstance(assignment, list):
        segments = [_region(rep, a) for rep, a in zip(rep_flat, assignment, strict=True)]
        return extract_bits(np.stack(segments), [a.matrix() for a in assignment])
    return extract_bits(_region(rep_flat, assignment), assignment.matrix())


def _region(rep_flat, assignment: SliceAssignment) -> np.ndarray:
    """The assignment's region of one flattened representation."""
    rep_flat = np.asarray(rep_flat, dtype=np.float64)
    if rep_flat.ndim != 1 or len(rep_flat) < assignment.region_stop:
        raise ValueError(
            f"representation of length {rep_flat.shape} does not cover region "
            f"[{assignment.region_start}, {assignment.region_stop})"
        )
    return rep_flat[assignment.region_start : assignment.region_stop]


def slice_detection_rates(reps: list, assignments: list) -> list[float]:
    """The detection rate of each flattened representation against its
    assignment, from one list-form `extract_slice` read per slice shape; each
    rate equals `detection_rate(a.bits, extract_slice(rep, a))`. A run's
    slices take at most two shapes: the last slice absorbs the remainder."""
    rates = [0.0] * len(reps)
    groups = {}
    for i, a in enumerate(assignments):
        groups.setdefault((a.region_size, len(a.bits)), []).append(i)
    for members in groups.values():
        group = [assignments[i] for i in members]
        extracted = extract_slice([reps[i] for i in members], group)
        for i, rate in zip(members, detection_rate(np.stack([a.bits for a in group]), extracted).tolist()):
            rates[i] = rate
    return rates


def slice_loss_and_grad(rep_flat, assignment: SliceAssignment, bits=None) -> np.ndarray:
    """Gradient of a slice's embedding loss over its region only: it has
    region length, and callers zero-pad it. `bits` overrides the
    assignment's true slice (used by tampering clients)."""
    rep_flat = np.asarray(rep_flat, dtype=np.float64)
    target = assignment.bits if bits is None else np.asarray(bits, dtype=np.uint8)
    if len(target) != len(assignment.bits):
        raise ValueError("override bits must match the slice length")
    segment = rep_flat[assignment.region_start : assignment.region_stop]
    return embedding_loss_and_grad(segment, assignment.matrix(), target)
