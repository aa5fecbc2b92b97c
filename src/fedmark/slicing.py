"""Server-side watermark slicing.

The server issues one common watermark, cuts it into per-client slices, and
pins each slice to a disjoint contiguous region of the flattened shared
representation. Clients embed only their own slice inside their own region,
so slices never interfere and the full watermark can be reassembled from the
trained representation.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed
from .watermark import (
    bits_to_hex,
    cached_embedding_matrix,
    embedding_loss_and_grad,
    extract_bits,
    hex_to_bits,
    random_bits,
)


@dataclass(frozen=True)
class CommonWatermark:
    """The server's full watermark and the slice boundaries per client."""

    bits: np.ndarray
    boundaries: tuple  # len n_clients + 1, cumulative bit offsets

    def __post_init__(self):
        if self.boundaries[0] != 0 or self.boundaries[-1] != len(self.bits):
            raise ValueError("boundaries must start at 0 and end at the bit count")
        if any(b >= e for b, e in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("every slice must hold at least one bit")

    @property
    def n_clients(self) -> int:
        return len(self.boundaries) - 1

    def slice_bits(self, client_id: int) -> np.ndarray:
        return self.bits[self.boundaries[client_id] : self.boundaries[client_id + 1]]


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

    def indices(self) -> np.ndarray:
        return np.arange(self.region_start, self.region_stop)

    def matrix(self) -> np.ndarray:
        return cached_embedding_matrix(self.region_size, len(self.bits), self.matrix_seed)


def generate_common_watermark(total_bits: int, n_clients: int, seed: int) -> CommonWatermark:
    """Draw the server watermark and cut it into n contiguous slices of equal
    size, the last slice absorbing the remainder."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if total_bits < n_clients:
        raise ValueError(f"{total_bits} bits cannot give {n_clients} clients a slice each")
    base = total_bits // n_clients
    sizes = [base] * n_clients
    sizes[-1] += total_bits - base * n_clients
    boundaries = (0, *np.cumsum(sizes).tolist())
    return CommonWatermark(random_bits(total_bits, seed), boundaries)


def assign_slices(
    common: CommonWatermark, rep_param_count: int, region_size: int, seed: int
) -> list[SliceAssignment]:
    """Give client i the region [i * region_size, (i+1) * region_size) of the
    flattened representation. Regions are pairwise disjoint by construction."""
    n = common.n_clients
    if region_size < 1:
        raise ValueError("region_size must be positive")
    if n * region_size > rep_param_count:
        raise ValueError(
            f"{n} regions of {region_size} params exceed the {rep_param_count}-param representation"
        )
    assignments = []
    for i in range(n):
        assignments.append(
            SliceAssignment(
                client_id=i,
                bits=common.slice_bits(i),
                region_start=i * region_size,
                region_stop=(i + 1) * region_size,
                matrix_seed=derive_seed(seed, i),
            )
        )
    return assignments


def extract_slice(rep_flat: np.ndarray, assignment: SliceAssignment) -> np.ndarray:
    """Read a client's slice bits out of a flattened representation."""
    rep_flat = np.asarray(rep_flat, dtype=np.float64)
    if rep_flat.ndim != 1 or len(rep_flat) < assignment.region_stop:
        raise ValueError(
            f"representation of length {rep_flat.shape} does not cover region "
            f"[{assignment.region_start}, {assignment.region_stop})"
        )
    segment = rep_flat[assignment.region_start : assignment.region_stop]
    return extract_bits(segment, assignment.matrix())


def slice_loss_and_grad(rep_flat, assignment: SliceAssignment, bits=None, *, with_loss: bool = True):
    """Embedding loss of a slice (None unless `with_loss`) and its gradient over the region only.

    `bits` overrides the assignment's true slice (used by tampering clients);
    the returned gradient has region length and is zero-padded by callers.
    """
    rep_flat = np.asarray(rep_flat, dtype=np.float64)
    target = assignment.bits if bits is None else np.asarray(bits, dtype=np.uint8)
    if len(target) != len(assignment.bits):
        raise ValueError("override bits must match the slice length")
    segment = rep_flat[assignment.region_start : assignment.region_stop]
    return embedding_loss_and_grad(segment, assignment.matrix(), target, with_loss=with_loss)


def write_manifest(assignments: list[SliceAssignment], path) -> None:
    """One line per client: id, slice hex, slice bit length, region, seed."""
    with open(path, "w") as f:
        f.write("client_id,slice_hex,slice_bits,region_start,region_stop,matrix_seed\n")
        for a in assignments:
            f.write(
                f"{a.client_id},{bits_to_hex(a.bits)},{len(a.bits)},"
                f"{a.region_start},{a.region_stop},{a.matrix_seed}\n"
            )


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
