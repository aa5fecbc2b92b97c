"""Deterministic seed derivation.

Every source of randomness in a run is keyed by the master seed plus a
stream id (and, where relevant, client id and round index), so toggling one
feature never shifts the random draws of another.
"""

import numpy as np

# Stream ids. Keep values stable: they are part of the reproducibility
# contract for saved runs.
STREAM_INIT = 0
STREAM_DATA = 1
STREAM_PARTITION = 2
STREAM_PRIVATE_BITS = 3
STREAM_PRIVATE_MATRIX = 4
STREAM_COMMON_WATERMARK = 5
STREAM_SLICE_ASSIGN = 6
STREAM_SAMPLING = 7
STREAM_LOCAL_BATCHES = 8
STREAM_TAMPER = 9
STREAM_MALICIOUS_SELECT = 10
# Id 11 stays reserved: benchmark/workloads.py derives its fine-tune seeds from it.


def derive_seed(*parts: int) -> int:
    """Mix integer key parts into a single child seed.

    Uses numpy's SeedSequence hashing, which is stable across platforms and
    releases, so (master_seed, stream, client, round) keys always map to the
    same child seed.
    """
    if not parts:
        raise ValueError("derive_seed needs at least one key part")
    if any(p < 0 for p in parts):
        raise ValueError(f"seed key parts must be non-negative, got {parts}")
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])
