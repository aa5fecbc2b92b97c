"""Deterministic seed derivation.

Every source of randomness in a run is keyed by the master seed plus a
stream id (and, where relevant, client id and round index), so toggling one
feature never shifts the random draws of another.

`derive_seed` gives one key's child seed, and a run's set-up draws from
`np.random.default_rng` of it. The per-client draws of a round take a
vectorized path instead: `derive_seeds` hashes every client's key at once,
and `seeded_generators` sets one shared generator, in turn, to the state
where `default_rng` of each child seed starts. Both port numpy's
SeedSequence hash and PCG64's seeding to whole arrays, bit for bit, so a
draw is the one `default_rng(derive_seed(...))` would give.
"""

import functools

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), its pool
# of four 32-bit words, and PCG64's 128-bit multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_words(entropy: list, n_words: int) -> list:
    """SeedSequence(entropy).generate_state(n_words, np.uint32) for K keys
    at once: `entropy` holds each entropy word as a (K,) uint32 array. The
    hash constants depend on no input, so they stay Python ints, and uint32
    arithmetic wraps as the C code's does."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # a pool longer than the entropy hashes zero words in its place
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ (value >> 16))
    return out


def _uint64(lo, hi) -> np.ndarray:
    """The uint64 words of two little-endian uint32 halves."""
    return lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)


def derive_seeds(*parts) -> np.ndarray:
    """`derive_seed` of many keys at once, as a uint64 array: each part is
    an int, or a 1-d array of ints below 2**32, one per key, of one length
    for every array part. Key i holds entry i of each array part."""
    count = next((len(p) for p in parts if np.ndim(p)), None)
    if count is None:
        raise ValueError("derive_seeds needs an array key part; derive_seed takes a single key")
    entropy = []
    for part in parts:
        if not np.ndim(part):
            part = int(part)
            if part < 0:
                raise ValueError(f"seed key parts must be non-negative, got {part}")
            # SeedSequence splits an int into little-endian 32-bit words; 0 is one word
            words = [part & _MASK32]
            while part := part >> 32:
                words.append(part & _MASK32)
            entropy += [np.full(count, w, dtype=np.uint32) for w in words]
            continue
        part = np.asarray(part)
        if part.shape != (count,) or (count and part.dtype.kind not in "iu"):
            raise ValueError(f"array key parts must be 1-d ints of one length, got {part.dtype} {part.shape}")
        if count and (part.min() < 0 or part.max() > _MASK32):
            raise ValueError("array key parts must lie in [0, 2**32)")
        entropy.append(part.astype(np.uint32))
    return _uint64(*_hash_words(entropy, 2))


@functools.cache
def _shared_generator():
    """The one Generator that `seeded_generators` re-seeds. Built on first
    use: importing fedmark loads no numpy.random."""
    return np.random.Generator(np.random.PCG64(0))


def seeded_generators(seeds):
    """For each child seed, the shared Generator set to the state where
    `np.random.default_rng(seed)` starts, yielded in order. Every item is
    the same object: take all of one seed's draws before the next.

    default_rng seeds PCG64 from SeedSequence(seed): its entropy is the
    seed's two 32-bit words, as a seed below 2**32 is one word and the pool
    pads it with zeros; the hash gives PCG64's initial state and increment.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = _hash_words([(seeds & np.uint64(_MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)], 8)
    # PCG64 reads four uint64 words: the state's high and low halves, then the increment's
    halves = [_uint64(lo, hi).tolist() for lo, hi in zip(words[::2], words[1::2])]
    generator = _shared_generator()
    bit_generator = generator.bit_generator
    for state_hi, state_lo, inc_hi, inc_lo in zip(*halves):
        # pcg64_set_seed: inc = 2 * initseq + 1, then step, add the initial state, step
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator
