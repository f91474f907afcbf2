"""Deterministic random streams for reproducible Monte Carlo runs.

All randomness flows through counter-based Philox generators keyed by a
master seed plus an integer path, so any work unit (one channel realization,
one frame's control link) can be regenerated in isolation. Serial and
parallel executions of the same experiment therefore consume identical
streams and produce identical results.

Stream domains used by the experiment runners:
  0 -> channel sampling, path (0, realization, user)
  1 -> control-link drops, path (1, realization)
  2 -> TDMA runs (``run_tdma``): every round's channel redraws and every control-link
       drop, in run order, from the single stream of path (2,)

The sweeps draw their domain-0 and domain-1 streams in batches: a sweep block
keys all of its streams of one domain in one :func:`substream_keys` call and
draws them in one :func:`keyed_draws` call. They are the streams
:func:`substream` returns, so seeds keep their meaning.
"""

import numpy as np

from .errors import ValidationError

DOMAIN_CHANNEL = 0
DOMAIN_LINK = 1
DOMAIN_TDMA = 2

# numpy SeedSequence's hashes (initial constant, multiplier) and pool mixing
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (master_seed, path).

    The same (seed, path) always yields the same stream; distinct paths are
    statistically independent.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def _hashmix(words: np.ndarray, const: int, mult: int):
    """SeedSequence's hashmix of ``words`` (..., 4) uint32, and the next constant."""
    c = [const * pow(mult, i, 2 ** 32) % 2 ** 32 for i in range(5)]
    out = (words ^ np.array(c[:4], np.uint32)) * np.array(c[1:], np.uint32)
    return out ^ (out >> 16), c[4]


def substream_keys(master_seed: int, *path) -> np.ndarray:
    """Philox keys (*shape, 2) of the streams that ``path`` names, its ints and
    integer arrays broadcast to ``shape``; from the first array on, every
    element must fit 32 bits. Each key is the one :func:`substream` hands to
    Philox, ``SeedSequence(master_seed, spawn_key=p).generate_state(2, np.uint64)``.
    The hash constants do not depend on the data, so SeedSequence mixes the
    scalar words once and each array word is mixed in one pass over its
    elements, the pool's four words on a last axis."""
    first = next((i for i, p in enumerate(path) if np.ndim(p)), len(path))
    ss = np.random.SeedSequence(master_seed, spawn_key=path[:first])
    # the pool took 4 hash steps to fill, 12 to mix, and 4 per entropy word past 4
    words = [max(1, -(-int(x).bit_length() // 32)) for x in (master_seed, *path[:first])]
    steps = 16 + 4 * (max(words[0] - 4, 0) + sum(words[1:]))
    const, pool = _INIT_A * pow(_MULT_A, steps, 2 ** 32) % 2 ** 32, ss.pool
    for p in path[first:]:
        word = np.asarray(p)
        if word.dtype.kind not in "iu" or word.size and (word.min() < 0 or word.max() >= 2 ** 32):
            raise ValidationError("stream path arrays must hold integers in 0..2**32-1")
        hashed, const = _hashmix(word.astype(np.uint32)[..., None], const, _MULT_A)
        mixed = _MIX_L * pool - _MIX_R * hashed
        pool = mixed ^ (mixed >> 16)
    state = _hashmix(pool, _INIT_B, _MULT_B)[0].astype(np.uint64)
    return state[..., 0::2] | state[..., 1::2] << np.uint64(32)


def keyed_draws(keys: np.ndarray, method: str, out: np.ndarray) -> np.ndarray:
    """Fill ``out[i]`` with ``Generator.<method>`` draws from the stream of
    ``keys[i]``, in C order, and return ``out``. One Philox serves every key,
    reset before each fill to a fresh :func:`substream`'s state. That state
    is held in Python ints, which the Philox state setter reads faster than
    numpy scalars: per key, one reset and one fill call."""
    bitgen = np.random.Philox(0)
    draw = getattr(np.random.Generator(bitgen), method)
    state = bitgen.state  # counter 0, empty buffer, no cached uint32: only the key differs
    fresh = dict(state, buffer=state["buffer"].tolist(),
                 state={"counter": state["state"]["counter"].tolist(), "key": None})
    rows = out.reshape(-1, *out.shape[keys.ndim - 1:])
    for key, row in zip(keys.reshape(-1, 2).tolist(), rows):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        draw(out=row)
    return out
