"""Deterministic random streams for reproducible Monte Carlo runs.

All randomness flows through counter-based Philox generators keyed by a
master seed plus an integer path, so any work unit (one channel realization,
one frame's control link) can be regenerated in isolation. Serial and
parallel executions of the same experiment therefore consume identical
streams and produce identical results.

Stream domains used by the experiment runners:
  0 -> channel sampling, path (0, realization, user)
  1 -> control-link drops, path (1, realization)
  2 -> ``wptdas tdma``: every round's channel redraws and every control-link
       drop, in run order, from the single stream of path (2,)
"""

import numpy as np

DOMAIN_CHANNEL = 0
DOMAIN_LINK = 1
DOMAIN_TDMA = 2


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (master_seed, path).

    The same (seed, path) always yields the same stream; distinct paths are
    statistically independent.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
