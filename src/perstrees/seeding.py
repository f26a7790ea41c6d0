"""Deterministic seed derivation and generator construction.

All randomness in the package flows through numpy's PCG64 generator, seeded
either directly or through `derive_seed`, a stable hash of a master seed and
an arbitrary tuple of parts (ints or strings). blake2b makes the derivation
reproducible across platforms and Python versions, unlike `hash()`.
"""

import hashlib

import numpy as np

from .errors import _check_int

MAX_SEED = 2**63 - 1


def derive_seed(master, *parts):
    """Derive a child seed from a master seed and distinguishing parts.

    Args:
        master: integer master seed.
        *parts: ints or strings identifying the consumer (tree index,
            replication number, role tags...).

    Returns:
        A non-negative int in [0, 2^63 - 1], stable across runs.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big") % MAX_SEED


def make_rng(seed):
    """Build the package-standard generator for a seed, an integer >= 0."""
    return np.random.Generator(np.random.PCG64(_check_int("seed", seed, 0)))
