"""Deterministic seed derivation.

Every random stream in the project is seeded from a single master seed via
``derive_seed``.  The mixing function is splitmix64, chosen because it is
trivially portable: any implementation that follows the recurrence below
produces the same child seeds.

    h = master
    for part in parts:
        h = splitmix64(h XOR part)        (all arithmetic mod 2**64)

    splitmix64(x):
        x = x + 0x9E3779B97F4A7C15
        x = (x XOR (x >> 30)) * 0xBF58476D1CE4E5B9
        x = (x XOR (x >> 27)) * 0x94D049BB133111EB
        return x XOR (x >> 31)
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def check_master_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` lies in [0, 2**64).

    ``derive_seed`` reduces a master seed mod 2**64, so a seed outside that
    range would train like its residue under a different config hash.
    """
    if not 0 <= seed <= MASK64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {seed}")


def derive_seed(master: int, *parts: int) -> int:
    """Derive a child seed from ``master`` and one or more integer labels.

    Typical labels are (agent_id, episode_idx) or (episode_seed, stream_tag).
    The result is a uint64 suitable for ``numpy.random.PCG64``.
    """
    h = master & MASK64
    for p in parts:
        h = splitmix64(h ^ (int(p) & MASK64))
    return h
