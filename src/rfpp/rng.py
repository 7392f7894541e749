"""Counter-based deterministic random number generation.

Every random quantity in this package is a pure function of a 64-bit master
seed and a tuple of integer stream words (replica index, lattice coordinates,
bond axis, channel, ...).  There is no generator state: the draw for a given
key is always the same, across runs, platforms and worker counts.

The generator is the SplitMix64 finalizer (Steele, Lea and Flood 2014; also
the Murmur3 fmix64 constants) applied to a running 64-bit accumulator:

    h_0 = (seed + GOLDEN) mixed once
    h_i = mix64(h_{i-1} + GOLDEN * w_i)        for each key word w_i
    mix64(z): z ^= z >> 33; z *= 0xff51afd7ed558ccd;
              z ^= z >> 33; z *= 0xc4ceb9fe1a85ec53; z ^= z >> 33

all arithmetic modulo 2**64.  Uniforms take the top 53 bits, centered on the
half-grid so they never hit 0 or 1:

    u = ((h >> 11) + 0.5) * 2**-53      in (0, 1)

Standard normals use Box-Muller on two uniforms drawn with salt words 0, 1.
``normal`` hashes the key once and finishes it twice, as mix64(h) (salt 0,
since GOLDEN * 0 = 0) and mix64(h + GOLDEN) (salt 1): the same draws as the
spec above, with one hash of the key instead of two.  The exact algorithm is
spelled out here so results can be reproduced in any language.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)
_TWO_NEG53 = 2.0 ** -53


def _mix64(z):
    """SplitMix64/Murmur3 finalizer, in place on a uint64 array the generator
    allocated itself (never on a caller's array); a scalar is rebound."""
    z ^= z >> _S33
    z *= _MIX1
    z ^= z >> _S33
    z *= _MIX2
    z ^= z >> _S33
    return z


def _as_u64(w):
    """Reinterpret integers (possibly negative, possibly arrays) as uint64."""
    if isinstance(w, (int, np.integer)):
        return np.uint64(int(w) & 0xFFFFFFFFFFFFFFFF)
    a = np.asarray(w)
    if a.dtype == np.uint64:
        return a
    # a view, not a copy, of int64 words: callers never write to the result
    return a.astype(np.int64, copy=False).view(np.uint64)


def hash_words(seed, *words):
    """64-bit hash of (seed, words...).  Words may be scalars or broadcastable
    integer arrays; negative values are taken as two's complement."""
    with np.errstate(over="ignore"):
        # every sum is a fresh array, so the caller's seed and words are
        # never mixed in place
        h = _mix64(_as_u64(seed) + _GOLDEN)
        for w in words:
            h = _mix64(h + _GOLDEN * _as_u64(w))
    return h


def _unit(h):
    """Top 53 bits of a generator-owned hash as a uniform on the open
    interval (0, 1); h is shifted in place."""
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= _TWO_NEG53
    return u


def uniform(seed, *words):
    """Deterministic uniform draw in the open interval (0, 1)."""
    return _unit(hash_words(seed, *words))


def normal(seed, *words):
    """Deterministic standard normal draw (Box-Muller, salt words 0 and 1).

    The key is hashed once; u1 and u2 equal uniform(seed, *words, 0) and
    uniform(seed, *words, 1) bit for bit.
    """
    h = hash_words(seed, *words)
    with np.errstate(over="ignore"):
        salt1 = h + _GOLDEN
        u1 = _unit(_mix64(h))
        u2 = _unit(_mix64(salt1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_seed(master, index):
    """Child seed for an independent stream (replica, experiment stage, ...)."""
    return int(hash_words(master, index, 0x5EED))
