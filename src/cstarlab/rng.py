"""Reproducible randomness: Philox streams keyed by a SplitMix64 mix.

Every Monte-Carlo trial in this package draws from its own counter-based
Philox stream whose key is `mix64(seed, trial_index)`.  Because the key is
a pure function of (seed, index), results are bitwise reproducible no
matter how trials are scheduled or batched, and extending a stream (asking
for more variates) never changes the variates already produced.

The mixing function is the SplitMix64 finaliser applied to
(seed + (index + 1) * GOLDEN_GAMMA) mod 2^64, with the usual constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.

A stream is built from its key alone.  numpy's `Philox(key=k)` still seeds
a throwaway `SeedSequence` from OS entropy, so `stream` hands Philox the
key through `_Key`, a seed sequence whose only state is the key: Philox
starts from exactly the state `Philox(key=k)` gives (key `[k, 0]`, counter
0, empty buffer), and no entropy is drawn.  Streams are keyed, not
spawned: `spawn` on a stream raises TypeError, and a sub-stream is
another (seed, index) pair.

Keys are integers: `mix64` reads its seed and index by `_integer`, the
package's one integer rule, which takes Python and numpy integers and
refuses floats, strings and bools.  No key is truncated: `stream(2.9)` is
an error, not `stream(2)`.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
#: Philox's starting counter as four words: numpy splits an int counter into
#: words in a Python loop, which costs about a third of an open
_COUNTER0 = np.zeros(4, np.uint64)
_COUNTER0.flags.writeable = False


class NotAnIntegerError(TypeError, ValueError):
    """A value that must be an integer is not one; both a TypeError and a
    ValueError, so each caller of `_integer` keeps its documented exception."""


def _integer(value, message: str = "stream keys must be integers", got: str | None = None) -> int:
    """`value` as a Python int by `operator.index`, bools refused (some numpy
    versions let `operator.index` read a numpy bool as 0 or 1); anything else
    raises NotAnIntegerError(f"{message}, got {got or repr(value)}")."""
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise NotAnIntegerError(f"{message}, got {got or repr(value)}")


def mix64(seed: int, index: int = 0) -> int:
    """SplitMix64 finaliser of seed advanced by (index + 1) gammas."""
    z = (_integer(seed) + (_integer(index) + 1) * GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _Key:
    """A 64-bit Philox key posing as numpy's `ISeedSequence`.

    Philox asks its seed sequence for two 64-bit words and uses them as its
    128-bit key; this one answers `[key, 0]`.  It is registered with
    `ISeedSequence` by `_random`, so that importing this module does not
    load `numpy.random`.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return np.array([self.key, 0], dtype=np.uint64)


@functools.cache
def _random():
    """`numpy.random` with `_Key` registered as a seed sequence; loaded at the
    first stream, not at import."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_Key)
    return np.random


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """The Philox stream for trial `index` under the master `seed`: the
    generator of `Philox(key=mix64(seed, index))`, built without OS entropy."""
    random = _random()
    return random.Generator(random.Philox(_Key(mix64(seed, index)), counter=_COUNTER0))
