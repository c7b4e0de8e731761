"""Deterministic seeded random streams.

Every stochastic component in the package draws from an explicit RngStream.
A stream is a value, not a stateful object: drawing never mutates it, so the
k-th draw of a given (seed, stream_index) is the same in every run.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

_U64 = 2**64
# 52 random bits per uniform; a power-of-two range keeps the draw at exactly
# one generator word per element, which the nested-prefix property relies on.
_UNIFORM_BITS = 52


def check_int(value, name: str, low: int | None = 0) -> int:
    """value as an int, if it is an integer (numpy's too, never a bool) of
    at least low, when low is given; otherwise ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_float(value, name: str, *, above=None, at_least=None, below=None, at_most=None) -> float:
    """value as a float, if it is a number (an int, a float or a numpy real,
    never a bool or a string) whose float is finite and within every bound
    given; otherwise ValueError naming the field."""
    number = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    for bound, op, holds in ((above, ">", operator.gt), (at_least, ">=", operator.ge),
                             (below, "<", operator.lt), (at_most, "<=", operator.le)):
        if bound is not None and not holds(number, bound):
            raise ValueError(f"{name} must be {op} {bound}, got {value}")
    return number


def check_list(value, name: str) -> tuple:
    """value as a tuple, if it is a list (a Python list or tuple, or a 1-d
    numpy array; never a string or a scalar); otherwise ValueError naming
    the field."""
    if not (isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def check_int_array(value, name: str) -> np.ndarray:
    """value as an int64 array, if its dtype is an integer dtype (never
    bool) or it is empty; otherwise ValueError naming the field."""
    array = np.asarray(value)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    return array.astype(np.int64)


def check_seed(value, name: str = "seed") -> int:
    """value as an int, if it is an integer in [0, 2**64)."""
    if not 0 <= check_int(value, name, low=None) < _U64:
        raise ValueError(f"{name} must fit in u64, got {value}")
    return int(value)


def derive_seed(master_seed: int, *labels) -> int:
    """Mix a master seed and a label path into a fresh 64-bit seed.

    blake2b over the decimal-rendered seed and labels, so derived seeds are
    stable across platforms and process restarts.
    """
    key = ":".join([str(check_seed(master_seed, "master_seed"))] + [str(lab) for lab in labels])
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class RngStream:
    """Named substream of a 64-bit master seed.

    Stream k of seed sigma feeds PCG64 through SeedSequence(sigma,
    spawn_key=(k,)), numpy's documented entropy mix. Identical
    (seed, stream_index) pairs yield identical draw sequences.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        check_int(self.stream_index, "stream_index")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream_index),))
        return np.random.Generator(np.random.PCG64(ss))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform float64 draws on the open interval (0, 1).

        Draws k from [0, 2**52) and returns (2k + 1) / 2**53: odd multiples
        of 2**-53, so exact 0.0 and 1.0 never occur, every value is exactly
        representable, and the set is symmetric about 0.5.
        """
        k = self.generator().integers(0, 1 << _UNIFORM_BITS, size=check_int(n, "n"), dtype=np.int64)
        return (2 * k + 1) * (2.0**-53)

    def indices(self, n: int, upper: int) -> np.ndarray:
        """n indices uniform on [0, upper), one uniform word per index.

        Scaled from the uniform stream, so a longer draw extends a shorter
        one element for element (prefix property).
        """
        check_int(upper, "upper", 1)
        u = self.uniforms(n)
        return np.minimum((u * upper).astype(np.int64), upper - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Seeded permutation of range(n), derived by sorting uniforms."""
        return np.argsort(self.uniforms(n), kind="stable")
