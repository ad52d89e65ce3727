"""One seeded stream of draws, owned by hklab.

``Stream(seed)`` gives, bit for bit, what ``np.random.default_rng(seed)``
gives for the three call forms the checks use: ``integers(low, high,
size)``, ``choice(n_or_array, k, replace=False)`` and ``choice(array,
size)``.  It seeds like ``SeedSequence(seed)``, advances PCG64 (the 128-bit
LCG with the XSL-RR output) and takes 32-bit words low half first, as numpy
buffers them.  The algorithms are written out here, so a report's sampled
balls, subsets, sign vectors and pairs do not move with numpy's version,
and a run never imports ``numpy.random``, whose ``secrets`` and ``hmac``
load OpenSSL.  Any other call form is refused with a ``ParameterError``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ParameterError

_M32 = 0xFFFF_FFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645     # PCG64's 128-bit LCG multiplier

# SeedSequence's hash constants, and its pool of four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# numpy's choice without replacement shuffles the tail of arange(population)
# above this population once k exceeds population // _TAIL_DIVISOR
_TAIL_POPULATION = 10_000
_TAIL_DIVISOR = 50

def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after ``PCG64(SeedSequence(seed))``."""
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, words = _INIT_B, []
    for i in range(8):                      # generate_state(4, np.uint64)
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    s0, s1, i0, i1 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    # pcg_setseq_128_srandom_r: from state 0 one step, add the seed, one step
    return ((inc + (s0 << 64 | s1)) * _MULT + inc) & _M128, inc


def _xsl_rr(state: int) -> int:
    rot = state >> 122
    x = (state >> 64 ^ state) & _M64
    return (x >> rot | x << (64 - rot)) & _M64


class Stream:
    """``np.random.default_rng(seed)``'s draws for the call forms the checks
    use; ``seed`` is a whole number >= 0 of any size."""

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ParameterError(f"seed must be a whole number >= 0, got {seed!r}")
        self._state, self._inc = _seed_state(int(seed))
        self._half: int | None = None       # the high word of the last output, not yet taken

    def _next64(self) -> int:
        self._state = (self._state * _MULT + self._inc) & _M128
        return _xsl_rr(self._state)

    def _next32(self) -> int:
        if self._half is not None:
            word, self._half = self._half, None
            return word
        out = self._next64()
        self._half = out >> 32
        return out & _M32

    def _bounded(self, top: int) -> int:
        """A draw in [0, top] by Lemire's method, as numpy's
        ``random_bounded_uint64`` makes it for a range below 2**32: the high
        half of w (top + 1) for the first word w whose low half reaches the
        threshold.  Every draw of the stream is made with it."""
        if top == 0:
            return 0
        excl = top + 1
        threshold = (_M32 - top) % excl
        m = self._next32() * excl
        while (m & _M32) < threshold:
            m = self._next32() * excl
        return m >> 32

    def integers(self, low: int, high: int, size, *, endpoint: bool = False) -> np.ndarray:
        """int64 draws from [low, high) in an array of shape ``size``, as
        numpy's ``Generator.integers`` makes them for a range below 2**32."""
        if endpoint:
            raise ParameterError("Stream.integers draws from [low, high) only; "
                                 "endpoint=True is not offered")
        low, high = operator.index(low), operator.index(high)
        if not 0 < high - low < 1 << 32:
            raise ParameterError(f"Stream.integers needs 0 < high - low < 2**32, "
                                 f"got [{low}, {high})")
        shape = (operator.index(size),) if np.ndim(size) == 0 else tuple(map(operator.index, size))
        if any(d < 0 for d in shape):
            raise ParameterError(f"negative size {shape}")
        top = high - low - 1
        values = np.array([self._bounded(top) for _ in range(math.prod(shape))], dtype=np.int64)
        return (values + low).reshape(shape)

    def choice(self, a, size: int, replace: bool = True, p=None) -> np.ndarray:
        """``size`` draws from the population ``a``: ``range(a)`` for a whole
        number, else the entries of a 1-D array or list, as numpy's
        ``Generator.choice`` makes them.  With replacement the draws are
        ``integers(0, len(a), size)``; without, Floyd's algorithm and then a
        shuffle, or above 10000 entries with ``size`` over a fiftieth of
        them, the tail of a shuffled ``arange``."""
        if p is not None:
            raise ParameterError("Stream.choice draws uniformly; p= is not offered")
        pool = None if np.ndim(a) == 0 else np.asarray(a)
        population = operator.index(a) if pool is None else len(pool)
        k = operator.index(size)
        if not 0 < population < 1 << 32:
            raise ParameterError(f"Stream.choice needs a population in 1..2**32 - 1, "
                                 f"got {population}")
        if k < 0:
            raise ParameterError(f"negative size {k}")
        if replace:
            idx = self.integers(0, population, k)
        elif k > population:
            raise ParameterError(f"cannot take {k} of {population} without replacement")
        elif population > _TAIL_POPULATION and k > population // _TAIL_DIVISOR:
            moved: dict[int, int] = {}      # the entries of the arange that the shuffle moved
            for i in range(population - 1, max(population - k, 1) - 1, -1):
                j = self._bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            idx = np.array([moved.get(i, i) for i in range(population - k, population)],
                           dtype=np.int64)
        else:
            chosen, drawn = set(), []
            for top in range(population - k, population):
                t = self._bounded(top)
                t = top if t in chosen else t
                chosen.add(t)
                drawn.append(t)
            for i in range(k - 1, 0, -1):
                j = self._bounded(i)
                drawn[i], drawn[j] = drawn[j], drawn[i]
            idx = np.array(drawn, dtype=np.int64)
        return idx if pool is None else pool[idx]
