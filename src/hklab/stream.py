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

import functools
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

# below this many 64-bit outputs a Python loop is quicker than a block fill;
# a block fill jumps ahead _BLOCK states at a time, and a bulk draw takes
# _CHUNK words at a time, so it holds a few arrays of that size beside its output
_BULK = 256
_BLOCK = 1 << 13
_CHUNK = 1 << 17


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


# 128-bit arithmetic on arrays of numbers mod 2**128, as (high, low) uint64 limbs

def _mul(hi, lo, y: int):
    """(hi, lo) * y mod 2**128, for a Python int y."""
    y_lo, y_hi = y & _M64, y >> 64
    x0, x1 = lo & _M32, lo >> 32
    y0, y1 = np.uint64(y_lo & _M32), np.uint64(y_lo >> 32)
    t = x0 * y0
    u = x1 * y0 + (t >> 32)
    v = x0 * y1 + (u & _M32)
    carry = x1 * y1 + (u >> 32) + (v >> 32)         # the high half of lo * y_lo
    return carry + hi * np.uint64(y_lo) + lo * np.uint64(y_hi), lo * np.uint64(y_lo)


def _add(hi, lo, y_hi, y_lo):
    low = lo + y_lo
    return hi + y_hi + (low < lo).astype(np.uint64), low


@functools.cache
def _jump_tables():
    """(a^k, sum of a^i for i < k) for k = 1.._BLOCK, as read-only limbs: the
    state k steps on from s is a^k s + (sum of a^i) inc.  Built by doubling
    on the first block fill, and kept (256 kB): a shorter fill reads a prefix."""
    size = _BLOCK
    a_hi, a_lo, c_hi, c_lo = tables = tuple(np.empty(size, dtype=np.uint64) for _ in range(4))
    a_hi[0], a_lo[0], c_hi[0], c_lo[0] = _MULT >> 64, _MULT & _M64, 0, 1
    a_m, c_m, m = _MULT, 1, 1                         # a^m and its sum, m filled
    while m < size:
        k = min(m, size - m)
        a_hi[m:m + k], a_lo[m:m + k] = _mul(a_hi[:k], a_lo[:k], a_m)
        c_hi[m:m + k], c_lo[m:m + k] = _add(*_mul(c_hi[:k], c_lo[:k], a_m),
                                            np.uint64(c_m >> 64), np.uint64(c_m & _M64))
        c_m = (c_m + a_m * c_m) & _M128
        a_m = a_m * a_m & _M128
        m += k
    for table in tables:
        table.flags.writeable = False
    return tables


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

    def _raw(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs."""
        if count < _BULK:
            return np.array([self._next64() for _ in range(count)], dtype=np.uint64)
        size = min(_BLOCK, 1 << (count - 1).bit_length())
        a_hi, a_lo, c_hi, c_lo = (table[:size] for table in _jump_tables())
        d_hi, d_lo = _mul(c_hi, c_lo, self._inc)
        out = np.empty(count, dtype=np.uint64)
        for start in range(0, count, size):
            hi, lo = _add(*_mul(a_hi, a_lo, self._state), d_hi, d_lo)
            take = min(size, count - start)
            x, rot = hi ^ lo, hi >> 58
            out[start:start + take] = (x >> rot | x << ((64 - rot) & 63))[:take]
            self._state = int(hi[take - 1]) << 64 | int(lo[take - 1])
        return out

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words, as uint64."""
        out = np.empty(count, dtype=np.uint64)
        first = 0
        if count and self._half is not None:
            out[0], self._half, first = self._half, None, 1
        need = count - first
        raw = self._raw((need + 1) // 2)
        out[first:] = np.stack((raw & _M32, raw >> 32), axis=1).ravel()[:need]
        if need % 2:
            self._half = int(raw[-1] >> 32)
        return out

    def _lemire(self, top: int, count: int) -> np.ndarray:
        """``count`` int64 draws in [0, top], by the rule of :meth:`_bounded`:
        each word w is kept when the low half of w (top + 1) reaches
        (2**32 - top - 1) mod (top + 1), and the next word is taken when it
        does not."""
        out = np.zeros(count, dtype=np.int64)
        excl = top + 1
        threshold = (_M32 - top) % excl
        got = 0
        while top and got < count:
            m = self._words(min(count - got, _CHUNK)) * np.uint64(excl)
            kept = m[(m & _M32) >= threshold] >> 32
            out[got:got + kept.size] = kept
            got += kept.size
        return out

    def _bounded(self, top: int) -> int:
        """A draw in [0, top] by Lemire's method, as numpy's
        ``random_bounded_uint64`` makes it for a range below 2**32: the high
        half of w (top + 1) for the first word w whose low half reaches the
        threshold.  Floyd's algorithm and both shuffles draw with it."""
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
        values = self._lemire(high - low - 1, math.prod(shape))
        values += low
        return values.reshape(shape)

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
