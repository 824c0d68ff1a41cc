"""numpy's PCG64(SeedSequence(seed)).random_raw() word stream, computed here.

PCG64 is O'Neill's XSL-RR 128/64 generator (PCG, HMC-CS-2014-0905), and
NEP 19 fixes its raw stream.  This module computes that stream for the one
seed the package admits, an int in [0, 2^64), without importing
numpy.random.  The tests compare it with numpy's own generator.

- SeedSequence(seed) hashes the seed's one or two 32-bit words (low word
  first; 0 is one word) into a pool of four, with no spawn key, and
  generate_state(4, uint64) reads eight 32-bit words from the pool, paired
  little-endian into four 64-bit words w0..w3.
- PCG64 seeds from initstate = w0 w1 and initseq = w2 w3 (high word
  first): state 0, inc = 2 initseq + 1, one step, state += initstate, one
  more step.  A step is state = state x MULT + inc mod 2^128, and each
  output steps first, then returns rotr64(hi ^ lo, state >> 122).

Words come _WORD_BUFFER at a time, in numpy uint64 arithmetic, with no
Python int made per word: from the state s1 one step past the last word,
the state i steps further is A_i s1 + C_i mod 2^128, with A_i = MULT^i and
C_i = inc (MULT^0 + ... + MULT^(i-1)).  A_i and the geometric sums are the
same for every seed and are built once per process (128 KB).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# Words computed per refill, a power of two; buffering never changes the stream.
_WORD_BUFFER = 4096
_LOW32, _SHIFT32 = np.uint64(_M32), np.uint64(32)


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq) of PCG64(SeedSequence(seed)), seed an int in [0, 2^64)."""
    entropy = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    # At most two entropy words: the pool of four takes them all, zero-padded.
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])) & _M32
                pool[dst] = mixed ^ mixed >> 16
    hash_const, state = _INIT_B, []
    for value in pool * 2:  # generate_state: eight 32-bit words, cycling the pool
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    w0, w1, w2, w3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return w0 << 64 | w1, w2 << 64 | w3


def _mul_add(x: tuple, c: int, y: tuple) -> tuple:
    """x c + y mod 2^128, with x a (hi, lo) pair of uint64 arrays, y a pair
    of uint64 arrays or scalars, and c a Python int below 2^128.  The low
    word is one wrapping multiply; the high word adds the high half of
    lo x (c's low word), from 32-bit limbs, to two wrapping multiplies."""
    hi, lo = x
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _M64)
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = c_lo & _LOW32, c_lo >> _SHIFT32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    mulhi = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    out_lo = lo * c_lo + y[1]
    carry = out_lo < y[1]
    return mulhi + lo * c_hi + hi * c_lo + y[0] + carry, out_lo


@functools.cache
def _tables() -> tuple:
    """(MULT^i, S_i = sum of MULT^j for j < i) for i < _WORD_BUFFER, as
    (hi, lo) pairs.  Each doubling of the length m maps i to m + i:
    A_(m+i) = MULT^m A_i and S_(m+i) = S_m + MULT^m S_i."""
    one, zero = np.ones(1, np.uint64), np.zeros(1, np.uint64)
    a, s = (zero, one), (zero, zero)
    a_m, s_m = _MULT, 1  # MULT^m and S_m for the current length m
    while len(a[1]) < _WORD_BUFFER:
        a = tuple(map(np.concatenate, zip(a, _mul_add(a, a_m, (0, 0)))))
        s_next = _mul_add(s, a_m, (np.uint64(s_m >> 64), np.uint64(s_m & _M64)))
        s = tuple(map(np.concatenate, zip(s, s_next)))
        a_m, s_m = a_m * a_m & _M128, (s_m + a_m * s_m) & _M128
    return a, s


def raw_words(seed: int) -> Iterator[int]:
    """The random_raw words of PCG64(SeedSequence(seed)) as Python ints;
    seed is an int in [0, 2^64), checked by the caller."""
    initstate, initseq = _seed_state(seed)
    inc = (initseq << 1 | 1) & _M128
    state = ((initstate + inc) * _MULT + inc) & _M128  # 0 x MULT + inc, plus initstate, stepped
    powers, sums = _tables()
    offsets = _mul_add(sums, inc, (0, 0))  # C_i = inc S_i
    shift, mask = np.uint64(58), np.uint64(63)

    def refill() -> list[int]:
        nonlocal state
        hi, lo = _mul_add(powers, (state * _MULT + inc) & _M128, offsets)
        state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> shift
        return (x >> rot | x << (-rot & mask)).tolist()

    return itertools.chain.from_iterable(iter(refill, None))
