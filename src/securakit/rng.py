"""Counter-based random streams for reproducible parallel simulation.

Every uniform draw produced here is a pure function of four integers::

    (seed, trial, substream, index)  ->  u in (0, 1]

The mapping is the Philox-4x32-10 counter block cipher: the 64-bit seed is
the key, and the 128-bit counter packs the draw index (64 bits), the trial
number (32 bits) and a substream id (32 bits).  Because a draw does not
depend on any generator state, trials can be simulated in any order, split
across any number of workers, or re-derived one draw at a time, and every
bit of the output stays identical.

Draw ``index`` is made of words (x0, x1) of block ``index``; a pair draw
adds the double made of (x2, x3) of the same block.  The Monte Carlo walker
reads stream 2, jump w -> block w: hold (x0, x1), choice (x2, x3).

The core evaluates in bulk over numpy arrays; :class:`CounterRng` wraps a
single (seed, trial, substream) cell as a sequential stream whose scalar
draws run the same cipher on Python integers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_TWO_NEG_53 = 2.0 ** -53
_CHUNK = 1 << 16  # lanes per cipher pass (see _blocks)

SEED_BOUND = 2 ** 64
TRIAL_BOUND = 2 ** 32
SUBSTREAM_BOUND = 2 ** 32


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """One Philox-4x32-10 block per lane; returns the four words as uint64.

    The counter words ``c0..c3`` and key words ``k0, k1`` are unsigned
    integers below 2**32: scalars, or arrays that all have one shape.  A
    scalar key makes the key schedule scalar adds.  Lanes are held as
    uint64 words below 2**32, so each 32x32 -> 64-bit product needs no
    widening, and every update works in place on a fresh product.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3))
    k0 = np.asarray(k0, dtype=np.uint64)
    k1 = np.asarray(k1, dtype=np.uint64)
    for _ in range(10):
        p0 = c0 * _M0
        p1 = c2 * _M1
        c0 = p1 >> _S32
        c0 ^= c1
        c0 ^= k0
        c2 = p0 >> _S32
        c2 ^= c3
        c2 ^= k1
        p1 &= _U32
        p0 &= _U32
        c1, c3 = p1, p0
        k0 = (k0 + _W0) & _U32
        k1 = (k1 + _W1) & _U32
    return c0, c1, c2, c3


def _check_cell(seed: int, trial: int, substream: int) -> None:
    if not 0 <= seed < SEED_BOUND:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= trial < TRIAL_BOUND:
        raise DomainError(f"trial index must be in [0, 2**32), got {trial}")
    if not 0 <= substream < SUBSTREAM_BOUND:
        raise DomainError(f"substream id must be in [0, 2**32), got {substream}")


def _blocks(seed: int, trials, substream: int, counters, words: int) -> tuple[np.ndarray, ...]:
    """The first ``words`` doubles of block ``counters[i]`` of ``trials[i]``.

    ``trials`` and ``counters`` are broadcast-compatible integer arrays;
    each of the ``words`` arrays returned has their broadcast shape, and
    array k is made of block words (x2k, x2k+1).  A block is the same no
    matter how the request is batched, so the cipher runs over chunks of
    ``_CHUNK`` lanes: small enough for its temporaries to stay in a core's
    cache, and large enough that each numpy call outlasts a hand-over of
    the interpreter lock between worker threads.
    """
    if not 0 <= seed < SEED_BOUND:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= substream < SUBSTREAM_BOUND:
        raise DomainError(f"substream id must be in [0, 2**32), got {substream}")
    trials = np.asarray(trials, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    if trials.size and int(trials.max(initial=0)) >= TRIAL_BOUND:
        raise DomainError("trial index must be in [0, 2**32)")
    shape = np.broadcast_shapes(trials.shape, counters.shape)
    # lanes laid out flat; a scalar trial or counter stays a scalar
    trials, counters = (x if x.ndim == 0 else np.broadcast_to(x, shape).reshape(-1)
                        for x in (trials, counters))
    cell = (np.uint64(substream), np.uint64(seed & 0xFFFFFFFF), np.uint64(seed >> 32))
    u = np.empty((words, math.prod(shape)))
    for start in range(0, u.shape[1], _CHUNK):
        part = slice(start, start + _CHUNK)
        trial, counter = (x if x.ndim == 0 else x[part] for x in (trials, counters))
        x = _philox4x32(counter & _U32, counter >> _S32, trial, *cell)
        for k in range(words):
            # 53-bit mantissa shifted into (0, 1]: u = (bits >> 11 + 1) * 2**-53,
            # so u = 1 is reachable and u = 0 is not (safe under log transforms).
            hi = x[2 * k]
            hi <<= _S32
            hi |= x[2 * k + 1]
            hi >>= _S11
            hi += _ONE
            np.multiply(hi, _TWO_NEG_53, out=u[k, part])
    return tuple(row.reshape(shape) for row in u)


def uniform_block(seed: int, trials, substream: int, counters) -> np.ndarray:
    """Uniform (0, 1] doubles for draw ``counters[i]`` of ``trials[i]``.

    ``trials`` and ``counters`` are broadcast-compatible integer arrays;
    the result has their broadcast shape.  Draw k of a given
    (seed, trial, substream) cell is the same double no matter how the
    request is batched.
    """
    return _blocks(seed, trials, substream, counters, 1)[0]


def uniform_pairs(seed: int, trials, substream: int, counters) -> tuple[np.ndarray, np.ndarray]:
    """Both doubles of block ``counters[i]`` of ``trials[i]``: (x0, x1) and (x2, x3).

    The first array equals ``uniform_block`` of the same arguments; the
    second costs no further cipher rounds.
    """
    return _blocks(seed, trials, substream, counters, 2)


_MASK32 = 0xFFFFFFFF


def _uniform_pair_scalar(seed: int, trial: int, substream: int, counter: int) -> tuple[float, float]:
    """One block via pure-integer Philox; bit-identical to the array path.

    The block cipher is integer-exact, so evaluating it with Python ints
    yields the same 32-bit words as the numpy lanes, and the conversion to
    a double is an exact power-of-two scaling in both paths.
    """
    c0 = counter & _MASK32
    c1 = (counter >> 32) & _MASK32
    c2, c3 = trial, substream
    k0 = seed & _MASK32
    k1 = (seed >> 32) & _MASK32
    for _ in range(10):
        p0 = c0 * 0xD2511F53
        p1 = c2 * 0xCD9E8D57
        c0 = (p1 >> 32) ^ c1 ^ k0
        c2 = (p0 >> 32) ^ c3 ^ k1
        c1 = p1 & _MASK32
        c3 = p0 & _MASK32
        k0 = (k0 + 0x9E3779B9) & _MASK32
        k1 = (k1 + 0xBB67AE85) & _MASK32
    return (((((c0 << 32) | c1) >> 11) + 1) * _TWO_NEG_53,
            ((((c2 << 32) | c3) >> 11) + 1) * _TWO_NEG_53)


class CounterRng:
    """Sequential view of one (seed, trial, substream) counter cell.

    ``uniform()`` returns draw 0, 1, 2, ... of the cell; ``uniforms(n)``
    returns the next n draws in one vectorized call; ``uniform_pair()``
    returns both doubles of the next block.  All three advance the same
    counter by one per block and produce identical bits per counter value
    (a pair's first double is that block's draw), so mixed consumption
    stays reproducible.
    """

    __slots__ = ("seed", "trial", "substream", "_index")

    def __init__(self, seed: int, trial: int = 0, substream: int = 0):
        _check_cell(seed, trial, substream)
        self.seed = seed
        self.trial = trial
        self.substream = substream
        self._index = 0

    def uniform(self) -> float:
        """Next uniform double in (0, 1]."""
        return self.uniform_pair()[0]

    def uniform_pair(self) -> tuple[float, float]:
        """Both doubles of the next block, (x0, x1) then (x2, x3), each in (0, 1]."""
        pair = _uniform_pair_scalar(self.seed, self.trial, self.substream, self._index)
        self._index += 1
        return pair

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniform doubles in (0, 1] as one array."""
        if n < 0:
            raise DomainError(f"draw count must be >= 0, got {n}")
        counters = np.arange(self._index, self._index + n, dtype=np.uint64)
        self._index += n
        return uniform_block(self.seed, self.trial, self.substream, counters)

    @property
    def draws_used(self) -> int:
        """Number of blocks consumed so far (the next draw's counter value)."""
        return self._index
