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

One round function, :func:`_philox4x32`, serves scalar and bulk draws: the
bulk draws run it over numpy uint64 arrays, and :class:`CounterRng`, which
wraps a single (seed, trial, substream) cell as a sequential stream, runs
it on Python ints for its scalar draws, with the same words.
"""

from __future__ import annotations

import math
from operator import index

import numpy as np

from .errors import DomainError

_U32 = 0xFFFFFFFF
_TWO_NEG_53 = 2.0 ** -53
_CHUNK = 1 << 14  # lanes per cipher pass (see _blocks)

SEED_BOUND = 2 ** 64
TRIAL_BOUND = 2 ** 32
SUBSTREAM_BOUND = 2 ** 32
COUNTER_BOUND = 2 ** 64


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """One Philox-4x32-10 block per lane; returns the four words.

    The counter words ``c0..c3`` and key words ``k0, k1`` are integers
    below 2**32: Python ints, or uint64 arrays that all have one shape.
    The rounds use only ``*``, ``>>``, ``^``, ``&`` and ``+`` against
    Python int constants, which give the same words on Python ints as on
    uint64 lanes: a 32x32 -> 64-bit product needs no widening in either.
    So this one function serves the scalar draws of :class:`CounterRng`,
    on Python ints, and the bulk draws of :func:`_blocks`, on arrays,
    where every update works in place on a fresh product.  A word is
    never a numpy integer scalar: numpy < 2 promotes a uint64 scalar
    combined with a Python int to float64.
    """
    for _ in range(10):
        p0 = c0 * 0xD2511F53
        p1 = c2 * 0xCD9E8D57
        c0 = p1 >> 32
        c0 ^= c1
        c0 ^= k0
        c2 = p0 >> 32
        c2 ^= c3
        c2 ^= k1
        p1 &= _U32
        p0 &= _U32
        c1, c3 = p1, p0
        k0 = (k0 + 0x9E3779B9) & _U32
        k1 = (k1 + 0xBB67AE85) & _U32
    return c0, c1, c2, c3


def _lanes(values, bound: int, what: str) -> np.ndarray:
    """``values`` as uint64, once each one is checked to be an integer in [0, ``bound``).

    Only integer arrays and scalars pass: a float is not truncated to an
    index.  A Python int outside the int64 and uint64 ranges, which numpy
    holds as an object, fails the bound check.
    """
    v = np.asarray(values)
    if v.dtype.kind in "iu":
        # an unsigned array holds no negative entry, so only its largest needs a pass
        low = 0 if v.dtype.kind == "u" else v.min(initial=0)
        high = v.max(initial=0)
    elif v.dtype.kind == "O" and isinstance(values, int):
        low = high = values
    else:
        raise DomainError(f"{what} must be an integer, got {v.dtype} values")
    if low < 0 or high >= bound:
        raise DomainError(f"{what} must be in [0, 2**{bound.bit_length() - 1}), "
                          f"got {low if low < 0 else high}")
    return v.astype(np.uint64, copy=False)


def _check_cell(seed: int, trials, substreams) -> tuple[int, np.ndarray, np.ndarray]:
    """``seed`` as a Python int, and ``trials`` and ``substreams`` as uint64, once the cell bounds are checked.

    ``trials`` and ``substreams`` are scalars or arrays; any entry outside
    [0, 2**32), like a seed that is not an integer in [0, 2**64), raises
    ``DomainError``.  The cipher takes the seed as a Python int, never as a
    numpy integer (see :func:`_philox4x32`).
    """
    try:
        seed = index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < SEED_BOUND:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    return (seed, _lanes(trials, TRIAL_BOUND, "trial index"),
            _lanes(substreams, SUBSTREAM_BOUND, "substream id"))


def _blocks(seed: int, trials, substreams, counters, words: int) -> tuple[np.ndarray, ...]:
    """The first ``words`` doubles of block ``counters[i]`` of cell (seed, trials[i], substreams[i]).

    ``trials``, ``substreams`` and ``counters`` are broadcast-compatible
    integer arrays or scalars; each of the ``words`` arrays returned has
    their broadcast shape, and array k is made of block words (x2k, x2k+1).
    Each counter, like each cell, is checked: one outside [0, 2**64) or
    that is not an integer raises ``DomainError``.  A counter array of
    shape (depth, 1) against n trials draws blocks c .. c + depth - 1 of
    each trial, one row per block; an array of one entry costs no more
    than a scalar.  A block is the same no matter how the request is
    batched, so the cipher runs over chunks of ``_CHUNK`` lanes.  A
    chunk's working set is about eight uint64 words per lane (the counter
    words, two products and the outputs), 1 MiB at 2**14 lanes, which
    stays in one core's L2 cache where 2**16 lanes (4 MiB) spill to L3:
    on a Xeon VM with 2 MiB of L2 per core, a block took about 45 ns at
    2**14 or 2**15 lanes and 62 ns at 2**16 (Python 3.11, numpy 2.4).
    Each worker process runs the cipher on its own core, so no chunk has
    to outlast a hand-over of the interpreter lock, and a chunk is still
    long enough that its hundred or so numpy calls cost far less than
    their arithmetic.
    """
    seed, trials, substreams = _check_cell(seed, trials, substreams)
    counters = _lanes(counters, COUNTER_BOUND, "draw index")
    shape = np.broadcast_shapes(trials.shape, substreams.shape, counters.shape)
    # lanes laid out flat; a trial, substream or counter of one entry becomes a Python int
    lanes = [x.item() if x.size == 1 else np.broadcast_to(x, shape).reshape(-1)
             for x in (trials, substreams, counters)]
    u = np.empty((words, math.prod(shape)))
    for start in range(0, u.shape[1], _CHUNK):
        part = slice(start, start + _CHUNK)
        trial, substream, counter = (x if isinstance(x, int) else x[part] for x in lanes)
        x = _philox4x32(counter & _U32, counter >> 32, trial, substream, seed & _U32, seed >> 32)
        for k in range(words):
            # 53-bit mantissa shifted into (0, 1]: u = (bits >> 11 + 1) * 2**-53,
            # so u = 1 is reachable and u = 0 is not (safe under log transforms).
            hi = x[2 * k]
            hi <<= 32
            hi |= x[2 * k + 1]
            hi >>= 11
            hi += 1
            np.multiply(hi, _TWO_NEG_53, out=u[k, part])
    return tuple(row.reshape(shape) for row in u)


def uniform_block(seed: int, trials, substreams, counters) -> np.ndarray:
    """Uniform (0, 1] doubles for draw ``counters[i]`` of cell (seed, ``trials[i]``, ``substreams[i]``).

    ``trials``, ``substreams`` and ``counters`` are broadcast-compatible
    integer arrays or scalars; the result has their broadcast shape.  Draw
    k of a given (seed, trial, substream) cell is the same double no
    matter how the request is batched.
    """
    return _blocks(seed, trials, substreams, counters, 1)[0]


def uniform_pairs(seed: int, trials, substreams, counters) -> tuple[np.ndarray, np.ndarray]:
    """Both doubles of block ``counters[i]`` of cell i: (x0, x1) and (x2, x3).

    The first array equals ``uniform_block`` of the same arguments; the
    second costs no further cipher rounds.
    """
    return _blocks(seed, trials, substreams, counters, 2)


def _uniform_pair_scalar(seed: int, trial: int, substream: int, counter: int) -> tuple[float, float]:
    """Both doubles of one block, from the cipher run on Python ints; the bits of :func:`uniform_pairs`."""
    x0, x1, x2, x3 = _philox4x32(counter & _U32, counter >> 32, trial, substream, seed & _U32, seed >> 32)
    return ((((x0 << 32) | x1) >> 11) + 1) * _TWO_NEG_53, ((((x2 << 32) | x3) >> 11) + 1) * _TWO_NEG_53


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
        self.seed, trial, substream = _check_cell(seed, trial, substream)
        # Python ints, as the scalar cipher needs them
        self.trial, self.substream = trial.item(), substream.item()
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
        try:
            n = index(n)
        except TypeError:
            raise DomainError(f"draw count must be an integer, got {n!r}") from None
        if n < 0:
            raise DomainError(f"draw count must be >= 0, got {n}")
        counters = np.arange(self._index, self._index + n, dtype=np.uint64)
        self._index += n
        return uniform_block(self.seed, self.trial, self.substream, counters)
