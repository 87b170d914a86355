"""CSV text of float64 arrays, each value exactly ``'%.17g' % v``.

Python's correctly rounded float formatting costs about a microsecond a
value.  ``csv_blocks`` does the same job with numpy, a block of rows at a
time.  For a finite value with 1e-30 <= |x| < 1e30 it takes
k = floor(log10|x|) and forms |x| * 10**(16 - k) as an exact Dekker
product (Dekker 1971) with a double-double power of ten.  Its integer
part D and fraction r are then known to within 1e-14 of a unit, so D
rounded by r is the 17 significant digits.  A value stays on this path
only when 10**16 <= D and the rounded D < 10**17 (k is its exponent) and
r is not within 1e-6 of a half (no tie, so round-half-even is never
needed).  Every other value, and every zero, inf and nan, is formatted
by ``'%.17g' % v`` itself.

Each value is laid out in one fixed row of byte slots, of which every
``%g`` layout (``d.ddde+XX``, ``0.000ddd``, ``dd.ddd``, ``ddd00``) is a
subsequence.  Unused slots hold NUL, and a block's text is its slot
matrix's bytes with the NULs deleted.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# rows formatted at once: a 256 x 7 block keeps each array under about
# 90 KB; 1024-row blocks page-faulted about 380 times a snapshot between a
# run's steps, and formatted a snapshot no faster
BLOCK_ROWS = 256

# the decimal exponents k of the vectorized path and the powers of ten
# 10**(16 - k) it scales by
_K_MIN, _K_MAX = -30, 29


def _pow10_double_double(p: int) -> tuple[float, float]:
    """10**p as hi + lo, each a correctly rounded double: int true division
    is correctly rounded, and the remainder is exact in ints."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


_SPLIT = 2.0 ** 27 + 1.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into high + low, each of at most 26
    significant bits, so that products of halves are exact."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


# 10**(16 - k) by k - _K_MIN: hi, its two halves, and lo
_POW_HI, _POW_LO = np.array([_pow10_double_double(16 - k)
                             for k in range(_K_MIN, _K_MAX + 1)]).T.copy()
_POW_HI_HIGH, _POW_HI_LOW = _split(_POW_HI)

# One value's text is laid out in 48 byte slots, six little-endian words:
#   word 0:      sign, the "0.000" of 0.000ddd, the first digit, its point;
#   words 1-4:   the other 16 digits, each followed by its point slot;
#   word 5:      "e", the exponent's sign and two digits, the separator.
# Every %g layout (d.ddde+XX, 0.000ddd, dd.ddd, ddd00) is a subsequence.
_WORD = np.dtype("<u8")
_SLOTS = 48
_SEP = 44


def _words(texts) -> np.ndarray:
    """Each of ``texts``, of at most 8 bytes, NUL-padded into one word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), _WORD)


# by quad q in 0000-9999: its four digits in their slots, and the place
# of its last nonzero digit, 1 to 4 (-16 for 0000, below any other)
_QUAD_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
_PAIR_WORDS = np.zeros((10000, 8), np.uint8)
_PAIR_WORDS[:, ::2] = _QUAD_DIGITS + ord("0")
_PAIR_WORDS = _PAIR_WORDS.view(_WORD).ravel()
_QUAD_LAST = ((_QUAD_DIGITS != 0) * np.arange(1, 5, dtype=np.int8)).max(axis=1)
_QUAD_LAST[0] = -16
_QUAD_START = np.arange(0, 16, 4, dtype=np.int8)
# by the last digit kept, 0 to 16: the slots of digits 1 to 16 it keeps
_KEEP_WORDS = _words(b"\xff" * (2 * c) for c in range(5))[
    np.clip(np.arange(17)[:, None] - _QUAD_START, 0, 4)]
# by k - _K_MIN: word 0 without its sign, first digit and point (the
# "0." and zeros of 0.000ddd for -4 <= k < 0), and word 5 without its
# separator (the exponent, %g's layout for k < -4 and k >= 17)
_HEAD_WORDS = _words(b"\0" + b"0.000"[:1 - k] if -4 <= k < 0 else b""
                     for k in range(_K_MIN, _K_MAX + 1))
_TAIL_WORDS = _words(b"" if -4 <= k < 17 else f"e{k:+03d}".encode()
                     for k in range(_K_MIN, _K_MAX + 1))


def _fast_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, D, k): where ``fast``, the 17 significant digits of ``x`` are
    the int64 ``D`` in [10**16, 10**17) and its decimal exponent is ``k``."""
    ax = np.abs(x)
    fast = (ax >= 1e-30) & (ax < 1e30)
    ax[~fast] = 1.0
    k = np.log10(ax)
    np.floor(k, out=k)
    np.clip(k, _K_MIN, _K_MAX, out=k)
    k = k.astype(np.int64)
    at = k - _K_MIN
    # Dekker's exact product ax * hi = prod + err
    prod = ax * _POW_HI.take(at)
    ax_high, ax_low = _split(ax)
    hi_high, hi_low = _POW_HI_HIGH.take(at), _POW_HI_LOW.take(at)
    err = ax_high * hi_high
    err -= prod
    err += ax_high * hi_low
    err += ax_low * hi_high
    err += ax_low * hi_low
    # prod is an integer wherever D can pass, so the fraction is all in
    # tail, ax * (hi + lo) - prod
    tail = ax * _POW_LO.take(at)
    tail += err
    whole = np.floor(tail)
    D = prod.astype(np.int64) + whole.astype(np.int64)
    frac = tail - whole
    fast &= (D >= 10 ** 16) & (np.abs(frac - 0.5) > 1e-6)
    D += frac > 0.5
    # a D that rounds up to 10**17 has exponent k + 1 (only a log10 that
    # errs low, below a power of ten, gets here)
    fast &= D < 10 ** 17
    D[~fast] = 10 ** 16
    return fast, D, k


def _format_block(block: np.ndarray) -> bytes:
    """The rows of the 2-D float64 ``block`` as CSV text."""
    x = block.ravel()
    fast, D, k = _fast_digits(x)

    # the first digit, then the other 16 as four quads of 0000-9999
    high, low = np.divmod(D, 10 ** 8)
    first, high = np.divmod(high, 10 ** 8)
    quads = np.empty((len(x), 4), np.int32)
    quads[:, 0], quads[:, 1] = np.divmod(high.astype(np.int32), 10000)
    quads[:, 2], quads[:, 3] = np.divmod(low.astype(np.int32), 10000)
    # the last nonzero digit, 0 to 16; the first digit is never zero
    ends = _QUAD_LAST.take(quads) + _QUAD_START
    last = np.maximum(np.maximum(ends[:, 0], ends[:, 1]),
                      np.maximum(np.maximum(ends[:, 2], ends[:, 3]), 0))

    # %g is exponential for k < -4 and k >= 17, else fixed, where an
    # integer part keeps its trailing zeros
    expo = (k < -4) | (k >= 17)
    fixed_int = ~expo & (k >= 0)
    kept = np.where(fixed_int, np.maximum(last, k), last)
    point = np.where(expo, 0, k)
    has_point = (expo & (last > 0)) | (fixed_int & (last > k))

    at = k - _K_MIN
    words = np.empty((len(x), _SLOTS // 8), _WORD)
    words[:, 0] = _HEAD_WORDS.take(at)
    digit_words = words[:, 1:5]
    # the indices are in range; "clip" lets take write into out unbuffered
    _PAIR_WORDS.take(quads, out=digit_words, mode="clip")
    digit_words &= _KEEP_WORDS.take(kept, axis=0, mode="clip")
    words[:, 5] = _TAIL_WORDS.take(at)
    slots = words.view(np.uint8)
    slots[:, 0] = np.signbit(x) * ord("-")
    slots[:, 6] = first + ord("0")
    rows = np.flatnonzero(has_point)
    slots[rows, 7 + 2 * point[rows]] = ord(".")

    for i in np.flatnonzero(~fast).tolist():
        text = ("%.17g" % float(x[i])).encode("ascii")
        slots[i, :_SEP] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)

    seps = slots.reshape(*block.shape, _SLOTS)[..., _SEP]
    seps[:, :-1] = ord(",")
    seps[:, -1] = ord("\n")
    return slots.tobytes().translate(None, b"\0")


def csv_blocks(values: np.ndarray) -> Iterator[bytes]:
    """The rows of the 2-D float64 array ``values`` as CSV text, in blocks
    of up to ``BLOCK_ROWS`` rows: each value is exactly ``'%.17g' % v``,
    values are joined by "," and each row ends in a newline."""
    for start in range(0, len(values), BLOCK_ROWS):
        yield _format_block(values[start:start + BLOCK_ROWS])
