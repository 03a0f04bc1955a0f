"""Exact, vectorized ``%.17g`` text of the two-column table of a JSA file.

A JSA table is one ``%.17g %.17g`` pair of doubles per line.  Formatting
such a value with ``%`` costs about a microsecond: the correctly rounded
conversion goes through big integers.  This module writes a whole table
with NumPy, on the 128-bit powers of five of Go's ``strconv`` and of
fast_float, and hands every value it cannot settle exactly to ``%``.
Each value is therefore written byte for byte as ``%`` writes it, and
``float`` and ``np.loadtxt`` read it back to the same bits.

:func:`format_pairs` finds the 17 significant digits of a double as Ryu
printf does (U. Adams, "Ryu revisited: printf floating point conversion",
Proc. ACM Program. Lang. 3 (OOPSLA), 2019): the value times a power of
ten, rounded to an integer, from one 128-bit product. Zeros are written
directly. A value whose product lies too close to a rounding tie to
decide, a subnormal, a value below 1e-292 (its power of ten is beyond the
table), a value that ``%g`` writes in fixed notation (exponents -4 to 16)
and a non-finite value are formatted by ``%``, which also rounds ties to
even.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes of the longest value ``%.17g`` writes, as in
#: ``-1.2345678901234567e-308``.
_W = 24

#: Numbers per block, even so that a block starts a line; a block's
#: arrays stay in the processor cache.
_BLOCK = 1 << 13

#: Decimal exponents whose powers of five the table below holds.
_Q_MIN, _Q_MAX = -342, 308


def _powers_of_five():
    """High and low words of 5**q normalized to 128 bits, q in [-342, 308].

    Truncated for q >= 0; for q < 0, floor(2**b / 5**-q) + 1 for the b
    that gives 128 bits (the table of Go's strconv and of fast_float).
    """
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q < 0:
            p = 5**-q
            z = (p - 1).bit_length()  # smallest z with 2**z >= p
            c = 2 ** (z + 127 if q >= -27 else 2 * z + 128) // p + 1
            c >>= max(0, c.bit_length() - 128)
        else:
            c = 5**q
            shift = 128 - c.bit_length()
            c = c << shift if shift >= 0 else c >> -shift
        hi.append(c >> 64)
        lo.append(c & 0xFFFFFFFFFFFFFFFF)
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


_P5_HI, _P5_LO = _powers_of_five()


def _mul128(a, b):
    """High and low words of the 128-bit products of two uint64 arrays."""
    mask = np.uint64(0xFFFFFFFF)
    a0, a1 = a & mask, a >> 32
    b0, b1 = b & mask, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & mask) + (p10 & mask)
    lo = (p00 & mask) | (mid << 32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return hi, lo


#: Bytes of a cell of :func:`format_pairs`: sign, lead digit, point, 16
#: fraction digits, ``e``, exponent sign, three exponent digits and the
#: separator. Bytes a value's text does not use are NUL.
_CELL = _W + 1


def _digit_words():
    """``[v]``: the four ASCII digits of v < 10**4 as the bytes of one
    word; ``[10**4 + v]``: the same with trailing zeros as NUL bytes."""
    v = np.arange(10**4)[:, None]
    text = (v // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    # a digit is kept when it or a digit after it is not zero
    kept = v % np.array([10**4, 1000, 100, 10]) != 0
    return np.concatenate((text, text * kept)).view(np.uint32).ravel()


#: The exponent table spans -_K_MAX to _K_MAX, beyond the decimal
#: exponent of every double (-324 to 308).
_K_MAX = 330


def _exponent_words():
    """``[k + _K_MAX]``: sign and three digits of the exponent k as the
    bytes of one word, the hundreds digit NUL below 100."""
    k = np.arange(-_K_MAX, _K_MAX + 1)
    size = np.abs(k)
    text = np.column_stack(
        (
            np.where(k < 0, ord("-"), ord("+")),
            np.where(size >= 100, size // 100 + ord("0"), 0),
            size // 10 % 10 + ord("0"),
            size % 10 + ord("0"),
        )
    )
    return text.astype(np.uint8).view(np.uint32).ravel()


def _decimal_exponents():
    """Per biased binary exponent b of a double, ``base[b]`` and
    ``threshold[b]``: a normal double of significand m in [2**52, 2**53)
    has decimal exponent floor(log10 |x|) = base[b] + (m >= threshold[b]).

    A binade holds at most one power of ten 10**j. Where it holds one,
    the base is j - 1 and the threshold the smallest significand at or
    above 10**j. Elsewhere the base is j - 1 for the last power 10**j
    below the binade, and the threshold 2**52, which every significand
    reaches.
    """
    powers = range(-308, 309)
    binades, significands = [], []
    for j in powers:
        p = 10 ** abs(j)
        if j >= 0:
            e2 = p.bit_length() - 1  # floor(log2(10**j))
            m = p << (52 - e2) if e2 <= 52 else -(-p >> (e2 - 52))
        else:
            e2 = -p.bit_length()  # 10**-j is not a power of two
            m = -(-(1 << (52 - e2)) // p)
        binades.append(e2 + 1023)
        significands.append(m)
    binades = np.array(binades)
    last = np.searchsorted(binades, np.arange(0x7FF), side="right") - 1
    base = np.array(powers)[last] - 1
    threshold = np.full(0x7FF, 1 << 52, dtype=np.uint64)
    inside = (binades >= 1) & (binades <= 0x7FE)
    threshold[binades[inside]] = np.array(significands, dtype=np.uint64)[inside]
    return base, threshold


@functools.cache
def _format_tables():
    """The formatter's digit, exponent and decimal-exponent tables, built
    on first use: importing the package does not pay for them."""
    return (_digit_words(), _exponent_words(), *_decimal_exponents())


def _percent(value):
    """The ``%.17g`` text of one double, for a value the vectors decline."""
    return b"%.17g" % value


def _format_block(x):
    """Text of the doubles ``x``, an even number, each with its separator."""
    digit_words, exponent_words, exp_base, exp_threshold = _format_tables()
    n = x.size
    bits = x.view(np.uint64)
    biased = ((bits >> 52) & 0x7FF).astype(np.intp)
    vector = (biased >= 1) & (biased <= 0x7FE)
    biased = np.clip(biased, 1, 0x7FE)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    k = exp_base[biased] + (m >= exp_threshold[biased])

    # 17 digits: x * 10**q rounded, q = 16 - k; below 1e-292, q is beyond
    # the table of 5**q
    q = 16 - k
    vector &= q <= _Q_MAX
    q = np.minimum(q, _Q_MAX)
    w = m << 11
    hi, lo = _mul128(w, _P5_HI[q - _Q_MIN])
    carry, _ = _mul128(w, _P5_LO[q - _Q_MIN])
    lo += carry
    hi += lo < carry
    # x * 10**q is (hi, lo) / 2**(64 + t) up to 2 units of lo, since the
    # power of five is within one unit of its last bit
    t = np.clip(1085 - biased - ((217706 * q) >> 16), 1, 63).astype(np.uint64)
    # the dropped bits are (hi mod 2**t, lo); within 2 units of one half
    # the rounding is not decided
    low = lo + 2
    dropped = (hi & ((1 << t) - 1)) + (low < 2)
    vector &= ~((dropped == (1 << (t - 1))) & (low <= 4))
    digits = (hi >> t) + ((hi >> (t - 1)) & 1)
    # rounding up to 10**17 is 10**16 with the next exponent
    carried = digits == 10**17
    digits[carried] = 10**16
    k += carried
    # %g writes the exponents -4 to 16 in fixed notation
    vector &= (k < -4) | (k > 16)
    zero = (bits << 1) == 0
    digits[zero] = 0
    vector |= zero

    lead = digits // 10**16
    fraction = digits - lead * 10**16
    upper, lower = np.divmod(fraction, 10**8)
    groups = np.column_stack(np.divmod(upper, 10**4) + np.divmod(lower, 10**4)).astype(np.intp)
    # the last group, and each group followed by zeros only, loses its
    # trailing zeros
    tail = np.ones(n, dtype=bool)
    for col in (3, 2, 1, 0):
        groups[:, col] += 10**4 * tail
        tail &= groups[:, col] == 10**4
    cells = np.empty((n, _CELL), dtype=np.uint8)
    cells[:, 0] = (bits >> 63) * ord("-")
    cells[:, 1] = lead + ord("0")
    cells[:, 2] = (fraction != 0) * ord(".")
    cells[:, 3:19].view(np.uint32)[:] = digit_words[groups]
    cells[:, 19] = ord("e")
    cells[:, 20:24].view(np.uint32)[:, 0] = exponent_words[k + _K_MAX]
    cells[0::2, 24] = ord(" ")
    cells[1::2, 24] = ord("\n")
    cells[zero, 19:24] = 0
    for i in np.flatnonzero(~vector):
        cells[i, :_W] = np.frombuffer(_percent(float(x[i])).ljust(_W, b"\0"), dtype=np.uint8)
    cells = cells.ravel()
    return cells[cells != 0].tobytes()


def format_pairs(values):
    """The ``%.17g %.17g\\n`` lines of the pairs of ``values``, as bytes.

    ``values`` holds an even number of doubles, taken in C order. The
    result is ``b"%.17g %.17g\\n" * (n // 2) % tuple(values)`` byte for
    byte, made one block of values at a time.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if flat.size % 2:
        raise ValueError(f"format_pairs needs pairs of values, got {flat.size} values")
    return b"".join(_format_block(flat[lo : lo + _BLOCK]) for lo in range(0, flat.size, _BLOCK))
