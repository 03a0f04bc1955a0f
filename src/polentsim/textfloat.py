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
Proc. ACM Program. Lang. 3 (OOPSLA), 2019): the value times 10**(16 - k),
k = floor(log10 |x|) by ``np.log10``, rounded to an integer, from one
128-bit product whose low word is taken to within 2**33 units. Zeros are
written directly. ``%``, which also rounds ties to even, formats the
rest: a value whose digits fall outside [10**16, 10**17) (a k that log10
misjudged beside a power of ten, or a rounding that carries), whose
product lies too close to a rounding tie to decide, a subnormal, a value
below 1e-292 (its power of ten is beyond the table), a value that ``%g``
writes in fixed notation (exponents -4 to 16) and a non-finite value.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes of the longest value ``%.17g`` writes, as in
#: ``-1.2345678901234567e-308``.
_W = 24

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


#: Units of the low word within which a product is too close to a
#: rounding tie to decide: more than its error, 2**33 + 3 units.
_TIE = 1 << 34


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


@functools.cache
def _format_tables():
    """The formatter's digit and exponent tables, built on first use:
    importing the package does not pay for them."""
    return _digit_words(), _exponent_words()


def _percent(value):
    """The ``%.17g`` text of one double, for a value the vectors decline."""
    return b"%.17g" % value


def format_pairs(values):
    """The ``%.17g %.17g\\n`` lines of the pairs of ``values``, as bytes.

    ``values`` holds an even number of doubles, taken in C order. The
    result is ``b"%.17g %.17g\\n" * (n // 2) % tuple(values)`` byte for
    byte.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = x.size
    if n % 2:
        raise ValueError(f"format_pairs needs pairs of values, got {n} values")
    digit_words, exponent_words = _format_tables()
    bits = x.view(np.uint64)
    biased = ((bits >> 52) & 0x7FF).astype(np.intp)
    vector = (biased >= 1) & (biased <= 0x7FE)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    # the decimal exponent floor(log10 |x|), up to one beside a power of
    # ten; 0 where the vectors decline
    k = np.floor(np.log10(np.abs(x), out=np.zeros(n), where=vector)).astype(np.intp)

    # 17 digits: x * 10**q rounded, q = 16 - k; below 1e-292, q is beyond
    # the table of 5**q
    q = 16 - k
    vector &= q <= _Q_MAX
    q = np.minimum(q, _Q_MAX)
    row = q - _Q_MIN
    w = m << 11
    hi, lo = _mul128(w, _P5_HI[row])
    # the high word of w times the power's low word, less than 2**33 below
    # it: the product of their high halves
    carry = (w >> 32) * (_P5_LO[row] >> 32)
    lo += carry
    hi += lo < carry
    # x * 10**q is (hi, lo) / 2**(64 + t) to within 2**33 + 3 units of lo,
    # the power of five being within one unit of its last bit; t is held to
    # 1..63, so that the values the vectors decline shift by a valid count
    t = np.minimum(np.maximum(1085 - biased - ((217706 * q) >> 16), 1), 63).astype(np.uint64)
    # the dropped bits are (hi mod 2**t, lo); within _TIE units of one half
    # the rounding is not decided
    quotient = hi >> t
    dropped = hi - (quotient << t)
    half = 1 << (t - 1)
    low = lo + _TIE
    vector &= ~((dropped + (low < _TIE) == half) & (low <= 2 * _TIE))
    digits = quotient + (dropped >= half)
    # a k one too large leaves the product below 10**16, a k one too small
    # rounds it to 10**17 or more, and so does a carry into the next power;
    # the first test takes the product at its upper bound, since one within
    # the error below 10**16 rounds to 10**17 at the next k, the same text
    ceiling = (hi + (lo > 2**64 - 1 - _TIE)) >> t
    vector &= (ceiling >= 10**16) & (digits < 10**17)
    # %g writes the exponents -4 to 16 in fixed notation
    vector &= (k < -4) | (k > 16)
    zero = (bits << 1) == 0
    digits[zero] = 0
    vector |= zero

    lead = digits // 10**16
    fraction = digits - lead * 10**16
    # the four groups of four fraction digits, one row each; NumPy's
    # floor division by a scalar multiplies (libdivide), where divmod
    # divides
    fraction = fraction.view(np.int64)  # below 10**16
    halves = np.empty((2, n), dtype=np.int64)
    np.floor_divide(fraction, 10**8, out=halves[0])
    np.subtract(fraction, halves[0] * 10**8, out=halves[1])
    groups = np.empty((4, n), dtype=np.int64)
    np.floor_divide(halves, 10**4, out=groups[0::2])
    np.subtract(halves, groups[0::2] * 10**4, out=groups[1::2])
    # the last group, and each group followed by zeros only, loses its
    # trailing zeros
    groups[3] += 10**4
    tail = groups[3] == 10**4
    for group in groups[2::-1]:
        group += 10**4 * tail
        tail &= group == 10**4
    cells = np.empty((n, _CELL), dtype=np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=cells[:, 0])
    np.add(lead, ord("0"), out=cells[:, 1], casting="unsafe")
    np.multiply(fraction != 0, np.uint8(ord(".")), out=cells[:, 2])
    cells[:, 3:19].view(np.uint32)[:] = digit_words[groups].T
    cells[:, 19] = ord("e")
    cells[:, 20:24].view(np.uint32)[:, 0] = exponent_words[k + _K_MAX]
    cells[0::2, 24] = ord(" ")
    cells[1::2, 24] = ord("\n")
    cells[zero, 19:24] = 0
    for i in np.flatnonzero(~vector):
        cells[i, :_W] = np.frombuffer(_percent(float(x[i])).ljust(_W, b"\0"), dtype=np.uint8)
    return cells.tobytes().translate(None, b"\0")
