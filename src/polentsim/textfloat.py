"""Exact, vectorized text of the two-column table of a JSA file.

A JSA table is one ``%.17g %.17g`` pair of doubles per line.  Converting
such a value with ``float``, ``np.loadtxt`` or ``%`` formatting costs
half a microsecond to a microsecond and a half: the correctly rounded
conversion goes through big integers.  This module does both directions
for a whole table with NumPy, on the 128-bit powers of five of Go's
``strconv`` and of fast_float, and hands every value it cannot settle
exactly to the scalar conversion.  Each value therefore reads and
writes as ``float`` and ``%`` do, bit for bit and byte for byte.

:func:`parse_pairs` rounds the digits with the Eisel-Lemire algorithm (D.
Lemire, "Number parsing at a gigabyte per second", Software: Practice and
Experience 51, 2021, in the form of Go's ``strconv.eiselLemire64``). That
algorithm returns the correctly rounded double or declines. The vector
path reads the exponent notation that ``%.17g`` and ``repr`` write,
``[-]D[.F]e±XX[X]`` with 1 to 16 fraction digits, where every part sits
at a fixed place counted back from the end of the number, and the exact
zeros ``0`` and ``-0`` that ``%.17g`` writes. A value in any other syntax
float reads (other fixed notation, an exponent of one or of four or more
digits, 17 or more fraction digits, a ``+`` sign, an upper-case ``E``), a
value whose ``e`` lies within the first 16 bytes of the table, and a value
Eisel-Lemire declines (a subnormal, for one) are converted by ``float``.

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

#: The bytes of a number in the syntax both ``float`` and ``np.loadtxt`` read.
_NUMBER_BYTES = b"0123456789+-.eE"

_POW10 = np.array([10**k for k in range(17)], dtype=np.uint64)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

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


def _leading_zeros(w):
    """Leading zero bits of each nonzero uint64, and w shifted left by them."""
    bits = np.frexp(w.astype(np.float64))[1]
    # rounding to a double can carry w up to the next power of two
    bits -= (w >> (bits - 1).astype(np.uint64)) == 0
    lz = (64 - bits).astype(np.uint64)
    return lz, w << lz


def _eisel_lemire(w, q):
    """Bits of the double nearest w * 10**q, and where they are certain.

    ``w`` is a nonzero uint64, ``q`` lies in [-342, 308]. Where the second
    array is False (a product too close to a rounding boundary, an exact
    halfway case, a subnormal or infinite result) the first holds garbage.
    """
    lz, w = _leading_zeros(w)
    row = q - _Q_MIN
    hi, lo = _mul128(w, _P5_HI[row])
    ok = np.ones(w.shape, dtype=bool)
    wide = np.flatnonzero(((hi & 0x1FF) == 0x1FF) & (lo + w < w))
    if wide.size:
        # the low word of 5**q settles the bits the first product left open
        ww = w[wide]
        y_hi, y_lo = _mul128(ww, _P5_LO[row[wide]])
        m_lo = lo[wide] + y_hi
        m_hi = hi[wide] + (m_lo < y_hi)
        ok[wide] = ~(((m_hi & 0x1FF) == 0x1FF) & (m_lo == _ALL) & (y_lo + ww < ww))
        hi[wide], lo[wide] = m_hi, m_lo
    msb = hi >> 63
    mantissa = hi >> (msb + 9)
    exponent = ((217706 * q) >> 16) + 1086 + msb.astype(np.intp) - lz.astype(np.intp)
    ok &= ~((lo == 0) & ((hi & 0x1FF) == 0) & ((mantissa & 3) == 1))
    mantissa = (mantissa + (mantissa & 1)) >> 1
    # rounding up to 2**53 carries into the exponent; the mask below drops
    # the carried bit
    exponent += (mantissa >> 53).astype(np.intp)
    ok &= (exponent >= 1) & (exponent <= 0x7FE)
    bits = (exponent.astype(np.uint64) << 52) | (mantissa & np.uint64((1 << 52) - 1))
    return bits, ok


def _eight_digits(words):
    """Value of eight decimal digits, one per byte, first digit lowest."""
    words = (words * 10 + (words >> 8)) & 0x00FF00FF00FF00FF
    words = (words * 100 + (words >> 16)) & 0x0000FFFF0000FFFF
    return (words * 10000 + (words >> 32)) & 0xFFFFFFFF


def _windows(buf, width):
    """``[k]``: the ``width`` bytes of ``buf`` from byte k on, without a copy."""
    return np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))


def _parse_tokens(buf, start, end, out):
    """Write the value of each token ``buf[start:end]`` into ``out``.

    A token ``[-]D[.F]e±XX[X]`` with 1 to 16 fraction digits F is read at
    fixed places: the exponent from its last 4 bytes, the fraction from the
    16 bytes that end at the ``e``, the sign, lead digit and point from its
    first bytes. A token ``0`` or ``-0`` is read as a signed zero. Each
    other token is converted by ``float``. Returns False when a token is
    not a number.
    """
    # the last 4 bytes, "e±XX" or "±XXX", each digit xor 0x30 its value
    tail = _windows(buf, 4)[np.maximum(end, 4) - 4].view(np.uint32) ^ 0x30303030
    two = (tail & 0xFF) == ord("e") ^ 0x30
    shift = two.astype(np.uint32) << 3  # 8 bits more for a two-digit exponent
    sign_e = (tail >> shift) & 0xFF
    exp10 = tail & (np.uint32(0xFFFFFF00) << shift)  # the digits alone
    at_e = end - 5 + two
    vector = (
        (at_e >= 16)  # the fraction's window lies in the text
        & ((sign_e == ord("-") ^ 0x30) | (sign_e == ord("+") ^ 0x30))
        & ((((exp10 + 0x76767676) | exp10) & 0x80808080) == 0)
    )
    at_e = np.maximum(at_e, 16)
    vector &= buf[at_e] == ord("e")
    exp10 = (exp10 * 10 + (exp10 >> 8)) & 0x00FF00FF
    exp10 = ((exp10 * 100 + (exp10 >> 16)) & 0xFFFF).astype(np.intp)
    exp10 *= 1 - 2 * (sign_e == ord("-") ^ 0x30)

    negative = buf[start] == ord("-")
    lead = start + negative
    lead_digit = buf[lead] ^ 0x30
    size = at_e - lead  # of the lead digit, point and fraction
    point = buf[np.minimum(lead + 1, end)] == ord(".")
    vector &= (lead_digit < 10) & ((size == 1) | ((size >= 3) & (size <= 18) & point))
    n_frac = np.clip(size - 2, 0, 16).astype(np.uint64)
    # the 16 bytes before the e; those before the fraction are cleared
    frac = _windows(buf, 16)[at_e - 16].view(np.uint64).reshape(-1, 2) ^ 0x3030303030303030
    cleared = 8 * (16 - n_frac)
    frac[:, 0] &= _ALL << cleared  # a shift of 64 or more clears the word
    frac[:, 1] &= _ALL << (np.maximum(cleared, 64) - 64)
    bad = ((frac + 0x7676767676767676) | frac) & 0x8080808080808080
    vector &= (bad[:, 0] | bad[:, 1]) == 0
    # the exact zeros %.17g writes as "0" and "-0"
    bare_zero = (end - lead == 1) & (lead_digit == 0)
    vector |= bare_zero
    frac = _eight_digits(frac)
    w = lead_digit * _POW10[n_frac] + frac[:, 0] * _POW10[8] + frac[:, 1]
    q = exp10 - n_frac.astype(np.intp)

    zero = (w == 0) | bare_zero
    vector &= zero | ((q >= _Q_MIN) & (q <= _Q_MAX))
    bits, exact = _eisel_lemire(w | zero, np.clip(q, _Q_MIN, _Q_MAX))
    vector &= zero | exact
    bits *= ~zero
    bits |= negative.astype(np.uint64) << 63
    out[:] = bits.view(np.float64)
    for k in np.flatnonzero(~vector):
        token = buf[start[k] : end[k]].tobytes()
        if token.translate(None, _NUMBER_BYTES):
            return False
        try:
            out[k] = float(token)
        except ValueError:
            return False
    return True


def parse_pairs(body):
    """The (n, 2) float array of the table in ``body``, or None.

    ``body`` is a bytes-like object. It is read when every line is
    ``<number> <number>\\n``: one space, no other whitespace, a newline
    after the last line, numbers in the syntax of ``float`` without
    underscores. For any other text the result is None, and the caller
    parses it by other means.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    # bytes up to the space are the separators: a number has none of them
    sep = np.flatnonzero(buf <= ord(" "))
    if not sep.size or sep.size % 2 or sep[-1] != buf.size - 1:
        return None
    out = np.empty((sep.size // 2, 2))
    values = out.reshape(-1)
    # no e of so short a table reaches byte 16: float reads each number
    if buf.size <= 16:
        buf = np.concatenate((buf, np.zeros(16, np.uint8)))
    for lo in range(0, sep.size, _BLOCK):
        end = sep[lo : lo + _BLOCK]
        start = np.concatenate((sep[lo - 1 : lo] + 1 if lo else [0], end[:-1] + 1))
        kind = buf[end]
        # a space after the first number of a line, a newline after the
        # second, and no empty number
        if (
            np.any(kind[0::2] != ord(" "))
            or np.any(kind[1::2] != ord("\n"))
            or np.any(end == start)
        ):
            return None
        if not _parse_tokens(buf, start, end, values[lo : lo + _BLOCK]):
            return None
    return out


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
