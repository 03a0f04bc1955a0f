"""Exact, vectorized parsing of the two-column text table of a JSA file.

``np.loadtxt`` and ``float`` spend about half a microsecond on each value
that :func:`polentsim.spectral.write_jsa` writes: a 17-digit decimal takes
their correctly rounded conversion through a big-integer comparison.
:func:`parse_pairs` reads the digits of a whole table with NumPy and rounds
them with the Eisel-Lemire algorithm (D. Lemire, "Number parsing at a
gigabyte per second", Software: Practice and Experience 51, 2021, in the
form of Go's ``strconv.eiselLemire64``). That algorithm returns the
correctly rounded double or declines. A value it declines, or whose text
the vector path does not read (a mantissa of about 19 digits or more, an
exponent part of more than 8 bytes, a token longer than 24 bytes or ending
within the first 24 bytes of the table), is converted by ``float``. Every value therefore
equals what ``float`` and ``np.loadtxt`` return for its text.
"""

from __future__ import annotations

import numpy as np

#: Window width in bytes: the longest value ``%.17g`` writes is 24 bytes,
#: as in ``-1.2345678901234567e-308``.
_W = 24

#: Numbers per block, even so that a block starts a line; a block's byte
#: matrices stay in the processor cache.
_BLOCK = 1 << 13

#: The bytes of a number in the syntax both ``float`` and ``np.loadtxt`` read.
_NUMBER_BYTES = b"0123456789+-.eE"

#: Column index of each byte of a block's (tokens, 24) matrices.
_COLS = np.tile(np.arange(_W, dtype=np.uint8), (_BLOCK, 1))

#: ``_TAIL[k]``: 24 bytes, 1 from column k on and 0 before it.
_TAIL = (np.arange(_W) >= np.arange(_W + 1)[:, None]).astype(np.uint8).view("V24").ravel()

_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_ONES = 0x0101010101010101
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


def _byte_sum(cells):
    """Sum of each row of an (n, 24) uint8 matrix whose sums stay below 256."""
    words = cells.view(np.uint64)
    return (((words[:, 0] + words[:, 1] + words[:, 2]) * _ONES) >> 56).view(np.intp)


def _eight_digits(words):
    """Value of eight decimal digits, one per byte, first digit lowest."""
    words = (words * 10 + (words >> 8)) & 0x00FF00FF00FF00FF
    words = (words * 100 + (words >> 16)) & 0x0000FFFF0000FFFF
    return (words * 10000 + (words >> 32)) & 0xFFFFFFFF


def _parse_tokens(body, windows, start, end, out):
    """Write the value of each token ``body[start:end]`` into ``out``.

    ``windows[k]`` holds the 24 bytes of ``body`` from byte k on. Returns
    False when a token is not a number.
    """
    n = start.size
    cols = _COLS[:n]
    length = end - start
    # the window of _W bytes ending at a token's last byte holds the token
    # from column `lead` on; the bytes before it are zeroed
    vector = end >= _W
    lead = np.maximum(_W - length, 0)
    first = np.arange(0, n * _W, _W) + lead  # of the token, in raveled rows
    cells = windows[np.maximum(end, _W) - _W].view(np.uint8).reshape(n, _W)
    cells *= _TAIL[lead].view(np.uint8).reshape(n, _W)
    digits = cells ^ 0x30
    is_digit = digits < 10
    is_e = (cells | 0x20) == ord("e")
    is_dot = cells == ord(".")
    is_sign = (cells == ord("+")) | (cells == ord("-"))
    n_e, n_dot = _byte_sum(is_e), _byte_sum(is_dot)
    e_col = np.where(n_e == 1, _byte_sum(is_e * cols), _W)
    dot_col = _byte_sum(is_dot * cols)
    sign0 = is_sign.ravel()[first]
    after_e = first - lead + np.minimum(e_col + 1, _W - 1)
    sign_e = (n_e == 1) & is_sign.ravel()[after_e]
    n_exp = _W - 1 - e_col - sign_e
    # with every byte a digit, e, point or sign (which also keeps tokens
    # longer than the window out), these counts and places leave digits
    # everywhere else; the exponent part, e included, must fit in the last
    # 8 columns
    vector &= (
        (_byte_sum(is_digit | is_e | is_dot | is_sign) == length)
        & (n_dot <= 1)
        & ((n_dot == 0) | (dot_col < e_col))
        & (_byte_sum(is_sign) - sign0 == sign_e)
        & (e_col - lead - sign0 - n_dot >= 1)
        & ((n_e == 0) | (n_exp >= 1))  # and with two e's, n_exp < 0
        & (e_col >= _W - 8)
    )
    digits *= is_digit
    words = digits.view(np.uint64)
    keep = _ALL << (8 * (8 - np.maximum(n_exp, 0))).view(np.uint64)
    exp10 = _eight_digits(words[:, 2] & keep).astype(np.intp)
    exp10 *= 1 - 2 * (sign_e & (cells.ravel()[after_e] == ord("-")))

    # the mantissa's digits, shifted to end at the last column: the shift
    # drops the exponent part
    up = (8 * (_W - e_col)).astype(np.uint64)
    down = 64 - up
    aligned = np.empty((n, 3), dtype=np.uint64)
    aligned[:, 0] = words[:, 0] << up
    aligned[:, 1] = (words[:, 1] << up) | (words[:, 0] >> down)
    aligned[:, 2] = (words[:, 2] << up) | (words[:, 1] >> down)
    groups = _eight_digits(aligned)
    vector &= groups[:, 0] < 1000
    # the point reads as a zero digit: v = integer * 10**(frac + 1) + fraction
    v = groups[:, 0] * _POW10[16] + groups[:, 1] * _POW10[8] + groups[:, 2]
    frac = np.where(n_dot == 1, e_col - dot_col - 1, 19)
    integer = v // _POW10[np.minimum(frac + 1, 19)]
    w = v - 9 * integer * _POW10[np.minimum(frac, 19)]
    q = exp10 - np.where(n_dot == 1, frac, 0)

    zero = w == 0
    vector &= zero | ((q >= _Q_MIN) & (q <= _Q_MAX))
    bits, exact = _eisel_lemire(w | zero, np.clip(q, _Q_MIN, _Q_MAX))
    vector &= zero | exact
    bits *= ~zero
    bits |= (cells.ravel()[first] == ord("-")).astype(np.uint64) << 63
    out[:] = bits.view(np.float64)
    for k in np.flatnonzero(~vector):
        token = bytes(body[start[k] : end[k]])
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
    values = np.empty(sep.size)
    # a table shorter than a window is read through float alone
    padded = buf if buf.size >= _W else np.concatenate((buf, np.zeros(_W, np.uint8)))
    windows = np.ndarray((padded.size - _W + 1,), dtype="V24", buffer=padded, strides=(1,))
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
        if not _parse_tokens(body, windows, start, end, values[lo : lo + _BLOCK]):
            return None
    return values.reshape(-1, 2)
