"""Tests of the vectorized JSA table parser against float and np.loadtxt."""

import random
import struct
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from polentsim import textfloat
from polentsim.spectral import FrequencyGrid, PdcModel, build_jsa, write_jsa
from polentsim.textfloat import parse_pairs

GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, n=256)

#: Values on either side of the paths the vector code takes: zeros and
#: signs, no point or no digits before it, upper-case E, leading zeros,
#: 18, 19 and 20 digits, powers of two, subnormals, the smallest normal
#: and the largest double, overflow and underflow, a halfway case,
#: rounding up to a power of two, integers just below 2**54 and 2**57
#: (a double rounds them up), exponents of 9 and 11 digits.
HARD = [
    "0", "-0", "+0", "0.0", "-0.0e5", ".5", "5.", "-.5e-3", "1e0", "1E+2",
    "+7e-0001", "0.000123456789012345678", "000000000000000000001",
    "123456789012345678", "1234567890123456789", "12345678901234567890",
    "9007199254740993", "18446744073709551615", "18446744073709551616",
    "4.9406564584124654e-324", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308",
    "1.7976931348623159e308", "1e-400", "1e400", "1e-342", "1e-343",
    "1e308", "1e309", "8.98846567431158e307", "1.00000000000000011102230246251565e0",
    "9007199254740992.5", "0.1", "0.30000000000000004", "123.456e-2",
    "1.9999999999999999", "0.99999999999999999", "3.9999999999999999e-200",
    "18014398509481983", "144115188075855871", "1e-000000001",
    "2.5E+00000000012", "-12345678901234567e-30",
]


def _table(tokens):
    return "".join(f"{a} {b}\n" for a, b in zip(tokens[0::2], tokens[1::2])).encode()


def _bits(values):
    return np.asarray(values, dtype=float).ravel().view(np.uint64)


def _random_tokens(rng, n):
    """Decimal texts of every shape float reads, from a seeded generator."""

    def double():
        while True:
            x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if np.isfinite(x):
                return x

    def digits(k):
        return "".join(rng.choice("0123456789") for _ in range(k))

    tokens = []
    for _ in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            tokens.append("%.17g" % double())
        elif kind == 1:
            tokens.append(repr(double()))
        elif kind == 2:
            tokens.append(("%%.%dg" % rng.randint(1, 18)) % double())
        elif kind == 3:
            mantissa = digits(rng.randint(0, 6)) + "." + digits(rng.randint(0, 14))
            if mantissa == ".":
                mantissa = "7."
            exponent = rng.choice(["", "e", "E"])
            if exponent:
                exponent += rng.choice(["", "-", "+"]) + digits(rng.randint(1, 3))
            tokens.append(rng.choice(["", "-", "+"]) + mantissa + exponent)
        elif kind == 4:
            # 15 to 19 digits around the midpoint of two adjacent doubles
            x = abs(double()) % 1e300 or 1.5
            mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
            text = format(mid, ".%de" % rng.randint(14, 18))
            mantissa, exponent = text.split("e")
            last = min(9, max(0, int(mantissa[-1]) + rng.choice([-1, 0, 1])))
            tokens.append(mantissa[:-1] + str(last) + "e" + exponent)
        else:
            tokens.append(str(rng.randrange(10 ** rng.randint(1, 20))))
    return tokens


def test_powers_of_five_match_published_entries():
    """10**1 is exact, 10**-1 and 10**-2 rounded up, as in Go's table."""

    def entry(q):
        row = q - textfloat._Q_MIN
        return int(textfloat._P5_HI[row]), int(textfloat._P5_LO[row])

    assert entry(1) == (0xA000000000000000, 0)
    assert entry(-1) == (0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD)
    assert entry(-2) == (0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A4)


def test_leading_zeros_normalize():
    """Integers that a double rounds up to the next power of two keep
    their own bit length."""
    w = np.array([1, 2**54 - 1, 2**57 - 1, 10**19 - 1, 2**63], dtype=np.uint64)
    lz, shifted = textfloat._leading_zeros(w)
    assert lz.tolist() == [63, 10, 7, 0, 0]
    assert np.all(shifted >> 63 == 1)


class TestParsePairs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_float_on_random_decimals(self, seed):
        """Every value equals float of its text, bit for bit."""
        tokens = _random_tokens(random.Random(seed), 20_000)
        values = parse_pairs(_table(tokens))
        assert values.shape == (10_000, 2)
        assert np.array_equal(_bits(values), _bits([float(t) for t in tokens]))

    def test_matches_float_on_hard_cases(self):
        tokens = HARD + HARD[::-1]
        for rotation in range(2):  # each case once at the start of a line
            tokens = tokens[1:] + tokens[:1]
            values = parse_pairs(_table(tokens))
            assert np.array_equal(_bits(values), _bits([float(t) for t in tokens]))

    @pytest.mark.parametrize(
        "model",
        [PdcModel(),
         PdcModel(group_index_signal=3.0, group_index_idler=3.6, crystal_length=5e-3)],
        ids=["default", "short-ridge"],
    )
    def test_matches_loadtxt_on_written_jsa(self, tmp_path, monkeypatch, model):
        """A written table parses to np.loadtxt's values, and all but the
        values that end in its first 24 bytes take the vector path."""
        path = tmp_path / "jsa.txt"
        write_jsa(path, build_jsa(model, GRID))
        data = path.read_bytes()
        body = data[data.index(b"\n") + 1 :]
        calls = []
        monkeypatch.setattr(
            textfloat, "float", lambda t: calls.append(t) or float(t), raising=False
        )
        values = parse_pairs(body)
        assert np.array_equal(_bits(values), _bits(np.loadtxt(path, skiprows=1)))
        assert len(calls) <= 2

    def test_values_in_the_first_window(self):
        """Values ending in the first 24 bytes are read by float, not from
        a window that starts before them."""
        table = b"7 8\n123456789012345678 9\n" + b"1.25 2.5\n" * 3
        assert parse_pairs(table).tolist() == (
            [[7.0, 8.0], [123456789012345678.0, 9.0]] + [[1.25, 2.5]] * 3
        )

    @pytest.mark.parametrize(
        "body",
        [b"1.5 2.5\r\n", b"1.5  2.5\n", b"1.5\t2.5\n", b"1.5 2.5", b"1.5 2.5 3\n",
         b"1.5\n", b"\n1.5 2.5\n", b"1.5 2.5\n\n", b" 1.5 2.5\n", b"# c\n1.5 2.5\n",
         b"1.5 2.5\n1.5\n", b" \n"],
        ids=["crlf", "two-spaces", "tab", "no-final-newline", "three-columns",
             "one-column", "leading-blank-line", "trailing-blank-line",
             "leading-space", "comment", "short-last-line", "empty-numbers"],
    )
    def test_other_layouts_are_left_to_the_caller(self, body):
        assert parse_pairs(b"1.25 2.5\n" * 4 + body) is None
        assert parse_pairs(body) is None

    def test_empty_text_is_left_to_the_caller(self):
        assert parse_pairs(b"") is None

    @pytest.mark.parametrize(
        "token",
        ["1e", "e5", "--1", "1.2.3", "1e5e5", ".", "+", "1-2", "1e+-5", "1e5.",
         "1_0", "0x10", "inf", "nan", "1..", ".e1", "1ee5", "\xff",
         "1.2.345678901234567"],
    )
    def test_text_that_is_not_a_number_is_left_to_the_caller(self, token):
        for table in (f"{token} 1\n" + "1.25 2.5\n" * 4,
                      "1.25 2.5\n" * 4 + f"3 {token}\n" + "1.25 2.5\n" * 4):
            assert parse_pairs(table.encode()) is None

    def test_working_set_is_blocks_of_the_table(self, tmp_path):
        """Besides a mask of its bytes, the separator positions and the
        values, a parse holds one block of matrices at a time."""
        path = tmp_path / "jsa.txt"
        write_jsa(path, build_jsa(PdcModel(), GRID))
        data = path.read_bytes()
        body = memoryview(data)[data.index(b"\n") + 1 :]
        tracemalloc.start()
        try:
            values = parse_pairs(body)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= len(body) + 2 * values.nbytes + 4e6
