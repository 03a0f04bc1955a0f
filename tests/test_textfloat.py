"""Tests of the vectorized JSA table formatter against ``%`` formatting,
and of the text of a table read back by read_jsa without a sidecar
(np.loadtxt) against float."""

import contextlib
import io
import math
import os
import random
import struct
import tempfile
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim import textfloat
from polentsim.errors import FormatError
from polentsim.spectral import FrequencyGrid, PdcModel, build_jsa, read_jsa, write_jsa
from polentsim.textfloat import format_pairs

#: Values on either side of what a reader of decimals tells apart: zeros
#: and signs, no point or no digits before it, upper-case E, leading zeros,
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


@contextlib.contextmanager
def _loadtxt_results():
    """The list of the arrays np.loadtxt returns inside the block."""
    results = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        results.append(loadtxt(*args, **kwargs))
        return results[-1]

    with mock.patch.object(np, "loadtxt", spy):
        yield results


def _read(body):
    """read_jsa on a table of 2 points with no sidecar, whose text after
    the header is ``body``: the rows np.loadtxt read for it (None when it
    could not read them) and the FormatError it raised (None when it
    returned). Rows that are not a normalized 2 x 2 amplitude end in a
    FormatError after they are read."""
    with tempfile.TemporaryDirectory() as tmp, _loadtxt_results() as results:
        path = os.path.join(tmp, "jsa.txt")
        with open(path, "wb") as fh:
            fh.write(b"# 2 2 1e15 1e12 1e15 1e12\n" + body)
        try:
            read_jsa(path)
            error = None
        except FormatError as exc:
            error = exc
    return (results[0] if results else None), error


#: Finite doubles as %.17g, repr and %.ke (k = 0 to 16) write them.
_WRITTEN = st.builds(
    lambda x, style: repr(x) if style == "repr" else style % x,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["%.17g", "repr"] + ["%%.%de" % k for k in range(17)]),
)


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


class TestParsePairs:
    """The (re, im) pairs read_jsa reads from a table's text when the
    table has no sidecar: np.loadtxt's values, which are float's values of
    the text, or a FormatError that reaches read_jsa's caller."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_float_on_random_decimals(self, seed):
        """Every value equals float of its text, bit for bit."""
        tokens = _random_tokens(random.Random(seed), 20_000)
        rows, _ = _read(_table(tokens))
        assert rows.shape == (10_000, 2)
        assert np.array_equal(_bits(rows), _bits([float(t) for t in tokens]))

    def test_matches_float_on_hard_cases(self):
        tokens = HARD + HARD[::-1]
        for rotation in range(2):  # each case once in each column
            tokens = tokens[1:] + tokens[:1]
            rows, _ = _read(_table(tokens))
            assert np.array_equal(_bits(rows), _bits([float(t) for t in tokens]))

    @pytest.mark.parametrize(
        "model, width",
        [(PdcModel(), 40e-9),
         (PdcModel(group_index_signal=3.0, group_index_idler=3.6, crystal_length=5e-3), 40e-9),
         (PdcModel(), 100e-9)],
        ids=["default", "short-ridge", "wide-window"],
    )
    def test_matches_loadtxt_on_written_jsa(self, tmp_path, model, width):
        """A written 512-point table without its sidecar is read by one
        np.loadtxt call to the written amplitude, bit for bit. The wide
        window holds exact zeros (8 % of its values) where the pump
        underflows, and subnormals (1.1 %), which the formatter leaves to
        ``%``."""
        jsa = build_jsa(model, FrequencyGrid.centered(1535.2e-9, width, n=512))
        path = tmp_path / "jsa.txt"
        write_jsa(path, jsa)
        os.remove(f"{path}.npz")
        with _loadtxt_results() as results:
            back = read_jsa(path)
        assert len(results) == 1
        assert back.grid == jsa.grid
        assert np.array_equal(back.amplitude.view(np.uint64), jsa.amplitude.view(np.uint64))
        if width == 100e-9:
            parts = np.abs(jsa.amplitude.view(float))
            assert 0.07 < np.mean(parts == 0) < 0.09
            assert 0.01 < np.mean((parts > 0) & (parts < np.finfo(float).tiny)) < 0.012

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_WRITTEN, _WRITTEN), min_size=1, max_size=20))
    def test_matches_float_on_drawn_doubles(self, rows):
        """Doubles written by %.17g, repr and %.ke (k = 0 to 16), in either
        column, read as float reads their text, bit for bit."""
        tokens = ["1.25e-05", "2.5e-05"] + [token for row in rows for token in row]
        values, _ = _read(_table(tokens))
        assert np.array_equal(_bits(values), _bits([float(t) for t in tokens]))

    @pytest.mark.parametrize(
        "token",
        ["1.e-05", "1.5e-5", "1.5e+0005", "1.23456789012345678e-05", "01.5e-05"],
    )
    def test_near_misses_take_float(self, token):
        """Numbers one step outside the notation the writer writes read as
        float reads them, in both columns."""
        tokens = ["-1.2345678901234567e-105", "9.8765432109876543e-13", token, token,
                  "-3.75e-105", "5e+07"]
        rows, _ = _read(_table(tokens))
        assert np.array_equal(_bits(rows), _bits([float(t) for t in tokens]))

    @pytest.mark.parametrize(
        "body, last",
        [(b"1.5 2.5\r\n", [1.5, 2.5]), (b"1.5  2.5\n", [1.5, 2.5]),
         (b"1.5\t2.5\n", [1.5, 2.5]), (b"1.5 2.5", [1.5, 2.5]), (b"1.5 2.5 3\n", None),
         (b"1.5\n", None), (b"\n1.5 2.5\n", [1.5, 2.5]), (b"1.5 2.5\n\n", [1.5, 2.5]),
         (b" 1.5 2.5\n", [1.5, 2.5]), (b"# c\n1.5 2.5\n", [1.5, 2.5]),
         (b"1.5 2.5\n1.5\n", None), (b" \n", [])],
        ids=["crlf", "two-spaces", "tab", "no-final-newline", "three-columns",
             "one-column", "leading-blank-line", "trailing-blank-line",
             "leading-space", "comment", "short-last-line", "empty-numbers"],
    )
    def test_other_layouts_are_left_to_the_caller(self, body, last):
        """Line ends, blanks and comments other than the writer's read to
        the same values; rows of other than two columns after rows of two
        are a FormatError that names the change."""
        rows, error = _read(b"1.25 2.5\n" * 4 + body)
        if last is None:
            assert rows is None
            assert str(error).startswith("JSA table: the number of columns changed from 2")
        else:
            assert rows.tolist() == [[1.25, 2.5]] * 4 + [last] * (last != [])

    def test_empty_text_is_left_to_the_caller(self):
        """A table of no rows reaches the row count, without a warning."""
        rows, error = _read(b"")
        assert rows.size == 0
        assert str(error) == "expected 4 complex rows, found 0"

    @pytest.mark.parametrize(
        "token",
        ["1e", "e5", "--1", "1.2.3", "1e5e5", ".", "+", "1-2", "1e+-5", "1e5.",
         "1_0", "0x10", "inf", "nan", "1..", ".e1", "1ee5", "\xff",
         "1.2.345678901234567", "1.25-105", "1.2.45e-05", "1.2+4e-105",
         "1.2e4e-05"],
    )
    def test_text_that_is_not_a_number_is_left_to_the_caller(self, token):
        """Text that is not a finite decimal ends in a FormatError, at the
        start of the table and inside it: np.loadtxt's, which names the
        text, or, for inf and nan, which np.loadtxt reads as non-finite
        values, one of read_jsa's checks."""
        for table in (f"{token} 1\n" + "1.25 2.5\n" * 4,
                      "1.25 2.5\n" * 4 + f"3 {token}\n" + "1.25 2.5\n" * 4):
            rows, error = _read(table.encode())
            assert isinstance(error, FormatError)
            if token in ("inf", "nan"):
                assert not np.isfinite(rows).all()
            else:
                assert rows is None
                assert str(error).startswith(f"JSA table: could not convert string {token!r}")


def _percent_text(values):
    """The reference: one ``%`` call on the values as Python floats."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return (("%.17g %.17g\n" * (len(values) // 2)) % tuple(values)).encode()


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _neighbours(x):
    """x and the doubles on either side of it."""
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


def _ties():
    """Doubles exactly halfway between two 17-digit decimals: odd * 2**-(q + 1)
    with odd * 5**q / 2 in [10**16, 10**17), for q of 21 to 24 (exponents
    -5 to -8, the only exponential-notation exponents with ties)."""
    ties = []
    for q in range(21, 25):
        low = -(-2 * 10**16 // 5**q) | 1
        for odd in range(low, low + 40, 2):
            x = odd * 2.0 ** -(q + 1)
            assert (Fraction(x) * 10**q).denominator == 2
            ties.append(x)
    return ties


def _carries():
    """Doubles whose 17-digit rounding carries into the next power of ten:
    the double nearest 10**j lies below it by less than half a unit of the
    17th digit."""
    carries = []
    for j in range(-307, 309):
        x = float(f"1e{j}")
        if Fraction(x) < Fraction(10) ** j and ("%.17g" % x).startswith("1"):
            carries.append(x)
    return carries


#: Values on either side of the cases the formatter tells apart: powers of
#: ten, 17-digit ties and carries, the switches of %g to and from fixed
#: notation at 1e-4 and 1e17, the largest and smallest normals, subnormals,
#: the exponent of 1e-292 below which the formatter declines, and zeros.
FORMAT_HARD = sorted(
    {abs(v) for k in range(-307, 309) for v in _neighbours(float(f"1e{k}"))}
    | set(_ties())
    | set(_carries())
    | {v for x in (1e-4, 9.9999999999999991e-05, 1e-5, 1e16, 1e17, 1e18, 1e-292, 1e-293)
       for v in _neighbours(x)}
    | {5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
       2.2250738585072019e-308, 1.7976931348623157e308, 0.1, 0.5, 1.0, 2.0**63, 0.0}
)


class TestFormatPairs:
    def test_matches_percent_on_hard_cases(self):
        # the cases hold carries, and ties that round down and up
        assert len(_carries()) >= 10
        assert {("%.17g" % x).split("e")[0][-1] for x in _ties()} >= {"2", "8"}
        values = np.array(FORMAT_HARD + [-x for x in FORMAT_HARD] + [-0.0, 0.0])
        values = values[: values.size // 2 * 2]
        for rotation in range(2):  # each case once in each column
            values = np.roll(values, 1)
            assert format_pairs(values) == _percent_text(values)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_percent_on_random_bits(self, seed):
        """20 000 finite doubles of uniformly drawn bits, and their round
        trip through np.loadtxt bit for bit."""
        bits = np.random.default_rng(seed).integers(0, 2**64, size=24_000, dtype=np.uint64)
        values = _from_bits(bits)
        values = values[np.isfinite(values)][:20_000]
        text = format_pairs(values)
        assert text == _percent_text(values)
        assert np.array_equal(_bits(np.loadtxt(io.BytesIO(text))), _bits(values))

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 1), st.integers(0, 0x7FE), st.integers(0, (1 << 52) - 1)
                ).map(lambda f: (f[0] << 63) | (f[1] << 52) | f[2]),
                st.floats(allow_nan=False, allow_infinity=False).map(
                    lambda x: struct.unpack("<Q", struct.pack("<d", x))[0]
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_percent_on_drawn_bits(self, bits):
        values = _from_bits(bits + bits[-1:] if len(bits) % 2 else bits)
        text = format_pairs(values)
        assert text == _percent_text(values)
        assert np.array_equal(_bits([float(t) for t in text.split()]), _bits(values))

    @pytest.mark.parametrize("n, width", [(64, 10e-9), (512, 40e-9)])
    def test_matches_percent_on_written_jsa(self, tmp_path, n, width):
        """A written JSA file is the header and one ``%`` call per value."""
        jsa = build_jsa(PdcModel(), FrequencyGrid.centered(1535.2e-9, width, n=n))
        path = tmp_path / "jsa.txt"
        write_jsa(path, jsa)
        grid = jsa.grid
        header = "# %d %d %.17g %.17g %.17g %.17g\n" % (
            n, n, grid.start, grid.d_omega, grid.start, grid.d_omega
        )
        assert path.read_bytes() == header.encode() + _percent_text(jsa.amplitude.view(float))

    def test_default_jsa_takes_the_vector_path(self, monkeypatch):
        """No value of the default 512-point JSA is left to ``%``."""
        jsa = build_jsa(PdcModel(), FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        declined = []
        percent = textfloat._percent
        monkeypatch.setattr(textfloat, "_percent", lambda x: declined.append(x) or percent(x))
        text = format_pairs(jsa.amplitude.view(float))
        assert declined == []
        assert len(text) > 12_000_000

    def test_declined_values_take_percent(self, monkeypatch):
        """Subnormals, values below 1e-292 and fixed notation go to ``%``;
        zeros and the rest do not."""
        declined = []
        percent = textfloat._percent
        monkeypatch.setattr(textfloat, "_percent", lambda x: declined.append(x) or percent(x))
        values = [5e-324, 1e-300, 1e-4, 1e16, -0.0, 0.0, 1e-5, 1e17]
        assert format_pairs(values) == _percent_text(values)
        assert declined == [5e-324, 1e-300, 1e-4, 1e16]

    def test_shapes_and_odd_counts(self):
        pairs = np.array([[1.5, -2.5], [2.0**-20, 4e20]])
        assert format_pairs(pairs) == b"1.5 -2.5\n9.5367431640625e-07 4e+20\n"
        assert format_pairs(pairs.T) == b"1.5 9.5367431640625e-07\n-2.5 4e+20\n"
        assert format_pairs(np.empty(0)) == b""
        with pytest.raises(ValueError, match="pairs"):
            format_pairs([1.0, 2.0, 3.0])

    def test_decimal_exponent_table(self):
        """floor(log10 x) from the table, at both ends of every binade of
        normals and on either side of every power of ten."""
        firsts = [float(np.ldexp(1.0, b - 1023)) for b in range(1, 0x7FF)]
        lasts = [float(np.nextafter(2 * x, 0)) for x in firsts]
        powers = [v for j in range(-307, 309) for v in _neighbours(float(f"1e{j}"))]
        base, threshold = textfloat._decimal_exponents()
        for x in firsts + lasts + powers:
            bits = int(_bits([x])[0])
            b, m = bits >> 52, (bits & ((1 << 52) - 1)) | (1 << 52)
            k = base[b] + (m >= int(threshold[b]))
            assert k == _floor_log10(x), x


def _floor_log10(x):
    """floor(log10 x) of a positive double, exactly."""
    k = math.floor(math.log10(x))
    while Fraction(10) ** k > Fraction(x):
        k -= 1
    while Fraction(10) ** (k + 1) <= Fraction(x):
        k += 1
    return k
