"""The snapshot CSV formatter: every value is exactly ``'%.17g' % v``."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestion_sim.textfmt import BLOCK_ROWS, csv_blocks

# an inf or nan input warns nowhere on the vectorized path
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def per_value(values) -> list[bytes]:
    """The CSV lines of the rows of ``values``, one ``'%.17g' % v`` at a time."""
    return [",".join("%.17g" % v for v in row).encode("ascii") + b"\n"
            for row in values.tolist()]


def lines(values) -> list[bytes]:
    return b"".join(csv_blocks(values)).splitlines(keepends=True)


def assert_each_value_matches(values):
    # one value a row, so a mismatch names its value
    col = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    assert lines(col) == per_value(col)


def around(v: float) -> list[float]:
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def powers_of_ten(lo: int, hi: int) -> list[float]:
    # parsing is correctly rounded: the double nearest each 10**k
    return [float(f"1e{k}") for k in range(lo, hi + 1)]


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_matches_per_value_format(bits):
    assert_each_value_matches(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-1e30, 1e30)), min_size=1, max_size=64))
def test_any_float_matches_per_value_format(values):
    assert_each_value_matches(values)


def test_edge_values_match_per_value_format():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    subnormals = [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    edges = ([0.0, math.inf, 1.7976931348623157e308, math.nextafter(1e-4, 0.0)]
             + subnormals + [v for p in powers_of_ten(-35, 35) for v in around(p)])
    assert 1e-30 in edges and 1e30 in edges
    values = np.concatenate([nans, edges, np.negative(edges)])
    assert np.signbit(values).any() and np.isnan(values).sum() == 3
    assert_each_value_matches(values)


def test_exact_ties_round_half_even():
    # m / 2**j for odd m < 2**53 is exactly m * 5**j / 10**j; when m * 5**j
    # has 18 digits it ends in 5, and 17 digits are an exact tie
    rng = np.random.default_rng(11)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(2 ** 53, 10 ** 18 // 5 ** j)
        for m in rng.integers(lo, hi, size=20).tolist():
            m |= 1
            assert 10 ** 17 <= m * 5 ** j < 10 ** 18 and m * 5 ** j % 10 == 5
            ties.append(m / 2 ** j)
    texts = ["%.17g" % v for v in ties]
    # both halves of round-half-even occur
    assert {Fraction(t) > Fraction(v) for t, v in zip(texts, ties)} == {False, True}
    assert_each_value_matches(ties + [-v for v in ties])


def test_values_whose_rounding_carries():
    # a double within 5e-18 below a power of ten rounds up to it at 17
    # digits, and the exponent carries; in [1e-30, 1e30] the double nearest
    # 1e-14 is the only one
    near = [v for p in powers_of_ten(-31, 30) for v in around(p)]
    exact_powers = {Fraction(10) ** k for k in range(-31, 31)}
    carries = [v for v in near
               if Fraction("%.17g" % v) in exact_powers and Fraction(v) < Fraction("%.17g" % v)]
    assert carries == [1e-14]
    assert ["%.17g" % v for v in carries] == ["1e-14"]
    assert_each_value_matches(near + [-v for v in near])


def test_random_values_match_per_value_format():
    # mostly the vectorized path: every layout, 1e-35 to 1e35
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(-35, 36, 20000)
    values[::2] *= -1.0
    assert_each_value_matches(values)


@pytest.mark.parametrize("n_rows", sorted({1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                           1023, 1024, 1025, 4097}))
def test_blocks_of_rows_match_per_row_format(n_rows):
    rng = np.random.default_rng(n_rows)
    values = rng.standard_normal((n_rows, 7)) * 10.0 ** rng.integers(-40, 40, (n_rows, 7))
    values.ravel()[::97] = 0.0
    values.ravel()[::101] = np.nan
    values.ravel()[::103] = -np.inf
    assert lines(values) == per_value(values)
    assert len(list(csv_blocks(values))) == -(-n_rows // BLOCK_ROWS)
