import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from congestion_sim.errors import DimensionError
from congestion_sim.grid import (
    Grid,
    backward_difference,
    central_difference,
    ddx_central,
    face_sum,
    forward_difference,
    integrate,
    norm,
)


def test_grid_geometry():
    g = Grid(64)
    assert g.dx * g.n_cells == pytest.approx(1.0, abs=1e-15)
    assert g.x[0] == pytest.approx(0.5 * g.dx)
    assert g.x[-1] == pytest.approx(1.0 - 0.5 * g.dx)


def test_grid_rejects_tiny_and_stretched():
    with pytest.raises(ValueError):
        Grid(3)


def test_ddx_constant_is_exactly_zero():
    g = Grid(32)
    out = ddx_central(np.full(32, 3.7), g)
    assert np.all(out == 0.0)


def test_ddx_sine_matches_analytic():
    g = Grid(1024)
    f = np.sin(2.0 * np.pi * g.x)
    exact = 2.0 * np.pi * np.cos(2.0 * np.pi * g.x)
    assert np.max(np.abs(ddx_central(f, g) - exact)) <= 1e-4


def test_ddx_sawtooth_wrap_spike_is_not_an_error():
    # linear-in-x input is not periodic; the wrap produces an O(1/dx)
    # spike at the seam while interior cells see slope 1
    g = Grid(64)
    out = ddx_central(g.x.copy(), g)
    interior = out[1:-1]
    assert np.allclose(interior, 1.0, atol=1e-12)
    assert abs(out[0]) > 10.0 and abs(out[-1]) > 10.0


@pytest.mark.parametrize("k", [1, 2, 4])
def test_ddx_convergence_order(k):
    errs = []
    for n in (64, 128, 256):
        g = Grid(n)
        f = np.sin(2.0 * np.pi * k * g.x)
        exact = 2.0 * np.pi * k * np.cos(2.0 * np.pi * k * g.x)
        errs.append(np.max(np.abs(ddx_central(f, g) - exact)))
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) >= 1.95


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, st.integers(4, 40),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_slice_shifts_match_roll_bit_for_bit(f):
    # the np.roll forms are the reference: same operands, same bits
    assert np.array_equal(forward_difference(f), np.roll(f, -1) - f)
    assert np.array_equal(backward_difference(f), f - np.roll(f, 1))
    assert np.array_equal(central_difference(f), np.roll(f, -1) - np.roll(f, 1))
    assert np.array_equal(face_sum(f), f + np.roll(f, -1))


def test_integrate_constant_exact():
    g = Grid(48)
    assert integrate(np.ones(48), g) == pytest.approx(1.0, abs=0.0)


def test_integrate_sine_vanishes():
    g = Grid(64)
    assert abs(integrate(np.sin(2.0 * np.pi * g.x), g)) <= 1e-14


def test_integrate_cosine_offset():
    g = Grid(256)
    f = 0.8 + 0.1 * np.cos(2.0 * np.pi * g.x)
    assert integrate(f, g) == pytest.approx(0.8, abs=1e-13)


def test_norms_constant_field():
    g = Grid(16)
    f = np.full(16, -2.0)
    assert norm(f, g, "l1") == pytest.approx(2.0)
    assert norm(f, g, "l2") == pytest.approx(2.0)
    assert norm(f, g, "linf") == pytest.approx(2.0)


def test_norms_zero_field():
    g = Grid(16)
    z = np.zeros(16)
    for kind in ("l1", "l2", "linf"):
        assert norm(z, g, kind) == 0.0


def test_norm_sine_l2():
    g = Grid(256)
    f = np.sin(2.0 * np.pi * g.x)
    assert norm(f, g, "l2") == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_norm_unknown_kind():
    g = Grid(16)
    with pytest.raises(ValueError):
        norm(np.zeros(16), g, "l3")


def test_dimension_mismatch_raises():
    g = Grid(16)
    with pytest.raises(DimensionError):
        ddx_central(np.zeros(17), g)
    with pytest.raises(DimensionError):
        integrate(np.zeros(8), g)
    with pytest.raises(DimensionError):
        norm(np.zeros((4, 4)), g, "l2")


finite_fields = hnp.arrays(
    np.float64, 64,
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@given(finite_fields)
@settings(max_examples=50, deadline=None)
def test_discrete_divergence_theorem(values):
    g = Grid(64)
    assert abs(integrate(ddx_central(values, g), g)) <= 1e-13 * (1.0 + np.max(np.abs(values)))


@given(finite_fields)
@settings(max_examples=50, deadline=None)
def test_norm_interpolation_inequalities(values):
    g = Grid(64)
    l1, l2, linf = (norm(values, g, k) for k in ("l1", "l2", "linf"))
    assert l2 ** 2 <= l1 * linf * (1.0 + 1e-12) + 1e-300
    assert l1 <= linf * (1.0 + 1e-12)
