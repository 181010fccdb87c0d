"""Grid, field, and background invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgeolab import (
    NonAdmissiblePsi,
    PathField,
    SpatialGrid,
    fourier_field,
    integrate,
    is_admissible,
    make_background,
    metric_density,
    path_d1x,
    path_d2x,
    reduced_hessian,
)
from kgeolab import model
from kgeolab.model import _as_field_values, central2_symbol


# ---------------------------------------------------------------------------
# grids


@pytest.mark.parametrize("n", [8, 64, 256])
def test_grid_basic(n):
    g = SpatialGrid(n)
    assert g.spacing * g.n_points == 1.0
    assert g.nodes[0] == 0.0 and len(g.nodes) == n


@pytest.mark.parametrize("n", [4, 6, 7, 9, 255])
def test_grid_rejects_small_or_odd(n):
    with pytest.raises(ValueError):
        SpatialGrid(n)


# ---------------------------------------------------------------------------
# derivatives


def test_d2_kills_constants(small_grid):
    assert np.max(np.abs(path_d2x(small_grid, np.full(64, 3.7)))) < 1e-9


def test_d2_central2_symbol(small_grid):
    u = np.cos(2.0 * np.pi * small_grid.nodes)
    sym = central2_symbol(small_grid, 1)
    got = path_d2x(small_grid, u)
    assert np.max(np.abs(got + sym * u)) < 1e-9


def test_d1_central_symbol(small_grid):
    x = small_grid.nodes
    got = path_d1x(small_grid, np.sin(2.0 * np.pi * x))
    # central two-point stencil: symbol sin(2 pi h) / h at wavenumber 1
    sym = np.sin(2.0 * np.pi * small_grid.spacing) / small_grid.spacing
    assert np.max(np.abs(got - sym * np.cos(2.0 * np.pi * x))) < 1e-9


@pytest.mark.parametrize("n", [8, 256])
def test_padded_stencils_equal_the_roll_formulas_bit_for_bit(n):
    """The periodic differences built from one padded array are the np.roll formulas, bit for bit:
    the same operands in the same order, on a field and on every row of a path."""
    from kgeolab.geodesic import _stencil_parts
    from kgeolab.model import _periodic_pad

    rng = np.random.default_rng(n)
    grid = SpatialGrid(n)
    h = grid.spacing
    for u in (rng.standard_normal(n), rng.standard_normal((9, n))):
        up, down = np.roll(u, -1, axis=-1), np.roll(u, 1, axis=-1)
        assert np.array_equal(path_d2x(grid, u), ((up - u) - (u - down)) / (h * h))
        assert np.array_equal(path_d1x(grid, u), (up - down) / (2.0 * h))

    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    p = rng.standard_normal((17, n))
    ds = 1.0 / 16
    m_xx = bg.w[None, :] + ((np.roll(p, -1, axis=1) - p) - (p - np.roll(p, 1, axis=1)))[1:-1] * (1.0 / (h * h))
    phi_xs = (
        np.roll(p[2:], -1, axis=1) - np.roll(p[2:], 1, axis=1) - np.roll(p[:-2], -1, axis=1) + np.roll(p[:-2], 1, axis=1)
    ) / (4.0 * h * ds)
    parts = _stencil_parts(bg, _periodic_pad(p))
    assert np.array_equal(parts[0], m_xx) and np.array_equal(parts[2], phi_xs)


@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    k1=st.integers(0, 7),
    k2=st.integers(0, 7),
)
@settings(max_examples=25, deadline=None)
def test_d2_linearity(a, b, k1, k2):
    grid = SpatialGrid(64)
    u = fourier_field(grid, [(k1, 1.0, 0.3)])
    v = fourier_field(grid, [(k2, 0.5, -1.0)])
    lhs = path_d2x(grid, a * u + b * v)
    rhs = a * path_d2x(grid, u) + b * path_d2x(grid, v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))
    # against the exact multiplier -(2 pi k)^2 the gap is the stencil's truncation error,
    # (2 pi k)^4 h^2 / 12 per unit amplitude (both fields have amplitude below 1.2)
    exact = -((2.0 * np.pi) ** 2) * (a * k1 * k1 * u + b * k2 * k2 * v)
    truncation = (2.0 * np.pi * max(k1, k2)) ** 4 * grid.spacing**2 / 12.0 * 1.2 * (abs(a) + abs(b))
    assert np.max(np.abs(lhs - exact)) <= truncation + 1e-9 * (1.0 + np.max(np.abs(exact)))


def test_scheme_agreement_second_order():
    """central2 converges to the exact multiplier -(2 pi k)^2 at order >= 1.9."""
    errs = []
    ns = (64, 128, 256, 512)
    for n in ns:
        grid = SpatialGrid(n)
        u = fourier_field(grid, [(1, 1.0, 0.0), (2, 0.0, 0.3)])
        x = grid.nodes
        exact = -((2.0 * np.pi) ** 2) * np.cos(2.0 * np.pi * x) - 0.3 * (4.0 * np.pi) ** 2 * np.sin(4.0 * np.pi * x)
        gap = path_d2x(grid, u) - exact
        errs.append(np.max(np.abs(gap)))
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order >= 1.9, f"observed order {order:.3f}"


def test_integrate_rectangle_rule(small_grid):
    assert integrate(small_grid, np.ones(64)) == pytest.approx(1.0, abs=1e-15)
    assert abs(integrate(small_grid, np.cos(2.0 * np.pi * small_grid.nodes))) < 1e-15


@pytest.mark.parametrize("rows", [1, 17])
@pytest.mark.parametrize("n", [8, 10, 64, 256, 512])
def test_integrate_stack_equals_rowwise_bit_for_bit(n, rows):
    """A stack integrates along its last axis to the bits of each row on its own.

    This is the contract that lets the functionals and checks integrate a
    whole path or density stack and still write byte-identical reports.
    """
    grid = SpatialGrid(n)
    bg = make_background(grid)
    rng = np.random.default_rng([n, rows])
    views = {
        "contiguous": rng.standard_normal((rows, n)),
        "strided": rng.standard_normal((rows, 2 * n))[:, ::2],
        "transposed": rng.standard_normal((n, rows)).T,
    }
    for label, stack in views.items():
        for quad in (lambda v: integrate(grid, v), bg.integrate, bg.integrate_mu):
            whole = quad(stack)
            assert isinstance(whole, np.ndarray) and whole.shape == (rows,), label
            assert np.array_equal(whole, [quad(row) for row in stack]), label
    field = quad(views["contiguous"][0])
    assert type(field) is float and type(integrate(grid, np.ones(n))) is float
    paths = rng.standard_normal((3, rows, n))
    assert np.array_equal(integrate(grid, paths), [[integrate(grid, r) for r in p] for p in paths])


# ---------------------------------------------------------------------------
# backgrounds


def test_flat_background(small_bg):
    assert np.max(np.abs(small_bg.w - 1.0)) < 1e-14
    assert np.max(np.abs(small_bg.r)) < 1e-12
    assert abs(small_bg.ricci_mean) <= 1e-12


def test_curved_background_density(small_grid):
    psi = fourier_field(small_grid, [(1, 0.01, 0.0)])
    bg = make_background(small_grid, psi=psi)
    sym = central2_symbol(small_grid, 1)
    expected = 1.0 - 0.01 * sym * np.cos(2.0 * np.pi * small_grid.nodes)
    assert np.max(np.abs(bg.w - expected)) < 1e-12
    assert integrate(small_grid, bg.w) == pytest.approx(1.0, abs=1e-14)
    assert abs(bg.ricci_mean) <= 1e-12


def test_non_admissible_psi(small_grid):
    with pytest.raises(NonAdmissiblePsi):
        make_background(small_grid, psi=fourier_field(small_grid, [(1, 10.0, 0.0)]))


def test_nonzero_mean_curvature_is_typed(small_grid, monkeypatch):
    """A curvature density with nonzero mean is rejected as NonAdmissiblePsi."""
    real = model.path_d2x
    monkeypatch.setattr(model, "path_d2x", lambda grid, v: real(grid, v) + 1e-6)
    with pytest.raises(NonAdmissiblePsi, match="curvature mean"):
        make_background(small_grid)


def test_background_arrays_frozen(small_bg):
    with pytest.raises(ValueError):
        small_bg.w[0] = 2.0


@given(st.lists(st.tuples(st.integers(0, 10), st.floats(-2, 2), st.floats(-2, 2)), max_size=4))
@example([(8, 1.9369028547625735, 0.0), (8, -0.10784749983618225, 0.0)] + [(8, 1.9369028547625735, 0.0)] * 2)
@settings(max_examples=40, deadline=None)
def test_mass_conservation(terms):
    """integrate(m[u]) = 1 for every potential: D2 telescopes to zero.

    Up to round-off in the nodal densities and their sum, bounded by a few
    units in the last place of h * sum |m|: the example draw has
    h * sum |m| = 8,259 and misses 1 by 1.14e-12.
    """
    grid = SpatialGrid(64)
    bg = make_background(grid)
    m = metric_density(bg, fourier_field(grid, terms))
    bound = 8.0 * np.finfo(float).eps * grid.spacing * float(np.sum(np.abs(m)))
    assert abs(integrate(grid, m) - 1.0) <= bound


def test_metric_density_constant_and_cosine(small_bg):
    grid = small_bg.grid
    assert np.max(np.abs(metric_density(small_bg, np.full(64, 2.5)) - small_bg.w)) < 1e-12
    a = 0.005
    m = metric_density(small_bg, a * np.cos(2.0 * np.pi * grid.nodes))
    expected = 1.0 - a * central2_symbol(grid, 1) * np.cos(2.0 * np.pi * grid.nodes)
    assert np.max(np.abs(m - expected)) < 1e-12


def test_is_admissible(small_bg):
    grid = small_bg.grid
    assert is_admissible(small_bg, np.zeros(64))
    scaled = 0.5 * np.cos(2.0 * np.pi * grid.nodes) / central2_symbol(grid, 1)
    assert is_admissible(small_bg, scaled)
    assert not is_admissible(small_bg, np.cos(2.0 * np.pi * grid.nodes))


# ---------------------------------------------------------------------------
# field containers


def test_periodic_field_shape_checks(small_grid):
    """Nodal values of one periodic field: one finite value per grid node."""
    assert np.array_equal(_as_field_values(small_grid, range(64)), np.arange(64.0))
    with pytest.raises(ValueError, match="expected 64 nodal values"):
        _as_field_values(small_grid, np.zeros(63))
    with pytest.raises(ValueError, match="finite"):
        _as_field_values(small_grid, np.full(64, np.nan))
    with pytest.raises(ValueError, match="expected 64 nodal values"):
        _as_field_values(small_grid, np.zeros((2, 64)))


def test_path_field_checks(small_grid):
    vals = np.zeros((9, 64))
    path = PathField(small_grid, vals)
    assert path.n_time == 8 and path.ds == 0.125
    assert np.array_equal(path.times, np.arange(9) / 8.0)
    with pytest.raises(ValueError):
        PathField(small_grid, np.zeros((9, 63)))
    with pytest.raises(ValueError):
        PathField(small_grid, np.zeros((1, 64)))
    with pytest.raises(ValueError, match="finite"):
        PathField(small_grid, np.full((9, 64), np.inf))


def test_reduced_hessian_det_and_mixed(small_bg):
    rng = np.random.default_rng(6)
    path = PathField(small_bg.grid, 0.001 * rng.standard_normal((9, 64)))
    rh = reduced_hessian(small_bg, path)
    assert rh.m_xx.shape == (7, 64)  # interior rows 1..n_time-1
    assert rh.m_xx.shape == rh.m_xs.shape == rh.m_ss.shape
    # polarizing the determinant against itself doubles it
    assert np.max(np.abs(rh.mixed_det(rh.m_xx, rh.m_xs, rh.m_ss) - 2.0 * rh.det())) < 1e-8
