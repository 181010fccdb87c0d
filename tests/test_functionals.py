"""Energies, entropies, Mabuchi traces, and the discrete pairing identity."""

import math

import numpy as np
import pytest

from kgeolab import (
    EpsGeodesicProblem,
    FamilyMismatch,
    FunctionalTrace,
    NegativeDensity,
    PathField,
    TruncationSpec,
    ddc_energy_check,
    ddc_test_function,
    delta_A,
    energy,
    energy_alpha,
    entropy,
    fourier_field,
    legendre_oracle,
    mabuchi,
    mabuchi_eps_A,
    mabuchi_k,
    make_background,
    metric_density,
    second_differences,
    solve_eps_geodesic,
    truncated_entropy,
)
from kgeolab.model import _format_float, central2_symbol

AMP = 0.05 / (2.0 * np.pi) ** 2

# frozen quadrature references, computed independently before these tests
ENTROPY_HALF_COS = 0.06463813202048746  # int (1 + cos/2) log(1 + cos/2) dx
DUAL_MIDPOINT_ENTROPY_256 = 0.00015822847797019885  # 256-node dual-interpolation midpoint


def _cos_potential(grid, density_amplitude: float) -> np.ndarray:
    """Potential whose central2 density is 1 + density_amplitude cos(2 pi x)."""
    return -density_amplitude * np.cos(2.0 * np.pi * grid.nodes) / central2_symbol(grid, 1)


# ---------------------------------------------------------------------------
# traces and specs


def test_second_differences_quadratic():
    ds = 0.125
    values = (np.arange(9) * ds) ** 2
    d2 = second_differences(values, ds)
    assert np.isnan(d2[0]) and np.isnan(d2[-1])
    assert np.max(np.abs(d2[1:-1] - 2.0)) < 1e-11


def test_trace_validation():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="equal lengths"):
        FunctionalTrace(times, np.zeros(4), np.zeros(5), meta={})
    with pytest.raises(ValueError, match="strictly increasing"):
        FunctionalTrace(times[::-1], np.zeros(5), np.zeros(5), meta={})


def test_trace_csv_roundtrip(tmp_path):
    times = np.linspace(0.0, 1.0, 9)
    values = times**2 - 0.3 * times
    trace = FunctionalTrace(times, values, second_differences(values, 0.125), meta={"name": "q"})
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    assert out.read_text().splitlines()[0] == "t,value,second_difference"
    back = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], trace.times)
    assert np.array_equal(back[:, 1], trace.values)
    assert np.array_equal(back[:, 2], trace.second_differences, equal_nan=True)


def test_trace_csv_bytes_match_format_float(tmp_path):
    cells = [-0.0, 5e-324, 1e16, 0.1 + 0.2, float("nan")]
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    trace = FunctionalTrace(times, cells, cells[::-1], meta={})
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    rows = zip(times, cells, cells[::-1])
    body = "".join(",".join(_format_float(v) for v in row) + "\n" for row in rows)
    assert out.read_bytes() == ("t,value,second_difference\n" + body).encode()


def test_truncation_spec_validation():
    TruncationSpec(1.0)
    with pytest.raises(ValueError, match="A must be >= 1"):
        TruncationSpec(0.5)


# ---------------------------------------------------------------------------
# energy


def test_energy_closed_form(small_bg):
    grid = small_bg.grid
    a = 0.01
    u = a * np.cos(2.0 * np.pi * grid.nodes)
    expected = -0.5 * a * a * float(central2_symbol(grid, 1))
    assert energy(small_bg, u) == pytest.approx(expected, abs=1e-12)


def test_energy_constant_shift(small_bg):
    u = _cos_potential(small_bg.grid, 0.3) + 0.2 * np.sin(4.0 * np.pi * small_bg.grid.nodes) / 100.0
    c = 0.7
    assert abs(energy(small_bg, u + c) - energy(small_bg, u) - 2.0 * c) <= 1e-12


def test_energy_alpha_pairing(small_bg):
    x = small_bg.grid.nodes
    u = np.cos(2.0 * np.pi * x)
    alpha = 1.0 + np.cos(2.0 * np.pi * x)
    assert energy_alpha(small_bg, u, alpha) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_zero_on_reference(small_bg):
    assert entropy(small_bg, np.zeros(small_bg.grid.n_points)) == 0.0


def test_entropy_frozen_half_cosine(bg):
    u = _cos_potential(bg.grid, 0.5)
    assert abs(entropy(bg, u) - ENTROPY_HALF_COS) <= 1e-12


def test_entropy_nonnegative(small_bg):
    # coefficients scaled by each mode's own stencil symbol keep the density
    # perturbation below 3 * 0.28 < 1, so every draw stays admissible
    grid = small_bg.grid
    syms = {k: float(central2_symbol(grid, k)) for k in (1, 2, 3)}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        terms = [
            (k, rng.uniform(-0.2, 0.2) / syms[k], rng.uniform(-0.2, 0.2) / syms[k])
            for k in (1, 2, 3)
        ]
        assert entropy(small_bg, fourier_field(grid, terms)) >= -1e-14


def test_entropy_coercive_near_flat(small_bg):
    grid = small_bg.grid
    tiny = _cos_potential(grid, 1e-6)
    h = entropy(small_bg, tiny)
    f = metric_density(small_bg, tiny) / small_bg.w
    assert h < 1e-12
    assert np.max(np.abs(f - 1.0)) < 1e-5
    # away from the reference the entropy is bounded below by a genuine gap
    assert entropy(small_bg, _cos_potential(grid, 0.05)) > 1e-12


def test_truncated_entropy_dominates(small_bg):
    grid = small_bg.grid
    sym = float(central2_symbol(grid, 1))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u = fourier_field(
            grid,
            [(k, rng.uniform(-0.15, 0.15) / sym, rng.uniform(-0.15, 0.15) / sym) for k in (1, 2)],
        )
        h = entropy(small_bg, u)
        for a in (2.0, 5.0, 20.0):
            assert truncated_entropy(small_bg, u, TruncationSpec(a)) >= h - 1e-14
        # at A = 20 the floor is inactive on these densities
        assert abs(truncated_entropy(small_bg, u, TruncationSpec(20.0)) - h) <= 1e-13


def test_delta_a_closed_form(small_bg):
    previous = math.inf
    for a in (2.0, 5.0, 10.0, 20.0):
        c1, c2, slack = delta_A(small_bg, TruncationSpec(a))
        assert abs(c1 - a * math.exp(-a)) <= 1e-12
        assert abs(c2 - 2.0 * math.exp(-a)) <= 1e-12
        assert abs(slack - (a + 2.0) * math.exp(-a)) <= 1e-12
        assert slack < previous
        previous = slack
    assert delta_A(small_bg, TruncationSpec(20.0))[2] < 1e-7


def test_delta_a_with_weight(small_bg):
    chi = np.full(small_bg.grid.n_points, 1.0)
    _, _, slack = delta_A(small_bg, TruncationSpec(5.0, chi=chi))
    assert abs(slack - 6.0 * math.exp(-4.0)) <= 1e-12


# ---------------------------------------------------------------------------
# Mabuchi traces


def _affine_path(grid, endpoint_1, n_time: int) -> PathField:
    s = (np.arange(n_time + 1) / n_time)[:, None]
    return PathField(grid, s * np.asarray(endpoint_1)[None, :])


def test_mabuchi_parts_sum_exactly(small_bg):
    path = _affine_path(small_bg.grid, _cos_potential(small_bg.grid, 0.4), 8)
    trace = mabuchi(small_bg, path)
    assert trace.meta == {"name": "mabuchi"}
    assert np.array_equal(trace.values, trace.e_part + trace.h_part)


def test_mabuchi_equals_entropy_on_flat(small_bg):
    path = _affine_path(small_bg.grid, _cos_potential(small_bg.grid, 0.4), 8)
    trace = mabuchi(small_bg, path)
    assert np.all(trace.e_part == 0.0)
    for value, row in zip(trace.values, path.values):
        assert value == pytest.approx(entropy(small_bg, row), abs=1e-15)


def test_mabuchi_constant_shift_invariance(small_grid):
    curved = make_background(
        small_grid, psi=fourier_field(small_grid, [(1, 0.002, 0.0)])
    )
    path = _affine_path(small_grid, _cos_potential(small_grid, 0.3), 6)
    shifted = PathField(small_grid, path.values + 0.7)
    gap = mabuchi(curved, shifted).values - mabuchi(curved, path).values
    assert np.max(np.abs(gap)) <= 1e-12


def test_mabuchi_rejects_negative_slice(small_bg):
    rows = np.vstack(
        [np.zeros(64), 0.5 * np.cos(2.0 * np.pi * small_bg.grid.nodes)]
    )
    with pytest.raises(NegativeDensity, match="slice 1"):
        mabuchi(small_bg, PathField(small_bg.grid, rows))


def test_mabuchi_k_meta_and_errors(small_bg, small_family):
    path, family = small_family
    trace = mabuchi_k(small_bg, path, family, 2)
    assert trace.meta == {"name": "mabuchi_k", "k": 2, "epsilons": [0.1, 0.01]}
    assert np.array_equal(trace.values, trace.e_part + trace.h_part)
    with pytest.raises(FamilyMismatch, match="outside"):
        mabuchi_k(small_bg, path, family, 0)
    with pytest.raises(FamilyMismatch, match="outside"):
        mabuchi_k(small_bg, path, family, 4)
    short = PathField(small_bg.grid, np.zeros((5, 64)))
    with pytest.raises(FamilyMismatch, match="do not match"):
        mabuchi_k(small_bg, short, family, 1)


def test_mabuchi_eps_a_meta_and_flat_values(small_bg):
    e = np.full(small_bg.grid.n_points, 0.3)
    geo = solve_eps_geodesic(EpsGeodesicProblem(small_bg, e, e, 0.1, 8))
    trace = mabuchi_eps_A(small_bg, geo, TruncationSpec(5.0))
    assert trace.meta == {
        "name": "mabuchi_eps_A",
        "epsilon": 0.1,
        "A": 5.0,
        "energy_argument": "eps_geodesic_potential",
    }
    # constant rows: density equals the reference, both parts vanish exactly
    assert np.all(trace.values == 0.0)
    assert np.isnan(trace.second_differences[0])


# ---------------------------------------------------------------------------
# the discrete pairing identity for the energy


def test_ddc_validation(small_bg):
    path = _affine_path(small_bg.grid, _cos_potential(small_bg.grid, 0.3), 8)
    with pytest.raises(ValueError, match="samples"):
        ddc_energy_check(small_bg, path, np.zeros(4))
    with pytest.raises(ValueError, match="vanish"):
        ddc_energy_check(small_bg, path, np.ones(9))
    with pytest.raises(ValueError, match="n_time must be >= 8"):
        ddc_test_function(4)


def test_ddc_exact_for_x_constant_paths(small_bg):
    n_time = 16
    times = np.arange(n_time + 1) / n_time
    rows = (times**2)[:, None] * np.ones(small_bg.grid.n_points)[None, :]
    report = ddc_energy_check(small_bg, PathField(small_bg.grid, rows), ddc_test_function(n_time))
    assert abs(report.lhs) > 0.5
    assert report.rel_discrepancy <= 1e-12


def test_ddc_smooth_path_second_order(small_bg):
    # on a genuinely s-curved path the two pairings differ at O(ds^2): the
    # discrepancy must shrink by at least half when the time grid doubles
    grid = small_bg.grid
    bump = AMP * np.cos(2.0 * np.pi * grid.nodes)
    rels = []
    for n_time in (16, 32):
        s = np.arange(n_time + 1) / n_time
        rows = s[:, None] * bump[None, :] + (np.sin(np.pi * s) ** 2)[:, None] * bump[None, :]
        report = ddc_energy_check(small_bg, PathField(grid, rows), ddc_test_function(n_time))
        rels.append(report.rel_discrepancy)
        assert report.to_dict()["abs_discrepancy"] == report.abs_discrepancy
    assert rels[1] <= 0.5 * rels[0]
    assert rels[1] <= 1e-2


# ---------------------------------------------------------------------------
# frozen duality oracle: entropy of the interpolated midpoint


def test_dual_interpolated_midpoint_entropy(bg, endpoint_0, endpoint_1):
    path = legendre_oracle(bg, endpoint_0, endpoint_1, n_time=16)
    mid = path.values[8]
    value = entropy(bg, mid)
    assert value > 0.0
    assert abs(value - DUAL_MIDPOINT_ENTROPY_256) <= 1e-13
