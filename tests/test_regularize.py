"""Mollifier properties: mass, multipliers, monotone approximation, bands."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgeolab import (
    InteriorTooThin,
    MollifierSpec,
    SpatialGrid,
    fourier_field,
    gaussian_kernel,
    integrate,
    metric_density,
    mollify_fiberwise,
    mollify_spacetime,
    path_d2x,
    semipositivity_constant,
)


def test_spec_validation():
    MollifierSpec(0.25)
    with pytest.raises(ValueError):
        MollifierSpec(0.3)
    with pytest.raises(ValueError):
        MollifierSpec(0.0)
    with pytest.raises(ValueError):
        MollifierSpec(0.1, "diagonal")


def test_kind_mismatch(small_grid):
    with pytest.raises(ValueError, match="fiberwise"):
        mollify_fiberwise(small_grid, np.zeros(64), MollifierSpec(0.1, "spacetime"))
    with pytest.raises(ValueError, match="spacetime"):
        mollify_spacetime(small_grid, np.zeros((9, 64)), MollifierSpec(0.1, "fiberwise"))


def test_constant_fixed_point(small_grid):
    out = mollify_fiberwise(small_grid, np.full(64, 2.0), MollifierSpec(0.1))
    assert np.max(np.abs(out - 2.0)) < 1e-12


def test_mass_preserved_per_slice(small_grid):
    rng = np.random.default_rng(0)
    path = rng.standard_normal((9, 64))
    out = mollify_fiberwise(small_grid, path, MollifierSpec(0.07))
    for row_in, row_out in zip(path, out):
        assert integrate(small_grid, row_out) == pytest.approx(
            integrate(small_grid, row_in), abs=1e-12
        )


def test_gaussian_multiplier_matches_convolution():
    """cos(2 pi x) contracts by exp(-(2 pi delta)^2 / 2) up to truncation."""
    grid = SpatialGrid(512)
    delta = 0.05
    u = np.cos(2.0 * np.pi * grid.nodes)
    out = mollify_fiberwise(grid, u, MollifierSpec(delta))
    expected = np.exp(-0.5 * (2.0 * np.pi * delta) ** 2) * u  # continuum multiplier at k = 1
    # the six sigma cutoff leaves a renormalization tail of erfc(6/sqrt(2)) ~ 2e-9
    assert np.max(np.abs(out - expected)) < 5e-9


def test_monotone_approximation(small_grid):
    u = fourier_field(small_grid, [(1, 0.3, 0.0), (3, 0.0, 0.1)])
    gaps = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        out = mollify_fiberwise(small_grid, u, MollifierSpec(delta))
        gaps.append(float(np.max(np.abs(out - u))))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-12


def test_d2_convergence_in_lp(small_grid):
    """max over slices of the L^p gap between D2 phi_delta and D2 phi decreases."""
    s = np.linspace(0.0, 1.0, 9)[:, None]
    path = s * fourier_field(small_grid, [(1, 0.2, 0.0)])[None, :] + (1 - s) * fourier_field(
        small_grid, [(2, 0.0, 0.1)]
    )[None, :]
    d2_path = np.array([path_d2x(small_grid, row) for row in path])
    h = small_grid.spacing
    for p in (1, 2, 4):
        worst = []
        for delta in (0.1, 0.05, 0.025):
            out = mollify_fiberwise(small_grid, path, MollifierSpec(delta))
            d2_out = np.array([path_d2x(small_grid, row) for row in out])
            lp = (h * np.sum(np.abs(d2_out - d2_path) ** p, axis=1)) ** (1.0 / p)
            worst.append(float(np.max(lp)))
        assert worst[0] > worst[1] > worst[2]


def test_commutes_with_d2(small_grid):
    u = fourier_field(small_grid, [(1, 1.0, 0.0), (4, 0.2, 0.2)])
    spec = MollifierSpec(0.06)
    a = path_d2x(small_grid, mollify_fiberwise(small_grid, u, spec))
    b = mollify_fiberwise(small_grid, path_d2x(small_grid, u), spec)
    assert np.max(np.abs(a - b)) < 1e-10


# ---------------------------------------------------------------------------
# space-time smoothing


def test_spacetime_keeps_affine_rows(small_grid):
    s = np.linspace(0.0, 1.0, 17)[:, None]
    path = 2.0 * s + 1.0 + np.zeros((17, 64))
    out = mollify_spacetime(small_grid, path, MollifierSpec(0.1, "spacetime"))
    assert np.max(np.abs(out - path)) < 1e-9


def test_spacetime_band_untouched_outside(small_grid):
    rng = np.random.default_rng(1)
    path = rng.standard_normal((17, 64))
    spec = MollifierSpec(0.1, "spacetime")
    out = mollify_spacetime(small_grid, path, spec)
    margin = int(np.ceil(spec.delta * 16))
    lo, hi = margin + 1, 16 - margin - 1
    assert np.array_equal(out[:lo], path[:lo])
    assert np.array_equal(out[hi + 1 :], path[hi + 1 :])
    assert not np.array_equal(out[lo : hi + 1], path[lo : hi + 1])


def test_spacetime_kink_error_scales_with_delta(small_grid):
    s = np.linspace(0.0, 1.0, 33)
    path = np.abs(s - 0.5)[:, None] * np.ones((1, 64))
    for delta in (0.1, 0.05):
        out = mollify_spacetime(small_grid, path, MollifierSpec(delta, "spacetime"))
        assert float(np.max(np.abs(out - path))) <= delta  # Lip = 1


def test_interior_too_thin(small_grid):
    with pytest.raises(InteriorTooThin):
        mollify_spacetime(small_grid, np.zeros((5, 64)), MollifierSpec(0.2, "spacetime"))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_fiberwise_equals_ndimage_wrap_convolution(n):
    """Bit for bit scipy.ndimage.convolve1d(mode="wrap"), the half-width cap n // 2 included."""
    from scipy.ndimage import convolve1d

    grid = SpatialGrid(n)
    rng = np.random.default_rng(n)
    for delta in (0.001, 0.01, 0.06, 0.15, 0.25):
        kernel = gaussian_kernel(grid.spacing, delta, n // 2)
        for shape in ((n,), (3, n), (17, n)):
            u = rng.standard_normal(shape)
            out = mollify_fiberwise(grid, u, MollifierSpec(delta))
            assert np.array_equal(out, convolve1d(u, kernel, axis=-1, mode="wrap"))


def test_fiberwise_leaves_scipy_ndimage_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, numpy as np; from kgeolab import MollifierSpec, SpatialGrid, mollify_fiberwise; "
        "mollify_fiberwise(SpatialGrid(64), np.ones((3, 64)), MollifierSpec(0.05)); "
        "print('scipy.ndimage' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# measured constants


def test_semipositivity_constant_vanishes_on_admissible(small_bg):
    amp = 0.05 / (2.0 * np.pi) ** 2
    s = np.linspace(0.0, 1.0, 9)[:, None]
    path = s * amp * np.cos(2.0 * np.pi * small_bg.grid.nodes)[None, :]
    m_delta = metric_density(small_bg, mollify_fiberwise(small_bg.grid, path, MollifierSpec(0.05)))
    assert semipositivity_constant(m_delta, 0.05) == 0.0
    # a density dipping to -1e-3 at width 0.05 needs C = 1e-3 / 0.05
    assert semipositivity_constant(m_delta - np.min(m_delta) - 1e-3, 0.05) == pytest.approx(0.02)
