"""Shared fixtures: the canonical run is solved once per session and reused.

The heavy objects (weak geodesic, fiber family, the fine-grid geodesic for
the curvature checks) all hang off one SuiteData instance, built from
configs/canonical.json, whose lazy cached properties guarantee each solve
happens at most once no matter how many test modules touch it.  Cheap unit
tests use the small 64-point grid instead.
"""

from pathlib import Path

import numpy as np
import pytest

from kgeolab import (
    PathField,
    SpatialGrid,
    SuiteData,
    fourier_field,
    load_config,
    make_background,
    parse_config,
    run_suite,
    solve_family,
)

CANONICAL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "canonical.json"

# amplitude of the canonical cosine endpoint, in potential units: the
# induced density perturbation has amplitude 0.05
CANONICAL_AMPLITUDE = 0.05 / (2.0 * np.pi) ** 2


@pytest.fixture(scope="session")
def grid():
    return SpatialGrid(256)


@pytest.fixture(scope="session")
def bg(grid):
    return make_background(grid)


@pytest.fixture(scope="session")
def endpoint_0(grid):
    return np.zeros(grid.n_points)


@pytest.fixture(scope="session")
def endpoint_1(grid):
    return fourier_field(grid, [(1, CANONICAL_AMPLITUDE, 0.0)])


@pytest.fixture(scope="session")
def suite_data():
    return SuiteData(load_config(CANONICAL_CONFIG))


@pytest.fixture(scope="session")
def run_suite_data():
    """Build a fresh SuiteData from a small config document: the run from 0 to the cosine
    endpoint of the given density amplitude, at the given grid and n_time, plus any other
    top-level sections (seed, epsilons, tolerances)."""

    def build(n_points=256, density_amplitude=0.05, n_time=16, **sections):
        endpoint_1 = [[1, density_amplitude / (2.0 * np.pi) ** 2, 0.0]]
        doc = {
            "grid": {"n_points": n_points},
            "time": {"n_time": n_time},
            "endpoints": {"endpoint_0": [], "endpoint_1": endpoint_1},
            **sections,
        }
        return SuiteData(parse_config(doc))

    return build


@pytest.fixture(scope="session")
def weak_path(suite_data):
    return suite_data.weak_path


@pytest.fixture(scope="session")
def family(suite_data):
    return suite_data.family


@pytest.fixture(scope="session")
def eps_geo(suite_data):
    """Converged geodesic at epsilon 1e-2 on the 256 x 64 space-time grid."""
    return suite_data.eps_geodesic


@pytest.fixture(scope="session")
def all_results(suite_data):
    """Every check suite, run once; shared by the verify and acceptance tests."""
    return run_suite(suite_data, "all")


@pytest.fixture(scope="session")
def small_grid():
    return SpatialGrid(64)


@pytest.fixture(scope="session")
def small_bg(small_grid):
    return make_background(small_grid)


@pytest.fixture(scope="session")
def small_family(small_bg):
    """Linear-in-t admissible path and its solved fiber family, 64-point size."""
    s = np.linspace(0.0, 1.0, 9)[:, None]
    path = PathField(
        small_bg.grid,
        s * CANONICAL_AMPLITUDE * np.cos(2.0 * np.pi * small_bg.grid.nodes)[None, :],
    )
    family = solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.1, 0.05, 0.025))
    return path, family
