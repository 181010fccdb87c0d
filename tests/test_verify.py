"""Property-check machinery: results, controls, sequences, suite composition."""

import json
from dataclasses import replace

import numpy as np
import pytest

from kgeolab import (
    DensitySequence,
    EpsGeodesic,
    EpsGeodesicProblem,
    FunctionalTrace,
    NegativeDensity,
    NotASolution,
    PathField,
    PropertyResult,
    SkippedHypothesis,
    TruncationSpec,
    curvature_levels,
    density_limit_report,
    entropy_semicontinuity,
    eps_curvature_identity,
    fourier_field,
    mabuchi,
    mabuchi_eps_A_almost_convex,
    boundary_continuity_refinement,
    convexity_inequality_k,
    max_subharmonic_lemma,
    mollified_sequence,
    omega_mask_report,
    oscillation_sequence,
    random_density_sequence,
    run_suite,
    second_differences,
    solve_eps_geodesic,
    subharmonic_test_fields,
    truncated_semicontinuity_sweep,
)
from kgeolab import geodesic
from kgeolab.verify import BOUNDARY_N_TIMES, WEAK_EPSILONS, SuiteData, _as_control, _jsonable

EXPECTED_NAMES = (
    [f"entropy_semicontinuity[seed={i}]" for i in range(20)]
    + [
        "truncated_semicontinuity_sweep",
        "delta_a_closed_form",
        "control:entropy_semicontinuity",
        "control:truncated_semicontinuity",
    ]
    + [f"convexity_inequality_k[k={k}]" for k in (1, 2, 4)]
    + [
        "mabuchi_convexity_and_continuity",
        "boundary_continuity_refinement",
        "mabuchi_eps_A_almost_convex[A=5]",
        "mabuchi_eps_A_almost_convex[A=10]",
        "ddc_energy_identity",
        "control:convexity_inequality_k",
        "control:mabuchi_convexity_and_continuity",
        "control:mabuchi_eps_A_almost_convex",
        "control:ddc_energy_identity",
    ]
    + [
        "eps_curvature_identity",
        "eps_geodesic_residual_c",
        "control:eps_curvature_identity",
        "control:eps_geodesic_residual_c",
    ]
    + [
        "family_uniform_bounds",
        "density_convergence",
        "eps_phi_vanishing",
        "mass_pairing",
        "max_subharmonic_lemma",
        "control:family_uniform_bounds",
        "control:eps_phi_vanishing",
        "control:density_convergence",
        "control:max_subharmonic_lemma",
    ]
)


def _constant_geodesic(bg, n_time: int, epsilon: float = 0.1) -> EpsGeodesic:
    c = np.full(bg.grid.n_points, 0.2)
    return solve_eps_geodesic(EpsGeodesicProblem(bg, c, c, epsilon, n_time))


# ---------------------------------------------------------------------------
# result container and controls


def test_property_result_consistency():
    PropertyResult(name="ok", passed=True, margin=0.0, details={})
    with pytest.raises(ValueError, match="contradicts"):
        PropertyResult(name="bad", passed=True, margin=-1.0, details={})
    with pytest.raises(ValueError, match="contradicts"):
        PropertyResult(name="bad", passed=False, margin=0.5, details={})


def test_property_result_serializes_real_booleans():
    r = PropertyResult(name="x", passed=True, margin=0.5, details={"flag": np.bool_(True)})
    doc = json.dumps(r.to_dict())
    assert '"pass": true' in doc
    assert '"flag": true' in doc


def test_jsonable_numpy_scalars():
    out = _jsonable({"b": np.bool_(False), "i": np.int64(3), "f": np.float64(0.5), "a": np.arange(2)})
    assert out == {"b": False, "i": 3, "f": 0.5, "a": [0, 1]}
    assert isinstance(out["b"], bool) and not isinstance(out["i"], bool)


def test_as_control_flips_verdict():
    raw = PropertyResult(name="x", passed=True, margin=0.5, details={"tol": 1e-6})
    inv = _as_control("control:x", raw)
    assert inv.name == "control:x"
    assert not inv.passed and inv.margin == -0.5
    assert inv.details["control"] is True
    assert inv.details["raw_margin"] == 0.5 and inv.details["raw_pass"] is True
    # a zero margin must still flip to a strict failure
    zero = PropertyResult(name="z", passed=True, margin=0.0, details={})
    assert not _as_control("control:z", zero).passed


# ---------------------------------------------------------------------------
# density sequences


def test_density_sequence_validation(small_bg):
    ones = np.ones(small_bg.grid.n_points)
    DensitySequence(bg=small_bg, f_limit=ones, members=[ones.copy()], bound=2.0)
    neg = ones.copy()
    neg[0] = -0.1
    with pytest.raises(NegativeDensity):
        DensitySequence(bg=small_bg, f_limit=ones, members=[neg], bound=2.0)
    tall = 1.0 + np.cos(2.0 * np.pi * small_bg.grid.nodes)
    with pytest.raises(ValueError, match="exceeds the declared bound"):
        DensitySequence(bg=small_bg, f_limit=ones, members=[tall], bound=1.5)
    with pytest.raises(ValueError, match="mu-mass"):
        DensitySequence(bg=small_bg, f_limit=ones, members=[2.0 * ones], bound=3.0)


def test_oscillation_sequence(small_bg):
    with pytest.raises(ValueError, match="amplitude"):
        oscillation_sequence(small_bg, amplitude=1.0)
    with pytest.raises(ValueError, match="count"):
        oscillation_sequence(small_bg, count=0)
    with pytest.raises(ValueError, match="count"):
        oscillation_sequence(small_bg, count=small_bg.grid.n_points // 2)
    seq = oscillation_sequence(small_bg, count=5)
    assert len(seq.members) == 5
    for f in seq.members:
        assert abs(small_bg.integrate_mu(f) - 1.0) <= 1e-10
    res = entropy_semicontinuity(small_bg, seq)
    assert res.passed and res.margin > 0.0


def test_random_density_sequence_reproducible(small_bg):
    a = random_density_sequence(small_bg, seed=3)
    b = random_density_sequence(small_bg, seed=3)
    c = random_density_sequence(small_bg, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a.members, b.members))
    assert not np.array_equal(a.f_limit, c.f_limit)


def test_mollified_sequence_breaks_semicontinuity(small_bg):
    seq = mollified_sequence(small_bg)
    assert all(np.array_equal(seq.members[0], m) for m in seq.members[1:])
    res = entropy_semicontinuity(small_bg, seq)
    assert not res.passed and res.margin < -1e-3


def test_truncated_sweep_monotone_slacks(small_bg):
    seq = oscillation_sequence(small_bg, count=6)
    res = truncated_semicontinuity_sweep(small_bg, seq, a_values=(2.0, 5.0, 10.0))
    assert res.passed
    slacks = res.details["delta_values"]
    assert all(b < a for a, b in zip(slacks, slacks[1:]))


# ---------------------------------------------------------------------------
# curvature helpers


def test_curvature_levels_validation(small_bg):
    with pytest.raises(ValueError, match="divisible by 4"):
        curvature_levels(small_bg, _constant_geodesic(small_bg, 10))
    with pytest.raises(ValueError, match="n_time // 4"):
        curvature_levels(small_bg, _constant_geodesic(small_bg, 12))
    geo = _constant_geodesic(small_bg, 32)
    levels = curvature_levels(small_bg, geo)
    assert [(b.grid.n_points, eg.path.n_time) for b, eg in levels] == [(16, 8), (32, 16), (64, 32)]
    assert levels[-1][1] is geo


def test_curvature_identity_requires_converged_input(small_bg):
    geo = _constant_geodesic(small_bg, 32)
    fake = EpsGeodesic(
        path=geo.path,
        residual_sup=1.0,
        positivity_margin=geo.positivity_margin,
        newton_iters=geo.newton_iters,
        epsilon=geo.epsilon,
    )
    with pytest.raises(NotASolution, match="residual"):
        eps_curvature_identity(small_bg, fake)


# ---------------------------------------------------------------------------
# trace-level checks


def _flat_trace(eps: float, a: float, values=None) -> FunctionalTrace:
    times = np.linspace(0.0, 1.0, 9)
    v = np.zeros(9) if values is None else np.asarray(values, dtype=float)
    return FunctionalTrace(
        times,
        v,
        second_differences(v, 0.125),
        meta={"name": "mabuchi_eps_A", "epsilon": eps, "A": a},
    )


def test_mabuchi_eps_a_convexity_validation(small_bg):
    good = [_flat_trace(e, 5.0) for e in (0.1, 0.01, 0.001)]
    res = mabuchi_eps_A_almost_convex(small_bg, good)
    assert res.passed and res.name == "mabuchi_eps_A_almost_convex[A=5]"
    assert res.details["c_hats"] == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="at least 3"):
        mabuchi_eps_A_almost_convex(small_bg, good[:2])
    mixed = [_flat_trace(0.1, 5.0), _flat_trace(0.01, 10.0), _flat_trace(0.001, 5.0)]
    with pytest.raises(ValueError, match="one truncation level"):
        mabuchi_eps_A_almost_convex(small_bg, mixed)
    increasing = [_flat_trace(e, 5.0) for e in (0.001, 0.01, 0.1)]
    with pytest.raises(ValueError, match="decreasing"):
        mabuchi_eps_A_almost_convex(small_bg, increasing)


def test_boundary_refinement_validation(small_bg):
    n = small_bg.grid.n_points
    flat = lambda nt: PathField(small_bg.grid, np.zeros((nt + 1, n)))
    with pytest.raises(ValueError, match="double"):
        boundary_continuity_refinement(small_bg, [flat(32), flat(48)])
    with pytest.raises(ValueError, match="double"):
        boundary_continuity_refinement(small_bg, [flat(32)])


def test_boundary_refinement_on_cached_paths_equals_direct_solves(small_bg):
    """SuiteData's boundary paths give the check the margin and rows of fresh weak_geodesic solves."""
    grid = small_bg.grid
    endpoint_0 = np.zeros(grid.n_points)
    endpoint_1 = fourier_field(grid, [(1, 0.05 / (2.0 * np.pi) ** 2, 0.0)])
    data = SuiteData(bg=small_bg, endpoint_0=endpoint_0, endpoint_1=endpoint_1, n_time=8)
    cached = boundary_continuity_refinement(small_bg, [data.boundary_path(nt) for nt in BOUNDARY_N_TIMES])
    assert all(data.boundary_path(nt) is data.boundary_path(nt) for nt in BOUNDARY_N_TIMES)  # cached

    direct = [
        geodesic.weak_geodesic(small_bg, endpoint_0, endpoint_1, WEAK_EPSILONS, n_time=nt)
        for nt in BOUNDARY_N_TIMES
    ]
    rows = []
    for nt, path in zip(BOUNDARY_N_TIMES, direct):
        m = mabuchi(small_bg, path).values
        rows.append({"n_time": nt, "gap0": abs(m[1] - m[0]), "gap1": abs(m[-2] - m[-1])})
    assert cached.details["rows"] == rows
    assert cached.margin == boundary_continuity_refinement(small_bg, direct).margin
    assert cached.passed


# ---------------------------------------------------------------------------
# subharmonic maximum


def test_subharmonic_test_fields_nonnegative(small_grid):
    fields = subharmonic_test_fields(small_grid)
    assert len(fields) == 7
    for xi in fields:
        assert float(np.min(xi)) >= 0.0


def test_max_subharmonic_lemma(small_bg):
    x = small_bg.grid.nodes
    u = 0.01 * np.cos(2.0 * np.pi * x) / (2.0 * np.pi) ** 2
    v = 0.01 * np.sin(2.0 * np.pi * x) / (2.0 * np.pi) ** 2 + 0.003
    res = max_subharmonic_lemma(small_bg, u, v)
    assert res.passed and res.name == "max_subharmonic_lemma"
    assert len(res.details["pairings"]) == 7


def test_max_subharmonic_hypothesis_checks(small_bg):
    zeros = np.zeros(small_bg.grid.n_points)
    bad = -0.2 * np.cos(2.0 * np.pi * small_bg.grid.nodes)
    with pytest.raises(SkippedHypothesis, match="v is not"):
        max_subharmonic_lemma(small_bg, zeros, bad)
    with pytest.raises(SkippedHypothesis, match="u is not"):
        max_subharmonic_lemma(small_bg, bad, zeros)
    # u far below v: the u-side hypothesis is vacuous, the lemma still holds
    res = max_subharmonic_lemma(small_bg, bad - 2.0, zeros)
    assert res.passed


# ---------------------------------------------------------------------------
# measured-only reports


def test_omega_mask_report(small_bg):
    geo = _constant_geodesic(small_bg, 8)
    doc = omega_mask_report(small_bg, geo, TruncationSpec(5.0))
    assert set(doc) == {
        "A",
        "epsilon",
        "node_fraction_min",
        "node_fraction_max",
        "mu_measure_min",
        "mu_measure_max",
        "ratio_min",
        "ratio_max",
    }
    assert doc["node_fraction_min"] == 1.0
    assert doc["ratio_min"] == pytest.approx(1.0, abs=1e-12)


def test_density_limit_report(small_family):
    path, family = small_family
    doc = density_limit_report(family, path)
    assert set(doc) == {"epsilons", "sup_gaps", "l1_gaps"}
    assert len(doc["sup_gaps"]) == 3
    assert doc["sup_gaps"][-1] <= doc["sup_gaps"][0]
    assert doc["l1_gaps"][-1] <= doc["l1_gaps"][0]


@pytest.mark.parametrize("seed", range(4))
def test_convexity_k1_direction_gap_is_exactly_zero(small_family, seed):
    """For one fiber the log-average is the fiber itself: Hess L = Hess phi, with no round-off."""
    path, family = small_family
    rng = np.random.default_rng(seed)
    noisy = replace(family, phi=family.phi + rng.uniform(-5.0, 5.0) * rng.standard_normal(family.phi.shape))
    details = convexity_inequality_k(noisy.bg, path, noisy, 1).details
    assert details["min_direction_gap"] == 0.0
    assert details["margin_direction"] == details["tol"] * details["direction_scale"]


# ---------------------------------------------------------------------------
# suite orchestration


def test_run_suite_unknown(suite_data):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(suite_data, "nope")


def test_entropy_suite_composition(suite_data):
    results = run_suite(suite_data, "entropy")
    assert [r.name for r in results] == EXPECTED_NAMES[:24]
    assert all(r.passed for r in results)


def test_all_suites_green(all_results):
    assert [r.name for r in all_results] == EXPECTED_NAMES
    assert len(all_results) == 49
    failing = [r.name for r in all_results if not r.passed]
    assert failing == []
    controls = [r for r in all_results if r.details.get("control")]
    assert len(controls) == 12
    assert all(r.name.startswith("control:") for r in controls)
    # every control that wraps a raw check must have seen that check fail
    for r in controls:
        if "raw_pass" in r.details:
            assert r.details["raw_pass"] is False
    json.dumps([r.to_dict() for r in all_results])


def test_curvature_rows_details(all_results):
    by_name = {r.name: r for r in all_results}
    ratios = by_name["eps_curvature_identity"].details["ratios"]
    assert len(ratios) == 2
    assert all(3.0 <= r <= 5.0 for r in ratios)
    assert by_name["eps_curvature_identity"].details["fitted_kappa"] == 1.0
    control = by_name["control:eps_curvature_identity"]
    assert control.details["raw_pass"] is False


def test_eps_a_rows_details(all_results):
    by_name = {r.name: r for r in all_results}
    for a in (5, 10):
        row = by_name[f"mabuchi_eps_A_almost_convex[A={a}]"]
        c_hats = row.details["c_hats"]
        assert all(c <= 100.0 for c in c_hats)
        assert all(b <= a_ + 1e-12 for a_, b in zip(c_hats, c_hats[1:]))


def test_bounds_rows_details(all_results):
    by_name = {r.name: r for r in all_results}
    assert by_name["mass_pairing"].details["worst_gap"] <= 1e-10
    assert by_name["density_convergence"].details["final_max"] <= 1e-2
    assert by_name["family_uniform_bounds"].details["passed"] is True


def test_weak_path_reuses_the_ladder_rungs_it_shares(small_bg, monkeypatch):
    """Rungs of a common ladder prefix at the same tolerance are solved once."""
    grid = small_bg.grid
    endpoint_1 = fourier_field(grid, [(1, 0.05 / (2.0 * np.pi) ** 2, 0.0)])
    solved = []
    real = geodesic.solve_eps_geodesic

    def counting(problem, **kwargs):
        solved.append(problem.epsilon)
        return real(problem, **kwargs)

    monkeypatch.setattr(geodesic, "solve_eps_geodesic", counting)
    make = lambda tol: SuiteData(
        bg=small_bg, endpoint_0=np.zeros(grid.n_points), endpoint_1=endpoint_1, n_time=8,
        ladder_epsilons=(0.1, 0.01, 0.003), ladder_geodesic_tol=tol,
    )
    data = make(1e-10)
    data.ladder_rungs
    path = data.weak_path
    assert solved == [0.1, 0.01, 0.003, 0.001, 1e-4]
    fresh = geodesic.weak_geodesic(small_bg, np.zeros(grid.n_points), endpoint_1, WEAK_EPSILONS, n_time=8)
    assert np.array_equal(path.values, fresh.values)

    solved.clear()
    other = make(1e-11)
    other.ladder_rungs
    other.weak_path
    assert solved == [0.1, 0.01, 0.003, *WEAK_EPSILONS]
