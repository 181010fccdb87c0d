"""Property-check machinery: results, controls, sequences, suite composition."""

import gc
import json
import math
import random
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
    SpatialGrid,
    SuiteData,
    TruncationSpec,
    curvature_levels,
    density_convergence,
    density_limit_report,
    entropy_semicontinuity,
    eps_curvature_identity,
    eps_phi_vanishing,
    fourier_field,
    legendre_oracle,
    load_config,
    mabuchi,
    make_background,
    mabuchi_convexity_and_continuity,
    mabuchi_eps_A_almost_convex,
    boundary_continuity_refinement,
    convexity_inequality_k,
    max_subharmonic_lemma,
    metric_density,
    mollified_sequence,
    omega_mask_report,
    oscillation_sequence,
    random_density_sequence,
    run_suite,
    second_differences,
    solve_eps_geodesic,
    solve_family,
    subharmonic_test_fields,
    truncated_semicontinuity_sweep,
)
from kgeolab import geodesic, verify
from kgeolab.errors import FamilyMismatch, PositivityLoss
from kgeolab.model import _jsonable, path_d1x, path_d2s, path_d2x, path_dxds, reduced_hessian
from kgeolab.verify import (
    A_VALUES,
    BOUNDARY_N_TIMES,
    CHAIN_N_TIMES,
    CURVATURE_EPSILON,
    CURVATURE_N_TIME,
    FAMILY_DELTAS,
    FAMILY_EPSILONS,
    OSCILLATION_COUNT,
    WEAK_EPSILONS,
    _as_control,
    _curvature_fields,
    _uniform_noise,
    _with_phi,
)

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


def _run_entries(monkeypatch, data, *names) -> list:
    """The rows the suite runner forms from the named entries of verify.ROWS, run alone on data."""
    monkeypatch.setattr(verify, "ROWS", tuple(entry for entry in verify.ROWS if entry[1] in names))
    return run_suite(data, "all")


def _constant_geodesic(bg, n_time: int, epsilon: float = 0.1) -> EpsGeodesic:
    c = np.full(bg.grid.n_points, 0.2)
    return solve_eps_geodesic(EpsGeodesicProblem(bg, c, c, epsilon, n_time))


# ---------------------------------------------------------------------------
# result container and controls


def test_property_result_consistency():
    assert PropertyResult(name="ok", margin=0.0, details={}).passed
    assert not PropertyResult(name="bad", margin=-1.0, details={}).passed
    assert PropertyResult(name="ok", margin=0.5, details={}).to_dict()["pass"] is True


def test_property_result_serializes_real_booleans():
    r = PropertyResult(name="x", margin=0.5, details={"flag": np.bool_(True)})
    doc = json.dumps(r.to_dict())
    assert '"pass": true' in doc
    assert '"flag": true' in doc


def test_jsonable_numpy_scalars():
    out = _jsonable({"b": np.bool_(False), "i": np.int64(3), "f": np.float64(0.5), "a": np.arange(2)})
    assert out == {"b": False, "i": 3, "f": 0.5, "a": [0, 1]}
    assert isinstance(out["b"], bool) and not isinstance(out["i"], bool)


def test_as_control_flips_verdict():
    raw = PropertyResult(name="x", margin=0.5, details={"tol": 1e-6})
    inv = _as_control("control:x", raw)
    assert inv.name == "control:x"
    assert not inv.passed and inv.margin == -0.5
    assert inv.details["control"] is True
    assert inv.details["raw_margin"] == 0.5 and inv.details["raw_pass"] is True
    # a zero margin must still flip to a strict failure
    zero = PropertyResult(name="z", margin=0.0, details={})
    assert not _as_control("control:z", zero).passed


def test_mabuchi_convexity_control_fires_on_a_path_of_low_density(small_bg, monkeypatch):
    """On the weak geodesic to density amplitude 0.9 (floor 0.1007) the raw check passes, and the table's
    control entry, whose dent is scaled to that floor, keeps the path in the cone and makes the check fail."""
    grid = small_bg.grid
    endpoint_1 = 0.9 / (2.0 * np.pi) ** 2 * np.cos(2.0 * np.pi * grid.nodes)
    path = legendre_oracle(small_bg, np.zeros(grid.n_points), endpoint_1, 8)
    assert 0.1 < np.min(metric_density(small_bg, path.values)) < 0.11
    family = solve_family(small_bg, path, FAMILY_EPSILONS, FAMILY_DELTAS, tol=1e-10)
    assert mabuchi_convexity_and_continuity(small_bg, path, family).passed
    data = SimpleNamespace(bg=small_bg, weak_path=path, family=family)
    [control] = _run_entries(monkeypatch, data, "control:mabuchi_convexity_and_continuity")
    assert control.passed and control.details["raw_pass"] is False


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
    """The sequence's 12 frequencies must stay below Nyquist: a 24-point grid is refused."""
    with pytest.raises(ValueError, match="Nyquist"):
        oscillation_sequence(make_background(SpatialGrid(24)), np.ones(24))
    seq = oscillation_sequence(small_bg, np.ones(small_bg.grid.n_points))
    assert len(seq.members) == OSCILLATION_COUNT
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


@pytest.mark.parametrize("seed", [0, 3, 40])
def test_random_density_sequence_draws_from_the_stdlib_generator(small_bg, seed):
    """The limit density's Fourier coefficients are random.Random(seed).uniform(-0.2, 0.2) draws."""
    rng = random.Random(seed)
    terms = [(k, rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)) for k in (1, 2, 3)]
    expected = oscillation_sequence(small_bg, 1.0 + fourier_field(small_bg.grid, terms))
    seq = random_density_sequence(small_bg, seed)
    assert np.array_equal(seq.f_limit, expected.f_limit) and np.array_equal(seq.members, expected.members)
    assert seq.bound == expected.bound


@pytest.mark.parametrize("base", [0, 1, 2, 7, 40])
def test_entropy_suite_passes_at_other_seed_bases(run_suite_data, base):
    """The entropy rows pass for the 20 seeds from any of these bases; the suite solves nothing."""
    data = run_suite_data(seed=base)
    results = run_suite(data, "entropy")
    assert [r.name for r in results[:20]] == [f"entropy_semicontinuity[seed={s}]" for s in range(base, base + 20)]
    assert all(r.passed for r in results)
    assert data._rungs == {}


def test_uniform_noise_has_unit_variance():
    noise = _uniform_noise(0, (65, 256))
    assert noise.shape == (65, 256) and np.array_equal(noise, _uniform_noise(0, (65, 256)))
    assert np.all(np.abs(noise) <= math.sqrt(3.0))
    assert abs(float(np.mean(noise))) <= 0.03 and abs(float(np.var(noise)) - 1.0) <= 0.03
    assert not np.array_equal(noise, _uniform_noise(1, (65, 256)))


def test_noise_controls_fire(suite_data, monkeypatch):
    """The residual and the energy-pairing checks reject the paths made rough by the uniform noise."""
    names = ("control:ddc_energy_identity", "control:eps_geodesic_residual_c")
    rows = _run_entries(monkeypatch, suite_data, *names)
    assert [r.name for r in rows] == list(names)
    assert all(r.passed and r.details["raw_pass"] is False for r in rows)


def test_mollified_sequence_breaks_semicontinuity(small_bg):
    seq = mollified_sequence(small_bg)
    assert all(np.array_equal(seq.members[0], m) for m in seq.members[1:])
    res = entropy_semicontinuity(small_bg, seq)
    assert not res.passed and res.margin < -1e-3


def test_truncated_sweep_monotone_slacks(small_bg):
    seq = oscillation_sequence(small_bg, np.ones(small_bg.grid.n_points))
    res = truncated_semicontinuity_sweep(small_bg, seq)
    assert res.passed
    assert res.details["a_values"] == list(A_VALUES)
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


def test_curvature_fields_keep_the_bits_of_the_whole_row_sets(bg, eps_geo):
    """_curvature_fields builds its rows one tag at a time, each dropped after its last use, with the
    ufunc calls of the version that held the reduced Hessian and every row set at once; given one
    tag, it builds that tag's rows alone."""
    rh = reduced_hessian(bg, eps_geo.path)
    m_rows = metric_density(bg, eps_geo.path.values)
    a = rh.m_xs / rh.m_xx
    expected = {"a": a, "a_x": path_d1x(bg.grid, a)}
    for tag, rows in (("f", np.log(m_rows / bg.w[None, :])), ("g", np.log(m_rows))):
        expected[tag + "_xx"] = path_d2x(bg.grid, rows)[1:-1]
        expected[tag + "_ss"] = path_d2s(rows, eps_geo.path.ds)
        expected[tag + "_xs"] = path_dxds(bg.grid, rows, eps_geo.path.ds)
    expected["eps_term"] = eps_geo.epsilon * path_d2x(bg.grid, bg.w[None, :] / m_rows)[1:-1] / rh.m_xx
    fields = _curvature_fields(bg, eps_geo, "fg")
    assert fields.keys() == expected.keys()
    assert all(np.array_equal(fields[key], expected[key]) for key in expected)
    for tag, other in (("f", "g"), ("g", "f")):
        alone = _curvature_fields(bg, eps_geo, tag)
        assert alone.keys() == {key for key in expected if not key.startswith(other + "_")}
        assert all(np.array_equal(alone[key], expected[key]) for key in alone)


def test_curvature_identity_requires_converged_input(small_bg):
    geo = _constant_geodesic(small_bg, 32)
    fake = replace(geo, residual_sup=1.0)
    with pytest.raises(NotASolution, match="residual"):
        eps_curvature_identity(small_bg, fake, [], (verify.CURVATURE_KAPPA,))  # checked before the levels are read


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


def test_boundary_refinement_on_cached_paths_equals_direct_solves(small_bg, run_suite_data):
    """SuiteData's boundary paths give the check the margin and rows of a direct replay of its solve.

    The replay is the same three-level chain: the n_time-16 ladder along
    eps, then the n_time-32 and n_time-64 ladders, each started from the
    prolonged rungs of the level below.
    """
    data = run_suite_data(n_points=64, n_time=8)
    endpoint_0, endpoint_1 = data.config.endpoint_0, data.config.endpoint_1
    cached = boundary_continuity_refinement(small_bg, data.boundary_paths)
    assert data.boundary_paths is data.boundary_paths  # cached

    assert CHAIN_N_TIMES == (16, *BOUNDARY_N_TIMES)
    levels = geodesic.eps_continuation(small_bg, endpoint_0, endpoint_1, WEAK_EPSILONS, CHAIN_N_TIMES)
    direct = [geodesic.weak_limit(small_bg, rungs) for rungs in levels[1:]]
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


def test_eps_vanishing_tie_passes_in_report_and_row(small_family):
    """Two equal consecutive eps sup|phi| do not grow: the verify row and the passed flag
    its details give the fiberwise report both pass."""
    _, family = small_family
    tied = _with_phi(family, lambda eps, t, phi: np.where(eps > 5e-3, 1.0, 0.25) / eps + 0.0 * phi)
    row = eps_phi_vanishing(tied)
    assert row.details["sup_norms"][0] == row.details["sup_norms"][1]  # the tie is exact
    assert row.margin == 0.0
    assert row.passed is row.details["passed"] is True


def test_density_convergence_at_the_threshold_passes_in_report_and_row(small_family):
    """A final-epsilon error of exactly 1e-2 passes the verify row and its fiberwise-report flag alike.

    On the flat background with a zero path, a potential that is 0 except at node 0 leaves
    one nonzero gap e^phi - 1 there, so every test function that is 1 at node 0 pairs to
    (e^phi - 1) / 64. At the final epsilon phi is the float at or next to log(0.36) for which
    that pairing is exactly 1e-2; at the others it is log(0.3), a larger error.
    """
    _, family = small_family
    grid = family.bg.grid
    flat = PathField(grid, np.zeros((len(family.times), grid.n_points)))
    node0 = np.arange(grid.n_points) == 0

    def at_node0(first, last):
        node_value = lambda eps, t, phi: np.where(node0, np.where(eps > 5e-3, first, last), 0.0) + 0.0 * t
        return _with_phi(family, node_value)

    down = up = np.log(0.36)
    candidates = [down]
    for _ in range(8):  # exp may round log(0.36) back to a neighbour of 0.36
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        candidates += [down, up]
    final = lambda c: density_convergence(at_node0(np.log(0.3), c), flat).details["final_max"]
    hits = [c for c in candidates if final(c) == 1e-2]
    assert hits, "no potential near log(0.36) gives a final error of exactly 1e-2"
    row = density_convergence(at_node0(np.log(0.3), hits[0]), flat)
    assert row.margin == 0.0
    assert row.passed is row.details["passed"] is True


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


# the check entries of verify.ROWS that have no negative control yet, each with the reason
UNCONTROLLED = {
    "delta_a_closed_form": "a round-off identity of delta(A); no constructed input that breaks it yet (ROADMAP item 21)",
    "boundary_continuity_refinement": "no constructed paths whose boundary gaps grow with n_time yet (ROADMAP item 21)",
    "mass_pairing": "no tampered family fed to the mass identity yet (ROADMAP item 21)",
}


def test_every_check_row_has_a_control_or_is_listed_as_uncontrolled(all_results):
    """Each check entry of the row table has a control entry, named "control:" plus the check, in its own
    suite, or is in UNCONTROLLED; each control entry names a check of the table.  A control entry writes
    one row, named "control:" plus its check's result name up to the "[", which the entry's check name
    starts with: the truncated sweep's control runs truncated_semicontinuity at one A."""
    suites = {name: suite for suite, name, _, _ in verify.ROWS}
    assert len(suites) == len(verify.ROWS)
    assert list(dict.fromkeys(suites.values())) == list(verify.SUITES)
    checks = [name for name in suites if not name.startswith("control:")]
    controlled = [name.removeprefix("control:") for name in suites if name.startswith("control:")]
    assert [name for name in controlled if name not in checks] == []
    assert all(suites[name] == suites[f"control:{name}"] for name in controlled)
    assert [name for name in checks if name not in controlled] == list(UNCONTROLLED)
    control_rows = [r.name.removeprefix("control:") for r in all_results if r.name.startswith("control:")]
    assert len(control_rows) == len(controlled)
    assert all(name.startswith(row) and "[" not in row for name, row in zip(controlled, control_rows))


def test_runner_forms_every_control_row(monkeypatch):
    """On two constructed control entries: a check that passes on its input gives a failing row carrying
    the raw margin and the check's details, named by the rule; a check that raises SkippedHypothesis has
    refused its input, so its control fires with margin 1.0, in a row of the entry's name."""
    def refuses(data):
        raise SkippedHypothesis("v is not background-subharmonic")

    monkeypatch.setattr(verify, "ROWS", (
        ("bounds", "control:lenient_check", (),
         lambda data: [PropertyResult("lenient_check[k=2]", 0.25, {"tol": 1e-6})]),
        ("bounds", "control:refusing_check", (), refuses),
    ))
    missed, refused = run_suite(None, "bounds")
    assert (missed.name, missed.margin, missed.passed) == ("control:lenient_check", -0.25, False)
    assert missed.details == {"tol": 1e-6, "control": True, "raw_margin": 0.25, "raw_pass": True}
    assert (refused.name, refused.margin, refused.passed) == ("control:refusing_check", 1.0, True)
    assert refused.details == {"control": True, "skipped": "v is not background-subharmonic"}


def test_curvature_suite_builds_each_levels_fields_once(suite_data, monkeypatch):
    """The curvature suite builds the f fields once and each level's g fields once, 4 passes, and its
    control reads the CONTROL_KAPPA results of that pass: the details of the check run alone at that kappa."""
    data = SuiteData(suite_data.config)
    data.eps_geodesic, data.levels = suite_data.eps_geodesic, suite_data.levels  # solved once per session
    tags = []
    fields = verify._curvature_fields
    monkeypatch.setattr(verify, "_curvature_fields", lambda bg, eg, tag: tags.append(tag) or fields(bg, eg, tag))
    by_name = {r.name: r for r in run_suite(data, "curvature")}
    assert tags == ["f", "g", "g", "g"]
    alone = eps_curvature_identity(data.bg, data.eps_geodesic, data.levels, (verify.CONTROL_KAPPA,))[0]
    control = by_name["control:eps_curvature_identity"]
    for key in ("identity_residuals", "ratios", "margin_ratios"):
        assert control.details[key] == alone.details[key]
    assert control.details == {**alone.details, "control": True, "raw_margin": alone.margin, "raw_pass": False}
    assert by_name["eps_curvature_identity"].details["kappa"] == verify.CURVATURE_KAPPA


def test_run_suite_dispatches_through_the_names_the_benchmark_wraps(suite_data, monkeypatch):
    """perfbench/layers.py swaps verify.suite_<name>, the SUITES entry holding the same object and the checks'
    module attributes for wrappers: each suite_* attribute is its SUITES entry, run_suite calls every suite
    through SUITES, and the rows look their checks up by name when they run."""
    for name in ("entropy", "convexity", "curvature", "bounds"):
        assert verify.SUITES[name] is getattr(verify, f"suite_{name}")
    checked = []
    check_bounds = verify.check_bounds
    monkeypatch.setattr(verify, "check_bounds", lambda family: checked.append(family) or check_bounds(family))
    assert [r.name for r in run_suite(suite_data, "bounds")] == EXPECTED_NAMES[-9:]
    assert len(checked) == 2  # the row and its control
    seen = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda data, name=name: seen.append(name) or [name])
    assert run_suite(suite_data, "all") == seen == ["entropy", "convexity", "curvature", "bounds"]
    assert run_suite(suite_data, "curvature") == ["curvature"]


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


def test_curvature_geodesic_is_a_rung_of_the_chain():
    """eps_geodesic is read off the WEAK_EPSILONS chain, so its eps and n_time must be on it."""
    assert CURVATURE_EPSILON in WEAK_EPSILONS
    assert CURVATURE_N_TIME in BOUNDARY_N_TIMES and CURVATURE_N_TIME in CHAIN_N_TIMES


def test_chain_converges_where_the_cold_curvature_solve_loses_the_cone(small_bg, run_suite_data):
    """At density amplitude 0.95 the cold (1e-2, 64) solve raises PositivityLoss; the chain's
    rung, started from the prolonged n_time-32 rung, converges."""
    data = run_suite_data(n_points=64, density_amplitude=0.95, n_time=8)
    ends = data.config.endpoint_0, data.config.endpoint_1
    problem = EpsGeodesicProblem(small_bg, *ends, CURVATURE_EPSILON, CURVATURE_N_TIME)
    with pytest.raises(PositivityLoss):
        solve_eps_geodesic(problem)
    eg = data.eps_geodesic
    assert (eg.epsilon, eg.path.n_time) == (CURVATURE_EPSILON, CURVATURE_N_TIME)
    assert eg.residual_sup <= 1e-10 and eg.positivity_margin > 0.0


def test_curvature_levels_start_from_the_restricted_fine_path(run_suite_data):
    """At density amplitude 0.9 on the canonical grid the cold (1e-2, 32) solve of the half level
    raises PositivityLoss; started from the fine path restricted to their nodes, both coarse
    levels converge to the round-off floor on one factorization each."""
    data = run_suite_data(density_amplitude=0.9)
    endpoint_0, endpoint_1 = data.config.endpoint_0, data.config.endpoint_1
    levels = data.levels
    assert [(b.grid.n_points, eg.path.n_time) for b, eg in levels] == [(64, 16), (128, 32), (256, 64)]
    for _, eg in levels[:2]:
        assert eg.residual_sup <= 1e-13 and eg.positivity_margin > 0.0
        assert eg.record.factorizations == 1
    cold = EpsGeodesicProblem(levels[1][0], endpoint_0[::2], endpoint_1[::2], CURVATURE_EPSILON, CURVATURE_N_TIME // 2)
    with pytest.raises(PositivityLoss):
        solve_eps_geodesic(cold)


@pytest.mark.parametrize("n_time", [16, 32])
def test_solve_chain_first_frees_the_rungs_finer_than_the_run(run_suite_data, monkeypatch, n_time):
    """After solve_chain_first("all") the chain's rungs finer than the run's n_time are freed, all but
    eps_geodesic; the boundary paths stay, as paths.  The first level and the run's own stay cached,
    so weak_path and the config's ladder solve nothing more."""
    rungs = []
    real = geodesic.solve_eps_geodesic

    def keeping(problem, **kwargs):
        rung = real(problem, **kwargs)
        rungs.append(weakref.ref(rung))
        return rung

    monkeypatch.setattr(geodesic, "solve_eps_geodesic", keeping)
    data = run_suite_data(n_points=64, n_time=n_time, epsilons=[0.1, 0.01])
    data.solve_chain_first("all")
    gc.collect()
    alive = [ref() for ref in rungs if ref() is not None]
    kept = {(nt, eps) for nt in CHAIN_N_TIMES if nt <= n_time for eps in WEAK_EPSILONS}
    assert {(rung.path.n_time, rung.epsilon) for rung in alive} == kept | {(CURVATURE_N_TIME, CURVATURE_EPSILON)}
    assert any(rung is data.eps_geodesic for rung in alive)
    assert [path.n_time for path in data.boundary_paths] == list(BOUNDARY_N_TIMES)
    assert all(rung.path is not data.boundary_paths[-1] for rung in alive)
    solved = len(rungs)
    data.weak_path, data.ladder_rungs
    assert len(rungs) == solved + (n_time != 16) * 2  # the config's ladder shares the chain's level only at 16


@pytest.mark.parametrize("n_time", [16, 32, 64])
def test_last_level_rungs_are_released_as_their_increments_are_taken(run_suite_data, monkeypatch, n_time):
    """When the chain's last rung is solved, of the rungs of its last level before it only
    eps_geodesic's and the one before the last are alive, where that level is finer than the run's
    n_time; after solve_chain_first only eps_geodesic survives of the level.  At n_time 64 the
    level is weak_path's and every rung of it stays."""
    rungs, alive_at_last = [], []
    real = geodesic.solve_eps_geodesic

    def last_level(refs):
        return [ref() for ref in refs if ref() is not None and ref().path.n_time == CHAIN_N_TIMES[-1]]

    def keeping(problem, **kwargs):
        if (problem.n_time, problem.epsilon) == (CHAIN_N_TIMES[-1], WEAK_EPSILONS[-1]):
            gc.collect()
            alive_at_last.extend(rung.epsilon for rung in last_level(rungs))
        rung = real(problem, **kwargs)
        rungs.append(weakref.ref(rung))
        return rung

    monkeypatch.setattr(geodesic, "solve_eps_geodesic", keeping)
    data = run_suite_data(n_points=64, n_time=n_time)
    data.solve_chain_first("all")
    gc.collect()
    if n_time < CHAIN_N_TIMES[-1]:
        assert alive_at_last == [CURVATURE_EPSILON, WEAK_EPSILONS[-2]]
        assert last_level(rungs) == [data.eps_geodesic]
    else:
        assert alive_at_last == list(WEAK_EPSILONS[:-1])
        assert [rung.epsilon for rung in last_level(rungs)] == list(WEAK_EPSILONS)


def test_boundary_paths_raise_the_weak_limit_error_on_rising_increments(run_suite_data, monkeypatch):
    """boundary_paths takes each level's Cauchy increments as its rungs arrive; on a ladder whose
    increments rise it raises the FamilyMismatch of weak_limit on the whole level, word for word."""
    ladder = (0.4, 0.35, 0.3)
    monkeypatch.setattr(verify, "WEAK_EPSILONS", ladder)
    data = run_suite_data(n_points=64, n_time=16)
    ends = data.config.endpoint_0, data.config.endpoint_1
    with pytest.raises(FamilyMismatch, match="increments increase") as expected:
        geodesic.weak_limit(data.bg, geodesic.eps_continuation(data.bg, *ends, ladder, CHAIN_N_TIMES[:2])[1])
    with pytest.raises(FamilyMismatch) as raised:
        data.boundary_paths
    assert str(raised.value) == str(expected.value)


#: tracemalloc peak, in bytes, of SuiteData(config).solve_chain_first("all") on the canonical
#: config from a cold symbolic-phase cache: 3.64 MB measured here on Python 3.11 (3.67 MB in a fresh
#: interpreter; 4.61 MB with the five-field Newton Jacobian and with the prolonged start and the
#: eps = 0.1 n_time-64 rung held through the solves).  The margin, 0.26 MB, is two n_time-64 paths
#: (65 x 256 doubles each): one for Python 3.10, whose calls keep their arguments on the caller's
#: stack, so the prolonged start lives through the solve, and one for numpy's temporaries.
CHAIN_PEAK_BYTES = 3_900_000


def test_chain_heap_peak_stays_in_bound():
    """The eps-ladder chain of a canonical verify or study run, whose last n_time-64 level sets the
    peak of the run's Python heap, stays within CHAIN_PEAK_BYTES of traced heap."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "canonical.json")
    geodesic._dissection.cache_clear()
    tracemalloc.start()
    try:
        SuiteData(config).solve_chain_first("all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHAIN_PEAK_BYTES


def test_weak_path_reuses_the_ladder_rungs_it_shares(small_bg, run_suite_data, monkeypatch):
    """Rungs of a common ladder prefix at the same tolerance are solved once."""
    solved = []
    real = geodesic.solve_eps_geodesic

    def counting(problem, **kwargs):
        solved.append(problem.epsilon)
        return real(problem, **kwargs)

    monkeypatch.setattr(geodesic, "solve_eps_geodesic", counting)
    make = lambda tol: run_suite_data(
        n_points=64, n_time=8, epsilons=[0.1, 0.01, 0.003], tolerances={"geodesic": tol}
    )
    data = make(1e-10)
    data.ladder_rungs
    path = data.weak_path
    assert solved == [0.1, 0.01, 0.003, 0.001, 1e-4]
    ends = data.config.endpoint_0, data.config.endpoint_1
    fresh = geodesic.weak_geodesic(small_bg, *ends, WEAK_EPSILONS, n_time=8)
    assert np.array_equal(path.values, fresh.values)

    solved.clear()
    other = make(1e-11)
    other.ladder_rungs
    other.weak_path
    assert solved == [0.1, 0.01, 0.003, *WEAK_EPSILONS]
