"""Numerical laboratory for epsilon-geodesics and Monge-Ampere fiber families.

Everything lives on the flat torus R/Z: a background density w = 1 + D2 psi,
potentials as periodic nodal fields, and paths of potentials on a uniform
time grid over [0, 1].  The package solves the epsilon-geodesic equation
(w + F_xx) F_ss - F_xs^2 = eps w, the fiberwise Aubin-type equation
theta + beta + D2 phi = eps^{-1} e^phi w, evaluates the Mabuchi-type
functionals along the solved paths, and verifies the structural facts
(uniform bounds, convexity, entropy semicontinuity, the curvature identity)
as quantified pass/fail properties with negative controls.

Module map: ``model`` grids and discrete calculus, ``regularize``
mollification, ``geodesic`` the path solver and its Legendre-duality
oracle, ``ma_fiber`` the fiber equation and family sweeps, ``functionals``
energies and traces, ``verify`` the property suite, ``config``/``cli``
the batch driver.

The flat namespace is lazy (PEP 562): importing the package runs only this
file, and reading a re-exported name, or a submodule it comes from, imports
that submodule on first access and reads the name from it on every access.
So ``import kgeolab.cli``, a config load, ``--help`` and the exit-1 errors
import ``cli``, ``config``, ``model`` and ``errors`` alone, and a command
past those checks imports every solver module through its
``verify.SuiteData``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "config": "ExperimentConfig load_config load_schema parse_config validate_against_schema",
        "errors": "ConfigError FamilyMismatch IncompatibleMass InteriorTooThin KGeoError NegativeDensity "
        "NoConvergence NonAdmissiblePsi NotASolution PositivityLoss SchemaViolation SingularSystem "
        "SkippedHypothesis",
        "functionals": "DdcReport FunctionalTrace TruncationSpec ddc_energy_check delta_A energy energy_alpha "
        "entropy mabuchi mabuchi_eps_A mabuchi_k second_differences truncated_entropy",
        "geodesic": "EpsGeodesic EpsGeodesicProblem eps_continuation eval_geodesic_residual initial_guess "
        "legendre_oracle solve_eps_geodesic weak_geodesic",
        "ma_fiber": "FiberFamily FiberProblem FiberSolution check_bounds default_test_set density_convergence "
        "eps_phi_vanishing family_report solve_aubin_fiber solve_family",
        "model": "Background PathField PropertyResult ReducedHessian SpatialGrid fourier_field integrate "
        "is_admissible make_background metric_density path_d1s path_d1x path_d2s path_d2x path_dxds "
        "reduced_hessian",
        "regularize": "MollifierSpec gaussian_kernel mollify_fiberwise mollify_spacetime semipositivity_constant",
        "verify": "CURVATURE_KAPPA SUITES DensitySequence SuiteData boundary_continuity_refinement "
        "convexity_inequality_k curvature_levels ddc_property ddc_test_function delta_a_closed_form "
        "density_entropy density_limit_report density_truncated_entropy entropy_semicontinuity "
        "eps_curvature_identity eps_geodesic_residual_c mabuchi_convexity_and_continuity "
        "mabuchi_eps_A_almost_convex mass_pairing_property max_subharmonic_lemma mollified_sequence "
        "omega_mask_report oscillation_sequence random_density_sequence run_suite subharmonic_test_fields "
        "truncated_semicontinuity truncated_semicontinuity_sweep",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_SOURCE.values())

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_SOURCE[name]}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
