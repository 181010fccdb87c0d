"""Every public function and method of the package has a caller in the package.

A public name that only the unit tests reach is dead weight: either a
pipeline or a verify check uses it, or it goes.  The scan is syntactic: a
name counts as used when it appears as a bare name or an attribute anywhere
in ``src/kgeolab`` outside its own definition and outside ``__init__.py``,
which only re-exports.

The same holds for defaulted parameters: a default that no package caller
overrides is a knob, and a check's threshold is the bar, not a knob.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgeolab

SRC = Path(__file__).resolve().parents[1] / "src" / "kgeolab"

# name -> why it stays public without a caller in the package
ALLOWED = {
    "central2_symbol": "the exact Fourier symbol of the stencil that the tests compare against",
    "mollify_spacetime": "wrapped by name in perfbench/layers.py; removing it breaks the traced benchmark",
    "weak_geodesic": "wrapped by name in perfbench/layers.py; its last package caller is gone",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unused_public_names() -> list:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = [ref for name, tree in trees.items() if name != "__init__.py" for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            inside = {id(n) for n in ast.walk(node)}
            if not any(ref == name and id(n) not in inside for ref, n in refs):
                unused.append(f"{module}:{qualname}")
    return unused


def test_every_public_name_has_a_package_caller():
    unused = [q for q in unused_public_names() if q.rsplit(":", 1)[-1] not in ALLOWED]
    assert unused == [], f"public names reached only from outside the package: {unused}"


def test_allowlist_entries_are_still_defined_and_unused():
    unused = {q.rsplit(":", 1)[-1] for q in unused_public_names()}
    assert set(ALLOWED) <= unused, f"stale allowlist entries: {sorted(set(ALLOWED) - unused)}"


# "function.parameter" -> why the default stays with no package caller that passes it
ALLOWED_DEFAULTS = {
    "main.argv": "the console entry point calls main() with no argument; tests pass argv",
}
# defaulted public parameters before checks stopped taking their thresholds and fixed inputs as
# arguments, and the most there may be now
DEFAULTS_BEFORE, DEFAULTS_CAP = 46, 16


def _defaulted_parameters(node):
    """(index among the positional parameters or None for keyword-only, name) of each defaulted parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from ((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _passes(call, index, name) -> bool:
    """Whether call may set the parameter: by keyword, by position, or through * / ** unpacking."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def defaulted_public_parameters() -> dict:
    """"module:function.parameter" -> whether some call inside the package passes it, for every
    defaulted parameter of a public function or method; calls match by the callee's bare name."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    calls = {}
    for module, tree in trees.items():
        if module != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(callee, []).append(node)
    found = {}
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            skip = 1 if "." in qualname else 0  # a method's call sites do not pass self
            for index, param in _defaulted_parameters(node):
                at = None if index is None else index - skip
                passed = any(_passes(call, at, param) for call in calls.get(name, []))
                found[f"{module}:{qualname}.{param}"] = passed
    return found


def test_every_defaulted_public_parameter_is_passed_by_a_package_caller():
    """A default no caller overrides is a knob: a check threshold or a fixed input belongs in the body."""
    found = defaulted_public_parameters()
    knobs = [q for q, passed in found.items() if not passed and q.split(":", 1)[1] not in ALLOWED_DEFAULTS]
    assert knobs == [], f"defaulted parameters no package caller passes: {knobs}"
    assert len(found) <= DEFAULTS_CAP < DEFAULTS_BEFORE, f"{len(found)} defaulted public parameters"


def test_default_allowlist_entries_are_still_defined_and_unpassed():
    unpassed = {q.split(":", 1)[1] for q, passed in defaulted_public_parameters().items() if not passed}
    assert set(ALLOWED_DEFAULTS) <= unpassed, f"stale entries: {sorted(set(ALLOWED_DEFAULTS) - unpassed)}"


# after the hooks are installed, one small geodesic solve and one fiber solve through the
# wrapped names: the wrappers read package attributes (Background.scheme, the solve's
# arguments, its result) only while a solve runs
TRACED_SOLVES = """
import json
import numpy as np
import layers
tracer = layers.Tracer()
layers.install(tracer)
from kgeolab import EpsGeodesicProblem, FiberProblem, SpatialGrid, make_background, solve_aubin_fiber, solve_eps_geodesic
bg = make_background(SpatialGrid(8))
solve_eps_geodesic(EpsGeodesicProblem(bg, np.zeros(8), 0.01 * np.cos(2.0 * np.pi * bg.grid.nodes), 0.1, 8))
solve_aubin_fiber(FiberProblem(bg, np.ones(8), 0.1))
print(json.dumps(tracer.snapshot()))
"""


def test_benchmark_layer_hooks_install_on_the_package():
    """perfbench/layers.py wraps package names (weak_geodesic, ma_fiber.splu, mollify_spacetime, ...)
    by name and reads package attributes at solve time, so renaming or deleting one breaks the
    traced benchmark: it must fail here too.

    The hooks are installed in a fresh interpreter that writes no bytecode, so perfbench/ is
    only read."""
    root = SRC.parents[1]
    path = [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    command = [sys.executable, "-B", "-c", TRACED_SOLVES]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.splitlines()[-1])
    assert traced["geodesic.solve_calls"] == traced["geodesic.solve_distinct"] == 1
    assert traced["geodesic.lu_calls"] >= 1
    assert traced["ma_fiber.fiber_calls"] == 1


# the package's re-exported names by the submodule that defines them, pinned so that none drops out
# of the lazy namespace
PINNED_EXPORTS = {
    "config": "ExperimentConfig load_config load_schema parse_config validate_against_schema",
    "errors": "ConfigError FamilyMismatch IncompatibleMass InteriorTooThin KGeoError NegativeDensity NoConvergence "
    "NonAdmissiblePsi NotASolution PositivityLoss SchemaViolation SingularSystem SkippedHypothesis",
    "functionals": "DdcReport FunctionalTrace TruncationSpec ddc_energy_check delta_A energy energy_alpha entropy "
    "mabuchi mabuchi_eps_A mabuchi_k second_differences truncated_entropy",
    "geodesic": "EpsGeodesic EpsGeodesicProblem eps_continuation eval_geodesic_residual initial_guess "
    "legendre_oracle solve_eps_geodesic weak_geodesic",
    "ma_fiber": "FiberFamily FiberProblem FiberSolution check_bounds default_test_set density_convergence "
    "eps_phi_vanishing family_report solve_aubin_fiber solve_family",
    "model": "Background PathField PropertyResult ReducedHessian SpatialGrid fourier_field integrate is_admissible "
    "make_background metric_density path_d1s path_d1x path_d2s path_d2x path_dxds reduced_hessian",
    "regularize": "MollifierSpec gaussian_kernel mollify_fiberwise mollify_spacetime semipositivity_constant",
    "verify": "CURVATURE_KAPPA SUITES DensitySequence SuiteData boundary_continuity_refinement "
    "convexity_inequality_k curvature_levels ddc_property ddc_test_function delta_a_closed_form density_entropy "
    "density_limit_report density_truncated_entropy entropy_semicontinuity eps_curvature_identity "
    "eps_geodesic_residual_c mabuchi_convexity_and_continuity mabuchi_eps_A_almost_convex mass_pairing_property "
    "max_subharmonic_lemma mollified_sequence omega_mask_report oscillation_sequence random_density_sequence "
    "run_suite subharmonic_test_fields truncated_semicontinuity truncated_semicontinuity_sweep",
}


def test_lazy_namespace_serves_every_exported_name():
    """The package resolves its re-exports on access: each is the submodule's own object, and dir()
    lists it and its submodule."""
    listed = set(dir(kgeolab))
    for module, names in PINNED_EXPORTS.items():
        assert module in listed
        source = importlib.import_module(f"kgeolab.{module}")
        for name in names.split():
            assert name in listed
            assert getattr(kgeolab, name) is getattr(source, name), f"kgeolab.{name}"
    assert kgeolab.__version__ == "0.1.0"


def test_lazy_namespace_rejects_unknown_names():
    """A name that is neither re-exported nor a submodule raises AttributeError, also when a
    submodule defines it."""
    for name in ("no_such_name", "rung_increments", "_PeriodicFactor"):
        with pytest.raises(AttributeError, match=name):
            getattr(kgeolab, name)


def test_from_import_of_a_submodule_still_gives_the_submodule():
    """In a fresh interpreter, importing the package imports no submodule; from-importing one
    gives the module itself, and a re-exported name through it."""
    code = (
        "import sys\n"
        "import kgeolab\n"
        "print(sorted(m for m in sys.modules if m.startswith('kgeolab')))\n"
        "from kgeolab import geodesic, solve_eps_geodesic\n"
        "print(geodesic is sys.modules['kgeolab.geodesic'], solve_eps_geodesic is geodesic.solve_eps_geodesic)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["['kgeolab']", "True True"]
