"""The four benchmark workloads and the configs they run.

Every config the program sees is written by this module from the workload
seed.  ``geodesic-fine`` and ``fiber-sweep`` get generated geometry: low
Fourier modes, scaled so that the background density 1 + psi'' and both
endpoint densities w + phi'' have a fixed floor on every grid node.  The
floors sit well above the degenerate regime (node density near 0), where
today's Legendre oracle and cold-start solves fail; see the README.
``study-canonical`` and ``verify-threads2`` run ``configs/canonical.json``
with the seed as its ``seed`` key, which seeds the randomized verify checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: minimum of 1 + psi'' over the grid nodes of a generated background
BACKGROUND_FLOOR = 0.6
#: minimum of w + phi'' over the grid nodes of a generated endpoint
ENDPOINT_FLOOR = 0.5
BACKGROUND_MODES = (1, 2)
ENDPOINT_MODES = (1, 2, 3)


def fourier_nodes(n: int, terms) -> np.ndarray:
    """sum a cos(2 pi k x) + b sin(2 pi k x) at the nodes x = j / n."""
    x = np.arange(n) / n
    out = np.zeros(n)
    for k, a, b in terms:
        out += a * np.cos(2.0 * np.pi * k * x) + b * np.sin(2.0 * np.pi * k * x)
    return out


def d2(u: np.ndarray) -> np.ndarray:
    """Periodic three-point second difference along the last axis."""
    n = u.shape[-1]
    return ((np.roll(u, -1, axis=-1) - u) - (u - np.roll(u, 1, axis=-1))) * (n * n)


def background_density(n: int, psi_terms) -> np.ndarray:
    """w = (1 + psi'') normalized to unit rectangle-rule mass."""
    raw = 1.0 + d2(fourier_nodes(n, psi_terms))
    return raw / (raw.sum() / n)


def _floored_terms(rng, n: int, modes, base: np.ndarray, floor: float) -> list:
    """Random low modes scaled so that min(base + D2 u) equals floor exactly."""
    terms = [(k, rng.normal(), rng.normal()) for k in modes]
    curv = d2(fourier_nodes(n, terms))
    down = curv < 0.0
    scale = float(np.min((base[down] - floor) / -curv[down]))
    return [[k, scale * a, scale * b] for k, a, b in terms]


def _curved_geometry(seed: int, stream: int, n: int) -> dict:
    rng = np.random.default_rng([seed, stream])
    psi = _floored_terms(rng, n, BACKGROUND_MODES, np.ones(n), BACKGROUND_FLOOR)
    w = background_density(n, psi)
    return {
        "background": {"psi": psi},
        "endpoints": {
            "endpoint_0": _floored_terms(rng, n, ENDPOINT_MODES, w, ENDPOINT_FLOOR),
            "endpoint_1": _floored_terms(rng, n, ENDPOINT_MODES, w, ENDPOINT_FLOOR),
        },
    }


def geodesic_fine_config(root: Path, seed: int) -> dict:
    """512 nodes, n_time 32, half-decade ladder 1e-1 .. 1e-4 (7 rungs)."""
    return {
        "grid": {"n_points": 512, "scheme": "central2"},
        "time": {"n_time": 32},
        **_curved_geometry(seed, 1, 512),
        "epsilons": [10.0 ** (-1.0 - 0.5 * i) for i in range(7)],
    }


def fiber_sweep_config(root: Path, seed: int) -> dict:
    """256 nodes, n_time 16, quarter-decade ladder 1e-2 .. 1e-4, 6 deltas.

    The ladder starts at 1e-2 so that the first half of the sweep already
    resolves the mode-3 endpoints (the fiber smoothing length is about
    sqrt(eps)), which the uniform-bound halves rule needs.  The deltas
    halve every two steps from 0.06; wider kernels flatten the mode-3
    content so much that the Cauchy increments along delta stop
    decreasing.  The fiber tolerance is 1e-10 because the default 1e-11
    sits at the round-off floor of the 256-node stencil for potentials of
    this size (see the FOUND line in CHANGES.md).
    """
    return {
        "grid": {"n_points": 256, "scheme": "central2"},
        "time": {"n_time": 16},
        **_curved_geometry(seed, 2, 256),
        "epsilons": [10.0 ** (-2.0 - 0.25 * i) for i in range(9)],
        "deltas": [0.06 * 2.0 ** (-0.5 * i) for i in range(6)],
        "tolerances": {"fiber": 1e-10},
    }


def canonical_config(root: Path, seed: int) -> dict:
    doc = json.loads((root / "configs" / "canonical.json").read_text(encoding="utf-8"))
    doc["seed"] = seed
    return doc


@dataclass(frozen=True)
class Workload:
    """One kgeolab command line and the output checks that apply to it."""

    name: str
    args: tuple
    make_config: object
    checks: tuple
    #: a single-thread command whose verify rows must equal the workload's
    thread_twin: tuple | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-canonical", ("study",), canonical_config, ("geodesic", "verify")),
        Workload("geodesic-fine", ("geodesic",), geodesic_fine_config, ("geodesic",)),
        Workload("fiber-sweep", ("fiberwise",), fiber_sweep_config, ("fiber",)),
        Workload(
            "verify-threads2",
            ("verify", "--suite", "all", "--threads", "2"),
            canonical_config,
            ("verify",),
            thread_twin=("verify", "--suite", "all", "--threads", "1"),
        ),
    )
}
