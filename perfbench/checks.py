"""Output checks that share no code with kgeolab.

Each check reads the artifacts a workload wrote and recomputes a property
from the config alone: the eps-geodesic equation with the benchmark's own
stencil, the fiber mass identity, the verify verdicts.  The weak-geodesic
reference is a brute-force discrete Legendre transform: the conjugate of
the piecewise-linear interpolant of a convex P is piecewise linear with
breaks at the chord slopes of P, so evaluating conjugates at the union of
both endpoints' chord slopes makes the interpolated path exact for the
interpolants, with no dual-grid resolution limit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import background_density, d2, fourier_nodes

#: documented default of the program's geodesic Newton target
GEODESIC_TOL = 1e-10
#: allowance for evaluating the same stencil in another order (measured ~1e-16)
RESIDUAL_ROUNDING = 1e-11
#: |int e^phi w dx - (1 + slack)| allowance (measured <= 1.3e-13)
MASS_TOL = 1e-11
NEGATIVE_CONTROLS = 12


class CheckFailed(Exception):
    """An artifact contradicts a property the workload must satisfy."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_path_csv(path: Path, n_time: int, n_points: int) -> np.ndarray:
    """Rows of a path CSV without the s column, after checking its layout."""
    _require(path.is_file(), f"missing artifact {path.name}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(
        table.shape == (n_time + 1, n_points + 1),
        f"{path.name}: shape {table.shape}, expected {(n_time + 1, n_points + 1)}",
    )
    _require(
        np.allclose(table[:, 0], np.arange(n_time + 1) / n_time, rtol=0.0, atol=1e-15),
        f"{path.name}: time column is not s_i = i / n_time",
    )
    return table[:, 1:]


def _conjugate(xs: np.ndarray, fs: np.ndarray, ys: np.ndarray, chunk: int = 256) -> np.ndarray:
    """max_j (y xs[j] - fs[j]) for every y, by exhaustive search."""
    out = np.empty(ys.size)
    for lo in range(0, ys.size, chunk):
        y = ys[lo : lo + chunk, None]
        out[lo : lo + chunk] = np.max(y * xs[None, :] - fs[None, :], axis=1)
    return out


def weak_geodesic_reference(psi: np.ndarray, e0: np.ndarray, e1: np.ndarray, n_time: int) -> np.ndarray:
    """Affine interpolation of exact discrete Legendre conjugates, per time row."""
    n = psi.size
    h = 1.0 / n
    x = np.arange(n) * h
    xs = (np.arange(3 * n) - n) * h  # three unrolled periods
    convex = [0.5 * xs * xs + np.tile(psi + e, 3) for e in (e0, e1)]
    slopes = np.unique(np.concatenate([np.diff(p) / h for p in convex]))
    stars = [_conjugate(xs, p, slopes) for p in convex]
    quad = 0.5 * x * x + psi
    rows = []
    for i in range(n_time + 1):
        s = i / n_time
        rows.append(_conjugate(slopes, (1.0 - s) * stars[0] + s * stars[1], x) - quad)
    return np.array(rows)


class GeodesicCheck:
    """geodesic_path_eps*.csv: equation, boundary rows, cone, weak limit."""

    def __init__(self, config: dict):
        self.n = config["grid"]["n_points"]
        self.n_time = config["time"]["n_time"]
        self.epsilons = [float(e) for e in config["epsilons"]]
        self.tol = float(config.get("tolerances", {}).get("geodesic", GEODESIC_TOL))
        psi_terms = config.get("background", {}).get("psi", [])
        self.w = background_density(self.n, psi_terms)
        psi = fourier_nodes(self.n, psi_terms)
        self.e0 = fourier_nodes(self.n, config["endpoints"]["endpoint_0"])
        self.e1 = fourier_nodes(self.n, config["endpoints"]["endpoint_1"])
        self.reference = weak_geodesic_reference(psi, self.e0, self.e1, self.n_time)

    def __call__(self, out_dir: Path) -> None:
        n, nt = self.n, self.n_time
        ds, h = 1.0 / nt, 1.0 / n
        distances = []
        for i, eps in enumerate(self.epsilons):
            name = f"geodesic_path_eps{i:02d}.csv"
            p = read_path_csv(out_dir / name, nt, n)
            gap = max(np.max(np.abs(p[0] - self.e0)), np.max(np.abs(p[-1] - self.e1)))
            _require(gap <= 1e-12, f"{name}: boundary rows differ from the endpoints by {gap:.3e}")
            m_xx = self.w[None, :] + d2(p)[1:-1]
            p_ss = ((p[2:] - p[1:-1]) - (p[1:-1] - p[:-2])) / (ds * ds)
            up, down = p[2:], p[:-2]
            p_xs = (
                np.roll(up, -1, axis=1) - np.roll(up, 1, axis=1)
                - np.roll(down, -1, axis=1) + np.roll(down, 1, axis=1)
            ) / (4.0 * h * ds)
            residual = float(np.max(np.abs(m_xx * p_ss - p_xs * p_xs - eps * self.w[None, :])))
            _require(
                residual <= self.tol + RESIDUAL_ROUNDING,
                f"{name}: equation residual {residual:.3e} above {self.tol:g}",
            )
            _require(float(np.min(m_xx)) > 0.0, f"{name}: w + Phi_xx is not positive")
            _require(float(np.min(p_ss)) > 0.0, f"{name}: Phi_ss is not positive")
            distances.append(float(np.max(np.abs(p - self.reference))))
        _require(
            all(b < a for a, b in zip(distances, distances[1:])),
            f"distance to the weak-geodesic reference does not shrink along eps: {distances}",
        )


class FiberCheck:
    """fiber_phi_eps*.csv: mass identity on every row, eps sup|phi| decreasing."""

    def __init__(self, config: dict):
        self.n = config["grid"]["n_points"]
        self.n_time = config["time"]["n_time"]
        self.epsilons = [float(e) for e in config["epsilons"]]
        self.w = background_density(self.n, config.get("background", {}).get("psi", []))

    def __call__(self, out_dir: Path) -> None:
        report = json.loads((out_dir / "fiberwise_report.json").read_text(encoding="utf-8"))
        # the kept solutions are those at the smallest delta
        target = 1.0 + float(report["family"]["slacks"][-1])
        sups = []
        for i, eps in enumerate(self.epsilons):
            name = f"fiber_phi_eps{i:02d}.csv"
            phi = read_path_csv(out_dir / name, self.n_time, self.n)
            mass = np.exp(phi) @ self.w / self.n
            worst = float(np.max(np.abs(mass - target)))
            _require(worst <= MASS_TOL, f"{name}: mass identity off by {worst:.3e}")
            sups.append(eps * float(np.max(np.abs(phi))))
        _require(
            all(b < a for a, b in zip(sups, sups[1:])),
            f"eps * sup|phi| does not decrease along eps: {sups}",
        )


def check_verify(out_dir: Path) -> None:
    """Every verify row passes and all negative controls were run."""
    lines = (out_dir / "verify_results.csv").read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0] == "name,pass,margin", "verify_results.csv: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    _require(bool(rows), "verify_results.csv has no rows")
    failing = [r[0] for r in rows if r[1] != "true"]
    _require(not failing, f"verify rows fail: {failing}")
    report = json.loads((out_dir / "verify_report.json").read_text(encoding="utf-8"))
    controls = report["counts"]["controls"]
    _require(controls == NEGATIVE_CONTROLS, f"verify ran {controls} negative controls, expected {NEGATIVE_CONTROLS}")


def make_checks(kinds, config: dict) -> list:
    makers = {"geodesic": GeodesicCheck, "fiber": FiberCheck, "verify": lambda cfg: check_verify}
    return [makers[kind](config) for kind in kinds]


def artifact_digests(out_dir: Path, names=None) -> dict:
    """sha256 per artifact; JSON reports are hashed without their timestamp."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if names is not None and path.name not in names:
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests
