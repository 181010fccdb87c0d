"""Mollification of potentials and paths by truncated Gaussian kernels.

Kernels are sampled on the grid, truncated at six standard deviations and
renormalized to unit discrete mass, so convolution preserves the rectangle
rule integral of every slice exactly up to round-off.  Spatial smoothing is
periodic; time smoothing touches only interior rows and clips the stencil
symmetrically near the ends of the usable band, which keeps affine functions
of s fixed (symmetric kernels annihilate odd moments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InteriorTooThin
from .model import SpatialGrid

KINDS = ("fiberwise", "spacetime")


@dataclass(frozen=True)
class MollifierSpec:
    """Width and direction of a mollification pass."""

    delta: float
    kind: str = "fiberwise"

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.25:
            raise ValueError(f"delta must lie in (0, 0.25], got {self.delta}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def gaussian_kernel(spacing: float, delta: float, halfwidth_cap: int) -> np.ndarray:
    """Truncated, renormalized Gaussian weights on offsets -M..M."""
    m = min(int(np.ceil(6.0 * delta / spacing)), halfwidth_cap)
    offsets = np.arange(-m, m + 1) * spacing
    weights = np.exp(-0.5 * (offsets / delta) ** 2)
    return weights / weights.sum()


def mollify_fiberwise(grid: SpatialGrid, values, spec: MollifierSpec) -> np.ndarray:
    """Smooth along x only; accepts a single field or a path (rows kept)."""
    if spec.kind != "fiberwise":
        raise ValueError(f"expected a fiberwise spec, got kind={spec.kind!r}")
    u = np.asarray(values, dtype=float)
    kernel = gaussian_kernel(grid.spacing, spec.delta, grid.n_points // 2)
    # periodic convolution summed in scipy.ndimage's order for symmetric
    # kernels (centre first, then mirrored pairs from the outermost in), so
    # the result equals convolve1d(u, kernel, mode="wrap") bit for bit
    # without importing scipy.ndimage
    n, m = u.shape[-1], len(kernel) // 2
    padded = np.concatenate([u[..., n - m:], u, u[..., :m]], axis=-1)
    out = u * kernel[m]
    pair = np.empty_like(out)  # one buffer for every offset's weighted pair
    for k in range(m, 0, -1):
        np.add(padded[..., m - k:m - k + n], padded[..., m + k:m + k + n], out=pair)
        pair *= kernel[m - k]
        out += pair
    return out


def mollify_spacetime(grid: SpatialGrid, path, spec: MollifierSpec) -> np.ndarray:
    """Smooth a path in x and s; only interior time rows are modified.

    The usable band is rows ceil(delta * n_time) + 1 .. n_time - ceil(...) - 1.
    Rows outside of it are returned unchanged.  Raises InteriorTooThin when
    n_time < 8 or the band is empty.
    """
    if spec.kind != "spacetime":
        raise ValueError(f"expected a spacetime spec, got kind={spec.kind!r}")
    p = np.asarray(path, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"path must be 2-d, got shape {p.shape}")
    n_time = p.shape[0] - 1
    if n_time < 8:
        raise InteriorTooThin(f"n_time = {n_time} < 8 leaves no room to mollify")
    margin = int(np.ceil(spec.delta * n_time))
    lo, hi = margin + 1, n_time - margin - 1  # inclusive band
    if lo > hi:
        raise InteriorTooThin(
            f"band rows {lo}..{hi} empty for delta={spec.delta}, n_time={n_time}"
        )
    ds = 1.0 / n_time
    out = p.copy()
    m_s = int(np.ceil(6.0 * spec.delta / ds))
    for i in range(lo, hi + 1):
        # symmetric clipping keeps the kernel unbiased near the band edges
        half = min(m_s, i, n_time - i)
        offsets = np.arange(-half, half + 1)
        weights = np.exp(-0.5 * ((offsets * ds) / spec.delta) ** 2)
        weights /= weights.sum()
        out[i] = weights @ p[i + offsets[0] : i + offsets[-1] + 1]
    x_spec = MollifierSpec(delta=spec.delta, kind="fiberwise")
    out[lo : hi + 1] = mollify_fiberwise(grid, out[lo : hi + 1], x_spec)
    return out


def semipositivity_constant(m_delta, delta: float) -> float:
    """Measured constant C with m_delta >= -C * delta over all slices.

    m_delta is the density of the potential mollified at width delta.  For
    admissible data and a nonnegative unit-mass kernel it stays nonnegative
    and the constant is zero up to kernel truncation, so the slack
    C * delta it induces downstream is negligible.
    """
    return max(0.0, -float(np.min(m_delta))) / delta
