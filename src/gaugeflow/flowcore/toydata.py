"""Planar toy distributions with a known finite symmetry group."""

from __future__ import annotations

import numpy as np


def c4_blobs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Mixture of four Gaussian blobs of std 0.3 on the C4 orbit of (2, 0)."""
    component = rng.integers(0, 4, size=n)
    angles = component * (np.pi / 2.0)
    centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return centers + 0.3 * rng.standard_normal((n, 2))


def sector_canonicalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each point by a C4 element into the sector angle in [-pi/4, pi/4).

    Returns (canonical points, element indices k) where the applied rotation is
    by -k * pi/2, i.e. the input is recovered by rotating canonical points back
    by +k * pi/2. Points at the origin keep k = 0.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    theta = np.arctan2(z[:, 1], z[:, 0])
    # number of quarter turns needed to land in [-pi/4, pi/4)
    k = np.floor((theta + np.pi / 4.0) / (np.pi / 2.0)).astype(np.int64) % 4
    ang = -k * (np.pi / 2.0)
    c, s = np.cos(ang), np.sin(ang)
    zc = np.stack([c * z[:, 0] - s * z[:, 1], s * z[:, 0] + c * z[:, 1]], axis=1)
    return zc, k
