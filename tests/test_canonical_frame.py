"""The rotation stage's cross product against np.cross, bit for bit."""

import numpy as np

from gaugeflow.canonicalizer import _cross


def test_cross_matches_numpy_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = rng.standard_normal((int(rng.integers(1, 30)), 3)) * 10.0 ** rng.uniform(-6, 6)
        b = rng.standard_normal(3) * 10.0 ** rng.uniform(-6, 6)
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
        assert _cross(a[0], b).tobytes() == np.cross(a[0], b).tobytes()
        assert _cross(a, b).shape == a.shape
