import numpy as np
import pytest

from pfzeros.evaluators import KickedFieldPlaneEvaluator, KickedProbabilityEvaluator


@pytest.mark.parametrize("n_circ, l_len", [(3, 2), (3, 3), (4, 3), (5, 2)])
def test_kicked_k_plane_matches_kick_field_plane(n_circ, l_len):
    # the K plane addresses Ky = K through the kick field H = artanh(-e^{2K});
    # the field plane at that H with fixed ring coupling K must give the same ln L
    k_plane = KickedProbabilityEvaluator(n_circ, l_len)
    for K in (-0.3 + 0.2j, -0.15 - 0.4j, 0.1 + 0.3j, -0.45 + 1.0j):
        H = np.arctanh(-np.exp(2.0 * K))
        field_plane = KickedFieldPlaneEvaluator(n_circ, l_len, fixed_k=K)
        a = k_plane.evaluate_grid(np.array([[K]]))[0, 0]
        b = field_plane.evaluate_grid(np.array([[H]]))[0, 0]
        assert np.isfinite(a)
        assert abs(a - b) < 1e-12
