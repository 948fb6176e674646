"""The kick-field map's inverse, a reference for the tests.

No pfzeros task maps a kick field back to its coupling: the kicked circuits
are compiled from Ky (kick_field_for_ky), and the field-plane scan takes
ln(-tanh H)/2 over the whole grid (KickedFieldPlaneEvaluator).  The
acceptance criteria and the map's round trip still check it, so it lives
here, beside the tests that use it.
"""

import cmath


def ky_for_kick_field(H: complex) -> complex:
    """Exact classical y-coupling realized by kick field H: Ky = ln(-tanh H)/2."""
    t = -cmath.tanh(complex(H))
    if t == 0:
        raise ValueError("tanh(H) = 0 has no finite coupling preimage")
    return cmath.log(t) / 2.0
