"""Complex Newton refinement of a zero, a reference for the tests.

No pfzeros task refines a zero by Newton: the zeros task takes its locations
from the polynomial roots.  The acceptance criteria still check that Newton
iteration on the oracle's complex Z lands on those roots, so the iteration
lives here, beside the tests that use it.
"""

import math
from dataclasses import dataclass

import numpy as np

from pfzeros.errors import ConvergenceError
from pfzeros.zeros import _horner, plane_to_poly

NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 50


@dataclass(frozen=True)
class ZeroEstimate:
    location: complex
    residual: float  # ln |f| at the location (relative to the evaluator's scale)
    method: str  # always "newton"
    iterations: int = 0


def refine_newton(evaluator_z, z0: complex, step_scale: float | None = None) -> ZeroEstimate:
    """Complex Newton iteration on a complex-Z evaluator.

    The derivative is taken by central differences with step 1e-6 * scale, so
    any backend returning a (possibly rescaled) complex Z can be refined.
    Multiple roots make plain Newton steps shrink geometrically; a stable step
    ratio r triggers one accelerated step scaled by 1/(1-r), after which plain
    iteration resumes.  Converges when |dz| < NEWTON_TOL; raises
    ConvergenceError after NEWTON_MAX_ITER steps otherwise.
    """
    scale = step_scale if step_scale is not None else max(1.0, abs(z0))
    h = 1e-6 * scale
    z = complex(z0)
    prev_step = None
    ratio_streak = 0
    last_ratio = 0.0
    for it in range(NEWTON_MAX_ITER):
        f = complex(evaluator_z(z))
        if f == 0:
            return ZeroEstimate(z, float("-inf"), "newton", it)
        df = (complex(evaluator_z(z + h)) - complex(evaluator_z(z - h))) / (2.0 * h)
        if abs(df) * scale < 1e-300 or not np.isfinite(abs(df)):
            raise ConvergenceError(f"derivative underflow at {z:.6g}")
        dz = f / df
        if prev_step is not None and abs(prev_step) > 0:
            r = abs(dz) / abs(prev_step)
            if 0.4 < r < 0.97 and abs(r - last_ratio) < 0.05:
                ratio_streak += 1
            else:
                ratio_streak = 0
            last_ratio = r
            if ratio_streak >= 3:
                dz = dz / (1.0 - r)  # multiplicity-accelerated step
                ratio_streak = 0
        prev_step = dz
        z -= dz
        if abs(dz) < NEWTON_TOL:
            fz = complex(evaluator_z(z))
            residual = math.log(abs(fz)) if fz != 0 else float("-inf")
            return ZeroEstimate(z, residual, "newton", it + 1)
    raise ConvergenceError(f"Newton did not converge from {z0:.6g} in {NEWTON_MAX_ITER} iterations")


def newton_z(evaluator):
    """Complex reduced-Z function of a scan point for refine_newton, from a
    DosEvaluator's polynomial on its plane."""
    c = np.asarray(evaluator.coeffs, dtype=np.complex128)
    c = c / np.max(np.abs(c))
    return lambda w: _horner(c, complex(plane_to_poly(evaluator.plane, w)))
