"""Locating Fisher and Lee-Yang zeroes.

The five scan planes and their maps to the polynomial variable, dense
complex-plane scans with local-minima detection, and the roots of the
density-of-states polynomial: exact roots at the origin and at +-1 split off,
the rest found by Aberth-Ehrlich and certified by Weierstrass inclusion
discs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConvergenceError
from .oracle import DensityOfStates

POLY_DEGREE_CAP = 256
GRID_POINT_CAP = 1 << 22  # a 2048x2048 grid; its complex mesh alone takes 64 MiB
ABERTH_TOL, ABERTH_MAX_ITER = 1e-12, 200

# Scan planes with a density-of-states polynomial: Fisher planes hold the field
# H fixed and scan the coupling K, Lee-Yang planes hold K fixed and scan H.
ZERO_FAMILY = {"x": "fisher", "K": "fisher", "tanhK": "fisher", "z": "lee_yang", "H": "lee_yang"}


def plane_to_poly(plane: str, w):
    """The polynomial variable x = e^{-2K} (Fisher) or z = e^{-2H} (Lee-Yang)
    at scan points w of a plane; elementwise on arrays."""
    if plane in ("K", "H"):
        return np.exp(-2.0 * w)
    if plane == "tanhK":
        return (1.0 - w) / (1.0 + w)
    return w


def plane_param(plane: str, w: complex) -> complex:
    """The coupling K (Fisher planes) or field H (Lee-Yang planes) at one scan
    point; ValueError where the point has none (x = 0, z = 0, tanhK = +-1)."""
    if plane in ("K", "H"):
        return w
    if plane == "tanhK":
        return cmath.atanh(w)
    return -cmath.log(w) / 2.0


@dataclass(frozen=True)
class GridSpec:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int
    plane_tag: str = "K"

    def __post_init__(self):
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("grid resolution must be at least 2x2")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid window is empty")
        if self.n_re * self.n_im > GRID_POINT_CAP:
            raise CapExceededError(
                f"{self.n_re}x{self.n_im} grid exceeds the cap of {GRID_POINT_CAP} points"
            )

    def re_points(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.n_re)

    def im_points(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.n_im)

    def mesh(self) -> np.ndarray:
        re = self.re_points()
        im = self.im_points()
        return re[None, :] + 1j * im[:, None]  # shape (n_im, n_re)

    def cell_size(self) -> tuple[float, float]:
        return (
            (self.re_max - self.re_min) / (self.n_re - 1),
            (self.im_max - self.im_min) / (self.n_im - 1),
        )

    def contains(self, w: complex) -> bool:
        return self.re_min <= w.real <= self.re_max and self.im_min <= w.imag <= self.im_max

    def nearest_cell(self, w: complex) -> tuple[int, int]:
        dre, dim = self.cell_size()
        ix = int(round((w.real - self.re_min) / dre))
        iy = int(round((w.imag - self.im_min) / dim))
        return (min(max(iy, 0), self.n_im - 1), min(max(ix, 0), self.n_re - 1))


@dataclass(frozen=True)
class ScanGrid:
    spec: GridSpec
    values: np.ndarray  # (n_im, n_re) log-scale; -inf for exact zeros, NaN for failures


def scan(evaluator, spec: GridSpec) -> ScanGrid:
    """Dense evaluation of a log-scale evaluator over the grid.

    The evaluator's `evaluate_grid(mesh)` maps the whole (n_im, n_re) mesh to
    ln of the scanned quantity (|Z|^2 or L) in one call.  Its errors
    propagate; a result of another shape raises ValueError.
    """
    mesh = spec.mesh()
    values = np.asarray(evaluator.evaluate_grid(mesh), dtype=np.float64)
    if values.shape != mesh.shape:
        raise ValueError("evaluate_grid returned a wrong shape")
    return ScanGrid(spec, values)


@dataclass(frozen=True)
class MinimumCandidate:
    iy: int
    ix: int
    location: complex
    value: float


def minima_mask(v: np.ndarray, compare) -> np.ndarray:
    """Cells for which compare(cell, neighbour) holds against all 8 neighbours.

    compare is np.less for strict minima or np.less_equal for non-strict
    ones; neighbours beyond the grid edge count as +inf.
    """
    padded = np.full((v.shape[0] + 2, v.shape[1] + 2), np.inf)
    padded[1:-1, 1:-1] = v
    mask = np.ones(v.shape, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            nb = padded[1 + dy : padded.shape[0] - 1 + dy, 1 + dx : padded.shape[1] - 1 + dx]
            mask &= compare(v, nb)
    return mask


def find_minima(grid: ScanGrid) -> list[MinimumCandidate]:
    """Strict 8-neighborhood local minima on interior cells; NaN cells never qualify."""
    v = grid.values
    is_min = minima_mask(np.where(np.isnan(v), np.inf, v), np.less)
    is_min[0, :] = is_min[-1, :] = False
    is_min[:, 0] = is_min[:, -1] = False
    re = grid.spec.re_points()
    im = grid.spec.im_points()
    return [
        MinimumCandidate(int(iy), int(ix), complex(re[ix], im[iy]), float(v[iy, ix]))
        for iy, ix in zip(*np.nonzero(is_min))
    ]


def _horner(c, z):
    """sum_k c[k] z^k by Horner's rule, for a scalar or an array z."""
    p = 0
    for ck in c[::-1]:
        p = p * z + ck
    return p


def _horner_with_derivative(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horner's rule at each z, keeping every partial sum: rows
    P[k] = sum_{j >= k} c_j z^(j-k), so that P[0] = p(z); and p'(z)."""
    P = np.empty((len(c), len(z)), dtype=np.complex128)
    P[-1] = c[-1]
    dp = np.zeros_like(z)
    prev = P[-1]
    for row, ck in zip(P[-2::-1], c[-2::-1]):
        dp *= z
        dp += prev
        np.multiply(prev, z, out=row)
        row += ck
        prev = row
    return P, dp


def _rounding_bound(P: np.ndarray, z: np.ndarray) -> np.ndarray:
    """4 eps sum_k |P_k| |z|^k at each z, over the partial sums P of
    _horner_with_derivative: over twice the first-order running error bound
    (1 + 2 sqrt 2) u sum_k |P_k| |z|^k of complex Horner (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 5.1).  Not finite where
    |z|^d overflows.  One power table and one weighted column sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (np.abs(P) * np.vander(np.abs(z), len(P), increasing=True).T).sum(axis=0)
    return 4 * np.finfo(np.float64).eps * scale


def aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of sum_k coeffs[k] x^k by the Aberth-Ehrlich iteration.

    Initial guesses sit on a circle sized from the coefficient magnitudes.
    A root is frozen, so clustered (multiple) roots cannot keep the rest
    oscillating, in two ways: where it stands, without that iteration's step,
    once its residual |p(z)| is at the rounding floor _rounding_bound and both
    are finite, so that rounding noise decides its further steps (Bini &
    Fiorentino, Numer. Algorithms 23, 2000); or once its step falls below
    ABERTH_TOL (1 + |z|).  Each iteration evaluates and steps only the active
    roots; frozen roots stay in their Aberth sums.  Two Newton steps polish
    the frozen set.  If some root is still active after ABERTH_MAX_ITER
    iterations, roots whose residuals are at backward-error level are still
    accepted -- a multiple root can only be located to eps^(1/m) no matter
    the iteration.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    c = c / np.max(np.abs(c))
    d = len(c) - 1
    if d < 1:
        return np.zeros(0, dtype=np.complex128)
    if d == 1:
        return np.array([-c[0] / c[1]])
    radius = (abs(c[0]) / abs(c[d])) ** (1.0 / d)
    radius = min(max(radius, 1e-6), 1.0 + float(np.max(np.abs(c[:-1]) / abs(c[d]))))
    angles = 2.0 * np.pi * (np.arange(d) + 0.25) / d
    z = radius * np.exp(1j * angles)
    active = np.arange(d)
    for _ in range(ABERTH_MAX_ITER):
        za = z[active]
        P, dp = _horner_with_derivative(c, za)
        p, floor = P[0], _rounding_bound(P, za)
        # |p| <= a finite floor implies a finite p: an overflowed iterate never freezes here
        step = ~((np.abs(p) <= floor) & np.isfinite(floor))
        active, za, p, dp = active[step], za[step], p[step], dp[step]
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = za[:, None] - z[None, :]
        diff[np.arange(len(active)), active] = np.inf
        s = np.sum(1.0 / diff, axis=1)
        delta = w / (1.0 - w * s)
        za = za - delta
        z[active] = za
        active = active[~(np.abs(delta) <= ABERTH_TOL * (1.0 + np.abs(za)))]
        if active.size == 0:
            for _ in range(2):  # Newton polish
                P, dp = _horner_with_derivative(c, z)
                dp = np.where(dp == 0, 1e-300, dp)
                z = z - P[0] / dp
            return z
    P, _ = _horner_with_derivative(c, z)
    # sum_k |c_k| |z|^k is the backward-error scale for residual acceptance
    if np.all(np.abs(P[0]) <= 1e-10 * _horner(np.abs(c), np.abs(z))):
        return z
    raise ConvergenceError(f"Aberth iteration did not converge in {ABERTH_MAX_ITER} steps")


def _split_exact_roots(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(exact roots, remaining coefficients) of a low-to-high polynomial.

    Trailing zero coefficients give exact roots at the origin.  Roots at
    exactly +-1 are detected by exact coefficient sums and divided out:
    integer-valued density-of-states coefficients give P(+-1) as exact float
    sums, and the 2D-Ising polynomials carry genuinely multiple roots at
    x = -1 (K on the i pi/2 lattice).  The remaining polynomial keeps every
    other root, well separated for Aberth.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    if len(c) - 1 > POLY_DEGREE_CAP:
        raise ValueError(f"degree {len(c) - 1} exceeds cap {POLY_DEGREE_CAP}")
    c = c[nz[0] : nz[-1] + 1]
    exact = [0j] * int(nz[0])
    for unit in (1.0, -1.0):
        while len(c) > 1:
            signs = unit ** np.arange(len(c))
            total = complex(math.fsum((c * signs).real), math.fsum((c * signs).imag))
            if total != 0:
                break
            # synthetic division by (x - unit), exact for integer-valued inputs
            out = np.empty(len(c) - 1, dtype=np.complex128)
            acc = 0j
            for k in range(len(c) - 1, 0, -1):
                acc = c[k] + unit * acc
                out[k - 1] = acc
            c = out
            exact.append(complex(unit))
    return np.array(exact, dtype=np.complex128), c


# real parts closer than this (relative beyond 1) count as one in the root order
_SAME_RE = 1e-9


def _root_order(w: np.ndarray) -> np.ndarray:
    """Indices that sort points by real part, then by imaginary part among the
    runs whose successive real parts lie within _SAME_RE.

    The two members of a conjugate pair differ in their real parts by rounding
    noise alone (up to 2e-11 on the 7x7 Fisher polynomial, whose other real
    parts lie at least 2e-4 apart), so that noise never decides their order:
    the pair is ordered by its imaginary parts.
    """
    by_re = np.argsort(w.real)
    re = w.real[by_re]
    run = np.cumsum(np.diff(re, prepend=re[:1]) > _SAME_RE * np.maximum(1.0, np.abs(re)))
    return by_re[np.lexsort((w.imag[by_re], run))]


def roots_of_polynomial(coeffs) -> np.ndarray:
    """Roots (with multiplicity) of a low-to-high coefficient polynomial.

    The exact roots at the origin and at +-1 are split off first and the rest
    found by Aberth-Ehrlich; the root count equals the polynomial degree.
    Output is sorted by (re, im), real parts within _SAME_RE counting as one
    (_root_order).
    """
    exact, stripped = _split_exact_roots(coeffs)
    out = np.concatenate([exact, aberth_roots(stripped)])
    return out[_root_order(out)]


def inclusion_radii(coeffs, roots) -> np.ndarray:
    """Weierstrass inclusion radius of each root from roots_of_polynomial(coeffs).

    Exact roots (origin and deflated +-1) get radius 0.  Every other root z_i
    of the remaining degree-d polynomial p gets
    d (|p(z_i)| + Horner rounding bound) / |c_d prod_{j != i} (z_i - z_j)|.
    The union of these discs holds every root, and a disc disjoint from all
    others holds exactly one (Bini & Fiorentino, Numer. Algorithms 23, 2000).
    The rounding bound is _rounding_bound, twice the running error bound of
    the Horner evaluation that gives p(z_i).  O(d^2).
    """
    exact, c = _split_exact_roots(coeffs)
    roots = np.asarray(roots, dtype=np.complex128)
    approx = ~np.isin(roots, exact)
    d = len(c) - 1
    if np.count_nonzero(approx) != d:
        raise ValueError("roots do not belong to these coefficients")
    z = roots[approx]
    P, _ = _horner_with_derivative(c, z)
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, 1.0)
    radii = np.zeros(len(roots))
    with np.errstate(divide="ignore", over="ignore"):
        log_den = math.log(abs(c[-1])) + np.sum(np.log(gaps), axis=1)
        radii[approx] = d * (np.abs(P[0]) + _rounding_bound(P, z)) * np.exp(-log_den)
    return radii


def discs_disjoint(roots, radii) -> bool:
    """True when the inclusion discs of the inexact roots (radius > 0) are pairwise disjoint."""
    keep = np.asarray(radii) > 0
    z, r = np.asarray(roots)[keep], np.asarray(radii)[keep]
    gap = np.abs(z[:, None] - z[None, :]) - r[:, None] - r[None, :]
    np.fill_diagonal(gap, np.inf)
    return bool(np.all(gap > 0))


def polynomial_coefficients(
    dos: DensityOfStates, which: str = "fisher", fixed_other_param: complex = 0j
) -> np.ndarray:
    """Z as a polynomial in x = e^{-2K} (fisher, fixed H) or z = e^{-2H}
    (lee_yang, fixed K), low-to-high coefficients."""
    if which == "fisher":
        return dos.fisher_coefficients(H=fixed_other_param)
    if which == "lee_yang":
        return dos.lee_yang_coefficients(K=fixed_other_param)
    raise ValueError(f"unknown zero family {which!r}")


def polynomial_roots(
    dos: DensityOfStates, which: str = "fisher", fixed_other_param: complex = 0j
) -> np.ndarray:
    """Roots of polynomial_coefficients(dos, which, fixed_other_param)."""
    return roots_of_polynomial(polynomial_coefficients(dos, which, fixed_other_param))


def map_roots(roots, window: GridSpec, variable: str = "K") -> list[complex]:
    """Scan-plane points of polynomial roots inside the window, sorted as
    roots_of_polynomial sorts (_root_order).

    On K and H every logarithm preimage -ln(x)/2 counts; the branch lattice
    has imaginary period pi.  On x, z and tanhK a root's point is
    plane_to_poly of the root, since the tanh map is its own inverse.  Roots at
    the origin, and roots with no finite point (x = -1 on tanhK), are skipped.
    """
    if variable not in ZERO_FAMILY:
        raise ValueError(f"unknown scan plane {variable!r}")
    roots = np.asarray(roots, dtype=np.complex128)
    out: list[complex] = []
    if variable in ("K", "H"):
        for x in roots[roots != 0]:
            base = -(math.log(abs(x)) + 1j * math.atan2(x.imag, x.real)) / 2.0
            if not (window.re_min <= base.real <= window.re_max):
                continue
            k_lo = math.ceil((window.im_min - base.imag) / math.pi)
            k_hi = math.floor((window.im_max - base.imag) / math.pi)
            out.extend(base + 1j * math.pi * k for k in range(k_lo, k_hi + 1))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            views = plane_to_poly(variable, roots)
        out = [complex(v) for r, v in zip(roots, views)
               if r != 0 and np.isfinite(v) and window.contains(complex(v))]
    return [out[i] for i in _root_order(np.array(out, dtype=np.complex128))]


def unit_circle_distance(x_roots) -> np.ndarray:
    """| |u| - 1 | for each nonzero root x = e^{-2K}, in u = sinh(2K) = (1 - x^2) / 2x."""
    x = np.asarray(x_roots, dtype=np.complex128)
    x = x[x != 0]
    return np.abs(np.abs((1.0 - x * x) / (2.0 * x)) - 1.0)
