import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import Pointwise
from newton_reference import newton_z, refine_newton
from pfzeros import zeros as zeros_module
from pfzeros.errors import CapExceededError, ConvergenceError
from pfzeros.evaluators import DosEvaluator
from pfzeros.model import build_chain, build_cylinder, from_edge_list
from pfzeros.oracle import density_of_states
from pfzeros.zeros import (
    GRID_POINT_CAP,
    GridSpec,
    ScanGrid,
    _split_exact_roots,
    discs_disjoint,
    find_minima,
    inclusion_radii,
    map_roots,
    plane_to_poly,
    polynomial_coefficients,
    polynomial_roots,
    roots_of_polynomial,
    scan,
    unit_circle_distance,
)


def match_multisets(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def companion_roots(coeffs):
    """Reference roots: numpy.roots (companion-matrix eigenvalues) on the same
    zero-stripped, +-1-deflated coefficients that roots_of_polynomial uses."""
    exact, stripped = _split_exact_roots(coeffs)
    return np.concatenate([exact, np.roots(stripped[::-1])])


class TestScan:
    def test_constant_evaluator(self):
        spec = GridSpec(-1, 1, -1, 1, 5, 4)
        grid = scan(Pointwise(lambda w: 2.5), spec)
        assert grid.values.shape == (4, 5)
        assert np.all(grid.values == 2.5)

    def test_wrong_shape_rejected(self):
        class Transposed:
            def evaluate_grid(self, mesh):
                return np.zeros(mesh.T.shape)

        with pytest.raises(ValueError, match="wrong shape"):
            scan(Transposed(), GridSpec(-1, 1, -1, 1, 5, 4))

    def test_evaluator_failure_propagates(self):
        # no point fails silently: an error inside evaluate_grid ends the scan
        def evaluator(w):
            if abs(w.real) < 0.4:
                raise RuntimeError("backend failure")
            return 1.0

        with pytest.raises(RuntimeError, match="backend failure"):
            scan(Pointwise(evaluator), GridSpec(-1, 1, -1, 1, 4, 4))

    def test_one_spin_lee_yang_minimum(self):
        # |2 cosh(H)|^2 vanishes at H = i pi/2
        spec = GridSpec(-1, 1, 0, math.pi, 61, 63, "H")
        grid = scan(Pointwise(lambda w: math.log(abs(2 * cmath.cosh(w)) ** 2 + 1e-300)), spec)
        cands = find_minima(grid)
        assert len(cands) == 1
        dre, dim = spec.cell_size()
        target = 1j * math.pi / 2
        assert abs(cands[0].location.real - target.real) <= dre
        assert abs(cands[0].location.imag - target.imag) <= dim

    def test_grid_point_cap(self):
        # checked before any mesh exists: the spec just above the cap allocates nothing
        assert 2048 * 2048 == GRID_POINT_CAP
        GridSpec(0, 1, 0, 1, 2048, 2048)
        with pytest.raises(CapExceededError):
            GridSpec(0, 1, 0, 1, 2049, 2048)


class TestFindMinima:
    def test_monotone_grid_empty(self):
        spec = GridSpec(0, 1, 0, 1, 8, 8)
        grid = scan(Pointwise(lambda w: w.real + 2 * w.imag), spec)
        assert find_minima(grid) == []

    def test_single_deep_minimum(self):
        spec = GridSpec(-1, 1, -1, 1, 21, 21)
        grid = scan(Pointwise(lambda w: 2 * math.log(abs(w - (0.1 + 0.2j)) + 1e-12)), spec)
        cands = find_minima(grid)
        assert len(cands) == 1

    def test_border_cells_excluded(self):
        spec = GridSpec(0, 1, 0, 1, 6, 6)
        grid = scan(Pointwise(lambda w: abs(w) ** 2), spec)  # minimum at the corner
        assert find_minima(grid) == []

    def test_threshold_cuts_shallow_minima(self):
        spec = GridSpec(-1, 1, -1, 1, 21, 23)
        values = np.zeros((23, 21))
        values[5, 5] = -0.5  # shallow dip
        values[11, 11] = -30.0  # deep zero
        grid = ScanGrid(spec, values)
        assert len(find_minima(grid)) == 2


class TestNewton:
    def test_start_at_exact_zero(self):
        est = refine_newton(lambda z: 2 * cmath.cosh(z), 1j * math.pi / 2)
        assert est.iterations <= 1
        assert abs(est.location - 1j * math.pi / 2) < 1e-12

    def test_one_spin_field_zero(self):
        est = refine_newton(lambda z: 2 * cmath.cosh(z), 0.1 + 1.4j)
        assert abs(est.location - 1j * math.pi / 2) < 1e-10
        assert est.method == "newton"

    def test_derivative_underflow(self):
        with pytest.raises(ConvergenceError, match="underflow"):
            refine_newton(lambda z: 1.0 + 0j, 0.3)

    def test_double_root_accelerated(self):
        # plain Newton is only linear on multiple roots; the step-ratio
        # acceleration must still land inside the 50-iteration budget
        est = refine_newton(lambda z: (z + 1.0) ** 2 * (z - 2.0), -1.04 + 0.02j)
        assert abs(est.location - (-1.0)) < 1e-6


class TestPolynomialRoots:
    def test_one_spin_lee_yang_root(self):
        dos = density_of_states(from_edge_list(1, []))
        roots = polynomial_roots(dos, "lee_yang", 0j)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-1.0)  # z = -1 <-> H = i pi/2 mod i pi

    def test_two_spin_open_chain_fisher(self):
        dos = density_of_states(build_chain(2, K=0.1))
        roots = polynomial_roots(dos, "fisher", 0j)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-1.0)  # x = -1 <-> cosh K = 0

    def test_aberth_vs_companion_random(self, rng):
        for _ in range(15):
            deg = int(rng.integers(2, 24))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            a = roots_of_polynomial(c)
            b = companion_roots(c)
            assert match_multisets(a, b) < 1e-8

    def test_3x3_multiset_stability(self):
        dos = density_of_states(build_cylinder(3, 3, -0.2, -0.2))
        a = polynomial_roots(dos, "fisher", 0j)
        b = companion_roots(polynomial_coefficients(dos, "fisher", 0j))
        assert len(a) == dos.bond_count  # degree with multiplicity
        assert match_multisets(a, b) < 1e-8

    def test_exact_unit_deflation(self):
        # (x+1)^4 (x-1) (x-0.5) with integer-ish coefficients
        c = np.poly1d([1, -1]) * np.poly1d([1, 1]) ** 4 * np.poly1d([2, -1])
        coeffs = np.array(c.coefficients[::-1], dtype=complex)
        roots = roots_of_polynomial(coeffs)
        assert int(np.sum(roots == -1.0)) == 4
        assert int(np.sum(roots == 1.0)) == 1
        assert min(abs(roots - 0.5)) < 1e-12

    def test_origin_multiplicity(self):
        roots = roots_of_polynomial(np.array([0, 0, 0, 1.0, 2.0]))
        assert int(np.sum(roots == 0)) == 3

    def test_conjugation_closure(self):
        dos = density_of_states(build_cylinder(3, 2, -0.2, -0.2))
        roots = polynomial_roots(dos, "fisher", 0j)
        assert match_multisets(roots, np.conj(roots)) < 1e-9

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            roots_of_polynomial(np.ones(300))

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            roots_of_polynomial(np.zeros(4))


def exactly_deflated_roots(dos, dps=50):
    """Roots of the integer H = 0 Fisher polynomial: origin and +-1 roots by
    exact integer division, the rest by mpmath.polyroots at dps digits."""
    c = [int(v) for v in dos.table.sum(axis=1)]
    exact = []
    while c[0] == 0:
        c.pop(0)
        exact.append(0j)
    for unit in (1, -1):
        while len(c) > 1 and sum(ck * unit**k for k, ck in enumerate(c)) == 0:
            out, acc = [0] * (len(c) - 1), 0
            for k in range(len(c) - 1, 0, -1):  # synthetic division by (x - unit)
                acc = c[k] + unit * acc
                out[k - 1] = acc
            c = out
            exact.append(complex(unit))
    with mpmath.workdps(dps):
        finite = mpmath.polyroots(c[::-1], maxsteps=400, extraprec=4 * dps)
    return exact, finite


class TestInclusionDiscs:
    @pytest.mark.parametrize("size", [3, 4, 7])
    def test_one_exact_root_in_each_disc(self, size):
        dos = density_of_states(build_cylinder(size, size, -0.2, -0.2))
        coeffs = polynomial_coefficients(dos, "fisher", 0j)
        roots = roots_of_polynomial(coeffs)
        radii = inclusion_radii(coeffs, roots)
        exact, finite = exactly_deflated_roots(dos)
        assert sorted(roots[radii == 0].tolist(), key=lambda w: (w.real, w.imag)) == \
            sorted(exact, key=lambda w: (w.real, w.imag))
        with mpmath.workdps(50):
            for z, r in zip(roots[radii > 0], radii[radii > 0]):
                inside = [x for x in finite if abs(x - mpmath.mpc(z.real, z.imag)) <= r]
                assert len(inside) == 1, f"disc at {z:.6g} of radius {r:.2e} holds {len(inside)} roots"
        assert discs_disjoint(roots, radii)

    @pytest.mark.parametrize(
        "model, which, fixed",
        [(build_cylinder(n, n, -0.2, -0.2), "fisher", 0j) for n in (3, 4, 5, 6, 7)]
        + [
            (build_chain(6, periodic=True, K=-0.2), "fisher", 0j),
            (build_cylinder(4, 3, -0.2, -0.2), "fisher", 0.1 + 0.2j),
            (build_cylinder(3, 3, -0.3, -0.3), "lee_yang", -0.3),
        ],
        ids=["3x3", "4x4", "5x5", "6x6", "7x7", "chain6-periodic", "4x3-complex-H", "3x3-lee-yang"],
    )
    def test_discs_disjoint(self, model, which, fixed):
        coeffs = polynomial_coefficients(density_of_states(model), which, fixed)
        roots = roots_of_polynomial(coeffs)
        radii = inclusion_radii(coeffs, roots)
        assert np.all(np.isfinite(radii))
        assert discs_disjoint(roots, radii)

    def test_exact_roots_have_radius_zero(self):
        # (x+1)^2 (x-1) x^2 (x - 0.5): only the root at 0.5 needs a disc
        c = np.poly1d([1, 1]) ** 2 * np.poly1d([1, -1]) * np.poly1d([1, 0, 0]) * np.poly1d([2, -1])
        coeffs = np.array(c.coefficients[::-1], dtype=complex)
        roots = roots_of_polynomial(coeffs)
        radii = inclusion_radii(coeffs, roots)
        assert np.count_nonzero(radii) == 1
        assert abs(roots[radii > 0][0] - 0.5) <= radii[radii > 0][0] < 1e-12

    def test_overlapping_discs_not_disjoint(self):
        assert not discs_disjoint(np.array([0.0, 1e-3]), np.array([1e-3, 1e-3]))
        assert discs_disjoint(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.1]))

    def test_roots_of_other_coefficients_rejected(self):
        with pytest.raises(ValueError):
            inclusion_radii(np.array([0.0, 1.0, 1.0]), np.array([0.5 + 0j]))


class TestMapRoots:
    def test_unit_root_branch_lattice(self):
        window = GridSpec(-0.5, 0.5, -7, 7, 4, 4, "K")
        ks = map_roots([1.0 + 0j], window, "K")
        expected = [1j * math.pi * k for k in range(-2, 3)]
        assert len(ks) == len(expected)
        for k, e in zip(ks, expected):
            assert k == pytest.approx(e, abs=1e-12)

    def test_negative_unit_root(self):
        window = GridSpec(-0.5, 0.5, -2, 2, 4, 4, "K")
        ks = map_roots([-1.0 + 0j], window, "K")
        assert sorted(round(k.imag, 6) for k in ks) == [-1.570796, 1.570796]

    def test_origin_skipped(self):
        window = GridSpec(-1, 1, -1, 1, 4, 4, "K")
        assert map_roots([0j], window, "K") == []

    def test_out_of_real_band(self):
        window = GridSpec(-0.1, 0.1, -4, 4, 4, 4, "K")
        assert map_roots([5.0 + 0j], window, "K") == []  # Re K = -ln(5)/2 outside

    def test_polynomial_variable_planes(self):
        # x and z take the root itself, tanhK its image (1-x)/(1+x); x = -1 has none
        window = GridSpec(-2, 2, -2, 2, 4, 4, "tanhK")
        roots = [0j, -1.0 + 0j, 0.5 + 0j, 3.0 + 0j]
        assert map_roots(roots, window, "x") == map_roots(roots, window, "z") == [-1.0, 0.5]
        assert map_roots(roots, window, "tanhK") == pytest.approx([-0.5, 1.0 / 3.0])



class TestRootOrder:
    """The two members of a conjugate pair differ in their real parts by
    rounding noise only; that noise must not decide which comes first, or two
    builds of the same output list a pair in either order."""

    @staticmethod
    def noisy_copies(roots, rng, count=20, rel=3e-11):
        for _ in range(count):
            kick = rng.standard_normal(roots.size) + 1j * rng.standard_normal(roots.size)
            kick[np.isin(roots, (0.0, 1.0, -1.0))] = 0.0  # split off exactly, no noise
            yield roots * (1.0 + rel * kick)

    def test_roots_of_polynomial_order_survives_rounding_noise(self, rng):
        roots = polynomial_roots(density_of_states(build_cylinder(7, 7, -0.2, -0.2)), "fisher")
        assert np.array_equal(zeros_module._root_order(roots), np.arange(roots.size))
        for noisy in self.noisy_copies(roots, rng):
            assert np.array_equal(zeros_module._root_order(noisy), np.arange(roots.size))

    def test_map_roots_order_survives_rounding_noise(self, rng):
        roots = polynomial_roots(density_of_states(build_cylinder(7, 7, -0.2, -0.2)), "fisher")
        window = GridSpec(-0.62, 0.63, -0.80, 0.82, 4, 4, "K")
        ks = np.array(map_roots(roots, window, "K"))
        assert np.sum(ks.imag > 0) == np.sum(ks.imag < 0) > 10
        for noisy in self.noisy_copies(roots, rng):
            moved = np.array(map_roots(noisy, window, "K"))
            assert moved.size == ks.size and np.max(np.abs(moved - ks)) < 1e-9

    def test_pair_straddling_a_rounding_boundary(self):
        # real parts 2e-12 apart on both sides of a multiple of 1e-10: rounding
        # them would still split the pair by noise, the run does not
        a, b = 0.15 + 0.5e-10 - 1e-12, 0.15 + 0.5e-10 + 1e-12
        for re_up, re_down in ((a, b), (b, a)):
            w = np.array([complex(re_up, 0.4), complex(re_down, -0.4), 0.7 + 0j, -0.3 + 0.2j])
            assert w[zeros_module._root_order(w)].tolist() == [w[3], w[1], w[0], w[2]]

    def test_empty(self):
        assert zeros_module._root_order(np.array([], dtype=np.complex128)).size == 0

class TestRescaling:
    def test_variables(self):
        x = np.array([0.5 + 0.1j])
        k = -np.log(x) / 2
        assert plane_to_poly("tanhK", x)[0] == pytest.approx(np.tanh(k)[0])
        assert unit_circle_distance(x)[0] == pytest.approx(abs(abs(np.sinh(2 * k)[0]) - 1))

    def test_unit_circle_distance_drops_origin(self):
        d = unit_circle_distance([0j, 1j])  # x = i maps to u = -i
        assert len(d) == 1 and d[0] == pytest.approx(0.0)


class TestRootScanConsistency:
    def test_3x3_fisher_k_plane(self):
        dos = density_of_states(build_cylinder(3, 3, -0.2, -0.2))
        roots = polynomial_roots(dos, "fisher", 0j)
        spec = GridSpec(-0.62, 0.63, -1.45, 1.47, 100, 100, "K")
        mapped = map_roots(roots, spec, "K")
        ev = DosEvaluator(dos, 0j, "K")
        grid = scan(ev, spec)
        cands = find_minima(grid)
        # candidate count equals the in-window root count at this resolution
        assert len(cands) == len(mapped) == 8
        dre, dim = spec.cell_size()
        for root in mapped:
            best = min(
                max(abs(root.real - c.location.real) / dre, abs(root.imag - c.location.imag) / dim)
                for c in cands
            )
            assert best <= 1.0

    def test_lee_yang_ferromagnetic_axis(self):
        dos = density_of_states(build_cylinder(3, 3, -0.3, -0.3))
        roots = polynomial_roots(dos, "lee_yang", -0.3)
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-9  # Lee-Yang circle
        window = GridSpec(-1, 1, 0, math.pi, 4, 4, "H")
        hs = map_roots(roots, window, "H")
        ev = DosEvaluator(dos, -0.3, "H")
        nz = newton_z(ev)
        for h0 in hs:
            est = refine_newton(nz, h0 + 0.002 + 0.001j, step_scale=0.5)
            assert abs(est.location.real) < 1e-6


class TestAberthStop:
    """A root stops once its residual reaches the rounding floor: the Aberth
    iteration does not random-walk on rounding noise up to its step tolerance
    or its iteration cap.  Each pass is one _horner_with_derivative call."""

    @staticmethod
    def passes(monkeypatch, coeffs):
        calls = []
        horner = zeros_module._horner_with_derivative

        def counted(c, z):
            calls.append(1)
            return horner(c, z)

        monkeypatch.setattr(zeros_module, "_horner_with_derivative", counted)
        roots_of_polynomial(coeffs)
        return len(calls)

    def test_7x7_fisher_polynomial(self, monkeypatch):
        dos = density_of_states(build_cylinder(7, 7, -0.2, -0.2))
        coeffs = polynomial_coefficients(dos, "fisher", 0j)
        # the step rule alone takes 157 iterations and the 2 polish steps
        assert self.passes(monkeypatch, coeffs) <= 30

    @pytest.mark.parametrize("size", [5, 6, 7])
    def test_complex_field_stops_before_the_cap(self, monkeypatch, size):
        dos = density_of_states(build_cylinder(size, size, -0.2, -0.2))
        coeffs = polynomial_coefficients(dos, "fisher", 0.1 + 0.2j)
        assert self.passes(monkeypatch, coeffs) <= 40  # the step rule alone hits the 200-iteration cap

    def test_near_double_roots_keep_their_accuracy(self):
        # at H = 0.1 + 0.2i the 6x6 Fisher polynomial has pairs of roots 5e-6 and
        # 5e-5 apart near x = -1; a floor far above the real rounding noise, such
        # as 4 d eps sum_k |c_k| |z|^k, stops them 1.5e-5 from the 30-digit roots
        dos = density_of_states(build_cylinder(6, 6, -0.2, -0.2))
        coeffs = polynomial_coefficients(dos, "fisher", 0.1 + 0.2j)
        exact, stripped = _split_exact_roots(coeffs)
        with mpmath.workdps(30):
            ref = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in stripped[::-1]],
                                   maxsteps=500, extraprec=120)
        roots = roots_of_polynomial(coeffs)
        assert match_multisets(roots[~np.isin(roots, exact)], np.array([complex(r) for r in ref])) < 5e-6


class TestComplexFixedParameter:
    def test_lee_yang_roots_at_complex_coupling(self):
        dos = density_of_states(build_cylinder(3, 2, -0.2 + 0.15j, -0.2 + 0.15j))
        a = polynomial_roots(dos, "lee_yang", -0.2 + 0.15j)
        b = companion_roots(polynomial_coefficients(dos, "lee_yang", -0.2 + 0.15j))
        assert len(a) == 6  # degree N
        assert match_multisets(a, b) < 1e-8


class TestScanPerformance:
    def test_large_cylinders_scan_quickly(self):
        # 5x5 and 7x7 transfer-oracle scans at 100x100 stay in the seconds range
        import time

        from pfzeros.oracle import transfer_matrix_Z_grid

        K = GridSpec(-0.62, 0.63, -1.45, 1.47, 100, 100, "K").mesh().ravel()
        t0 = time.monotonic()
        for size in (5, 7):
            logmag, _ = transfer_matrix_Z_grid(size, size, K, K, np.zeros(K.size))
            assert np.isfinite(logmag).all()
        assert time.monotonic() - t0 < 120.0
