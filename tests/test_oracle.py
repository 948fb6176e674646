import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import enumerate_correlation, enumerate_Z, random_complex, random_model
from pfzeros import oracle
from pfzeros.errors import CapExceededError, IllConditionedError
from pfzeros.model import build_chain, build_cylinder, cylinder_dims, from_edge_list, with_bond_delta
from pfzeros.oracle import (
    LogComplex,
    _dos_enumerate,
    brute_force_Z,
    correlation,
    density_of_states,
    momentum_Z_grid,
    transfer_matrix_Z,
    transfer_matrix_Z_grid,
)
from pfzeros.zeros import GridSpec, map_roots, polynomial_roots

# rings and cylinders that density_of_states sends through the transfer route
TRANSFER_ROUTE_MODELS = [
    *((build_chain(n, periodic=True, K=0.2), (n, 1)) for n in range(3, 11)),
    *((build_cylinder(n, l, 0.2, 0.2), (n, l)) for n in (3, 4, 5) for l in (1, 2, 3)),
]


def value(lz):
    """The complex number a LogComplex stands for."""
    return cmath.exp(complex(lz.log_magnitude, lz.phase))


class TestLogComplex:
    def test_zero_element(self):
        lz = LogComplex.from_log(float("-inf"), 1.0)
        assert lz.log_magnitude == float("-inf")
        assert value(lz) == 0

    def test_phase_wrapped(self):
        lz = LogComplex.from_log(0.0, 7.5)
        assert -math.pi < lz.phase <= math.pi


class TestBruteForce:
    def test_single_spin_lee_yang_zero(self):
        m = from_edge_list(1, [], [(0, 1j * math.pi / 2)])
        assert abs(brute_force_Z(m)) < 1e-12  # 2 cosh(i pi/2) = 0

    def test_all_zero_couplings(self):
        m = build_chain(5, K=0)
        assert brute_force_Z(m) == pytest.approx(2**5)

    def test_2x2_open_plaquette_vs_enumeration(self, rng):
        bonds4 = [(0, 1, 0j), (2, 3, 0j), (0, 2, 0j), (1, 3, 0j)]
        for _ in range(5):
            k = random_complex(rng)
            bonds = [(i, j, k) for (i, j, _) in bonds4]
            m = from_edge_list(4, bonds)
            expected = enumerate_Z(4, bonds)
            assert brute_force_Z(m) == pytest.approx(expected, rel=1e-12)

    def test_random_models_vs_enumeration(self, rng):
        for _ in range(15):
            m = random_model(rng)
            bonds = [(b.i, b.j, b.coupling) for b in m.bonds]
            fields = [(f.i, f.field) for f in m.fields]
            expected = enumerate_Z(m.n_spins, bonds, fields)
            assert brute_force_Z(m) == pytest.approx(expected, rel=1e-11)

    def test_zero_coupling_factorizes(self, rng):
        # Z(K=0, H) = prod_i 2 cosh(H_i)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            fields = [(i, random_complex(rng)) for i in range(n)]
            m = from_edge_list(n, [], fields)
            expected = np.prod([2 * cmath.cosh(h) for _, h in fields])
            assert brute_force_Z(m) == pytest.approx(expected, rel=1e-12)

    def test_conjugation_symmetry(self, rng):
        for _ in range(10):
            m = random_model(rng)
            conj = from_edge_list(
                m.n_spins,
                [(b.i, b.j, b.coupling.conjugate()) for b in m.bonds],
                [(f.i, f.field.conjugate()) for f in m.fields],
            )
            assert brute_force_Z(conj) == pytest.approx(
                brute_force_Z(m).conjugate(), rel=1e-12
            )

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_Z(build_chain(25, K=0.1))

    def test_open_chain_across_chunks(self):
        # 2^21 configurations: the sum crosses a chunk boundary of the enumeration
        k = 0.3 - 0.4j
        expected = 2 * (2 * cmath.cosh(k)) ** 20
        assert brute_force_Z(build_chain(21, K=k)) == pytest.approx(expected, rel=1e-12)


class TestCorrelation:
    def test_independent_spins(self):
        m = from_edge_list(3, [])
        assert correlation(m, 0, 2) == 0

    def test_same_site(self):
        m = build_chain(3, K=0.4)
        assert correlation(m, 1, 1) == 1

    def test_adjacent_real_chain_vs_enumeration(self):
        bonds = [(0, 1, 0.37), (1, 2, 0.37), (2, 3, 0.37)]
        m = from_edge_list(4, bonds)
        expected = enumerate_correlation(4, bonds, [], 0, 1)
        assert correlation(m, 0, 1) == pytest.approx(expected, rel=1e-12)

    def test_error_at_partition_zero(self):
        h = 1j * math.pi / 2
        m = from_edge_list(2, [], [(0, h), (1, h)])  # Z = (2 cosh(i pi/2))^2 = 0
        with pytest.raises(IllConditionedError):
            correlation(m, 0, 1)


def full_state_transfer(n, l, kx, ky, h):
    """(log|Z|, arg Z) for one block of points with all 2^n states stored,
    written out step by step: the reference for the transfer's bits."""
    up = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None] & 1) == 0
    ring = (2 * (up == np.roll(up, -1, axis=0)).sum(axis=0) - n).astype(np.float64)
    mag = (2 * up.sum(axis=0) - n).astype(np.float64)
    row_w = np.ascontiguousarray(np.exp(-(kx[:, None] * ring[None, :] + h[:, None] * mag[None, :])).T)
    v = row_w.copy()
    em, ep = np.exp(-ky), np.exp(ky)
    log_acc = np.zeros(kx.size)
    for _ in range(l - 1):
        for site in range(n):
            va = v.reshape(-1, 2, 1 << site, v.shape[1])
            a = va[:, 0].copy()
            b = va[:, 1]
            va[:, 0] = em * a + ep * b
            va[:, 1] = ep * a + em * b
        v *= row_w
        m = np.max(np.abs(v), axis=0)
        v /= np.where(m > 0, m, 1.0)
        log_acc += np.log(m)
    z = np.ascontiguousarray(v.T).sum(axis=1)
    return log_acc + np.log(np.abs(z)), np.angle(z)


def edge_couplings(rng):
    """(Kx, Ky) over one block: complex, real, imaginary and zero couplings,
    +-inf and NaN among them, and a kickH line (Kx fixed, Ky varying)."""
    edge = np.array([0, -0.0, 0.3, -0.3j, complex(-0.3, -0.0), complex(-0.0, -0.0), np.inf,
                     -np.inf, complex(0, np.inf), np.nan, complex(0, np.nan), -8.0])
    kx_edge, ky_edge = (a.ravel() for a in np.meshgrid(edge, edge))
    cplx = rng.normal(0, 0.5, 30) + 1j * rng.normal(0, 0.5, 30)
    real, imag = rng.normal(0, 0.5, 20), 1j * rng.normal(0, 0.5, 20)
    kx = np.concatenate([kx_edge, cplx, real, imag, np.full(20, 0.4 + 0j)]).astype(np.complex128)
    ky = np.concatenate([ky_edge, cplx[::-1], real[::-1], imag[::-1], cplx[:20]]).astype(np.complex128)
    return kx, ky


class TestTransferMatrix:
    def test_zero_coupling_log(self):
        lz = transfer_matrix_Z(4, 3, 0, 0, 0)
        assert lz.log_magnitude == pytest.approx(12 * math.log(2), rel=1e-12)

    def test_single_row_equals_ring(self, rng):
        for _ in range(5):
            k = random_complex(rng)
            ring = build_chain(5, periodic=True, K=k)
            z = brute_force_Z(ring)
            lz = transfer_matrix_Z(5, 1, k, 0.3)  # Ky unused for L=1
            assert value(lz) == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("dims", [(3, 2), (3, 3), (4, 3), (4, 5), (2, 5), (5, 4)])
    def test_matches_brute_force(self, dims, rng):
        n, l = dims
        for _ in range(10):
            kx, ky, h = (random_complex(rng) for _ in range(3))
            m = build_cylinder(n, l, kx, ky, h)
            z = brute_force_Z(m)
            lz = transfer_matrix_Z(n, l, kx, ky, h)
            assert abs(value(lz) - z) <= 1e-10 * abs(z)

    def test_grid_vectorization(self, rng):
        kxs = np.array([random_complex(rng) for _ in range(6)])
        logmag, phase = transfer_matrix_Z_grid(3, 2, kxs, kxs, np.zeros(6))
        for k, lm, ph in zip(kxs, logmag, phase):
            single = transfer_matrix_Z(3, 2, k, k, 0)
            assert lm == pytest.approx(single.log_magnitude, abs=1e-12)
            assert ph == pytest.approx(single.phase, abs=1e-12)

    @staticmethod
    def _random_points(rng, npts):
        # anisotropic, with a field; 600 points span several blocks and a partial last one
        return tuple(rng.normal(0, 0.4, npts) + 1j * rng.normal(0, 0.4, npts) for _ in range(3))

    @pytest.mark.parametrize("dims, zero_blocks", [
        pytest.param((3, 3), False, id="dims0"),
        pytest.param((4, 2), False, id="dims1"),
        pytest.param((4, 2), True, id="dims1-zero_blocks"),
    ])
    def test_points_are_independent(self, dims, zero_blocks, rng):
        n, l = dims
        kx, ky, h = self._random_points(rng, 600)
        if zero_blocks:  # blocks 0 and 2 are field-free, block 1 is not
            h[:256] = h[512:] = 0
        logmag, phase = transfer_matrix_Z_grid(n, l, kx, ky, h)
        for i in range(kx.size):
            lm, ph = transfer_matrix_Z_grid(n, l, kx[i:i + 1], ky[i:i + 1], h[i:i + 1])
            assert lm[0] == logmag[i] and ph[0] == phase[i]
        lm_rev, ph_rev = transfer_matrix_Z_grid(n, l, kx[::-1], ky[::-1], h[::-1])
        assert np.array_equal(lm_rev, logmag[::-1]) and np.array_equal(ph_rev, phase[::-1])

    @pytest.mark.parametrize("dims", [(3, 3), (4, 2)])
    def test_grid_matches_brute_force(self, dims, rng):
        n, l = dims
        kx, ky, h = self._random_points(rng, 600)
        logmag, phase = transfer_matrix_Z_grid(n, l, kx, ky, h)
        for i in range(kx.size):
            z = brute_force_Z(build_cylinder(n, l, kx[i], ky[i], h[i]))
            if abs(z) > 0:
                got = value(LogComplex.from_log(float(logmag[i]), float(phase[i])))
                assert abs(got - z) <= 1e-10 * abs(z)

    @pytest.mark.parametrize("l", [1, 2, 5])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_zero_field_keeps_full_state_bits(self, n, l, rng):
        kx, ky = edge_couplings(rng)
        assert kx.size <= 256  # one block, as the reference contracts
        fields = {"+0": np.zeros(kx.size, complex), "-0": np.full(kx.size, complex(-0.0, -0.0)),
                  "+0-0j": np.full(kx.size, complex(0.0, -0.0)),
                  "random": rng.normal(0, 0.4, kx.size) + 1j * rng.normal(0, 0.4, kx.size)}
        with np.errstate(all="ignore"):
            for name, h in fields.items():
                want = full_state_transfer(n, l, kx, ky, h)
                got = transfer_matrix_Z_grid(n, l, kx, ky, h)
                assert got[0].tobytes() == want[0].tobytes(), name
                assert got[1].tobytes() == want[1].tobytes(), name

    def test_peak_memory_independent_of_point_count(self, rng):
        kx, ky, h = self._random_points(rng, 20_000)
        tracemalloc.start()
        try:
            transfer_matrix_Z_grid(7, 2, kx, ky, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_no_overflow_7x7(self):
        # |Z| ~ e^(|K| * 91) = e^728, beyond double range, still finite in logs
        lz = transfer_matrix_Z(7, 7, -8.0, -8.0, 0)
        assert lz.log_magnitude > 709
        assert math.isfinite(lz.log_magnitude)

    def test_circumference_cap(self):
        with pytest.raises(CapExceededError):
            transfer_matrix_Z(17, 2, 0.1, 0.1)


def _transfer_at_zero_field(n, l, kx, ky):
    with np.errstate(all="ignore"):
        return transfer_matrix_Z_grid(n, l, kx, ky, np.zeros(kx.size))


def _assert_same_z(got, want, tol):
    """Same finiteness of ln|Z| and arg Z, and within tol where both are finite."""
    for g, w in zip(got, want):
        assert np.array_equal(np.isfinite(g), np.isfinite(w))
    ok = np.isfinite(got[0]) & np.isfinite(got[1])
    assert np.abs(got[0][ok] - want[0][ok]).max(initial=0.0) <= tol
    dphase = np.remainder(got[1][ok] - want[1][ok] + np.pi, 2 * np.pi) - np.pi
    assert np.abs(dphase).max(initial=0.0) <= tol


class TestMomentumProduct:
    @pytest.mark.parametrize("l", [1, 2, 5, 7])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_transfer(self, n, l, rng):
        kx, ky = edge_couplings(rng)
        # random complex anisotropic couplings, with Ky = 0 exactly and Ky = 1e-9 among them
        kx2 = rng.normal(0, 0.5, 60) + 1j * rng.normal(0, 0.5, 60)
        ky2 = rng.normal(0, 0.5, 60) + 1j * rng.normal(0, 0.5, 60)
        ky2[:20], ky2[20:40] = 0, 1e-9
        kx, ky = np.concatenate([kx, kx2]), np.concatenate([ky, ky2])
        _assert_same_z(momentum_Z_grid(n, l, kx, ky), _transfer_at_zero_field(n, l, kx, ky), 1e-12)

    def test_blocks_do_not_change_bits(self, rng, monkeypatch):
        kx, ky = edge_couplings(rng)
        whole = momentum_Z_grid(5, 3, kx, ky)
        monkeypatch.setattr(oracle, "_MOMENTUM_BLOCK", 7)  # a partial last block too
        parts = momentum_Z_grid(5, 3, kx, ky)
        for w, p in zip(whole, parts):  # a NaN's sign bit may differ between vector widths
            assert np.array_equal(np.isnan(w), np.isnan(p))
            assert np.where(np.isnan(w), 0, w).tobytes() == np.where(np.isnan(p), 0, p).tobytes()

    @pytest.mark.parametrize("n", [16, 200])
    def test_peak_memory_independent_of_point_count(self, n, rng):
        kx = rng.normal(0, 0.4, 50_000) + 1j * rng.normal(0, 0.4, 50_000)
        tracemalloc.start()
        try:
            momentum_Z_grid(n, 2, kx, kx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 50_000 * 16 + 8 * 2**20  # the outputs and z, plus a few blocks

    def test_kicked_window_against_exact_counts(self, rng):
        # the 7x7 cylinder on the kicked_noise benchmark's 100x100 window: every
        # cell of the 3x3 neighbourhood of each in-window zero, and 200 random cells,
        # against a 50-digit sum of the exact integer g(b); bound fixed at 1e-12
        spec = GridSpec(-0.62, 0.63, -0.80, 0.82, 100, 100)
        dos = density_of_states(build_cylinder(7, 7, -0.2, -0.2))
        zeros = map_roots(polynomial_roots(dos, "fisher"), spec, "K")
        assert len(zeros) >= 20
        cells = set()
        for w in zeros:
            iy, ix = spec.nearest_cell(w)
            cells |= {(y, x) for y in range(iy - 1, iy + 2) for x in range(ix - 1, ix + 2)
                      if 0 <= y < spec.n_im and 0 <= x < spec.n_re}
        cells |= {(int(y), int(x)) for y, x in rng.integers(0, 100, (200, 2))}
        iy, ix = np.array(sorted(cells)).T
        k = spec.mesh()[iy, ix]
        logmag, _ = momentum_Z_grid(7, 7, k, k)

        g = [mpmath.mpf(int(c)) for c in dos.energy_counts]
        with mpmath.workdps(50):
            want = []
            for kk in k:
                kk = mpmath.mpc(kk.real, kk.imag)
                x = mpmath.exp(-2 * kk)
                z = mpmath.exp(kk * dos.bond_count) * mpmath.polyval(g[::-1], x)
                want.append(float(2 * mpmath.log(abs(z))))
        assert np.abs(2 * logmag - np.array(want)).max() <= 1e-12


class TestDensityOfStates:
    def test_two_spin_table(self):
        dos = density_of_states(from_edge_list(2, [(0, 1, 0.5)]))
        assert dos.bond_count == 1
        # aligned configs (m = +-2) sit at E_bond = +1, i.e. b = 1
        assert dos.table[1, 2] == 1 and dos.table[1, 0] == 1
        assert dos.table[0, 1] == 2
        assert int(dos.table.sum()) == 4

    def test_total_is_2_to_n(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            m = build_chain(n, K=0.3, periodic=n > 2 and bool(rng.integers(2)))
            assert int(density_of_states(m).table.sum()) == 2**n

    def test_reconstruction_matches_brute_force(self, rng):
        model = build_cylinder(3, 2, 0.2, 0.2)
        dos = density_of_states(model)
        for _ in range(5):
            k, h = random_complex(rng), random_complex(rng)
            probe = build_cylinder(3, 2, k, k, h)
            z = brute_force_Z(probe)
            # Z = e^{K B} sum_b c_b(H) x^b with x = e^{-2K}
            coeffs = dos.fisher_coefficients(h)
            x = cmath.exp(-2 * k)
            zr = cmath.exp(k * dos.bond_count) * sum(c * x**b for b, c in enumerate(coeffs))
            assert abs(zr - z) <= 1e-10 * abs(z)

    def test_cylinder_transfer_equals_enumeration(self):
        for dims in [(3, 2), (3, 3), (4, 2)]:
            m = build_cylinder(dims[0], dims[1], -0.2, -0.2)
            assert np.array_equal(density_of_states(m).table, _dos_enumerate(m).table)

    @pytest.mark.parametrize("model, dims", TRANSFER_ROUTE_MODELS)
    def test_transfer_route_equals_enumeration(self, model, dims):
        assert cylinder_dims(model) == dims  # so density_of_states takes the transfer route
        assert np.array_equal(density_of_states(model).table, _dos_enumerate(model).table)

    @pytest.mark.parametrize("model", [
        *(build_cylinder(n, n, -0.2, -0.2) for n in range(3, 8)),
        *(model for model, _ in TRANSFER_ROUTE_MODELS),
        build_chain(9, K=0.2),  # enumerated
    ])
    def test_zero_field_fisher_reads_g_of_b_alone(self, model):
        dos = density_of_states(model)
        coeffs = dos.fisher_coefficients(0)
        assert "table" not in vars(dos)  # the (b, v) table was never built
        g = dos.energy_counts
        assert g.dtype == np.uint64
        assert int(g.max()) < 2**53 and sum(map(int, g)) == 2**model.n_spins
        # the same bytes as summing the (b, v) table against z^v = 1
        m = 2.0 * np.arange(dos.n_spins + 1) - dos.n_spins
        expected = dos.table.astype(np.float64) @ np.exp(-0j * m).astype(np.complex128)
        assert coeffs.tobytes() == expected.tobytes()
        assert np.array_equal(g, dos.table.sum(axis=1))

    @pytest.mark.parametrize("model, dims", TRANSFER_ROUTE_MODELS)
    def test_transfer_route_g_of_b_equals_enumeration(self, model, dims):
        assert np.array_equal(density_of_states(model).energy_counts,
                              _dos_enumerate(model).energy_counts)

    def test_g_of_b_past_exact_range_fails(self):
        # 8x8 energy counts pass 2^53, the exact float64 range, as its (b, v) counts do
        dos = density_of_states(build_cylinder(8, 8, -0.2, -0.2))
        with pytest.raises(CapExceededError):
            dos.fisher_coefficients(0)

    def test_exact_counts_with_a_total_past_2_to_53(self):
        # on 3x20 every g(b, v) is below 2^53, but they sum to 2^60, where a float sum rounds
        dos = density_of_states(build_cylinder(3, 20, -0.2, -0.2))
        assert sum(map(int, dos.table.ravel())) == 2**60
        with pytest.raises(CapExceededError):  # some g(b) pass 2^53
            dos.fisher_coefficients(0)

    def test_open_chain_across_chunks(self):
        # 2^21 enumerated configurations; bond alignments and spins are independent
        model = build_chain(21, K=0.2)
        assert cylinder_dims(model) is None  # so density_of_states enumerates
        table = density_of_states(model).table
        assert table.sum(axis=1).tolist() == [2 * math.comb(20, b) for b in range(21)]
        assert table.sum(axis=0).tolist() == [math.comb(21, v) for v in range(22)]

    def test_cylinder_with_a_gained_bond_matches_brute_force(self):
        # a bond outside the cylinder layout makes the model a general graph
        K = -0.3 + 0.2j
        model = with_bond_delta(build_cylinder(3, 2, K, K), 0, 4, K)
        dos = density_of_states(model)
        assert dos.bond_count == 10
        x = cmath.exp(-2 * K)
        z = cmath.exp(K * dos.bond_count) * sum(c * x**b for b, c in enumerate(dos.fisher_coefficients()))
        expected = brute_force_Z(model)
        assert abs(z - expected) <= 1e-10 * abs(expected)

    def test_inhomogeneous_rejected(self):
        m = from_edge_list(3, [(0, 1, 0.2), (1, 2, 0.3)])
        with pytest.raises(ValueError):
            density_of_states(m)
        m2 = from_edge_list(2, [(0, 1, 0.2)], [(0, 0.5)])
        with pytest.raises(ValueError):
            density_of_states(m2)

    def test_polynomial_coefficients_reconstruct(self, rng):
        dos = density_of_states(build_chain(4, K=0.1))
        k, h = random_complex(rng), random_complex(rng)
        coeffs = dos.fisher_coefficients(h)
        x = cmath.exp(-2 * k)
        poly = sum(c * x**b for b, c in enumerate(coeffs))
        z = poly * cmath.exp(k * dos.bond_count)
        expected = brute_force_Z(build_chain(4, K=k, H=h))
        assert z == pytest.approx(expected, rel=1e-10)

