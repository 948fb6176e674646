import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_gadget_circuit, random_model
from kick_reference import ky_for_kick_field
from pfzeros import statevector
from pfzeros.circuits import (
    Circuit,
    Gate,
    QubitRole,
    compile_general,
    compile_kicked,
    kicked_log_factor,
)
from pfzeros.errors import CapExceededError
from pfzeros.model import build_chain, build_cylinder, from_edge_list
from pfzeros.oracle import brute_force_Z, transfer_matrix_Z
from pfzeros.statevector import (
    _INIT_AMPLITUDES,
    _apply,
    _axis_view,
    _evolve_full,
    _gate_angles,
    _hadamard,
    _operands,
    _overlaps,
    _product_support,
    final_state,
    measurement_basis,
    run_effective,
    run_full,
    run_streamed,
    sample_shots,
)

PHYS = QubitRole.PHYSICAL
ANC_X = QubitRole.ANCILLA_X
ANC_Z = QubitRole.ANCILLA_Z


def plus_state(n):
    return final_state(Circuit((PHYS,) * n, (), 0.0, ()))


def apply(amp, n, gate):
    """One gate on the amplitudes of one point, in place."""
    _apply(amp, n, gate.kind, gate.qubits, _operands([gate.kind], np.array([[gate.angle]]))[0])


def norm_squared(amp):
    return float(np.vdot(amp, amp).real)


class TestGates:
    def test_zrot_on_plus_overlap(self, rng):
        for _ in range(10):
            h = float(rng.normal(0, 1.2))
            overlap = run_full(Circuit((PHYS,), (Gate("zrot", (0,), h),), 0.0, ())).amplitude
            assert overlap == pytest.approx(math.cos(h), abs=1e-14)

    def test_zz_inverse(self, rng):
        amp = plus_state(3)
        for q in range(3):
            apply(amp, 3, Gate("zrot", (q,), float(rng.normal())))
        before = amp.copy()
        apply(amp, 3, Gate("zz", (0, 2), 0.7))
        apply(amp, 3, Gate("zz", (0, 2), -0.7))
        assert np.max(np.abs(amp - before)) < 1e-14

    def test_xrot_equals_hadamard_conjugated_zrot(self, rng):
        for _ in range(10):
            h = float(rng.normal(0, 1.0))
            amp = rng.normal(size=8) + 1j * rng.normal(size=8)
            amp /= np.linalg.norm(amp)
            direct = amp.copy()
            apply(direct, 3, Gate("xrot", (1,), h))
            conj = amp.copy()
            _hadamard(conj, 3, 1)
            apply(conj, 3, Gate("zrot", (1,), h))
            _hadamard(conj, 3, 1)
            assert np.max(np.abs(direct - conj)) < 1e-13

    def test_xx_equals_hadamard_conjugated_zz(self, rng):
        for _ in range(10):
            th = float(rng.normal(0, 1.0))
            amp = rng.normal(size=16) + 1j * rng.normal(size=16)
            amp /= np.linalg.norm(amp)
            direct = amp.copy()
            apply(direct, 4, Gate("xx", (0, 3), th))
            conj = amp.copy()
            for q in (0, 3):
                _hadamard(conj, 4, q)
            apply(conj, 4, Gate("zz", (0, 3), th))
            for q in (0, 3):
                _hadamard(conj, 4, q)
            assert np.max(np.abs(direct - conj)) < 1e-13

    def test_unitarity_per_circuit(self, rng):
        for _ in range(10):
            circ = random_gadget_circuit(rng, max_qubits=10)
            assert norm_squared(final_state(circ)) == pytest.approx(1.0, abs=1e-10)

    def test_gate_index_out_of_range(self):
        amp = plus_state(2)
        with pytest.raises(ValueError):
            apply(amp, 2, Gate("zrot", (5,), 0.1))

    @pytest.mark.parametrize("shape", [(32,), (32, 3)], ids=["one-point", "three-points"])
    def test_axis_view_is_the_moveaxis_view(self, shape):
        # every ordered tuple of distinct qubits of a 5-qubit register
        amp = np.arange(math.prod(shape), dtype=np.complex128).reshape(shape)
        a = amp.reshape((2,) * 5 + (-1,))
        for k in range(1, 6):
            for qubits in itertools.permutations(range(5), k):
                got = _axis_view(amp, 5, qubits)
                want = np.moveaxis(a, [4 - q for q in qubits], range(k))
                assert got.shape == want.shape and got.strides == want.strides
                assert got.ctypes.data == want.ctypes.data == amp.ctypes.data


class TestProductState:
    def test_initial_norms_and_overlap(self):
        circ = Circuit((PHYS, QubitRole.ANCILLA_X, QubitRole.ANCILLA_Z), (), 0.0, ())
        assert norm_squared(final_state(circ)) == pytest.approx(1.0)
        assert run_full(circ).amplitude == pytest.approx(1.0)

    def test_ancilla_z_starts_up(self):
        amp = final_state(Circuit((PHYS, QubitRole.ANCILLA_Z), (), 0.0, ()))
        # qubit 1 (bit 1) must be |0> = spin up
        assert np.allclose(amp[2:], 0)


class TestRunBackends:
    def test_empty_circuit(self):
        circ = Circuit((PHYS, PHYS), (), 0.0, ())
        assert run_full(circ).probability == pytest.approx(1.0)
        assert run_streamed(circ).probability == pytest.approx(1.0)

    def test_general_identity_small_models(self, rng):
        for _ in range(8):
            m = random_model(rng, n_max=5)
            circ = compile_general(m)
            res = run_full(circ)
            z2 = abs(brute_force_Z(m)) ** 2
            got = math.exp(2 * circ.log_prefactor) * res.probability
            assert got == pytest.approx(z2, rel=1e-10)

    def test_streamed_equals_full_random_circuits(self, rng):
        for _ in range(25):
            circ = random_gadget_circuit(rng, max_qubits=12)
            a = run_full(circ).amplitude
            b = run_streamed(circ).amplitude
            assert abs(a - b) < 1e-12

    def test_streamed_equals_full_compiled(self, rng):
        m = build_cylinder(3, 2, random_complex(rng), random_complex(rng), random_complex(rng))
        circ = compile_general(m)
        assert abs(run_full(circ).amplitude - run_streamed(circ).amplitude) < 1e-12

    def test_streamed_zero_gadget_circuit(self, rng):
        gates = tuple(Gate("zrot", (q,), float(rng.normal())) for q in range(3))
        circ = Circuit((PHYS,) * 3, gates, 0.0, ())
        assert abs(run_full(circ).amplitude - run_streamed(circ).amplitude) < 1e-15

    def test_streamed_handles_kicked_3x7(self):
        # 45 qubits total: far beyond the full-register cap, fine streamed
        k, h = -0.18 + 0.21j, 0.52 - 0.33j
        circ = compile_kicked(3, 7, k, h)
        assert circ.n_qubits == 42
        with pytest.raises(CapExceededError):
            run_full(circ)
        res = run_streamed(circ)
        log_p = 2 * (math.log(abs(res.amplitude)) + circ.log_prefactor)
        ky = ky_for_kick_field(h)
        predicted = kicked_log_factor(3, 7, h) + 2 * transfer_matrix_Z(3, 7, k, ky).log_magnitude
        assert abs(math.expm1(predicted - log_p)) < 1e-10

    def test_effective_trivial(self):
        m = build_chain(4, K=0)
        assert run_effective(m).probability == pytest.approx(1.0)

    def test_effective_matches_brute_force(self, rng):
        for _ in range(10):
            m = random_model(rng, n_max=8)
            amp = run_effective(m).amplitude
            z = brute_force_Z(m)
            assert abs(amp * 2**m.n_spins - z) <= 1e-12 * abs(z)

    def test_effective_matches_streamed_after_prefactor(self, rng):
        m = random_model(rng, n_max=5)
        circ = compile_general(m)
        streamed = run_streamed(circ)
        eff = run_effective(m)
        lhs = math.exp(2 * circ.log_prefactor) * streamed.probability
        rhs = (2 ** (2 * m.n_spins)) * eff.probability
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_memory_cap(self):
        circ = Circuit((PHYS,) * 27, (), 0.0, ())
        with pytest.raises(CapExceededError):
            run_full(circ)

    def test_streamed_register_cap(self):
        # 26 physical qubits plus the ancilla workspace pass the cap of 26
        with pytest.raises(CapExceededError):
            run_streamed(Circuit((PHYS,) * 26, (), 0.0, ()))
        assert run_streamed(Circuit((PHYS,) * 3, (), 0.0, ())).probability == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", [run_full, run_streamed])
    def test_batched_angles_match_single_circuits(self, rng, backend):
        # one structure, per-point angles: each point equals its own circuit, bit for bit
        bonds = [(0, 1), (1, 2), (0, 2)]
        circuits = [
            compile_general(from_edge_list(
                3, [(i, j, random_complex(rng, 0.6)) for i, j in bonds],
                [(i, random_complex(rng, 0.4)) for i in range(3)]))
            for _ in range(7)
        ]
        angles = np.array([[g.angle for g in c.gates] for c in circuits]).T
        batch = backend(circuits[0], angles=angles)
        assert [r.amplitude for r in batch] == [backend(c).amplitude for c in circuits]
        with pytest.raises(ValueError):
            backend(circuits[0], angles=angles[1:])


class TestSampling:
    def test_measurement_basis_roles(self):
        roles = (PHYS, QubitRole.ANCILLA_X, QubitRole.ANCILLA_Z)
        assert measurement_basis(roles) == ("x", "x", "z")

    def test_certain_success(self):
        circ = Circuit((PHYS, PHYS), (), 0.0, ())
        count, lhat = sample_shots(circ, 500, seed=3)
        assert count == 500 and lhat == 1.0

    def test_certain_failure_at_exact_zero(self):
        # 1 spin at H = i pi/2: Z = 0, so the all-plus outcome never occurs
        m = from_edge_list(1, [], [(0, 1j * math.pi / 2)])
        circ = compile_general(m)
        count, lhat = sample_shots(circ, 400, seed=5)
        assert count == 0 and lhat == 0.0

    def test_seed_determinism(self):
        m = from_edge_list(2, [(0, 1, 0.3 + 0.2j)])
        circ = compile_general(m)
        a = sample_shots(circ, 1000, seed=42)
        b = sample_shots(circ, 1000, seed=42)
        assert a == b
        c = sample_shots(circ, 1000, seed=43)
        assert a != c

    def test_binomial_statistics(self):
        m = from_edge_list(2, [(0, 1, 0.25 + 0.4j)])
        circ = compile_general(m)
        true_l = run_full(circ).probability
        n, trials = 2000, 300
        estimates = [sample_shots(circ, n, seed=(9, t))[1] for t in range(trials)]
        se = math.sqrt(true_l * (1 - true_l) / (n * trials))
        assert abs(np.mean(estimates) - true_l) <= 5 * se

    def test_shot_count_validation(self):
        circ = Circuit((PHYS,), (), 0.0, ())
        with pytest.raises(ValueError):
            sample_shots(circ, 0, seed=1)


def frozen_rotate(x, phase, single):
    if single:
        re = x.real * phase.real - x.imag * phase.imag
        x.imag = x.real * phase.imag + x.imag * phase.real
        x.real = re
    else:
        x *= phase


def frozen_apply(amp, n, kind, qubits, th):
    """The gate kernel as it was before growing registers and phase tables,
    kept as the reference: one gate of an n-qubit circuit on amp[state, point],
    its phases computed per gate."""
    m = amp.shape[0].bit_length() - 1
    v = np.moveaxis(amp.reshape((2,) * m + (-1,)), [m - 1 - q for q in qubits],
                    range(len(qubits)))
    single = len(qubits) == n
    if kind == "zz":
        pm, pp = np.exp(-1j * th), np.exp(1j * th)
        frozen_rotate(v[0, 0], pm, single)
        frozen_rotate(v[1, 1], pm, single)
        frozen_rotate(v[0, 1], pp, single)
        frozen_rotate(v[1, 0], pp, single)
    elif kind == "zrot":
        frozen_rotate(v[0], np.exp(-1j * th), single)
        frozen_rotate(v[1], np.exp(1j * th), single)
    elif kind == "xx":
        c, s = np.cos(th), np.sin(th)
        n00 = c * v[0, 0] - 1j * s * v[1, 1]
        n11 = c * v[1, 1] - 1j * s * v[0, 0]
        n01 = c * v[0, 1] - 1j * s * v[1, 0]
        n10 = c * v[1, 0] - 1j * s * v[0, 1]
        v[0, 0], v[1, 1], v[0, 1], v[1, 0] = n00, n11, n01, n10
    else:
        c, s = np.cos(th), np.sin(th)
        n0 = c * v[0] - 1j * s * v[1]
        n1 = c * v[1] - 1j * s * v[0]
        v[0], v[1] = n0, n1


def product_amplitudes(roles, n_points):
    """amp[state, point] of the product initial state at every point."""
    sel, value = _product_support(roles)
    amp = np.zeros((1 << len(roles), n_points), dtype=np.complex128)
    amp.reshape((2,) * len(roles) + (n_points,))[sel] = value
    return amp


def whole_register(circuit, angles=None):
    """Reference evolution: every gate acts on all n qubits from the start."""
    th = _gate_angles(circuit, angles)
    amp = product_amplitudes(circuit.roles, th.shape[1])
    for gate, angle in zip(circuit.gates, th):
        frozen_apply(amp, circuit.n_qubits, gate.kind, gate.qubits, angle)
    return amp


def whole_register_streamed(circuit, angles=None):
    """Reference streamed loop: every gate outside a gadget acts on the whole
    physical register, and every gadget on it and its ancilla as the top bit."""
    th = _gate_angles(circuit, angles)
    n_phys = circuit.n_physical
    phys_roles = circuit.roles[:n_phys]
    amp = product_amplitudes(phys_roles, th.shape[1])
    half = 1 << n_phys
    ext = np.empty((2 * half, th.shape[1]), dtype=np.complex128)
    span_of = {g.span[0]: g for g in circuit.gadgets}
    idx = 0
    while idx < len(circuit.gates):
        gadget = span_of.get(idx)
        if gadget is None:
            frozen_apply(amp, n_phys, circuit.gates[idx].kind, circuit.gates[idx].qubits, th[idx])
            idx += 1
            continue
        c0, c1 = _INIT_AMPLITUDES[circuit.roles[gadget.ancilla]]
        ext[:half] = c0 * amp
        ext[half:] = c1 * amp
        for k in range(*gadget.span):
            qubits = tuple(n_phys if q == gadget.ancilla else q for q in circuit.gates[k].qubits)
            frozen_apply(ext, n_phys + 1, circuit.gates[k].kind, qubits, th[k])
        amp = np.conj(c0) * ext[:half] + np.conj(c1) * ext[half:]
        idx = gadget.span[1]
    return _overlaps(amp, phys_roles)


def perturbed_angles(rng, circuit, n_points):
    """(gates, points) angles around the circuit's own, some past pi/2 in size."""
    own = np.array([[g.angle] for g in circuit.gates])
    return own + rng.normal(0, 1.2, size=(len(circuit.gates), n_points))


def assert_grown_equals_whole(circuit, angles=None):
    whole = whole_register(circuit, angles)
    assert _evolve_full(circuit, angles).tobytes() == whole.tobytes()
    if angles is None:
        assert final_state(circuit).tobytes() == whole.reshape(-1).tobytes()
        amplitudes = [run_full(circuit).amplitude]
    else:
        amplitudes = [r.amplitude for r in run_full(circuit, angles)]
    assert np.array(amplitudes).tobytes() == np.array(_overlaps(whole, circuit.roles)).tobytes()
    # each point of a batch sums as a one-point register does
    one_point = [_overlaps(whole[:, p:p + 1].copy(), circuit.roles)[0] for p in range(whole.shape[1])]
    assert np.array(amplitudes).tobytes() == np.array(one_point).tobytes()


def assert_streamed_equals_whole(circuit, angles=None):
    want = np.array(whole_register_streamed(circuit, angles))
    got = run_streamed(circuit, angles)
    got = np.array([got.amplitude] if angles is None else [r.amplitude for r in got])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**64 - 1), n_points=st.integers(1, 20))
def test_backends_equal_frozen_references_property(seed, n_points):
    # full registers of up to 11 qubits straddle the amplitude budget at these batch
    # sizes, so both the gathered phase tables and the per-parity passes are checked
    rng = np.random.default_rng(seed)
    circ = random_gadget_circuit(rng, max_qubits=11)
    angles = perturbed_angles(rng, circ, n_points)
    assert_grown_equals_whole(circ, angles)
    assert_streamed_equals_whole(circ, angles)


class TestGrowingRegister:
    """_evolve_full grows its register as gates first touch qubits; its bytes
    equal the whole-register loop's, signs of zero included."""

    def test_general_circuits(self, rng):
        models = [build_chain(5, K=random_complex(rng), H=random_complex(rng)) for _ in range(3)]
        models += [build_cylinder(3, 1, random_complex(rng), random_complex(rng), random_complex(rng)),
                   build_cylinder(2, 2, random_complex(rng), random_complex(rng), random_complex(rng))]
        models += [random_model(rng, n_max=5) for _ in range(6)]
        for m in models:
            circ = compile_general(m)
            assert_grown_equals_whole(circ)
            assert_grown_equals_whole(circ, perturbed_angles(rng, circ, 4))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_kicked_circuits(self, rng, dims):
        circ = compile_kicked(*dims, random_complex(rng), random_complex(rng))
        assert ANC_Z in circ.roles
        assert_grown_equals_whole(circ)
        assert_grown_equals_whole(circ, perturbed_angles(rng, circ, 3))

    def test_random_gadget_circuits(self, rng):
        # x and z ancillas, xx/xrot gates on physical qubits, z ancillas left unflipped
        for _ in range(30):
            circ = random_gadget_circuit(rng, max_qubits=11)
            angles = perturbed_angles(rng, circ, 3)
            assert_grown_equals_whole(circ)
            assert_grown_equals_whole(circ, angles)
            assert_streamed_equals_whole(circ)
            assert_streamed_equals_whole(circ, angles)

    def test_high_ancilla_touched_first(self, rng):
        # gates reach ancillas 3 and 6 before any gate touches qubits 1, 2, 4 and 5
        roles = (PHYS, PHYS, ANC_Z, ANC_X, ANC_Z, ANC_X, ANC_Z)
        gates = (Gate("zz", (0, 3), 2.4), Gate("zrot", (0,), 2.9), Gate("xx", (0, 6), 2.2),
                 Gate("xrot", (6,), 0.7), Gate("zz", (4, 1), -2.0), Gate("xx", (2, 1), 0.4),
                 Gate("zz", (5, 0), 0.9))
        circ = Circuit(roles, gates, 0.0, ())
        assert_grown_equals_whole(circ)
        assert_grown_equals_whole(circ, perturbed_angles(rng, circ, 5))

    def test_exact_zero_overlap_keeps_signed_zeros(self):
        # The first transverse layer rotates each z ancilla by a, then pi/2 - a with cos and
        # sin swapped exactly: on the untouched |+> ring its projection is exactly 0, so the
        # overlap is 0.  The later layers' angles pass pi/2, and their gates turn the zeros
        # under the still untouched z ancillas into -0, which later z ancillas inherit.
        a = next(a for a in np.linspace(0.05, 1.5, 20001)
                 if np.cos(np.pi / 2 - a) == np.sin(a) and np.sin(np.pi / 2 - a) == np.cos(a))
        circ = compile_kicked(2, 3, 0.3 + 2.0j, 0.4 - 2.5j)
        z_first = {q for q, r in enumerate(circ.roles) if r is ANC_Z}
        layer_end = max(g.span[1] for g in circ.gadgets if g.ancilla in sorted(z_first)[:2])
        angles = []
        for k, gate in enumerate(circ.gates):
            if k >= layer_end:
                angles.append(gate.angle)
            elif not z_first.intersection(gate.qubits):
                angles.append(0.0)
            else:
                angles.append(a if gate.kind == "xx" else np.pi / 2 - a)
        angles = np.array(angles)[:, None]
        whole = whole_register(circ, angles)
        values = whole.view(np.float64)
        assert np.signbit(values[values == 0]).any()
        assert run_full(circ, angles)[0].amplitude == 0
        assert run_streamed(circ, angles)[0].amplitude == 0
        assert_grown_equals_whole(circ, angles)
        assert_streamed_equals_whole(circ, angles)
        one = Circuit(circ.roles, tuple(Gate(g.kind, g.qubits, float(t))
                                        for g, t in zip(circ.gates, angles[:, 0])),
                      0.0, circ.gadgets)
        assert_grown_equals_whole(one)

    def test_out_of_range_qubit_raises_before_growth(self):
        for bad in (5, -1):
            circ = Circuit((PHYS, PHYS), (Gate("zrot", (0,), 0.1), Gate("zz", (1, bad), 0.2)),
                           0.0, ())
            with pytest.raises(ValueError, match=f"gate qubit {bad} out of range for 2 qubits"):
                run_full(circ)

    @staticmethod
    def _sixteen_qubit_circuit():
        # 6 spins, 5 bonds, 5 fields: 16 qubits
        m = from_edge_list(6, [(i, i + 1, 0.3 - 0.4j) for i in range(5)],
                           [(i, -0.2 + 0.5j) for i in range(5)])
        circ = compile_general(m)
        assert circ.n_qubits == 16
        return circ

    def test_peak_allocation_is_one_register(self):
        # numpy's ufunc buffers add up to 256 KiB
        circ = self._sixteen_qubit_circuit()
        tracemalloc.start()
        try:
            run_full(circ)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(CapExceededError):
                run_full(Circuit((PHYS,) * 27, (Gate("zrot", (0,), 0.1),), 0.0, ()))
            cap_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**16 + 2**19
        assert cap_peak < 2**16

    def test_batched_peak_is_one_register_and_one_row(self, rng):
        # the overlap copies one point's row at a time, not the whole register
        circ = self._sixteen_qubit_circuit()
        angles = perturbed_angles(rng, circ, 4)
        tracemalloc.start()
        try:
            run_full(circ, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**16 * 4 + 16 * 2**16 + 2**19


class TestGrowthRule:
    """run_full grows the register of a circuit without |up> ancillas and
    gives a circuit with one the whole register from its first gate."""

    @staticmethod
    def _rows_per_gate(monkeypatch, circuit):
        rows = []
        apply = statevector._apply

        def recording(amp, *args):
            rows.append(amp.shape[0])
            apply(amp, *args)

        monkeypatch.setattr(statevector, "_apply", recording)
        run_full(circuit)
        assert len(rows) == len(circuit.gates)
        return rows

    def test_general_circuit_starts_small(self, monkeypatch):
        circ = compile_general(build_cylinder(3, 2, -0.2 + 0.3j, 0.1 - 0.4j, 0.2 + 0.1j))
        assert self._rows_per_gate(monkeypatch, circ)[0] < 1 << circ.n_qubits

    def test_kicked_circuit_runs_on_the_whole_register(self, monkeypatch):
        circ = compile_kicked(2, 2, -0.2 + 0.3j, 0.4 - 0.5j)
        assert ANC_Z in circ.roles
        rows = self._rows_per_gate(monkeypatch, circ)
        assert rows == [1 << circ.n_qubits] * len(circ.gates)


def _streamed_models(rng):
    k, h = random_complex(rng), random_complex(rng)
    return {
        "3x3": build_cylinder(3, 3, k, random_complex(rng)),
        "3x2-fields": build_cylinder(3, 2, k, random_complex(rng), h),
        "chain-1": build_chain(1, H=h),  # its zrot and gadget gates span whole registers
        "2-spin": from_edge_list(2, [(0, 1, k)]),
        "2-spin-fields": from_edge_list(2, [(0, 1, k)], [(0, h), (1, h)]),
        "zero-fields": from_edge_list(4, [(0, 1, k), (1, 3, -k), (2, 3, 0.5j)],
                                      [(i, 0j) for i in range(4)]),
        "imaginary-fields": build_chain(4, K=k, H=1j * h.imag),
    }


class TestGrowingStreamedRegister:
    """run_streamed grows its physical register as gates first touch qubits;
    its amplitudes equal the whole-register streamed loop's, byte for byte."""

    @pytest.mark.parametrize("name", ["3x3", "3x2-fields", "chain-1", "2-spin", "2-spin-fields",
                                      "zero-fields", "imaginary-fields"])
    @pytest.mark.parametrize("n_points", [None, 1, 7, 16])
    def test_general_circuits(self, rng, name, n_points):
        circ = compile_general(_streamed_models(rng)[name])
        angles = None if n_points is None else perturbed_angles(rng, circ, n_points)
        assert_streamed_equals_whole(circ, angles)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
    @pytest.mark.parametrize("n_points", [None, 1, 7, 16])
    def test_kicked_circuits(self, rng, dims, n_points):
        # the |up> ancillas of the transverse layers make +-0 blocks
        circ = compile_kicked(*dims, random_complex(rng), random_complex(rng))
        angles = None if n_points is None else perturbed_angles(rng, circ, n_points)
        assert_streamed_equals_whole(circ, angles)
