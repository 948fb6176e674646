import cmath
import math

import numpy as np
import pytest

from conftest import random_complex, random_model
from kick_reference import ky_for_kick_field
from pfzeros.circuits import (
    Circuit,
    Gate,
    QubitRole,
    _block_angles,
    compile_general,
    compile_kicked,
    kick_field_for_ky,
    kicked_log_factor,
    resource_counts,
    ring_pairs,
)
from pfzeros.model import build_cylinder, from_edge_list, with_uniform_weights
from pfzeros.statevector import _apply, _operands


class TestGadgetParams:
    """_block_angles(c) = (c^I, kappa, kappa'): the one angle rule of every block."""

    def test_coupling_zero(self):
        assert _block_angles(0j) == (0.0, 0.0, 0.0)

    def test_coupling_ln2_half(self):
        theta, kappa, partner = _block_angles(complex(math.log(2) / 2, 0.3))
        assert theta == 0.3
        assert kappa == pytest.approx(math.pi / 6)  # cos(2k) = 1/2
        assert partner == pytest.approx(math.pi / 6)

    def test_coupling_sign_rule(self):
        _, kappa, partner = _block_angles(complex(-math.log(2) / 2))
        assert kappa == pytest.approx(math.pi / 6)
        assert partner == pytest.approx(-math.pi / 6)

    def test_field_zero(self):
        _, lam, mu = _block_angles(0j)
        assert lam == 0 and mu == 0

    def test_field_strength(self):
        _, lam, _ = _block_angles(complex(math.log(2) / 2))
        assert lam == pytest.approx(math.pi / 6)

    def test_strength_range(self, rng):
        for _ in range(50):
            x = float(rng.normal(0, 2))
            _, kappa, _ = _block_angles(complex(x))
            assert 0 <= kappa < math.pi / 4
            # the block's log weight |c^R| joins log_prefactor, after N ln 2
            circ = compile_general(from_edge_list(2, [(0, 1, x)]))
            assert circ.log_prefactor == 2 * math.log(2) + abs(x)

    def test_coupling_gadget_algebra(self, rng):
        # e^{|K^R|} cos(kappa s_i + kappa' s_j) == e^{-K^R s_i s_j} on all 4 configs
        for _ in range(25):
            kr = float(rng.normal(0, 1))
            _, kappa, partner = _block_angles(complex(kr))
            for si in (1, -1):
                for sj in (1, -1):
                    got = math.exp(abs(kr)) * math.cos(kappa * si + partner * sj)
                    assert got == pytest.approx(math.exp(-kr * si * sj), abs=1e-12)

    def test_field_gadget_algebra(self, rng):
        # e^{|H^R|} cos(lambda s + mu) == e^{-H^R s}; pins the mu sign choice
        for _ in range(25):
            hr = float(rng.normal(0, 1))
            _, lam, mu = _block_angles(complex(hr))
            for s in (1, -1):
                got = math.exp(abs(hr)) * math.cos(lam * s + mu)
                assert got == pytest.approx(math.exp(-hr * s), abs=1e-12)

    def test_coupling_gadget_eight_amplitude_check(self, rng):
        # full statevector check: project the ancilla of the two-gate block
        for _ in range(10):
            kr = float(rng.normal(0, 0.8))
            _, kappa, partner = _block_angles(complex(kr))
            for si_bit in (0, 1):
                for sj_bit in (0, 1):
                    amp = np.zeros(8, dtype=np.complex128)
                    idx = si_bit | (sj_bit << 1)
                    amp[idx] = 1 / math.sqrt(2)  # ancilla (qubit 2) in |+>
                    amp[idx | 4] = 1 / math.sqrt(2)
                    ops = _operands(["zz", "zz"], np.array([[kappa], [partner]]))
                    _apply(amp, 3, "zz", (0, 2), ops[0])
                    _apply(amp, 3, "zz", (1, 2), ops[1])
                    # <+|_a projection
                    proj = (amp[idx] + amp[idx | 4]) / math.sqrt(2)
                    si, sj = 1 - 2 * si_bit, 1 - 2 * sj_bit
                    expected = math.exp(-kr * si * sj) * math.exp(-abs(kr))
                    assert abs(proj - expected) < 1e-12


class TestCompileGeneral:
    def test_3x3_resource_counts(self):
        circ = compile_general(build_cylinder(3, 3, -0.3, -0.3))
        rc = resource_counts(circ)
        assert rc == resource_counts(circ)
        assert (rc.n_physical, rc.n_ancilla_x, rc.n_ancilla_z, rc.n_gates) == (9, 15, 0, 45)
        assert rc.n_qubits == 24  # 3NL - N

    def test_single_spin_field_only(self):
        m = from_edge_list(1, [], [(0, 0.2 + 0.1j)])
        circ = compile_general(m)
        assert circ.n_qubits == 2
        assert len(circ.gates) == 3  # zrot + two-gate gadget

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_count_formulas(self, n, l):
        circ = compile_general(build_cylinder(n, l, -0.2 + 0.1j, 0.3j))
        assert circ.n_qubits == 3 * n * l - n
        assert len(circ.gates) == 6 * n * l - 3 * n

    def test_log_prefactor(self):
        m = from_edge_list(2, [(0, 1, 0.5 - 0.2j)], [(0, -0.3 + 1j), (1, 0.1)])
        circ = compile_general(m)
        expected = 2 * math.log(2) + 0.5 + 0.3 + 0.1
        assert circ.log_prefactor == pytest.approx(expected)

    def test_single_use_ancilla_invariant(self):
        circ = compile_general(build_cylinder(4, 2, 0.2j, -0.4, 0.15))
        circ.validate()
        usage = circ.ancilla_usage()
        ancillas = [q for q, r in enumerate(circ.roles) if r is not QubitRole.PHYSICAL]
        assert sorted(usage) == ancillas

    def test_ancillas_allocated_even_for_zero_real_part(self):
        m = from_edge_list(2, [(0, 1, 0.7j)])
        assert resource_counts(compile_general(m)).n_ancilla_x == 1


def _signed_zero_models():
    """Models whose weights have +-0.0 real or imaginary parts, or are exactly zero."""
    z = (0.0, -0.0)
    weights = [complex(re, im) for re in z for im in z]
    weights += [complex(re, 0.4) for re in z] + [complex(-0.3, im) for im in z]
    n = len(weights)
    ring = [(i, (i + 1) % n, w) for i, w in enumerate(weights)]
    fields = [(i, w) for i, w in enumerate(reversed(weights))]
    return [from_edge_list(n, ring, fields), from_edge_list(2, [(1, 0, 0.3 - 0.2j)], [(1, 0j)])]


def _structure(circ):
    return circ.roles, tuple((g.kind, g.qubits) for g in circ.gates), circ.gadgets


class TestGeneralTemplate:
    def test_uniform_weights_compile_to_one_structure_per_field_presence(self, rng):
        # the circuit evaluator's template key: with one skeleton's bonds, the structure
        # depends only on whether the field is nonzero (signed zeros and zero real parts too)
        def weight():
            return complex(rng.choice([0.0, -0.0, rng.normal(0, 0.5)]),
                           rng.choice([0.0, -0.0, rng.normal(0, 0.5)]))

        for skeleton in [random_model(rng, n_max=5) for _ in range(20)] + _signed_zero_models():
            compiled = {}
            for _ in range(6):
                coupling, field = weight(), weight()
                circ = compile_general(with_uniform_weights(skeleton, coupling, field))
                structure = _structure(circ)
                assert compiled.setdefault(field != 0, structure) == structure
                assert circ.n_physical == skeleton.n_spins
                assert len(circ.gadgets) == len(skeleton.bonds) + (field != 0) * skeleton.n_spins


class TestCompileKicked:
    def test_3x3_counts(self):
        circ = compile_kicked(3, 3, -0.2 + 0.1j, 0.4 - 0.2j)
        rc = resource_counts(circ)
        assert (rc.n_physical, rc.n_ancilla_x, rc.n_ancilla_z, rc.n_gates) == (3, 9, 6, 45)
        assert rc.n_qubits == 18  # 2NL

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_count_formulas(self, n, l):
        circ = compile_kicked(n, l, 0.2 - 0.3j, 0.5 + 0.1j)
        assert circ.n_qubits == 2 * n * l
        assert len(circ.gates) == 6 * n * l - 3 * n

    def test_single_layer_has_no_transverse(self):
        circ = compile_kicked(4, 1, 0.3, 0.7)
        rc = resource_counts(circ)
        assert rc.n_ancilla_z == 0
        assert rc.n_ancilla_x == 4

    def test_ring_of_two(self):
        assert ring_pairs(2) == [(0, 1), (1, 0)]
        circ = compile_kicked(2, 2, 0.3, 0.5)
        assert circ.n_qubits == 8 and len(circ.gates) == 18

    def test_log_prefactor(self):
        k, h = 0.4 - 0.1j, -0.3 + 0.2j
        circ = compile_kicked(3, 3, k, h)
        assert circ.log_prefactor == pytest.approx(9 * 0.4 + 6 * 0.3)

    def test_probes_validate(self):
        circ = compile_kicked(3, 2, 0.2, 0.5, coupling_probes=((0, 2, 1, 0.01),),
                              field_probes=((1, 0, 0.02j),))
        circ.validate()
        base = compile_kicked(3, 2, 0.2, 0.5)
        assert len(circ.gadgets) == len(base.gadgets) + 2

    def test_probe_range_check(self):
        with pytest.raises(ValueError):
            compile_kicked(3, 2, 0.2, 0.5, coupling_probes=((0, 0, 0, 0.01),))
        with pytest.raises(ValueError):
            compile_kicked(3, 2, 0.2, 0.5, field_probes=((0, 5, 0.01),))


class TestKickFieldMaps:
    def test_branch_points_rejected(self):
        with pytest.raises(ValueError):
            kick_field_for_ky(0.0)  # -e^{2Ky} = -1

    def test_exact_map_round_trip(self, rng):
        for _ in range(20):
            ky = random_complex(rng, 0.5) - 0.3
            h = kick_field_for_ky(ky)
            back = ky_for_kick_field(h)
            assert cmath.exp(-2 * back) == pytest.approx(cmath.exp(-2 * ky), rel=1e-12)

    def test_real_kick_field_takes_the_field_planes_branch(self):
        # Ky = ln(-tanh H)/2: for real H > 0 the log of -tanh H + (-0)i sits on the
        # -i pi/2 branch, as KickedFieldPlaneEvaluator's np.log(-np.tanh(H)) / 2
        for h in (0.2, 0.7, 1.5):
            ky = ky_for_kick_field(h)
            assert ky == pytest.approx(np.log(-np.tanh(complex(h))) / 2, rel=1e-14)
            assert ky.imag == pytest.approx(-math.pi / 2)

    def test_kicked_log_factor_singular(self):
        with pytest.raises(ValueError):
            kicked_log_factor(3, 2, 0.0)


class TestCircuitValidation:
    def test_empty_circuit_counts(self):
        circ = Circuit((), (), 0.0, ())
        rc = resource_counts(circ)
        assert (rc.n_physical, rc.n_ancilla_x, rc.n_ancilla_z, rc.n_gates) == (0, 0, 0, 0)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("zz", (1, 1), 0.2)
        with pytest.raises(ValueError):
            Gate("zrot", (0, 1), 0.2)
        with pytest.raises(ValueError):
            Gate("swap", (0, 1), 0.2)

    def test_ancilla_outside_gadget_rejected(self):
        roles = (QubitRole.PHYSICAL, QubitRole.ANCILLA_X)
        gates = (Gate("zz", (0, 1), 0.1),)
        with pytest.raises(AssertionError):
            Circuit(roles, gates, 0.0, ()).validate()
