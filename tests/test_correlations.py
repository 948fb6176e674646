import cmath
import math

import pytest

from conftest import random_complex
import pfzeros.correlations as correlations
from pfzeros.correlations import (
    MAX_PROBE_DELTA,
    PROBE_SIGNS,
    KickedSetup,
    _ratios_minus_one,
    corr_cross_row,
    corr_norm_ratio,
    corr_same_row,
)
from pfzeros.errors import IllConditionedError
from pfzeros.model import build_chain, from_edge_list, with_bond_delta, with_field_delta
from pfzeros.oracle import brute_force_Z, correlation
from pfzeros.statevector import run_streamed


class TestProbeChecks:
    def test_validation(self):
        setup = KickedSetup(3, 2, -0.25 + 0.1j, -0.2 + 0.05j)
        corr_same_row(setup, 0, 1, 0, delta=MAX_PROBE_DELTA)
        for delta in (0.2, 0.0, -0.01):
            with pytest.raises(ValueError, match="probe delta"):
                corr_same_row(setup, 0, 1, 0, delta=delta)
            with pytest.raises(ValueError, match="probe delta"):
                corr_cross_row(setup, (0, 0), (1, 1), delta=delta)
        with pytest.raises(ValueError, match="different rows"):
            corr_cross_row(setup, (0, 0), (1, 0), delta=0.01)


class TestRatios:
    """One probe list serves every backend; the base is measured once."""

    setup = KickedSetup(3, 2, -0.25 + 0.1j, -0.2 + 0.05j, h=0.2 + 0.05j)
    probes = [
        (((0, 2, 0, 0.01 + 0j),), ()),
        ((), ((0, 0, 0.01j), (1, 1, 0.01j))),
        (((1, 2, 1, 0.01 + 0j), (0, 1, 0, -0.01j)), ((2, 1, 0.005 + 0j),)),
    ]

    def test_probed_model_applies_probes_in_order(self):
        model = self.setup.probed_model(*self.probes[2])
        couplings = {b.key(): b.coupling for b in model.bonds}
        base = {b.key(): b.coupling for b in self.setup.base_model().bonds}
        assert couplings[(4, 5)] == base[(4, 5)] + 0.01
        assert couplings[(0, 1)] == base[(0, 1)] - 0.01j
        fields = {f.i: f.field for f in model.fields}
        assert fields[self.setup.site(2, 1)] == self.setup.h + 0.005
        assert fields[self.setup.site(0, 0)] == self.setup.h

    @pytest.mark.parametrize("backend", ["effective", "full", "streamed", "kicked"])
    def test_backends_agree(self, backend):
        want = _ratios_minus_one(self.setup, "oracle", self.probes)
        got = _ratios_minus_one(self.setup, backend, self.probes)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_kicked_base_measured_once(self, monkeypatch):
        runs = []

        def counted(circ):
            runs.append(circ)
            return run_streamed(circ)
        monkeypatch.setattr(correlations, "run_streamed", counted)
        _ratios_minus_one(self.setup, "kicked", self.probes)
        assert len(runs) == 1 + len(self.probes)


class TestSignTable:
    def test_resolved_table(self):
        # w = exp(-K ss): a real coupling probe lowers |Z|^2 by 2d Re<ss>, an
        # imaginary one raises it by 2d Im<ss>
        assert PROBE_SIGNS == {
            "same_row_real": -1.0,
            "same_row_imag": 1.0,
            "cross_row_real": 1.0,
            "cross_row_rotated": -1.0,
        }

    def test_signs_match_exact_response(self):
        # each probe on the 2-spin model, put through its estimator's formula,
        # lands on its component of the exact <s0 s1> with the table's sign only
        model = from_edge_list(2, [(0, 1, 0.21 + 0.13j)])
        target = correlation(model, 0, 1)
        base = abs(brute_force_Z(model)) ** 2

        def response(probed):
            return abs(brute_force_Z(probed)) ** 2 / base - 1.0

        def field_probed(dv):
            return with_field_delta(with_field_delta(model, 0, dv), 1, dv)

        d1, d2 = 1e-4, 5e-3
        rotation = cmath.exp(1j * math.pi / 4.0)
        cases = {
            "same_row_real": (response(with_bond_delta(model, 0, 1, d1)) / (2 * d1), 0.0,
                              target.real),
            "same_row_imag": (response(with_bond_delta(model, 0, 1, 1j * d1)) / (2 * d1), 0.0,
                              target.imag),
            "cross_row_real": (response(field_probed(d2)) / (2 * d2 * d2), -1.0, target.real),
            "cross_row_rotated": (response(field_probed(d2 * rotation)) / (2 * d2 * d2), 0.0,
                                  target.imag),
        }
        for key, (g, offset, want) in cases.items():
            assert abs(PROBE_SIGNS[key] * g + offset - want) < 1e-2, key
            assert abs(-PROBE_SIGNS[key] * g + offset - want) > 1e-2, key


class TestNormRatio:
    def test_independent_spins(self):
        m = build_chain(3, K=0)
        assert corr_norm_ratio(m, 0, 2) == pytest.approx(0.0, abs=1e-14)

    def test_same_site(self):
        m = build_chain(3, K=0.3)
        assert corr_norm_ratio(m, 1, 1) == 1.0

    @pytest.mark.parametrize("backend", ["oracle", "effective", "full", "streamed"])
    def test_matches_oracle_open_chain(self, backend, rng):
        for _ in range(4):
            m = build_chain(4, K=random_complex(rng), H=random_complex(rng, 0.2))
            got = corr_norm_ratio(m, 0, 3, backend=backend)
            want = abs(correlation(m, 0, 3)) ** 2
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_ill_conditioned(self):
        h = 1j * math.pi / 2
        m = from_edge_list(2, [], [(0, h), (1, h)])
        with pytest.raises(IllConditionedError):
            corr_norm_ratio(m, 0, 1, backend="oracle")


class TestSameRow:
    def setup_method(self):
        self.setup = KickedSetup(3, 2, -0.25 + 0.1j, -0.2 + 0.05j)
        self.model = self.setup.base_model()
        self.target = correlation(self.model, self.setup.site(0, 0), self.setup.site(2, 0))

    @pytest.mark.parametrize("backend", ["oracle", "effective", "kicked"])
    def test_matches_oracle(self, backend):
        est = corr_same_row(self.setup, 0, 2, 0, delta=0.01, backend=backend)
        assert abs(est.value - self.target) < 5e-4

    def test_convergence_order(self):
        errs_raw, errs_rich = [], []
        for d in (0.04, 0.02):
            est = corr_same_row(self.setup, 0, 2, 0, delta=d, backend="oracle")
            errs_raw.append(abs(est.raw - self.target))
            errs_rich.append(abs(est.extrapolated - self.target))
        # two-point order estimates carry an O(delta) bias from the next
        # expansion term, hence the 2% measurement allowance
        assert math.log2(errs_raw[0] / errs_raw[1]) >= 0.98
        assert math.log2(errs_rich[0] / errs_rich[1]) >= 1.9

    def test_zero_coupling_gives_zero(self):
        setup = KickedSetup(3, 2, 0.0, -0.2)
        est = corr_same_row(setup, 0, 2, 0, delta=0.01)
        assert abs(est.value) < 1e-3  # 0 within O(delta^2)

    def test_probe_sign_antisymmetry(self):
        # flipping the probe sign flips the first-order response
        r_plus, r_minus = _ratios_minus_one(self.setup, "oracle", [
            (((0, 2, 0, 0.01 + 0j),), ()),
            (((0, 2, 0, -0.01 + 0j),), ()),
        ])
        assert r_plus == pytest.approx(-r_minus, abs=5e-4)

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            corr_same_row(self.setup, 1, 1, 0)

    @pytest.mark.parametrize("backend", ["oracle", "effective", "kicked"])
    def test_longitudinal_field(self, backend):
        # the kicked circuit realizes the field with one z-field gadget per spin per layer
        setup = KickedSetup(3, 2, -0.25 + 0.1j, -0.2 + 0.05j, h=0.2 + 0.05j)
        target = correlation(setup.base_model(), setup.site(0, 0), setup.site(2, 0))
        est = corr_same_row(setup, 0, 2, 0, delta=0.01, backend=backend)
        assert abs(est.value - target) < 5e-4


class TestCrossRow:
    def setup_method(self):
        self.setup = KickedSetup(3, 2, -0.25 + 0.1j, -0.2 + 0.05j)
        self.model = self.setup.base_model()
        self.target = correlation(self.model, self.setup.site(0, 0), self.setup.site(1, 1))

    @pytest.mark.parametrize("backend", ["oracle", "effective", "kicked"])
    def test_matches_oracle(self, backend):
        est = corr_cross_row(self.setup, (0, 0), (1, 1), delta=0.01, backend=backend)
        assert abs(est.value - self.target) < 5e-4

    def test_convergence_order(self):
        errs_raw, errs_rich = [], []
        for d in (0.04, 0.02):
            est = corr_cross_row(self.setup, (0, 0), (1, 1), delta=d, backend="oracle")
            errs_raw.append(abs(est.raw - self.target))
            errs_rich.append(abs(est.extrapolated - self.target))
        assert math.log2(errs_raw[0] / errs_raw[1]) >= 0.98
        # Richardson removes the delta^2 term; the remainder is ~delta^4
        assert math.log2(errs_rich[0] / errs_rich[1]) >= 1.9

    def test_independent_distant_spins(self):
        setup = KickedSetup(3, 2, 0.0, 0.0)
        est = corr_cross_row(setup, (0, 0), (1, 1), delta=0.01)
        assert abs(est.value) < 1e-3  # the "+1" offset cancels exactly

    def test_quadratic_probe_scaling(self):
        d = 0.02
        r1, r2 = _ratios_minus_one(self.setup, "oracle", [
            ((), ((0, 0, d + 0j), (1, 1, d + 0j))),
            ((), ((0, 0, d / 2 + 0j), (1, 1, d / 2 + 0j))),
        ])
        assert r1 / r2 == pytest.approx(4.0, rel=0.05)

    def test_same_row_rejected(self):
        with pytest.raises(ValueError):
            corr_cross_row(self.setup, (0, 0), (1, 0))

    def test_longitudinal_field_rejected(self):
        setup = KickedSetup(3, 2, -0.2, -0.2, h=0.1)
        with pytest.raises(ValueError, match="longitudinal"):
            corr_cross_row(setup, (0, 0), (1, 1))


class TestEstimatorConsistency:
    def test_norm_agreement(self):
        setup = KickedSetup(3, 2, -0.22 + 0.08j, -0.17 - 0.05j)
        model = setup.base_model()
        i, j = setup.site(0, 0), setup.site(2, 0)
        norm2 = corr_norm_ratio(model, i, j)
        est = corr_same_row(setup, 0, 2, 0, delta=0.005)
        assert abs(est.value) ** 2 == pytest.approx(norm2, abs=2e-3)

    def test_kicked_setup_site_validation(self):
        setup = KickedSetup(3, 2, 0.1, 0.1)
        with pytest.raises(ValueError):
            setup.site(3, 0)
        with pytest.raises(ValueError):
            setup.site(0, 2)
