"""Correlation functions <s_i s_j> at complex couplings from return probabilities.

The norm comes from a gate ratio (sigma_i sigma_j = -i exp(i pi sigma_i
sigma_j / 2), one extra Ising gate); the phase comes from perturbative probes:
a small coupling delta-K between same-row spins (first-order response) or small
z-fields delta-B on a cross-row pair (second-order response, which requires a
field-free base model).  Every backend reads one probe format, (i, k, row,
delta-K) and (i, row, delta-B) tuples: the kicked backend compiles them into
its circuit, the others apply them to the model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuits import Circuit, compile_general, compile_kicked, kick_field_for_ky
from .errors import IllConditionedError
from .model import (
    IsingModel,
    build_cylinder,
    with_bond_delta,
    with_field_delta,
)
from .oracle import brute_force_Z_with_scale
from .statevector import run_effective, run_full, run_streamed

MAX_PROBE_DELTA = 0.05
MIN_PROBABILITY = 1e-24  # a base return probability at or below this is ill-conditioned

# Response signs (|Z(d)|^2/|Z(0)|^2 - 1 ~ sign * 2d*Re<ss>, etc.).
# The weight is exp(-K ss), so dZ/dK = -Z<ss>: K -> K+d moves |Z|^2 by
# -2d Re<ss> |Z|^2, and K -> K+id by +2d Im<ss> |Z|^2.
PROBE_SIGNS = {
    "same_row_real": -1.0,
    "same_row_imag": 1.0,
    "cross_row_real": 1.0,
    "cross_row_rotated": -1.0,
}


@dataclass(frozen=True)
class KickedSetup:
    """A cylinder instance addressed through the kicked protocol.

    A uniform longitudinal field h, when present, is realized in the circuit
    by one z-field gadget per spin per layer (the same mechanism as probes).
    """

    n_circ: int
    l_len: int
    kx: complex
    ky: complex
    h: complex = 0j

    def site(self, i: int, row: int) -> int:
        if not (0 <= i < self.n_circ and 0 <= row < self.l_len):
            raise ValueError(f"site ({i},{row}) outside {self.n_circ}x{self.l_len} lattice")
        return row * self.n_circ + i

    def kick_field(self) -> complex:
        return kick_field_for_ky(self.ky)

    def base_model(self) -> IsingModel:
        return build_cylinder(self.n_circ, self.l_len, self.kx, self.ky, self.h)

    def _field_terms(self) -> tuple[tuple[int, int, complex], ...]:
        if self.h == 0:
            return ()
        return tuple(
            (i, row, self.h) for row in range(self.l_len) for i in range(self.n_circ)
        )

    def probed_circuit(self, coupling_probes=(), field_probes=()) -> Circuit:
        return compile_kicked(
            self.n_circ,
            self.l_len,
            self.kx,
            self.kick_field(),
            coupling_probes=tuple(coupling_probes),
            field_probes=self._field_terms() + tuple(field_probes),
        )

    def probed_model(self, coupling_probes=(), field_probes=()) -> IsingModel:
        """The model twin of probed_circuit: the same probe tuples, in order."""
        model = self.base_model()
        for i, k, row, delta in coupling_probes:
            model = with_bond_delta(model, self.site(i, row), self.site(k, row), delta)
        for i, row, delta in field_probes:
            model = with_field_delta(model, self.site(i, row), delta)
        return model


def _log_z2_model(model: IsingModel, backend: str, min_probability: float) -> float:
    """ln |Z|^2 of a model through the chosen backend."""
    if backend == "oracle":
        z, scale = brute_force_Z_with_scale(model)
        if abs(z) <= 1e-12 * scale:
            raise IllConditionedError("working point is at a partition-function zero")
        return 2.0 * math.log(abs(z))
    if backend == "effective":
        amp = run_effective(model).amplitude
        if abs(amp) ** 2 <= min_probability:
            raise IllConditionedError("effective-backend amplitude below tolerance")
        return 2.0 * (math.log(abs(amp)) + model.n_spins * math.log(2.0))
    if backend in ("full", "streamed"):
        circ = compile_general(model)
        res = run_full(circ) if backend == "full" else run_streamed(circ)
        if res.probability <= min_probability:
            raise IllConditionedError("return probability below tolerance")
        return 2.0 * (math.log(abs(res.amplitude)) + circ.log_prefactor)
    raise ValueError(f"unknown backend {backend!r}")


def corr_norm_ratio(model: IsingModel, i: int, j: int, backend: str = "effective") -> float:
    """|<s_i s_j>|^2 as the ratio of return probabilities of two circuits that
    differ by one extra Ising gate (coupling shifted by -i pi/2)."""
    if i == j:
        return 1.0
    modified = with_bond_delta(model, i, j, -1j * math.pi / 2.0)
    base = _log_z2_model(model, backend, MIN_PROBABILITY)
    num = _log_z2_model(modified, backend, 0.0)
    return math.exp(num - base)


def _ratios_minus_one(setup: KickedSetup, backend: str, probes) -> list[float]:
    """R - 1 for each (coupling_probes, field_probes) pair in probes, where
    R = |Z(probed)|^2 / |Z(0)|^2; the unprobed base is measured once."""
    if backend == "kicked":
        base_c = setup.probed_circuit()
        base = run_streamed(base_c)
        if base.probability == 0.0:
            raise IllConditionedError("kicked return probability vanished at the base point")
        ratios = []
        for coupling_probes, field_probes in probes:
            probe_c = setup.probed_circuit(coupling_probes, field_probes)
            probed = run_streamed(probe_c)
            ratios.append(math.expm1(2.0 * (
                math.log(abs(probed.amplitude))
                - math.log(abs(base.amplitude))
                + probe_c.log_prefactor
                - base_c.log_prefactor
            )))
        return ratios
    log_base = _log_z2_model(setup.base_model(), backend, MIN_PROBABILITY)
    return [
        math.expm1(_log_z2_model(setup.probed_model(*pair), backend, 0.0) - log_base)
        for pair in probes
    ]


@dataclass(frozen=True)
class CorrelationEstimate:
    raw: complex
    extrapolated: complex
    delta: float
    backend: str
    method: str

    @property
    def value(self) -> complex:
        """The Richardson-extrapolated estimate."""
        return self.extrapolated


def corr_same_row(
    setup: KickedSetup,
    i: int,
    k: int,
    row: int,
    delta: float = 0.01,
    backend: str = "oracle",
) -> CorrelationEstimate:
    """<S_{i,row} S_{k,row}> from first-order coupling probes.

    The real part comes from a real delta-K probe, the imaginary part from an
    imaginary one; a delta/2 Richardson pass removes the leading O(delta) error.
    Gadget-normalization corrections enter through each probed circuit's own
    log_prefactor.
    """
    if not 0.0 < delta <= MAX_PROBE_DELTA:
        raise ValueError(f"probe delta must be in (0, {MAX_PROBE_DELTA}]")
    if i == k:
        raise ValueError("same-row probe needs two distinct spins")
    steps = (delta, delta / 2.0)
    r = _ratios_minus_one(
        setup, backend, [(((i, k, row, dk),), ()) for d in steps for dk in (d + 0j, 1j * d)]
    )
    raw, half = (
        complex(
            PROBE_SIGNS["same_row_real"] * r_re / (2.0 * d),
            PROBE_SIGNS["same_row_imag"] * r_im / (2.0 * d),
        )
        for d, r_re, r_im in zip(steps, r[::2], r[1::2])
    )
    extrapolated = 2.0 * half - raw
    return CorrelationEstimate(raw, extrapolated, delta, backend, "same_row")


def corr_cross_row(
    setup: KickedSetup,
    site_a: tuple[int, int],
    site_b: tuple[int, int],
    delta: float = 0.01,
    backend: str = "oracle",
) -> CorrelationEstimate:
    """<S_a S_b> for spins in different rows from second-order field probes.

    A real field delta-B at both sites gives 1 + Re<SS> at order delta^2; the
    probe rotated by e^{i pi/4} gives -Im<SS>.  The expansion drops first-order
    terms, which is only valid for a field-free base model (single-spin means
    vanish by symmetry); models with longitudinal fields are rejected.
    """
    if not 0.0 < delta <= MAX_PROBE_DELTA:
        raise ValueError(f"probe delta must be in (0, {MAX_PROBE_DELTA}]")
    if site_a[1] == site_b[1]:
        raise ValueError("cross-row probes need sites in different rows")
    if setup.base_model().fields:
        raise ValueError("cross-row probes require a base model without longitudinal fields")
    steps = (delta, delta / 2.0)
    rotation = cmath.exp(1j * math.pi / 4.0)
    (ia, ra), (ib, rb) = site_a, site_b
    r = _ratios_minus_one(
        setup,
        backend,
        [((), ((ia, ra, dv), (ib, rb, dv))) for d in steps for dv in (d + 0j, d * rotation)],
    )
    raw, half = (
        complex(
            PROBE_SIGNS["cross_row_real"] * r_re / (2.0 * d * d) - 1.0,
            PROBE_SIGNS["cross_row_rotated"] * r_rot / (2.0 * d * d),
        )
        for d, r_re, r_rot in zip(steps, r[::2], r[1::2])
    )
    extrapolated = (4.0 * half - raw) / 3.0  # leading error is O(delta^2)
    return CorrelationEstimate(raw, extrapolated, delta, backend, "cross_row")
