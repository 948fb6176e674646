"""Compilation of Ising models into ancilla-gadget measurement circuits.

Two schemes are produced: the general scheme (one qubit per spin plus one
x-polarized ancilla per bond and per field term) and the kicked scheme for
cylinders (a single ring of qubits reused across layers, with z-polarized
ancillas realizing the transverse-field factors).

Gate semantics: zz(i,j,t) = exp(-i t sz_i sz_j), zrot(i,h) = exp(-i h sz_i),
and xx/xrot the same with sx.  Non-unitary real factors exp(-c s) are realized
by two-gate gadgets on a fresh ancilla followed by projection onto the
ancilla's initial state; each gadget multiplies the measured amplitude by
exp(-|c|), which the circuit tracks in log_prefactor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .model import IsingModel

class QubitRole(Enum):
    PHYSICAL = "physical"
    ANCILLA_X = "ancilla_x"  # initialized in |+>
    ANCILLA_Z = "ancilla_z"  # initialized in |up>


@dataclass(frozen=True)
class Gate:
    kind: str  # "zz" | "zrot" | "xx" | "xrot"
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self):
        if self.kind in ("zz", "xx"):
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind} gate needs two distinct qubits")
        elif self.kind in ("zrot", "xrot"):
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} gate needs one qubit")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class Gadget:
    """A two-gate non-unitary block owning one single-use ancilla."""

    gadget_id: int
    ancilla: int
    span: tuple[int, int]  # contiguous [start, stop) range in the gate list


@dataclass(frozen=True)
class Circuit:
    roles: tuple[QubitRole, ...]
    gates: tuple[Gate, ...]
    log_prefactor: float
    gadgets: tuple[Gadget, ...] = ()

    @property
    def n_qubits(self) -> int:
        return len(self.roles)

    @property
    def n_physical(self) -> int:
        return sum(1 for r in self.roles if r is QubitRole.PHYSICAL)

    def ancilla_usage(self) -> dict[int, int]:
        return {g.ancilla: g.gadget_id for g in self.gadgets}

    def validate(self) -> None:
        """Check the single-use-ancilla invariant and gadget-span consistency."""
        spans = sorted(g.span for g in self.gadgets)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1:
                raise AssertionError("gadget gate spans overlap")
        usage = self.ancilla_usage()
        if len(usage) != len(self.gadgets):
            raise AssertionError("an ancilla is shared between gadgets")
        in_span = {}
        for g in self.gadgets:
            if self.roles[g.ancilla] is QubitRole.PHYSICAL:
                raise AssertionError("gadget ancilla has a physical role")
            for idx in range(*g.span):
                in_span[idx] = g
        for idx, gate in enumerate(self.gates):
            anc = [q for q in gate.qubits if self.roles[q] is not QubitRole.PHYSICAL]
            if idx in in_span:
                if anc != [in_span[idx].ancilla]:
                    raise AssertionError(
                        f"gate {idx} inside gadget span does not touch exactly its ancilla"
                    )
            elif anc:
                raise AssertionError(f"gate {idx} touches ancilla {anc} outside any gadget")
        for q, role in enumerate(self.roles):
            if role is not QubitRole.PHYSICAL and q not in usage:
                raise AssertionError(f"ancilla {q} is not used by any gadget")


def _block_angles(c: complex) -> tuple[float, float, float]:
    """Gate angles of the block of complex weight c, in gate order: c^I for its
    unitary gate, then kappa = arccos(e^{-2|c^R|})/2 and kappa' = sgn(c^R) kappa
    for its gadget, whose projection gives e^{-|c^R|} e^{-c^R s_i s_j}.  The one
    angle rule of every block."""
    kappa = math.acos(math.exp(-2.0 * abs(c.real))) / 2.0
    return c.imag, kappa, math.copysign(kappa, c.real) if c.real else 0.0


class _Builder:
    def __init__(self, n_physical: int):
        self.roles = [QubitRole.PHYSICAL] * n_physical
        self.gates: list[Gate] = []
        self.gadgets: list[Gadget] = []
        self.log_prefactor = 0.0

    def gate(self, kind: str, qubits: tuple[int, ...], angle: float) -> None:
        self.gates.append(Gate(kind, qubits, float(angle)))

    def block(self, role: QubitRole, c: complex, gate_specs) -> None:
        """One block of weight c: gate_specs are its unitary gate and its two
        gadget gates as (kind, qubits), None standing for the block's ancilla."""
        (kind, qubits), *gadget_specs = gate_specs
        theta, *gadget_angles = _block_angles(c)
        self.gate(kind, qubits, theta)
        anc = len(self.roles)
        self.roles.append(role)
        start = len(self.gates)
        for (kind, qubits), angle in zip(gadget_specs, gadget_angles):
            self.gate(kind, tuple(q if q is not None else anc for q in qubits), angle)
        self.gadgets.append(Gadget(len(self.gadgets), anc, (start, len(self.gates))))
        self.log_prefactor += abs(c.real)

    def coupling_block(self, i: int, j: int, K: complex) -> None:
        self.block(QubitRole.ANCILLA_X, K, [("zz", (i, j)), ("zz", (i, None)), ("zz", (j, None))])

    def field_block(self, i: int, H: complex) -> None:
        # lambda = arccos(e^{-2|H^R|})/2 and mu = +sgn(H^R) * lambda, the angles of a
        # coupling gadget of strength H^R: mu of this sign makes the projected
        # gadget equal e^{-H^R s} exactly; the opposite sign would realize e^{+H^R s}.
        self.block(QubitRole.ANCILLA_X, H, [("zrot", (i,)), ("zz", (i, None)), ("zrot", (None,))])

    def transverse_block(self, i: int, H: complex) -> None:
        self.block(QubitRole.ANCILLA_Z, H, [("xrot", (i,)), ("xx", (i, None)), ("xrot", (None,))])

    def finish(self, extra_log_prefactor: float = 0.0) -> Circuit:
        c = Circuit(
            tuple(self.roles),
            tuple(self.gates),
            self.log_prefactor + extra_log_prefactor,
            tuple(self.gadgets),
        )
        c.validate()
        return c


def compile_general(model: IsingModel) -> Circuit:
    """General-scheme circuit: |Z| = e^{log_prefactor} * |<psi0|U|psi0>|.

    Each bond compiles to zz(i,j,K^I) plus a two-gate x-ancilla gadget for
    e^{-K^R ss}; each field term to zrot(i,H^I) plus a gadget for e^{-H^R s}.
    log_prefactor = N ln2 + sum|K^R| + sum|H^R|.  Ancillas are allocated even
    for vanishing real parts, so that resource counts follow the 3NL-N /
    6NL-3N accounting, and models with the same spin count, bond pairs and
    field sites, in order, compile to circuits that differ only in their
    angles and log_prefactor.
    """
    b = _Builder(model.n_spins)
    for bond in model.bonds:
        b.coupling_block(bond.i, bond.j, complex(bond.coupling))
    for term in model.fields:
        b.field_block(term.i, complex(term.field))
    return b.finish(extra_log_prefactor=model.n_spins * math.log(2.0))


def ring_pairs(n_circ: int) -> list[tuple[int, int]]:
    """Ring adjacency (i, i+1 mod n); a ring of 2 lists both (0,1) and (1,0)."""
    return [(i, (i + 1) % n_circ) for i in range(n_circ)]


def compile_kicked(
    n_circ: int,
    l_len: int,
    K: complex,
    H_kick: complex,
    coupling_probes: tuple[tuple[int, int, int, complex], ...] = (),
    field_probes: tuple[tuple[int, int, complex], ...] = (),
) -> Circuit:
    """Kicked-protocol circuit on a single ring of n_circ qubits.

    Applies L ring-coupling layers e^{-K sum sz sz} interleaved with L-1
    transverse layers e^{-H_kick sum sx}, the real parts via gadgets.
    log_prefactor = N*L*|K^R| + N*(L-1)*|H^R| (plus probe weights); it relates
    the measured probability to P_kicked, not directly to |Z|^2 -- the
    remaining sinh(2H)/2^{N(L+1)} factors are kicked_log_factor's, which
    evaluators._kicked_log_L applies over a grid.

    Optional probes insert extra diagonal couplings/fields acting on a given
    classical row: coupling_probes entries are (i, k, row, deltaK) and
    field_probes entries are (i, row, deltaB).
    """
    if n_circ < 2:
        raise ValueError("kicked protocol needs a ring of at least 2 qubits")
    if l_len < 1:
        raise ValueError("kicked protocol needs at least one layer")
    K, H_kick = complex(K), complex(H_kick)
    b = _Builder(n_circ)
    for (i, k, row, _d) in coupling_probes:
        if not (0 <= row < l_len and 0 <= i < n_circ and 0 <= k < n_circ and i != k):
            raise ValueError("coupling probe out of range")
    for (i, row, _d) in field_probes:
        if not (0 <= row < l_len and 0 <= i < n_circ):
            raise ValueError("field probe out of range")
    for row in range(l_len):
        for (i, j) in ring_pairs(n_circ):
            b.coupling_block(i, j, K)
        for (i, k, prow, delta) in coupling_probes:
            if prow == row:
                b.coupling_block(i, k, complex(delta))
        for (i, prow, delta) in field_probes:
            if prow == row:
                b.field_block(i, complex(delta))
        if row < l_len - 1:
            for q in range(n_circ):
                b.transverse_block(q, H_kick)
    return b.finish()


def kick_field_for_ky(Ky: complex) -> complex:
    """Kick field whose layer exp(-H sum sx) realizes the y-coupling Ky exactly.

    Matching the transfer elements <s'|e^{-H sx}|s> = B e^{-Ky s s'} demands
    tanh(H) = -e^{+2 Ky}; field probes on individual rows depend on this exact
    map.  For field-free cylinders Z is even in Ky, which is why the
    magnitude-level relation can equally be written with e^{-2 Ky} (the
    calibrated tanh-sign deviation from the nominal map).
    """
    w = -cmath.exp(2.0 * complex(Ky))
    if min(abs(w - 1.0), abs(w + 1.0)) < 1e-12:
        raise ValueError(f"-e^(2Ky) = {w:.6g} is a branch point of artanh")
    return cmath.atanh(w)


def kicked_log_factor(n_circ: int, l_len: int, H_kick: complex) -> float:
    """ln of the positive constant k with P_kicked = k * |Z(K, Ky_eff)|^2.

    k = |sinh(2H)^{N(L-1)} / 2^{N(L+1)}|; calibration confirms this power of two
    exactly.
    """
    s = abs(cmath.sinh(2.0 * complex(H_kick)))
    if s == 0:
        raise ValueError("sinh(2H) = 0: the kicked relation is singular")
    n, L = n_circ, l_len
    return n * (L - 1) * math.log(s) - n * (L + 1) * math.log(2.0)


@dataclass(frozen=True)
class ResourceCounts:
    n_physical: int
    n_ancilla_x: int
    n_ancilla_z: int
    n_gates: int

    @property
    def n_qubits(self) -> int:
        return self.n_physical + self.n_ancilla_x + self.n_ancilla_z


def resource_counts(circuit: Circuit) -> ResourceCounts:
    """Tally of qubits by role and total gate count."""
    return ResourceCounts(
        sum(1 for r in circuit.roles if r is QubitRole.PHYSICAL),
        sum(1 for r in circuit.roles if r is QubitRole.ANCILLA_X),
        sum(1 for r in circuit.roles if r is QubitRole.ANCILLA_Z),
        len(circuit.gates),
    )
