"""Dense statevector execution of gadget circuits.

Three interchangeable backends produce the return amplitude/probability:

* run_full      -- every qubit in one register, ancilla projections deferred
                   to the final overlap (exact because ancillas are single-use);
                   the register grows as in run_streamed, if no ancilla is |up>
* run_streamed  -- physical register only; each gadget attaches, uses,
                   projects, and discards its ancilla in turn; the register
                   grows as gates first touch its qubits
* run_effective -- the diagonal identity: applies exp(-K ss), exp(-H s)
                   directly as non-unitary elementwise factors (overlap * 2^N = Z)

Amplitude layout is little-endian: qubit q owns bit q of the basis index, and
bit 0 means spin up (s = +1).  The one gate kernel acts on amp[state, point]
with one angle per point: run_full and run_streamed simulate a batch of
circuits that differ only in their angles, a single circuit being one point.
Each run computes the phases of all its diagonal gates in one pass.  On a
register of at most _AMPLITUDE_BUDGET amplitudes a diagonal gate is one
contiguous multiply by its phase rows, gathered by the parity of its qubit
bits of each state (_parity); a larger register takes one pass per parity
over strided views, whose inner loops run only over the points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, QubitRole
from .errors import CapExceededError
from .model import IsingModel
from .oracle import brute_force_Z

MEMORY_QUBIT_CAP = 26

# Register amplitudes that fit in cache: a diagonal gate on a register this
# small multiplies it by one gathered phase table (_apply), and the circuit
# evaluator batches this many amplitudes' worth of points per block.  With the
# gathered tables, 4x larger blocks scan the 3x3 cylinder's 24x24 grid about
# 15 % faster (median 0.053 -> 0.045 s, the first scan of each of six
# alternating processes on a 2-CPU x86-64 VM with AVX-512), and the peak RSS
# of a later verify run did not rise (69.3 -> 69.1 MB).  But each cached
# parity row would grow 4x, and a 16-qubit full register would then gather a
# 1 MiB table beside itself.
_AMPLITUDE_BUDGET = 1 << 14

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_INIT_AMPLITUDES = {
    QubitRole.PHYSICAL: (_SQRT_HALF, _SQRT_HALF),  # |+>
    QubitRole.ANCILLA_X: (_SQRT_HALF, _SQRT_HALF),  # |+>
    QubitRole.ANCILLA_Z: (1.0, 0.0),  # |up>
}


def _product_support(roles: tuple[QubitRole, ...]) -> tuple[tuple, float]:
    """Index of the product state's support in the (2,)*n view, and its amplitude."""
    z = [r is QubitRole.ANCILLA_Z for r in reversed(roles)]
    return tuple(0 if zq else slice(None) for zq in z), 2.0 ** (-(len(z) - sum(z)) / 2.0)


def _overlaps(amp: np.ndarray, roles: tuple[QubitRole, ...]) -> list[complex]:
    """<psi0|psi> per point of amp[state(, point)], each point summed over a
    contiguous copy of its own column, one at a time: the order of a one-point
    register, at the memory of one more row."""
    sel, value = _product_support(roles)
    columns = amp.reshape(1 << len(roles), -1).T
    return [complex(np.ascontiguousarray(col).reshape((2,) * len(roles))[sel].sum() * value)
            for col in columns]


def _axis_view(amp: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """View of amp[state(, point)] with the given qubits moved to the leading
    axes (bit q -> axis), the point axis last: np.moveaxis's view, without
    its axis normalization on every gate."""
    lead = [n - 1 - q for q in qubits]
    order = lead + [a for a in range(n + 1) if a not in lead]
    return amp.reshape((2,) * n + (-1,)).transpose(order)


@functools.lru_cache(maxsize=64)
def _parity(rows: int, qubits: tuple[int, ...]) -> np.ndarray:
    """parity[s] = XOR of the given qubits' bits of state s, for s < rows, one
    byte per state, read-only since every caller shares it: _apply asks only
    for rows <= _AMPLITUDE_BUDGET, so the cache holds at most 64 * 16 KiB."""
    states = np.arange(rows)
    parity = np.zeros(rows, dtype=states.dtype)
    for q in qubits:
        parity ^= states >> q
    parity = (parity & 1).astype(np.uint8)
    parity.flags.writeable = False
    return parity


def _rotate(x: np.ndarray, phase: np.ndarray, single: bool) -> None:
    """x *= phase in place.  Where the gate spans every qubit of the circuit
    (single), each point holds one amplitude, which a one-point register
    multiplies as a numpy scalar, rounding each real product apart; numpy's
    vector loops fuse them, so it is spelled out to keep a point's bits
    independent of its batch."""
    if single:
        re = x.real * phase.real - x.imag * phase.imag
        x.imag = x.real * phase.imag + x.imag * phase.real
        x.real = re
    else:
        x *= phase


def _check_qubits(n: int, qubits: tuple[int, ...]) -> None:
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"gate qubit {q} out of range for {n} qubits")


def _operands(kinds, th: np.ndarray) -> list:
    """What _apply takes for each gate of the (gates, points) angle table th:
    the rows (e^{-i th}, e^{+i th}) of a zz/zrot gate, every such gate's from
    one np.exp over their angles, and the angle row of an xx/xrot gate."""
    diag = [k for k, kind in enumerate(kinds) if kind in ("zz", "zrot")]
    phases = np.exp(np.multiply.outer((-1j, 1j), th[diag]))
    ops = list(th)
    for row, k in enumerate(diag):
        ops[k] = phases[:, row]
    return ops


def _apply(amp: np.ndarray, n: int, kind: str, qubits: tuple[int, ...], op,
           fits: bool = False) -> None:
    """Apply one gate of an n-qubit circuit in place to amp[state, point], with
    its _operands entry op: a point's angle th is op[point] for xx/xrot, and
    zz/zrot take their phases e^{-i th}, e^{+i th} from op[0], op[1].  amp may
    hold only the circuit's low qubits (2^m states, m <= n).  zz/zrot are
    diagonal.  Where the register fits in cache (fits: the caller's whole
    allocation holds at most _AMPLITUDE_BUDGET amplitudes) and the gate leaves
    a qubit out, the block is multiplied once by op[parity], parity being the
    XOR of the gate's qubit bits of each state; otherwise each parity's
    strided view is multiplied in turn (_rotate).  Both give the same bits.
    xx/xrot mix amplitude pairs along the qubit axes."""
    _check_qubits(n, qubits)
    single = len(qubits) == n
    if fits and not single and kind in ("zz", "zrot"):
        amp *= op[_parity(len(amp), qubits)]
        return
    v = _axis_view(amp, amp.shape[0].bit_length() - 1, qubits)
    if kind == "zz":
        pm, pp = op
        _rotate(v[0, 0], pm, single)
        _rotate(v[1, 1], pm, single)
        _rotate(v[0, 1], pp, single)
        _rotate(v[1, 0], pp, single)
    elif kind == "zrot":
        _rotate(v[0], op[0], single)
        _rotate(v[1], op[1], single)
    elif kind == "xx":
        c, s = np.cos(op), np.sin(op)
        n00 = c * v[0, 0] - 1j * s * v[1, 1]
        n11 = c * v[1, 1] - 1j * s * v[0, 0]
        n01 = c * v[0, 1] - 1j * s * v[1, 0]
        n10 = c * v[1, 0] - 1j * s * v[0, 1]
        v[0, 0], v[1, 1], v[0, 1], v[1, 0] = n00, n11, n01, n10
    elif kind == "xrot":
        c, s = np.cos(op), np.sin(op)
        n0 = c * v[0] - 1j * s * v[1]
        n1 = c * v[1] - 1j * s * v[0]
        v[0], v[1] = n0, n1
    else:  # pragma: no cover - Gate.__post_init__ rejects unknown kinds
        raise ValueError(f"unknown gate kind {kind!r}")


def _hadamard(amp: np.ndarray, n: int, q: int) -> None:
    v = _axis_view(amp, n, (q,))
    n0 = (v[0] + v[1]) * _SQRT_HALF
    n1 = (v[0] - v[1]) * _SQRT_HALF
    v[0], v[1] = n0, n1


@dataclass(frozen=True)
class OverlapResult:
    """Return amplitude <psi0|U|psi0> and its probability."""

    amplitude: complex

    @property
    def probability(self) -> float:
        return abs(self.amplitude) ** 2


def _gate_angles(circuit: Circuit, angles) -> np.ndarray:
    """(gates, points) angles: the circuit's own as one point, or the given table."""
    if angles is None:
        return np.array([g.angle for g in circuit.gates], dtype=np.float64).reshape(-1, 1)
    th = np.array(angles, dtype=np.float64)
    if th.ndim != 2 or len(th) != len(circuit.gates):
        raise ValueError(f"angles must have shape ({len(circuit.gates)}, n_points)")
    return th


def _results(amplitudes: list[complex], angles):
    results = [OverlapResult(a) for a in amplitudes]
    return results[0] if angles is None else results


def run_full(circuit: Circuit, angles=None):
    """Evolve the full register (physical + ancillas) and overlap with |psi0>.

    The single ancilla projections of all gadgets are deferred to this final
    overlap, which is exact by the single-use-ancilla invariant.  With angles
    of shape (n_gates, n_points), simulates one circuit of this structure per
    point and returns a list of their OverlapResults.
    """
    return _results(_overlaps(_evolve_full(circuit, angles), circuit.roles), angles)


def _evolve_full(circuit: Circuit, angles) -> np.ndarray:
    """amp[state, point] of the whole register after all gates.

    A circuit with an |up> ancilla starts with the whole register, whose zeros
    the gates may turn into -0.  Any other grows it as gates first touch its
    qubits: amp[:2^m] holds qubits 0..m-1, the untouched ones being |+>.
    Either way the bits, signs of zero included, are the whole-register loop's.
    """
    n, roles = circuit.n_qubits, circuit.roles
    if n > MEMORY_QUBIT_CAP:
        raise CapExceededError(f"{n} qubits exceeds full-register cap {MEMORY_QUBIT_CAP}")
    th = _gate_angles(circuit, angles)
    for gate in circuit.gates:
        _check_qubits(n, gate.qubits)
    amp = np.empty((1 << n, th.shape[1]), dtype=np.complex128)
    amp[0] = _product_support(roles)[1]
    m = _grow(amp, roles, 0, n if QubitRole.ANCILLA_Z in roles else 0)
    fits = amp.size <= _AMPLITUDE_BUDGET
    for gate, op in zip(circuit.gates, _operands([g.kind for g in circuit.gates], th)):
        m = _grow(amp, roles, m, _size(gate.qubits, n))
        _apply(amp[: 1 << m], n, gate.kind, gate.qubits, op, fits)
    _grow(amp, roles, m, n)
    return amp


def _size(qubits: tuple[int, ...], n: int) -> int:
    """Register size at which a gate on these qubits of an n-qubit circuit
    runs: a gate short of the whole circuit keeps another qubit in the
    register, because numpy rounds a one-element loop apart from a longer one."""
    return min(max(max(qubits), len(qubits)) + 1, n)


def _grow(amp: np.ndarray, roles: tuple[QubitRole, ...], m: int, size: int) -> int:
    """Add qubits m..size-1 to the register, each as its new top bit, and
    return the register's size: an |up> ancilla's flipped half is +0, any
    other qubit's a copy of the register."""
    for q in range(m, size):
        h = 1 << q
        amp[h : 2 * h] = 0 if roles[q] is QubitRole.ANCILLA_Z else amp[:h]
    return max(m, size)


def final_state(circuit: Circuit) -> np.ndarray:
    """Full-register amplitudes after all gates (for sampling and inspection)."""
    return _evolve_full(circuit, None).reshape(-1)


def run_streamed(circuit: Circuit, angles=None):
    """Evaluate keeping only the physical register plus one ancilla workspace.

    Per gadget: attach a fresh ancilla in its initial state, apply the gadget
    gates, project onto the initial state, and contract it out.  Nothing is
    renormalized; the accumulated amplitude is the measured joint amplitude
    and matches run_full exactly.  angles batches points as in run_full.

    The physical register grows as gates first touch its qubits: amp[:2^m]
    holds qubits 0..m-1, the untouched ones being |+>.
    A gadget attaches its ancilla as bit m, in amp[:2^(m+1)], over a register
    that holds one qubit beyond each of its gates, unless a gate spans the
    whole physical register and the ancilla; attach and projection write in
    place, in the order of the whole-register loop, so the bits are the same.
    """
    n_phys, roles, gates = circuit.n_physical, circuit.roles, circuit.gates
    if any(r is not QubitRole.PHYSICAL for r in roles[:n_phys]):
        raise ValueError("streamed backend expects physical qubits at indices 0..n_phys-1")
    if n_phys + 1 > MEMORY_QUBIT_CAP:
        raise CapExceededError(f"{n_phys} qubits and an ancilla exceed the cap {MEMORY_QUBIT_CAP}")
    th = _gate_angles(circuit, angles)
    ops = _operands([g.kind for g in gates], th)
    phys_roles = roles[:n_phys]
    amp = np.empty((2 << n_phys, th.shape[1]), dtype=np.complex128)
    amp[0] = _product_support(phys_roles)[1]
    fits = amp.size <= _AMPLITUDE_BUDGET
    m = 0
    span_of = {g.span[0]: g for g in circuit.gadgets}
    idx = 0
    while idx < len(gates):
        gadget = span_of.get(idx)
        if gadget is None:
            m = _grow(amp, phys_roles, m, _size(gates[idx].qubits, n_phys))
            _apply(amp[: 1 << m], n_phys, gates[idx].kind, gates[idx].qubits, ops[idx], fits)
            idx += 1
            continue
        anc, span = gadget.ancilla, range(*gadget.span)
        # the m + 1 qubits with the ancilla hold one beyond each gadget gate, as _size
        size = max(max([len(gates[k].qubits)] + [q + 1 for q in gates[k].qubits if q != anc])
                   for k in span)
        m = _grow(amp, phys_roles, m, min(size, n_phys))
        h = 1 << m
        c0, c1 = _INIT_AMPLITUDES[roles[anc]]
        np.multiply(c1, amp[:h], out=amp[h : 2 * h])
        np.multiply(c0, amp[:h], out=amp[:h])
        for k in span:
            qubits = tuple(m if q == anc else q for q in gates[k].qubits)
            _apply(amp[: 2 * h], n_phys + 1, gates[k].kind, qubits, ops[k], fits)
        np.multiply(np.conj(c0), amp[:h], out=amp[:h])
        np.multiply(np.conj(c1), amp[h : 2 * h], out=amp[h : 2 * h])
        np.add(amp[:h], amp[h : 2 * h], out=amp[:h])
        idx = gadget.span[1]
    _grow(amp, phys_roles, m, n_phys)
    return _results(_overlaps(amp[: 1 << n_phys], phys_roles), angles)


def run_effective(model: IsingModel) -> OverlapResult:
    """Apply exp(-K ss) / exp(-H s) as diagonal factors on the physical register.

    The returned amplitude times 2^N equals Z exactly; the "probability" is
    |Z|^2 / 2^(2N), which exceeds 1 whenever the non-unitary weights do (this
    backend is an oracle identity, not a physical circuit).  Summing the
    diagonal weights over the register is brute_force_Z's configuration sum.
    """
    return OverlapResult(brute_force_Z(model, MEMORY_QUBIT_CAP) * 2.0 ** (-model.n_spins))


def measurement_basis(roles: tuple[QubitRole, ...]) -> tuple[str, ...]:
    """Per-qubit measurement axis: x for physical and x-ancillas, z for z-ancillas."""
    return tuple("z" if r is QubitRole.ANCILLA_Z else "x" for r in roles)


def sample_shots(circuit: Circuit, n_shots: int, seed) -> tuple[int, float]:
    """Sample projective measurements of the circuit's full-register final state
    in measurement_basis and count the all-initial-state outcome.

    Returns (success_count, success_count / n_shots); deterministic for a given
    seed.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    amp = final_state(circuit)
    for q, axis in enumerate(measurement_basis(circuit.roles)):
        if axis == "x":
            _hadamard(amp, circuit.n_qubits, q)
    p = np.abs(amp) ** 2
    total = p.sum()
    if not math.isfinite(total) or total <= 0:
        raise ValueError("state has no probability mass to sample")
    cdf = np.cumsum(p / total)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    outcomes = np.searchsorted(cdf, rng.random(n_shots), side="right")
    success = int(np.count_nonzero(outcomes == 0))
    return success, success / n_shots
