"""Ground-truth evaluation of complex partition functions.

Three independent routes are provided: direct configuration sums
(brute_force_Z), row-to-row transfer operators for cylinders
(transfer_matrix_Z), and integer density-of-states tables that render Z as a
polynomial in x = exp(-2K) and z = exp(-2H) (density_of_states).  The
zero-field cylinder also has a product of 2x2 momentum blocks
(momentum_Z_grid), which the kicked protocol reads.  All enumerations read
configurations from one spin-row kernel.  All operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapExceededError, IllConditionedError
from .model import IsingModel, cylinder_dims

BRUTE_FORCE_CAP = 24
TRANSFER_CIRC_CAP = 16
DOS_ENUMERATION_CAP = 30
DOS_TRANSFER_CIRC_CAP = 10

_CHUNK_BITS = 20
_TRANSFER_BLOCK = 256  # points per contraction block: ~256 * 2^n * 16 B per array
_MOMENTUM_BLOCK = 1 << 14  # (momentum, point) entries per block: 256 KiB per array


@dataclass(frozen=True)
class LogComplex:
    """A complex number z = exp(log_magnitude + i*phase), overflow-safe.

    log_magnitude is -inf for the distinguished zero element.  phase is kept
    in (-pi, pi].
    """

    log_magnitude: float
    phase: float

    @classmethod
    def from_log(cls, log_magnitude: float, phase: float) -> "LogComplex":
        if log_magnitude == float("-inf"):
            return cls(float("-inf"), 0.0)
        return cls(float(log_magnitude), _wrap_phase(phase))


def _wrap_phase(p: float) -> float:
    p = math.remainder(p, 2.0 * math.pi)
    if p <= -math.pi:
        p += 2.0 * math.pi
    return p


def _spin_rows(n: int):
    """The 2^n configurations in index order, as (n, chunk) boolean arrays of up
    to 2^_CHUNK_BITS columns; row i is True where spin i is up (bit i is 0)."""
    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        up = np.empty((n, idx.size), dtype=bool)
        for i in range(n):
            np.equal(idx & (1 << i), 0, out=up[i])
        yield up


def _aligned_count(up: np.ndarray, pairs) -> np.ndarray:
    """Aligned (i, j) pairs in each configuration of a spin-row chunk."""
    aligned = np.zeros(up.shape[1], dtype=np.int64)
    for i, j in pairs:
        aligned += up[i] == up[j]
    return aligned


def _kahan_add(total: complex, comp: complex, term: complex) -> tuple[complex, complex]:
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _weighted_sums(model: IsingModel, observable=None, cap: int = BRUTE_FORCE_CAP):
    """Sum of weights (and optionally observable-weighted sum) over all configs.

    Returns (Z, obs_sum, weight_scale) where weight_scale = sum |w| tracks
    conditioning; observable maps a spin-row chunk to per-configuration values.
    Chunked with compensated cross-chunk summation in a fixed partition order.
    """
    n = model.n_spins
    if n > cap:
        raise CapExceededError(f"{n} spins exceeds enumeration cap {cap}")
    z_total, z_comp = 0j, 0j
    o_total, o_comp = 0j, 0j
    scale = 0.0
    for up in _spin_rows(n):
        # where(.., c, -c) is c * s_i s_j exactly; a zero's sign differs, but expo starts at +0
        expo = np.zeros(up.shape[1], dtype=np.complex128)
        for b in model.bonds:
            expo += np.where(up[b.i] == up[b.j], b.coupling, -b.coupling)
        for f in model.fields:
            expo += np.where(up[f.i], f.field, -f.field)
        w = np.exp(-expo)
        z_total, z_comp = _kahan_add(z_total, z_comp, complex(np.sum(w)))
        scale += float(np.sum(np.abs(w)))
        if observable is not None:
            o = observable(up)
            o_total, o_comp = _kahan_add(o_total, o_comp, complex(np.sum(o * w)))
    return z_total, o_total, scale


def brute_force_Z(model: IsingModel, cap: int = BRUTE_FORCE_CAP) -> complex:
    """Exact Z = sum_s exp(-sum K ss - sum H s) over all 2^N configurations."""
    z, _, _ = _weighted_sums(model, cap=cap)
    return z


def brute_force_Z_with_scale(model: IsingModel) -> tuple[complex, float]:
    """Z together with sum |w(s)|, the scale against which |Z| ~ 0 is judged."""
    z, _, scale = _weighted_sums(model)
    return z, scale


def correlation(model: IsingModel, i: int, j: int) -> complex:
    """Exact <s_i s_j> = (1/Z) sum_s s_i s_j w(s).

    Raises IllConditionedError when |Z| is negligible against the total
    weight scale (the working point sits at a partition-function zero).
    """
    n = model.n_spins
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("spin index out of range")
    if i == j:
        return 1.0 + 0j
    z, num, scale = _weighted_sums(model, lambda up: np.where(up[i] == up[j], 1.0, -1.0))
    if abs(z) <= 1e-12 * scale:
        raise IllConditionedError(
            f"|Z| = {abs(z):.3e} is below tolerance at this point; correlation undefined"
        )
    return num / z


def _ring_counts(n_circ: int) -> tuple[np.ndarray, np.ndarray]:
    """(aligned bonds (i, i+1 mod n), up spins) per ring configuration; a ring of
    2 counts (0,1) and (1,0), as build_cylinder's merged double bond does."""
    (up,) = _spin_rows(n_circ)
    return _aligned_count(up, ((i, (i + 1) % n_circ) for i in range(n_circ))), up.sum(axis=0)


def transfer_matrix_Z_grid(
    n_circ: int,
    l_len: int,
    Kx: np.ndarray,
    Ky: np.ndarray,
    H: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cylinder Z for arrays of parameter points, as (log_magnitude, phase).

    Row-to-row contraction with a per-site factorized inter-row kernel
    (O(L * n * 2^n) per point) and per-row rescaling, so 7x7 magnitudes never
    overflow.

    Points are contracted in fixed blocks of _TRANSFER_BLOCK (256), each held
    point-minor as v[state, point], so every elementwise step runs over
    contiguous points.  Peak memory is O(block * 2^n), whatever the number of
    points; each point's arithmetic, and so its result, does not depend on the
    block it falls in.

    At H = 0 momentum_Z_grid gives the same Z in O(n * L) per point, and it
    is what the kicked tasks read; this contraction is the reference it is
    tested against, and the exact Z of field-carrying cylinders.
    """
    if n_circ < 2:
        raise ValueError("cylinder circumference must be >= 2")
    if n_circ > TRANSFER_CIRC_CAP:
        raise CapExceededError(f"n_circ {n_circ} exceeds transfer cap {TRANSFER_CIRC_CAP}")
    if l_len < 1:
        raise ValueError("cylinder length must be >= 1")
    Kx = np.asarray(Kx, dtype=np.complex128).ravel()
    Ky = np.asarray(Ky, dtype=np.complex128).ravel()
    H = np.asarray(H, dtype=np.complex128).ravel()
    npts = max(Kx.size, Ky.size, H.size)
    Kx, Ky, H = (np.broadcast_to(a, (npts,)) for a in (Kx, Ky, H))

    ring, mag = (2.0 * count - n_circ for count in _ring_counts(n_circ))  # sum s_i s_i+1, sum s_i
    log_acc = np.zeros(npts, dtype=np.float64)
    z = np.empty(npts, dtype=np.complex128)
    for lo in range(0, npts, _TRANSFER_BLOCK):
        blk = slice(lo, lo + _TRANSFER_BLOCK)
        row_w = np.exp(-(Kx[blk, None] * ring[None, :] + H[blk, None] * mag[None, :]))
        row_w = np.ascontiguousarray(row_w.T)  # v[state, point]
        v = row_w.copy()
        em, ep = np.exp(-Ky[blk]), np.exp(Ky[blk])
        for _ in range(l_len - 1):
            for site in range(n_circ):  # v <- exp(-Ky sum_i s_i s'_i) v, one butterfly per site
                va = v.reshape(-1, 2, 1 << site, v.shape[1])
                a = va[:, 0].copy()
                b = va[:, 1]
                va[:, 0] = em * a + ep * b
                va[:, 1] = ep * a + em * b
            v *= row_w
            m = np.max(np.abs(v), axis=0)
            v /= np.where(m > 0, m, 1.0)
            with np.errstate(divide="ignore"):
                log_acc[blk] += np.log(m)
        # pairwise sum along contiguous states, in the order of a (points, states) sum
        z[blk] = np.ascontiguousarray(v.T).sum(axis=1)

    with np.errstate(divide="ignore"):
        logmag = log_acc + np.log(np.abs(z))
    phase = np.angle(z)
    return logmag, phase


def transfer_matrix_Z(
    n_circ: int, l_len: int, Kx: complex, Ky: complex, H: complex = 0j
) -> LogComplex:
    """Cylinder partition function via the row-to-row transfer operator."""
    logmag, phase = transfer_matrix_Z_grid(
        n_circ, l_len, np.array([Kx]), np.array([Ky]), np.array([H])
    )
    return LogComplex.from_log(float(logmag[0]), float(phase[0]))


def momentum_Z_grid(
    n_circ: int, l_len: int, Kx: np.ndarray, Ky: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-field cylinder Z for arrays of (Kx, Ky), as (log_magnitude, phase).

    At H = 0 the row transfer is a free-fermion operator (Kaufman, Phys. Rev.
    76, 1232 (1949); Schultz, Mattis and Lieb, Rev. Mod. Phys. 36, 856
    (1964)): after a Hadamard on every site the open ends are the fermion
    vacuum, so only the even antiperiodic sector enters and Z factorises into
    one 2x2 block per momentum pair (q, -q), q = pi (2m + 1) / n in (0, pi):

        Z = 2^n (2 cosh Ky)^{(L-1) [n odd]} prod_q [V_q (D V_q)^{L-1}]_00

    with D = diag(4 cosh^2 Ky, 4 sinh^2 Ky) and V_q = e^{-2 cos q Kx} [[ch +
    cos q sh, i sin q sh], [-i sin q sh, ch - cos q sh]], ch = cosh 2Kx,
    sh = sinh 2Kx; an odd ring's q = pi mode gives the cosh factor.  Each
    block is contracted in the eigenbasis of V_q, where with c = cos(q/2),
    s = sin(q/2) it reads

        x^T A (M A)^{L-1} x,  x = (c, s),  A = diag(e^{4 s^2 Kx}, e^{-4 c^2 Kx}),
        M = 2 [[cosh 2Ky + cos q, sin q], [sin q, cosh 2Ky - cos q]],

    so no entry is a difference of the large terms of ch and sh.  This costs
    O(n * L) per point, against O(L * n * 2^n) for transfer_matrix_Z_grid, and
    every layer is rescaled, so 7x7 magnitudes never overflow.  A ring of 2
    gives its merged double bond, as the transfer does.  Points are taken in
    blocks of about _MOMENTUM_BLOCK / (n/2), so peak memory grows neither with
    their number nor with n.
    """
    if n_circ < 2:
        raise ValueError("cylinder circumference must be >= 2")
    if l_len < 1:
        raise ValueError("cylinder length must be >= 1")
    Kx = np.asarray(Kx, dtype=np.complex128).ravel()
    Ky = np.asarray(Ky, dtype=np.complex128).ravel()
    npts = max(Kx.size, Ky.size)
    Kx, Ky = (np.broadcast_to(a, (npts,)) for a in (Kx, Ky))

    half_q = (np.pi * (2 * np.arange(n_circ // 2) + 1) / (2 * n_circ))[:, None]
    c, s = np.cos(half_q), np.sin(half_q)
    two_cos, two_sin = 2.0 * np.cos(2.0 * half_q), 2.0 * np.sin(2.0 * half_q)
    log_acc = np.full(npts, n_circ * math.log(2.0))
    z = np.empty(npts, dtype=np.complex128)
    step = max(1, _MOMENTUM_BLOCK // len(half_q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, npts, step):
            blk = slice(lo, lo + step)
            a0, a1 = np.exp(4.0 * s * s * Kx[blk]), np.exp(-4.0 * c * c * Kx[blk])
            u, w = c * a0, s * a1  # A x, one row per momentum
            two_ch = 2.0 * np.cosh(2.0 * Ky[blk])  # A M, one layer of the block
            p00, p01 = a0 * (two_ch + two_cos), a0 * two_sin
            p10, p11 = a1 * two_sin, a1 * (two_ch - two_cos)
            for _ in range(l_len - 1):
                m = np.maximum(np.abs(u), np.abs(w))
                m = np.where(m > 0, m, 1.0)
                log_acc[blk] += np.log(m).sum(axis=0)
                u, w = u / m, w / m
                u, w = p00 * u + p01 * w, p10 * u + p11 * w
            zq = c * u + s * w
            m = np.abs(zq)
            log_acc[blk] += np.log(m).sum(axis=0)
            zb = np.prod(zq / np.where(m > 0, m, 1.0), axis=0)  # unit factors: no overflow
            if n_circ % 2 and l_len > 1:  # at L = 1 the factor is 1 and Ky is never read
                pi_mode = (l_len - 1) * np.log(2.0 * np.cosh(Ky[blk]))
                log_acc[blk] += pi_mode.real
                zb *= np.exp(1j * pi_mode.imag)
            z[blk] = zb
        logmag = log_acc + np.log(np.abs(z))
    return logmag, np.angle(z)


@dataclass(frozen=True)
class DensityOfStates:
    """Configuration counts g(b, m) by bond-energy index and magnetization.

    b in [0, B] indexes the bond energy via E_bond = 2b - B; the second table
    axis is v = (m + N) / 2 in [0, N].  The partition function follows as

        Z(K, H) = e^{K B} e^{H N} * sum_{b,v} g[b, v] x^b z^v

    with x = exp(-2K) and z = exp(-2H).  Counts are built on first read, by
    `count`: `table` holds g(b, v); `energy_counts` holds g(b) = sum_v g[b, v],
    which the same count builds with a magnetization axis of length 1, and
    which is all the zero-field Fisher coefficients read.
    """

    n_spins: int
    bond_count: int
    count: Callable[[bool], np.ndarray] = field(repr=False)  # (by magnetization) -> uint64 counts

    @cached_property
    def table(self) -> np.ndarray:
        """(B+1, N+1) uint64 g(b, v)."""
        return self.count(True)

    @cached_property
    def energy_counts(self) -> np.ndarray:
        """(B+1,) uint64 g(b)."""
        return self.count(False)[:, 0]

    def fisher_coefficients(self, H: complex = 0j) -> np.ndarray:
        """Coefficients c_b with Z(K, H) = e^{K B} * sum_b c_b x^b, x = e^{-2K}."""
        if complex(H) == 0:  # every z^v is 1, so c_b = g(b): no (b, v) table is needed
            return self.energy_counts.astype(np.complex128)
        m = 2.0 * np.arange(self.n_spins + 1) - self.n_spins
        z_pow = np.exp(-complex(H) * m)
        return self.table.astype(np.float64) @ z_pow.astype(np.complex128)

    def lee_yang_coefficients(self, K: complex) -> np.ndarray:
        """Coefficients c_v with Z(K, H) = e^{H N} * sum_v c_v z^v, z = e^{-2H}."""
        e = 2.0 * np.arange(self.bond_count + 1) - self.bond_count
        x_pow = np.exp(-complex(K) * e)
        return self.table.T.astype(np.float64) @ x_pow.astype(np.complex128)


def _check_exact_counts(counts: np.ndarray, n_spins: int) -> np.ndarray:
    if float(counts.max(initial=0.0)) >= 2.0**53:
        raise CapExceededError("density-of-states counts exceed exact float64 range (2^53)")
    if sum(map(int, counts.ravel().tolist())) != 2**n_spins:  # in ints: past 2^53 a float sum rounds
        raise AssertionError("density-of-states table does not sum to 2^N")
    return counts.astype(np.uint64)


def _dos_enumerate(model: IsingModel) -> DensityOfStates:
    n, B = model.n_spins, model.bond_count
    if n > DOS_ENUMERATION_CAP:
        raise CapExceededError(f"{n} spins exceeds density-of-states cap {DOS_ENUMERATION_CAP}")
    pairs = [(bd.i, bd.j) for bd in model.bonds]

    def count(by_magnetization: bool) -> np.ndarray:
        n_v = n + 1 if by_magnetization else 1
        counts = np.zeros((B + 1) * n_v, dtype=np.int64)
        for up in _spin_rows(n):
            b = _aligned_count(up, pairs)  # (B + sum ss)/2
            v = up.sum(axis=0) if by_magnetization else 0  # (m + N)/2
            counts += np.bincount(b * n_v + v, minlength=counts.size)
        return _check_exact_counts(counts.reshape(B + 1, n_v), n)

    return DensityOfStates(n, B, count)


def _dos_cylinder_transfer(n_circ: int, l_len: int) -> DensityOfStates:
    n_tot = n_circ * l_len
    B = 2 * n_circ * l_len - n_circ
    dim = 1 << n_circ
    ring_b, ring_ups = _ring_counts(n_circ)  # per-row aligned-bond and up-spin counts
    flip = np.arange(dim)[:, None] ^ (1 << np.arange(n_circ))[None, :]

    def count(by_magnetization: bool) -> np.ndarray:
        # state[s, b, v]: weight of partial cylinders ending in row config s;
        # without the magnetization every row adds v = 0 to an axis of length 1
        ups = ring_ups if by_magnetization else np.zeros_like(ring_ups)
        n_v = n_tot + 1 if by_magnetization else 1
        state = np.zeros((dim, B + 1, n_v), dtype=np.float64)
        state[np.arange(dim), ring_b, ups] = 1.0
        for _ in range(l_len - 1):
            for site in range(n_circ):
                partner = state[flip[:, site]]
                shifted = np.zeros_like(state)
                shifted[:, 1:, :] = state[:, :-1, :]  # aligned y-bond: b += 1
                state = shifted + partner  # anti-aligned partner: b += 0
            new_state = np.zeros_like(state)
            for a in range(dim):
                db, dv = int(ring_b[a]), int(ups[a])
                new_state[a, db:, dv:] = state[a, : B + 1 - db, : n_v - dv]
            state = new_state
        return _check_exact_counts(state.sum(axis=0), n_tot)

    return DensityOfStates(n_tot, B, count)


def density_of_states(model: IsingModel) -> DensityOfStates:
    """Exact g(b, m) counts for a model with one shared coupling symbol, built
    on first read (DensityOfStates.table, .energy_counts).

    Models whose bonds form a cylinder (cylinder_dims) with a ring of 3 to
    DOS_TRANSFER_CIRC_CAP spins, periodic chains among them, go through the
    polynomial-valued transfer matrix; all others are enumerated.  Fields must
    be absent or homogeneous (the table resolves the field dependence only
    through the total magnetization).  Bond-free models are allowed (B = 0, Lee-Yang use).
    """
    if model.bonds:
        model.homogeneous_coupling()
    if model.fields:
        h0 = model.fields[0].field
        if len(model.fields) != model.n_spins or any(f.field != h0 for f in model.fields):
            raise ValueError("density of states requires absent or homogeneous fields")
    dims = cylinder_dims(model)
    if dims is not None and 3 <= dims[0] <= DOS_TRANSFER_CIRC_CAP:
        return _dos_cylinder_transfer(*dims)
    return _dos_enumerate(model)
