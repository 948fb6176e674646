"""Exact Ising partition functions computed without pfzeros.

The benchmark checks every pfzeros output against these values, so this
module imports nothing from pfzeros and shares none of its algorithms: the
cylinder goes through a dense 2^n x 2^n row-to-row transfer matrix (pfzeros
factorizes that kernel site by site), and small graphs are summed
configuration by configuration.

Conventions are the paper's and the program's: a configuration s in
{-1, +1}^N has weight w(s) = exp(-sum_bonds K s_i s_j - sum_i H s_i), so
ferromagnetic order is negative real K.  A cylinder has l_len rows, each a
periodic ring of n_circ spins, joined row to row by n_circ bonds; spin (i, r)
has index r * n_circ + i.
"""

from __future__ import annotations

import math

import numpy as np

BRUTE_FORCE_MAX_SPINS = 12
_POINTS_PER_CHUNK = 64


def _spins(n: int) -> np.ndarray:
    """All 2^n configurations as rows of +-1; bit q of the index set means s_q = -1."""
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)


def _log_transfer(n_circ: int, l_len: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln|Z|, arg Z) of the isotropic field-free cylinder at each coupling in k
    (real or complex; real couplings stay in real arithmetic).

    Z = 1^T D (T D)^(l_len - 1) 1 with D = diag(exp(-K ring(s))) and the dense
    T[s, s'] = exp(-K s.s').  Each row step is rescaled by its largest entry so
    large lattices cannot overflow.
    """
    s = _spins(n_circ)
    ring = (s * np.roll(s, -1, axis=1)).sum(axis=1).astype(np.float64)
    # s.s' takes the n_circ + 1 values n_circ - 2h; T is gathered from their weights
    levels = n_circ - 2.0 * np.arange(n_circ + 1)
    level_of = (n_circ - s @ s.T) // 2
    log_mag = np.empty(k.size)
    phase = np.empty(k.size)
    for lo in range(0, k.size, _POINTS_PER_CHUNK):
        kc = k[lo : lo + _POINTS_PER_CHUNK, None]
        d = np.exp(-kc * ring)
        t = np.take(np.exp(-kc * levels), level_of, axis=1)
        v = d.copy()
        log_acc = np.zeros(len(kc))
        for _ in range(l_len - 1):
            v = np.matmul(v[:, None, :], t)[:, 0, :] * d
            m = np.abs(v).max(axis=1)
            v /= m[:, None]
            log_acc += np.log(m)
        z = v.sum(axis=1)
        with np.errstate(divide="ignore"):
            log_mag[lo : lo + len(kc)] = log_acc + np.log(np.abs(z))
        phase[lo : lo + len(kc)] = np.angle(z)
    return log_mag, phase


def cylinder_z(n_circ: int, l_len: int, K) -> tuple[np.ndarray, np.ndarray]:
    """Z / sum|w| and ln sum|w| of the isotropic field-free cylinder at couplings K.

    sum_s |w(s)| = Z(Re K), the scale against which |Z| ~ 0 is judged.  Both
    results have the shape of K.
    """
    if n_circ < 2 or l_len < 1:
        raise ValueError("cylinder needs n_circ >= 2 and l_len >= 1")
    k = np.asarray(K, dtype=np.complex128)
    flat = k.ravel()
    log_z, phase = _log_transfer(n_circ, l_len, flat)
    log_s, _ = _log_transfer(n_circ, l_len, np.ascontiguousarray(flat.real))
    z_norm = np.exp(log_z - log_s + 1j * phase)
    return z_norm.reshape(k.shape), log_s.reshape(k.shape)


def cylinder_bonds(n_circ: int, l_len: int, kx: complex, ky: complex) -> list[tuple[int, int, complex]]:
    """Edge list of a cylinder with ring coupling kx and row-to-row coupling ky (n_circ >= 3)."""
    if n_circ < 3:
        raise ValueError("a ring of fewer than 3 spins has no simple edge list")
    bonds = []
    for r in range(l_len):
        for i in range(n_circ):
            bonds.append((r * n_circ + i, r * n_circ + (i + 1) % n_circ, kx))
    for r in range(l_len - 1):
        for i in range(n_circ):
            bonds.append((r * n_circ + i, (r + 1) * n_circ + i, ky))
    return bonds


def brute_force(n_spins: int, bonds, fields=(), pairs=()) -> tuple[complex, float, dict]:
    """Z, sum|w| and <s_i s_j> for each (i, j) in pairs, summed over all 2^N configurations."""
    if n_spins > BRUTE_FORCE_MAX_SPINS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_SPINS} spins")
    s = _spins(n_spins).astype(np.float64)
    expo = np.zeros(len(s), dtype=np.complex128)
    for i, j, k in bonds:
        expo += complex(k) * s[:, i] * s[:, j]
    for i, h in fields:
        expo += complex(h) * s[:, i]
    w = np.exp(-expo)
    z = complex(w.sum())
    corr = {(i, j): complex((s[:, i] * s[:, j] * w).sum()) / z for i, j in pairs}
    return z, float(np.abs(w).sum()), corr


def kicked_log_l(n_circ: int, l_len: int, K) -> np.ndarray:
    """ln of the kicked protocol's return probability L on the isotropic cylinder.

    The kick field H realizes the row-to-row coupling through tanh H = t with
    t = -e^(2K), and

        ln L = n(l-1) ln|sinh 2H| - n(l+1) ln 2 + ln|Z(K)|^2
               - 2 (n l |Re K| + n(l-1) |Re H|).

    |sinh 2H| = 2|t| / |1 - t^2| and Re H = ln|(1+t)/(1-t)| / 2 follow from t
    alone, so no branch of artanh is chosen.
    """
    k = np.asarray(K, dtype=np.complex128)
    n, rows = n_circ, l_len
    z_norm, log_s = cylinder_z(n, rows, k)
    t = -np.exp(2.0 * k)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where t = +-1: H is infinite
        log_sinh2h = math.log(2.0) + np.log(np.abs(t)) - np.log(np.abs(1.0 - t * t))
        re_h = 0.5 * (np.log(np.abs(1.0 + t)) - np.log(np.abs(1.0 - t)))
        log_z2 = 2.0 * (np.log(np.abs(z_norm)) + log_s)
        return (
            n * (rows - 1) * log_sinh2h
            - n * (rows + 1) * math.log(2.0)
            + log_z2
            - 2.0 * (n * rows * np.abs(k.real) + n * (rows - 1) * np.abs(re_h))
        )
