"""Projection noise on return-probability maps and zero detectability.

A measured map replaces each true probability L by Binomial(n, L)/n.  Every
grid point draws from its own RNG stream keyed by (seed, iy, ix), so a noisy
scan is reproducible from its seed alone: the draw is exactly that of
`default_rng((seed, iy, ix)).binomial(n, L)`.

The streams need no Generator per cell.  Their SeedSequence words are hashed
for all cells at once, each cell's PCG64 (O'Neill, HMC-CS-2014-0905) runs in
uint64 limb arithmetic, and numpy's binomial sampler runs over arrays of
cells: the inversion branch, n * min(L, 1 - L) <= 30, and the BTPE branch
(Kachitvichyanukul and Schmeiser, CACM 31, 216 (1988)) elsewhere.  numpy's exp
and log may round differently from the C library's, and a C build may fuse a
multiply-add, so a cell keeps its count only where each comparison and floor
argument of its run cleared _MARGIN.  numpy's own per-cell draw, seeded with
the same words, takes the cells inside the margin and every cell from 2^53
shots on; only then is numpy.random imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .zeros import GridSpec, ScanGrid, minima_mask

# numpy draws and flips the counts in int64
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class NoisyGrid:
    base: ScanGrid  # true L, log-scale values
    estimates: np.ndarray  # (n_im, n_re) L-hat in {0, 1/n, ..., 1}, NaN where L is NaN
    n_shots: int
    seed: int

    @property
    def spec(self) -> GridSpec:
        return self.base.spec


def true_probabilities(grid: ScanGrid) -> np.ndarray:
    """Linear probabilities from a log-scale L grid, NaN where L is undefined;
    rejects values beyond 1."""
    with np.errstate(over="raise"):
        p = np.exp(grid.values)
    if np.any(p > 1.0 + 1e-9):
        raise ValueError(f"grid contains probabilities above 1 (max {np.nanmax(p):.3g})")
    return np.clip(p, 0.0, 1.0)


# numpy's SeedSequence mixing hash (numpy/random/bit_generator.pyx); uint32 arithmetic
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _int_words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from a non-negative int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _stream_words(seed: int, n_im: int, n_re: int) -> np.ndarray:
    """SeedSequence((seed, iy, ix)).generate_state(4, np.uint64) for every cell.

    One pass of numpy's uint32 mixing hash over arrays of cells, shape
    (n_im, n_re, 4).  The hash constants advance once per hashmix whatever the
    data, so every cell walks the same constant sequence.
    """
    iy = np.arange(n_im, dtype=np.uint32)[:, None]
    ix = np.arange(n_re, dtype=np.uint32)[None, :]
    entropy = [np.full((1, 1), w, dtype=np.uint32) for w in _int_words(seed)] + [iy, ix]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> 16)

    zero = np.zeros((1, 1), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = np.empty((n_im, n_re, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[..., i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128), as uint64 limbs
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(_MASK32)


def _mul_hi64(a, b):
    """The high 64 bits of each 128-bit product a * b of uint64 values."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, b_hi, b_lo):
    lo = lo + b_lo
    return hi + b_hi + (lo < b_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step, state * multiplier + inc modulo 2^128, on (hi, lo) limbs."""
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mul_hi64(lo, _PCG_MULT_LO)
    return _add128(hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _seeded(words: np.ndarray) -> np.ndarray:
    """PCG64 seeded with each row of words, shape (m, 4), as its limbs
    (hi, lo, inc_hi, inc_lo), shape (4, m).

    As numpy's pcg64_set_seed: initstate = words[0:2], initseq = words[2:4]
    (high limb first); state 0, inc = (initseq << 1) | 1, step, add initstate,
    step.
    """
    w0, w1, w2, w3 = words.T
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, w0, w1)  # the first step from state 0 gives inc
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo])


def _next_double(state: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """numpy's next_double for the streams state[:, cells], which step in place.

    Each steps once, folds its state by XSL-RR and keeps the top 53 bits.
    """
    hi, lo = _pcg_step(*state.take(cells, axis=1))  # take: 3x faster than state[:, cells]
    state[0, cells], state[1, cells] = hi, lo
    value, rot = hi ^ lo, hi >> 58
    value = (value >> rot) | (value << ((64 - rot) & 63))
    return (value >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


# numpy's exp and log may differ from libm's in the last bits, and a C build
# may fuse a multiply-add: a comparison or floor argument this close (relative
# to the magnitudes it is made of) could go the other way in numpy's C sampler
_MARGIN = 1e-12


# cells (and BTPE attempts) per vectorised pass: on the 100x100 K window noisy_scan's
# allocations peak at 1.27 MB for the 7x7 cylinder at 5000 shots and at 1.99 MB for
# 3x3, where 4589 cells take BTPE (1.11 MB of it in _stream_words); with blocks of
# 8192 the inversion cells alone peaked at 1.84 MB
_BLOCK = 2048


def _near(a, b, scale):
    return np.abs(a - b) <= _MARGIN * scale


def _near_int(x, scale):
    return _near(x, np.round(x), scale)


def _inversion_counts(draw, p: np.ndarray, n: int) -> np.ndarray:
    """numpy's random_binomial_inversion(n, p) for every cell.

    p <= 0.5 and n * p <= 30 in every cell; draw(cells) gives the next double
    of each listed cell's stream.  The cells of one sweep step X together, so
    X is one integer per pass.  The C loop's U > px is d = U - px > 0, and its
    next U is that d.  A cell whose X passes the bound, (int64) min(n, ex),
    starts over on a new U in the next sweep, as the C loop does.  Returns X,
    or -1 where some d fell within _MARGIN of 0 or X came within _MARGIN * ex
    of ex: those cells must take numpy's own draw.
    """
    q = 1.0 - p
    qn = np.exp(n * np.log(q))
    npq = n * p
    ex = npq + 10.0 * np.sqrt(npq * q + 1)
    # for an integer x, x > (int64) min(n, ex) iff x > min(n, ex); where ex lies
    # within the margin of an integer, the sweep stops there too, to drop the cell
    bound = np.minimum(n, np.where(_near_int(ex, ex), np.round(ex) - 0.5, ex))
    out = np.full(p.size, -1, dtype=np.int64)
    start = np.arange(p.size)
    while start.size:
        cells = start
        px, pc, qc, bc = qn[cells], p[cells], q[cells], bound[cells]
        d = draw(cells) - px
        x, again, lowest = 0, [], -1.0
        while cells.size:
            out[cells[d < -_MARGIN]] = x
            x += 1
            keep = d > _MARGIN
            if x > lowest:  # lowest: the least bound of the cells that go on
                past = keep & (x > bc)
                again.append(cells[past & ~_near(x, ex[cells], ex[cells])])
                keep &= ~past
                lowest = np.min(bc, where=keep, initial=np.inf)
            cells, d, px, pc, qc, bc = (a[keep] for a in (cells, d, px, pc, qc, bc))
            px = ((n - x + 1) * pc * px) / (x * qc)
            d = d - px
        start = np.concatenate(again)
    return out


def _stirling(f):
    f2 = f * f
    return (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f / 166320.


def _ratio_product(op, a, s, start, k):
    """op(...op(op(1, a/(start+1) - s), a/(start+2) - s)..., a/(start+k) - s)
    per cell, left to right as numpy's C loop runs; 64 factors at a time."""
    F = np.ones(k.size)
    top = int(k.max(initial=0))
    for j0 in range(0, top, 64):
        j = np.arange(j0 + 1, min(j0 + 64, top) + 1)[:, None]
        f = np.where(j <= k, a / (start + j) - s, 1.0)
        F = op.accumulate(np.vstack([F, f]), axis=0)[-1]
    return F


def _btpe_counts(draw, r: np.ndarray, n: int) -> np.ndarray:
    """numpy's random_binomial_btpe(n, r) for every cell, r <= 0.5 and n r > 30.

    Kachitvichyanukul and Schmeiser's algorithm, with the steps numbered as in
    numpy's C source; draw(cells) gives the next double of each listed cell's
    stream.  Each pass draws U and V for up to 8 attempts of every live cell
    (at most _BLOCK attempts in all) and runs each region of the hat on its
    own attempts; a cell whose attempts all reject stays live.  A cell keeps
    its count only where every floor argument and every comparison its C run
    makes cleared _MARGIN times the sum of the magnitudes it is made of, which
    bounds how far a libm log or a fused multiply-add could move them.
    Returns the count, or -1 for the other cells, which must take numpy's own
    draw.
    """
    q = 1.0 - r
    fm = n * r + r
    m = np.floor(fm)
    nrq = n * r * q
    root = 2.195 * np.sqrt(nrq)
    p1 = np.floor(root - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    table = np.array([r, q, nrq, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4])
    out = np.full(r.size, -1, dtype=np.int64)
    live = np.flatnonzero(~(_near_int(fm, fm) | _near_int(root - 4.6 * q, root + 4.6 * q)))
    while live.size:
        # Step10 for `tries` attempts of every live cell at once, attempt-major:
        # a cell's later attempts draw on from its earlier ones, and only the
        # first that does not reject counts.  About 1 in 5 attempts rejects.
        tries = min(8, max(1, _BLOCK // live.size))
        uv = np.concatenate([draw(live) for _ in range(2 * tries)]).reshape(tries, 2, -1)
        cell = np.tile(live, tries)
        u = uv[:, 0].ravel() * p4[cell]
        region = (u > p1[cell]).astype(np.int8) + (u > p2[cell]) + (u > p3[cell])
        # sorted by region, each region of the hat is a slice
        order = np.argsort(region, kind="stable")
        u, v = u[order], uv[:, 1].ravel()[order]
        r, q, nrq, m, p1_, xm, xl, xr, c, laml, lamr, p2_, p3_, p4_ = table.take(cell[order], axis=1)
        e1, e2, e3 = np.cumsum(np.bincount(region, minlength=4))[:3].tolist()
        lost = _near(u, p1_, p4_) | _near(u, p2_, p4_) | _near(u, p3_, p4_)
        reject = np.zeros(u.size, dtype=bool)
        y, vs = np.empty(u.size), np.empty(u.size)

        s = slice(0, e1)  # u <= p1: accept floor(xm - p1 v + u)
        arg = xm[s] - p1_[s] * v[s] + u[s]
        lost[s] |= _near_int(arg, xm[s] + p1_[s] * v[s] + u[s])
        y[s] = np.floor(arg)

        s = slice(e1, e2)  # Step20
        x = xl[s] + (u[s] - p1_[s]) / c[s]
        xs = np.abs(xl[s]) + (u[s] + p1_[s]) / c[s]
        vs[s] = v[s] * c[s] + 1.0 + (xm[s] + xs) / p1_[s]
        v[s] = v[s] * c[s] + 1.0 - np.abs(m[s] - x + 0.5) / p1_[s]
        reject[s] = v[s] > 1.0
        lost[s] |= _near(v[s], 1.0, vs[s]) | (_near_int(x, xs) & ~reject[s])
        y[s] = np.floor(x)

        for s, lam, base, sign, corner in ((slice(e2, e3), laml, xl, 1.0, p2_),
                                           (slice(e3, None), lamr, xr, -1.0, p3_)):
            # Step30 (left tail) and Step40 (right tail); V = 0 rejects
            zero = v[s] == 0.0
            step = sign * np.log(np.where(zero, 1.0, v[s])) / lam[s]
            arg = base[s] + step
            y[s] = np.floor(arg)
            reject[s] = zero | (y[s] < 0) | (y[s] > n)
            lost[s] |= _near_int(arg, np.abs(base[s]) + np.abs(step)) & ~zero
            vs[s] = v[s] * (u[s] + corner[s]) * lam[s]
            v[s] = v[s] * (u[s] - corner[s]) * lam[s]

        # Step50
        test = np.flatnonzero(~(lost[e1:] | reject[e1:])) + e1
        k = np.abs(y[test] - m[test])
        squeeze = (k > 20) & (k < nrq[test] / 2.0 - 1)
        for up, op in ((True, np.multiply), (False, np.divide)):
            f = test[~squeeze & ((y[test] > m[test]) == up)]
            if f.size:
                start = np.minimum(y[f], m[f])
                ratio = r[f] / q[f]
                F = _ratio_product(op, ratio * (n + 1), ratio, start, np.abs(y[f] - m[f]))
                lost[f] |= _near(v[f], F, vs[f] + F)
                reject[f] = v[f] > F

        # Step52
        b, k = test[squeeze], k[squeeze]
        if b.size:
            rho = (k / nrq[b]) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq[b] + 0.5)
            t = -(k * k) / (2 * nrq[b])
            with np.errstate(divide="ignore"):  # V = 0 gives log 0, and a lost cell
                A = np.log(v[b])
                As = np.abs(A) + vs[b] / v[b]
            scale = As + np.abs(t) + rho
            lost[b] |= _near(A, t - rho, scale) | ((A >= t - rho) & _near(A, t + rho, scale))
            reject[b] = A > t + rho
            b, A, As = (z[(A >= t - rho) & (A <= t + rho)] for z in (b, A, As))
            if b.size:
                x1, f1 = y[b] + 1, m[b] + 1
                z, w = n + 1 - m[b], n - y[b] + 1
                terms = (xm[b] * np.log(f1 / x1), (n - m[b] + 0.5) * np.log(z / w),
                         (y[b] - m[b]) * np.log(w * r[b] / (x1 * q[b])),
                         _stirling(f1), _stirling(z), _stirling(x1), _stirling(w))
                bound = terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + terms[5] + terms[6]
                lost[b] |= _near(A, bound, As + sum(np.abs(terms)))
                reject[b] = A > bound

        # each cell's first attempt that does not reject: -1 where it is lost
        result = np.empty(u.size)
        result[order] = np.where(lost, -1.0, np.where(reject, -2.0, y))
        result = result.reshape(tries, live.size)
        first = result[(result == -2.0).argmin(axis=0), np.arange(live.size)]
        done = first != -2.0
        out[live[done]] = first[done]
        live = live[~done]
    return out


def noisy_scan(true_grid: ScanGrid, n_shots: int, seed: int) -> NoisyGrid:
    """Binomial projection noise, one independent stream per grid point.

    Cell (iy, ix) draws from exactly the stream of `default_rng((seed, iy,
    ix))`, so each estimate depends only on the seed, its cell and its true L.
    A cell whose true L is NaN draws nothing and stays NaN.
    The streams' SeedSequence words are hashed for all cells in one pass
    (_stream_words).  numpy's binomial sampler then runs in blocks of _BLOCK
    cells, on each cell's PCG64 stream (_seeded, _next_double): the inversion
    loop where n * min(p, 1 - p) <= 30 (_inversion_counts), BTPE elsewhere
    (_btpe_counts).  Both draw with min(p, 1 - p) and the count is n - X where
    p > 0.5, as numpy's random_binomial does.  A Generator per cell, fed the
    same words, draws only the cells with a comparison or floor argument
    within _MARGIN, and every cell from 2^53 shots on, where n and the counts
    as float64 would round; numpy.random is imported only when such a cell
    exists.  Distributionally identical to full multinomial shot sampling of
    the all-initial-state event.
    """
    if not 1 <= n_shots <= MAX_SHOTS:
        raise ValueError(f"n_shots must be in [1, 2^63 - 1], got {n_shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    p = true_probabilities(true_grid)
    words = _stream_words(seed, *p.shape).reshape(-1, 4)
    flat = p.ravel()
    est = np.full_like(flat, np.nan)
    cells = np.flatnonzero(~np.isnan(flat))
    # numpy's random_binomial draws with min(p, 1 - p) and flips the count
    flip = flat[cells] > 0.5
    p_small = np.where(flip, 1.0 - flat[cells], flat[cells])
    inversion = p_small * n_shots <= 30.0
    counts = np.full(cells.size, -1, dtype=np.int64)
    if n_shots < 2**53:  # past it, n and the counts as float64 would round
        for kernel, chosen in ((_inversion_counts, inversion), (_btpe_counts, ~inversion)):
            chosen = np.flatnonzero(chosen)
            for start in range(0, chosen.size, _BLOCK):
                block = chosen[start:start + _BLOCK]
                draw = partial(_next_double, _seeded(words[cells[block]]))
                counts[block] = kernel(draw, p_small[block], n_shots)
    drawn = counts >= 0
    counts = np.where(flip, n_shots - counts, counts)
    est[cells[drawn]] = counts[drawn] / n_shots
    rest = cells[~drawn]
    if rest.size:
        # numpy.random loads here, not at import: runs that draw nothing never pay for it
        from numpy.random import PCG64, Generator
        from numpy.random.bit_generator import ISeedSequence

        class CellSeed(ISeedSequence):
            """A cell's precomputed SeedSequence words, as PCG64 reads them."""

            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words  # PCG64 asks for (4, np.uint64)

        for c in rest.tolist():
            rng = Generator(PCG64(CellSeed(words[c])))
            est[c] = rng.binomial(n_shots, flat[c]) / n_shots
    return NoisyGrid(true_grid, est.reshape(p.shape), n_shots, seed)


def noisy_minima_mask(
    noisy: NoisyGrid, count_threshold: int = 1
) -> np.ndarray:
    """Cells that are non-strict 8-neighborhood minima of the measured map and
    darker than count_threshold counts.

    Non-strict comparison keeps plateaus of exact-zero counts detectable.  NaN
    cells count as +inf, as in find_minima.
    """
    est = np.where(np.isnan(noisy.estimates), np.inf, noisy.estimates)
    return minima_mask(est, np.less_equal) & (est <= count_threshold / noisy.n_shots)


@dataclass(frozen=True)
class ZeroDetection:
    zero: complex
    cell: tuple[int, int]
    nearest_minimum: tuple[int, int] | None
    distance_cells: float


@dataclass(frozen=True)
class DetectabilityReport:
    detections: tuple[ZeroDetection, ...]
    radius_cells: float
    count_threshold: int

    def fraction_within(self) -> float:
        """Share of the true zeros with a noisy minimum within radius_cells."""
        if not self.detections:
            return 1.0
        hit = sum(1 for d in self.detections if d.distance_cells <= self.radius_cells)
        return hit / len(self.detections)


def detectability(
    noisy: NoisyGrid,
    true_zeros,
    radius_cells: float = 2.0,
    count_threshold: int = 1,
) -> DetectabilityReport:
    """Chebyshev cell distance from each true zero to the nearest noisy minimum."""
    mask = noisy_minima_mask(noisy, count_threshold)
    min_cells = np.argwhere(mask)
    detections = []
    for zero in true_zeros:
        zero = complex(zero)
        if not noisy.spec.contains(zero):
            raise ValueError(f"true zero {zero:.6g} lies outside the grid window")
        cell = noisy.spec.nearest_cell(zero)
        if len(min_cells) == 0:
            detections.append(ZeroDetection(zero, cell, None, math.inf))
            continue
        cheb = np.max(np.abs(min_cells - np.array(cell)), axis=1)
        k = int(np.argmin(cheb))
        detections.append(
            ZeroDetection(zero, cell, (int(min_cells[k][0]), int(min_cells[k][1])), float(cheb[k]))
        )
    return DetectabilityReport(tuple(detections), radius_cells, count_threshold)
