"""Projection noise on return-probability maps and zero detectability.

A measured map replaces each true probability L by Binomial(n, L)/n.  Every
grid point draws from its own RNG stream keyed by (seed, iy, ix), so a noisy
scan is reproducible from its seed alone: the draw is exactly that of
`default_rng((seed, iy, ix)).binomial(n, L)`.

The streams need no Generator per cell.  Their SeedSequence words are hashed
for all cells at once, each cell's PCG64 (O'Neill, HMC-CS-2014-0905) gives its
first double in uint64 limb arithmetic, and numpy's inversion sampler, the
branch n * min(L, 1 - L) <= 30, runs over the array of cells.  numpy's exp and
log may round differently from the C library's, so a cell keeps its count only
where each comparison of its loop cleared _MARGIN.  The other cells take
numpy's own per-cell draw, seeded with the same words: the BTPE branch
(Kachitvichyanukul and Schmeiser, CACM 31, 216 (1988)), cells whose inversion
would draw a second number, and cells inside the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _first_doubles(words: np.ndarray) -> np.ndarray:
    """The first next_double of PCG64 seeded with each row of words, shape (m, 4).

    As numpy's pcg64_set_seed: initstate = words[0:2], initseq = words[2:4]
    (high limb first); state 0, inc = (initseq << 1) | 1, step, add initstate,
    step.  The draw steps once more, folds the state by XSL-RR and keeps the
    top 53 bits.
    """
    w0, w1, w2, w3 = words.T
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, w0, w1)  # the first step from state 0 gives inc
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    value, rot = hi ^ lo, hi >> 58
    value = (value >> rot) | (value << ((64 - rot) & 63))
    return (value >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


# numpy's exp and log may differ from libm's in the last bits; a comparison of
# U with px this close could go the other way in numpy's C sampler
_MARGIN = 1e-12


def _inversion_counts(u: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """numpy's random_binomial_inversion(n, p) for every cell, given its first U.

    p <= 0.5 and n * p <= 30 in every cell.  All cells step X together, so X
    is one integer per pass.  The C loop's U > px is d = U - px > 0, and its
    next U is that d.  Returns X, or -1 where the C loop would draw again (X
    passes the bound) or where some d fell within _MARGIN of 0: those cells
    must take numpy's own draw.
    """
    q = 1.0 - p
    px = np.exp(n * np.log(q))
    npq = n * p
    bound = np.minimum(n, npq + 10.0 * np.sqrt(npq * q + 1))
    out = np.full(u.shape, -1, dtype=np.int64)
    cells = np.arange(u.size)
    d = u - px
    x = 0
    while cells.size:
        out[cells[d < -_MARGIN]] = x
        x += 1
        keep = (d > _MARGIN) & (x <= bound)  # for an integer x, x > (int64) bound iff x > bound
        cells, d, px, p, q, bound = (a[keep] for a in (cells, d, px, p, q, bound))
        px = ((n - x + 1) * p * px) / (x * q)
        d = d - px
    return out


# cells per vectorised pass: on a 100x100 grid noisy_scan's allocations peak at
# 1.19 MB with blocks of 2048 (1.11 MB of it in _stream_words), at 1.84 MB with 8192
_BLOCK = 2048


def noisy_scan(true_grid: ScanGrid, n_shots: int, seed: int) -> NoisyGrid:
    """Binomial projection noise, one independent stream per grid point.

    Cell (iy, ix) draws from exactly the stream of `default_rng((seed, iy,
    ix))`, so each estimate depends only on the seed, its cell and its true L.
    A cell whose true L is NaN draws nothing and stays NaN.
    The streams' SeedSequence words are hashed for all cells in one pass
    (_stream_words).  The cells on numpy's inversion branch, n * min(p, 1 - p)
    <= 30, are drawn together in blocks of _BLOCK: each one's first PCG64
    double (_first_doubles), then the inversion loop over the block
    (_inversion_counts); where p > 0.5 the loop draws with 1 - p and the count
    is n - X, as numpy's random_binomial does.  A Generator per cell, fed the
    same words, draws the rest: the BTPE cells, the cells whose inversion would
    draw again, and the cells with a comparison within _MARGIN.  numpy.random
    is imported only when such a cell exists.  Distributionally identical to
    full multinomial shot sampling of the all-initial-state event.
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
    # past 2^53 shots, n and the counts as float64 would round
    inversion = np.flatnonzero((p_small * n_shots <= 30.0) & (n_shots < 2**53))
    counts = np.full(cells.size, -1, dtype=np.int64)
    for start in range(0, inversion.size, _BLOCK):
        block = inversion[start:start + _BLOCK]
        u = _first_doubles(words[cells[block]])
        counts[block] = _inversion_counts(u, p_small[block], n_shots)
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
