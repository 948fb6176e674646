"""Projection noise on return-probability maps and zero detectability.

A measured map replaces each true probability L by Binomial(n, L)/n.  Every
grid point draws from its own RNG stream keyed by (seed, iy, ix), so a noisy
scan is reproducible from its seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .zeros import GridSpec, ScanGrid, minima_mask


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


def noisy_scan(true_grid: ScanGrid, n_shots: int, seed: int) -> NoisyGrid:
    """Binomial projection noise, one independent stream per grid point.

    Cell (iy, ix) draws from exactly the stream of `default_rng((seed, iy,
    ix))`, so each estimate depends only on the seed, its cell and its true L.
    A cell whose true L is NaN draws nothing and stays NaN.
    The streams' SeedSequence words are hashed for all cells in one pass
    (_stream_words) and handed to each cell's PCG64.  Distributionally
    identical to full multinomial shot sampling of the all-initial-state
    event.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # numpy.random loads here, not at import: runs that draw nothing never pay for it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class CellSeed(ISeedSequence):
        """A cell's precomputed SeedSequence words, as PCG64 reads them."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for (4, np.uint64)

    p = true_probabilities(true_grid)
    words = _stream_words(seed, *p.shape)
    est = np.full_like(p, np.nan)
    for iy, ix in zip(*np.nonzero(~np.isnan(p))):
        rng = Generator(PCG64(CellSeed(words[iy, ix])))
        est[iy, ix] = rng.binomial(n_shots, p[iy, ix]) / n_shots
    return NoisyGrid(true_grid, est, n_shots, seed)


def error_stats(
    L: float, n_shots: int, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical (mean, variance) of L-hat over repeated n-shot estimates.

    The estimator is unbiased with variance L(1-L)/n.
    """
    if not 0.0 <= L <= 1.0:
        raise ValueError("L must be a probability")
    if trials < 100:
        raise ValueError("need at least 100 trials for stable statistics")
    rng = np.random.default_rng((seed, n_shots, trials))
    draws = rng.binomial(n_shots, L, size=trials) / n_shots
    return float(draws.mean()), float(draws.var())


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
