import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import Pointwise, child_env
from noise_reference import error_stats
from pfzeros.circuits import compile_general
from pfzeros.evaluators import KickedProbabilityEvaluator
from pfzeros.model import from_edge_list
from pfzeros.noise import (
    _MARGIN,
    NoisyGrid,
    _inversion_counts,
    _stream_words,
    detectability,
    noisy_minima_mask,
    noisy_scan,
    true_probabilities,
)
from pfzeros.statevector import run_full, sample_shots
from pfzeros.zeros import GridSpec, ScanGrid, scan


def l_grid(fn, spec):
    return scan(Pointwise(lambda w: math.log(fn(w)) if fn(w) > 0 else float("-inf")), spec)


class TestNoisyScan:
    def test_seed_determinism(self):
        spec = GridSpec(-1, 1, -1, 1, 12, 10)
        grid = l_grid(lambda w: 0.3, spec)
        a = noisy_scan(grid, 500, seed=7)
        b = noisy_scan(grid, 500, seed=7)
        assert np.array_equal(a.estimates, b.estimates)
        c = noisy_scan(grid, 500, seed=8)
        assert not np.array_equal(a.estimates, c.estimates)

    def test_degenerate_probabilities(self):
        spec = GridSpec(-1, 1, -1, 1, 6, 6)
        zeros = noisy_scan(l_grid(lambda w: 0.0, spec), 100, seed=1)
        assert np.all(zeros.estimates == 0.0)
        ones = noisy_scan(l_grid(lambda w: 1.0, spec), 100, seed=1)
        assert np.all(ones.estimates == 1.0)

    def test_estimates_are_count_fractions(self):
        spec = GridSpec(-1, 1, -1, 1, 8, 8)
        n = 37
        noisy = noisy_scan(l_grid(lambda w: 0.37, spec), n, seed=2)
        counts = noisy.estimates * n
        assert np.allclose(counts, np.round(counts))

    def test_rejects_probabilities_above_one(self):
        spec = GridSpec(-1, 1, -1, 1, 4, 4)
        grid = ScanGrid(spec, np.full((4, 4), 0.5))  # ln L = 0.5 -> L ~ 1.65
        with pytest.raises(ValueError):
            noisy_scan(grid, 10, seed=0)

    def test_shot_count_range(self):
        # the counts are int64, so 2^63 - 1 shots is the most a cell can draw
        grid = l_grid(lambda w: 0.37, GridSpec(-1, 1, -1, 1, 2, 2))
        for bad in (0, 2**63):
            with pytest.raises(ValueError, match=r"n_shots must be in \[1, 2\^63 - 1\]"):
                noisy_scan(grid, bad, seed=0)
        assert np.isfinite(noisy_scan(grid, 2**63 - 1, seed=0).estimates).all()

    def test_mean_statistics(self):
        # L = 0.5, n = 10000, 1000 cells: mean within 5 standard errors
        spec = GridSpec(-1, 1, -1, 1, 40, 25)
        noisy = noisy_scan(l_grid(lambda w: 0.5, spec), 10000, seed=11)
        se = math.sqrt(0.5 * 0.5 / (10000 * 1000))
        assert abs(noisy.estimates.mean() - 0.5) <= 5 * se


class TestUndefinedCells:
    """A cell whose true L is NaN (the kicked K plane at K = 0, where the kick
    field is infinite) is not measured: it is no zero of the measured map."""

    def test_nan_cell_draws_nothing_and_others_keep_their_streams(self):
        spec = GridSpec(-1, 1, -1, 1, 6, 7)
        values = np.log(np.linspace(0.05, 0.95, 42).reshape(7, 6))
        values[3, 2], values[0, 4] = np.nan, -np.inf
        noisy = noisy_scan(ScanGrid(spec, values), 300, seed=9)
        assert np.isnan(noisy.estimates[3, 2])
        assert noisy.estimates[0, 4] == 0.0
        p = np.exp(values)
        for iy, ix in np.ndindex(values.shape):
            if (iy, ix) != (3, 2):
                want = np.random.default_rng((9, iy, ix)).binomial(300, p[iy, ix]) / 300
                assert noisy.estimates[iy, ix] == want

    def test_nan_cell_counts_as_plus_inf_in_the_minima_mask(self):
        spec = GridSpec(-1, 1, -1, 1, 5, 5)
        est = np.full((5, 5), 0.5)
        est[2, 2], est[2, 3] = np.nan, 0.0
        noisy = NoisyGrid(ScanGrid(spec, np.log(np.full((5, 5), 0.5))), est, 10, 0)
        assert np.argwhere(noisy_minima_mask(noisy)).tolist() == [[2, 3]]


class TestSeedStreams:
    """noisy_scan hashes numpy's SeedSequence words itself; these pin that hash
    to numpy's, so a numpy release that changes it fails here, loudly."""

    # 0, small, the largest one-word int, two entropy words, and five words
    # (a seed past 2^64 runs the mixing loop beyond the pool of four)
    SEEDS = [0, 7, 2**31 - 1, 2**40 + 3, 2**64 + 2**63 + 11]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_seed_sequence(self, seed):
        n_im, n_re = 9, 11
        words = _stream_words(seed, n_im, n_re)
        expected = np.array([
            [np.random.SeedSequence((seed, iy, ix)).generate_state(4, np.uint64) for ix in range(n_re)]
            for iy in range(n_im)
        ])
        assert words.dtype == np.uint64 and words.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_estimates_equal_default_rng_per_cell(self, seed):
        spec = GridSpec(-1, 1, -1, 1, 13, 12)
        grid = l_grid(lambda w: 0.2 + 0.15 * w.real + 0.1 * w.imag, spec)
        p = true_probabilities(grid)
        n = 700
        expected = np.empty_like(p)
        for iy in range(p.shape[0]):
            for ix in range(p.shape[1]):
                expected[iy, ix] = np.random.default_rng((seed, iy, ix)).binomial(n, p[iy, ix]) / n
        assert noisy_scan(grid, n, seed).estimates.tobytes() == expected.tobytes()

    @staticmethod
    def branch_probabilities(n):
        """Probabilities on every path of numpy's binomial sampler at n shots."""
        p = [0.0, 1.0, np.nan, 0.5, 5e-324, 1e-300, 1.0 - 2.0**-53]
        p += list(np.logspace(-14, -3, 12))
        p += list(np.random.default_rng(n).uniform(0.0, 1.0, 24))
        # n p just below, at and just above 30, and the same for n (1 - p) above 0.5
        edge = 30.0 / n
        for _ in range(6):
            edge = np.nextafter(edge, 0.0)
        for _ in range(13):
            p += [edge, 1.0 - edge, 0.9 * edge, 1.0 - 0.5 * edge]
            edge = np.nextafter(edge, 1.0)
        p = np.array([v for v in p if np.isnan(v) or 0.0 <= v <= 1.0])
        return np.resize(p, (9, len(p) // 9 + 1))

    @pytest.mark.parametrize("n", [1, 2, 5000, 10**6])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_branch_equals_default_rng_per_cell(self, monkeypatch, seed, n):
        # p goes in past true_probabilities: no exp(ln L) lands on n p = 30 exactly at
        # these n.  A -inf ln L is a p = 0 cell there (TestUndefinedCells draws one).
        p = self.branch_probabilities(n)
        small = np.minimum(p, 1.0 - p) * n
        if n >= 5000:  # both sides of numpy's n min(p, 1 - p) <= 30 branch, and its edge
            assert {-1.0, 0.0, 1.0} <= set(np.sign(small[~np.isnan(small)] - 30.0).tolist())
            assert np.any((p > 0.5) & (small <= 30.0))
        monkeypatch.setattr("pfzeros.noise.true_probabilities", lambda grid: p)
        grid = ScanGrid(GridSpec(-1, 1, -1, 1, p.shape[1], p.shape[0]), np.zeros(p.shape))
        expected = np.full_like(p, np.nan)
        for iy, ix in zip(*np.nonzero(~np.isnan(p))):
            expected[iy, ix] = np.random.default_rng((seed, iy, ix)).binomial(n, p[iy, ix]) / n
        assert noisy_scan(grid, n, seed).estimates.tobytes() == expected.tobytes()

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the seed was checked")
        monkeypatch.setattr("pfzeros.noise.true_probabilities", refuse)
        monkeypatch.setattr("pfzeros.noise._stream_words", refuse)
        grid = l_grid(lambda w: 0.3, GridSpec(-1, 1, -1, 1, 4, 4))
        with pytest.raises(ValueError, match="seed"):
            noisy_scan(grid, 10, seed=-1)

    def test_import_leaves_numpy_random_unloaded(self):
        code = "import sys, pfzeros; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"


def binomial_inversion(n, p, u):
    """numpy's random_binomial_inversion (random/src/distributions/distributions.c)
    line for line, with libm's exp and log, drawing u as its first U.

    Returns (X, the smallest |U - px| it compared), or (None, ...) where the C
    loop passes its bound and draws a second U.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px, closest = 0, qn, abs(u - qn)
    while u > px:
        x += 1
        if x > bound:
            return None, closest
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
        closest = min(closest, abs(u - px))
    return x, closest


class TestInversionDraw:
    """The inversion loop run over all cells at once, and the cells it hands
    back to numpy's own draw."""

    def test_recursion_matches_c_transcription(self):
        cells = [(n, p) for n in (1, 2, 7, 60, 5000, 10**6)
                 for p in (0.0, 1e-9, 0.3 / n, 1.0 / n, 7.5 / n, 29.0 / n, 0.5) if p <= 0.5 and n * p <= 30.0]
        us = np.linspace(0.0, 1.0 - 2.0**-53, 97)
        n_arr, p_arr, u_arr = (np.array(v) for v in zip(*[(n, p, u) for n, p in cells for u in us]))
        for n in np.unique(n_arr).tolist():
            on = n_arr == n
            got = _inversion_counts(u_arr[on], p_arr[on], n)
            for g, p, u in zip(got.tolist(), p_arr[on].tolist(), u_arr[on].tolist()):
                x, closest = binomial_inversion(n, p, u)
                assert g == (x if x is not None and closest > _MARGIN else -1), (n, p, u)
        assert np.any(_inversion_counts(us, np.full(us.size, 0.3), 60) > 20)

    def test_u_equal_to_px_goes_to_numpy(self):
        n, p = 10, np.array([0.1, 0.1])
        qn = np.exp(n * np.log(1.0 - p))
        got = _inversion_counts(np.array([qn[0], 0.5]), p, n)
        assert got[0] == -1 and got[1] == binomial_inversion(n, 0.1, 0.5)[0]

    def test_u_past_the_bound_goes_to_numpy(self):
        # a hand-made U above 1 outlasts every px up to the bound n = 2, each
        # comparison clear of the margin: the C loop would draw again
        x, closest = binomial_inversion(2, 0.5, 1.5)
        assert x is None and closest > _MARGIN
        assert _inversion_counts(np.array([1.5, 0.3]), np.array([0.5, 0.5]), 2).tolist() == [-1, 1]

    def test_benchmark_grid_builds_a_generator_for_btpe_cells_only(self, monkeypatch):
        spec = GridSpec(-0.62, 0.63, -0.80, 0.82, 100, 100, "K")
        grid = scan(KickedProbabilityEvaluator(7, 7), spec)
        built = []

        class Counting(np.random.Generator):
            def __init__(self, bit_generator):
                built.append(1)
                super().__init__(bit_generator)

        monkeypatch.setattr(np.random, "Generator", Counting)
        n = 5000
        noisy_scan(grid, n, seed=31)
        p = true_probabilities(grid)
        btpe = int(np.sum(np.minimum(p, 1.0 - p) * n > 30.0))
        assert 0 < len(built) == btpe < p.size // 20


class TestErrorStats:
    def test_zero_probability(self):
        mean, var = error_stats(0.0, 1000, 200, seed=1)
        assert mean == 0.0 and var == 0.0

    def test_variance_formula(self):
        mean, var = error_stats(0.2, 5000, trials=4000, seed=5)
        expected = 0.2 * 0.8 / 5000  # = 3.2e-5
        assert var == pytest.approx(expected, rel=0.2)
        assert abs(mean - 0.2) <= 5 * math.sqrt(expected / 4000)

    def test_sqrt_n_scaling(self):
        _, v1 = error_stats(0.3, 1000, trials=4000, seed=9)
        _, v2 = error_stats(0.3, 10000, trials=4000, seed=10)
        assert math.sqrt(v1 / v2) == pytest.approx(math.sqrt(10), rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            error_stats(1.5, 100, 200, seed=0)
        with pytest.raises(ValueError):
            error_stats(0.5, 100, 50, seed=0)


class TestBinomialShortcutEquivalence:
    def test_matches_multinomial_all_plus_sampling(self):
        # the binomial shortcut must be distributionally identical to full
        # projective sampling of the all-initial outcome
        m = from_edge_list(2, [(0, 1, 0.35 + 0.55j)])
        circ = compile_general(m)
        true_l = run_full(circ).probability
        n_shots, trials = 64, 10000
        multinomial = np.array(
            [sample_shots(circ, n_shots, seed=(1, t))[0] for t in range(trials)]
        )
        rng = np.random.default_rng(2)
        binomial = rng.binomial(n_shots, true_l, size=trials)
        stat = ks_2samp(multinomial, binomial)
        assert stat.pvalue > 1e-3

    def test_moment_agreement_across_points(self, rng):
        # 20 working points: first two moments agree within sampling error
        for t in range(20):
            l_true = float(rng.uniform(0.05, 0.95))
            n_shots, trials = 200, 400
            draws = rng.binomial(n_shots, l_true, size=trials) / n_shots
            se = math.sqrt(l_true * (1 - l_true) / (n_shots * trials))
            assert abs(draws.mean() - l_true) <= 6 * se


class TestDetectability:
    @staticmethod
    def _bowl_grid(spec, zeros):
        def fn(w):
            d = min(abs(w - z) for z in zeros)
            return min(0.9, 2.0 * d**2)

        return l_grid(fn, spec)

    def test_noiseless_limit(self):
        spec = GridSpec(-1, 1, -1, 1, 41, 43)
        zeros = [0.3 + 0.2j, -0.5 - 0.4j]
        grid = self._bowl_grid(spec, zeros)
        n = 10**7
        exact = noisy_scan(grid, n, seed=1)  # n -> infinity limit
        report = detectability(exact, zeros, radius_cells=1.0,
                               count_threshold=int(0.005 * n))
        assert report.fraction_within() == 1.0
        for d in report.detections:
            assert d.distance_cells <= 1.0

    def test_finite_shots_detection(self):
        spec = GridSpec(-1, 1, -1, 1, 41, 43)
        zeros = [0.3 + 0.2j, -0.5 - 0.4j]

        def fn(w):
            d = min(abs(w - z) for z in zeros)
            return min(0.9, 0.5 * d**2)

        grid = l_grid(fn, spec)
        hits = 0
        for seed in range(30):
            noisy = noisy_scan(grid, 5000, seed=seed)
            report = detectability(noisy, zeros, radius_cells=2.0, count_threshold=2)
            hits += report.fraction_within() == 1.0
        assert hits >= 27

    def test_single_shot_unreliable(self):
        spec = GridSpec(-1, 1, -1, 1, 41, 43)
        zeros = [0.3 + 0.2j]
        grid = self._bowl_grid(spec, zeros)
        noisy = noisy_scan(grid, 1, seed=4)
        # degenerate sampling: minima plaster the map instead of marking zeros
        mask = noisy_minima_mask(noisy, count_threshold=0)
        assert mask.sum() > 50

    def test_zero_outside_window_rejected(self):
        spec = GridSpec(-1, 1, -1, 1, 11, 11)
        grid = self._bowl_grid(spec, [0j])
        noisy = noisy_scan(grid, 100, seed=0)
        with pytest.raises(ValueError):
            detectability(noisy, [5.0 + 0j])

    def test_probabilities_round_trip(self):
        spec = GridSpec(-1, 1, -1, 1, 5, 5)
        grid = l_grid(lambda w: 0.25, spec)
        assert np.allclose(true_probabilities(grid), 0.25)
