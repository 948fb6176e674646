import itertools
import math
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence
from scipy.stats import ks_2samp

from conftest import Pointwise, child_env
from noise_reference import binomial_btpe, binomial_inversion, btpe_hat, error_stats
from pfzeros.circuits import compile_general
from pfzeros.evaluators import KickedProbabilityEvaluator
from pfzeros.model import from_edge_list
from pfzeros.noise import (
    _MARGIN,
    NoisyGrid,
    _btpe_counts,
    _inversion_counts,
    _next_double,
    _seeded,
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


class CellSeed(ISeedSequence):
    """A cell's SeedSequence words, as PCG64 reads them."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def stream(words):
    """The doubles of numpy's PCG64 seeded with these words, one after another."""
    rng = np.random.Generator(np.random.PCG64(CellSeed(words)))
    while True:
        yield rng.random()


def scripted(streams):
    """A draw(cells) that gives each listed cell the next double of its own list,
    then 0.5s: the BTPE kernel may draw past a cell's decisive attempt."""
    its = [itertools.chain(s, itertools.repeat(0.5)) for s in streams]
    return lambda cells: np.array([next(its[c]) for c in cells.tolist()])


def agrees(got, reference):
    """A kernel count is -1 where the C transcription met a gap within the
    margin and equals the transcription's count elsewhere (a gap on the margin
    itself may go either way: numpy's log and libm's differ in the last bit)."""
    count, closest = reference
    if closest < _MARGIN * (1 - 1e-6):
        return got == -1
    return got == count or (got == -1 and closest <= _MARGIN * (1 + 1e-6))


class TestInversionDraw:
    """The inversion loop run over all cells at once, and the cells it hands
    back to numpy's own draw."""

    def test_recursion_matches_c_transcription(self):
        cells = [(n, p) for n in (1, 2, 7, 60, 5000, 10**6)
                 for p in (0.0, 1e-9, 0.3 / n, 1.0 / n, 7.5 / n, 29.0 / n, 0.5) if p <= 0.5 and n * p <= 30.0]
        us = np.linspace(0.0, 1.0 - 2.0**-53, 97)
        then = [0.3, 0.6, 0.1, 0.9, 0.45]  # the doubles a cell draws after its first
        n_arr, p_arr, u_arr = (np.array(v) for v in zip(*[(n, p, u) for n, p in cells for u in us]))
        for n in np.unique(n_arr).tolist():
            on = n_arr == n
            got = _inversion_counts(scripted([[u, *then] for u in u_arr[on]]), p_arr[on], n)
            for g, p, u in zip(got.tolist(), p_arr[on].tolist(), u_arr[on].tolist()):
                x, closest = binomial_inversion(n, p, iter([u, *then]))
                assert g == (x if closest > _MARGIN else -1), (n, p, u)
        assert np.any(_inversion_counts(scripted([[u] for u in us]), np.full(us.size, 0.3), 60) > 20)

    def test_u_equal_to_px_goes_to_numpy(self):
        n, p = 10, np.array([0.1, 0.1])
        qn = np.exp(n * np.log(1.0 - p))
        got = _inversion_counts(scripted([[qn[0]], [0.5]]), p, n)
        assert got[0] == -1 and got[1] == binomial_inversion(n, 0.1, iter([0.5]))[0]

    def test_u_past_the_bound_draws_again(self):
        # a hand-made U above 1 outlasts every px up to the bound n = 2, each
        # comparison clear of the margin: the C loop draws a second U
        x, closest = binomial_inversion(2, 0.5, iter([1.5, 0.3]))
        assert closest > _MARGIN and x == binomial_inversion(2, 0.5, iter([0.3]))[0] == 1
        streams = [[1.5, 0.3], [0.3]]
        got = _inversion_counts(scripted(streams), np.array([0.5, 0.5]), 2)
        assert got.tolist() == [1, 1]

    def test_x_at_a_bound_within_the_margin_goes_to_numpy(self):
        # p puts the bound's argument ex = n p + 10 sqrt(n p q + 1) within the
        # margin of 15, and a hand-made U above 1 carries X there
        n, lo, hi = 60, 0.001, 0.1
        for _ in range(100):
            mid = (lo + hi) / 2
            npq = n * mid
            lo, hi = (mid, hi) if npq + 10.0 * math.sqrt(npq * (1.0 - mid) + 1) < 15 else (lo, mid)
        for p in (lo, hi):  # ex just below 15 and at or just above it
            x, closest = binomial_inversion(n, p, iter([1.5, 0.5]))
            assert closest < _MARGIN
            assert _inversion_counts(scripted([[1.5]]), np.array([p]), n).tolist() == [-1]

    def test_benchmark_grid_builds_no_generator(self, monkeypatch):
        spec = GridSpec(-0.62, 0.63, -0.80, 0.82, 100, 100, "K")
        grid = scan(KickedProbabilityEvaluator(7, 7), spec)
        built = []

        class Counting(np.random.Generator):
            def __init__(self, bit_generator):
                built.append(1)
                super().__init__(bit_generator)

        monkeypatch.setattr(np.random, "Generator", Counting)
        n = 5000
        for seed in range(50):
            noisy_scan(grid, n, seed)
        p = true_probabilities(grid)
        btpe = int(np.sum(np.minimum(p, 1.0 - p) * n > 30.0))
        assert built == [] and 0 < btpe < p.size // 20

    def test_benchmark_noise_run_leaves_numpy_random_unloaded(self, tmp_path):
        argv = ["--task", "noise", "--model", "cylinder:7x7", "--plane", "K",
                "--window=-0.62,0.63,-0.8,0.82", "--res", "100x100", "--shots", "5000",
                "--seed", "31", "--cut=im=0.375", "--out", str(tmp_path / "noise")]
        code = ("import sys; from pfzeros.cli import main; "
                f"code = main({argv!r}); print(code, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0 and proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


class TestBtpeDraw:
    """numpy's BTPE sampler run over all cells at once."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(n=st.integers(6, 53).flatmap(lambda bits: st.integers(max(61, 2**bits // 2), 2**bits - 1)),
           edge=st.booleans(), ulps=st.integers(1, 2**20),
           share=st.floats(0.0, 1.0), words=st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4))
    def test_matches_c_transcription(self, n, edge, ulps, share, words):
        # r just past numpy's n r = 30 branch edge, or anywhere up to 0.5
        low = np.nextafter(30.0 / n, 1.0)
        r = low + ulps * np.spacing(low) if edge else low + share * (0.5 - low)
        r = min(r, 0.5)
        words = np.array(words, dtype=np.uint64)
        got = _btpe_counts(partial(_next_double, _seeded(words[None, :])), np.array([r]), n)
        assert agrees(int(got[0]), binomial_btpe(n, r, stream(words)))

    def test_tails_and_rejections_match_c_transcription(self):
        # hand-made draws: U near 1 (the right tail), U just past p2 (the left
        # tail), V from 0 to 1 - 2^-53; every cell ends on U = 0, which accepts
        tail = [1.0 - 2.0**-53, 0.999, 0.98, 0.9, 0.8]
        vs = [0.0, 2.0**-53, 1e-9, 0.01, 0.3, 0.7, 1.0 - 2.0**-53]
        cells = []
        for n, r in [(61, 0.499), (200, 0.2), (5000, 0.05), (2**52 - 1, 31.5 / 2**52), (10**6, 0.4)]:
            for d in tail:
                for v in vs:
                    cells.append((n, r, [d, v, 0.0, 0.5]))
        for n in sorted({n for n, _, _ in cells}):
            mine = [(r, d) for m, r, d in cells if m == n]
            got = _btpe_counts(scripted([d for _, d in mine]), np.array([r for r, _ in mine]), n)
            for g, (r, d) in zip(got.tolist(), mine):
                assert agrees(g, binomial_btpe(n, r, iter(d))), (n, r, d)

    @pytest.mark.parametrize("n, r", [(200, 0.45), (5000, 0.3), (10**6, 0.05)])
    def test_draws_on_a_verdict_edge_go_to_numpy(self, n, r):
        # bisect the first attempt's outcome (its count, or that it rejects) to
        # where it changes: in V from 0 to 1 at fixed U, and in U across the
        # hat's region ends at fixed V.  There some comparison or floor of the
        # C run is within the margin, so numpy must draw the cell.
        def outcome(u, v):
            doubles = iter([u, v, 0.0, 0.5])
            return binomial_btpe(n, r, doubles)[0], next(doubles, None)

        def edge(point, lo, hi):
            if outcome(*point(lo)) == outcome(*point(hi)):
                return []
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if outcome(*point(mid)) == outcome(*point(lo)) else (lo, mid)
            return [[*point(lo), 0.0, 0.5], [*point(hi), 0.0, 0.5]]

        hat = btpe_hat(n, r)
        cells = []
        for t in np.linspace(0.01, 0.99, 40).tolist():
            cells += edge(lambda v: (t, v), 0.0, 1.0 - 2.0**-53)
            for end in (hat.p1, hat.p2, hat.p3):
                cells += edge(lambda u: (u, t), end / hat.p4 * (1 - 1e-6), end / hat.p4 * (1 + 1e-6))
        refs = [binomial_btpe(n, r, iter(c)) for c in cells]
        assert len(cells) >= 100 and all(closest < _MARGIN for _, closest in refs)
        got = _btpe_counts(scripted(cells), np.full(len(cells), r), n)
        for g, ref, c in zip(got.tolist(), refs, cells):
            assert agrees(g, ref), c

    @pytest.mark.parametrize("n", [61, 1000, 5000, 10**5, 10**6, 10**9, 2**40, 2**52])
    def test_cells_equal_default_rng(self, monkeypatch, n):
        # BTPE cells on both sides of p = 0.5; past 2^40 shots most take numpy's draw
        low = 30.0 / n
        p = np.random.default_rng(n).uniform(low, 1.0 - low, (8, 8))
        p[0, :2] = 0.5, np.nextafter(1.0 - low, 0.0)
        monkeypatch.setattr("pfzeros.noise.true_probabilities", lambda grid: p)
        grid = ScanGrid(GridSpec(-1, 1, -1, 1, 8, 8), np.zeros(p.shape))
        expected = np.array([[np.random.default_rng((5, iy, ix)).binomial(n, p[iy, ix]) / n
                              for ix in range(8)] for iy in range(8)])
        assert noisy_scan(grid, n, 5).estimates.tobytes() == expected.tobytes()


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
