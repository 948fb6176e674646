"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, taken verbatim from the criteria.
"""

import math
import subprocess
import sys
import time

import numpy as np

from pfzeros.circuits import compile_general, compile_kicked, kicked_log_factor
from pfzeros.correlations import KickedSetup, corr_cross_row, corr_norm_ratio, corr_same_row
from pfzeros.errors import IllConditionedError
from pfzeros.evaluators import (
    DosEvaluator,
    KickedProbabilityEvaluator,
    calibrate_kicked_relation,
)
from pfzeros.model import build_chain, build_cylinder, from_edge_list
from pfzeros.noise import detectability, noisy_scan
from pfzeros.oracle import brute_force_Z, correlation, density_of_states, transfer_matrix_Z
from pfzeros.statevector import run_effective, run_full, run_streamed
from pfzeros.zeros import (
    GridSpec,
    find_minima,
    map_roots,
    polynomial_roots,
    scan,
    unit_circle_distance,
)

from conftest import child_env, random_gadget_circuit, random_model
from kick_reference import ky_for_kick_field
from newton_reference import newton_z, refine_newton
from noise_reference import error_stats


def report(n, name, detail):
    print(f"\nACCEPTANCE {n} ({name}): PASS  [{detail}]")


def _with_parameters(skeleton, k, h):
    bonds = [(b.i, b.j, k) for b in skeleton.bonds]
    fields = [(i, h) for i in range(skeleton.n_spins)]
    return from_edge_list(skeleton.n_spins, bonds, fields)


def test_criterion_1_general_scheme_identity():
    """e^{2C} L == |Z|^2 to 1e-10 on 50 draws x 4 model families, under 60 s."""
    rng = np.random.default_rng(101)
    families = [
        ("2-spin", from_edge_list(2, [(0, 1, 0j)])),
        ("open-4-chain", build_chain(4, K=0j)),
        ("2x2-plaquette", from_edge_list(4, [(0, 1, 0j), (2, 3, 0j), (0, 2, 0j), (1, 3, 0j)])),
        ("3x2-cylinder", build_cylinder(3, 2, 0j, 0j)),
    ]
    t0 = time.monotonic()
    worst = 0.0
    for name, skeleton in families:
        for _ in range(50):
            k = complex(rng.normal(0, 0.4), rng.normal(0, 0.4))
            h = complex(rng.normal(0, 0.3), rng.normal(0, 0.3))
            model = _with_parameters(skeleton, k, h)
            circ = compile_general(model)
            res = run_full(circ)
            z2 = abs(brute_force_Z(model)) ** 2
            rel = abs(math.exp(2 * circ.log_prefactor) * res.probability - z2) / z2
            worst = max(worst, rel)
            assert rel <= 1e-10, (name, k, h, rel)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    report(1, "general-scheme identity", f"worst rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_backend_equivalence():
    """full == streamed (1e-12) on 100 circuits; effective*2^N == Z (1e-12) on 50 models."""
    rng = np.random.default_rng(202)
    worst_amp = 0.0
    for _ in range(100):
        circ = random_gadget_circuit(rng, max_qubits=14)
        assert circ.n_qubits <= 14
        diff = abs(run_full(circ).amplitude - run_streamed(circ).amplitude)
        worst_amp = max(worst_amp, diff)
        assert diff <= 1e-12
    worst_eff = 0.0
    for _ in range(50):
        model = random_model(rng, n_max=12)
        z = brute_force_Z(model)
        rel = abs(run_effective(model).amplitude * 2**model.n_spins - z) / abs(z)
        worst_eff = max(worst_eff, rel)
        assert rel <= 1e-12
    report(2, "backend equivalence",
           f"full-streamed worst {worst_amp:.2e}, effective worst {worst_eff:.2e}")


def test_criterion_3_kicked_relation():
    """Calibrated P_kicked relation holds to 1e-8 on 2x2, 3x2, 3x3 at 20 draws each."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for (n, l) in [(2, 2), (3, 2), (3, 3)]:
        for _ in range(20):
            k = complex(rng.normal(0, 0.35), rng.normal(0, 0.35))
            h = complex(rng.normal(0, 0.35), rng.normal(0, 0.35))
            if abs(np.sinh(2 * h)) < 0.05 or abs(np.tanh(h)) < 0.05:
                h += 0.4
            circ = compile_kicked(n, l, k, h)
            res = run_streamed(circ)
            log_p = 2 * (math.log(abs(res.amplitude)) + circ.log_prefactor)
            ky = ky_for_kick_field(h)
            predicted = kicked_log_factor(n, l, h) + 2 * transfer_matrix_Z(n, l, k, ky).log_magnitude
            rel = abs(math.expm1(predicted - log_p))
            worst = max(worst, rel)
            assert rel <= 1e-8, (n, l, k, h, rel)
    cal = calibrate_kicked_relation()
    print()
    print(cal.summary())
    assert cal.tanh_sign == -1.0  # deviation from the nominal map, reported
    assert cal.two_power_matches_nominal  # 2^{N(L+1)} confirmed exactly
    report(3, "kicked-protocol relation",
           f"worst rel err {worst:.2e}; constant 2^(N(L+1)) confirmed, "
           "coupling map needs tanh(H) -> -tanh(H) vs nominal")


def test_criterion_4_resource_counts():
    """Exact qubit/gate counts for N in 3..5, L in 1..3, plus 3x3 specifics."""
    for n in (3, 4, 5):
        for l in (1, 2, 3):
            gen = compile_general(build_cylinder(n, l, -0.25 + 0.1j, 0.35j))
            assert gen.n_qubits == 3 * n * l - n
            assert len(gen.gates) == 6 * n * l - 3 * n
            kick = compile_kicked(n, l, -0.25 + 0.1j, 0.45 - 0.2j)
            assert kick.n_qubits == 2 * n * l
            assert len(kick.gates) == 6 * n * l - 3 * n
    gen33 = compile_general(build_cylinder(3, 3, -0.2, -0.2))
    kick33 = compile_kicked(3, 3, -0.2, 0.4)
    assert (gen33.n_qubits, len(gen33.gates)) == (24, 45)
    assert (kick33.n_qubits, len(kick33.gates)) == (18, 45)
    report(4, "resource counts", "3NL-N/2NL qubits and 6NL-3N gates, exact")


def test_criterion_5_fisher_zeroes():
    """Roots <-> scan minima within one cell at 100x100; Newton to 1e-8;
    density/circle trend across 3x3, 5x5, 7x7.  Under 10 minutes."""
    t0 = time.monotonic()
    dos = density_of_states(build_cylinder(3, 3, -0.2, -0.2))
    roots = polynomial_roots(dos, "fisher", 0j)
    spec = GridSpec(-0.62, 0.63, -1.45, 1.47, 100, 100, "K")
    mapped = map_roots(roots, spec, "K")
    ev = DosEvaluator(dos, 0j, "K")
    grid = scan(ev, spec)
    minima = find_minima(grid)
    dre, dim = spec.cell_size()
    worst_cell = 0.0
    for root in mapped:
        d = min(
            max(abs(root.real - c.location.real) / dre, abs(root.imag - c.location.imag) / dim)
            for c in minima
        )
        worst_cell = max(worst_cell, d)
        assert d <= 1.0
    newton_eval = newton_z(ev)
    worst_newton = 0.0
    for cand in minima:
        est = refine_newton(newton_eval, cand.location, step_scale=1.0)
        d = min(abs(est.location - r) for r in mapped)
        worst_newton = max(worst_newton, d)
        assert d <= 1e-8
    counts, densities = [], []
    for size in (3, 5, 7):
        d = density_of_states(build_cylinder(size, size, -0.2, -0.2))
        rts = polynomial_roots(d, "fisher", 0j)
        finite = rts[rts != 0]
        counts.append(len(finite))
        densities.append(float(np.mean(unit_circle_distance(finite))))
        # independent transfer-matrix oracle confirms sampled roots are zeros
        for x in finite[:: max(1, len(finite) // 5)]:
            if abs(x + 1.0) < 1e-9:
                continue  # multiple root on the i pi/2 lattice, located by deflation
            k_root = -np.log(complex(x)) / 2
            at_root = transfer_matrix_Z(size, size, k_root, k_root).log_magnitude
            nearby = transfer_matrix_Z(size, size, k_root + 0.05, k_root + 0.05).log_magnitude
            assert at_root < nearby - 9  # |Z| suppressed by > e^9 at the root
    assert counts[0] < counts[1] < counts[2]
    assert densities[0] >= densities[1] >= densities[2]
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    report(5, "Fisher zeroes",
           f"8 roots matched within {worst_cell:.2f} cells, newton worst {worst_newton:.1e}; "
           f"counts {counts}, mean sinh(2K) circle distance {[f'{x:.3f}' for x in densities]}; "
           f"{elapsed:.1f} s")


def test_criterion_6_lee_yang_axis():
    """All refined Lee-Yang zeroes of the ferromagnetic 3x3 model have |Re H| < 1e-6."""
    k_ferro = -0.3  # aligned spins favored under exp(-K s s)
    dos = density_of_states(build_cylinder(3, 3, k_ferro, k_ferro))
    roots = polynomial_roots(dos, "lee_yang", k_ferro)
    window = GridSpec(-1.0, 1.0, 0.0, math.pi, 4, 4, "H")
    mapped = map_roots(roots, window, "H")
    assert mapped  # the scan window contains zeroes
    ev = DosEvaluator(dos, k_ferro, "H")
    newton_eval = newton_z(ev)
    worst = 0.0
    for h0 in mapped:
        est = refine_newton(newton_eval, h0 + 0.003 + 0.002j, step_scale=0.5)
        worst = max(worst, abs(est.location.real))
        assert abs(est.location.real) < 1e-6
    report(6, "Lee-Yang axis", f"{len(mapped)} zeroes refined, worst |Re H| {worst:.1e}")


class TestCriterion7ProjectionNoise:
    def test_detection_rate(self):
        """All true 3x3 Fisher zeroes within 2 cells of a noisy minimum in
        >= 90% of 50 seeded trials at n = 5000."""
        dos = density_of_states(build_cylinder(3, 3, -0.2, -0.2))
        roots = polynomial_roots(dos, "fisher", 0j)
        spec = GridSpec(-0.62, 0.63, -0.80, 0.82, 100, 100, "K")
        zeros = map_roots(roots, spec, "K")
        assert len(zeros) == 6
        grid = scan(KickedProbabilityEvaluator(3, 3), spec)
        hits = 0
        for seed in range(50):
            noisy = noisy_scan(grid, 5000, seed=seed)
            rep = detectability(noisy, zeros, radius_cells=2.0)
            hits += rep.fraction_within() == 1.0
        assert hits >= 45
        report("7a", "projection-noise detection", f"{hits}/50 seeds detected all zeroes")

    def test_estimator_moments(self):
        """Unbiasedness and variance L(1-L)/n within 20% over 1000 trials."""
        n = 5000
        for L in (0.05, 0.2, 0.5, 0.8):
            mean, var = error_stats(L, n, trials=1000, seed=71)
            assert abs(mean - L) <= 5 * math.sqrt(L * (1 - L) / (n * 1000))
            assert abs(var / (L * (1 - L) / n) - 1) <= 0.2
        report("7b", "estimator moments", "means within 5 SE, variances within 20%")

    def test_sqrt_n_scaling(self):
        """Standard error shrinks as 1/sqrt(n) within 15% across 1000/5000/10000."""
        L = 0.2
        stds = {}
        for n in (1000, 5000, 10000):
            _, var = error_stats(L, n, trials=1000, seed=72 + n)
            stds[n] = math.sqrt(var)
        for a, b in ((1000, 5000), (5000, 10000), (1000, 10000)):
            expected = math.sqrt(b / a)
            assert abs(stds[a] / stds[b] / expected - 1) <= 0.15
        report("7c", "sqrt-n scaling", f"std ratios match sqrt(n) within 15%")


def test_criterion_8_correlations():
    """Gate-ratio norm to 1e-10 on all pairs (20 draws); probe estimators
    converge with order >= 1 raw and >= 2 after Richardson on 3x2."""
    rng = np.random.default_rng(808)
    skeletons = [build_chain(4, K=0j), build_cylinder(3, 2, 0j, 0j)]
    worst = 0.0
    draws = 0
    while draws < 20:
        k = complex(rng.normal(0, 0.35), rng.normal(0, 0.35))
        h = complex(rng.normal(0, 0.25), rng.normal(0, 0.25))
        try:
            for skeleton in skeletons:
                model = _with_parameters(skeleton, k, h)
                n = model.n_spins
                for i in range(n):
                    for j in range(i + 1, n):
                        got = corr_norm_ratio(model, i, j, backend="effective")
                        want = abs(correlation(model, i, j)) ** 2
                        err = abs(got - want) / max(want, 1e-8)
                        worst = max(worst, err)
                        assert err <= 1e-10, (k, h, i, j, err)
        except IllConditionedError:
            continue  # drew a point at a partition-function zero; redraw
        draws += 1

    setup = KickedSetup(3, 2, -0.24 + 0.09j, -0.18 + 0.06j)
    model = setup.base_model()
    orders = {}
    for name, fn, sites in (
        ("same-row", corr_same_row, (0, 2, 0)),
        ("cross-row", corr_cross_row, ((0, 0), (1, 1))),
    ):
        target = (
            correlation(model, setup.site(0, 0), setup.site(2, 0))
            if name == "same-row"
            else correlation(model, setup.site(0, 0), setup.site(1, 1))
        )
        raw_err, rich_err = [], []
        for d in (0.04, 0.02):
            est = fn(setup, *sites, delta=d, backend="oracle")
            raw_err.append(abs(est.raw - target))
            rich_err.append(abs(est.extrapolated - target))
        raw_order = math.log2(raw_err[0] / raw_err[1])
        rich_order = math.log2(rich_err[0] / rich_err[1])
        orders[name] = (raw_order, rich_order)
        # two-point order estimates carry an O(delta) bias from the next term
        assert raw_order >= 0.98
        assert rich_order >= 1.9
    report(8, "correlations",
           f"norm-ratio worst rel {worst:.1e}; orders raw/Richardson "
           + ", ".join(f"{k}: {v[0]:.2f}/{v[1]:.2f}" for k, v in orders.items()))


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical outputs when re-run from the embedded config,
    independent of the worker-pool size."""
    base = [sys.executable, "-m", "pfzeros"]
    env = child_env()

    def run(args):
        proc = subprocess.run(base + args, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    run(["--task", "scan", "--model", "cylinder:3x2", "--plane", "K",
         "--res", "15x13", "--seed", "4", "--out", "s1", "--threads", "1"])
    run(["--rerun-from", "s1.csv", "--out", "s2", "--threads", "4"])
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    run(["--task", "noise", "--model", "cylinder:3x2", "--plane", "K",
         "--window=-0.6,0.6,-0.7,0.75", "--res", "18x18", "--shots", "300",
         "--seed", "6", "--out", "n1", "--threads", "2"])
    run(["--rerun-from", "n1_true.csv", "--out", "n2", "--threads", "5"])
    for suffix in ("_true.csv", "_noisy.csv", "_report.json"):
        assert (tmp_path / f"n1{suffix}").read_bytes() == (tmp_path / f"n2{suffix}").read_bytes()

    run(["--task", "zeros", "--model", "cylinder:3x2", "--plane", "K",
         "--res", "30x30", "--out", "z1", "--threads", "1"])
    run(["--rerun-from", "z1.csv", "--out", "z2", "--threads", "3"])
    assert (tmp_path / "z1.json").read_bytes() == (tmp_path / "z2.json").read_bytes()
    report(9, "CLI determinism", "scan/noise/zeros byte-identical across pool sizes")
