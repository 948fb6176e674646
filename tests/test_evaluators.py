import math
import tracemalloc

import numpy as np
import pytest

from pfzeros import evaluators, statevector
from pfzeros.circuits import compile_general, compile_kicked, kick_field_for_ky
from pfzeros.cli import RunConfig, make_evaluator, parse_model
from pfzeros.evaluators import KickedFieldPlaneEvaluator, KickedProbabilityEvaluator
from pfzeros.model import with_uniform_weights
from pfzeros.statevector import run_effective, run_full, run_streamed
from pfzeros.zeros import ZERO_FAMILY, plane_param


@pytest.mark.parametrize("n_circ, l_len", [(3, 2), (3, 3), (4, 3), (5, 2)])
def test_kicked_k_plane_matches_kick_field_plane(n_circ, l_len):
    # the K plane addresses Ky = K through the kick field H = artanh(-e^{2K});
    # the field plane at that H with fixed ring coupling K must give the same ln L
    k_plane = KickedProbabilityEvaluator(n_circ, l_len)
    for K in (-0.3 + 0.2j, -0.15 - 0.4j, 0.1 + 0.3j, -0.45 + 1.0j):
        H = np.arctanh(-np.exp(2.0 * K))
        field_plane = KickedFieldPlaneEvaluator(n_circ, l_len, fixed_k=K)
        a = k_plane.evaluate_grid(np.array([[K]]))[0, 0]
        b = field_plane.evaluate_grid(np.array([[H]]))[0, 0]
        assert np.isfinite(a)
        assert abs(a - b) < 1e-12


def _simulated_log_l(n_circ, l_len, K, H):
    return 2.0 * math.log(abs(run_streamed(compile_kicked(n_circ, l_len, K, H)).amplitude))


@pytest.mark.parametrize("n_circ, l_len", [(3, 2), (3, 3), (4, 2)])
def test_kicked_k_plane_matches_simulated_circuit(n_circ, l_len):
    # the kernel behind scan --backend kicked, kickH and noise against the circuit
    # it stands for, run with the kick field kick_field_for_ky(K)
    evaluator = KickedProbabilityEvaluator(n_circ, l_len)
    for K in (-0.3 + 0.2j, -0.15 - 0.4j, 0.1 + 0.3j, -0.45 + 1.0j, -0.2 + 0j):
        got = evaluator.evaluate_grid(np.array([[K]]))[0, 0]
        assert abs(got - _simulated_log_l(n_circ, l_len, K, kick_field_for_ky(K))) < 1e-10


@pytest.mark.parametrize("n_circ, l_len", [(2, 2), (3, 2), (3, 3)])
def test_kick_field_plane_matches_simulated_circuit(n_circ, l_len):
    fixed_k = -0.25 + 0.1j
    evaluator = KickedFieldPlaneEvaluator(n_circ, l_len, fixed_k)
    for H in (0.3j, 0.4 - 0.2j, -0.35 + 0.6j, 0.7 + 0j, -0.5 - 1.1j):
        got = evaluator.evaluate_grid(np.array([[H]]))[0, 0]
        assert abs(got - _simulated_log_l(n_circ, l_len, fixed_k, H)) < 1e-10


@pytest.mark.parametrize("n_circ", [1, 2])
def test_kicked_k_plane_refuses_rings_below_three(n_circ):
    # a ring of 2 merges its two ring bonds into one of 2K (see build_cylinder)
    with pytest.raises(ValueError):
        KickedProbabilityEvaluator(n_circ, 2)
    # the kick-field plane takes Kx as given, so it keeps rings of 2
    if n_circ == 2:
        assert np.isfinite(KickedFieldPlaneEvaluator(2, 2, -0.25).evaluate_grid(np.array([[0.3j]])))


def _pointwise_log_l(evaluator, mesh):
    """Per-point loop over the one-point run_* backends, ln L = 2 ln|amp|."""
    values = np.full(mesh.shape, np.nan)
    for idx, w in np.ndenumerate(mesh):
        try:
            model = with_uniform_weights(evaluator.skeleton, *evaluator.weights(complex(w)))
        except ValueError:
            continue
        if evaluator.backend == "effective":
            amp = run_effective(model).amplitude
        else:
            circ = compile_general(model)
            amp = (run_full(circ) if evaluator.backend == "full" else run_streamed(circ)).amplitude
        values[idx] = 2.0 * math.log(abs(amp)) if amp != 0 else -math.inf
    return values


def _circuit_scan(model, backend, plane, window, res):
    cfg = RunConfig(model=model, task="scan", backend=backend, plane=plane, window=window, res=res)
    evaluator = make_evaluator(cfg, parse_model(model, complex(*cfg.fixed_k), complex(*cfg.fixed_h)))
    return evaluator, cfg.grid_spec().mesh()


UNIT_WINDOW = (-1.0, 1.0, -1.0, 1.0)
CENTRED_WINDOW = (-0.5, 0.5, -0.5, 0.5)

# model, plane, window, resolution, amplitude budget, NaN cells
GRID_CASES = [
    ("cylinder:3x2", "K", None, (6, 6), None, 0),
    # blocks of five streamed 3x2 points, so the 36 points straddle block boundaries
    ("cylinder:3x2", "K", None, (6, 6), 5 << 7, 0),
    ("chain:3", "x", UNIT_WINDOW, (5, 5), None, 1),  # x = 0 has no coupling
    ("chain:3", "tanhK", UNIT_WINDOW, (5, 5), None, 2),  # tanhK = +-1
    ("chain:3", "z", UNIT_WINDOW, (5, 5), None, 1),
    # H = 0 exactly drops the field gadgets: a second circuit structure mid-block,
    # in one block of 25 points and in the third of five streamed blocks
    ("chain:3", "H", CENTRED_WINDOW, (5, 5), None, 0),
    ("chain:3", "H", CENTRED_WINDOW, (5, 5), 5 << 4, 0),
    # one spin: its zz and zrot gates span whole registers
    ("chain:1", "H", (-0.6, 0.6, 0.8, 2.4), (13, 17), None, 0),
]


@pytest.mark.parametrize("backend", ["streamed", "full", "effective"])
@pytest.mark.parametrize("model, plane, window, res, budget, nan_cells", GRID_CASES)
def test_circuit_grid_matches_pointwise_bitwise(monkeypatch, backend, model, plane, window, res,
                                                budget, nan_cells):
    if budget is not None:
        monkeypatch.setattr(evaluators, "_AMPLITUDE_BUDGET", budget)
    evaluator, mesh = _circuit_scan(model, backend, plane, window, res)
    got = evaluator.evaluate_grid(mesh)
    assert got.shape == mesh.shape
    assert got.tobytes() == _pointwise_log_l(evaluator, mesh).tobytes()
    assert np.count_nonzero(np.isnan(got)) == nan_cells


@pytest.mark.parametrize("fixed", [(0.0, 0.0), (-0.3, 0.1)])
@pytest.mark.parametrize("plane", ["K", "x", "tanhK", "z", "H"])
def test_angle_rows_are_the_rebuilt_models_angles_bitwise(plane, fixed):
    # the unit window holds x = 0, tanhK = +-1, z = 0 (no model) and H = 0, z = 1 (no field)
    cfg = RunConfig(model="cylinder:3x2", task="scan", backend="streamed", plane=plane,
                    window=UNIT_WINDOW, res=(5, 5), fixed_k=fixed, fixed_h=fixed)
    skeleton = parse_model(cfg.model, complex(*cfg.fixed_k), complex(*cfg.fixed_h))
    evaluator = make_evaluator(cfg, skeleton)
    mesh = cfg.grid_spec().mesh()
    fisher = ZERO_FAMILY[plane] == "fisher"
    no_model = np.zeros(mesh.shape, dtype=bool)
    field_free = 0
    for idx, w in np.ndenumerate(mesh):
        try:
            param = plane_param(plane, complex(w))
        except ValueError:
            no_model[idx] = True
            continue
        coupling, field = (param, complex(*fixed)) if fisher else (complex(*fixed), param)
        assert evaluator.weights(complex(w)) == (coupling, field)
        want = [g.angle for g in compile_general(with_uniform_weights(skeleton, coupling, field)).gates]
        assert np.array(evaluator.angle_row(coupling, field)).tobytes() == np.array(want).tobytes()
        field_free += field == 0
    assert np.array_equal(np.isnan(evaluator.evaluate_grid(mesh)), no_model)
    assert no_model.sum() == {"K": 0, "x": 1, "tanhK": 2, "z": 1, "H": 0}[plane]
    if not fisher or fixed == (0.0, 0.0):
        assert field_free  # rows without field terms are checked too


def test_circuit_grid_peak_memory_bounded_by_block():
    # 3x3 streamed registers hold 2^10 amplitudes, so 320 points span 20 blocks;
    # all at once, the scan peaks at 13 MiB (the ancilla workspace alone is 5 MiB)
    evaluator, mesh = _circuit_scan("cylinder:3x3", "streamed", "K", None, (32, 10))
    tracemalloc.start()
    try:
        values = evaluator.evaluate_grid(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak < 4 * 2**20


def test_streamed_scan_gates_are_whole_block_multiplies(monkeypatch):
    # every 3x3 scan block holds 16 registers of 2^10 amplitudes, within the budget,
    # so no zz/zrot gate takes the per-parity strided passes
    calls = []
    rotate = statevector._rotate

    def counting(*args):
        calls.append(args)
        rotate(*args)
    monkeypatch.setattr(statevector, "_rotate", counting)
    evaluator, mesh = _circuit_scan("cylinder:3x3", "streamed", "K", None, (24, 24))
    assert np.isfinite(evaluator.evaluate_grid(mesh)).all()
    assert len(calls) == 0


def test_parity_cache_stays_bounded():
    # what the cached parity rows hold once 3x3 and 4x3 scans have run, measured as
    # the traced memory that clearing the cache frees
    statevector._parity.cache_clear()
    tracemalloc.start()
    try:
        for model in ("cylinder:3x3", "cylinder:4x3"):
            evaluator, mesh = _circuit_scan(model, "streamed", "K", None, (4, 4))
            evaluator.evaluate_grid(mesh)
        held = tracemalloc.get_traced_memory()[0]
        statevector._parity.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 2**20


def _count_compiles(monkeypatch):
    """The models that evaluate_grid compiles, in order."""
    compiled = []

    def counting(model):
        compiled.append(model)
        return compile_general(model)
    monkeypatch.setattr(evaluators, "compile_general", counting)
    return compiled


def test_k_plane_scan_compiles_once(monkeypatch):
    # 576 points share one structure, across the 36 blocks of 16 streamed 3x3 registers
    compiled = _count_compiles(monkeypatch)
    evaluator, mesh = _circuit_scan("cylinder:3x3", "streamed", "K", None, (24, 24))
    assert np.isfinite(evaluator.evaluate_grid(mesh)).all()
    assert len(compiled) == 1


@pytest.mark.parametrize("budget", [None, 5 << 4])
def test_h_plane_scan_compiles_each_structure_once(monkeypatch, budget):
    # the GRID_CASES H plane holds H = 0, whose model has no field terms; with
    # budget 5 << 4 the grid splits into five blocks, and no block compiles again
    if budget is not None:
        monkeypatch.setattr(evaluators, "_AMPLITUDE_BUDGET", budget)
    compiled = _count_compiles(monkeypatch)
    evaluator, mesh = _circuit_scan("chain:3", "streamed", "H", CENTRED_WINDOW, (5, 5))
    evaluator.evaluate_grid(mesh)
    assert sorted(len(m.fields) for m in compiled) == [0, 3]


# ln|Z|^2 minus the oracle's value on each polynomial plane, from its scan point w
_ORACLE_CORRECTION = {
    "K": lambda w, B, N: 0.0,
    "H": lambda w, B, N: 0.0,
    "x": lambda w, B, N: -B * np.log(np.abs(w)),
    "z": lambda w, B, N: -N * np.log(np.abs(w)),
    "tanhK": lambda w, B, N: -B * np.log(np.abs(1.0 - w * w)),
}


@pytest.mark.parametrize("plane", ["x", "K", "tanhK", "z", "H"])
def test_oracle_planes_match_effective_circuit(plane):
    # the effective circuit gives L = |Z|^2 / 4^N, so each plane's map and
    # prefactor are pinned against one independent ln|Z|^2
    model, window = "cylinder:3x2", (0.15, 0.55, 0.1, 0.5)
    common = dict(model=model, task="scan", plane=plane, window=window, res=(4, 4),
                  fixed_k=(-0.3, 0.1), fixed_h=(0.05, 0.02))
    oracle_cfg = RunConfig(**common)
    ising = parse_model(model, complex(*oracle_cfg.fixed_k), complex(*oracle_cfg.fixed_h))
    mesh = oracle_cfg.grid_spec().mesh()
    oracle = make_evaluator(oracle_cfg, ising).evaluate_grid(mesh)
    effective = make_evaluator(RunConfig(**common, backend="effective"), ising).evaluate_grid(mesh)
    B, N = ising.bond_count, ising.n_spins
    got = oracle + _ORACLE_CORRECTION[plane](mesh, B, N)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - (effective + 2 * N * math.log(2.0)))) < 1e-12
