"""Tests of the benchmark's own parts: the independent reference against closed
forms, and each output check against corrupted copies of real outputs.

Run from the repository root:  python -m pytest bench
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil

import numpy as np
import pytest

import reference
import workloads
from run import run_operation
from workloads import WORKLOADS, Operation, op_rng

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
COUPLINGS = (0.3 + 0.2j, -0.4 + 1.0j, -0.25 - 0.7j, 0.11 + 0j)


# ------------------------------------------------------------------ reference

def ring_z(n: int, K: complex) -> complex:
    return (2 * np.cosh(K)) ** n + (-2 * np.sinh(K)) ** n


@pytest.mark.parametrize("n", [3, 4, 5, 8])
@pytest.mark.parametrize("K", COUPLINGS)
def test_ring_matches_closed_form(n, K):
    z_norm, log_s = reference.cylinder_z(n, 1, K)
    assert abs(z_norm * np.exp(log_s) - ring_z(n, K)) <= 1e-13 * abs(ring_z(n, K))
    ring = [(i, (i + 1) % n, K) for i in range(n)]
    z, scale, _ = reference.brute_force(n, ring)
    assert abs(z - ring_z(n, K)) <= 1e-13 * abs(ring_z(n, K))
    assert math.isclose(scale, ring_z(n, K.real).real, rel_tol=1e-13)


@pytest.mark.parametrize("n, rows", [(3, 1), (3, 3), (4, 3), (7, 7)])
def test_zero_coupling_counts_configurations(n, rows):
    z_norm, log_s = reference.cylinder_z(n, rows, 0j)
    assert z_norm == pytest.approx(1.0, abs=1e-15)
    assert log_s == pytest.approx(n * rows * math.log(2.0), rel=1e-14)
    if n * rows <= reference.BRUTE_FORCE_MAX_SPINS:
        z, scale, _ = reference.brute_force(n * rows, reference.cylinder_bonds(n, rows, 0j, 0j))
        assert z == 2 ** (n * rows) and scale == 2 ** (n * rows)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_ring_correlation_matches_closed_form(n):
    K = -0.3 + 0.4j
    lp, lm = 2 * np.cosh(K), -2 * np.sinh(K)
    ring = [(i, (i + 1) % n, K) for i in range(n)]
    pairs = [(0, r) for r in range(1, n)]
    _, _, corr = reference.brute_force(n, ring, pairs=pairs)
    for _, r in pairs:
        expected = (lp ** (n - r) * lm**r + lm ** (n - r) * lp**r) / (lp**n + lm**n)
        assert abs(corr[(0, r)] - expected) <= 1e-13


@pytest.mark.parametrize("n, rows", [(3, 3), (4, 3), (3, 4)])
def test_dense_transfer_matches_brute_force(n, rows):
    for K in COUPLINGS:
        z_norm, log_s = reference.cylinder_z(n, rows, K)
        z, scale, _ = reference.brute_force(n * rows, reference.cylinder_bonds(n, rows, K, K))
        assert abs(z_norm * np.exp(log_s) - z) <= 1e-13 * scale
        assert math.isclose(np.exp(log_s), scale, rel_tol=1e-13)


def test_brute_force_refuses_large_graphs():
    with pytest.raises(ValueError):
        reference.brute_force(13, [])


def test_kicked_probability_is_a_probability():
    K = np.linspace(-0.6, 0.6, 25)[None, :] + 1j * np.linspace(-1.4, 1.4, 25)[:, None]
    log_l = reference.kicked_log_l(3, 3, K)
    assert log_l.shape == K.shape
    assert np.all(log_l[np.isfinite(log_l)] <= 0.0)


# ----------------------------------------------------- checks on real outputs

@pytest.fixture(scope="module")
def real_runs(tmp_path_factory):
    """One real operation per workload, run through the CLI in a fresh interpreter."""
    ops = {}
    for name, workload in WORKLOADS.items():
        out_dir = str(tmp_path_factory.mktemp(name) / "op" / "out")
        tasks, params = workload.make(op_rng(7, 0), out_dir)
        op = Operation(0, out_dir, tasks, params)
        assert run_operation(op, SRC, trace=False) is not None, f"{name} operation failed"
        ops[name] = op
    return ops


@pytest.fixture(scope="module")
def real_ops(real_runs):
    """The real operations as each part's check sees them, keyed by the part's name."""
    return {part: Operation(op.index, op.out_dir, op.tasks, params)
            for op in real_runs.values() for part, params in op.params.items()}


def corrupted_copy(op: Operation, tmp_path) -> Operation:
    out_dir = str(tmp_path / "copy" / "out")
    shutil.copytree(op.out_dir, out_dir)
    tasks = [[a.replace(op.out_dir, out_dir) for a in argv] for argv in op.tasks]
    return Operation(op.index, out_dir, tasks, op.params)


def edit_csv_cell(path: str, row: int, column: int, change) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    fields = lines[2 + row].rstrip("\n").split(",")
    fields[column] = repr(change(float(fields[column])))
    lines[2 + row] = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def edit_json(path: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_outputs(real_runs, name):
    assert WORKLOADS[name].check(real_runs[name]) == []


def test_workloads_run_every_part_once(real_ops):
    assert sorted(real_ops) == sorted(workloads.PARTS)


def best_conditioned_sampled_cell(op: Operation, csv_name: str, n_circ: int) -> int:
    """The sampled cell with the largest |Z| / sum|w|, where a 1e-6 change must show."""
    _, data = workloads.read_grid_csv(os.path.join(op.out_dir, csv_name))
    cells = workloads._sample(random.Random(op.params["cell_seed"]), len(data), workloads.SAMPLED_CELLS)
    z_norm, _ = reference.cylinder_z(n_circ, n_circ, data[cells, 0] + 1j * data[cells, 1])
    return int(cells[np.argmax(np.abs(z_norm))])


def test_fisher_check_catches_a_changed_cell(real_ops, tmp_path):
    op = corrupted_copy(real_ops["fisher_zeros"], tmp_path)
    cell = best_conditioned_sampled_cell(op, "zeros.csv", workloads.FZ_SIZE)
    edit_csv_cell(os.path.join(op.out_dir, "zeros.csv"), cell, 2, lambda v: v + 1e-6)
    assert any("sampled cells" in e for e in workloads.fisher_zeros_check(op))


def test_fisher_check_catches_a_dropped_root(real_ops, tmp_path):
    op = corrupted_copy(real_ops["fisher_zeros"], tmp_path)
    edit_json(os.path.join(op.out_dir, "zeros.json"), lambda d: d["polynomial_roots"].pop(-1))
    assert any("polynomial roots, expected" in e for e in workloads.fisher_zeros_check(op))


def test_fisher_check_catches_a_moved_root(real_ops, tmp_path):
    op = corrupted_copy(real_ops["fisher_zeros"], tmp_path)

    def move(doc):
        doc["roots_in_window"][0][0] += 1e-6
        doc["refined"][0]["location"][1] += 1e-6

    edit_json(os.path.join(op.out_dir, "zeros.json"), move)
    errors = workloads.fisher_zeros_check(op)
    assert any("roots in window" in e for e in errors)
    assert any("Newton-refined" in e for e in errors)


def test_fisher_check_catches_a_broken_conjugate_pair(real_ops, tmp_path):
    op = corrupted_copy(real_ops["fisher_zeros"], tmp_path)

    def move(doc):
        root = next(r for r in doc["polynomial_roots"] if abs(r[1]) > 0.1)
        root[1] += 1e-6

    edit_json(os.path.join(op.out_dir, "zeros.json"), move)
    assert any("conjugate" in e for e in workloads.fisher_zeros_check(op))


def test_noise_check_catches_an_estimate_off_the_lattice(real_ops, tmp_path):
    op = corrupted_copy(real_ops["kicked_noise"], tmp_path)
    edit_csv_cell(os.path.join(op.out_dir, "noise_noisy.csv"), 4321, 3,
                  lambda v: v + 0.5 / workloads.NOISE_SHOTS)
    assert any("lattice" in e for e in workloads.kicked_noise_check(op))


def test_noise_check_catches_a_changed_true_cell(real_ops, tmp_path):
    op = corrupted_copy(real_ops["kicked_noise"], tmp_path)
    _, data = workloads.read_grid_csv(os.path.join(op.out_dir, "noise_true.csv"))
    cells = workloads._sample(random.Random(op.params["cell_seed"]), len(data), workloads.SAMPLED_CELLS)
    cell = int(cells[np.argmax(data[cells, 2])])  # judged: L there is far above 1e-12
    edit_csv_cell(os.path.join(op.out_dir, "noise_true.csv"), cell, 2, lambda v: v + 1e-6)
    assert any("sampled cells" in e for e in workloads.kicked_noise_check(op))


def test_noise_check_catches_estimates_without_noise(real_ops, tmp_path):
    op = corrupted_copy(real_ops["kicked_noise"], tmp_path)
    _, true = workloads.read_grid_csv(os.path.join(op.out_dir, "noise_true.csv"))
    shots = workloads.NOISE_SHOTS
    noiseless = np.round(np.exp(true[:, 2]) * shots) / shots
    path = os.path.join(op.out_dir, "noise_noisy.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for row, est in enumerate(noiseless):
        fields = lines[2 + row].rstrip("\n").split(",")
        fields[2] = repr(math.log(est)) if est > 0 else "nan"
        fields[3] = repr(float(est))
        lines[2 + row] = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert any("standardized errors" in e for e in workloads.kicked_noise_check(op))


def test_scan_check_catches_a_changed_cell(real_ops, tmp_path):
    op = corrupted_copy(real_ops["circuit_scan"], tmp_path)
    edit_csv_cell(os.path.join(op.out_dir, "scan.csv"), 100, 2, lambda v: v - 1e-6)
    assert any("cells differ" in e for e in workloads.circuit_scan_check(op))


def test_protocol_check_catches_a_wrong_correlation(real_ops, tmp_path):
    op = corrupted_copy(real_ops["protocol_checks"], tmp_path)

    def shift(doc):
        doc["value"][0] += 1e-4

    edit_json(os.path.join(op.out_dir, "corr_same.json"), shift)
    edit_json(os.path.join(op.out_dir, "corr_cross.json"), shift)
    errors = workloads.protocol_checks_check(op)
    assert any("corr_same" in e for e in errors) and any("corr_cross" in e for e in errors)


def test_protocol_check_catches_a_failed_verify(real_ops, tmp_path):
    op = corrupted_copy(real_ops["protocol_checks"], tmp_path)
    edit_json(os.path.join(op.out_dir, "verify.json"), lambda d: d.update(passed=False))
    assert any("verify" in e for e in workloads.protocol_checks_check(op))
