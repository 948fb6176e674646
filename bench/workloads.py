"""The benchmark workloads: how each operation's inputs are drawn from the
workload seed, and how its outputs are checked.

The paper's four tasks are the parts: `fisher_zeros`, `kicked_noise`,
`circuit_scan` and `protocol_checks`.  A workload runs one or more parts in
each operation, in one interpreter.  `protocol_checks` does not run alone: its
21-qubit full-register passes are bound by memory bandwidth, which other
tenants of a shared host take and give back over minutes, and on their own
their run medians spread by up to 0.22 of the median within ten runs.

Every check compares against `reference` (which does not import pfzeros) or
against a property the method must have; none compares against a stored copy
of earlier output.  A check returns a list of failures, empty when the
outputs are right.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

THREADS = os.cpu_count() or 1

K_WINDOW = (-0.62, 0.63, -1.45, 1.47)  # the CLI's default K-plane window
NOISE_WINDOW = (-0.62, 0.63, -0.80, 0.82)
NOISE_SHOTS = 5000
SAMPLED_CELLS = 512

ZERO_TOL = 1e-12  # |Z_ref| / sum|w| at a reported zero
CELL_TOL = 1e-9  # |exp(value/2) - |Z_ref|| / sum|w|, and |ln L - ln L_ref|
CONJ_TOL = 1e-8  # |x - conj(x')| / max(1, |x|) when pairing roots
Z_SIGMAS = 5.0  # standardized-error mean and variance bounds, in standard errors
MIN_BINOMIAL_VAR = 10.0  # shots * L * (1 - L) at a cell used for the error statistics


@dataclass(frozen=True)
class Operation:
    index: int
    out_dir: str
    tasks: list[list[str]]
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, str], tuple[list[list[str]], dict]]
    check: Callable[[Operation], list[str]]


def op_rng(seed: int, index: int) -> random.Random:
    """The random stream of operation `index`; the same seed gives the same inputs."""
    return random.Random(f"{seed}:{index}")


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _shifted_window(rng: random.Random, window, n_re: int, n_im: int) -> tuple[float, ...]:
    """The window moved by less than one grid cell along each axis."""
    dre = (window[1] - window[0]) / (n_re - 1)
    dim = (window[3] - window[2]) / (n_im - 1)
    ox = rng.uniform(-0.5, 0.5) * dre
    oy = rng.uniform(-0.5, 0.5) * dim
    return (window[0] + ox, window[1] + ox, window[2] + oy, window[3] + oy)


def read_grid_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and (rows, columns) data of a pfzeros CSV, its config line skipped."""
    with open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith("# pfzeros config="):
            raise ValueError(f"{path}: missing config line")
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _complex_list(values) -> np.ndarray:
    return np.array([complex(re, im) for re, im in values], dtype=np.complex128)


def _sample(rng: random.Random, n: int, k: int) -> np.ndarray:
    return np.array(sorted(rng.sample(range(n), min(k, n))), dtype=np.int64)


def _check_zeros(label: str, n_circ: int, l_len: int, K: np.ndarray) -> list[str]:
    """Every K must be a zero of the reference Z to ZERO_TOL of sum|w|."""
    if K.size == 0:
        return []
    z_norm, _ = reference.cylinder_z(n_circ, l_len, K)
    bad = np.abs(z_norm) > ZERO_TOL
    if not bad.any():
        return []
    worst = int(np.argmax(np.abs(z_norm)))
    return [f"{label}: {int(bad.sum())} of {K.size} points are not zeros "
            f"(worst |Z|/sum|w| = {abs(z_norm[worst]):.3e} at K = {K[worst]:.6g})"]


def _unpaired_conjugates(roots: np.ndarray) -> int:
    """Number of roots with no distinct partner near their complex conjugate."""
    free = list(range(len(roots)))
    unpaired = 0
    while free:
        i = free.pop(0)
        target = np.conj(roots[i])
        if abs(target.imag) <= CONJ_TOL * max(1.0, abs(target)):
            continue  # a real root is its own conjugate
        if not free:
            unpaired += 1
            break
        dist = np.abs(roots[free] - target)
        j = int(np.argmin(dist))
        if dist[j] <= CONJ_TOL * max(1.0, abs(target)):
            free.pop(j)
        else:
            unpaired += 1
    return unpaired


# ---------------------------------------------------------------- fisher_zeros

FZ_SIZE, FZ_RES = 7, 100
FZ_BONDS = 2 * FZ_SIZE * FZ_SIZE - FZ_SIZE


def fisher_zeros_make(rng: random.Random, out_dir: str):
    window = _shifted_window(rng, K_WINDOW, FZ_RES, FZ_RES)
    argv = ["--task", "zeros", "--model", f"cylinder:{FZ_SIZE}x{FZ_SIZE}", "--plane", "K",
            "--backend", "oracle", "--res", f"{FZ_RES}x{FZ_RES}", f"--window={_fmt(window)}",
            "--threads", str(THREADS), "--out", os.path.join(out_dir, "zeros")]
    return [argv], {"window": window, "cell_seed": rng.randrange(2**32)}


def fisher_zeros_check(op: Operation) -> list[str]:
    errors = []
    header, data = read_grid_csv(os.path.join(op.out_dir, "zeros.csv"))
    if header != ["re", "im", "value"] or len(data) != FZ_RES * FZ_RES:
        return [f"zeros.csv: unexpected layout {header} x {len(data)} rows"]
    cells = _sample(random.Random(op.params["cell_seed"]), len(data), SAMPLED_CELLS)
    K = data[cells, 0] + 1j * data[cells, 1]
    z_norm, log_scale = reference.cylinder_z(FZ_SIZE, FZ_SIZE, K)
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(np.exp(data[cells, 2] / 2.0 - log_scale) - np.abs(z_norm))
    if not np.all(err <= CELL_TOL):
        errors.append(f"zeros.csv: {int(np.sum(~(err <= CELL_TOL)))} sampled cells differ from "
                      f"the reference by more than {CELL_TOL} sum|w|")

    doc = _read_json(os.path.join(op.out_dir, "zeros.json"))
    roots = _complex_list(doc["polynomial_roots"])
    if len(roots) != FZ_BONDS:
        errors.append(f"zeros.json: {len(roots)} polynomial roots, expected B = {FZ_BONDS}")
    at_origin = int(np.sum(roots == 0))
    if at_origin != FZ_SIZE:
        errors.append(f"zeros.json: {at_origin} roots at x = 0, expected {FZ_SIZE} (one per odd ring)")
    unpaired = _unpaired_conjugates(roots)
    if unpaired:
        errors.append(f"zeros.json: {unpaired} roots without a conjugate partner")
    nonzero = roots[roots != 0]
    errors += _check_zeros("zeros.json polynomial roots", FZ_SIZE, FZ_SIZE, -np.log(nonzero) / 2.0)
    errors += _check_zeros("zeros.json roots in window", FZ_SIZE, FZ_SIZE,
                           _complex_list(doc["roots_in_window"]))
    errors += _check_zeros("zeros.json Newton-refined zeros", FZ_SIZE, FZ_SIZE,
                           _complex_list(r["location"] for r in doc["refined"]))
    return errors


# ---------------------------------------------------------------- kicked_noise

KN_SIZE, KN_RES, KN_CUT = 7, 100, 0.375


def kicked_noise_make(rng: random.Random, out_dir: str):
    noise_seed = rng.randrange(2**31)
    argv = ["--task", "noise", "--model", f"cylinder:{KN_SIZE}x{KN_SIZE}", "--plane", "K",
            f"--window={_fmt(NOISE_WINDOW)}", "--res", f"{KN_RES}x{KN_RES}",
            "--shots", str(NOISE_SHOTS), "--seed", str(noise_seed), f"--cut=im={KN_CUT}",
            "--threads", str(THREADS), "--out", os.path.join(out_dir, "noise")]
    return [argv], {"noise_seed": noise_seed, "cell_seed": rng.randrange(2**32)}


def standardized_error_bounds(n_cells: int) -> tuple[float, float]:
    """Allowed |mean| and |variance - 1| of n_cells independent standardized errors.

    Z_SIGMAS standard errors each: the mean has standard error 1/sqrt(n), the
    sample variance sqrt((2 + kappa)/n), where the binomial excess kurtosis
    kappa = (1 - 6 L(1-L)) / (shots L(1-L)) is below 1/MIN_BINOMIAL_VAR.
    """
    return (Z_SIGMAS / math.sqrt(n_cells),
            Z_SIGMAS * math.sqrt((2.0 + 1.0 / MIN_BINOMIAL_VAR) / n_cells))


def kicked_noise_check(op: Operation) -> list[str]:
    errors = []
    header, true = read_grid_csv(os.path.join(op.out_dir, "noise_true.csv"))
    if header != ["re", "im", "value"] or len(true) != KN_RES * KN_RES:
        return [f"noise_true.csv: unexpected layout {header} x {len(true)} rows"]
    header, noisy = read_grid_csv(os.path.join(op.out_dir, "noise_noisy.csv"))
    if header != ["re", "im", "value", "estimate"] or len(noisy) != KN_RES * KN_RES:
        return [f"noise_noisy.csv: unexpected layout {header} x {len(noisy)} rows"]
    log_l = true[:, 2]
    with np.errstate(over="ignore"):
        L = np.exp(log_l)
    if not np.all(np.isfinite(log_l)) or np.any(L > 1.0):
        errors.append("noise_true.csv: a cell is not finite or has L > 1")

    cells = _sample(random.Random(op.params["cell_seed"]), len(true), SAMPLED_CELLS)
    ref = reference.kicked_log_l(KN_SIZE, KN_SIZE, true[cells, 0] + 1j * true[cells, 1])
    judged = np.exp(ref) >= 1e-12
    err = np.abs(log_l[cells] - ref)[judged]
    if not np.all(err <= CELL_TOL):
        errors.append(f"noise_true.csv: {int(np.sum(~(err <= CELL_TOL)))} sampled cells differ "
                      f"from the reference ln L by more than {CELL_TOL}")

    est = noisy[:, 3]
    counts = est * NOISE_SHOTS
    off = np.abs(counts - np.round(counts)) > 1e-6
    if np.any(off) or np.any(est < 0.0) or np.any(est > 1.0):
        errors.append(f"noise_noisy.csv: {int(np.sum(off))} estimates off the 1/{NOISE_SHOTS} "
                      "lattice, or an estimate outside [0, 1]")
    if not np.array_equal(noisy[:, :2], true[:, :2]):
        errors.append("noise_noisy.csv: grid points differ from noise_true.csv")
    with np.errstate(divide="ignore"):
        expected_value = np.where(est > 0, np.log(est), np.nan)
    if not np.allclose(noisy[:, 2], expected_value, rtol=0, atol=1e-12, equal_nan=True):
        errors.append("noise_noisy.csv: value column is not ln(estimate)")

    var = L * (1.0 - L)
    used = NOISE_SHOTS * var >= MIN_BINOMIAL_VAR
    n_used = int(used.sum())
    if n_used < 100:
        errors.append(f"only {n_used} cells have shots L (1 - L) >= {MIN_BINOMIAL_VAR}")
    else:
        z = (est[used] - L[used]) / np.sqrt(var[used] / NOISE_SHOTS)
        mean_bound, var_bound = standardized_error_bounds(n_used)
        if abs(z.mean()) > mean_bound or abs(z.var() - 1.0) > var_bound:
            errors.append(f"standardized errors over {n_used} cells: mean {z.mean():.4f} "
                          f"(bound {mean_bound:.4f}), variance {z.var():.4f} (bound 1 +- {var_bound:.4f})")

    header, cut = read_grid_csv(os.path.join(op.out_dir, "noise_cut.csv"))
    im = true[::KN_RES, 1]
    iy = int(np.argmin(np.abs(im - KN_CUT)))
    row = slice(iy * KN_RES, (iy + 1) * KN_RES)
    if (header != ["re", "true_L", "estimate"] or len(cut) != KN_RES
            or not np.array_equal(cut[:, 0], true[row, 0])
            or not np.allclose(cut[:, 1], L[row], rtol=1e-15, atol=0)
            or not np.array_equal(cut[:, 2], est[row])):
        errors.append(f"noise_cut.csv: does not match row im = {im[iy]:.6g} of the maps")

    report = _read_json(os.path.join(op.out_dir, "noise_report.json"))
    errors += _check_zeros("noise_report.json zeros", KN_SIZE, KN_SIZE,
                           _complex_list(report["zeros_in_window"]))
    return errors


# ---------------------------------------------------------------- circuit_scan

CS_SIZE, CS_RES = 3, 24
CS_SPINS, CS_BONDS = CS_SIZE * CS_SIZE, 2 * CS_SIZE * CS_SIZE - CS_SIZE
# One scan thread: the pointwise streamed scan is bound by the interpreter lock,
# and with two threads its run medians moved by a third between two sets of ten
# runs on the same commit, beyond any bound a regression gate can use.
CS_THREADS = 1


def circuit_scan_make(rng: random.Random, out_dir: str):
    window = _shifted_window(rng, K_WINDOW, CS_RES, CS_RES)
    argv = ["--task", "scan", "--backend", "streamed", "--model", f"cylinder:{CS_SIZE}x{CS_SIZE}",
            "--plane", "K", "--res", f"{CS_RES}x{CS_RES}", f"--window={_fmt(window)}",
            "--threads", str(CS_THREADS), "--out", os.path.join(out_dir, "scan")]
    return [argv], {"window": window}


def circuit_scan_check(op: Operation) -> list[str]:
    header, data = read_grid_csv(os.path.join(op.out_dir, "scan.csv"))
    if header != ["re", "im", "value"] or len(data) != CS_RES * CS_RES:
        return [f"scan.csv: unexpected layout {header} x {len(data)} rows"]
    K = data[:, 0] + 1j * data[:, 1]
    z_norm, log_scale = reference.cylinder_z(CS_SIZE, CS_SIZE, K)
    # general scheme: ln L = ln|Z|^2 - 2 (N ln 2 + sum_bonds |Re K|)
    expected = (2.0 * (np.log(np.abs(z_norm)) + log_scale)
                - 2.0 * (CS_SPINS * math.log(2.0) + CS_BONDS * np.abs(K.real)))
    errors = []
    err = np.abs(data[:, 2] - expected)
    if not np.all(err <= CELL_TOL):
        errors.append(f"scan.csv: {int(np.sum(~(err <= CELL_TOL)))} cells differ from the "
                      f"reference ln L by more than {CELL_TOL} (worst {np.nanmax(err):.3e})")
    if np.any(data[:, 2] > 0.0):
        errors.append("scan.csv: a cell has L > 1")
    return errors


# ------------------------------------------------------------- protocol_checks

PC_CIRC, PC_ROWS = 4, 3
# One random (K, H) draw per verify model instead of the CLI's five, so the
# memory-bound 21-qubit register passes take about a third of a circuit_tasks
# operation, not about two thirds.
PC_DRAWS = 1
PC_PROBES = (("same", "0,0;2,0", (0, 2)), ("cross", "0,0;1,1", (0, PC_CIRC + 1)))


def protocol_checks_make(rng: random.Random, out_dir: str):
    tasks = [["--task", "verify", "--seed", str(rng.randrange(2**31)), "--draws", str(PC_DRAWS),
              "--threads", str(THREADS), "--out", os.path.join(out_dir, "verify")]]
    couplings = {}
    for name, sites, _ in PC_PROBES:
        k = complex(rng.uniform(-0.35, -0.15), rng.uniform(-0.15, 0.15))
        couplings[name] = [k.real, k.imag]
        tasks.append(["--task", "corr", "--backend", "kicked",
                      "--model", f"cylinder:{PC_CIRC}x{PC_ROWS}", f"--fixed-k={_fmt((k.real, k.imag))}",
                      "--sites", sites, "--threads", str(THREADS),
                      "--out", os.path.join(out_dir, f"corr_{name}")])
    return tasks, {"couplings": couplings}


def corr_tolerance(raw: complex, extrapolated: complex, delta: float) -> float:
    """Truncation error allowed after Richardson extrapolation.

    The extrapolation removed a term of size |raw - extrapolated|; what is
    left is at least one order higher in the probe strength delta.
    """
    return delta * abs(raw - extrapolated)


def protocol_checks_check(op: Operation) -> list[str]:
    errors = []
    verify = _read_json(os.path.join(op.out_dir, "verify.json"))
    if verify.get("passed") is not True:
        errors.append("verify.json: passed is not true")
    for name, _, (i, j) in PC_PROBES:
        doc = _read_json(os.path.join(op.out_dir, f"corr_{name}.json"))
        k = complex(*op.params["couplings"][name])
        bonds = reference.cylinder_bonds(PC_CIRC, PC_ROWS, k, k)
        _, _, corr = reference.brute_force(PC_CIRC * PC_ROWS, bonds, pairs=[(i, j)])
        value, raw = complex(*doc["value"]), complex(*doc["raw"])
        tol = corr_tolerance(raw, complex(*doc["extrapolated"]), doc["delta"])
        if not abs(value - corr[(i, j)]) <= tol:
            errors.append(f"corr_{name}.json: value {value:.8g} is {abs(value - corr[(i, j)]):.3e} "
                          f"from the brute-force {corr[(i, j)]:.8g}, allowed {tol:.3e}")
    return errors


PARTS = {
    w.name: w
    for w in (
        Workload("fisher_zeros", fisher_zeros_make, fisher_zeros_check),
        Workload("kicked_noise", kicked_noise_make, kicked_noise_check),
        Workload("circuit_scan", circuit_scan_make, circuit_scan_check),
        Workload("protocol_checks", protocol_checks_make, protocol_checks_check),
    )
}


def combine(name: str, *parts: str) -> Workload:
    """A workload whose operation runs the parts' CLI tasks in order; the
    operation's params hold each part's params under the part's name."""

    def make(rng: random.Random, out_dir: str):
        tasks, params = [], {}
        for part in parts:
            part_tasks, params[part] = PARTS[part].make(rng, out_dir)
            tasks += part_tasks
        return tasks, params

    def check(op: Operation) -> list[str]:
        return [e for part in parts
                for e in PARTS[part].check(Operation(op.index, op.out_dir, op.tasks, op.params[part]))]

    return Workload(name, make, check)


WORKLOADS = {
    w.name: w
    for w in (
        combine("fisher_zeros", "fisher_zeros"),
        combine("kicked_noise", "kicked_noise"),
        combine("circuit_tasks", "circuit_scan", "protocol_checks"),
    )
}
