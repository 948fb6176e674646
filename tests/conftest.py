"""Shared test helpers: independent oracles and random-instance generators.

The enumeration oracle here is deliberately written with itertools loops so it
shares no code path with the package's vectorized evaluation.
"""

import cmath
import itertools
import os

import numpy as np
import pytest

import pfzeros
from pfzeros.circuits import Circuit, Gadget, Gate, QubitRole
from pfzeros.model import from_edge_list


def child_env():
    """Environment for a `python -m pfzeros` child process.

    Puts the absolute directory holding the imported `pfzeros` package first
    on PYTHONPATH, so the child runs the code under test whatever its working
    directory; existing PYTHONPATH entries (possibly relative) follow it.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(pfzeros.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class Pointwise:
    """Scan evaluator whose evaluate_grid calls fn(w) at each complex mesh point."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate_grid(self, mesh):
        return np.array([[float(self.fn(complex(w))) for w in row] for row in mesh])


def enumerate_Z(n_spins, bonds, fields=()):
    """Independent brute-force partition sum (pure-python loop)."""
    total = 0j
    for cfg in itertools.product((1, -1), repeat=n_spins):
        e = 0j
        for (i, j, k) in bonds:
            e += k * cfg[i] * cfg[j]
        for (i, h) in fields:
            e += h * cfg[i]
        total += cmath.exp(-e)
    return total


def enumerate_correlation(n_spins, bonds, fields, i, j):
    """Independent <s_i s_j> by direct enumeration."""
    num = 0j
    den = 0j
    for cfg in itertools.product((1, -1), repeat=n_spins):
        e = 0j
        for (a, b, k) in bonds:
            e += k * cfg[a] * cfg[b]
        for (a, h) in fields:
            e += h * cfg[a]
        w = cmath.exp(-e)
        den += w
        num += cfg[i] * cfg[j] * w
    return num / den


def random_complex(rng, scale=0.4):
    return complex(rng.normal(0, scale), rng.normal(0, scale))


def random_model(rng, n_max=8, with_fields=True):
    """Random connected-ish graph model with complex couplings."""
    n = int(rng.integers(2, n_max + 1))
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    n_bonds = int(rng.integers(1, min(len(pairs), 2 * n) + 1))
    bonds = [(i, j, random_complex(rng)) for (i, j) in pairs[:n_bonds]]
    fields = []
    if with_fields and rng.random() < 0.8:
        fields = [(i, random_complex(rng, 0.3)) for i in range(n) if rng.random() < 0.7]
    return from_edge_list(n, bonds, fields)


def random_gadget_circuit(rng, max_qubits=14):
    """Random circuit honoring the single-use-ancilla/contiguous-span invariant.

    Physical qubits come first; each gadget owns one fresh ancilla and two
    gates touching it; free gates act on physical qubits only.
    """
    n_phys = int(rng.integers(2, 6))
    roles = [QubitRole.PHYSICAL] * n_phys
    gates = []
    gadgets = []

    def free_gate():
        kind = rng.choice(["zz", "zrot", "xx", "xrot"])
        if kind in ("zz", "xx"):
            i, j = rng.choice(n_phys, size=2, replace=False)
            gates.append(Gate(kind, (int(i), int(j)), float(rng.normal(0, 0.8))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n_phys)),), float(rng.normal(0, 0.8))))

    while True:
        for _ in range(int(rng.integers(1, 4))):
            free_gate()
        if len(roles) >= max_qubits or rng.random() < 0.25:
            break
        anc = len(roles)
        role = QubitRole.ANCILLA_X if rng.random() < 0.6 else QubitRole.ANCILLA_Z
        roles.append(role)
        start = len(gates)
        pair_kind = "zz" if rng.random() < 0.5 else "xx"
        rot_kind = "zrot" if pair_kind == "zz" else "xrot"
        tgt = int(rng.integers(n_phys))
        gates.append(Gate(pair_kind, (tgt, anc), float(rng.normal(0, 0.6))))
        if rng.random() < 0.5:
            other = int(rng.integers(n_phys))
            while other == tgt and n_phys > 1:
                other = int(rng.integers(n_phys))
            gates.append(Gate(pair_kind, (other, anc), float(rng.normal(0, 0.6))))
        else:
            gates.append(Gate(rot_kind, (anc,), float(rng.normal(0, 0.6))))
        gadgets.append(Gadget(len(gadgets), anc, (start, len(gates))))
    circ = Circuit(tuple(roles), tuple(gates), 0.0, tuple(gadgets))
    circ.validate()
    return circ


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
