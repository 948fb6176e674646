"""Classical Ising models on arbitrary graphs with complex couplings and fields.

The Boltzmann weight of a configuration s in {-1,+1}^N is

    w(s) = exp(- sum_bonds K_ij s_i s_j - sum_i H_i s_i)

with complex K_ij and H_i.  Under this convention ferromagnetic order
corresponds to negative real K.  Models are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Bond:
    """Unordered pair coupling term K_ij * s_i * s_j."""

    i: int
    j: int
    coupling: complex

    def key(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


@dataclass(frozen=True)
class FieldTerm:
    """Single-spin term H_i * s_i."""

    i: int
    field: complex


@dataclass(frozen=True)
class IsingModel:
    n_spins: int
    bonds: tuple[Bond, ...]
    fields: tuple[FieldTerm, ...]

    @property
    def bond_count(self) -> int:
        return len(self.bonds)

    def homogeneous_coupling(self) -> complex:
        """The common bond coupling, or raise if bonds are inhomogeneous."""
        if not self.bonds:
            raise ValueError("model has no bonds")
        k0 = complex(self.bonds[0].coupling)
        for b in self.bonds:
            if complex(b.coupling) != k0:
                raise ValueError("bond couplings are not homogeneous")
        return k0


def _validate(n_spins: int, bonds: list[Bond], fields: list[FieldTerm]) -> None:
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    seen = set()
    for b in bonds:
        if not (0 <= b.i < n_spins and 0 <= b.j < n_spins):
            raise ValueError(f"bond ({b.i},{b.j}) out of range for {n_spins} spins")
        if b.i == b.j:
            raise ValueError(f"self-loop bond at spin {b.i}")
        if b.key() in seen:
            raise ValueError(f"duplicate bond for unordered pair {b.key()}")
        seen.add(b.key())
    seen_f = set()
    for f in fields:
        if not 0 <= f.i < n_spins:
            raise ValueError(f"field index {f.i} out of range")
        if f.i in seen_f:
            raise ValueError(f"duplicate field term at spin {f.i}")
        seen_f.add(f.i)


def from_edge_list(
    n_spins: int,
    bonds: list[tuple[int, int, complex]],
    fields: list[tuple[int, complex]] | None = None,
) -> IsingModel:
    """Build a model from explicit (i, j, K) bonds and (i, H) field terms.

    Rejects self-loops, duplicate unordered pairs, and out-of-range indices.
    """
    bond_objs = [Bond(i, j, complex(k)) for (i, j, k) in bonds]
    field_objs = [FieldTerm(i, complex(h)) for (i, h) in (fields or [])]
    _validate(n_spins, bond_objs, field_objs)
    return IsingModel(n_spins, tuple(bond_objs), tuple(field_objs))


def _uniform_fields(n: int, h: complex) -> list[tuple[int, complex]]:
    # zero fields are omitted so resource counts match the field-free formulas
    if h == 0:
        return []
    return [(i, h) for i in range(n)]


def build_chain(n: int, periodic: bool = False, K: complex = 0j, H: complex = 0j) -> IsingModel:
    """Uniform chain of n spins: n-1 bonds (open) or the n x 1 cylinder (periodic ring)."""
    if n < 1:
        raise ValueError("chain needs at least one spin")
    if periodic and n == 2:
        raise ValueError("periodic chain of 2 duplicates the (0,1) bond")
    if periodic and n > 2:
        return build_cylinder(n, 1, K, K, H)
    return from_edge_list(n, [(i, i + 1, K) for i in range(n - 1)], _uniform_fields(n, H))


def build_cylinder(
    n_circ: int, l_len: int, Kx: complex, Ky: complex, H: complex = 0j
) -> IsingModel:
    """Cylinder of l_len rows, each a periodic ring of n_circ spins.

    Ring bonds carry Kx (n_circ per row), open-direction bonds carry Ky
    (n_circ per adjacent row pair).  Spin (i, r) has index r*n_circ + i.
    A ring of 2 lists the (0,1) pair twice, so it carries one bond of 2*Kx.
    cylinder_dims recognises a cylinder by its bond pairs as laid out here.
    """
    if n_circ < 2:
        raise ValueError("cylinder circumference must be >= 2")
    if l_len < 1:
        raise ValueError("cylinder length must be >= 1")
    bonds: list[tuple[int, int, complex]] = []
    for r in range(l_len):
        base = r * n_circ
        if n_circ == 2:
            bonds.append((base, base + 1, 2 * Kx))
        else:
            for i in range(n_circ):
                bonds.append((base + i, base + (i + 1) % n_circ, Kx))
    for r in range(l_len - 1):
        for i in range(n_circ):
            bonds.append((r * n_circ + i, (r + 1) * n_circ + i, Ky))
    return from_edge_list(n_circ * l_len, bonds, _uniform_fields(n_circ * l_len, H))


def cylinder_dims(model: IsingModel) -> tuple[int, int] | None:
    """(n_circ, l_len) when the model's unordered bond pairs are exactly those of
    build_cylinder(n_circ, l_len, ...), else None; couplings are not compared.
    A periodic chain of N spins is the N x 1 cylinder, a lone bond the 2 x 1."""
    pairs = {b.key() for b in model.bonds}
    n = model.n_spins
    for dims in ((c, n // c) for c in range(2, n + 1) if n % c == 0):
        if pairs == {b.key() for b in build_cylinder(*dims, 0, 0).bonds}:
            return dims
    return None


def with_uniform_weights(model: IsingModel, coupling: complex, field: complex) -> IsingModel:
    """New model with the bond pairs of model, each carrying coupling, and field
    on every spin; an exactly zero field has no terms."""
    bonds = [(b.i, b.j, coupling) for b in model.bonds]
    return from_edge_list(model.n_spins, bonds, _uniform_fields(model.n_spins, field))


def with_bond_delta(model: IsingModel, i: int, j: int, delta: complex) -> IsingModel:
    """New model with K_ij increased by delta (bond created if absent)."""
    if i == j:
        raise ValueError("cannot couple a spin to itself")
    key = (i, j) if i < j else (j, i)
    bonds = []
    found = False
    for b in model.bonds:
        if b.key() == key:
            bonds.append((b.i, b.j, b.coupling + delta))
            found = True
        else:
            bonds.append((b.i, b.j, b.coupling))
    if not found:
        bonds.append((key[0], key[1], complex(delta)))
    fields = [(f.i, f.field) for f in model.fields]
    return from_edge_list(model.n_spins, bonds, fields)


def with_field_delta(model: IsingModel, i: int, delta: complex) -> IsingModel:
    """New model with H_i increased by delta (field term created if absent)."""
    fields = []
    found = False
    for f in model.fields:
        if f.i == i:
            fields.append((f.i, f.field + delta))
            found = True
        else:
            fields.append((f.i, f.field))
    if not found:
        fields.append((i, complex(delta)))
    bonds = [(b.i, b.j, b.coupling) for b in model.bonds]
    return from_edge_list(model.n_spins, bonds, fields)


def model_from_json(text: str) -> IsingModel:
    """Model from {"version": 1, "n_spins": N, "bonds": [[i, j, re K, im K], ...]}
    with optional "fields" [[i, re H, im H], ...] and "lattice" (an object or null,
    not read: cylinder_dims reads the bonds); any other document raises ValueError."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("model JSON must be an object")
    if d.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {d.get('version')!r}")
    try:
        n_spins = int(d["n_spins"])
        bonds = [(int(i), int(j), complex(re, im)) for (i, j, re, im) in d["bonds"]]
        fields = [(int(i), complex(re, im)) for (i, re, im) in d.get("fields", [])]
    except KeyError as exc:
        raise ValueError(f"model JSON lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:  # wrong arity or a non-numeric entry
        raise ValueError(f"malformed model JSON entry: {exc}") from None
    lattice = d.get("lattice")
    if lattice is not None and not isinstance(lattice, dict):
        raise ValueError("model JSON lattice must be an object or null")
    return from_edge_list(n_spins, bonds, fields)
