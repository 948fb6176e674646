import json

import pytest

from pfzeros.model import (
    build_chain,
    build_cylinder,
    cylinder_dims,
    from_edge_list,
    model_from_json,
    with_bond_delta,
    with_field_delta,
)


def test_open_chain_structure():
    m = build_chain(3, K=0.2 + 0.1j)
    assert m.n_spins == 3
    assert m.bond_count == 2
    assert not m.fields  # H = 0 omitted


def test_degenerate_chain():
    m = build_chain(1)
    assert m.n_spins == 1
    assert m.bond_count == 0


def test_periodic_chain():
    m = build_chain(4, periodic=True, K=-0.3)
    assert m.bond_count == 4
    with pytest.raises(ValueError):
        build_chain(0)
    with pytest.raises(ValueError):
        build_chain(2, periodic=True)


def test_chain_fields_attached():
    m = build_chain(3, K=0.1, H=0.2 + 0.3j)
    assert len(m.fields) == 3
    assert all(f.field == 0.2 + 0.3j for f in m.fields)


def test_cylinder_3x3_counts():
    m = build_cylinder(3, 3, -0.2, -0.2)
    assert m.n_spins == 9
    assert m.bond_count == 15  # 2NL - N


def test_cylinder_7x7_counts():
    m = build_cylinder(7, 7, -0.2, -0.2)
    assert m.n_spins == 49
    assert m.bond_count == 91


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_cylinder_bond_count_formula(n, l):
    assert build_cylinder(n, l, 0.1, 0.2).bond_count == 2 * n * l - n


def test_cylinder_ring_of_two():
    m = build_cylinder(2, 1, 0.5, 0.1)
    assert m.n_spins == 2
    # the (0,1)/(1,0) double bond collapses to one with summed coupling
    assert m.bond_count == 1
    assert m.bonds[0].coupling == 1.0
    with pytest.raises(ValueError):
        build_cylinder(1, 3, 0.5, 0.1)
    with pytest.raises(ValueError):
        build_cylinder(3, 0, 0.5, 0.1)


def test_from_edge_list_valid():
    m = from_edge_list(2, [(0, 1, 0.5 + 0.25j)])
    assert m.bond_count == 1


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list(2, [(0, 0, 0.5)])


def test_from_edge_list_rejects_duplicate_unordered():
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(2, [(0, 1, 0.5), (1, 0, 0.2)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 2, 0.5)])
    with pytest.raises(ValueError):
        from_edge_list(2, [], [(5, 0.1)])
    with pytest.raises(ValueError):
        from_edge_list(2, [], [(0, 0.1), (0, 0.2)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_cylinder_dims_of_cylinders(n, l):
    assert cylinder_dims(build_cylinder(n, l, 0.1 + 0.2j, -0.3, 0.05)) == (n, l)


@pytest.mark.parametrize("n", [3, 4, 6, 11, 30])
def test_cylinder_dims_of_periodic_chain(n):
    assert cylinder_dims(build_chain(n, periodic=True, K=0.2)) == (n, 1)


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_open_chain_is_no_cylinder(n):
    assert cylinder_dims(build_chain(n, K=0.2)) is None


def test_cylinder_with_a_bond_left_out_is_no_cylinder():
    full = build_cylinder(3, 3, 0.2, 0.2)
    for k in range(full.bond_count):
        bonds = [(b.i, b.j, b.coupling) for b in full.bonds[:k] + full.bonds[k + 1:]]
        assert cylinder_dims(from_edge_list(9, bonds)) is None


def test_cylinder_with_a_gained_bond_is_no_cylinder():
    K = -0.3 + 0.2j
    assert cylinder_dims(with_bond_delta(build_cylinder(3, 2, K, K), 0, 4, K)) is None


@pytest.mark.parametrize(
    "model",
    [
        build_chain(5, K=0.2 - 0.7j, H=0.1j),
        build_chain(4, periodic=True, K=-1.0),
        build_cylinder(3, 2, 0.3 + 0.4j, -0.2j, 0.05),
        build_cylinder(2, 3, 0.3, 0.1),
    ],
)
def test_json_round_trip(model):
    doc = {
        "version": 1,
        "n_spins": model.n_spins,
        "bonds": [[b.i, b.j, b.coupling.real, b.coupling.imag] for b in model.bonds],
        "fields": [[f.i, f.field.real, f.field.imag] for f in model.fields],
    }
    assert model_from_json(json.dumps(doc)) == model


def test_with_bond_delta_modifies_existing():
    m = build_chain(3, K=0.2)
    m2 = with_bond_delta(m, 0, 1, 0.3j)
    assert m2.bonds[0].coupling == 0.2 + 0.3j
    assert m2.bond_count == m.bond_count


def test_with_bond_delta_adds_new():
    m = build_chain(3, K=0.2)
    m2 = with_bond_delta(m, 0, 2, 0.1)
    assert m2.bond_count == m.bond_count + 1


def test_with_field_delta():
    m = build_chain(2, K=0.2)
    m2 = with_field_delta(m, 1, 0.4)
    assert len(m2.fields) == 1
    m3 = with_field_delta(m2, 1, 0.1)
    assert m3.fields[0].field == 0.5


def test_homogeneous_coupling():
    assert build_chain(3, K=0.2).homogeneous_coupling() == 0.2
    mixed = from_edge_list(3, [(0, 1, 0.2), (1, 2, 0.3)])
    with pytest.raises(ValueError):
        mixed.homogeneous_coupling()
