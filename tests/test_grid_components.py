"""Unit tests for the columnar grid data model."""

import numpy as np
import pytest

from repro.grid.components import PQ, PV, REF, BusTable


def test_case9_sizes(case9_fixture):
    assert case9_fixture.n_bus == 9
    assert case9_fixture.n_gen == 3
    assert case9_fixture.n_branch == 9


def test_case14_sizes(case14_fixture):
    assert case14_fixture.n_bus == 14
    assert case14_fixture.n_gen == 5
    assert case14_fixture.n_branch == 20


def test_bus_index_map_is_bijective(case14_fixture):
    mapping = case14_fixture.bus_index_map()
    assert len(mapping) == case14_fixture.n_bus
    assert sorted(mapping.values()) == list(range(case14_fixture.n_bus))


def test_gen_bus_indices_point_to_generator_buses(case9_fixture):
    idx = case9_fixture.gen_bus_indices()
    assert list(case9_fixture.bus.bus_i[idx]) == list(case9_fixture.gen.bus)


def test_branch_bus_indices_match_endpoints(case14_fixture):
    f, t = case14_fixture.branch_bus_indices()
    assert np.all(case14_fixture.bus.bus_i[f] == case14_fixture.branch.f_bus)
    assert np.all(case14_fixture.bus.bus_i[t] == case14_fixture.branch.t_bus)


def test_exactly_one_reference_bus(case9_fixture, case14_fixture):
    for case in (case9_fixture, case14_fixture):
        assert case.ref_bus_indices().size == 1


def test_bus_type_partition(case14_fixture):
    ref = case14_fixture.ref_bus_indices()
    pv = np.flatnonzero(case14_fixture.bus.bus_type == PV)
    pq = np.flatnonzero(case14_fixture.bus.bus_type == PQ)
    assert ref.size + pv.size + pq.size == case14_fixture.n_bus
    assert set(ref) | set(pv) | set(pq) == set(range(case14_fixture.n_bus))


def test_copy_is_deep(case9_fixture):
    clone = case9_fixture.copy()
    clone.bus.Pd[0] += 100.0
    assert case9_fixture.bus.Pd[0] != clone.bus.Pd[0]


def test_with_loads_replaces_loads(case9_fixture):
    new_pd = np.arange(case9_fixture.n_bus, dtype=float)
    new_qd = np.ones(case9_fixture.n_bus)
    modified = case9_fixture.with_loads(new_pd, new_qd, name="modified")
    assert modified.name == "modified"
    assert np.allclose(modified.bus.Pd, new_pd)
    assert np.allclose(modified.bus.Qd, new_qd)
    # Original untouched.
    assert not np.allclose(case9_fixture.bus.Pd, new_pd)


def test_with_loads_rejects_wrong_shape(case9_fixture):
    with pytest.raises(ValueError):
        case9_fixture.with_loads(np.zeros(3), np.zeros(3))


def test_total_load_and_capacity(case9_fixture):
    assert case9_fixture.bus.Pd.sum() == pytest.approx(315.0)
    assert case9_fixture.bus.Qd.sum() == pytest.approx(115.0)
    on = case9_fixture.gen.status > 0
    assert case9_fixture.gen.Pmax[on].sum() == pytest.approx(820.0)


def test_bus_table_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        BusTable(
            bus_i=[1, 2],
            bus_type=[REF, PQ],
            Pd=[0.0],  # wrong length
            Qd=[0.0, 0.0],
            Gs=[0.0, 0.0],
            Bs=[0.0, 0.0],
            Vm=[1.0, 1.0],
            Va=[0.0, 0.0],
            base_kv=[100.0, 100.0],
            Vmax=[1.1, 1.1],
            Vmin=[0.9, 0.9],
        )


def test_bus_type_constants():
    assert (PQ, PV, REF) == (1, 2, 3)


def test_gencost_constant_column_alignment(case9_fixture):
    # Quadratic costs: last column is the constant term.
    assert case9_fixture.gencost.coeffs.shape == (3, 3)
    assert case9_fixture.gencost.coeffs[0, -1] == pytest.approx(150.0)
    assert case9_fixture.gencost.coeffs[1, -1] == pytest.approx(600.0)


def test_table_copies_are_independent(case9_fixture):
    gen_copy = case9_fixture.gen.copy()
    gen_copy.Pmax[0] = 1.0
    assert case9_fixture.gen.Pmax[0] != 1.0
