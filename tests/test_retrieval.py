"""The served warm start: the nearest training solutions (``NearestSolutions``).

A start is a function of its row alone: it is bitwise the same served alone,
in a pair, in a 16-wide batch or inside a flush the async server coalesced.
A training row gets its stored solution back exactly, a table with fewer
than ``K`` rows averages all of them, and ties in distance go to the earlier
training row.
"""

import asyncio

import numpy as np
import pytest

from repro.data import TASK_NAMES
from repro.engine import NearestSolutions, WarmStartEngine
from repro.engine.retrieval import K
from repro.opf import WarmStart
from repro.parallel import generate_scenarios
from repro.serving import AsyncServer


def _bits(values):
    """Exact comparison, signed zeros included."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.fixture(scope="module")
def train9(dataset9):
    return dataset9.split(0.8, seed=0)[0]


@pytest.fixture(scope="module")
def table9(train9):
    return NearestSolutions.from_dataset(train9)


def _probe(case, n, seed):
    """p.u. load features of ``n`` fresh draws (no training row)."""
    return generate_scenarios(case, n, variation=0.05, seed=seed).feature_matrix(case.base_mva)


def test_a_start_does_not_depend_on_its_batch(table9, case9_fixture):
    rows = _probe(case9_fixture, 16, seed=40)
    wide = table9.predict_physical(rows)
    assert set(wide) == set(TASK_NAMES)
    for i in range(16):
        alone = table9.predict_physical(rows[i])
        pair = table9.predict_physical(rows[[(i + 5) % 16, i]])
        for task in TASK_NAMES:
            _assert_same_bits(alone[task][0], wide[task][i])
            _assert_same_bits(pair[task][1], wide[task][i])


def test_a_start_does_not_depend_on_async_coalescing(table9, case9_fixture, monkeypatch):
    """Rows coalesced into one flush by the async server get the starts they
    get alone."""
    answered = []
    predict = NearestSolutions.predict_physical

    def recording(self, inputs_pu):
        predictions = predict(self, inputs_pu)
        answered.append((np.atleast_2d(inputs_pu).copy(), predictions))
        return predictions

    monkeypatch.setattr(NearestSolutions, "predict_physical", recording)
    rows = list(generate_scenarios(case9_fixture, 6, variation=0.05, seed=41))
    requests = [
        (np.vstack([s.Pd for s in part]), np.vstack([s.Qd for s in part]))
        for part in (rows[0:1], rows[1:3], rows[3:6])
    ]

    async def coalesced(engine):
        async with AsyncServer(engine, max_batch=16) as server:
            await asyncio.gather(*(server.submit_loads(Pd, Qd) for Pd, Qd in requests))
            return server.stats

    with WarmStartEngine(case9_fixture, table9) as engine:
        stats = asyncio.run(coalesced(engine))
    monkeypatch.undo()
    assert stats.widest_flush > 1
    assert sum(len(rows) for rows, _ in answered) == 6
    for rows, predictions in answered:
        for i, row in enumerate(rows):
            alone = table9.predict_physical(row)
            for task in TASK_NAMES:
                _assert_same_bits(predictions[task][i], alone[task][0])


def test_a_training_row_gets_its_stored_solution(train9, table9, case9_fixture, opf_model9):
    picked = [3, 0, 7]
    predictions = table9.predict_physical(train9.inputs[picked])
    for j, i in enumerate(picked):
        for task in TASK_NAMES:
            _assert_same_bits(predictions[task][j], train9.targets[task][i])
    engine = WarmStartEngine(case9_fixture, table9, opf_model=opf_model9)
    for i, warm in zip(picked, engine.warm_starts_for(train9.inputs[picked])):
        target = {task: train9.targets[task][i] for task in TASK_NAMES}
        stored = WarmStart(
            x=opf_model9.idx.join(target["Va"], target["Vm"], target["Pg"], target["Qg"]),
            lam=target["lam"],
            mu=target["mu"],
            z=target["z"],
        ).clipped_duals()
        for name in ("x", "lam", "mu", "z"):
            _assert_same_bits(getattr(warm, name), getattr(stored, name))


def test_a_small_table_averages_every_row(train9, case9_fixture):
    small = train9.subset(np.arange(3))
    table = NearestSolutions.from_dataset(small)
    query = _probe(case9_fixture, 1, seed=42)[0]
    distance = np.linalg.norm(small.inputs - query, axis=1)
    weights = (1.0 / distance) / np.sum(1.0 / distance)
    predictions = table.predict_physical(query)
    for task in TASK_NAMES:
        np.testing.assert_allclose(predictions[task][0], weights @ small.targets[task], rtol=1e-13)


def _line_table(distances):
    """A table whose row ``i`` sits at ``distances[i]`` from the origin and
    whose every solution entry equals ``i``."""
    n = len(distances)
    inputs = np.zeros((n, 2))
    inputs[:, 0] = distances
    return NearestSolutions(
        inputs=inputs, targets={task: np.arange(n, dtype=float)[:, None] for task in TASK_NAMES}
    )


def test_ties_go_to_the_earlier_training_row():
    # Rows 2, 3 and 4 tie for the third and fourth place: rows 2 and 3 win.
    assert K == 4
    table = _line_table([1.0, 2.0, 3.0, 3.0, 3.0])
    weights = 1.0 / np.array([1.0, 2.0, 3.0, 3.0])
    expected = weights @ np.arange(4.0) / weights.sum()
    first = table.predict_physical(np.zeros(2))
    for task in TASK_NAMES:
        assert first[task][0, 0] == pytest.approx(expected, rel=1e-15)
    again = table.predict_physical(np.zeros((3, 2)))
    for task in TASK_NAMES:
        for row in again[task]:
            _assert_same_bits(row, first[task][0])
    # Two training rows at distance zero: the earlier one's solution, exactly.
    duplicated = _line_table([1.0, 0.0, 2.0, 0.0])
    assert duplicated.predict_physical(np.zeros(2))["Va"][0, 0] == 1.0


def test_a_table_validates_its_shape():
    with pytest.raises(ValueError):
        _line_table([])
    with pytest.raises(ValueError):
        NearestSolutions(inputs=np.zeros((2, 2)), targets={"Va": np.zeros((2, 1))})
    table = _line_table([1.0, 2.0])
    targets = dict(table.targets, Va=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        NearestSolutions(inputs=table.inputs, targets=targets)
