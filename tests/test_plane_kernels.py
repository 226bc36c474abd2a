"""The plane gather/scatter primitives equal NumPy advanced indexing, bit for bit.

:mod:`repro.utils.planes` replays the lockstep solver's fixed index maps with
``take`` and flat-offset scatters instead of ``plane[:, idx]``.  The change is
pure data movement, so it must not move a single bit:

* **kernels** — :func:`~repro.utils.planes.take` and the
  :class:`~repro.utils.planes.Targets` scatters against ``plane[:, idx]`` /
  ``plane[:, idx] = v`` / ``+= v`` / ``-= v`` over widths 1–17 (17 crosses
  the offset cache's row bound), empty index arrays, ``(1, k)`` and ``(k,)``
  broadcast operands, scalars, ``int32`` and ``intp`` indices;
* **solver** — with the primitives swapped back to the advanced-indexing
  forms, cold case118s at widths 1, 3, 5 and 16, a warm case14 sweep and a
  mixed N-2 row-data batch give the same ``x``, ``λ``, ``µ``, ``z``,
  iterations and objective bits.

The advanced-indexing forms below are the reference formulation; nothing in
``src/`` uses them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.opf import OPFModel, solve_opf_batch
from repro.opf.warmstart import WarmStart
from repro.utils import planes
from repro.utils.planes import Targets


# ------------------------------------------------------- reference formulation
def _cached_rows(targets):
    """Rows of flat offsets a target set holds (at most ``MAX_ROWS``)."""
    return 0 if targets._offsets is None else targets._offsets[1]


def fancy_take(plane, idx):
    return plane[:, idx]


def fancy_put(self, plane, values):
    plane[:, self.idx] = values


def fancy_add(self, plane, values):
    plane[:, self.idx] += values


def fancy_sub(self, plane, values):
    plane[:, self.idx] -= values


FANCY = {"put": fancy_put, "add": fancy_add, "sub": fancy_sub}


# -------------------------------------------------------------------- kernels
@st.composite
def plane_cases(draw):
    width = draw(st.integers(1, 17))
    ncols = draw(st.integers(1, 40))
    k = draw(st.integers(0, ncols))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    idx = rng.permutation(ncols)[:k].astype(draw(st.sampled_from([np.int32, np.intp])))
    operand = draw(st.sampled_from(["full", "row", "vector", "scalar"]))
    shape = {"full": (width, k), "row": (1, k), "vector": (k,), "scalar": ()}[operand]
    # Signed zeros and wide magnitudes: any rounding or sign slip shows in the bits.
    pool = np.array([0.0, -0.0, 1.0, -1.5, 1e-300, 3e17, np.pi])
    plane = rng.choice(pool, (width, ncols)) * rng.standard_normal((width, ncols))
    values = rng.choice(pool, shape) * rng.standard_normal(shape)
    return plane, idx, values


@settings(max_examples=150, deadline=None)
@given(case=plane_cases(), op=st.sampled_from(sorted(FANCY)))
def test_primitives_equal_advanced_indexing_bitwise(case, op):
    plane, idx, values = case
    assert planes.take(plane, idx).tobytes() == plane[:, idx].tobytes()
    assert planes.take(plane, idx).shape == plane[:, idx].shape

    targets = Targets(idx)
    ours, reference = plane.copy(), plane.copy()
    getattr(targets, op)(ours, values)
    FANCY[op](targets, reference, values)
    assert ours.tobytes() == reference.tobytes()
    assert _cached_rows(targets) <= Targets.MAX_ROWS


def test_offsets_are_one_prefix_shared_by_narrower_planes():
    targets = Targets(np.array([3, 0, 2]))
    wide = targets.offsets(5, 4)
    np.testing.assert_array_equal(wide, [3, 0, 2, 8, 5, 7, 13, 10, 12, 18, 15, 17])
    narrow = targets.offsets(5, 2)
    assert np.shares_memory(narrow, wide) and _cached_rows(targets) == 4
    # A wider plane than the bound is written in blocks, never cached whole.
    plane = np.zeros((3 * Targets.MAX_ROWS + 1, 5))
    targets.put(plane, 1.0)
    assert plane.sum() == 3 * plane.shape[0]
    assert _cached_rows(targets) == Targets.MAX_ROWS
    with pytest.raises(ValueError, match="at most"):
        targets.offsets(5, Targets.MAX_ROWS + 1)


def test_scatter_refuses_a_plane_it_cannot_write_through():
    plane = np.zeros((6, 4))[:, :3]
    with pytest.raises(ValueError, match="C-contiguous"):
        Targets(np.array([0, 2])).put(plane, 1.0)


# --------------------------------------------------------------------- solver
def _loads(case, n, seed):
    samples = sample_loads(case, n, variation=0.05, seed=seed)
    return np.stack([s.Pd for s in samples]), np.stack([s.Qd for s in samples])


def _bits(results):
    return [
        (r.iterations, float(r.objective).hex(), r.x.tobytes(), r.lam.tobytes(),
         r.mu.tobytes(), r.z.tobytes())
        for r in results
    ]


def _both_ways(solve):
    """``solve()``'s answer bits with the primitives, then with advanced indexing."""
    ours = _bits(solve())
    calls = {"take": 0, "put": 0, "add": 0, "sub": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planes, "take", counted("take", fancy_take))
        for name, fn in FANCY.items():
            patch.setattr(Targets, name, counted(name, fn))
        reference = _bits(solve())
    assert all(calls.values()), calls  # every primitive was swapped in
    return ours, reference


@pytest.fixture(scope="module")
def case118():
    case = get_case("case118s")
    return case, OPFModel(case), _loads(case, 16, seed=11)


@pytest.mark.parametrize("width", [1, 3, 5, 16])
def test_cold_case118s_is_bitwise_the_advanced_indexing_answer(case118, width):
    case, model, (Pd, Qd) = case118
    ours, reference = _both_ways(
        lambda: solve_opf_batch(case, Pd[:width], Qd[:width], model=model)
    )
    assert ours == reference


def test_warm_case14_sweep_is_bitwise_the_advanced_indexing_answer():
    case = get_case("case14")
    model = OPFModel(case)
    Pd, Qd = _loads(case, 12, seed=5)
    cold = solve_opf_batch(case, Pd[:6], Qd[:6], model=model)
    warm = [
        WarmStart(x=r.x, lam=r.lam, mu=r.mu, z=r.z) if i % 3 else None
        for i, r in enumerate(cold)
    ]
    ours, reference = _both_ways(
        lambda: solve_opf_batch(case, Pd[6:], Qd[6:], warm_starts=warm, model=model)
    )
    assert ours == reference


def test_mixed_n2_batch_is_bitwise_the_advanced_indexing_answer(case118):
    case, model, (Pd, Qd) = case118
    outages = [(), (4, 27), (7, 32), (10, 36), ()]
    ours, reference = _both_ways(
        lambda: solve_opf_batch(case, Pd[:5], Qd[:5], model=model, outages=outages)
    )
    assert ours == reference
