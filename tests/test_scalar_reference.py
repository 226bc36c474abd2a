"""The one-row lockstep path against frozen answers of the scalar MIPS loop.

``tests/data/scalar_reference.npz`` holds ``x``, ``λ``, ``µ``, ``z``,
iteration counts and objectives that the scalar interior-point loop returned
before ``solve_opf`` / ``qps_mips`` became one-row cases of the lockstep
solver (see ``tests/data/make_scalar_reference.py``).  Each entry is rebuilt
from its stored inputs and solved on today's path, with the tolerances the
parity suites held the lockstep solver to against the scalar loop: equal
iteration counts, objectives to 1e-8 relative, ``x`` to 1e-8 and the
multipliers and slacks to 1e-6.  Every OPF answer must also pass the KKT
certificate, and ``solve_opf`` must equal the same row solved alone by
``solve_opf_batch`` bit for bit.

The frozen answers are MATPOWER's fixed-σ trajectories.  Production takes
Mehrotra predictor–corrector steps on a row without warm ``µ`` / ``Z`` and
on every row once it is feasible, so every entry is solved inside
:func:`reference.steps.fixed_sigma`, which puts every row on MATPOWER's entry
and fixed-σ step; the true cold OPF solve must reach the same optimum in
strictly fewer iterations.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from reference.qp import qps_mips
from reference.steps import fixed_sigma
from repro.grid import get_case
from repro.opf import OPFModel, WarmStart, certify_opf, solve_opf, solve_opf_batch
from repro.parallel import Scenario

CORPUS = np.load(Path(__file__).parent / "data" / "scalar_reference.npz")
OPF_ENTRIES = sorted({k.split("/")[1] for k in CORPUS.files if k.startswith("opf/")})
QP_ENTRIES = sorted({k.split("/")[1] for k in CORPUS.files if k.startswith("qp/")})


def _stored(prefix):
    return {k[len(prefix) + 1 :]: CORPUS[k] for k in CORPUS.files if k.startswith(prefix + "/")}


def _entry(entry):
    """``(stored answer, intact case, outage, case the entry is solved on)``."""
    ref = _stored(f"opf/{entry}")
    case = get_case(entry.split("_")[0])
    outage = tuple(int(b) for b in ref["outage"])
    solved_on = Scenario(0, ref["Pd"], ref["Qd"], outage_branches=outage).apply(case)
    return ref, case, outage, solved_on


def _assert_matches(got, ref, objective):
    assert bool(ref["converged"])
    assert int(got.iterations) == int(ref["iterations"])
    assert objective == pytest.approx(float(ref["objective"]), rel=1e-8)
    np.testing.assert_allclose(got.x, ref["x"], atol=1e-8)
    np.testing.assert_allclose(got.lam, ref["lam"], atol=1e-6)
    np.testing.assert_allclose(got.mu, ref["mu"], atol=1e-6)
    np.testing.assert_allclose(got.z, ref["z"], atol=1e-6)


def test_corpus_covers_the_reference_problems():
    assert OPF_ENTRIES == [
        "case118s_cold", "case118s_n2_4_27", "case118s_n2_7_32", "case118s_warm",
        "case14_cold", "case14_warm", "case9_cold", "case9_warm",
    ]
    assert len(QP_ENTRIES) == 6


def test_corpus_script_imports_cleanly_and_writes_only_as_main():
    script = Path(__file__).parent / "data" / "make_scalar_reference.py"
    written = script.with_name("scalar_reference.npz").stat().st_mtime_ns
    spec = importlib.util.spec_from_file_location("make_scalar_reference", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.qps_mips is qps_mips
    assert sorted(module.QPS) == QP_ENTRIES
    assert script.with_name("scalar_reference.npz").stat().st_mtime_ns == written


@pytest.mark.parametrize("entry", OPF_ENTRIES)
def test_one_row_opf_matches_scalar_reference(entry):
    ref, case, outage, solved_on = _entry(entry)
    warm = None
    if entry.endswith("_warm"):
        cold = _stored(f"opf/{case.name}_cold")
        warm = WarmStart(x=cold["x"], lam=cold["lam"], mu=cold["mu"], z=cold["z"])
    with fixed_sigma():
        result = solve_opf(solved_on, warm_start=warm, Pd_mw=ref["Pd"], Qd_mvar=ref["Qd"])
        (row,) = solve_opf_batch(
            solved_on, ref["Pd"][None], ref["Qd"][None], warm_starts=[warm]
        )
    assert result.success
    _assert_matches(result, ref, result.objective)
    certificate = certify_opf(case, result, ref["Pd"], ref["Qd"], outages=outage)
    assert certificate.holds(), certificate

    # solve_opf is the row solved alone by solve_opf_batch, bit for bit.
    assert row.iterations == result.iterations and row.objective == result.objective
    for name in ("x", "lam", "mu", "z"):
        np.testing.assert_array_equal(getattr(row, name), getattr(result, name))


@pytest.mark.parametrize("entry", [e for e in OPF_ENTRIES if not e.endswith("_warm")])
def test_cold_entry_reaches_the_frozen_optimum_in_fewer_iterations(entry):
    """The true cold solve takes predictor–corrector steps: converged,
    certified, the frozen objective to 1e-8 and strictly fewer iterations
    than the frozen fixed-σ trajectory."""
    ref, case, outage, solved_on = _entry(entry)
    result = solve_opf(solved_on, Pd_mw=ref["Pd"], Qd_mvar=ref["Qd"])
    assert result.success
    assert result.objective == pytest.approx(float(ref["objective"]), rel=1e-8)
    assert result.iterations < int(ref["iterations"])
    certificate = certify_opf(case, result, ref["Pd"], ref["Qd"], outages=outage)
    assert certificate.holds(), certificate
    print(f"{entry}: {int(ref['iterations'])} -> {result.iterations} iterations, "
          f"objective rel {abs(result.objective / float(ref['objective']) - 1):.1e}")


@pytest.mark.parametrize("entry", [e for e in OPF_ENTRIES if "_n2_" in e])
def test_outage_as_row_data_matches_structural_reference(entry):
    """The same N-2 row solved on the intact model with the outage as per-row
    data: the tolerance the mixed-topology suite holds it to against the
    structurally outaged solve, intact-size ``µ``/``z`` and a valid
    certificate."""
    ref = _stored(f"opf/{entry}")
    case = get_case("case118s")
    model = OPFModel(case)
    outage = tuple(int(b) for b in ref["outage"])
    (row,) = solve_opf_batch(case, ref["Pd"][None], ref["Qd"][None], model=model, outages=[outage])
    assert row.success
    assert abs(row.objective - float(ref["objective"])) <= 1e-6 * abs(float(ref["objective"]))
    # Intact size: the structural layout plus two slack rows per rated outage.
    n_slack = 2 * int(np.isin(model.limited_branches, outage).sum())
    assert n_slack > 0
    assert row.mu.size == row.z.size == ref["mu"].size + n_slack
    assert certify_opf(case, row, ref["Pd"], ref["Qd"], outages=outage).holds()


@pytest.mark.parametrize("entry", QP_ENTRIES)
def test_one_row_qp_matches_scalar_reference(entry):
    ref = _stored(f"qp/{entry}")
    problem = {k: ref[k] for k in ("H", "c", "A_eq", "b_eq", "A_in", "b_in", "xmin", "xmax")}
    with fixed_sigma():
        result = qps_mips(**problem)
    assert result.converged
    _assert_matches(result, ref, result.f)
