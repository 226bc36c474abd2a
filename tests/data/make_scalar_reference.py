"""Generate ``scalar_reference.npz``: frozen answers of the scalar MIPS loop.

The committed ``scalar_reference.npz`` was produced by this script at commit
2b668d5, the last commit whose ``solve_opf`` / ``qps_mips`` ran the scalar
interior-point loop (``mips()`` with its own KKT assembler) rather than the
one-row case of the lockstep solver.  The file keeps that loop's answers
after its code was deleted; ``tests/test_scalar_reference.py`` compares the
one-row path against them.  Re-running the script today records the one-row
path instead, so regenerate only to extend the corpus on purpose.

Every entry stores its inputs next to its answer, so the test rebuilds each
problem from the file alone:

* ``opf/<case>_cold`` / ``opf/<case>_warm`` for case9, case14 and case118s —
  a cold solve at one load draw, and a solve at a second draw warm-started
  from the stored cold answer;
* ``opf/case118s_n2_<i>_<j>`` — two N-2 rows of case118s, solved on the
  structurally outaged case (branches removed, not zeroed);
* ``qp/<name>`` — the quadratic programs of ``tests/test_mips_solver.py``.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_scalar_reference.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import qps_mips
from repro.opf import OPFModel, WarmStart, solve_opf
from repro.parallel import Scenario

OUT = Path(__file__).with_name("scalar_reference.npz")

#: Connectivity-preserving, solvable N-2 pairs of case118s.
N2_PAIRS_118 = ((4, 27), (7, 32))


def _qp(H, c, A_eq=None, b_eq=None, A_in=None, b_in=None, xmin=None, xmax=None):
    """A QP as dense arrays; absent parts become empty blocks / infinite bounds."""
    c = np.asarray(c, dtype=float)
    nx = c.size
    return {
        "H": np.zeros((nx, nx)) if H is None else np.asarray(H, dtype=float),
        "c": c,
        "A_eq": np.zeros((0, nx)) if A_eq is None else np.asarray(A_eq, dtype=float),
        "b_eq": np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float),
        "A_in": np.zeros((0, nx)) if A_in is None else np.asarray(A_in, dtype=float),
        "b_in": np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float),
        "xmin": np.full(nx, -np.inf) if xmin is None else np.asarray(xmin, dtype=float),
        "xmax": np.full(nx, np.inf) if xmax is None else np.asarray(xmax, dtype=float),
    }


QPS = {
    "equality": _qp(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0]),
    "active_upper_bound": _qp([[2.0]], [-6.0], xmin=[0.0], xmax=[2.0]),
    "inequality": _qp(2 * np.eye(2), np.zeros(2), A_in=[[-1.0, -1.0]], b_in=[-2.0]),
    "linear_program": _qp(
        None, [-1.0, -2.0], A_in=[[1.0, 1.0]], b_in=[1.0], xmin=np.zeros(2)
    ),
    "portfolio": _qp(
        [
            [1003.1, 4.3, 6.3, 5.9],
            [4.3, 2.2, 2.1, 3.9],
            [6.3, 2.1, 3.5, 4.8],
            [5.9, 3.9, 4.8, 10.0],
        ],
        np.zeros(4),
        A_eq=[[1.0, 1.0, 1.0, 1.0], [0.17, 0.11, 0.10, 0.18]],
        b_eq=[1.0, 0.10],
        xmin=np.zeros(4),
    ),
    "fixed_variable": _qp(
        np.eye(2) * 2, np.zeros(2), xmin=[1.0, -10.0], xmax=[1.0, 10.0]
    ),
}


def _answer(prefix, result, objective, converged, out):
    out[f"{prefix}/x"] = result.x
    out[f"{prefix}/lam"] = result.lam
    out[f"{prefix}/mu"] = result.mu
    out[f"{prefix}/z"] = result.z
    out[f"{prefix}/iterations"] = np.array(result.iterations)
    out[f"{prefix}/objective"] = np.array(objective)
    out[f"{prefix}/converged"] = np.array(converged)


def _opf(prefix, case, Pd, Qd, out, warm=None, outage=(), model=None):
    if outage:
        case = Scenario(0, Pd, Qd, outage_branches=outage).apply(case)
        model = None
    result = solve_opf(case, warm_start=warm, Pd_mw=Pd, Qd_mvar=Qd, model=model)
    out[f"{prefix}/Pd"] = Pd
    out[f"{prefix}/Qd"] = Qd
    out[f"{prefix}/outage"] = np.array(outage, dtype=int)
    _answer(prefix, result, result.objective, result.success, out)
    return result


def build() -> dict:
    out: dict = {}
    for name in ("case9", "case14", "case118s"):
        case = get_case(name)
        model = OPFModel(case)
        first, second = sample_loads(case, 2, variation=0.05, seed=11)
        _opf(f"opf/{name}_cold", case, first.Pd, first.Qd, out, model=model)
        cold = WarmStart(*(out[f"opf/{name}_cold/{k}"] for k in ("x", "lam", "mu", "z")))
        _opf(f"opf/{name}_warm", case, second.Pd, second.Qd, out, warm=cold, model=model)

    case = get_case("case118s")
    draws = sample_loads(case, len(N2_PAIRS_118), variation=0.05, seed=13)
    for pair, draw in zip(N2_PAIRS_118, draws):
        _opf(f"opf/case118s_n2_{pair[0]}_{pair[1]}", case, draw.Pd, draw.Qd, out, outage=pair)

    for name, qp in QPS.items():
        result = qps_mips(**qp)
        for key, value in qp.items():
            out[f"qp/{name}/{key}"] = value
        _answer(f"qp/{name}", result, result.f, result.converged, out)
    return out


if __name__ == "__main__":
    corpus = build()
    np.savez_compressed(OUT, **corpus)
    print(f"wrote {len(corpus)} arrays to {OUT}")
