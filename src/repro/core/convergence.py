"""Convergence-trace capture for the diverging-case analysis (Fig. 10).

The paper contrasts the per-iteration step size and the four termination
conditions for a solve started from a *good* initial point against one started
from a *bad* initial point.  ``capture_convergence_traces`` reproduces that
experiment for any case: the good trace warm-starts from the exact solution of
a neighbouring scenario, the bad trace starts from a strongly perturbed
(infeasible-leaning) point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.grid.components import Case
from repro.grid.perturb import sample_loads
from repro.mips.result import IterationRecord
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions
from repro.opf.solver import solve_opf
from repro.opf.warmstart import WarmStart
from repro.utils.rng import RNGLike, ensure_rng


@dataclass
class ConvergenceTrace:
    """One solve's per-iteration history plus its outcome."""

    label: str
    converged: bool
    iterations: int
    history: List[IterationRecord]

    def series(self) -> Dict[str, np.ndarray]:
        """Arrays of the five quantities plotted in Fig. 10."""
        return {
            "step_size": np.array([r.step_size for r in self.history]),
            "feasibility": np.array([r.feascond for r in self.history]),
            "gradient": np.array([r.gradcond for r in self.history]),
            "complementarity": np.array([r.compcond for r in self.history]),
            "cost": np.array([r.costcond for r in self.history]),
        }


def _bad_warm_start(model: OPFModel, rng: np.random.Generator, magnitude: float) -> WarmStart:
    """A deliberately poor initial point: random voltages, extreme dispatch, random duals."""
    case = model.case
    nb, ng = case.n_bus, case.n_gen
    Va = rng.uniform(-magnitude, magnitude, size=nb)
    Vm = rng.uniform(case.bus.Vmin, case.bus.Vmax)
    Pg = case.gen.Pmax / case.base_mva * rng.uniform(0.9, 1.0, size=ng)
    Qg = case.gen.Qmax / case.base_mva * rng.uniform(0.9, 1.0, size=ng)
    x = model.idx.join(Va, Vm, Pg, Qg)
    n_eq = model.n_eq_nonlin + 1  # + reference-angle equality
    xmin, xmax = model.bounds()
    n_bound_ineq = int(np.sum(np.isfinite(xmax) & (xmax > xmin))) + int(
        np.sum(np.isfinite(xmin) & (xmax > xmin))
    )
    n_ineq = model.n_ineq_nonlin + n_bound_ineq
    lam = rng.uniform(-50.0, 50.0, size=n_eq)
    mu = rng.uniform(1e-4, 50.0, size=n_ineq)
    z = rng.uniform(1e-6, 1e-3, size=n_ineq)
    return WarmStart(x=x, lam=lam, mu=mu, z=z)


def capture_convergence_traces(
    case: Case,
    seed: RNGLike = 0,
    variation: float = 0.1,
    bad_magnitude: float = 0.6,
    options: Optional[OPFOptions] = None,
) -> Dict[str, ConvergenceTrace]:
    """Return ``{"good": trace, "bad": trace, "default": trace}`` for one scenario.

    * ``default`` — the standard cold start,
    * ``good`` — warm-started from the exact solution of a nearby scenario,
    * ``bad`` — started from a random, aggressive initial point.
    """
    options = options or OPFOptions()
    rng = ensure_rng(seed)
    model = OPFModel(case, flow_limits=options.flow_limits)
    target, neighbour = sample_loads(case, 2, variation=variation, seed=rng)

    baseline = solve_opf(case, Pd_mw=target.Pd, Qd_mvar=target.Qd, options=options, model=model)
    neighbour_solution = solve_opf(
        case, Pd_mw=neighbour.Pd, Qd_mvar=neighbour.Qd, options=options, model=model
    )

    good = solve_opf(
        case,
        warm_start=neighbour_solution.warm_start(),
        Pd_mw=target.Pd,
        Qd_mvar=target.Qd,
        options=options,
        model=model,
    )
    bad = solve_opf(
        case,
        warm_start=_bad_warm_start(model, rng, bad_magnitude),
        Pd_mw=target.Pd,
        Qd_mvar=target.Qd,
        options=options,
        model=model,
    )

    return {
        "default": ConvergenceTrace(
            label="default start",
            converged=baseline.success,
            iterations=baseline.iterations,
            history=baseline.history,
        ),
        "good": ConvergenceTrace(
            label="good initial point",
            converged=good.success,
            iterations=good.iterations,
            history=good.history,
        ),
        "bad": ConvergenceTrace(
            label="bad initial point",
            converged=bad.success,
            iterations=bad.iterations,
            history=bad.history,
        ),
    }
