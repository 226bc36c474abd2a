"""Comparison baselines.

``DirectPredictionBaseline`` evaluates the Zamzam & Baker style of NN usage:
the network output *is* the solution — no numerical solver runs at all.  This
is what Table III contrasts Smart-PGSim against (speedup factor SF and cost
loss L_cost); the paper then argues that feeding the prediction through MIPS
instead recovers exact optimality at a modest cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.metrics import cost_loss, speedup_factor_sf
from repro.data.dataset import OPFDataset
from repro.mtl.trainer import MTLTrainer
from repro.opf.costs import total_cost
from repro.opf.model import OPFModel


@dataclass
class DirectPredictionReport:
    """Table III row for one test system."""

    case_name: str
    speedup_factor: float
    cost_loss_pct: float
    inference_seconds: np.ndarray
    solver_seconds: np.ndarray
    predicted_costs: np.ndarray
    true_costs: np.ndarray
    feasibility_violation: float


class DirectPredictionBaseline:
    """Use the trained network's primal prediction directly as the final answer.

    Generation limits are enforced by clamping (as in the prior work the paper
    compares with); voltage magnitudes are clamped to their bus limits.
    """

    def __init__(self, trainer: MTLTrainer, opf_model: OPFModel):
        self.trainer = trainer
        self.opf_model = opf_model

    def _clamp(self, pred: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        case = self.opf_model.case
        base = case.base_mva
        out = {k: np.array(v, dtype=float, copy=True) for k, v in pred.items()}
        out["Pg"] = np.clip(out["Pg"], case.gen.Pmin / base, case.gen.Pmax / base)
        out["Qg"] = np.clip(out["Qg"], case.gen.Qmin / base, case.gen.Qmax / base)
        out["Vm"] = np.clip(out["Vm"], case.bus.Vmin, case.bus.Vmax)
        return out

    def evaluate(self, dataset: OPFDataset) -> DirectPredictionReport:
        """Compute SF / L_cost over ``dataset`` (typically the validation split)."""
        case = self.opf_model.case
        n = dataset.n_samples
        inference_seconds = np.zeros(n)
        predicted_costs = np.zeros(n)
        violations = np.zeros(n)

        from repro.powerflow.injections import power_balance_mismatch, mismatch_norm, polar_to_complex

        for i in range(n):
            t0 = time.perf_counter()
            pred = self.trainer.predict_physical(dataset.inputs[i : i + 1])
            inference_seconds[i] = time.perf_counter() - t0
            pred = self._clamp({k: v[0] for k, v in pred.items()})
            predicted_costs[i] = total_cost(case, pred["Pg"] * case.base_mva)
            V = polar_to_complex(pred["Va"], pred["Vm"])
            mis = power_balance_mismatch(
                case,
                self.opf_model.adm,
                V,
                pred["Pg"],
                pred["Qg"],
                Pd=dataset.Pd_mw[i],
                Qd=dataset.Qd_mw[i],
            )
            violations[i] = mismatch_norm(mis)

        solver_seconds = dataset.solve_seconds.copy()
        return DirectPredictionReport(
            case_name=case.name,
            speedup_factor=speedup_factor_sf(solver_seconds, inference_seconds),
            cost_loss_pct=cost_loss(dataset.objectives, predicted_costs),
            inference_seconds=inference_seconds,
            solver_seconds=solver_seconds,
            predicted_costs=predicted_costs,
            true_costs=dataset.objectives.copy(),
            feasibility_violation=float(violations.max()),
        )
