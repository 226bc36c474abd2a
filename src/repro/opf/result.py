"""Result container for AC-OPF solves."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.grid.components import Case
from repro.mips.result import IterationRecord, MIPSResult
from repro.opf.model import OPFModel
from repro.opf.warmstart import WarmStart


@dataclass
class OPFResult:
    """Solution of one AC-OPF problem.

    Physical quantities are reported in engineering units (MW, MVAr, degrees,
    p.u. voltage magnitudes); the raw optimisation vector and multipliers are
    kept for warm-start extraction and analysis.
    """

    case_name: str
    success: bool
    objective: float
    iterations: int
    Va_deg: np.ndarray
    Vm: np.ndarray
    Pg_mw: np.ndarray
    Qg_mvar: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    z: np.ndarray
    message: str = ""
    history: List[IterationRecord] = field(default_factory=list)
    preprocess_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Per-phase solver time (eval / assembly / factorization / backsolve).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: KKT backend factorisation counters (symbolic reuses, numeric
    #: refactorisations, block factorisations …) harvested from the solve —
    #: see ``MIPSResult.kkt_telemetry``.
    kkt_telemetry: Dict[str, int] = field(default_factory=dict)
    #: True when the solve was cut short by a wall deadline or per-solve wall
    #: budget rather than a numerical outcome (see ``MIPSResult.timed_out``).
    timed_out: bool = False
    Pd_mw: Optional[np.ndarray] = None
    Qd_mvar: Optional[np.ndarray] = None

    @property
    def total_seconds(self) -> float:
        """Pre-processing plus solver time."""
        return self.preprocess_seconds + self.solve_seconds

    def warm_start(self) -> WarmStart:
        """Warm-start point carrying this solution's primal and dual variables."""
        return WarmStart(x=self.x.copy(), lam=self.lam.copy(), mu=self.mu.copy(), z=self.z.copy())

    def dispatch_summary(self) -> Dict[str, float]:
        """Headline dispatch quantities."""
        return {
            "objective_usd_per_h": self.objective,
            "total_pg_mw": float(self.Pg_mw.sum()),
            "total_qg_mvar": float(self.Qg_mvar.sum()),
            "max_vm": float(self.Vm.max()),
            "min_vm": float(self.Vm.min()),
            "iterations": self.iterations,
        }


def build_opf_result(
    case: Case,
    model: OPFModel,
    mips_result: MIPSResult,
    preprocess_seconds: float,
    Pd_mw: Optional[np.ndarray],
    Qd_mvar: Optional[np.ndarray],
) -> OPFResult:
    """Translate a raw MIPS result into an :class:`OPFResult`."""
    parts = model.idx.split(mips_result.x)
    return OPFResult(
        case_name=case.name,
        success=mips_result.converged,
        objective=mips_result.f,
        iterations=mips_result.iterations,
        Va_deg=np.rad2deg(parts["Va"]),
        Vm=parts["Vm"].copy(),
        Pg_mw=parts["Pg"] * case.base_mva,
        Qg_mvar=parts["Qg"] * case.base_mva,
        x=mips_result.x.copy(),
        lam=mips_result.lam.copy(),
        mu=mips_result.mu.copy(),
        z=mips_result.z.copy(),
        message=mips_result.message,
        history=list(mips_result.history),
        preprocess_seconds=preprocess_seconds,
        # The additive per-scenario cost: the scenario's share of the
        # lockstep wall, so ``solve_seconds`` sum to the batch wall.
        solve_seconds=mips_result.wall_share_seconds,
        phase_seconds=dict(mips_result.phase_seconds),
        kkt_telemetry=dict(mips_result.kkt_telemetry),
        timed_out=mips_result.timed_out,
        Pd_mw=None if Pd_mw is None else np.asarray(Pd_mw, dtype=float).copy(),
        Qd_mvar=None if Qd_mvar is None else np.asarray(Qd_mvar, dtype=float).copy(),
    )
