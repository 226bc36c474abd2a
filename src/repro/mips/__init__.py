"""MIPS primal-dual interior-point solver (warm-startable)."""

from repro.mips.linsolve import (
    BlockSolveReport,
    FactorizedSolver,
    KKTSolveError,
    KKTSolver,
    available_kkt_solvers,
    make_kkt_solver,
    solver_telemetry,
)
from repro.mips.ldl import LDLSolver
from repro.mips.batch import BatchFeedPayload, LockstepPlan, mips_batch
from repro.mips.options import MIPSOptions
from repro.mips.result import ConstraintPartition, IterationRecord, MIPSResult

__all__ = [
    "MIPSOptions",
    "MIPSResult",
    "IterationRecord",
    "ConstraintPartition",
    "mips_batch",
    "BatchFeedPayload",
    "LockstepPlan",
    "KKTSolver",
    "KKTSolveError",
    "BlockSolveReport",
    "FactorizedSolver",
    "LDLSolver",
    "available_kkt_solvers",
    "make_kkt_solver",
    "solver_telemetry",
]
