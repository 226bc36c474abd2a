"""MIPS primal-dual interior-point solver (warm-startable)."""

from repro.mips.ldl import BlockSolveReport, KKTSolveError, LDLSolver
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
    "KKTSolveError",
    "BlockSolveReport",
    "LDLSolver",
]
