"""MIPS primal-dual interior-point solver (warm-startable)."""

from repro.mips.ldl import BlockSolveReport, LDLSolver, LDLSymbolic
from repro.mips.batch import BatchFeedPayload, LockstepPlan, mips_batch
from repro.mips.options import (
    BOUND_EQ_TOL,
    COMPTOL,
    COSTTOL,
    FEASTOL,
    GRADTOL,
    MAX_STEPSIZE,
    SIGMA,
    XI,
    Z0,
    MIPSOptions,
)
from repro.mips.result import ConstraintPartition, IterationRecord, MIPSResult

__all__ = [
    "MIPSOptions",
    "FEASTOL",
    "GRADTOL",
    "COMPTOL",
    "COSTTOL",
    "XI",
    "SIGMA",
    "Z0",
    "MAX_STEPSIZE",
    "BOUND_EQ_TOL",
    "MIPSResult",
    "IterationRecord",
    "ConstraintPartition",
    "mips_batch",
    "BatchFeedPayload",
    "LockstepPlan",
    "BlockSolveReport",
    "LDLSolver",
    "LDLSymbolic",
]
