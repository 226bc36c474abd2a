"""Options of the AC-OPF drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mips.options import MIPSOptions


@dataclass(frozen=True)
class OPFOptions:
    """Options for :func:`~repro.opf.solver.solve_opf` and
    :func:`~repro.opf.batch.solve_opf_batch`.

    ``flow_limits`` selects the branch-flow constraint type (``"S"`` squared
    apparent power, ``"none"`` to ignore ratings); ``init`` selects the
    default starting point used when no warm start (or a partial one) is
    supplied.
    """

    flow_limits: str = "S"
    init: str = "case"  # "case" or "flat"
    mips: MIPSOptions = field(default_factory=MIPSOptions)

    def __post_init__(self) -> None:
        if self.flow_limits not in ("S", "none"):
            raise ValueError("flow_limits must be 'S' or 'none'")
        if self.init not in ("case", "flat"):
            raise ValueError("init must be 'case' or 'flat'")
