"""AC-OPF driver for one scenario.

``solve_opf`` is the library's main numerical entry point — the function the
Smart-PGSim framework accelerates by feeding it predicted warm-start points.
It is the one-row case of :func:`repro.opf.batch.solve_opf_batch`: one
scenario runs the same element kernels, the same lockstep MIPS loop and the
same KKT linear algebra as a sweep, so a scenario solved here is bit-for-bit
the same scenario solved alone by ``solve_opf_batch``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.components import Case
from repro.mips.options import MIPSOptions
from repro.opf.batch import solve_opf_batch
from repro.opf.model import OPFModel
from repro.opf.result import OPFResult
from repro.opf.warmstart import WarmStart

__all__ = ["solve_opf"]


def solve_opf(
    case: Case,
    warm_start: Optional[WarmStart] = None,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mvar: Optional[np.ndarray] = None,
    options: Optional[MIPSOptions] = None,
    model: Optional[OPFModel] = None,
    deadline: Optional[float] = None,
) -> OPFResult:
    """Solve the AC optimal power flow for ``case``.

    Parameters
    ----------
    case:
        The power-grid case (loads may be overridden per call).
    warm_start:
        Optional :class:`WarmStart`; missing components fall back to the
        solver defaults (the paper's *imprecise default data*).
    Pd_mw, Qd_mvar:
        Optional per-bus loads overriding the case values — this is how
        sampled scenarios are solved without copying the case.
    options:
        :class:`~repro.mips.options.MIPSOptions`, the iteration cap.
    model:
        Pre-built :class:`OPFModel` to reuse across scenarios of the same
        case: it owns the element kernels and the lockstep plan, so repeated
        calls never rebuild them.
    deadline:
        Optional absolute wall deadline on the ``time.monotonic()`` clock.
        Checked cooperatively between solver iterations; an expired deadline
        terminates the solve with ``timed_out`` set instead of raising.
    """
    Pd = case.bus.Pd if Pd_mw is None else Pd_mw
    Qd = case.bus.Qd if Qd_mvar is None else Qd_mvar
    (result,) = solve_opf_batch(
        case,
        np.asarray(Pd, dtype=float)[None, :],
        np.asarray(Qd, dtype=float)[None, :],
        warm_starts=[warm_start],
        options=options,
        model=model,
        deadline=deadline,
    )
    return result
