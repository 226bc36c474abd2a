"""AC-OPF problem model: variable indexing, bounds and starting points.

The optimisation vector follows the paper (and MATPOWER)::

    x = [ Va (nb) ; Vm (nb) ; Pg (ng) ; Qg (ng) ]

with voltage angles in radians, magnitudes in p.u. and generator injections in
p.u. on the system MVA base.  The reference-bus angle is fixed through its
bounds (``xmin == xmax``), which the MIPS layer turns into an equality
constraint — this is why the paper's Table II reports ``#λ = 2·nb + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.grid.components import Case
from repro.powerflow.derivatives import dSbr_dV
from repro.powerflow.ybus import AdmittanceMatrices, make_ybus

if TYPE_CHECKING:  # pragma: no cover
    from repro.opf.batch import BatchedOPFModel


@dataclass(frozen=True)
class VariableIndex:
    """Slices of the four variable groups inside the optimisation vector."""

    nb: int
    ng: int

    @property
    def nx(self) -> int:
        """Total number of optimisation variables."""
        return 2 * self.nb + 2 * self.ng

    @property
    def va(self) -> slice:
        """Voltage-angle block."""
        return slice(0, self.nb)

    @property
    def vm(self) -> slice:
        """Voltage-magnitude block."""
        return slice(self.nb, 2 * self.nb)

    @property
    def pg(self) -> slice:
        """Active generator-injection block."""
        return slice(2 * self.nb, 2 * self.nb + self.ng)

    @property
    def qg(self) -> slice:
        """Reactive generator-injection block."""
        return slice(2 * self.nb + self.ng, 2 * self.nb + 2 * self.ng)

    def split(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Split an optimisation vector into its named components."""
        return {
            "Va": x[self.va],
            "Vm": x[self.vm],
            "Pg": x[self.pg],
            "Qg": x[self.qg],
        }

    def join(self, Va: np.ndarray, Vm: np.ndarray, Pg: np.ndarray, Qg: np.ndarray) -> np.ndarray:
        """Assemble an optimisation vector from its named components."""
        return np.concatenate([Va, Vm, Pg, Qg])


def rated_branches(case: Case) -> np.ndarray:
    """Indices of the branches with a flow limit: in service and ``rate_a > 0``
    (``rate_a == 0`` means unlimited)."""
    return np.flatnonzero((case.branch.rate_a > 0) & (case.branch.status > 0))


class OPFModel:
    """Everything about one case that the OPF evaluations need.

    The model is load-agnostic: loads enter only through the power-balance
    constraint evaluation, so one model can be reused across all sampled
    scenarios of a case (this is what makes dataset generation cheap).

    It holds the case's variable layout, bounds and start points, and owns
    the batch-axis element kernels every solve runs on (:attr:`batched`).
    For the matrix-form evaluation of :mod:`repro.opf.constraints` — the
    independent reference of the KKT certificate and, with the test-side
    matrix-form Lagrangian Hessian (``tests/reference/opf_hessian.py``), of
    the element-kernel tests — it also holds what is *constant across
    evaluations*: the generator-connection blocks of the power-balance
    Jacobian and the admittance rows of the rated branches.  Every rated
    branch (:func:`rated_branches`) carries a squared apparent-power limit at
    both ends.
    """

    def __init__(self, case: Case):
        self.case = case
        self.adm: AdmittanceMatrices = make_ybus(case)
        self.idx = VariableIndex(nb=case.n_bus, ng=case.n_gen)

        self.limited_branches = rated_branches(case)
        #: Squared flow limits in p.u.
        self.flow_limit_sq = (case.branch.rate_a[self.limited_branches] / case.base_mva) ** 2

        self._ref = case.ref_bus_indices()
        if self._ref.size != 1:
            raise ValueError("OPF requires exactly one reference bus")

        nb, ng = case.n_bus, case.n_gen
        lim = self.limited_branches
        #: In-service mask of the generators (float, constant per case).
        self.gen_on = (case.gen.status > 0).astype(float)
        #: Negated generator-connection block of the power-balance Jacobian.
        self.neg_Cg_on = (-(self.adm.Cg @ sp.diags(self.gen_on))).tocsr()
        #: Constant zero blocks of the Jacobians.
        self.zero_bg = sp.csr_matrix((nb, ng))
        self.zero_lg = sp.csr_matrix((lim.size, 2 * ng))
        #: Admittance / connection rows of the rated branches (constant slices).
        self.Yf_lim = self.adm.Yf[lim]
        self.Yt_lim = self.adm.Yt[lim]
        self.Cf_lim = self.adm.Cf[lim]
        self.Ct_lim = self.adm.Ct[lim]
        self._batched: Optional["BatchedOPFModel"] = None

    @property
    def batched(self) -> "BatchedOPFModel":
        """The model's batch-axis element kernels (built on first use).

        Every solve of the case runs on these — one-row solves included —
        and the kernels carry the model's lockstep plan, so a model reused
        across calls builds both once.
        """
        if self._batched is None:
            from repro.opf.batch import BatchedOPFModel  # batch.py imports this module

            self._batched = BatchedOPFModel(self)
        return self._batched

    # ------------------------------------------------------------------ sizes
    @property
    def n_eq_nonlin(self) -> int:
        """Number of nonlinear equality constraints (2·nb power-balance rows)."""
        return 2 * self.case.n_bus

    @property
    def n_ineq_nonlin(self) -> int:
        """Number of nonlinear inequality constraints (2 per limited branch)."""
        return 2 * self.limited_branches.size

    # ----------------------------------------------------------------- bounds
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Variable bounds ``(xmin, xmax)``.

        Non-reference voltage angles are unbounded, the reference angle is
        fixed, magnitudes follow the bus voltage limits and generator
        injections follow their capability limits (out-of-service units are
        pinned at zero).
        """
        case = self.case
        nb, ng = case.n_bus, case.n_gen
        xmin = np.full(self.idx.nx, -np.inf)
        xmax = np.full(self.idx.nx, np.inf)

        ref = self._ref[0]
        va_ref = np.deg2rad(case.bus.Va[ref])
        xmin[self.idx.va][...] = -np.inf
        xmax[self.idx.va][...] = np.inf
        # Slices of xmin/xmax return views, so in-place assignment works.
        xmin[ref] = va_ref
        xmax[ref] = va_ref

        xmin[self.idx.vm] = case.bus.Vmin
        xmax[self.idx.vm] = case.bus.Vmax

        on = case.gen.status > 0
        pmin = np.where(on, case.gen.Pmin, 0.0) / case.base_mva
        pmax = np.where(on, case.gen.Pmax, 0.0) / case.base_mva
        qmin = np.where(on, case.gen.Qmin, 0.0) / case.base_mva
        qmax = np.where(on, case.gen.Qmax, 0.0) / case.base_mva
        xmin[self.idx.pg] = pmin
        xmax[self.idx.pg] = pmax
        xmin[self.idx.qg] = qmin
        xmax[self.idx.qg] = qmax
        return xmin, xmax

    # ----------------------------------------------------------- start points
    def default_start(self) -> np.ndarray:
        """The *imprecise default* starting point of the paper.

        This mirrors MATPOWER's OPF initialisation: case voltage profile (with
        generator buses at their set points) and the case's scheduled
        generator outputs, clipped into bounds.
        """
        case = self.case
        Va = np.deg2rad(case.bus.Va)
        Vm = case.bus.Vm.copy()
        gbus = case.gen_bus_indices()
        on = case.gen.status > 0
        Vm[gbus[on]] = case.gen.Vg[on]
        Pg = case.gen.Pg / case.base_mva
        Qg = case.gen.Qg / case.base_mva
        x0 = self.idx.join(Va, Vm, Pg, Qg)
        xmin, xmax = self.bounds()
        finite_lo, finite_hi = np.isfinite(xmin), np.isfinite(xmax)
        x0[finite_lo] = np.maximum(x0[finite_lo], xmin[finite_lo])
        x0[finite_hi] = np.minimum(x0[finite_hi], xmax[finite_hi])
        return x0

    # -------------------------------------------------------------- voltages
    def complex_voltage(self, x: np.ndarray) -> np.ndarray:
        """Complex bus voltages encoded in ``x``."""
        return x[self.idx.vm] * np.exp(1j * x[self.idx.va])

    # ------------------------------------------------------- shared derivatives
    def branch_flow_derivatives(self, x: np.ndarray, V: Optional[np.ndarray] = None):
        """First derivatives of the rated-branch flows at ``x``.

        Returns ``((dSf_dVa, dSf_dVm, Sf), (dSt_dVa, dSt_dVm, St))`` for the
        from/to ends of the rated branches.
        """
        if V is None:
            V = self.complex_voltage(x)
        return dSbr_dV(self.Yf_lim, self.Cf_lim, V), dSbr_dV(self.Yt_lim, self.Ct_lim, V)
