"""Power-flow math substrate: admittances, injections, derivatives, solvers."""

from repro.powerflow.ybus import (
    AdmittanceMatrices,
    branch_admittances,
    make_connection_matrices,
    make_ybus,
)
from repro.powerflow.injections import (
    branch_flows,
    bus_injection,
    bus_injection_batch,
    gen_injection,
    load_injection,
    mismatch_norm,
    polar_to_complex,
    power_balance_mismatch,
)
from repro.powerflow.derivatives import (
    dAbr_dV,
    dIbr_dV,
    dSbr_dV,
    dSbus_dV,
)
from repro.powerflow.hessians import (
    d2ASbr_dV2,
    d2Sbr_dV2,
    d2Sbus_dV2,
)
from repro.powerflow.newton import PowerFlowResult, newton_power_flow
from repro.powerflow.dc import DCMatrices, dc_nominal_flows, dc_power_flow, make_bdc

__all__ = [
    "AdmittanceMatrices",
    "make_ybus",
    "branch_admittances",
    "make_connection_matrices",
    "bus_injection",
    "bus_injection_batch",
    "branch_flows",
    "gen_injection",
    "load_injection",
    "power_balance_mismatch",
    "mismatch_norm",
    "polar_to_complex",
    "dSbus_dV",
    "dSbr_dV",
    "dAbr_dV",
    "dIbr_dV",
    "d2Sbus_dV2",
    "d2Sbr_dV2",
    "d2ASbr_dV2",
    "PowerFlowResult",
    "newton_power_flow",
    "DCMatrices",
    "make_bdc",
    "dc_power_flow",
    "dc_nominal_flows",
]
