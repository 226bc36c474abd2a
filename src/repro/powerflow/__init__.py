"""Power-flow math substrate: admittances, injections, derivatives, solvers."""

from repro.powerflow.ybus import (
    AdmittanceMatrices,
    branch_admittances,
    make_connection_matrices,
    make_ybus,
)
from repro.powerflow.injections import (
    bus_injection,
    gen_injection,
    load_injection,
    mismatch_norm,
    polar_to_complex,
    power_balance_mismatch,
)
from repro.powerflow.derivatives import (
    dAbr_dV,
    dSbr_dV,
    dSbus_dV,
)
from repro.powerflow.dc import DCMatrices, dc_power_flow, make_bdc

__all__ = [
    "AdmittanceMatrices",
    "make_ybus",
    "branch_admittances",
    "make_connection_matrices",
    "bus_injection",
    "gen_injection",
    "load_injection",
    "power_balance_mismatch",
    "mismatch_norm",
    "polar_to_complex",
    "dSbus_dV",
    "dSbr_dV",
    "dAbr_dV",
    "DCMatrices",
    "make_bdc",
    "dc_power_flow",
]
