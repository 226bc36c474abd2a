"""AC optimal power flow: model, constraints, lockstep kernels, driver, certificate and warm starts."""

from repro.opf.batch import BatchedOPFModel, solve_opf_batch
from repro.opf.certificate import CERTIFICATE_TOL, KKTCertificate, certify_opf
from repro.opf.costs import (
    objective,
    objective_hessian_diag,
    polynomial_cost,
    polynomial_cost_derivatives,
    total_cost,
)
from repro.opf.constraints import branch_flow_limits, constraint_function, power_balance
from repro.opf.model import OPFModel, VariableIndex
from repro.opf.result import OPFResult, build_opf_result
from repro.opf.solver import solve_opf
from repro.opf.warmstart import WarmStart

__all__ = [
    "BatchedOPFModel",
    "CERTIFICATE_TOL",
    "KKTCertificate",
    "certify_opf",
    "OPFModel",
    "VariableIndex",
    "OPFResult",
    "WarmStart",
    "build_opf_result",
    "solve_opf",
    "solve_opf_batch",
    "objective",
    "objective_hessian_diag",
    "polynomial_cost",
    "polynomial_cost_derivatives",
    "total_cost",
    "power_balance",
    "branch_flow_limits",
    "constraint_function",
]
