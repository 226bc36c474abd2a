"""Structural validation of :class:`~repro.grid.Case` objects.

The numerical kernels assume a well-formed case (connected network, a single
reference bus, consistent bounds).  :func:`validate_case` checks those
assumptions up front and raises :class:`CaseValidationError` with every
violation listed, which is far easier to debug than a singular KKT matrix
three layers down.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.grid.components import Case, POLYNOMIAL, REF


class CaseValidationError(ValueError):
    """Raised when a case fails structural validation.

    The ``problems`` attribute lists every individual violation.
    """

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("invalid case:\n  - " + "\n  - ".join(self.problems))


def n_components(n_bus: int, f: np.ndarray, t: np.ndarray) -> int:
    """Connected-component count of the graph with edges ``(f[i], t[i])``."""
    parent = list(range(n_bus))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    count = n_bus
    for a, b in zip(f, t):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
            count -= 1
    return count


def validate_outage_branches(branches: Sequence[int], n_branch: int) -> None:
    """Check every outage index against the case's branch count.

    Raises a typed :class:`ValueError` instead of letting a negative index
    silently alias the *last* branch (NumPy semantics) or an out-of-range one
    surface as a bare ``IndexError`` inside the solver.
    """
    for branch in branches:
        if not 0 <= int(branch) < n_branch:
            raise ValueError(
                f"outage branch index {int(branch)} out of range for a case "
                f"with {n_branch} branches"
            )


def validate_case(case: Case, raise_on_error: bool = True) -> List[str]:
    """Check a case for structural problems.

    Returns the list of problems found (empty when valid).  When
    ``raise_on_error`` is true (the default) a non-empty list raises
    :class:`CaseValidationError` instead of being returned.
    """
    problems: List[str] = []

    if case.base_mva <= 0:
        problems.append(f"base_mva must be positive, got {case.base_mva}")

    # Unique bus numbers.
    if len(set(case.bus.bus_i.tolist())) != case.n_bus:
        problems.append("bus numbers are not unique")

    # Exactly one reference bus.
    n_ref = int(np.count_nonzero(case.bus.bus_type == REF))
    if n_ref != 1:
        problems.append(f"expected exactly one reference bus, found {n_ref}")

    # Voltage limits.
    if np.any(case.bus.Vmin <= 0):
        problems.append("Vmin must be strictly positive")
    if np.any(case.bus.Vmax < case.bus.Vmin):
        problems.append("Vmax < Vmin for at least one bus")

    # Generators reference existing buses.
    known = set(case.bus.bus_i.tolist())
    for g, b in enumerate(case.gen.bus):
        if int(b) not in known:
            problems.append(f"generator {g} references unknown bus {int(b)}")
    for l, (fb, tb) in enumerate(zip(case.branch.f_bus, case.branch.t_bus)):
        if int(fb) not in known or int(tb) not in known:
            problems.append(f"branch {l} references an unknown bus")
        if int(fb) == int(tb):
            problems.append(f"branch {l} is a self-loop at bus {int(fb)}")

    # Generator limits.
    if np.any(case.gen.Pmax < case.gen.Pmin):
        problems.append("Pmax < Pmin for at least one generator")
    if np.any(case.gen.Qmax < case.gen.Qmin):
        problems.append("Qmax < Qmin for at least one generator")

    # Reference bus must host an in-service generator (otherwise the slack
    # cannot balance the system).
    ref_buses = set(case.bus.bus_i[case.bus.bus_type == REF].tolist())
    gen_buses = set(case.gen.bus[case.gen.status > 0].tolist())
    if ref_buses and not ref_buses & gen_buses:
        problems.append("reference bus has no in-service generator")

    # Branch impedances: a branch with zero series impedance is singular.
    z_mag = np.hypot(case.branch.r, case.branch.x)
    if np.any((z_mag == 0) & (case.branch.status > 0)):
        problems.append("in-service branch with zero series impedance")

    # Cost model: only polynomial costs are supported by the OPF layer.
    if np.any(case.gencost.model != POLYNOMIAL):
        problems.append("only polynomial (model=2) generator costs are supported")
    if case.gencost.n != case.n_gen:
        problems.append("gencost must have exactly one row per generator")

    # Connectivity over in-service branches.
    on = case.branch.status > 0
    if case.n_bus > 1:
        f_int, t_int = case.branch_bus_indices()
        n_comp = n_components(case.n_bus, f_int[on], t_int[on])
        if n_comp != 1:
            problems.append(
                f"network is not connected ({n_comp} components over in-service branches)"
            )

    if problems and raise_on_error:
        raise CaseValidationError(problems)
    return problems
