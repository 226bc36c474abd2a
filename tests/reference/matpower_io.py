"""``case_to_matpower``: the round-trip partner of ``case_from_matpower``.

The tests convert a :class:`~repro.grid.Case` back into MATPOWER-style row
lists and through :func:`repro.grid.io.case_from_matpower` again, which must
give an identical case.
"""

from __future__ import annotations

from typing import Dict, List

from repro.grid.components import Case


def case_to_matpower(case: Case) -> Dict[str, List[List[float]]]:
    """Convert a :class:`Case` back into MATPOWER-style row lists.

    The output dictionary has keys ``baseMVA``, ``bus``, ``gen``, ``branch``
    and ``gencost``.  Round-tripping through :func:`case_from_matpower` yields
    an identical case (checked by the property tests).
    """
    bus_rows = [
        [
            int(case.bus.bus_i[i]),
            int(case.bus.bus_type[i]),
            case.bus.Pd[i],
            case.bus.Qd[i],
            case.bus.Gs[i],
            case.bus.Bs[i],
            int(case.bus.area[i]),
            case.bus.Vm[i],
            case.bus.Va[i],
            case.bus.base_kv[i],
            int(case.bus.zone[i]),
            case.bus.Vmax[i],
            case.bus.Vmin[i],
        ]
        for i in range(case.n_bus)
    ]
    gen_rows = [
        [
            int(case.gen.bus[i]),
            case.gen.Pg[i],
            case.gen.Qg[i],
            case.gen.Qmax[i],
            case.gen.Qmin[i],
            case.gen.Vg[i],
            case.gen.mbase[i],
            int(case.gen.status[i]),
            case.gen.Pmax[i],
            case.gen.Pmin[i],
        ]
        for i in range(case.n_gen)
    ]
    branch_rows = [
        [
            int(case.branch.f_bus[i]),
            int(case.branch.t_bus[i]),
            case.branch.r[i],
            case.branch.x[i],
            case.branch.b[i],
            case.branch.rate_a[i],
            0.0,
            0.0,
            case.branch.ratio[i],
            case.branch.angle[i],
            int(case.branch.status[i]),
            case.branch.angmin[i],
            case.branch.angmax[i],
        ]
        for i in range(case.n_branch)
    ]
    gencost_rows = []
    ncost_max = case.gencost.coeffs.shape[1]
    for i in range(case.gencost.n):
        nc = int(case.gencost.ncost[i])
        coeffs = case.gencost.coeffs[i, ncost_max - nc :]
        gencost_rows.append(
            [
                int(case.gencost.model[i]),
                case.gencost.startup[i],
                case.gencost.shutdown[i],
                nc,
                *coeffs.tolist(),
            ]
        )
    return {
        "baseMVA": [[case.base_mva]],
        "bus": bus_rows,
        "gen": gen_rows,
        "branch": branch_rows,
        "gencost": gencost_rows,
    }
